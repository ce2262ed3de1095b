"""Every ``raise`` statement of ``src/srg12`` has a row in a raise table,
and the source rules that ``ast`` can check hold.

A row is ``(call, error, message[, command])``: ``call`` takes a
``MonkeyPatch`` and raises ``error`` with the text ``message``; ``command``,
where a command line reaches the raise, is ``(argv, exit code, last stderr
line)``.  Each table sits beside its module's tests, with the crafted
inputs and the proofs its rows need.  graph6's ``ERROR_ROWS`` keep their
own shape and byte-offset test, and join only the reach check here.

Each file of ``src/srg12`` and of ``tests`` is read and parsed once, on
import; the raise sites and every source rule read those trees.
"""

import ast
import traceback
from pathlib import Path

import pytest

import srg12
from oracles import command_outcome, raise_error, raised
from srg12 import graph6
from srg12.graph import Graph
from test_census import CENSUS_IDS, CENSUS_RAISES
from test_cli import CLI_IDS, CLI_RAISES
from test_constructions import CONSTRUCTION_IDS, CONSTRUCTION_RAISES
from test_graph import INPUT_IDS, INPUT_ROWS
from test_graph6 import ERROR_ROWS
from test_identities import IDENTITY_IDS, IDENTITY_RAISES
from test_spectral import SPECTRAL_IDS, SPECTRAL_RAISES

SRC = Path(srg12.__file__).parent
SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
TREES = {name: ast.parse(text, filename=name) for name, text in SOURCES.items()}
TEST_TREES = {path.name: ast.parse(path.read_text(), filename=path.name)
              for path in sorted(Path(__file__).parent.glob("*.py"))}
TABLES = {"census": (CENSUS_RAISES, CENSUS_IDS), "cli": (CLI_RAISES, CLI_IDS),
          "constructions": (CONSTRUCTION_RAISES, CONSTRUCTION_IDS),
          "input": (INPUT_ROWS, INPUT_IDS), "identities": (IDENTITY_RAISES, IDENTITY_IDS),
          "spectral": (SPECTRAL_RAISES, SPECTRAL_IDS)}


def param(table, row_id, call, error, message, command=None):
    return pytest.param(call, error, message, command, id=f"{table}-{row_id}")


ROWS = [param(table, row_id, *row)
        for table, (rows, ids) in TABLES.items() for row, row_id in zip(rows, ids, strict=True)]


@pytest.fixture(autouse=True)
def c4_file(monkeypatch, tmp_path):
    """A 4-cycle in ``c4.g6`` of the working directory, for the CLI rows."""
    monkeypatch.chdir(tmp_path)
    graph6.save_file("c4.g6", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


@pytest.mark.parametrize("call, error, message, command", ROWS)
def test_type_message_and_command(monkeypatch, capsys, call, error, message, command):
    exc = raised(lambda: call(monkeypatch))
    assert (type(exc), str(exc)) == (error, message)
    if command:
        argv, code, line = command
        assert command_outcome(capsys, argv) == (code, "", line)


def raise_sites():
    """The site of every raise statement of ``src/srg12`` as "file:line", and
    the sites of the bare ones.  A bare ``raise`` re-raises with the
    traceback it caught, whose frame stands at the failing statement of the
    ``try``: its site is the first statement of that ``try``."""
    sites, bare = set(), set()
    for name, tree in TREES.items():
        tries = {id(node): top.body[0].lineno for top in ast.walk(tree)
                 if isinstance(top, ast.Try) for handler in top.handlers
                 for node in ast.walk(handler) if isinstance(node, ast.Raise) and not node.exc}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                site = f"{name}:{tries.get(id(node), node.lineno)}"
                sites.add(site)
                if id(node) in tries:
                    bare.add(site)
    return sites, bare


def reached(exc, bare):
    """The sites an exception's traceback covers: its last frame in
    ``src/srg12``, and every bare re-raise it passes through."""
    frames = [f"{Path(f.filename).name}:{f.lineno}"
              for f in traceback.extract_tb(exc.__traceback__) if Path(f.filename).parent == SRC]
    return {frames[-1], *bare.intersection(frames)}


def test_rows_reach_every_raise(monkeypatch, tmp_path):
    sites, bare = raise_sites()
    covered = set()
    for rows, _ in TABLES.values():
        for call, *_ in rows:
            with monkeypatch.context() as mp:
                covered |= reached(raised(lambda: call(mp)), bare)
    for call, data, *_ in ERROR_ROWS:
        covered |= reached(raise_error(tmp_path, call, data)[0], bare)
    assert sites - covered == set(), "raise statements that no row reaches"
    assert covered - sites == set(), "rows whose last frame is no raise statement"


# -- source rules --------------------------------------------------------------


def test_source_files_are_read():
    assert len(TREES) >= 10 and "oracles.py" in TEST_TREES


def test_no_assert_statements_in_src():
    # python -O strips assert, so no invariant of the package may use it
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_private_names_imported_across_modules():
    # a module's underscore names stay its own, so the layering holds:
    # constructions reads the spectrum through spectral.srg_spectrum
    found = [f"{name}: {node.module}.{alias.name}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module
             and (node.level or node.module.startswith("srg12"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_process_pool_in_src():
    # every census runs in process, through one code path
    found = [f"{name}: {word}" for name, text in SOURCES.items()
             for word in ("ProcessPoolExecutor", "concurrent.futures", "multiprocessing")
             if word in text]
    assert found == []


def names_used(node, own=None) -> set[str]:
    """The names (``ast.Name`` ids and ``ast.Attribute`` attributes) under
    ``node``, ``own`` left out."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}) - {own}


def unreached_definitions(trees, exported, classes=(), readers=()):
    """Top-level functions and classes of the module trees ``trees``, and
    the methods (dunders aside) of the top-level classes named in
    ``classes``, that are not in ``exported`` and that no code of ``trees``
    or ``readers`` names but their own definition."""
    defined, used = set(), set()
    for tree in trees:
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(own)
            if isinstance(top, ast.ClassDef) and own in classes:
                defined.update(item.name for item in top.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("__"))
            used |= names_used(top, own)
    for tree in readers:
        used |= names_used(tree)
    return sorted(defined - used - set(exported))


def test_every_top_level_definition_is_reached():
    # a function, class or Graph method of the package that no other code
    # of the package names and that is not exported is dead code, unless
    # the benchmark harness looks it up by name
    perfbench_pinned = {
        # perfbench/run.py names the expected classes of the exhaustive
        # workload by these certificates
        "named_type_certificates",
    }
    # anything else listed is dead; a pinned name that the package reaches
    # again must leave the allow-list
    assert unreached_definitions(TREES.values(), srg12.__all__, {"Graph"}) == sorted(
        perfbench_pinned)


def test_every_oracle_is_reached():
    # an oracle or helper that no test module names checks nothing
    readers = [tree for name, tree in TEST_TREES.items() if name != "oracles.py"]
    assert unreached_definitions([TEST_TREES["oracles.py"]], (), readers=readers) == []


def test_unreached_definition_is_found():
    source = ast.parse(
        "def dead(n):\n    return dead(n - 1)\n"  # recursion is no reach
        "def called():\n    pass\n"
        "class Named:\n    pass\n"
        "class Kept:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "def exported():\n    return called(), mod.Named, Kept()\n"
    )
    assert unreached_definitions([source], {"exported"}) == ["dead"]
    assert unreached_definitions([source], ()) == ["dead", "exported"]
    assert unreached_definitions([source], {"exported"}, {"Kept"}) == ["dead", "unused"]
    # a reader's names count, its own definitions do not
    reader = ast.parse("def dead():\n    pass\nexported()\n")
    assert unreached_definitions([source], (), readers=[reader]) == ["dead"]
