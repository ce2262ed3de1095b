"""Every ``raise`` statement of ``src/srg12`` has a row in a raise table.

A row is ``(call, error, message[, command])``: ``call`` takes a
``MonkeyPatch`` and raises ``error`` with the text ``message``; ``command``,
where a command line reaches the raise, is ``(argv, exit code, last stderr
line)``.  Each table sits beside its module's tests, with the crafted
inputs and the proofs its rows need.  graph6's ``ERROR_ROWS`` keep their
own shape and byte-offset test, and join only the reach check here.
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
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        tries = {id(node): top.body[0].lineno for top in ast.walk(tree)
                 if isinstance(top, ast.Try) for handler in top.handlers
                 for node in ast.walk(handler) if isinstance(node, ast.Raise) and not node.exc}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                site = f"{path.name}:{tries.get(id(node), node.lineno)}"
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
