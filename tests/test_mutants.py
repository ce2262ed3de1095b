"""Source mutants of the counting kernels, the orbit expansion of the
exhaustive census, the verification scan, the ledger's runner, the census
residuals, the spectral routes, the graph6 codec, the bit-matrix transpose
and symmetry test, and the symmetry check of ``Graph``, each of which a
check must detect.

Each row of ``MUTANTS`` names a module of ``srg12``, an exact snippet of its
source, a replacement and a kill check.  The snippet must occur exactly
once, so a refactor that moves it fails here by name and the row must be
re-expressed.  The mutated source is executed as a fresh module inside the
``srg12`` package (relative imports resolve to the real modules; nothing is
registered in ``sys.modules``), and the kill check must report a
difference.  For a mutant of ``census``, ``_bits``, ``graph`` or ``graph6``
the check is a row of ``DIFFERENTIALS`` (``tests/test_differentials.py``);
the modules without rows (``identities``, ``cli`` and ``spectral``) have
a function below that reads a report, the ledger, a command or spectral
values.  Every check also runs on the unmutated module, where it must
report none.  No subprocess runs.
"""

import io
import json
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple, Union

import pytest

from oracles import report_entry
from test_differentials import ROW, Differential, first_difference
from test_identities import LEDGER_STAGES, STAGE_FAIL_ENTRY, failures, inject_fault, not_passed
import srg12
from srg12 import census
from srg12.constructions import build_paley9
from srg12.errors import InfeasibleParametersError
from srg12.graph import Graph, SrgParams
from srg12.spectral import charpoly_prefix

PACKAGE = Path(srg12.__file__).parent
DATA = Path(__file__).parent / "data"


# -- kill checks: True when the module differs from the independent route --


def cycle5_report_differs(mod) -> bool:
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    golden = json.loads((DATA / "check_cycle5.json").read_text())
    return mod.run_all_checks(g).to_json_dict()["entries"] != golden["entries"]


def partition_entry_differs(mod) -> bool:
    # one 3-matching too many breaks e4 + e5 + e6 = C(m, 3), which the
    # entry reports as 1 against 0
    with pytest.MonkeyPatch.context() as mp:
        real = census._count_span6_triples
        mp.setattr(census, "_count_span6_triples", lambda *args: real(*args) + 1)
        entry = report_entry(mod.run_all_checks(build_paley9()), "edge_triples_partition")
    return (entry.status, entry.expected, entry.actual) != ("fail", 1, 0)


def fault_report_differs(mod) -> bool:
    # every census and spectral stage failing at once on Paley 9: the
    # progress names against LEDGER_STAGES, and the fail and skip entries
    # against the skips ENTRY_NEEDS gives
    names = []
    with pytest.MonkeyPatch.context() as mp:
        for stage in STAGE_FAIL_ENTRY:
            inject_fault(mp, stage)
        report = mod.run_all_checks(build_paley9(), progress=names.append)
    return names != LEDGER_STAGES or not_passed(report) != failures(
        {name: report_entry(report, name).detail for name in STAGE_FAIL_ENTRY.values()})


def escaped_error_differs(mod) -> bool:
    # on Paley 9, a stage raising TypeError and an entry whose sides raise
    # KeyError leave their fail entries, and run_all_checks returns
    def fail(*args):
        raise KeyError("injected")

    with pytest.MonkeyPatch.context() as mp:
        message = inject_fault(mp, "cn.quad_pair_census", TypeError)
        mp.setattr(mod, "expected_walk_total", fail)
        try:
            report = mod.run_all_checks(build_paley9())
        except Exception:
            return True
    return (report_entry(report, "quad_pair_census").detail,
            report_entry(report, "walk_total").detail) != (message, "'injected'")


def residual_differs(mod) -> bool:
    # one triangle too many: the p3 residual is the census's p3 less the
    # golden's, which has residual 0
    golden = json.loads((DATA / "census_paley9.json").read_text())
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(io.StringIO()):
        real = census.count_triangles
        mp.setattr(census, "count_triangles", lambda g: real(g) + 1)
        mod.main(["census", "--graph", "paley9", "--what", "cycles"])
    payload = json.loads(out.getvalue())
    return payload["residuals"]["p3"] != payload["cycles"]["p3"] - golden["cycles"]["p3"]


def feasible_valencies_differ(mod) -> bool:
    # the family's spectrally feasible valencies up to 1000
    found = []
    for k in range(4, 1001, 2):
        try:
            mod.srg_spectrum(SrgParams((k * k + 2) // 2, k, 1, 2))
        except InfeasibleParametersError:
            continue
        found.append(k)
    return found != [4, 14, 22, 112, 994]


def c6_closed_form_differs(mod) -> bool:
    # c6(99, 14) as the README gives it, and c6 of Paley 9 by its traces
    try:
        return (mod.c6_closed_form(99, 14) != -47288703
                or mod.c6_closed_form(9, 4) != charpoly_prefix(build_paley9()).c6)
    except ValueError:
        return True


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    check: Union[Differential, Callable[[types.ModuleType], bool]]


def differs(check, mod) -> bool:
    """Whether ``mod`` differs from the independent route of ``check``."""
    if isinstance(check, Differential):
        try:
            return first_difference(check, mod) is not None
        except Exception:  # a mutant may raise anything
            return True
    return check(mod)


MUTANTS = [
    # the triangle-id table and the two kernels that read it
    Mutant("one_in holds triangles with at least one vertex in N(x)", "census",
           "digits[0] & ~digits[1] for digits in counts",
           "digits[0] | digits[1] for digits in counts", ROW["hexagon"]),
    Mutant("hexagon triangles through C kept", "census",
           "tris &= ~tri_of[x]", "tris &= -1", ROW["hexagon"]),
    Mutant("p5 without the C correction", "census",
           "p5 -= (rows[x] & base4).bit_count()", "p5 -= 0", ROW["hexagon"]),
    Mutant("toff keeps the triangles through N(v0)", "census",
           "toff &= ~tri_of[x]", "toff &= -1", ROW["hexagon"]),
    Mutant("toff keeps the triangles with minimum at most v0", "census",
           "toff = -1 << max(map(int.bit_length, tri_of[:v0 + 1]))", "toff = -1",
           ROW["hexagon"]),
    Mutant("c_C^2 term dropped", "census",
           "count += (digit_total(near, digit) - digit_total(digits1, digit)",
           "count += (0 - digit_total(digits1, digit)", ROW["hexagon"]),
    Mutant("pentagon-side triangles through the apex kept", "census",
           "tris = one_in[u] & one_in[v] & ~tri_of[t]",
           "tris = one_in[u] & one_in[v]", ROW["pentagon-edges"]),
    Mutant("n4 triangle term dropped", "census",
           "n4 -= (tris & one_in[t]).bit_count()", "n4 -= 0", ROW["pentagon-edges"]),
    Mutant("n4 slow-path triangle term dropped", "census",
           "n4 -= (rows[w] & rows[x] & ys).bit_count()", "n4 -= 0",
           ROW["pentagon-edges"]),
    Mutant("n4 path product over every x", "census",
           "n4 += digit_total(ydigits, digit & rt) << i",
           "n4 += digit_total(ydigits, digit) << i", ROW["pentagon-edges"]),
    # earlier kernels
    Mutant("triangle pairs without the two-corner rule", "census",
           "for w in iter_bits((ra & rb | ra & rc | rb & rc) & ~tmask):",
           "for w in iter_bits(0):", ROW["triangle-pairs"]),
    Mutant("c_uv dropped from the 3-matching sum", "census",
           "+ du + dv - 2 + (rows[u] & rows[v]).bit_count())",
           "+ du + dv - 2)", ROW["edge-triples"]),
    Mutant("coded walks without the c14 chords", "census",
           "xs = c14 | c24", "xs = c24", ROW["walks"]),
    Mutant("n9 against the same corners' single-corner set", "census",
           "only_bd = only_b | only_d", "only_bd = only_a | only_c", ROW["qpe-incidences"]),
    Mutant("n4 incidences of t_ab against corners a and c", "census",
           "n4_inc += (rows[t_ab] & (only_c | only_d)).bit_count()",
           "n4_inc += (rows[t_ab] & (only_c | only_a)).bit_count()", ROW["qpe-incidences"]),
    Mutant("an n4 completion counted twice", "census",
           "n4_inc += len(kinds) - prisms", "n4_inc += 2 * (len(kinds) - prisms)",
           ROW["completion-census"]),
    Mutant("the d term of the n2 mask dropped", "census",
           "rows[t_bc] & ((1 << d) | cd)", "rows[t_bc] & cd", ROW["side-apexes"]),
    Mutant("the q != r test dropped", "census",
           " or qs == rs:", ":", ROW["corner-completions-trusting"]),
    Mutant("the rows[z] half of the corner test dropped", "census",
           "if not pendants & (ry | rz):", "if not pendants & ry:", ROW["corner-completions-trusting"]),
    Mutant("completion census skips a triangle", "census",
           "for tri in _triangle_ids(rows)[0]:", "for tri in _triangle_ids(rows)[0][1:]:",
           ROW["completion-census"]),
    Mutant("unmatched quadrilateral list drops one (w, x)", "census",
           "for w, xs in partner.items() for x in iter_bits(xs)]",
           "for w, xs in partner.items() for x in iter_bits(xs)][1:]", ROW["quad-pairs"]),
    # described in CHANGES.md for the shared-mask kernels and the coded walks
    Mutant("`excluded` not counted", "census",
           "excluded += (later & twice).bit_count()", "excluded += 0", ROW["triangle-pairs"]),
    Mutant("the highest n3 id taken", "census",
           "tj = tris[(cross2 & -cross2).bit_length() - 1]", "tj = tris[cross2.bit_length() - 1]",
           ROW["triangle-pairs"]),
    Mutant("n4 with one prism subtracted", "census",
           "n4 = ends // 2 - 2 * prisms", "n4 = ends // 2 - prisms", ROW["quad-pairs"]),
    Mutant("the shared-x test dropped", "census",
           "not (xs & (xs - 1) or xs & xmask)", "not xs & (xs - 1)", ROW["quad-pairs"]),
    Mutant("drop the c24 term", "census", "xs = c14 | c24", "xs = c14", ROW["walks"]),
    Mutant("drop the -|chord3| correction", "census",
           "house += h - t", "house += h", ROW["walks"]),
    Mutant("count paws as |near|", "census",
           "t = chord3.bit_count()", "t = near.bit_count()", ROW["walks"]),
    Mutant("pentagons summed over near instead of near - chord3", "census",
           "far = near ^ chord3", "far = near", ROW["walks"]),
    # described in CHANGES.md for the orbit expansion, the shared-mask
    # kernels and the coded walks, re-expressed against the current code
    Mutant("an orbit missing a permutation", "graph",
           "perms = list(itertools.permutations(range(n)))",
           "perms = list(itertools.permutations(range(n)))[:-1]", ROW["orbit"]),
    Mutant("canonical_code wrong on full codes", "graph",
           "return min(code_orbit(code, n))",
           "return min(code_orbit(code, n)) if code.bit_count() < n * (n - 1) // 2 else 0",
           ROW["orbit"]),
    Mutant("one tally popped per class", "census",
           "count = sum(map(tally.pop, orbit & tally.keys()))",
           "count = tally.pop(next(iter(tally)))", ROW["six-census"]),
    Mutant("max for min", "census", "cert = min(orbit)", "cert = max(orbit)",
           ROW["six-census"]),
    Mutant("c_C ignored", "census",
           "near = neighbour_count_digits(rows, common, base3)", "near = []", ROW["hexagon"]),
    Mutant("C cut to one vertex", "census",
           "                if common:\n",
           "                if common:\n                    common &= -common\n", ROW["hexagon"]),
    Mutant("the quadrilateral guard off", "census", "if found != k - 2:", "if False:",
           ROW["quad-pairs"]),
    Mutant("two-chord test ignoring c14 & c24", "census",
           "if hit & chord3 or hit and c14 & c24 & low:", "if hit & chord3:", ROW["walks"]),
    Mutant("two-chord test ignoring chord3", "census",
           "if hit & chord3 or hit and c14 & c24 & low:", "if hit and c14 & c24 & low:",
           ROW["walks"]),
    # the verification scan, which stops after the row that completes both
    # of its witnesses
    Mutant("the scan stops at the first witness of either kind", "graph",
           "if lambda_witness and mu_witness:", "if lambda_witness or mu_witness:",
           ROW["verify"]),
    Mutant("mu vacuous against n(n - 1)/2", "graph",
           "== n * (n - 1)", "== n * (n - 1) // 2", ROW["verify"]),
    Mutant("a later bad edge overwrites the lambda witness", "graph",
           "if c != expected.lam and lambda_witness is None:", "if c != expected.lam:",
           ROW["verify"]),
    # the ledger's runner and the census residuals read off its entries
    Mutant("the partition entry never fails", "identities",
           "(1, int(comb(f.m, 3) == t.e4 + t.e5 + t.e6))", "(1, 1)", partition_entry_differs),
    Mutant("info entries able to fail", "identities",
           '"info" if row.kind == "info" else', "", cycle5_report_differs),
    Mutant("skip names in the order of failure", "identities",
           "[s for s in row.needs if s in errors]",
           "[s for s in errors if s in row.needs]", fault_report_differs),
    Mutant("a skip names only the first failed stage", "identities",
           "f\"needs {', '.join(failed)}, which failed\"", "f\"needs {failed[0]}, which failed\"",
           fault_report_differs),
    Mutant("progress only after a stage that succeeded", "identities",
           "progress(row.name)", "row.name in done and progress(row.name)",
           fault_report_differs),
    Mutant("the detail dropped", "identities",
           "*detail = row.sides(subject, *(done[s] for s in row.needs))",
           "*detail = row.sides(subject, *(done[s] for s in row.needs))[:2]",
           cycle5_report_differs),
    Mutant("only the ledger's own errors recorded", "identities",
           "except Exception as exc:", "except (ValueError, CountingInconsistencyError) as exc:",
           escaped_error_differs),
    Mutant("holds inverted", "identities",
           '1, int(ok), "pass" if ok else "fail"', '1, int(ok), "fail" if ok else "pass"',
           cycle5_report_differs),
    Mutant("a residual read as expected - actual", "cli",
           "entries[entry].actual - entries[entry].expected",
           "entries[entry].expected - entries[entry].actual", residual_differs),
    # spectral guards no family input reaches: a sign slip makes r1 negative,
    # and a dropped factor leaves the c6 numerator indivisible by 576
    Mutant("r1 numerator with its sign flipped", "spectral",
           "num = -k - (n - 1) * lam2", "num = k + (n - 1) * lam2", feasible_valencies_differ),
    Mutant("c6 numerator without its (k - 2) factor", "spectral",
           "num = n * k * (k - 2) * poly", "num = n * k * poly", c6_closed_form_differs),
    # the graph6 codec, read against the per-byte loops
    Mutant("column bits not reversed", "graph6",
           'int.from_bytes(raw.translate(_REVERSED), "little")', 'int.from_bytes(raw, "little")',
           ROW["graph6-loops"]),
    Mutant("padding test dropped, so B~ decodes", "graph6",
           "if bits >> need_bits:", "if False:", ROW["graph6-loops"]),
    Mutant("byte 127 read as a body byte", "graph6",
           "rest = body.lstrip(_BODY_BYTES)", 'rest = body.lstrip(_BODY_BYTES + b"\\x7f")',
           ROW["graph6-loops"]),
    # the bit-matrix transpose and the symmetry test, read against the
    # per-bit loop, and the symmetry check of Graph that calls the test
    Mutant("columns read in the wrong order", "_bits",
           "return [int(cells[n - 1 - j::n], 2) for j in range(n)]",
           "return [int(cells[j::n], 2) for j in range(n)]", ROW["transpose"]),
    Mutant("a shifted slice start", "_bits",
           "int(cells[n - 1 - j::n], 2)", "int(cells[n - j::n], 2)", ROW["transpose"]),
    Mutant("is_symmetric skipping its last column", "_bits",
           'cells == "".join([cells[j::n] for j in range(n)])',
           'cells == "".join([cells[j::n] for j in range(n - 1)])', ROW["is-symmetric"]),
    Mutant("the symmetry check of Graph turned off", "graph",
           "if not is_symmetric(self.rows):", "if False:", ROW["graph-symmetry"]),
]

# Triangles through u have two vertices in N(u), so one_in[u] already
# excludes them: no check can detect this mutant.
EQUIVALENT = Mutant("pentagon-side triangles through u excluded twice", "census",
                    "tris = one_in[u] & one_in[v] & ~tri_of[t]",
                    "tris = one_in[u] & one_in[v] & ~(tri_of[t] | tri_of[u])",
                    ROW["pentagon-edges"])


def load(module: str, snippet: str = "", replacement: str = "") -> types.ModuleType:
    """``srg12.<module>`` executed afresh, with ``snippet`` (which must occur
    exactly once) replaced."""
    path = PACKAGE / f"{module}.py"
    source = path.read_text()
    if snippet:
        found = source.count(snippet)
        if found != 1:
            pytest.fail(f"snippet {snippet!r} occurs {found} times in {module}.py")
        source = source.replace(snippet, replacement)
    mod = types.ModuleType(f"srg12.{module}")
    mod.__package__ = "srg12"
    mod.__file__ = str(path)
    exec(compile(source, str(path), "exec"), mod.__dict__)
    return mod


def require_killed(mutant: Mutant) -> None:
    if not differs(mutant.check, load(mutant.module, mutant.snippet, mutant.replacement)):
        pytest.fail(f"mutant survived: {mutant.name}")


def check_id(check) -> str:
    return check.name if isinstance(check, Differential) else check.__name__


@pytest.mark.parametrize("check", sorted({m.check for m in MUTANTS}, key=check_id), ids=check_id)
def test_unmutated_modules_pass_the_check(check):
    modules = {m.module for m in MUTANTS if m.check is check}
    for module in modules:
        assert not differs(check, load(module))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant):
    require_killed(mutant)


def test_surviving_mutant_fails_by_name():
    with pytest.raises(pytest.fail.Exception,
                       match="mutant survived: pentagon-side triangles through u excluded twice"):
        require_killed(EQUIVALENT)


def test_kernel_mutants_are_killed_by_rows():
    # the kernels of these modules each have rows, the only kill checks
    # their mutants have
    assert [m.name for m in MUTANTS if m.module in ("census", "_bits", "graph", "graph6")
            and not isinstance(m.check, Differential)] == []
