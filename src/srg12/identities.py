"""The identity ledger: every counting formula evaluated against censuses.

One side of each check is a closed form in (n, k); the other side is an
actual enumeration on the graph.  All comparisons are exact integer
equality; run_all_checks never raises, every failure (including any error
a census or an entry raises) becomes a report entry.  This module alone
spells ledger row names: the master identity and the six stages of a type
census are stated beside its row in ``LEDGER``, whose "agree" rows are the
route agreements, and ``run_ledger_rows`` refuses a name that no row has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple, Optional

from . import census as cn
from . import spectral as sp
from .census import family_check
from .errors import CountingInconsistencyError
from .graph import Graph, SrgParams

_INT64_MAX = 2**63 - 1


# -- closed forms ----------------------------------------------------------


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise ValueError(f"{what}: {num} is not divisible by {den}")
    return num // den


def family_order(k: int) -> int:
    return _exact_div(k * k + 2, 2, "family order")


def expected_p3(n: int, k: int) -> int:
    return _exact_div(n * k, 6, "triangle count")


def expected_p4(n: int, k: int) -> int:
    return _exact_div(n * k * (k - 2), 8, "quadrilateral count")


def expected_p5(n: int, k: int) -> int:
    return _exact_div(n * k * (k - 2) * (k - 4), 5, "pentagon count")


def expected_pentagons_per_edge(k: int) -> int:
    return 2 * (k - 2) * (k - 4)


def expected_e4(n: int, k: int) -> int:
    return _exact_div(n * k * (4 * k * k - 9 * k + 3), 6, "e4")


def expected_e5(n: int, k: int) -> int:
    return _exact_div(n * k * (k - 2) * (k**3 + k * k - 8 * k + 2), 8, "e5")


def expected_walk_total(n: int, k: int) -> int:
    return 2 * n * k * (k - 2) ** 2


def expected_n2(n: int, k: int) -> int:
    return _exact_div(n * k * (k - 2), 2, "n2")


def expected_pentagon_sides(n: int, k: int) -> int:
    return n * k * (k - 2) * (k - 4)  # n4 + n8 = 5 p5


def expected_triangle_pendant(n: int, k: int) -> int:
    return _exact_div(n * k * (k - 2), 2, "6n1 + n4")


def expected_opposite_sides(n: int, k: int) -> int:
    return _exact_div(n * k * (k - 2), 4, "3n1 + n3")


def expected_quad_pairs(n: int, k: int) -> int:
    return _exact_div(n * k * (k - 2) * (k - 3), 4, "3n1 + n4 + n9")


def expected_triangle_pairs(n: int, k: int) -> int:
    return comb(expected_p3(n, k), 2) - n * comb(k // 2, 2)


def expected_quad_plus_edge(n: int, k: int) -> int:
    m = _exact_div(n * k, 2, "edge count")
    return expected_p4(n, k) * (m - 4 * (k - 2) - 4)


def hexagon_bound(n: int, k: int) -> int:
    """Exact lower bound for the hexagon count of a family member."""
    if 2 * n != k * k + 2:
        raise ValueError(f"(n={n}, k={k}) violates n = (k^2+2)/2")
    return _exact_div(
        n * k * (k - 2) * (2 * k * k - 21 * k + 53), 12, "hexagon bound"
    )


# -- report structure -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IdentityEntry:
    name: str
    paper_location: str  # which part of the identity ledger the check lives in
    expected: Optional[int]
    actual: Optional[int]
    status: str  # pass | fail | skip | info
    detail: str = ""

    @property
    def passed(self) -> Optional[bool]:
        if self.status == "pass":
            return True
        if self.status == "fail":
            return False
        return None


@dataclass(slots=True)
class IdentityReport:
    graph_meta: dict
    entries: list[IdentityEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "graph_meta": {k: jsonable(v) for k, v in self.graph_meta.items()},
            "entries": [
                {
                    "name": e.name,
                    "paper_location": e.paper_location,
                    "expected": jsonable(e.expected),
                    "actual": jsonable(e.actual),
                    "pass": e.passed,
                    "status": e.status,
                    "detail": e.detail,
                }
                for e in self.entries
            ],
        }


def jsonable(value):
    """Integers beyond 64-bit range become decimal strings for JSON interop."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int) and abs(value) > _INT64_MAX:
        return str(value)
    return value


# -- Makhnev condition -------------------------------------------------------


class MakhnevResult(NamedTuple):
    holds: bool
    n3: int
    witness: Optional[tuple]  # (triangle, triangle, connecting edges)


def makhnev_condition(g: Graph) -> MakhnevResult:
    """True iff no two vertex-disjoint triangles are joined by exactly two
    edges (n3 = 0): two triangles connected through two edges are then
    necessarily connected through the third one."""
    tp = cn.disjoint_triangle_pair_census(g)
    return MakhnevResult(tp.n3 == 0, tp.n3, tp.n3_witness)


# -- the ledger --------------------------------------------------------------


class Stage(NamedTuple):
    """A ledger stage, whose result is ``run(subject)``; no stage reads
    another's result."""

    name: str
    section: str
    run: object


class Check(NamedTuple):
    """A ledger entry: ``sides(subject, *results of needs)`` gives (expected,
    actual[, detail]).  ``kind`` "eq" passes on equal sides, "info" never fails;
    "agree" passes as "eq" does, and a failed one also stops a type census."""

    name: str
    section: str
    needs: tuple
    sides: object
    kind: str = "eq"


def _pentagons_per_edge(fam, pt):
    """The sides of pentagons_per_edge, naming the first edge off the form."""
    per_edge = expected_pentagons_per_edge(fam.k)
    return per_edge, *next(((c, f"edge {e}") for e, c in zip(fam.graph.edges(), pt.per_edge)
                            if c != per_edge), (per_edge, ""))


# stage names and sections of the ledger's rows
TP, QPE, HEXES, PT, QP = ("triangle_pair_census", "quad_plus_edge_census", "hexagon_census",
                          "pentagon_side_census", "quad_pair_census")
WALKS, TRIPLES, COMP = ("coded_walk_census", "edge_triple_census",
                        "triangle_completion_census")
PREFIX, BOUND = "charpoly_prefix", "hexagon_bound"
CYCLES, SIX = "cycle formulas", "six-vertex types"

# the stages a TypeCensus is assembled from, in the order master_identity needs them
TYPE_CENSUS_STAGES = (TP, QP, PT, QPE, TRIPLES, HEXES)
# coefficient of each named count in the master identity; the aggregate
# n6+n7+n10+n11 enters with coefficient 2
MASTER_COEFF = {"n1": 4, "n2": -2, "n3": 2, "n4": 2, "n5": 4, "n8": -2, "n9": 2, "n12": -2,
                "n13": 2, "n14": 4}
MASTER_COEFF_AGGREGATE = 2


def type_census_of(parts) -> cn.TypeCensus:
    """The TypeCensus of the results of ``TYPE_CENSUS_STAGES``, by stage name."""
    tp, qp, pt, qpe, triples, hexes = (parts[name] for name in TYPE_CENSUS_STAGES)
    return cn.TypeCensus(
        n1=tp.n1, n2=qpe.n2, n3=tp.n3, n4=qp.n4, n5=tp.n5, n8=pt.n8, n9=qp.n9, n12=hexes.p6,
        n13=qpe.n13, n14=tp.n14, n6_7_10_11=qpe.n6_7_10_11,
        e4=triples.e4, e5=triples.e5, e6=triples.e6)


def master_identity_rhs(tc: cn.TypeCensus) -> int:
    """Right-hand side of the master identity for c6 + C(|E|,3)."""
    named = sum(MASTER_COEFF[name] * getattr(tc, name) for name in MASTER_COEFF)
    return named + MASTER_COEFF_AGGREGATE * tc.n6_7_10_11 + tc.e4 + tc.e5


# The identity ledger of a verified family, in run order.  Each row's
# functions take the VerifiedFamily and look ``cn.<name>`` and ``sp.<name>``
# up when they run, so wrappers put on those modules see every call.
LEDGER = (
    # cycle counts against their closed forms; the triangle-pair census
    # lists the triangles, one pass over the quadrilaterals gives p4, n2
    # and the quad-plus-edge counts, and the hexagon pass gives p5 and p6;
    # the pentagon-side census counts p5 again, through the edges
    Stage(TP, SIX, lambda f: cn.disjoint_triangle_pair_census(f.graph)),
    Check("triangle_count", CYCLES, (TP,), lambda f, t: (expected_p3(f.n, f.k), t.p3)),
    Stage(QPE, SIX, lambda f: cn.quad_plus_edge_census(f)),
    Check("quadrilateral_count", CYCLES, (QPE,),
          lambda f, q: (expected_p4(f.n, f.k), q.p4)),
    Stage(HEXES, "hexagon bound", lambda f: cn.count_pentagons_and_hexagons(f.graph)),
    Stage(PT, SIX, lambda f: cn.pentagon_triangle_census(f)),
    Check("pentagon_count", CYCLES, (HEXES,), lambda f, h: (expected_p5(f.n, f.k), h.p5)),
    Check("pentagons_per_edge", "per-edge pentagons", (PT,), _pentagons_per_edge),
    # coded closed 5-walks
    Stage(WALKS, "coded walks", lambda f: cn.coded_walk_census(f)),
    Check("walk_total", "coded walks", (WALKS,),
          lambda f, w: (expected_walk_total(f.n, f.k), w.total)),
    Check("walk_t1_from_quadrilaterals", "coded walks", (WALKS,),
          lambda f, w: (4 * expected_p4(f.n, f.k), w.t1)),
    Check("walk_t2_from_triangles", "coded walks", (WALKS,),
          lambda f, w: (3 * (f.k - 2) * expected_p3(f.n, f.k), w.t2)),
    Check("walk_decomposition", "coded walks", (WALKS, PT),
          lambda f, w, p: (w.total, 10 * p.p5 + 6 * w.t1 + 2 * w.t2)),
    # edge triples
    Stage(TRIPLES, "edge triples", lambda f: cn.edge_triple_census(f.graph)),
    Check("edge_triples_span4", "edge triples", (TRIPLES,),
          lambda f, t: (expected_e4(f.n, f.k), t.e4)),
    Check("edge_triples_span5", "edge triples", (TRIPLES,),
          lambda f, t: (expected_e5(f.n, f.k), t.e5)),
    Check("edge_triples_partition", "edge triples", (TRIPLES,),
          lambda f, t: (1, int(comb(f.m, 3) == t.e4 + t.e5 + t.e6))),
    # six-vertex types, one targeted census per relation; the "agree" rows
    # compare one count reached by two routes
    Check("triangle_pairs_eq8", SIX, (TP,),
          lambda f, t: (expected_triangle_pairs(f.n, f.k), t.n1 + t.n3 + t.n5 + t.n14)),
    Stage(QP, SIX, lambda f: cn.quad_pair_census(f)),
    Check("quad_pairs_eq7", SIX, (QP,),
          lambda f, q: (expected_quad_pairs(f.n, f.k), 3 * q.n1 + q.n4 + q.n9)),
    Check("n2_eq3", SIX, (QPE,), lambda f, q: (expected_n2(f.n, f.k), q.n2)),
    Check("pentagon_sides_eq4", SIX, (PT,),
          lambda f, p: (expected_pentagon_sides(f.n, f.k), p.n4 + p.n8)),
    Check("triangle_pendant_eq5", SIX, (TP, QP),
          lambda f, t, q: (expected_triangle_pendant(f.n, f.k), 6 * t.n1 + q.n4)),
    Check("opposite_sides_eq6", SIX, (TP, QP),
          lambda f, t, q: (expected_opposite_sides(f.n, f.k), 3 * t.n1 + t.n3)),
    Check("prism_route_agreement", SIX, (TP, QP), lambda f, t, q: (t.n1, q.n1), "agree"),
    Check("n4_twice_n3", SIX, (TP, QP), lambda f, t, q: (2 * t.n3, q.n4)),
    Check("n4_route_agreement", SIX, (PT, QP), lambda f, p, q: (q.n4, p.n4), "agree"),
    Stage(COMP, SIX, lambda f: cn.triangle_edge_completion_census(f)),
    Check("triangle_completion_eq5", SIX, (COMP,),
          lambda f, c: (expected_triangle_pendant(f.n, f.k), 6 * c.n1 + c.n4)),
    Check("completion_prism_agreement", SIX, (COMP, TP), lambda f, c, t: (t.n1, c.n1)),
    Check("completion_n4_agreement", SIX, (COMP, QP), lambda f, c, q: (q.n4, c.n4)),
    Check("quad_plus_edge_eq9", SIX, (QPE,),
          lambda f, q: (expected_quad_plus_edge(f.n, f.k), q.total)),
    Check("qpe_prism_incidences", SIX, (QPE, TP),
          lambda f, q, t: (3 * t.n1, q.prism_incidences), "agree"),
    Check("qpe_n4_incidences", SIX, (QPE, QP),
          lambda f, q, p: (2 * p.n4, q.n4_incidences), "agree"),
    Check("qpe_n9_incidences", SIX, (QPE, QP),
          lambda f, q, p: (2 * p.n9, q.n9_incidences), "agree"),
    # spectral: c6 three ways, and the master identity, spectral side
    # against the assembled census side
    Stage(PREFIX, "spectral", lambda f: sp.charpoly_prefix(f.graph, min(6, f.n))),
    Check("charpoly_c2_is_minus_edges", "spectral", (PREFIX,), lambda f, c: (-f.m, c.c(2))),
    Check("charpoly_c3_is_minus_two_triangles", "spectral", (PREFIX, TP),
          lambda f, c, t: (-2 * t.p3, c.c(3))),
    Stage("c6_closed_form", "spectral", lambda f: sp.c6_closed_form(f.n, f.k)),
    Check("c6_closed_vs_trace", "spectral", ("c6_closed_form", PREFIX),
          lambda f, c6, c: (c6, c.c6)),
    Stage("c6_binomial_sum", "spectral",
          lambda f: sp.c6_binomial_sum(sp.srg_spectrum(SrgParams(f.n, f.k, 1, 2)))),
    Check("c6_binomial_vs_trace", "spectral", ("c6_binomial_sum", PREFIX),
          lambda f, c6, c: (c6, c.c6)),
    Check("master_identity", "master identity", (PREFIX, *TYPE_CENSUS_STAGES),
          lambda f, c, *parts: (c.c6 + comb(f.m, 3), master_identity_rhs(
              type_census_of(dict(zip(TYPE_CENSUS_STAGES, parts)))))),
    # hexagon bound, and conjecture-side observations, informational only
    Stage(BOUND, "hexagon bound", lambda f: hexagon_bound(f.n, f.k)),
    Check("hexagon_identity", "hexagon bound", (BOUND, HEXES, TP),
          lambda f, b, h, t: (b, h.p6 - t.n3)),
    Check("hexagon_at_least_bound", "hexagon bound", (BOUND, HEXES),
          lambda f, b, h: (1, int(h.p6 >= b), f"p6 = {h.p6}, bound = {b}")),
    Check("makhnev_condition", "conjecture", (TP,), lambda f, t: (
        0, t.n3, "holds: two triangles joined by two edges share the third"
        if t.n3 == 0 else f"fails, witness {t.n3_witness}"), "info"),
    Check("hexagons_equal_bound", "conjecture", (BOUND, HEXES), lambda f, b, h: (
        b, h.p6, "observed equality" if h.p6 == b else "strict excess"), "info"),
)

_ROWS = {row.name: row for row in LEDGER}
# the rows a type census runs: its stages and the route agreements
TYPE_CENSUS_ROWS = (*TYPE_CENSUS_STAGES,
                    *(row.name for row in LEDGER if isinstance(row, Check) and row.kind == "agree"))

# rows that read c6: below 6 vertices their stages do not run, entries skip
_FROM_SIX_VERTICES = frozenset({"c6_closed_form", "c6_closed_vs_trace", "c6_binomial_sum",
                                "c6_binomial_vs_trace", "master_identity"})

# the Makhnev scan of a small graph outside the family, run on the graph
_OUTSIDE_FAMILY = (
    Stage(TP, "conjecture", lambda g: makhnev_condition(g)),
    Check("makhnev_condition", "conjecture", (TP,), lambda g, r: (
        0, r.n3, "holds" if r.holds else f"witness: {r.witness}"), "info"),
)


def _run(rows, subject, report, progress, done) -> dict:
    """Run ``rows`` in order on ``subject``: their entries go to ``report``,
    their stages' results to ``done``; the errors of the rows that raised
    are returned, in run order.  A row that raises any ``Exception`` fails
    with a fail entry named after it, holding the error's text, and
    ``progress(name)`` follows every stage.  An entry with a failed need
    skips, naming each failed need in the order of its needs.
    """
    errors: dict[str, Exception] = {}
    entries = report.entries
    for row in rows:
        if row.name in _FROM_SIX_VERTICES and report.graph_meta["n"] < 6:
            if isinstance(row, Check):
                entries.append(IdentityEntry(row.name, row.section, None, None, "skip",
                                             "graph has fewer than 6 vertices"))
            continue
        is_stage = isinstance(row, Stage)
        failed = [] if is_stage else [s for s in row.needs if s in errors]
        try:
            if is_stage:
                done[row.name] = row.run(subject)
            elif failed:
                entries.append(IdentityEntry(row.name, row.section, None, None, "skip",
                                             f"needs {', '.join(failed)}, which failed"))
            else:
                expected, actual, *detail = row.sides(subject, *(done[s] for s in row.needs))
                status = ("info" if row.kind == "info" else
                          "pass" if expected == actual else "fail")
                entries.append(IdentityEntry(row.name, row.section, expected, actual, status,
                                             *detail))
        except Exception as exc:
            errors[row.name] = exc
            entries.append(IdentityEntry(row.name, row.section, 1, 0, "fail", str(exc)))
        if is_stage and progress:
            progress(row.name)
    return errors


def run_all_checks(
    g: Graph, source: str = "<memory>", progress=None
) -> IdentityReport:
    """Evaluate the full identity ledger on a graph.

    One ``verify_srg`` scan gives the condition I and II entries, the
    regularity entries and the family gate; their witnesses are the first
    edge with lambda != 1 and the first non-edge with mu != 2.  A graph
    outside the family, and K1, whose charpoly rows need 3 vertices, get
    skipped family suites and, up to 64 vertices, the Makhnev scan; a
    family member gets every row of ``LEDGER``, in order, and its censuses
    take the verified family.  Never raises;
    ``progress`` gets each stage's name in run order, also when it failed.
    """
    n = g.order
    report = IdentityReport(graph_meta={"n": n, "k": None, "source": source})
    entries = report.entries

    def holds(name, section, ok, detail=""):
        entries.append(IdentityEntry(name, section, 1, int(ok), "pass" if ok else "fail",
                                     detail))

    srg, fam = family_check(g)
    holds("condition_one_edge_triangles", "conditions", srg.lambda_ok,
          "" if srg.lambda_ok else f"edge {srg.lambda_witness[:2]} has "
          f"{srg.lambda_witness[2]} common neighbours")
    holds("condition_two_nonedge_quadrilaterals", "conditions", srg.mu_ok,
          "" if srg.mu_ok else f"non-edge {srg.mu_witness[:2]} has "
          f"{srg.mu_witness[2]} common neighbours")

    if n == 0:
        entries.append(IdentityEntry("srg_verification", "srg verification",
                                     None, None, "skip", "empty graph"))
        return report

    k = g.degree(0)
    holds("regularity", "srg verification", srg.regular,
          f"degree {k}" if srg.regular else f"vertex degrees differ: {srg.degree_witness}")
    if srg.regular:
        report.graph_meta["k"] = k
        lhs, rhs = k * (k - 2), 2 * (n - k - 1)
        entries.append(IdentityEntry("order_relation", "srg verification", lhs, rhs,
                                     "pass" if lhs == rhs else "fail"))

    if fam is None or n < 3:
        reason = ("graph is not a verified srg(n,k,1,2)" if fam is None
                  else "graph has fewer than 3 vertices")
        for section in ("cycle formulas", "per-edge pentagons", "coded walks",
                        "edge triples", "six-vertex types", "master identity",
                        "spectral", "hexagon bound"):
            entries.append(IdentityEntry(f"{section.replace(' ', '_')}_suite", section,
                                         None, None, "skip", reason))
        if n <= 64:
            _run(_OUTSIDE_FAMILY, g, report, progress, {})
        else:
            entries.append(IdentityEntry(
                "makhnev_condition", "conjecture", None, None, "skip",
                "triangle-pair scan skipped on large non-family graph"))
        return report

    _run(LEDGER, fam, report, progress, {})
    return report


def run_ledger_rows(fam, names, done=None, progress=None) -> tuple[dict, dict]:
    """Run the rows of ``LEDGER`` named in ``names``, and the stages they
    need but ``done`` does not hold, on a verified family, in ledger order;
    the stage results and the entries, by name.  A name that no row has
    raises ValueError before any row runs.  A row that raises stops the
    run: CountingInconsistencyError("<row>: <error>") from its error; else a
    failed "agree" row raises one naming it."""
    if unknown := [name for name in names if name not in _ROWS]:
        raise ValueError(f"no ledger row named {unknown[0]!r}")
    done = dict(done or ())
    wanted = {*names, *(s for name in names if isinstance(_ROWS[name], Check)
                        for s in _ROWS[name].needs if s not in done)}
    report = IdentityReport(graph_meta={"n": fam.n})
    for row in LEDGER:
        if row.name in wanted:
            for name, exc in _run((row,), fam, report, progress, done).items():
                raise CountingInconsistencyError(f"{name}: {exc}") from exc
    for e in report.entries:
        if e.status == "fail" and _ROWS[e.name].kind == "agree":
            raise CountingInconsistencyError(
                f"{e.name}: expected {e.expected}, counted {e.actual}")
    return done, {e.name: e for e in report.entries}


# -- polynomial identity chain -----------------------------------------------


class ChainFailure(NamedTuple):
    k: int
    check: str
    lhs: int
    rhs: int


@dataclass(frozen=True, slots=True)
class ChainReport:
    points: tuple[int, ...]
    failures: tuple[ChainFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_polynomial_chain(sample_points) -> ChainReport:
    """Certify the polynomial identities behind the hexagon bound.

    At each sample k (even, >= 6, with n = (k^2+2)/2, at least 13 distinct
    points because every identity involved has degree <= 12 in k):

    * the collapsed closed forms of e4 and e5 equal their raw combinatorial
      expressions (three independent shapes for e5);
    * assembling the master identity, subtracting the quadrilateral-plus-edge
      and triangle-pair relations, and substituting the remaining type
      relations yields exactly hexagons-minus-n3 = ``hexagon_bound(n, k)``,
      the bound the ledger checks.
    """
    points = sorted(set(sample_points))
    if len(points) < 13:
        raise ValueError("need at least 13 distinct sample points")
    for k in points:
        if k < 6 or k % 2:
            raise ValueError(f"sample points must be even and >= 6, got {k}")

    failures = []
    for k in points:
        n = family_order(k)
        m = n * k // 2

        e4_raw = (
            expected_p3(n, k)
            + n * comb(k, 3)
            + m * ((k - 1) ** 2 - 1)
        )
        e4_coll = expected_e4(n, k)
        if e4_raw != e4_coll:
            failures.append(ChainFailure(k, "e4 collapsed form", e4_coll, e4_raw))

        half_k = k // 2
        e5_raw = n * (
            half_k * (m - 3 * (k - 2) - 3)
            + (comb(k, 2) - half_k) * (m - (k - 2) - 2 * (k - 1) - 2)
        )
        e5_mid = n * k * (k - 1) * (m - 3 * k + 2) // 2 + n * k // 2
        e5_coll = expected_e5(n, k)
        if e5_raw != e5_coll:
            failures.append(ChainFailure(k, "e5 collapsed form", e5_coll, e5_raw))
        if e5_mid != e5_coll:
            failures.append(ChainFailure(k, "e5 intermediate form", e5_coll, e5_mid))

        c6 = sp.c6_closed_form(n, k)
        s1_twice = c6 + comb(m, 3) - e4_coll - e5_coll
        if s1_twice % 2:
            failures.append(ChainFailure(k, "master identity parity", 0, s1_twice % 2))
            continue
        s1 = s1_twice // 2
        s2 = s1 - expected_quad_plus_edge(n, k)
        s3 = s2 - 2 * expected_triangle_pairs(n, k)
        s4 = (
            s3
            + expected_opposite_sides(n, k)
            + expected_n2(n, k)
            + expected_pentagon_sides(n, k)
        )
        neg_f = s4 + expected_quad_pairs(n, k) - expected_opposite_sides(n, k)
        bound = hexagon_bound(n, k)
        if -neg_f != bound:
            failures.append(ChainFailure(k, "hexagon count chain", -neg_f, bound))
    return ChainReport(tuple(points), tuple(failures))
