"""The identity ledger: every counting formula evaluated against censuses.

One side of each check is a closed form in (n, k); the other side is an
actual enumeration on the graph.  All comparisons are exact integer
equality; run_all_checks never raises, every failure (including a census
that detects an internal inconsistency) becomes a report entry.
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

    def entry(self, name: str) -> IdentityEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

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


# what a census stage may raise; run_all_checks turns each into a report entry
_STAGE_ERRORS = (ValueError, CountingInconsistencyError)


def run_all_checks(
    g: Graph, source: str = "<memory>", progress=None
) -> IdentityReport:
    """Evaluate the full identity ledger on a graph.

    One ``verify_srg`` scan gives the condition I and II entries, the
    regularity entries and the family gate.  Its witnesses, the first edge
    with lambda != 1 and the first non-edge with mu != 2, are the pairs
    ``check_condition_one`` and ``check_condition_two`` name.  Non-family
    graphs get the condition/regularity checks and skipped family entries;
    family members get every counting identity, the master identity and the
    spectral cross-checks, and their censuses take the verified family and
    do not verify again.  Never raises: each census and spectral stage runs
    through ``stage``, which records a raise as a fail entry named after the
    stage, then calls ``progress`` with that name (each stage once, in run
    order) and returns the name as a handle.  A stage that reads the
    results of others fails without running if one of them failed.
    ``check`` builds each entry from the results of the stages it names, or
    skips it, naming every one of them that failed.
    """
    n = g.order
    progress = progress or (lambda name: None)
    report = IdentityReport(graph_meta={"n": n, "k": None, "source": source})
    entries = report.entries
    errors: dict[str, str] = {}  # failed stage -> error text
    done: dict[str, object] = {}  # finished stage -> its result
    six = "six-vertex types"

    def unmet(needs):
        """The text naming each failed stage of ``needs``, or ""."""
        failed = [s for s in needs if s in errors]
        return f"needs {', '.join(failed)}, which failed" if failed else ""

    def stage(name, section, fn, *args, needs=()):
        """Run fn(*args, *results of needs) as stage ``name``; a raise, or
        a failed need, becomes a fail entry."""
        detail = unmet(needs)
        if not detail:
            try:
                done[name] = fn(*args, *(done[s] for s in needs))
            except _STAGE_ERRORS as exc:
                detail = str(exc)
        if detail:
            errors[name] = detail
            entries.append(IdentityEntry(name, section, 1, 0, "fail", detail))
        progress(name)
        return name

    def check(name, section, needs, sides, kind="eq"):
        """Entry ``name`` from ``sides(*results of needs)``, which gives
        (expected, actual[, detail]).  ``kind`` "eq" passes on equality,
        "bool" reports only whether they are equal (1 against 1 or 0) and
        "info" never fails."""
        if skip := unmet(needs):
            entries.append(IdentityEntry(name, section, None, None, "skip", skip))
            return
        expected, actual, *detail = sides(*(done[s] for s in needs))
        ok = expected == actual
        if kind == "bool":
            expected, actual = 1, int(ok)
        status = "info" if kind == "info" else "pass" if ok else "fail"
        entries.append(IdentityEntry(name, section, expected, actual, status, *detail))

    def holds(name, section, ok, detail=""):
        check(name, section, [], lambda: (True, ok, detail), "bool")

    def agree(name):
        check(name, six, *cn.ROUTE_AGREEMENTS[name])

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
        check("order_relation", "srg verification", [],
              lambda: (k * (k - 2), 2 * (n - k - 1)))

    if fam is None or n < 3:
        for section in ("cycle formulas", "per-edge pentagons", "coded walks",
                        "edge triples", "six-vertex types", "master identity",
                        "spectral", "hexagon bound"):
            entries.append(IdentityEntry(f"{section.replace(' ', '_')}_suite", section,
                                         None, None, "skip",
                                         "graph is not a verified srg(n,k,1,2)"))
        if n <= 64:
            mk = stage("triangle_pair_census", "conjecture", makhnev_condition, g)
            check("makhnev_condition", "conjecture", [mk], lambda r: (
                0, r.n3, "holds" if r.holds else f"witness: {r.witness}"), "info")
        else:
            entries.append(IdentityEntry(
                "makhnev_condition", "conjecture", None, None, "skip",
                "triangle-pair scan skipped on large non-family graph"))
        return report

    m = fam.m

    # cycle counts against their closed forms; the triangle-pair census
    # lists the triangles, one pass over the quadrilaterals gives p4, n2
    # and the quad-plus-edge counts, and the hexagon pass gives p5 and p6
    tp = stage("triangle_pair_census", six, cn.disjoint_triangle_pair_census, g)
    check("triangle_count", "cycle formulas", [tp], lambda t: (expected_p3(n, k), t.p3))
    qpe = stage("quad_plus_edge_census", six, cn.quad_plus_edge_census, fam)
    check("quadrilateral_count", "cycle formulas", [qpe],
          lambda q: (expected_p4(n, k), q.p4))
    hexes = stage("hexagon_census", "hexagon bound", cn.count_pentagons_and_hexagons, g)
    pt = stage("pentagon_side_census", six,
               lambda h: cn.pentagon_triangle_census(fam, h.p5), needs=[hexes])
    check("pentagon_count", "cycle formulas", [pt], lambda p: (expected_p5(n, k), p.p5))

    # the pentagon census counts the pentagons through each edge; its
    # failure fails this entry rather than skipping it
    per_edge = expected_pentagons_per_edge(k)
    if pt in errors:
        entries.append(IdentityEntry("pentagons_per_edge", "per-edge pentagons",
                                     per_edge, None, "fail", errors[pt]))
    else:
        check("pentagons_per_edge", "per-edge pentagons", [pt], lambda p: (
            per_edge, *next(((c, f"edge {e}") for e, c in zip(g.edges(), p.per_edge)
                             if c != per_edge), (per_edge, ""))))

    # coded closed 5-walks
    walks = stage("coded_walk_census", "coded walks", cn.coded_walk_census, fam)
    check("walk_total", "coded walks", [walks],
          lambda w: (expected_walk_total(n, k), w.total))
    check("walk_t1_from_quadrilaterals", "coded walks", [walks],
          lambda w: (4 * expected_p4(n, k), w.t1))
    check("walk_t2_from_triangles", "coded walks", [walks],
          lambda w: (3 * (k - 2) * expected_p3(n, k), w.t2))
    check("walk_decomposition", "coded walks", [walks, pt],
          lambda w, p: (w.total, 10 * p.p5 + 6 * w.t1 + 2 * w.t2))

    # edge triples
    triples = stage("edge_triple_census", "edge triples", cn.edge_triple_census, g)
    check("edge_triples_span4", "edge triples", [triples],
          lambda t: (expected_e4(n, k), t.e4))
    check("edge_triples_span5", "edge triples", [triples],
          lambda t: (expected_e5(n, k), t.e5))
    check("edge_triples_partition", "edge triples", [triples],
          lambda t: (comb(m, 3), t.e4 + t.e5 + t.e6), "bool")

    # six-vertex types, one targeted census per relation
    check("triangle_pairs_eq8", six, [tp],
          lambda t: (expected_triangle_pairs(n, k), t.n1 + t.n3 + t.n5 + t.n14))
    qp = stage("quad_pair_census", six, cn.quad_pair_census, fam)
    check("quad_pairs_eq7", six, [qp],
          lambda q: (expected_quad_pairs(n, k), 3 * q.n1 + q.n4 + q.n9))
    check("n2_eq3", six, [qpe], lambda q: (expected_n2(n, k), q.n2))
    check("pentagon_sides_eq4", six, [pt],
          lambda p: (expected_pentagon_sides(n, k), p.n4 + p.n8))
    check("triangle_pendant_eq5", six, [tp, qp],
          lambda t, q: (expected_triangle_pendant(n, k), 6 * t.n1 + q.n4))
    check("opposite_sides_eq6", six, [tp, qp],
          lambda t, q: (expected_opposite_sides(n, k), 3 * t.n1 + t.n3))
    agree("prism_route_agreement")
    check("n4_twice_n3", six, [tp, qp], lambda t, q: (2 * t.n3, q.n4))
    agree("n4_route_agreement")
    comp = stage("triangle_completion_census", six,
                 cn.triangle_edge_completion_census, fam)
    check("triangle_completion_eq5", six, [comp],
          lambda c: (expected_triangle_pendant(n, k), 6 * c.n1 + c.n4))
    check("completion_prism_agreement", six, [comp, tp], lambda c, t: (t.n1, c.n1))
    check("completion_n4_agreement", six, [comp, qp], lambda c, q: (q.n4, c.n4))
    check("quad_plus_edge_eq9", six, [qpe],
          lambda q: (expected_quad_plus_edge(n, k), q.total))
    agree("qpe_prism_incidences")
    agree("qpe_n4_incidences")
    agree("qpe_n9_incidences")

    # spectral: c6 three ways (c6 only exists from 6 vertices up), and the
    # master identity, spectral side against the assembled census side
    prefix = stage("charpoly_prefix", "spectral", sp.charpoly_prefix, g, min(6, n))
    check("charpoly_c2_is_minus_edges", "spectral", [prefix], lambda c: (-m, c.c(2)))
    check("charpoly_c3_is_minus_two_triangles", "spectral", [prefix, tp],
          lambda c, t: (-2 * t.p3, c.c(3)))
    if n < 6:
        for name, section in (("c6_closed_vs_trace", "spectral"),
                              ("c6_binomial_vs_trace", "spectral"),
                              ("master_identity", "master identity")):
            entries.append(IdentityEntry(name, section, None, None, "skip",
                                         "graph has fewer than 6 vertices"))
    else:
        closed = stage("c6_closed_form", "spectral", sp.c6_closed_form, n, k)
        check("c6_closed_vs_trace", "spectral", [closed, prefix],
              lambda c6, c: (c6, c.c6))
        binomial = stage("c6_binomial_sum", "spectral", lambda: sp.c6_binomial_sum(
            sp.srg_spectrum(SrgParams(n, k, 1, 2))))
        check("c6_binomial_vs_trace", "spectral", [binomial, prefix],
              lambda c6, c: (c6, c.c6))
        check("master_identity", "master identity", [prefix, *cn.TYPE_CENSUS_PARTS],
              lambda c, *parts: (c.c6 + comb(m, 3), cn.TypeCensus.assemble(
                  dict(zip(cn.TYPE_CENSUS_PARTS, parts))).master_identity_rhs()))

    # hexagon bound, and conjecture-side observations, informational only
    bound = stage("hexagon_bound", "hexagon bound", hexagon_bound, n, k)
    check("hexagon_identity", "hexagon bound", [bound, hexes, tp],
          lambda b, h, t: (b, h.p6 - t.n3))
    check("hexagon_at_least_bound", "hexagon bound", [bound, hexes],
          lambda b, h: (True, h.p6 >= b, f"p6 = {h.p6}, bound = {b}"), "bool")
    check("makhnev_condition", "conjecture", [tp], lambda t: (
        0, t.n3, "holds: two triangles joined by two edges share the third"
        if t.n3 == 0 else f"fails, witness {t.n3_witness}"), "info")
    check("hexagons_equal_bound", "conjecture", [bound, hexes], lambda b, h: (
        b, h.p6, "observed equality" if h.p6 == b else "strict excess"), "info")
    return report


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
