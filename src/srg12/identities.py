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
    do not verify again.  Never raises: every census and spectral stage runs
    through ``stage``, which records a raise as a fail entry named after the
    stage, and every entry built from a stage's result skips, naming that
    stage, when it failed.
    """
    n = g.order
    progress = progress or (lambda name: None)
    report = IdentityReport(graph_meta={"n": n, "k": None, "source": source})
    entries = report.entries
    errors: dict[str, str] = {}  # failed stage -> error text
    done: dict[str, object] = {}  # finished stage -> its result
    six = "six-vertex types"

    def add(name, section, expected, actual, detail=""):
        status = "pass" if expected == actual else "fail"
        entries.append(IdentityEntry(name, section, expected, actual, status, detail))

    def add_bool(name, section, ok, detail=""):
        entries.append(
            IdentityEntry(name, section, 1, 1 if ok else 0,
                          "pass" if ok else "fail", detail)
        )

    def add_info(name, section, expected, actual, detail=""):
        entries.append(IdentityEntry(name, section, expected, actual, "info", detail))

    def skip(name, section, reason):
        entries.append(IdentityEntry(name, section, None, None, "skip", reason))

    def stage(name, section, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None after a fail entry ``name``."""
        try:
            done[name] = fn(*args, **kwargs)
            return done[name]
        except _STAGE_ERRORS as exc:
            errors[name] = str(exc)
            add_bool(name, section, False, str(exc))
            return None

    def ready(name, section, *stages):
        """Whether entry ``name`` can be built; a skip if a stage failed."""
        missing = [s for s in stages if s in errors]
        if missing:
            skip(name, section, f"needs {', '.join(missing)}, which failed")
        return not missing

    def agree(name):
        """Entry ``name`` of ``cn.ROUTE_AGREEMENTS``, or its skip."""
        needs, sides = cn.ROUTE_AGREEMENTS[name]
        if ready(name, six, *needs):
            add(name, six, *sides(*(done[need] for need in needs)))

    srg, fam = family_check(g)
    add_bool("condition_one_edge_triangles", "conditions", srg.lambda_ok,
             "" if srg.lambda_ok else f"edge {srg.lambda_witness[:2]} has "
             f"{srg.lambda_witness[2]} common neighbours")
    add_bool("condition_two_nonedge_quadrilaterals", "conditions", srg.mu_ok,
             "" if srg.mu_ok else f"non-edge {srg.mu_witness[:2]} has "
             f"{srg.mu_witness[2]} common neighbours")

    if n == 0:
        skip("srg_verification", "srg verification", "empty graph")
        return report

    k = g.degree(0)
    add_bool("regularity", "srg verification", srg.regular,
             f"degree {k}" if srg.regular else f"vertex degrees differ: {srg.degree_witness}")
    if srg.regular:
        report.graph_meta["k"] = k
        add("order_relation", "srg verification",
            k * (k - 2), 2 * (n - k - 1))

    family = fam is not None and n >= 3
    family_sections = [
        "cycle formulas", "per-edge pentagons", "coded walks", "edge triples",
        "six-vertex types", "master identity", "spectral", "hexagon bound",
    ]
    if not family:
        reason = "graph is not a verified srg(n,k,1,2)"
        for section in family_sections:
            skip(f"{section.replace(' ', '_')}_suite", section, reason)
        if n <= 64:
            mk = stage("triangle_pair_census", "conjecture", makhnev_condition, g)
            if ready("makhnev_condition", "conjecture", "triangle_pair_census"):
                add_info("makhnev_condition", "conjecture", 0, mk.n3,
                         "holds" if mk.holds else f"witness: {mk.witness}")
        else:
            skip("makhnev_condition", "conjecture",
                 "triangle-pair scan skipped on large non-family graph")
        return report

    m = fam.m

    # cycle counts against their closed forms; the triangle-pair census
    # lists the triangles
    tp = stage("triangle_pair_census", six, cn.disjoint_triangle_pair_census, g)
    if ready("triangle_count", "cycle formulas", "triangle_pair_census"):
        add("triangle_count", "cycle formulas", expected_p3(n, k), tp.p3)
    progress("triangle pairs")
    # one pass over the quadrilaterals gives p4, n2 and the quad-plus-edge counts
    qpe = stage("quad_plus_edge_census", six, cn.quad_plus_edge_census, fam)
    if ready("quadrilateral_count", "cycle formulas", "quad_plus_edge_census"):
        add("quadrilateral_count", "cycle formulas", expected_p4(n, k), qpe.p4)
    progress("quad plus edge")

    pt = stage("pentagon_side_census", six, cn.pentagon_triangle_census, fam)
    if ready("pentagon_count", "cycle formulas", "pentagon_side_census"):
        add("pentagon_count", "cycle formulas", expected_p5(n, k), pt.p5)
    progress("pentagons")

    # the pentagon census counts the pentagons through each edge
    per_edge = expected_pentagons_per_edge(k)
    if pt is None:
        entries.append(IdentityEntry(
            "pentagons_per_edge", "per-edge pentagons", per_edge, None, "fail",
            errors["pentagon_side_census"]))
    else:
        bad = next(
            ((e, c) for e, c in zip(g.edges(), pt.per_edge) if c != per_edge), None
        )
        add("pentagons_per_edge", "per-edge pentagons", per_edge,
            per_edge if bad is None else bad[1],
            "" if bad is None else f"edge {bad[0]}")
    progress("per-edge pentagons")

    # coded closed 5-walks
    walks = stage("coded_walk_census", "coded walks", cn.coded_walk_census, fam)
    if ready("walk_total", "coded walks", "coded_walk_census"):
        add("walk_total", "coded walks", expected_walk_total(n, k), walks.total)
    if ready("walk_t1_from_quadrilaterals", "coded walks", "coded_walk_census"):
        add("walk_t1_from_quadrilaterals", "coded walks",
            4 * expected_p4(n, k), walks.t1)
    if ready("walk_t2_from_triangles", "coded walks", "coded_walk_census"):
        add("walk_t2_from_triangles", "coded walks",
            3 * (k - 2) * expected_p3(n, k), walks.t2)
    if ready("walk_decomposition", "coded walks",
             "coded_walk_census", "pentagon_side_census"):
        add("walk_decomposition", "coded walks", walks.total,
            10 * pt.p5 + 6 * walks.t1 + 2 * walks.t2)
    progress("coded walks")

    # edge triples
    triples = stage("edge_triple_census", "edge triples", cn.edge_triple_census, g)
    if ready("edge_triples_span4", "edge triples", "edge_triple_census"):
        add("edge_triples_span4", "edge triples", expected_e4(n, k), triples.e4)
    if ready("edge_triples_span5", "edge triples", "edge_triple_census"):
        add("edge_triples_span5", "edge triples", expected_e5(n, k), triples.e5)
    if ready("edge_triples_partition", "edge triples", "edge_triple_census"):
        add_bool("edge_triples_partition", "edge triples",
                 triples.e4 + triples.e5 + triples.e6 == comb(m, 3))
    progress("edge triples")

    # six-vertex types, one targeted census per relation
    if ready("triangle_pairs_eq8", six, "triangle_pair_census"):
        add("triangle_pairs_eq8", six,
            expected_triangle_pairs(n, k), tp.n1 + tp.n3 + tp.n5 + tp.n14)
    qp = stage("quad_pair_census", six, cn.quad_pair_census, fam)
    if ready("quad_pairs_eq7", six, "quad_pair_census"):
        add("quad_pairs_eq7", six,
            expected_quad_pairs(n, k), 3 * qp.n1 + qp.n4 + qp.n9)
    progress("quad pairs")
    if ready("n2_eq3", six, "quad_plus_edge_census"):
        add("n2_eq3", six, expected_n2(n, k), qpe.n2)
    if ready("pentagon_sides_eq4", six, "pentagon_side_census"):
        add("pentagon_sides_eq4", six,
            expected_pentagon_sides(n, k), pt.n4 + pt.n8)
    pairs = ("triangle_pair_census", "quad_pair_census")
    if ready("triangle_pendant_eq5", six, *pairs):
        add("triangle_pendant_eq5", six,
            expected_triangle_pendant(n, k), 6 * tp.n1 + qp.n4)
    if ready("opposite_sides_eq6", six, *pairs):
        add("opposite_sides_eq6", six,
            expected_opposite_sides(n, k), 3 * tp.n1 + tp.n3)
    agree("prism_route_agreement")
    if ready("n4_twice_n3", six, *pairs):
        add("n4_twice_n3", six, 2 * tp.n3, qp.n4)
    agree("n4_route_agreement")
    comp = stage("triangle_completion_census", six,
                 cn.triangle_edge_completion_census, fam)
    if ready("triangle_completion_eq5", six, "triangle_completion_census"):
        add("triangle_completion_eq5", six,
            expected_triangle_pendant(n, k), 6 * comp.n1 + comp.n4)
    if ready("completion_prism_agreement", six,
             "triangle_completion_census", "triangle_pair_census"):
        add("completion_prism_agreement", six, tp.n1, comp.n1)
    if ready("completion_n4_agreement", six,
             "triangle_completion_census", "quad_pair_census"):
        add("completion_n4_agreement", six, qp.n4, comp.n4)
    progress("triangle completions")
    if ready("quad_plus_edge_eq9", six, "quad_plus_edge_census"):
        add("quad_plus_edge_eq9", six, expected_quad_plus_edge(n, k), qpe.total)
    agree("qpe_prism_incidences")
    agree("qpe_n4_incidences")
    agree("qpe_n9_incidences")
    n12 = stage("hexagon_census", "hexagon bound", cn.count_hexagons, g)
    progress("hexagons")

    # spectral: c6 three ways (c6 only exists from 6 vertices up)
    prefix = stage("charpoly_prefix", "spectral", sp.charpoly_prefix, g, min(6, n))
    if ready("charpoly_c2_is_minus_edges", "spectral", "charpoly_prefix"):
        add("charpoly_c2_is_minus_edges", "spectral", -m, prefix.c(2))
    if ready("charpoly_c3_is_minus_two_triangles", "spectral",
             "charpoly_prefix", "triangle_pair_census"):
        add("charpoly_c3_is_minus_two_triangles", "spectral", -2 * tp.p3, prefix.c(3))
    if n < 6:
        skip("c6_closed_vs_trace", "spectral", "graph has fewer than 6 vertices")
        skip("c6_binomial_vs_trace", "spectral", "graph has fewer than 6 vertices")
    else:
        c6_closed = stage("c6_closed_form", "spectral", sp.c6_closed_form, n, k)
        if ready("c6_closed_vs_trace", "spectral", "c6_closed_form", "charpoly_prefix"):
            add("c6_closed_vs_trace", "spectral", c6_closed, prefix.c6)
        c6_sum = stage("c6_binomial_sum", "spectral", lambda: sp.c6_binomial_sum(
            sp.srg_spectrum(SrgParams(n, k, 1, 2))))
        if ready("c6_binomial_vs_trace", "spectral", "c6_binomial_sum", "charpoly_prefix"):
            add("c6_binomial_vs_trace", "spectral", c6_sum, prefix.c6)
    progress("spectral")

    # master identity: spectral side against the assembled census side
    if n < 6:
        skip("master_identity", "master identity", "graph has fewer than 6 vertices")
    elif ready("master_identity", "master identity", "charpoly_prefix",
               *cn.TYPE_CENSUS_PARTS):
        add("master_identity", "master identity", prefix.c6 + comb(m, 3),
            cn.TypeCensus.assemble(done).master_identity_rhs())

    # hexagon bound
    bound = stage("hexagon_bound", "hexagon bound", hexagon_bound, n, k)
    if ready("hexagon_identity", "hexagon bound",
             "hexagon_bound", "hexagon_census", "triangle_pair_census"):
        add("hexagon_identity", "hexagon bound", bound, n12 - tp.n3)
    if ready("hexagon_at_least_bound", "hexagon bound", "hexagon_bound", "hexagon_census"):
        add_bool("hexagon_at_least_bound", "hexagon bound", n12 >= bound,
                 f"p6 = {n12}, bound = {bound}")

    # conjecture-side observations, informational only
    if ready("makhnev_condition", "conjecture", "triangle_pair_census"):
        add_info("makhnev_condition", "conjecture", 0, tp.n3,
                 "holds: two triangles joined by two edges share the third"
                 if tp.n3 == 0 else f"fails, witness {tp.n3_witness}")
    if ready("hexagons_equal_bound", "conjecture", "hexagon_bound", "hexagon_census"):
        add_info("hexagons_equal_bound", "conjecture", bound, n12,
                 "observed equality" if n12 == bound else "strict excess")
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
