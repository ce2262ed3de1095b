"""Combinatorial censuses: cycles, coded walks, edge triples, 6-vertex types.

Pentagons and hexagons always mean induced (chordless) cycles.  Every cycle
enumerator fixes a canonical representative (minimum vertex first, the two
cycle neighbours of the start in increasing order) so each cycle is visited
exactly once; nothing is counted with multiplicity and divided afterwards.

Targeted censuses of the named 6-vertex types count structure pairs
(triangle pairs, quadrilateral pairs through an edge, pentagon sides, ...)
because full 6-subset scans are hopeless beyond small graphs.  Each structure
fixes most of the 15 vertex pairs of its 6-subset, so its type is decided by
the adjacency of the few pairs left free (a cross-edge count, one or two
bits, a mask test); any setting outside the expected types raises.  The
kernels count many pairs at once with shared bit masks instead of visiting
them one by one: a triangle meets all its later partners through masks of
triangle ids, an edge's quadrilateral pairs follow from edge counts among
their vertices, and pentagons and hexagons are paths summed from
bit-sliced neighbour counters less the triangles across them, read from
one table of triangle-id masks.  Every census that reads triangles reads
the one listing of ``_triangle_ids``.  Three loops still count object by
object: ``_qpe_scan`` per quadrilateral, ``triangle_edge_completion_census``
per (triangle, pendant) and ``disjoint_triangle_pair_census`` per triangle.
A count is exact whenever its kernel returns.  The hexagon, triangle-pair
and edge-triple kernels return on any graph; the others name the first
structure that lambda = 1 and mu = 2 rule out and raise: a side without one
apex (``_qpe_scan``, ``_pentagon_edge_scan``), a pentagon apex with a wrong
adjacency pattern, an edge off k - 2 quadrilaterals, a quadrilateral pair
sharing a vertex or joined across, a coded walk with two chords, an n2 or
triangle completion of another type.  No canonical labelling runs in any
of these loops.  No census takes a progress hook: each runs in one call,
and its caller reports it as one stage.

The exhaustive scan, guarded to 16 vertices, is the ground-truth oracle: it
tallies the edge codes of all 6-subsets, built with shared prefixes, and
labels each isomorphism class met once, by expanding its orbit.

The type censuses need a verified srg(n, k, 1, 2).  ``require_family``
returns that as a ``VerifiedFamily`` (the graph with n, k and m) after one
``verify_srg`` scan.  A census given a VerifiedFamily trusts it; one given a
plain Graph verifies it first and raises FamilyViolationError outside the
family.  n13 and the quadrilateral-edge incidence total are not enumerated:
they follow from family identities (``quad_plus_edge_census``).  The stages
a ``TypeCensus`` is assembled from, its route agreements and the master
identity over it are ledger rows of ``identities``; ``type_census`` runs them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add
from typing import NamedTuple, Optional, Union

from ._bits import digit_total, iter_bits, neighbour_count_digits, pair_index_table
from .errors import (
    CountingInconsistencyError,
    FamilyViolationError,
    SizeLimitError,
)
from .graph import (
    CanonicalClass,
    Graph,
    SrgParams,
    SrgReport,
    classify_code,
    code_orbit,
    determinant_of_code,
    matching_count_of_code,
    verify_srg,
)

EXHAUSTIVE_MAX_VERTICES = 16


# -- named 6-vertex types -------------------------------------------------
#
# Structural definitions of the named types (the literature's numbering of
# six-vertex graphs is replaced by certificates).  Vertices 0..5.

NAMED_TYPE_EDGES = {
    # triangular prism: two disjoint triangles joined by a 3-edge matching
    "n1": [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
    # quadrilateral with triangles completed on two adjacent sides
    "n2": [(0, 1), (1, 2), (2, 3), (0, 3), (4, 0), (4, 1), (5, 1), (5, 2)],
    # two disjoint triangles joined by exactly two non-incident edges
    "n3": [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4)],
    # pentagon, triangle on one side, apex also joined to the opposite vertex
    "n4": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 0), (5, 1), (5, 3)],
    # two disjoint triangles joined by exactly one edge
    "n5": [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)],
    # pentagon with a triangle on one side, no further edges
    "n8": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 0), (5, 1)],
    # two quadrilaterals sharing an edge, nothing else
    "n9": [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5), (0, 5)],
    # hexagon
    "n12": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
    # quadrilateral plus a disconnected edge
    "n13": [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)],
    # two disjoint triangles
    "n14": [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
}


@lru_cache(maxsize=1)
def named_type_certificates() -> dict[str, int]:
    """Canonical certificate of each named 6-vertex type."""
    certs = {
        name: classify_code(Graph.from_edges(6, edges).subgraph_code(range(6)), 6)
        for name, edges in NAMED_TYPE_EDGES.items()
    }
    if len(set(certs.values())) != len(certs):
        raise CountingInconsistencyError(
            "two named 6-vertex types share a certificate"
        )
    return certs


# -- family gate -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VerifiedFamily:
    """A graph that passed ``verify_srg`` as srg(n, k, 1, 2), with n, k and
    the edge count m.

    ``family_check`` builds it from its one verification scan.  The family
    censuses take it in place of a Graph and then do not verify again.
    """

    graph: Graph
    n: int
    k: int
    m: int


def family_check(g: Graph) -> tuple[SrgReport, Optional[VerifiedFamily]]:
    """One ``verify_srg`` scan of g against srg(n, k, 1, 2), k the degree
    of vertex 0; the report, and the verified family if it passed."""
    n = g.order
    k = g.degree(0) if n else 0
    report = verify_srg(g, SrgParams(max(n, 1), k, 1, 2))
    if not report.passed:
        return report, None
    return report, VerifiedFamily(g, n, k, n * k // 2)


def require_family(g: Union[Graph, VerifiedFamily]) -> VerifiedFamily:
    """The verified-family value of g, or FamilyViolationError.

    A VerifiedFamily is returned as it is, without a new scan; a Graph gets
    one ``family_check`` scan.  Build the value once and pass it to every
    family census.
    """
    if isinstance(g, VerifiedFamily):
        return g
    n = g.order
    if n == 0:
        raise FamilyViolationError("empty graph is not a family member")
    report, fam = family_check(g)
    if fam is None:
        raise FamilyViolationError(
            f"graph is not a verified srg({n},{g.degree(0)},1,2): "
            f"regular={report.regular} lambda_ok={report.lambda_ok} "
            f"mu_ok={report.mu_ok} order_relation={report.order_relation_ok}"
        )
    return fam


def _above(n: int, v: int) -> int:
    return ((1 << n) - 1) & ~((1 << (v + 1)) - 1)


# -- cycle counts ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CycleCensus:
    """Counts of induced cycles C3..C6."""

    p3: int
    p4: int
    p5: int
    p6: int


def count_triangles(g: Graph) -> int:
    return len(_triangle_ids(g.rows)[0])


def _quad_list(rows, n: int, v0_list):
    for a in v0_list:
        abv = _above(n, a)
        na = rows[a] & abv
        for b in iter_bits(na):
            for d in iter_bits(na & _above(n, b) & ~rows[b]):
                for c in iter_bits(rows[b] & rows[d] & abv & ~rows[a]):
                    yield (a, b, c, d)


def iter_quadrilaterals(g: Graph):
    """Yield each induced C4 once as (a, b, c, d) in cycle order, a minimal,
    b < d the two cycle neighbours of a."""
    return _quad_list(g.rows, g.order, range(g.order))


def count_quadrilaterals_by_edges(g: Graph) -> int:
    """Induced C4 count via the canonical quadrilateral iterator."""
    return sum(1 for _ in iter_quadrilaterals(g))


def pentagons_through_edge(g: Graph, edge) -> int:
    """Number of induced C5 containing the given edge."""
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    rows = g.rows
    not_uv = ~(rows[u] | rows[v])
    count = 0
    # cycle u-v-w-x-y-u: w is v's neighbour, y is u's, x joins them
    for w in iter_bits(rows[v] & ~rows[u] & ~(1 << u)):
        rw = rows[w]
        xbase = rw & not_uv
        for y in iter_bits(rows[u] & ~rows[v] & ~(1 << v) & ~rw):
            count += (xbase & rows[y]).bit_count()
    return count


@lru_cache(maxsize=1)
def _triangle_ids(rows) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """(tris, tri_of): each triangle a < b < c once in lexicographic order,
    and tri_of[v] masking their ids through v; the one triangle listing."""
    n = len(rows)
    tris, tri_of = [], [0] * n
    for a in range(n):
        for b in iter_bits(rows[a] & _above(n, a)):
            for c in iter_bits(rows[a] & rows[b] & _above(n, b)):
                for x in (a, b, c):
                    tri_of[x] |= 1 << len(tris)
                tris.append((a, b, c))
    return tuple(tris), tuple(tri_of)


@lru_cache(maxsize=1)
def _triangle_table(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(tri_of, one_in), one_in[x] masking the ids with exactly one vertex in N(x)."""
    tri_of = _triangle_ids(rows)[1]
    counts = (neighbour_count_digits(tri_of, row, -1) + [0, 0] for row in rows)
    return tri_of, tuple(digits[0] & ~digits[1] for digits in counts)


def _hexagon_scan(rows, n: int, v0_list, table) -> tuple[int, int]:
    """(p5, p6): induced pentagons and hexagons whose minimum vertex is in
    v0_list; ``table`` is ``_triangle_table(rows)``.

    Cycle order v0-v1-v2-v3-v4-v5-v0 with v1 < v5 non-adjacent.  The rest
    lie in off, above v0 and off N(v0): v2 in base2 = N(v1) - N(v5), v4 in
    base4 = N(v5) - N(v1), v3 in base3, off N(v1) and N(v5).  These sets are
    disjoint, so the triple's hexagons are the paths v2-v3-v4 less the
    triangles with one vertex in each set, and its pentagons v0-v1-v2-v4-v5
    are the edges from base2 to base4.  Each upper neighbour x of v0 gets a
    bit-sliced counter c_x of |N(v) & R_x| over off, R_x = N(x) & off.
    base2 and base4 are R_v1 and R_v5 less C = R_v1 & R_v5 (at most one
    vertex in a family graph), so p5 is c_v1 summed over base4 less
    |N(x) & base4| for x in C, and with c_C = |N(v3) & C| the paths are the
    sum over base3 of c_v1 c_v5 - c_C (c_v1 + c_v5) + c_C^2, where c_x c_y
    sums to 2^(i+j) |c_x[i] & c_y[j] & base3| over digits i, j.  The
    triangles across the sets are those of off (the ids above v0 less those
    through N(v0)) with one vertex in N(v1), one in N(v5) and none in C: one
    AND-popcount.  Both counts are exact on any graph.
    """
    tri_of, one_in = table
    p5 = count = 0
    for v0 in v0_list:
        abv = _above(n, v0)
        nv0 = rows[v0]
        outer = nv0 & abv
        off = abv & ~nv0
        toff = -1 << max(map(int.bit_length, tri_of[:v0 + 1]))
        reach = {}
        counters = {}
        for x in iter_bits(outer):
            toff &= ~tri_of[x]
            reach[x] = rows[x] & off
            counters[x] = neighbour_count_digits(rows, reach[x], off)
        for v1 in iter_bits(outer):
            r1 = rows[v1]
            reach1, digits1 = reach[v1], counters[v1]
            tri1 = one_in[v1] & toff
            for v5 in iter_bits(outer & _above(n, v1) & ~r1):
                common = reach1 & reach[v5]
                base2 = reach1 & ~common
                base4 = reach[v5] & ~common
                if not (base2 and base4):
                    continue
                base3 = off & ~r1 & ~rows[v5]
                digits5 = counters[v5]
                tris = tri1 & one_in[v5]
                p5 += digit_total(digits1, base4)
                for j, digit in enumerate(digits5):
                    count += digit_total(digits1, digit & base3) << j
                if common:
                    for x in iter_bits(common):
                        p5 -= (rows[x] & base4).bit_count()
                        tris &= ~tri_of[x]
                    near = neighbour_count_digits(rows, common, base3)
                    for j, digit in enumerate(near):
                        count += (digit_total(near, digit) - digit_total(digits1, digit)
                                  - digit_total(digits5, digit)) << j
                count -= tris.bit_count()
    return p5, count


class PentagonHexagonCount(NamedTuple):
    """Induced C5 and C6, from one pass of the hexagon kernel."""

    p5: int
    p6: int


def count_pentagons_and_hexagons(g: Graph) -> PentagonHexagonCount:
    """Induced C5 and C6 by one ``_hexagon_scan`` over every start vertex."""
    rows = g.rows
    return PentagonHexagonCount(*_hexagon_scan(rows, g.order, range(g.order),
                                               _triangle_table(rows)))


def count_pentagons(g: Graph) -> int:
    """Number of induced C5, read off the pentagon and hexagon pass."""
    return count_pentagons_and_hexagons(g).p5


def count_hexagons(g: Graph) -> int:
    """Number of induced C6, read off the pentagon and hexagon pass."""
    return count_pentagons_and_hexagons(g).p6


def cycle_census(g: Graph) -> CycleCensus:
    """p3 to p6 of any graph, p5 and p6 from one hexagon pass; a caller
    reports it as one stage."""
    p3, p4 = count_triangles(g), count_quadrilaterals_by_edges(g)
    return CycleCensus(p3, p4, *count_pentagons_and_hexagons(g))


# -- coded closed 5-walks --------------------------------------------------


class WalkCensus(NamedTuple):
    """Closed 5-walks whose distance-to-start code is 0 1 2 2 1 0."""

    total: int
    t1: int  # quadrilateral-with-triangle configurations (6 walks each)
    t2: int  # triangle-with-pendant configurations (2 walks each)
    p5_walks: int  # pentagons seen by the walk census (10 walks each)


def _first_bad_walk(rows, s, w1, w2, near):
    """Raise for the first walk s-w1-w2-w3-w4-s, w3 in ``near`` taken in
    increasing order, with two or more chords among w1w3, w1w4 and w2w4."""
    r1, r2 = rows[w1], rows[w2]
    ends = rows[s] & ~(1 << w1)
    c14, c24 = ends & r1, ends & r2
    for w3 in iter_bits(near):
        w4s = rows[w3] & ends
        bad = w4s & (c14 | c24) if r1 >> w3 & 1 else w4s & c14 & c24
        if bad:
            w4 = (bad & -bad).bit_length() - 1
            chords = (r1 >> w3 & 1) + (r1 >> w4 & 1) + (r2 >> w4 & 1)
            raise CountingInconsistencyError(
                f"walk ({s},{w1},{w2},{w3},{w4}) has {chords} chords"
            )


def _walk_scan(rows, n: int, starts) -> tuple[int, int, int]:
    """(pentagon, house, paw) walk counts from each start s; exact on any graph.

    The walks are s-w1-w2-w3-w4-s with w1, w4 in N(s) and w2, w3 in D2, the
    vertices at distance 2 from s.  A walk with w4 = w1 is a paw (T2).
    Otherwise its chords among w1w3, w1w4 and w2w4 decide it: none for a
    pentagon, one for a house (T1); two or more raise.  Per start, one
    bit-sliced counter holds c(x) = |N(x) & N(s)| over D2.  For a triple
    (s, w1, w2), near = N(w2) & D2 holds the w3 candidates and
    chord3 = near & N(w1) those with a w1w3 chord; c14 and c24 are the w4
    candidates with a w1w4 and a w2w4 chord.  Then:

    - paws = |chord3|;
    - walks other than paws = (sum of c over near) - |chord3|;
    - chords on those walks = (sum of c - 1 over chord3)
      + (sum over x in c14 and over x in c24 of |N(x) & near|).

    A walk with two chords exists exactly when chord3 meets N(c14 | c24) or
    some x in c14 & c24 has a neighbour in near; only then does
    ``_first_bad_walk`` visit the triple's walks, to name one and raise.
    Otherwise the chord total counts the houses and the other non-paw walks
    are pentagons.
    """
    pent = house = paw = 0
    for s in starts:
        ns = rows[s]
        digits = neighbour_count_digits(rows, ns, ~(ns | 1 << s))
        d2 = 0
        for digit in digits:
            d2 |= digit
        weights = [(i, digit) for i, digit in enumerate(digits) if digit]
        for w1 in iter_bits(ns):
            r1 = rows[w1]
            ends = ns & ~(1 << w1)  # candidates for w4 other than w1
            c14 = ends & r1  # w4 with a w1w4 chord
            for w2 in iter_bits(r1 & d2):
                r2 = rows[w2]
                c24 = ends & r2  # w4 with a w2w4 chord
                near = r2 & d2
                chord3 = near & r1
                h = 0
                xs = c14 | c24  # iter_bits, inlined: the loop runs per triple
                while xs:
                    low = xs & -xs
                    xs ^= low
                    hit = rows[low.bit_length() - 1] & near
                    if hit & chord3 or hit and c14 & c24 & low:
                        _first_bad_walk(rows, s, w1, w2, near)
                    h += hit.bit_count()
                far = near ^ chord3
                for i, digit in weights:
                    house += (chord3 & digit).bit_count() << i
                    pent += (far & digit).bit_count() << i
                t = chord3.bit_count()
                paw += t
                house += h - t
                pent -= h
    return pent, house, paw


def coded_walk_census(g: Union[Graph, VerifiedFamily]) -> WalkCensus:
    """Enumerate and classify every closed 5-walk coded 0 1 2 2 1 0.

    Walks split into pentagons (10 walks each), quadrilateral-plus-triangle
    configurations T1 (6 walks each) and triangle-plus-pendant configurations
    T2 (2 walks each); any other shape raises CountingInconsistencyError.
    """
    fam = require_family(g)
    pent, house, paw = _walk_scan(fam.graph.rows, fam.n, range(fam.n))
    for value, mult, label in ((pent, 10, "pentagon"), (house, 6, "T1"), (paw, 2, "T2")):
        if value % mult:
            raise CountingInconsistencyError(
                f"{label} walk count {value} not divisible by {mult}"
            )
    return WalkCensus(pent + house + paw, house // 6, paw // 2, pent // 10)


# -- edge triples ----------------------------------------------------------


class EdgeTripleCensus(NamedTuple):
    """Unordered edge triples by vertex span: <=4, exactly 5, exactly 6."""

    e4: int
    e5: int
    e6: int


def edge_triple_census(g: Graph) -> EdgeTripleCensus:
    """Partition all C(|E|,3) edge triples by the size of their vertex span.

    Each span is counted by its own route, exact on any graph: <= 4 by the
    incidence structures (triangles, stars, paths), 5 by cherries plus a
    disjoint edge and 6 as 3-matchings, so the three sum to C(|E|,3) only
    when every route is right.
    """
    degs = [r.bit_count() for r in g.rows]
    m = sum(degs) // 2
    return EdgeTripleCensus(_count_span4_triples(g, degs), _count_span5_triples(g, degs, m),
                            _count_span6_triples(g, degs, m))


def _count_span4_triples(g: Graph, degs) -> int:
    """Triangles, stars and 3-edge paths; each triangle holds 3 of the
    common neighbours summed over the edges."""
    rows = g.rows
    stars = sum(comb(d, 3) for d in degs)
    common = paths = 0
    for u, v in g.edges():
        c = (rows[u] & rows[v]).bit_count()
        common += c
        paths += (degs[u] - 1) * (degs[v] - 1) - c
    return common // 3 + stars + paths


def _count_span5_triples(g: Graph, degs, m: int) -> int:
    """Cherries a-v-b with an edge clear of them, summed per centre v:
    C(d_v,2)(m + 2 - d_v) - (d_v - 1) sum_{a in N(v)} d_a + e(N(v)), where
    2 e(N(v)) = sum_{a in N(v)} |N(a) & N(v)|."""
    rows = g.rows
    total = 0
    for rv, dv in zip(rows, degs):
        nbr_degs = inside2 = 0
        for a in iter_bits(rv):
            nbr_degs += degs[a]
            inside2 += (rows[a] & rv).bit_count()
        total += comb(dv, 2) * (m + 2 - dv) - (dv - 1) * nbr_degs + inside2 // 2
    return total


def _count_span6_triples(g: Graph, degs, m: int) -> int:
    """3-matchings: each is counted once from each of its edges uv, as a
    pair of disjoint edges of G - {u, v}.  That graph has
    m - d_u - d_v + 1 edges, and its pairs sharing a vertex w number
    C(d_w - |{u, v} & N(w)|, 2); summed over w != u, v that is
    S - C(d_u,2) - C(d_v,2) - (s_u + s_v - d_u - d_v + 2 - c_uv), with
    S = sum of C(d_w, 2), s_x = sum over w in N(x) of (d_w - 1) and c_uv
    the number of common neighbours of u and v."""
    rows = g.rows
    pairs = [comb(d, 2) for d in degs]
    total_pairs = sum(pairs)
    excess = [sum(degs[w] for w in iter_bits(r)) - d for r, d in zip(rows, degs)]
    total = 0
    for u, v in g.edges():
        du, dv = degs[u], degs[v]
        sharing = (total_pairs - pairs[u] - pairs[v] - excess[u] - excess[v]
                   + du + dv - 2 + (rows[u] & rows[v]).bit_count())
        total += comb(m - du - dv + 1, 2) - sharing
    if total % 3:
        raise CountingInconsistencyError(
            f"3-matching incidences {total} not divisible by 3"
        )
    return total // 3


# -- exhaustive 6-subset census ---------------------------------------------


class ClassStats(NamedTuple):
    count: int
    det: int
    cover_count: int


def _six_subset_tally(rows, n: int) -> Counter:
    """Number of 6-subsets per ``Graph.subgraph_code``, keyed in first-subset
    order; the codes wait in a list for one first vertex at a time.  Slots
    (i, j) of one i are consecutive, so w[j], the adjacency of vertex
    n - len(w) + j to the p chosen ones, sits at the slots (i, 5) and moves
    down by 5 - p to the slots (i, p)."""
    slots = pair_index_table(6)
    cols = [[[(rows[x] >> y & 1) << slots[(p, 5)] for y in range(x + 1, n)]
             for x in range(n)] for p in range(5)]
    tally, codes = Counter(), []

    def extend(p, code, w):
        for j in range(len(w) - 5 + p):
            child = code + (w[j] >> 5 - p)
            later = map(add, w[j + 1:], cols[p][n - len(w) + j])
            if p == 4:
                codes.extend(map(child.__add__, later))
            else:
                extend(p + 1, child, list(later))

    for x in range(n - 5):
        extend(1, 0, cols[0][x])
        tally.update(codes)
        codes.clear()
    return tally


def exhaustive_six_census(g: Graph) -> dict[CanonicalClass, ClassStats]:
    """Classify every 6-subset's induced subgraph; ground truth for censuses.

    Guarded to ``EXHAUSTIVE_MAX_VERTICES`` = 16 vertices, i.e. C(16,6) =
    8008 subsets.  Their labelled edge codes are tallied first, built with
    shared prefixes.  Then each class met is labelled once: the orbit of its
    first code is expanded (``code_orbit``), its minimum is the certificate,
    and every orbit member's tally moves into that class.  Each class carries
    the adjacency determinant and 3-edge-cover count of its representative.
    """
    if g.order > EXHAUSTIVE_MAX_VERTICES:
        raise SizeLimitError(
            f"exhaustive census guarded to {EXHAUSTIVE_MAX_VERTICES} vertices, "
            f"got {g.order}"
        )
    tally = _six_subset_tally(g.rows, g.order)
    out = {}
    while tally:
        orbit = code_orbit(next(iter(tally)), 6)
        cert = min(orbit)
        count = sum(map(tally.pop, orbit & tally.keys()))
        stats = ClassStats(count, determinant_of_code(cert, 6), matching_count_of_code(cert, 6))
        out[CanonicalClass(cert, 6, cert.bit_count())] = stats
    return out


# -- disjoint triangle pairs -------------------------------------------------


class TrianglePairCensus(NamedTuple):
    """Vertex-disjoint triangle pairs by connection shape."""

    n1: int  # prism: 3-edge matching between the triangles
    n3: int  # two non-incident connecting edges
    n5: int  # one connecting edge
    n14: int  # no connecting edges
    excluded: int  # pairs whose induced subgraph has further triangles
    p3: int  # triangles listed
    n3_witness: Optional[tuple[tuple[int, ...], tuple[int, ...], tuple]]


# named type of two disjoint triangles joined by a matching, by its size
TRIANGLE_PAIR_TYPES = ("n14", "n5", "n3", "n1")


def disjoint_triangle_pair_census(g: Graph) -> TrianglePairCensus:
    """Classify every unordered pair of vertex-disjoint triangles.

    If the cross edges do not form a matching, some cross edge closes a
    further triangle and the pair is excluded.  Otherwise the cross-edge
    count decides the type: 0, 1, 2 or 3 edges give n14, n5, n3 or the
    prism (``TRIANGLE_PAIR_TYPES``).  Works on any graph; p3 is the number
    of triangles listed.

    Each triangle T = {a, b, c} meets all its later disjoint partners at
    once, as masks of triangle ids.  A partner through an outside vertex
    joined to two corners of T is excluded (none in a family graph, where
    lambda = 1).  Every other partner has at most one edge to T at each of
    its vertices, so it is excluded when some corner has two edges to it,
    and otherwise has as many cross edges as corners it meets.  For each
    corner, the triangles through its outside neighbours give the ids met
    at least once and those met at least twice.  The n3 witness is the
    lowest id with two cross edges, from the lowest T that has one.
    """
    rows = g.rows
    tris, through = _triangle_ids(rows)
    everything = (1 << len(tris)) - 1
    by_cross = [0, 0, 0, 0]
    excluded = 0
    witness = None
    for i, tri in enumerate(tris):
        a, b, c = tri
        ra, rb, rc = rows[a], rows[b], rows[c]
        tmask = (1 << a) | (1 << b) | (1 << c)
        later = everything & ~((2 << i) - 1) & ~(through[a] | through[b] | through[c])
        twice = 0  # ids met twice at one corner, or through a two-corner vertex
        for w in iter_bits((ra & rb | ra & rc | rb & rc) & ~tmask):
            twice |= through[w]
        met = []  # per corner, the ids met at least once
        for r in (ra, rb, rc):
            once = 0
            for w in iter_bits(r & ~tmask):
                ids = through[w]
                twice |= once & ids
                once |= ids
            met.append(once)
        matched = later & ~twice
        at_a, at_b, at_c = (once & matched for once in met)
        cross3 = at_a & at_b & at_c
        cross2 = (at_a & at_b | at_a & at_c | at_b & at_c) & ~cross3
        cross1 = (at_a ^ at_b ^ at_c) & ~cross3
        cross0 = matched & ~(at_a | at_b | at_c)
        for cross, ids in enumerate((cross0, cross1, cross2, cross3)):
            by_cross[cross] += ids.bit_count()
        excluded += (later & twice).bit_count()
        if cross2 and witness is None:
            tj = tris[(cross2 & -cross2).bit_length() - 1]
            edges = tuple((u, x) for u in tri for x in tj if rows[u] >> x & 1)
            witness = (tri, tj, edges)
    n14, n5, n3, n1 = by_cross
    return TrianglePairCensus(n1, n3, n5, n14, excluded, len(tris), witness)


# -- quadrilateral pairs through an edge --------------------------------------


class QuadPairCensus(NamedTuple):
    n1: int  # prisms (each holds 3 pairs of quadrilaterals sharing an edge)
    n4: int
    n9: int


# named type of two quadrilaterals u-v-w1-x1-u and u-v-w2-x2-u through an
# edge, by how many of the pairs w1w2 and x1x2 are edges
QUAD_PAIR_TYPES = ("n9", "n4", "n1")


def _quad_pairs_at_edge(rows, u: int, v: int, quads) -> list[int]:
    """Counts, indexed like ``QUAD_PAIR_TYPES``, of the pairs among
    ``quads``, the quadrilaterals u-v-w-x-u through edge (u, v) as (w, x).

    The two quadrilaterals fix 11 of the 15 vertex pairs; of the other four,
    w1w2 and x1x2 decide the type, and a w1x2 or x1w2 edge raises.
    """
    counts = [0, 0, 0]
    for i, (w1, x1) in enumerate(quads):
        rw, rx = rows[w1], rows[x1]
        for w2, x2 in quads[i + 1:]:
            if w1 == w2 or x1 == x2:
                raise FamilyViolationError(
                    f"quadrilaterals {(u, v, w1, x1, w2, x2)} through ({u},{v}) "
                    "share a vertex"
                )
            if rw >> x2 & 1 or rx >> w2 & 1:
                raise CountingInconsistencyError(
                    f"C4 pair through ({u},{v}) induced an unexpected class"
                )
            counts[(rw >> w2 & 1) + (rx >> x2 & 1)] += 1
    return counts


def _quad_pairs_through_edge(rows, u: int, v: int, k: int) -> list[int]:
    """Counts, indexed like ``QUAD_PAIR_TYPES``, of the pairs of
    quadrilaterals through edge (u, v); raises unless there are k - 2.

    The quadrilaterals are the edges w-x between W = N(v) - N[u] and
    X = N(u) - N[v].  When no w and no x lies on two of them (always so in a
    family graph), these edges pair W with X, and a w1x2 edge would be a
    further quadrilateral through w1, so none exists.  The pairs are then
    read from e(W), e(X) and the prisms, the edges w1w2 of W whose partners
    x1x2 are joined too: n4 = e(W) + e(X) - 2 prisms and n9 is the rest of
    the C(k-2, 2) pairs.  Otherwise two of the quadrilaterals share a
    vertex, and ``_quad_pairs_at_edge``, pair by pair, raises on the first
    pair that shares one or has a w1x2 edge.
    """
    ru, rv = rows[u], rows[v]
    xbase = ru & ~rv & ~(1 << v)
    partner = {}  # w -> the bit of each x joined to it
    found = xmask = 0
    matched = True
    for w in iter_bits(rv & ~ru & ~(1 << u)):
        xs = rows[w] & xbase
        if xs:
            found += xs.bit_count()
            matched = matched and not (xs & (xs - 1) or xs & xmask)
            partner[w] = xs
            xmask |= xs
    if found != k - 2:
        raise FamilyViolationError(
            f"edge ({u},{v}) lies on {found} quadrilaterals, expected {k - 2}"
        )
    if not matched:
        quads = [(w, x) for w, xs in partner.items() for x in iter_bits(xs)]
        return _quad_pairs_at_edge(rows, u, v, quads)
    wmask = sum(1 << w for w in partner)
    ends = prisms = 0
    for w, xs in partner.items():
        rx = rows[xs.bit_length() - 1]
        ws = rows[w] & wmask
        ends += ws.bit_count() + (rx & xmask).bit_count()
        for w2 in iter_bits(ws):
            prisms += (rx & partner[w2]) != 0
    # every W-W and X-X edge is seen from both ends
    prisms //= 2
    n4 = ends // 2 - 2 * prisms
    return [comb(found, 2) - n4 - prisms, n4, prisms]


def quad_pair_census(g: Union[Graph, VerifiedFamily]) -> QuadPairCensus:
    """Classify, for every edge, all pairs of quadrilaterals through it.

    In a family graph each edge lies on exactly k-2 quadrilaterals.  Two of
    them, u-v-w1-x1-u and u-v-w2-x2-u, span 6 vertices whose type is the
    number of the edges w1w2 and x1x2: none for n9, one for n4, both for the
    prism; a w1x2 or x1w2 edge raises.  Each edge reads its pairs from edge
    counts among its quadrilaterals' vertices (``_quad_pairs_through_edge``);
    where two of them share a vertex, the pair-by-pair check raises.  Prisms
    collect 3 incidences each and are divided out.
    """
    fam = require_family(g)
    g, k = fam.graph, fam.k
    n9 = n4 = prism_inc = 0
    for u, v in g.edges():
        c9, c4, c1 = _quad_pairs_through_edge(g.rows, u, v, k)
        n9 += c9
        n4 += c4
        prism_inc += c1
    if prism_inc % 3:
        raise CountingInconsistencyError(f"prism incidences {prism_inc} not divisible by 3")
    return QuadPairCensus(prism_inc // 3, n4, n9)


# -- pentagon sides completed with their triangle apex ------------------------


class PentagonTriangleCensus(NamedTuple):
    n4: int
    n8: int
    p5: int  # pentagons, a fifth of the per-edge total
    per_edge: tuple[int, ...]  # pentagons through each edge, in g.edges() order


def _pentagon_edge_scan(rows, edges) -> tuple[int, list[int]]:
    """(n4 sides, pentagons through each edge) over ``edges``.

    The pentagons through side (u, v) are u-v-w-x-y-u as in
    ``pentagons_through_edge``.  The side's apex t, the unique bit of
    ``rows[u] & rows[v]``, lies outside them, and the n4 sides are those
    with x in N(t).  In a family graph t meets no candidate for w or y;
    otherwise a slow path raises on the first pentagon where it does.  The
    candidates ws = N(v) - N[u], ys = N(u) - N[v] and x, off N(u) and N(v),
    are disjoint, so the pentagons are the paths w-x-y, a digit product of
    counters of |N(x) & ws| and |N(x) & ys|, less the triangles with one
    vertex in each set: those with one vertex in N(u) and one in N(v), not
    through t.  The n4 sides are the product over N(t), less those
    triangles with one vertex in N(t) if t meets no w or y, else the
    triangles through each x in N(t).  Both are exact on any graph.
    """
    tri_of, one_in = _triangle_table(rows)
    n4 = 0
    counts = []
    for u, v in edges:
        ru, rv = rows[u], rows[v]
        apex_mask = ru & rv
        if apex_mask.bit_count() != 1:
            raise FamilyViolationError(
                f"side ({u},{v}) has {apex_mask.bit_count()} triangle apexes"
            )
        t = apex_mask.bit_length() - 1
        rt = rows[t]
        not_uv = ~(ru | rv)
        ws = rv & ~ru & ~(1 << u)
        ys = ru & ~rv & ~(1 << v)
        tris = one_in[u] & one_in[v] & ~tri_of[t]
        if (ws | ys) & rt:
            _apex_pattern_check(rows, u, v, rt, ws, ys, not_uv)
            for x in iter_bits(rt & not_uv):
                for w in iter_bits(rows[x] & ws):
                    n4 -= (rows[w] & rows[x] & ys).bit_count()
        else:
            n4 -= (tris & one_in[t]).bit_count()
        count = -tris.bit_count()
        ydigits = neighbour_count_digits(rows, ys, not_uv)
        for i, digit in enumerate(neighbour_count_digits(rows, ws, not_uv)):
            count += digit_total(ydigits, digit) << i
            n4 += digit_total(ydigits, digit & rt) << i
        counts.append(count)
    return n4, counts


def _apex_pattern_check(rows, u, v, rt, ws, ys, not_uv) -> None:
    """Raise on the first pentagon u-v-w-x-y-u whose side apex (row ``rt``)
    is joined to w or y; the pattern bits are w, x, y from low to high."""
    for w in iter_bits(ws):
        rw = rows[w]
        for y in iter_bits(ys & ~rw):
            for x in iter_bits(rw & not_uv & rows[y]):
                hits = (rt >> w & 1) + (rt >> x & 1) * 2 + (rt >> y & 1) * 4
                if hits & 5:
                    raise CountingInconsistencyError(
                        f"apex of side ({u},{v}) has adjacency pattern {hits:03b} "
                        f"on pentagon {(u, v, w, x, y)}"
                    )


def pentagon_triangle_census(g: Union[Graph, VerifiedFamily]) -> PentagonTriangleCensus:
    """For every pentagon side, classify pentagon + apex into n4 or n8.

    One pass over the edges counts the pentagons through each edge and the
    n4 sides among them (``_pentagon_edge_scan``); the apex of a side lies
    outside each of its pentagons and can only be joined, beyond the side,
    to the side's opposite vertex, any other pattern raises.  The remaining
    sides are type n8.  Each induced pentagon is counted once through each
    of its five edges, on any graph, so the per-edge total is 5*p5 and its
    divisibility guard can only catch a broken edge scan.
    """
    fam = require_family(g)
    n4, per_edge = _pentagon_edge_scan(fam.graph.rows, fam.graph.edges())
    sides = sum(per_edge)
    if sides % 5:
        raise CountingInconsistencyError(
            f"pentagons through edges: {sides} is not divisible by 5")
    return PentagonTriangleCensus(n4, sides - n4, sides // 5, tuple(per_edge))


# -- quadrilateral plus disjoint edge -----------------------------------------


class QuadPlusEdgeCensus(NamedTuple):
    """(quadrilateral, disjoint edge) incidences by induced class.

    Incidence multiplicities: a prism holds 3 such incidences, types n4 and
    n9 hold 2, every other reachable class exactly 1; n13 (the disconnected
    class) is separated from the connected aggregate n6+n7+n10+n11.
    ``total`` and n13 follow from family identities, the rest is counted.
    """

    total: int
    prism_incidences: int
    n4_incidences: int
    n9_incidences: int
    n13: int
    n6_7_10_11: int
    p4: int  # quadrilaterals enumerated
    n2: int  # type n2 completions, each one checked: 4 per quadrilateral


def _is_n2(rows, a: int, b: int, c: int, d: int, e: int, f: int) -> bool:
    """Whether quadrilateral a-b-c-d-a with apex e on side ab and apex f on
    side bc induces type n2: exactly when none of the five pairs left free,
    ec, ed, ef, fa and fd, is an edge."""
    return not (
        rows[e] & ((1 << c) | (1 << d) | (1 << f)) or rows[f] & ((1 << a) | (1 << d))
    )


def _qpe_scan(rows, n: int, v0_list):
    """(prism, n4, n9 incidences, quadrilaterals) over the quadrilaterals
    whose minimum vertex is in v0_list.

    Each quadrilateral's four side apexes are found once.  They also give
    its four n2 completions, one per pair of adjacent sides, each of which
    must be type n2 (``_is_n2``); any other completion raises.
    """
    prism_inc = n4_inc = n9_inc = quads = 0
    for quad in _quad_list(rows, n, v0_list):
        a, b, c, d = quad
        quads += 1
        qmask = (1 << a) | (1 << b) | (1 << c) | (1 << d)
        ra, rb, rc, rd = rows[a], rows[b], rows[c], rows[d]

        # side apexes (unique common neighbour of each side)
        apexes = []
        for x, y in ((a, b), (b, c), (c, d), (d, a)):
            am = rows[x] & rows[y]
            if am.bit_count() != 1:
                raise FamilyViolationError(
                    f"side ({x},{y}) has {am.bit_count()} triangle apexes"
                )
            apexes.append(am.bit_length() - 1)
        # n2: the quadrilateral with the apexes of two adjacent sides.  An
        # apex is joined to both ends of its side, so it is no corner of the
        # induced C4; six distinct vertices need only e != f.
        for i in range(4):
            e, f = apexes[i], apexes[i - 3]
            if e == f:
                raise CountingInconsistencyError(
                    f"adjacent-side apexes of {quad} collide"
                )
            if not _is_n2(rows, quad[i], quad[i - 3], quad[i - 2], quad[i - 1], e, f):
                raise CountingInconsistencyError(
                    f"completion of {quad} on adjacent sides is not type n2"
                )
        t_ab, t_bc, t_cd, t_da = apexes
        prism_inc += rows[t_ab] >> t_cd & 1
        prism_inc += rows[t_bc] >> t_da & 1

        # vertices adjacent to exactly one corner
        only_a = ra & ~rb & ~rc & ~rd & ~qmask
        only_b = rb & ~ra & ~rc & ~rd & ~qmask
        only_c = rc & ~ra & ~rb & ~rd & ~qmask
        only_d = rd & ~ra & ~rb & ~rc & ~qmask
        # type n4: apex of one side joined to a single-corner vertex of a
        # corner off that side
        n4_inc += (rows[t_ab] & (only_c | only_d)).bit_count()
        n4_inc += (rows[t_bc] & (only_d | only_a)).bit_count()
        n4_inc += (rows[t_cd] & (only_a | only_b)).bit_count()
        n4_inc += (rows[t_da] & (only_b | only_c)).bit_count()
        # type n9: an edge between single-corner vertices of adjacent corners
        only_bd = only_b | only_d
        for u in iter_bits(only_a | only_c):
            n9_inc += (rows[u] & only_bd).bit_count()
    return prism_inc, n4_inc, n9_inc, quads


def quad_plus_edge_census(
    g: Union[Graph, VerifiedFamily]
) -> QuadPlusEdgeCensus:
    """Classify every (quadrilateral, vertex-disjoint edge) incidence.

    A family graph only realises the prism, n4, n9, n13 and the four
    aggregate classes.  ``_qpe_scan`` counts the prism, n4 and n9
    incidences from the edge's adjacency pattern against the quadrilateral
    and checks its four n2 completions.  The rest follows from the family,
    for a quadrilateral Q with side apexes t_ab, t_bc, t_cd, t_da:

    - Q touches 4k - 4 edges, so total = p4 (m - 4(k-2) - 4).
    - |N[Q]| = 4k - 8: corners, apexes, k - 4 single-corner vertices each.
    - lambda = 1 and mu = 2 fix each edge inside N[Q] but t_ab t_cd and
      t_bc t_da, so e(N[Q]) = 14k - 44 + prism_q.
    - n13 sums n13_q = m - k |N[Q]| + e(N[Q]) = m - 4k^2 + 22k - 44 + prism_q.

    The aggregate n6+n7+n10+n11 is the remainder; it shares n13's master
    identity coefficient, so n13 cancels from the ledger.
    """
    fam = require_family(g)
    m, k = fam.m, fam.k
    prism_inc, n4_inc, n9_inc, quads = _qpe_scan(fam.graph.rows, fam.n, range(fam.n))
    total = quads * (m - 4 * (k - 2) - 4)
    n13 = quads * (m - 4 * k * k + 22 * k - 44) + prism_inc
    aggregate = total - prism_inc - n4_inc - n9_inc - n13
    if aggregate < 0:
        raise CountingInconsistencyError("negative aggregate incidence count")
    return QuadPlusEdgeCensus(
        total, prism_inc, n4_inc, n9_inc, n13, aggregate, quads, 4 * quads
    )


def count_n2(g: Union[Graph, VerifiedFamily]) -> int:
    """Type n2 count: quadrilateral plus triangle apexes on two adjacent sides.

    Every (quadrilateral, adjacent side pair) completion produces a distinct
    n2 subgraph in a family graph, so the count is 4*p4.  The quad-plus-edge
    pass checks each completion (``_qpe_scan``); any other raises.
    """
    return quad_plus_edge_census(g).n2


# -- triangle plus pendant completion ------------------------------------------


class TriangleCompletionCensus(NamedTuple):
    n1: int
    n4: int


def _completion_type(rows, x: int, y: int, z: int, q: int, r: int) -> Optional[str]:
    """Type of the completion of triangle x-y-z by pendant p at x, with q and
    r the second common neighbours of (p, y) and (p, z).

    Of its 15 vertex pairs only qr, qx, qz, rx and ry are left free.  With
    none of qx, qz, rx, ry an edge, the qr bit decides: a prism ("n1") or
    type "n4".  Any other setting gives None.
    """
    if rows[q] & ((1 << x) | (1 << z)) or rows[r] & ((1 << x) | (1 << y)):
        return None
    return "n1" if rows[q] >> r & 1 else "n4"


def triangle_edge_completion_census(
    g: Union[Graph, VerifiedFamily]
) -> TriangleCompletionCensus:
    """Complete every (triangle, pendant vertex) pair to 6 vertices.

    A pendant p hanging off corner x of triangle {x,y,z} determines two more
    vertices: the second common neighbour q of (p,y) and r of (p,z).  The
    induced 6-vertex graph is a prism when q~r (reached from 6 pendant
    choices) or type n4 otherwise (reached once), provided q and r have no
    further edges into the triangle; any such edge raises.  The identity
    6*n1 + n4 = 3(k-2)*p3 follows.
    """
    rows = require_family(g).graph.rows
    prism_inc = n4_inc = 0
    for tri in _triangle_ids(rows)[0]:
        tmask = (1 << tri[0]) | (1 << tri[1]) | (1 << tri[2])
        for idx in range(3):
            x = tri[idx]
            y, z = (tri[(idx + 1) % 3], tri[(idx + 2) % 3])
            for p in iter_bits(rows[x] & ~tmask):
                rp = rows[p]
                if (rp & tmask).bit_count() != 1:
                    raise FamilyViolationError(
                        f"vertex {p} joins triangle {tri} at several corners"
                    )
                seconds = []
                for other in (y, z):
                    cm = rp & rows[other]
                    if cm.bit_count() != 2:
                        raise FamilyViolationError(
                            f"non-edge ({p},{other}) has {cm.bit_count()} "
                            "common neighbours"
                        )
                    cm &= ~(1 << x)
                    seconds.append(cm.bit_length() - 1)
                q, r = seconds
                if len({x, y, z, p, q, r}) != 6:
                    raise CountingInconsistencyError(
                        f"completion of triangle {tri} with pendant {p} collapsed"
                    )
                kind = _completion_type(rows, x, y, z, q, r)
                if kind == "n1":
                    prism_inc += 1
                elif kind == "n4":
                    n4_inc += 1
                else:
                    raise CountingInconsistencyError(
                        f"completion of triangle {tri} with pendant {p} is "
                        "neither a prism nor type n4"
                    )
    if prism_inc % 6:
        raise CountingInconsistencyError(f"prism completions {prism_inc} not divisible by 6")
    return TriangleCompletionCensus(prism_inc // 6, n4_inc)


# -- assembled type census ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TypeCensus:
    """Counts of the named 6-vertex types plus edge-triple spans."""

    n1: int
    n2: int
    n3: int
    n4: int
    n5: int
    n8: int
    n9: int
    n12: int
    n13: int
    n14: int
    n6_7_10_11: int
    e4: int
    e5: int
    e6: int


def type_census(g: Union[Graph, VerifiedFamily]) -> TypeCensus:
    """The named-type census of a family graph, run as the ledger's rows
    ``TYPE_CENSUS_ROWS``: a failed stage stops it with CountingInconsistencyError
    "<stage>: <error>", and a failed route agreement raises one naming it."""
    from . import identities  # identities imports this module

    parts, _ = identities.run_ledger_rows(require_family(g), identities.TYPE_CENSUS_ROWS)
    return identities.type_census_of(parts)
