"""The structural type rules of the census hot loops against certificates.

Each targeted census fixes most vertex pairs of a 6-vertex subset and
decides its type from the few pairs left free.  Here every setting of those
free pairs is built as a small graph and the structural decision is compared
with the canonical certificate (``oracles.certificate_type``).  The kept
error paths are driven with crafted rows.
"""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

from oracles import (
    c4s_through_edge,
    certificate_type,
    edges_clear_of,
    induced,
    pentagon_n4_sides,
    pentagon_side_census,
    pentagon_side_is_n4,
    pentagons_through,
    random_graph,
    triangle_with_pendants,
    triangles,
    unverified_family,
)
import srg12
from srg12 import census, graph, spectral
from srg12._bits import digit_total, iter_bits, neighbour_count_digits
from srg12.census import (
    QUAD_PAIR_TYPES,
    TRIANGLE_PAIR_TYPES,
    _completion_type,
    _is_n2,
    _pentagon_edge_scan,
    _quad_pairs_at_edge,
    _quad_pairs_through_edge,
    _triangle_ids,
    _triangle_table,
    _walk_scan,
    count_n2,
    disjoint_triangle_pair_census,
    iter_quadrilaterals,
    named_type_certificates,
    pentagon_triangle_census,
    pentagons_through_edge,
    quad_pair_census,
    triangle_edge_completion_census,
)
from srg12.constructions import build_paley9
from srg12.errors import CountingInconsistencyError, FamilyViolationError
from srg12.graph import Graph
from srg12.identities import run_all_checks
from srg12.spectral import charpoly_prefix


def settings(order, fixed, free):
    """Every graph on ``order`` vertices with the ``fixed`` edges plus a
    subset of the ``free`` pairs."""
    for bits in range(1 << len(free)):
        extra = [pair for t, pair in enumerate(free) if bits >> t & 1]
        yield Graph.from_edges(order, fixed + extra)


class TestRulesAgainstCertificates:
    def test_triangle_pairs_all_512_settings(self):
        fixed = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        free = [(a, b) for a in range(3) for b in range(3, 6)]
        seen = set()
        for g in settings(6, fixed, free):
            # every disjoint triangle pair spans all six vertices
            tris = [t for t in combinations(range(6), 3)
                    if all(g.has_edge(a, b) for a, b in combinations(t, 2))]
            pairs = sum(1 for s, t in combinations(tris, 2) if not set(s) & set(t))
            want = certificate_type(g, range(6))
            if want not in TRIANGLE_PAIR_TYPES:
                want = "excluded"
            tp = disjoint_triangle_pair_census(g)
            got = dict(n1=tp.n1, n3=tp.n3, n5=tp.n5, n14=tp.n14, excluded=tp.excluded)
            assert got == {name: pairs if name == want else 0 for name in got}
            seen.add(want)
        assert seen == {"n1", "n3", "n5", "n14", "excluded"}

    def test_quad_pairs_all_16_settings(self):
        # u=0, v=1; quadrilaterals 0-1-2-3-0 and 0-1-4-5-0
        fixed = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]
        free = [(2, 4), (3, 5), (2, 5), (3, 4)]
        seen = set()
        for g in settings(6, fixed, free):
            want = certificate_type(g, range(6))
            if want not in QUAD_PAIR_TYPES:
                want = None
            try:
                counts = _quad_pairs_at_edge(g.rows, 0, 1, [(2, 3), (4, 5)])
                got = QUAD_PAIR_TYPES[counts.index(1)]
                assert sum(counts) == 1
            except CountingInconsistencyError:
                got = None
            assert got == want
            seen.add(got)
        assert seen == {"n9", "n4", "n1", None}

    def test_n2_all_32_settings(self):
        # quadrilateral 0-1-2-3-0, apex 4 on side 01, apex 5 on side 12
        fixed = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 1), (5, 2)]
        free = [(4, 2), (4, 3), (4, 5), (5, 0), (5, 3)]
        hits = 0
        for g in settings(6, fixed, free):
            is_n2 = _is_n2(g.rows, 0, 1, 2, 3, 4, 5)
            assert is_n2 == (certificate_type(g, range(6)) == "n2")
            hits += is_n2
        assert hits == 1

    def test_triangle_completions_all_32_settings(self):
        # triangle x,y,z = 0,1,2; pendant p = 3 at x; q = 4 ~ p,y; r = 5 ~ p,z
        fixed = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 1), (3, 5), (5, 2)]
        free = [(4, 5), (4, 0), (4, 2), (5, 0), (5, 1)]
        seen = set()
        for g in settings(6, fixed, free):
            want = certificate_type(g, range(6))
            got = _completion_type(g.rows, 0, 1, 2, 4, 5)
            assert got == (want if want in ("n1", "n4") else None)
            seen.add(got)
        assert seen == {"n1", "n4", None}

    @pytest.mark.parametrize("joins, counts", [
        # the pendants as the hexagon 3-5-8-4-6-7-3: each completion of the
        # triangle 0-1-2 is type n4, which no family graph built reaches
        ([(3, 5), (5, 8), (8, 4), (4, 6), (6, 7), (7, 3)], (0, 6)),
        # the pendants as the triangles 3-5-7 and 4-6-8: two prisms
        ([(3, 5), (5, 7), (3, 7), (4, 6), (6, 8), (4, 8)], (2, 0)),
    ], ids=["hexagon", "triangles"])
    def test_triangle_completions_of_crafted_graphs(self, joins, counts):
        g = triangle_with_pendants(joins)
        assert tuple(triangle_edge_completion_census(unverified_family(g))) == counts

    def test_pentagon_side_all_8_apex_patterns(self):
        # pentagon 0..4, apex 5 on side 01 with each pattern on 2, 3, 4; the
        # per-pentagon oracle and the per-edge kernel must agree on side 01
        seen = set()
        for g in settings(10, PENTAGON_FIXED, PENTAGON_FREE):
            want = certificate_type(g, range(6))
            verdicts = []
            for route in (lambda: pentagon_n4_sides(g.rows, (0, 1, 2, 3, 4)),
                          lambda: _pentagon_edge_scan(g.rows, [(0, 1)])[0]):
                try:
                    verdicts.append(("n8", "n4")[route()])
                except CountingInconsistencyError as exc:
                    assert str(exc).startswith("apex of side (0,1) has adjacency pattern")
                    verdicts.append(str(exc))
            assert verdicts[0] == verdicts[1]
            got = verdicts[0] if verdicts[0] in ("n4", "n8") else None
            assert got == (want if want in ("n4", "n8") else None)
            if got is not None:  # the only pentagon of the graph
                n4 = int(got == "n4")
                assert pentagon_side_census(g) == (n4, 5 - n4, 1)
            seen.add(got)
        assert seen == {"n4", "n8", None}


# pentagon 0..4 with apexes 5..9 on its sides 01, 12, 23, 34, 40; the pairs
# joining apex 5 to 2, 3 and 4 are left free
PENTAGON_FIXED = [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 1)]
PENTAGON_FIXED += [(6, 1), (6, 2), (7, 2), (7, 3), (8, 3), (8, 4), (9, 4), (9, 0)]
PENTAGON_FREE = [(5, 2), (5, 3), (5, 4)]


def line_graph(h: Graph) -> Graph:
    edges = list(h.edges())
    return Graph.from_edges(len(edges), [
        (i, j) for i, j in combinations(range(len(edges)), 2)
        if set(edges[i]) & set(edges[j])
    ])


def generalized_petersen(n: int, k: int) -> Graph:
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)]
    return Graph.from_edges(2 * n, [tuple(sorted(e)) for e in edges])


class TestPentagonEdgeKernel:
    """The per-edge pentagon kernel against ``pentagons_through_edge`` and
    the per-pentagon side route of the oracles."""

    def oracle_n4(self, g, u, v):
        return sum(
            pentagon_side_is_n4(g.rows, pent, 0) for pent in pentagons_through(g, u, v)
        )

    def test_paley9(self, paley9):
        edges = list(paley9.edges())
        assert _pentagon_edge_scan(paley9.rows, edges) == (
            0, [pentagons_through_edge(paley9, e) for e in edges]
        )

    def test_crafted_graphs(self):
        compared = raised = edges = 0
        for g in settings(10, PENTAGON_FIXED, PENTAGON_FREE):
            edges += g.num_edges
            for u, v in g.edges():
                try:
                    n4, (count,) = _pentagon_edge_scan(g.rows, [(u, v)])
                except FamilyViolationError:
                    assert g.common_neighbors(u, v) != 1
                    raised += 1
                    continue
                except CountingInconsistencyError as exc:
                    with pytest.raises(CountingInconsistencyError, match="adjacency pattern"):
                        self.oracle_n4(g, u, v)
                    assert "adjacency pattern" in str(exc)
                    raised += 1
                    continue
                assert count == pentagons_through_edge(g, (u, v))
                assert count == len(pentagons_through(g, u, v))
                assert n4 == self.oracle_n4(g, u, v)
                compared += 1
        assert compared + raised == edges
        assert compared == 96 and raised == 36

    def test_two_pentagons_through_one_w_and_y(self):
        # 0-1-2-3-4 and 0-1-2-10-4 share w = 2 and y = 4; apex 5 of side 01
        # is joined to 3 alone, so exactly one of the two sides is type n4
        g = Graph.from_edges(11, PENTAGON_FIXED + [(5, 3), (10, 2), (10, 4)])
        assert _pentagon_edge_scan(g.rows, [(0, 1)]) == (1, [2])
        assert self.oracle_n4(g, 0, 1) == 1
        assert len(pentagons_through(g, 0, 1)) == 2

    def test_bvls_sample(self, bvls):
        edges = random.Random(2673).sample(list(bvls.edges()), 25)
        n4, counts = _pentagon_edge_scan(bvls.rows, edges)
        assert counts == [pentagons_through_edge(bvls, e) for e in edges]
        assert counts == [len(pentagons_through(bvls, u, v)) for u, v in edges]
        assert n4 == sum(self.oracle_n4(bvls, u, v) for u, v in edges) == 0

    def test_census_per_edge_order(self):
        # one triangle apex per edge and edges on 0 or 1 pentagons, so a
        # misplaced count shows
        g = line_graph(generalized_petersen(11, 2))
        pt = pentagon_triangle_census(unverified_family(g))
        assert pt.per_edge == tuple(pentagons_through_edge(g, e) for e in g.edges())
        assert set(pt.per_edge) == {0, 1}
        assert (pt.n4, pt.n8, pt.p5) == (*pentagon_side_census(g)[:2], census.count_pentagons(g))

    def test_census_rejects_per_edge_total_off_a_multiple_of_5(self, monkeypatch, paley9):
        # each pentagon lies on five edges, so only a broken edge scan reaches this
        real = census._pentagon_edge_scan

        def one_more(rows, edges):
            n4, per_edge = real(rows, edges)
            return n4, [per_edge[0] + 1, *per_edge[1:]]

        monkeypatch.setattr(census, "_pentagon_edge_scan", one_more)
        with pytest.raises(CountingInconsistencyError,
                           match="^pentagons through edges: 1 is not divisible by 5$"):
            pentagon_triangle_census(paley9)


class TestEdgesOutside:
    """The per-quadrilateral closed form behind the census's n13 against the
    vertex-by-vertex count of the edges clear of each quadrilateral's closed
    neighbourhood N[Q]."""

    def check_quads(self, g, quads) -> int:
        """Check each quadrilateral; the oracle's n13 summed over them."""
        rows, m, k = g.rows, g.num_edges, g.degree(0)
        n13 = 0
        for quad in quads:
            closed = 0
            for x in quad:
                closed |= rows[x] | 1 << x
            t_ab, t_bc, t_cd, t_da = (
                (rows[x] & rows[y]).bit_length() - 1
                for x, y in zip(quad, quad[1:] + quad[:1])
            )
            prism_q = (rows[t_ab] >> t_cd & 1) + (rows[t_bc] >> t_da & 1)
            clear = edges_clear_of(g, closed)
            assert clear == m - 4 * k * k + 22 * k - 44 + prism_q
            n13 += clear
        return n13

    def test_paley9(self, paley9):
        n13 = self.check_quads(paley9, list(iter_quadrilaterals(paley9)))
        assert n13 == census.quad_plus_edge_census(paley9).n13

    def test_bvls_sample(self, bvls):
        quads = random.Random(13365).sample(list(iter_quadrilaterals(bvls)), 40)
        self.check_quads(bvls, quads)


class TestTriangleTable:
    """The triangle ids and masks of the triangle-pair, hexagon and
    pentagon-side kernels against a scan of every vertex triple."""

    def test_random_graphs(self):
        rng = random.Random(891)
        sizes = set()
        for _ in range(60):
            n = rng.randint(0, 16)
            g = random_graph(rng, n, rng.random() * 0.8 + 0.1)
            ids, tri_of = _triangle_ids(g.rows)
            assert _triangle_table(g.rows)[0] is tri_of
            one_in = _triangle_table(g.rows)[1]
            tris = {frozenset(t) for t in combinations(range(n), 3)
                    if all(g.has_edge(a, b) for a, b in combinations(t, 2))}
            # one id per triangle, ids in order of the minimum vertex
            by_id = [frozenset(v for v in range(n) if tri_of[v] >> i & 1)
                     for i in range(len(tris))]
            assert set(by_id) == tris and len(by_id) == len(tris)
            assert [min(t) for t in by_id] == sorted(min(t) for t in by_id)
            # the ids follow the lexicographic order of the triangles
            assert ids == tuple(tuple(sorted(t)) for t in by_id) == tuple(triangles(g))
            assert all(mask >> len(tris) == 0 for mask in tri_of + one_in)
            for x in range(n):
                assert one_in[x] == sum(
                    1 << i for i, t in enumerate(by_id)
                    if sum(g.has_edge(x, v) for v in t) == 1)
            sizes.add(min(len(tris), 2))
        assert sizes == {0, 1, 2}


class TestNeighbourCounter:
    """The bit-sliced counter against a vertex-by-vertex count."""

    def test_digits_match_direct_counts(self):
        rng = random.Random(8)
        widest = 0
        for _ in range(200):
            n = rng.randint(1, 70)
            density = rng.random()
            rows = [sum(1 << x for x in range(n) if rng.random() < density)
                    for _ in range(n)]
            sources = rng.getrandbits(n)
            within = rng.getrandbits(n)
            digits = neighbour_count_digits(rows, sources, within)
            counts = [
                sum(rows[v] >> x & 1 for v in iter_bits(sources)) if within >> x & 1 else 0
                for x in range(n)
            ]
            assert [
                sum((d >> x & 1) << i for i, d in enumerate(digits)) for x in range(n)
            ] == counts
            assert len(digits) == max(counts, default=0).bit_length()
            mask = rng.getrandbits(n)
            assert digit_total(digits, mask) == sum(
                c for x, c in enumerate(counts) if mask >> x & 1
            )
            widest = max(widest, len(digits))
        assert widest >= 4

    def test_empty(self):
        assert neighbour_count_digits([0b110, 0b101, 0b011], 0, 0b111) == []
        assert neighbour_count_digits([0b110, 0b101, 0b011], 0b111, 0) == []
        assert digit_total([], 0b111) == 0


class TestBvlsSample:
    """A fixed seeded sample of BvLS 243 structures, checked both ways."""

    def test_triangle_pairs(self, bvls):
        rng = random.Random(243)
        tris = triangles(bvls)
        seen = set()
        checked = 0
        while checked < 150:
            s, t = rng.sample(tris, 2)
            if set(s) & set(t):
                continue
            tp = disjoint_triangle_pair_census(induced(bvls, s + t))
            got = [name for name in TRIANGLE_PAIR_TYPES if getattr(tp, name)]
            assert got == [certificate_type(bvls, s + t)]
            seen.update(got)
            checked += 1
        assert {"n1", "n5", "n14"} <= seen

    def test_quad_pairs(self, bvls):
        rng = random.Random(22)
        seen = set()
        for u, v in rng.sample(list(bvls.edges()), 30):
            quads = c4s_through_edge(bvls, u, v)
            for _ in range(5):
                q1, q2 = rng.sample(quads, 2)
                counts = _quad_pairs_at_edge(bvls.rows, u, v, [q1, q2])
                got = QUAD_PAIR_TYPES[counts.index(1)]
                assert got == certificate_type(bvls, (u, v) + q1 + q2)
                seen.add(got)
        assert seen == {"n1", "n9"}

    def test_completions(self, bvls):
        rng = random.Random(3)
        rows = bvls.rows
        for x, y, z in rng.sample(triangles(bvls), 20):
            tmask = (1 << x) | (1 << y) | (1 << z)
            pendants = [p for p in bvls.neighbors(x) if not tmask >> p & 1]
            for p in rng.sample(pendants, 3):
                q = (rows[p] & rows[y] & ~(1 << x)).bit_length() - 1
                r = (rows[p] & rows[z] & ~(1 << x)).bit_length() - 1
                got = _completion_type(rows, x, y, z, q, r)
                assert got == certificate_type(bvls, (x, y, z, p, q, r)) == "n1"
        quads = list(iter_quadrilaterals(bvls))
        for a, b, c, d in rng.sample(quads, 40):
            e = (rows[a] & rows[b]).bit_length() - 1
            f = (rows[b] & rows[c]).bit_length() - 1
            assert _is_n2(rows, a, b, c, d, e, f)
            assert certificate_type(bvls, (a, b, c, d, e, f)) == "n2"


class TestKeptErrors:
    @pytest.mark.parametrize("chords, extra", [
        (2, [(1, 3), (1, 4)]),
        (2, [(1, 4), (2, 4)]),
        (3, [(1, 3), (1, 4), (2, 4)]),
    ])
    def test_walk_with_chords_is_named(self, chords, extra):
        # walk 0-1-2-3-4-0 plus the chords in ``extra``
        g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)] + extra)
        with pytest.raises(CountingInconsistencyError,
                           match=rf"walk \(0,1,2,3,4\) has {chords} chords"):
            _walk_scan(g.rows, 5, [0])

    def test_walk_with_chords_named_where_mu_is_2(self):
        # walk 0-1-2-3-4-0 with chords 1-4 and 2-4, plus vertex 5 joined to
        # 0 and 3: both vertices at distance 2 from 0 have two neighbours in
        # N(0), as in a family graph, yet 4 is a neighbour in N(0) of both
        # w1 = 1 and w2 = 2, so the walk has a w1w4 and a w2w4 chord
        g = Graph.from_edges(6, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
                                 (1, 4), (2, 4), (0, 5), (3, 5)])
        rows = g.rows
        assert [(rows[x] & rows[0]).bit_count() for x in (2, 3)] == [2, 2]
        with pytest.raises(CountingInconsistencyError,
                           match=r"walk \(0,1,2,3,4\) has 2 chords"):
            _walk_scan(rows, 6, [0])

    def test_quad_pairs_count_check_comes_first(self):
        # edge (0,1) lies on two quadrilaterals sharing w = 2
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 3), (2, 4)])
        with pytest.raises(FamilyViolationError, match=r"lies on 2 quadrilaterals, expected 1"):
            _quad_pairs_through_edge(g.rows, 0, 1, 3)

    def test_quad_pair_unexpected_class(self):
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0), (2, 5)]
        )
        with pytest.raises(CountingInconsistencyError, match="unexpected class"):
            _quad_pairs_at_edge(g.rows, 0, 1, [(2, 3), (4, 5)])

    def test_quad_pair_census_unexpected_class(self):
        # edge (0,1): w = 2, 3 and x = 4, 5, with w-x edges 2-5, 3-4 and the
        # cross edge 3-5; pendants 6, 7 bring vertex 0 to degree 5
        g = Graph.from_edges(8, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (2, 5),
                                 (3, 4), (3, 5), (0, 6), (0, 7)])
        with pytest.raises(CountingInconsistencyError,
                           match=r"C4 pair through \(0,1\) induced an unexpected class"):
            quad_pair_census(unverified_family(g))

    def test_quad_pair_census_share_a_vertex(self):
        # edge (0,1): w = 2 joined to both x = 4 and x = 5
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 4), (0, 5), (2, 4), (2, 5), (0, 6)])
        with pytest.raises(FamilyViolationError,
                           match=r"quadrilaterals \(0, 1, 2, 4, 2, 5\) through \(0,1\) share a vertex"):
            quad_pair_census(unverified_family(g))

    def test_completion_not_n2(self):
        # quadrilateral 0-1-2-3 with side apexes 4..7; apexes 4 and 5 adjacent
        g = Graph.from_edges(8, [
            (0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 1), (5, 2),
            (6, 2), (6, 3), (7, 3), (7, 0), (4, 5),
        ])
        with pytest.raises(CountingInconsistencyError,
                           match=r"completion of \(0, 1, 2, 3\) on adjacent sides is not type n2"):
            count_n2(unverified_family(g))

    def test_completion_apexes_collide(self):
        # quadrilateral 0-1-2-3; vertex 4 is the apex of sides 01 and 12
        g = Graph.from_edges(7, [
            (0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2),
            (5, 2), (5, 3), (6, 3), (6, 0),
        ])
        with pytest.raises(CountingInconsistencyError,
                           match=r"adjacent-side apexes of \(0, 1, 2, 3\) collide"):
            count_n2(unverified_family(g))

    def test_completion_neither_prism_nor_n4(self):
        # triangle 0,1,2; pendant 3 at 0; q = 4, r = 5; extra edge q-x
        g = Graph.from_edges(6, [
            (0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 1), (3, 5), (5, 2), (4, 0),
        ])
        with pytest.raises(CountingInconsistencyError, match="neither a prism nor type n4"):
            triangle_edge_completion_census(unverified_family(g))

    def test_pentagon_side_apex_inside(self):
        # 5-cycle with chord 0-2: the common neighbour of 0 and 1 is vertex 2
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        with pytest.raises(CountingInconsistencyError, match="lies inside pentagon"):
            pentagon_n4_sides(g.rows, (0, 1, 2, 3, 4))
        # the per-edge kernel only enumerates induced pentagons, so this
        # case cannot reach it: the chord leaves no pentagon through (0,1)
        assert _pentagon_edge_scan(g.rows, [(0, 1)]) == (0, [0])


class TestNoCertificateLabelling:
    def test_ledger_and_pair_censuses_make_no_canonical_calls(self, monkeypatch, bvls):
        calls = []
        real = graph.canonical_code

        def counted(code, n):
            calls.append(n)
            return real(code, n)

        monkeypatch.setattr(graph, "canonical_code", counted)
        graph.classify_code.cache_clear()
        named_type_certificates.cache_clear()
        assert run_all_checks(build_paley9()).passed
        disjoint_triangle_pair_census(bvls)
        quad_pair_census(bvls)
        assert calls == []
        named_type_certificates()  # the counter does see certificate labelling
        assert calls


def unreached_definitions(sources, exported, classes=()):
    """Top-level functions and classes of the module texts ``sources``, and
    the methods (dunders aside) of the top-level classes named in
    ``classes``, that are not in ``exported`` and that no code but their own
    definition names (as an ``ast.Name`` or ``ast.Attribute``)."""
    defined, used = set(), set()
    for source in sources:
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(own)
            if isinstance(top, ast.ClassDef) and own in classes:
                defined.update(item.name for item in top.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("__"))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return sorted(defined - used - set(exported))


class TestInvariantsWithoutAssert:
    def test_no_assert_statements_in_src(self):
        # python -O strips assert, so no invariant of the package may use it
        paths = sorted(Path(census.__file__).parent.glob("*.py"))
        found = [
            f"{path.name}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert len(paths) >= 10
        assert found == []

    def test_no_private_names_imported_across_modules(self):
        # a module's underscore names stay its own, so the layering holds:
        # constructions reads the spectrum through spectral.srg_spectrum
        paths = sorted(Path(census.__file__).parent.glob("*.py"))
        found = [
            f"{path.name}: {node.module}.{alias.name}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.level or node.module.startswith("srg12"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert len(paths) >= 10
        assert found == []

    def test_every_top_level_definition_is_reached(self):
        # a function, class or Graph method of the package that no other
        # code of the package names and that is not exported is dead code,
        # unless the benchmark harness looks it up by name
        perfbench_pinned = {
            # perfbench/run.py names the expected classes of the exhaustive
            # workload by these certificates
            "named_type_certificates",
        }
        paths = sorted(Path(census.__file__).parent.glob("*.py"))
        sources = [path.read_text() for path in paths]
        assert len(paths) >= 10
        # anything else listed is dead; a pinned name that the package
        # reaches again must leave the allow-list
        assert unreached_definitions(sources, srg12.__all__, {"Graph"}) == sorted(perfbench_pinned)

    def test_unreached_definition_is_found(self):
        source = (
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

    def test_no_process_pool_in_src(self):
        # every census runs in process, through one code path
        paths = sorted(Path(census.__file__).parent.glob("*.py"))
        found = [
            f"{path.name}: {word}"
            for path in paths
            for word in ("ProcessPoolExecutor", "concurrent.futures", "multiprocessing")
            if word in path.read_text()
        ]
        assert len(paths) >= 10
        assert found == []

    def test_duplicate_named_certificates_raise(self, monkeypatch):
        edges = dict(census.NAMED_TYPE_EDGES)
        edges["twin"] = edges["n12"]
        monkeypatch.setattr(census, "NAMED_TYPE_EDGES", edges)
        named_type_certificates.cache_clear()
        with pytest.raises(CountingInconsistencyError, match="share a certificate"):
            named_type_certificates()

    def test_non_integral_newton_step_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "adjacency_traces", lambda g, m: (1,) + (0,) * (m - 1))
        with pytest.raises(CountingInconsistencyError, match="not integral at step 2"):
            charpoly_prefix(build_paley9())
