import json
import random
from dataclasses import replace
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from oracles import (
    brute_edge_triples,
    double_edge_switched,
    graph_from_code,
    induced_cycle_count,
    induced_cycles_through_edge,
    iter_pentagons,
    oracle_six_census,
    pentagon_scan_pairwise,
    petersen,
    quad_edge_incidences,
    random_graph,
    relabeled,
    unverified_family,
)
from srg12 import census, graph
from srg12.census import (
    NAMED_TYPE_EDGES,
    TypeCensus,
    coded_walk_census,
    count_hexagons,
    count_n2,
    count_pentagons,
    count_quadrilaterals_by_edges,
    count_triangles,
    cycle_census,
    disjoint_triangle_pair_census,
    edge_triple_census,
    exhaustive_six_census,
    named_type_certificates,
    pentagon_triangle_census,
    pentagons_through_edge,
    quad_pair_census,
    quad_plus_edge_census,
    require_family,
    triangle_edge_completion_census,
    type_census,
)
from srg12.constructions import build_paley9
from srg12.errors import CountingInconsistencyError, FamilyViolationError, SizeLimitError
from srg12.graph import Graph
from srg12.identities import MASTER_COEFF, MASTER_COEFF_AGGREGATE, master_identity_rhs
from srg12.spectral import charpoly_prefix


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def named_graph(name):
    return Graph.from_edges(6, NAMED_TYPE_EDGES[name])


def random_cases(seed, count, nmin=6, nmax=16):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, rng.randint(nmin, nmax), rng.random() * 0.6 + 0.15)


class TestCycleCounts:
    def test_triangle_goldens(self, k3, paley9, bvls):
        assert count_triangles(k3) == 1
        assert count_triangles(paley9) == 6
        assert count_triangles(bvls) == 891

    def test_quadrilateral_goldens(self, paley9, bvls):
        assert count_quadrilaterals_by_edges(cycle(4)) == 1
        assert count_quadrilaterals_by_edges(paley9) == 9
        assert count_quadrilaterals_by_edges(bvls) == 13365

    def test_quadrilateral_guard_and_family_gate(self, bvls):
        # no size guard and no family gate: the canonical iterator is exact
        # on any graph, so the 4-subset oracle agrees beyond 64 vertices and
        # off the family
        g = random_graph(random.Random(64), 66, 0.1)
        assert count_quadrilaterals_by_edges(g) == induced_cycle_count(g, 4) > 0
        p = petersen()
        assert count_quadrilaterals_by_edges(p) == induced_cycle_count(p, 4)

    def test_pentagon_goldens(self, paley9, bvls):
        assert count_pentagons(cycle(5)) == 1
        assert count_pentagons(paley9) == 0
        assert count_pentagons(petersen()) == 12

    def test_hexagon_goldens(self, paley9):
        assert count_hexagons(cycle(6)) == 1
        assert count_hexagons(paley9) == 6
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert count_hexagons(k4) == 0
        assert count_hexagons(petersen()) == 10

    def test_against_subset_scan(self):
        cases = [*random_cases(101, 15, nmin=6, nmax=12),
                 *random_cases(102, 10, nmin=13, nmax=16)]
        for g in cases:
            assert count_triangles(g) == induced_cycle_count(g, 3)
            assert count_quadrilaterals_by_edges(g) == induced_cycle_count(g, 4)
            assert count_pentagons(g) == induced_cycle_count(g, 5)
            assert count_hexagons(g) == induced_cycle_count(g, 6)

    def test_relabeling_invariance(self):
        rng = random.Random(77)
        for g in random_cases(55, 5, nmin=8, nmax=12):
            perm = list(range(g.order))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            assert count_triangles(g) == count_triangles(h)
            assert count_quadrilaterals_by_edges(g) == count_quadrilaterals_by_edges(h)
            assert count_pentagons(g) == count_pentagons(h)
            assert count_hexagons(g) == count_hexagons(h)

    def test_iter_pentagons_yields_cycles(self):
        for g in random_cases(31, 5, nmin=7, nmax=11):
            pents = list(iter_pentagons(g))
            assert len(pents) == count_pentagons(g)
            table = census._triangle_table(g.rows)
            # per start: the pentagons the hexagon kernel counts and the
            # pairwise scan of the kernel tests
            for v0 in range(g.order):
                assert (sum(p[0] == v0 for p in pents)
                        == census._hexagon_scan(g.rows, g.order, [v0], table)[0]
                        == pentagon_scan_pairwise(g.rows, g.order, [v0]))
            assert len({frozenset(p) for p in pents}) == len(pents)
            for p in pents:
                assert len(set(p)) == 5
                for i in range(5):
                    assert g.has_edge(p[i], p[(i + 1) % 5])
                    assert not g.has_edge(p[i], p[(i + 2) % 5])

    def test_cycle_census_assembly(self, paley9):
        cc = cycle_census(paley9)
        assert (cc.p3, cc.p4, cc.p5, cc.p6) == (6, 9, 0, 6)


class TestPentagonsThroughEdge:
    def test_c5(self):
        assert pentagons_through_edge(cycle(5), (0, 1)) == 1

    def test_paley9_all_edges_zero(self, paley9):
        for e in paley9.edges():
            assert pentagons_through_edge(paley9, e) == 0

    def test_non_edge_rejected(self, paley9):
        u, v = next(
            (u, v)
            for u in range(9)
            for v in range(u + 1, 9)
            if not paley9.has_edge(u, v)
        )
        with pytest.raises(ValueError):
            pentagons_through_edge(paley9, (u, v))

    def test_against_subset_scan(self):
        for g in random_cases(7, 8, nmin=6, nmax=10):
            for e in list(g.edges())[:6]:
                assert pentagons_through_edge(g, e) == induced_cycles_through_edge(
                    g, e, 5
                )


class TestEdgeTriples:
    def test_goldens(self, k3, paley9):
        assert edge_triple_census(k3) == (1, 0, 0)
        assert edge_triple_census(paley9) == (186, 450, 180)

    def test_partition_and_brute_agreement(self):
        for g in random_cases(23, 20):
            e4, e5, e6 = edge_triple_census(g)
            assert (e4, e5, e6) == brute_edge_triples(g)
            assert e4 + e5 + e6 == comb(g.num_edges, 3)

    def test_structured_path_matches_brute(self):
        # force the structured counters (used for large graphs) on small input
        from srg12.census import _count_span4_triples, _count_span5_triples

        for g in random_cases(29, 20):
            e4, e5, _ = brute_edge_triples(g)
            degs = [g.degree(v) for v in range(g.order)]
            assert _count_span4_triples(g, degs) == e4
            assert _count_span5_triples(g, degs, g.num_edges) == e5

    def test_span6_matchings_match_brute(self):
        from srg12.census import _count_span6_triples

        rng = random.Random(66)
        nonzero = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 11), rng.random())
            e6 = brute_edge_triples(g)[2]
            degs = [g.degree(v) for v in range(g.order)]
            assert _count_span6_triples(g, degs, g.num_edges) == e6
            nonzero += e6 > 0
        assert nonzero > 50

    def test_bvls_uses_formula_scale(self, bvls):
        e4, e5, e6 = edge_triple_census(bvls)
        assert e4 == 1_551_231
        assert e5 == 146_453_670
        assert e4 + e5 + e6 == comb(2673, 3)


class TestCodedWalks:
    def test_paley9(self, paley9):
        w = coded_walk_census(paley9)
        assert w.total == 288
        assert (w.t1, w.t2, w.p5_walks) == (36, 36, 0)
        assert w.total == 10 * w.p5_walks + 6 * w.t1 + 2 * w.t2

    def test_k3_has_no_distance_two(self, k3):
        assert coded_walk_census(k3) == (0, 0, 0, 0)

    def test_rejects_non_family(self):
        with pytest.raises(FamilyViolationError):
            coded_walk_census(petersen())


class TestExhaustiveCensus:
    def test_paley9_classes(self, paley9):
        census = exhaustive_six_census(paley9)
        counts = {cls.certificate: st.count for cls, st in census.items()}
        assert sum(counts.values()) == 84
        certs = named_type_certificates()
        assert counts[certs["n1"]] == 6
        assert counts[certs["n2"]] == 36
        assert counts[certs["n12"]] == 6
        # remaining 36 subsets form a single aggregate class
        rest = {c: v for c, v in counts.items() if c not in certs.values()}
        assert sum(rest.values()) == 36

    def test_c6_input_single_class(self):
        census = exhaustive_six_census(cycle(6))
        assert len(census) == 1
        ((cls, st),) = census.items()
        assert st == (1, -4, 2)
        assert cls.certificate == named_type_certificates()["n12"]

    def test_k6(self):
        k6 = Graph.from_edges(6, list(combinations(range(6), 2)))
        ((cls, st),) = exhaustive_six_census(k6).items()
        assert st.count == 1 and st.cover_count == 15

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            exhaustive_six_census(Graph(17, (0,) * 17))

    def test_e6_equals_cover_sum(self):
        for g in random_cases(99, 10):
            census = exhaustive_six_census(g)
            cover_sum = sum(st.count * st.cover_count for st in census.values())
            assert edge_triple_census(g).e6 == cover_sum

    def test_det_cover_sum_ties_to_charpoly(self):
        # c6 + C(|E|,3) - e4 - e5 == sum over classes of count*(det+cov)
        for g in random_cases(47, 10):
            census = exhaustive_six_census(g)
            lhs = charpoly_prefix(g, 6).c6 + comb(g.num_edges, 3)
            e4, e5, _ = edge_triple_census(g)
            rhs = e4 + e5 + sum(
                st.count * (st.det + st.cover_count) for st in census.values()
            )
            assert lhs == rhs

    def test_named_class_coefficients_on_paley(self, paley9):
        census = exhaustive_six_census(paley9)
        cert_names = {v: k for k, v in named_type_certificates().items()}
        for cls, st in census.items():
            name = cert_names.get(cls.certificate)
            if name is not None:
                assert st.det + st.cover_count == MASTER_COEFF[name]
            else:
                assert st.det + st.cover_count == MASTER_COEFF_AGGREGATE


class TestExhaustiveEnumerationBudget:
    def test_one_orbit_expansion_per_class(self, monkeypatch):
        # a seeded 6-regular graph on 16 vertices: C16(1, 2, 3), switched
        circulant = Graph.from_edges(16, [(i, (i + d) % 16) for i in range(16)
                                          for d in (1, 2, 3)])
        g = double_edge_switched(circulant, random.Random(1603), 12)
        expansions = []
        labelled = []
        real_orbit = census.code_orbit

        def counted_orbit(code, n):
            expansions.append(code)
            return real_orbit(code, n)

        monkeypatch.setattr(census, "code_orbit", counted_orbit)
        monkeypatch.setattr(graph, "canonical_code",
                            lambda code, n: labelled.append(code))
        classes = exhaustive_six_census(g)
        assert len(expansions) == len(classes) > 100
        assert labelled == []
        assert sum(st.count for st in classes.values()) == comb(16, 6)
        assert sum(st.count * cls.edge_count for cls, st in classes.items()) == (
            g.num_edges * comb(14, 4))

    def test_counts_equal_the_subset_by_subset_oracle(self, paley9):
        g = random_graph(random.Random(1010), 10, 0.5)
        for h in (paley9, g):
            counts = {cls.certificate: st.count
                      for cls, st in exhaustive_six_census(h).items()}
            assert counts == oracle_six_census(h)

    def test_tally_and_class_order_follow_subgraph_code(self, paley9):
        # the prefix-shared codes tally like subgraph_code over combinations,
        # key order included, and the classes are met in first-subset order
        rng = random.Random(1717)
        k6 = Graph.from_edges(6, list(combinations(range(6), 2)))
        graphs = [k6, random_graph(rng, 7, 0.5), paley9] + [
            random_graph(rng, n, p) for n in range(8, 17) for p in (0.3, 0.6)]
        for g in graphs:
            tally = {}
            for subset in combinations(range(g.order), 6):
                code = g.subgraph_code(subset)
                tally[code] = tally.get(code, 0) + 1
            assert list(census._six_subset_tally(g.rows, g.order).items()) == list(
                tally.items())
            first_met = dict.fromkeys(graph.classify_code(code, 6) for code in tally)
            assert [cls.certificate for cls in exhaustive_six_census(g)] == list(first_met)


class TestDisjointTrianglePairs:
    def test_paley9(self, paley9):
        tp = disjoint_triangle_pair_census(paley9)
        assert (tp.n1, tp.n3, tp.n5, tp.n14) == (6, 0, 0, 0)

    def test_two_triangles_graph(self):
        tp = disjoint_triangle_pair_census(named_graph("n14"))
        assert (tp.n1, tp.n3, tp.n5, tp.n14) == (0, 0, 0, 1)

    def test_named_references_classify_themselves(self):
        for name, want in (("n1", "n1"), ("n3", "n3"), ("n5", "n5"), ("n14", "n14")):
            tp = disjoint_triangle_pair_census(named_graph(name))
            assert getattr(tp, want) == 1

    def test_against_exhaustive_on_random_graphs(self):
        certs = named_type_certificates()
        for g in random_cases(63, 12):
            census = exhaustive_six_census(g)
            counts = {cls.certificate: st.count for cls, st in census.items()}
            tp = disjoint_triangle_pair_census(g)
            assert tp.n1 == counts.get(certs["n1"], 0)
            assert tp.n3 == counts.get(certs["n3"], 0)
            assert tp.n5 == counts.get(certs["n5"], 0)
            assert tp.n14 == counts.get(certs["n14"], 0)

    def test_witness_structure(self):
        g = named_graph("n3")
        tp = disjoint_triangle_pair_census(g)
        tri1, tri2, edges = tp.n3_witness
        assert len(edges) == 2
        for u, v in edges:
            assert g.has_edge(u, v)
        joined = set(tri1) | set(tri2)
        assert len(joined) == 6


class TestQuadPairs:
    def test_paley9(self, paley9):
        qp = quad_pair_census(paley9)
        assert (qp.n1, qp.n4, qp.n9) == (6, 0, 0)

    def test_k3(self, k3):
        assert quad_pair_census(k3) == (0, 0, 0)

    def test_rejects_non_family(self):
        with pytest.raises(FamilyViolationError):
            quad_pair_census(cycle(4))


class TestPentagonTriangles:
    def test_paley9(self, paley9):
        pt = pentagon_triangle_census(paley9)
        assert (pt.n4, pt.n8, pt.p5) == (0, 0, 0)

    def test_rejects_non_family(self):
        with pytest.raises(FamilyViolationError):
            pentagon_triangle_census(cycle(5))


class TestQuadPlusEdge:
    def test_paley9(self, paley9):
        qpe = quad_plus_edge_census(paley9)
        assert qpe.total == 54
        assert qpe.prism_incidences == 18
        assert qpe.n4_incidences == 0
        assert qpe.n9_incidences == 0
        assert qpe.n13 + qpe.n6_7_10_11 == 36
        assert qpe.p4 == 9

    def test_incidences_match_per_class_enumeration(self, paley9):
        # ground truth: for every 6-class, count its (C4, disjoint edge)
        # pairs directly and weight by the class count
        census = exhaustive_six_census(paley9)
        total = 0
        for cls, st in census.items():
            rep = graph_from_code(cls.certificate, 6)
            total += st.count * quad_edge_incidences(rep)
        qpe = quad_plus_edge_census(paley9)
        assert qpe.total == total

    def test_prism_holds_three_incidences(self):
        assert quad_edge_incidences(named_graph("n1")) == 3
        assert quad_edge_incidences(named_graph("n4")) == 2
        assert quad_edge_incidences(named_graph("n9")) == 2
        assert quad_edge_incidences(named_graph("n13")) == 1
        assert quad_edge_incidences(named_graph("n2")) == 0


class TestN2AndCompletions:
    def test_n2_paley(self, paley9):
        assert count_n2(paley9) == 36  # 4 * p4

    def test_n2_rejects_non_family(self):
        with pytest.raises(FamilyViolationError):
            count_n2(cycle(4))

    def test_triangle_completion_paley(self, paley9):
        comp = triangle_edge_completion_census(paley9)
        assert comp == (6, 0)  # 6*6 + 0 = 36 = p3 * 3(k-2)


class TestTypeCensusAssembly:
    def test_paley9(self, paley9):
        tc = type_census(paley9)
        assert tc.n1 == 6
        assert tc.n2 == 36
        assert tc.n12 == 6
        assert (tc.n3, tc.n4, tc.n5, tc.n8, tc.n9, tc.n14) == (0,) * 6
        assert tc.n13 + tc.n6_7_10_11 == 36
        assert (tc.e4, tc.e5, tc.e6) == (186, 450, 180)
        # master identity right side: c6 + C(18,3) = 648
        assert master_identity_rhs(tc) == 648

    @pytest.mark.parametrize("name", ["paley9", "bvls243"])
    def test_n13_cancels_from_master_identity(self, name):
        # n13 comes from a closed form and the aggregate n6+n7+n10+n11 is the
        # remainder after it, so the ledger rests on their equal coefficients
        golden = Path(__file__).parent / "data" / f"census_{name}.json"
        tc = TypeCensus(**json.loads(golden.read_text())["types"])
        assumption = "n13 and n6+n7+n10+n11 share one master identity coefficient"
        assert MASTER_COEFF["n13"] == MASTER_COEFF_AGGREGATE, assumption
        rhs = master_identity_rhs(tc)
        for d in (-tc.n13, -1, 1, 12345, tc.n6_7_10_11):
            moved = replace(tc, n13=tc.n13 + d, n6_7_10_11=tc.n6_7_10_11 - d)
            assert master_identity_rhs(moved) == rhs, assumption

    def test_n4_equals_twice_n3_paley(self, paley9):
        tc = type_census(paley9)
        assert tc.n4 == 2 * tc.n3


def crafted(n, edges):
    """The graph on n vertices with ``edges``, given to a family census
    unverified."""
    return unverified_family(Graph.from_edges(n, edges))


def duplicate_certificates(mp):
    mp.setattr(census, "NAMED_TYPE_EDGES", {**NAMED_TYPE_EDGES, "twin": NAMED_TYPE_EDGES["n12"]})
    named_type_certificates.cache_clear()  # the patched table is read afresh
    try:
        return named_type_certificates()
    finally:
        named_type_certificates.cache_clear()


def patched_call(name, kernel, census_call):
    """A row whose kernel ``census.<name>`` is replaced by ``kernel`` before
    ``census_call`` runs on Paley 9."""
    def call(mp):
        mp.setattr(census, name, kernel)
        return census_call(build_paley9())
    return call


C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
TRIANGLE = [(0, 1), (0, 2), (1, 2)]

# No verified family reaches the guards below; each row reaches its guard
# with crafted rows, a patched kernel or a kernel input that disagrees with
# itself, and the comment names the kernel fault the guard would catch.
# - Walk counts: on any graph each induced pentagon gives 10 coded walks,
#   each house 6 (three starts whose chord avoids them, two directions) and
#   each triangle with a pendant 2, so only a ``_walk_scan`` that miscounts
#   leaves a remainder.
# - 3-matchings: every 3-matching is counted once from each of its three
#   edges, on any graph, so only degrees or an edge count that disagree
#   with the rows (or a wrong sharing term) leave a remainder.
# - Prism incidences of the quadrilateral pairs: a pair is counted only
#   when it induces a prism, and then once through each of the prism's
#   three matching edges; only a ``_quad_pairs_through_edge`` that
#   miscounts prisms leaves a remainder.
# - Pentagons through edges: each induced pentagon is counted once through
#   each of its five edges, so only a broken ``_pentagon_edge_scan`` leaves
#   a remainder.
# - Apexes of quadrilateral sides: lambda = 1 gives every edge exactly one
#   common neighbour; C4 rows have none.
# - Negative aggregate: with lambda = 1 and mu = 2 the total and n13 are
#   exact closed forms, so the aggregate counts real incidences and is at
#   least 0; only a ``_qpe_scan`` that over-counts the prism, n4 or n9
#   incidences makes it negative.
# - A pendant at several corners: p joined to corners x and y makes p and z
#   two common neighbours of the edge xy, against lambda = 1.
# - A non-edge (p, y) needs mu = 2 common neighbours; a pendant of a lone
#   triangle has one.
# - A collapsed completion: q != r outside the triangle, since p meets it
#   at x only; q = r would be a second common neighbour of the edge yz,
#   against lambda = 1.
# - Prism completions: each prism is reached from both its triangles and
#   each of their three corners, on any graph where no other guard raises,
#   so only a ``_completion_type`` that names a prism wrongly leaves a
#   remainder.
CENSUS_RAISES = [
    (duplicate_certificates, CountingInconsistencyError,
     "two named 6-vertex types share a certificate"),
    (lambda mp: require_family(Graph(0, ())), FamilyViolationError,
     "empty graph is not a family member"),
    (lambda mp: require_family(Graph.from_edges(4, C4)), FamilyViolationError,
     "graph is not a verified srg(4,2,1,2): regular=True lambda_ok=False mu_ok=True "
     "order_relation=False"),
    (lambda mp: pentagons_through_edge(build_paley9(), (0, 4)), ValueError,
     "(0, 4) is not an edge"),
    (lambda mp: coded_walk_census(crafted(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
                                              (1, 3), (1, 4)])),
     CountingInconsistencyError, "walk (0,1,2,3,4) has 2 chords"),
    (patched_call("_walk_scan", lambda rows, n, starts: (11, 0, 0), coded_walk_census),
     CountingInconsistencyError, "pentagon walk count 11 not divisible by 10"),
    # K2 with the edge count 3 in place of 1
    (lambda mp: census._count_span6_triples(Graph(2, (2, 1)), [1, 1], 3),
     CountingInconsistencyError, "3-matching incidences 1 not divisible by 3"),
    (lambda mp: exhaustive_six_census(Graph(17, (0,) * 17)), SizeLimitError,
     "exhaustive census guarded to 16 vertices, got 17"),
    (lambda mp: quad_pair_census(crafted(7, [(0, 1), (1, 2), (0, 4), (0, 5), (2, 4), (2, 5),
                                             (0, 6)])),
     FamilyViolationError, "quadrilaterals (0, 1, 2, 4, 2, 5) through (0,1) share a vertex"),
    (lambda mp: quad_pair_census(crafted(8, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (2, 5),
                                             (3, 4), (3, 5), (0, 6), (0, 7)])),
     CountingInconsistencyError, "C4 pair through (0,1) induced an unexpected class"),
    (lambda mp: quad_pair_census(crafted(4, C4)), FamilyViolationError,
     "edge (0,1) lies on 1 quadrilaterals, expected 0"),
    (patched_call("_quad_pairs_through_edge",
                  lambda rows, u, v, k: [0, 0, int((u, v) == (0, 1))], quad_pair_census),
     CountingInconsistencyError, "prism incidences 1 not divisible by 3"),
    (lambda mp: pentagon_triangle_census(crafted(5, [(0, 1), (1, 2), (2, 3), (3, 4),
                                                     (4, 0)])),
     FamilyViolationError, "side (0,1) has 0 triangle apexes"),
    # pentagon 0-1-2-3-4 whose side (0,1) has apex 5, also joined to w = 2
    (lambda mp: pentagon_triangle_census(crafted(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                                     (5, 0), (5, 1), (5, 2)])),
     CountingInconsistencyError,
     "apex of side (0,1) has adjacency pattern 001 on pentagon (0, 1, 2, 3, 4)"),
    (patched_call("_pentagon_edge_scan", lambda rows, edges: (0, [1]),
                  pentagon_triangle_census),
     CountingInconsistencyError, "pentagons through edges: 1 is not divisible by 5"),
    (lambda mp: quad_plus_edge_census(crafted(4, C4)), FamilyViolationError,
     "side (0,1) has 0 triangle apexes"),
    # vertex 4 is the apex of sides 01 and 12
    (lambda mp: count_n2(crafted(7, C4 + [(4, 0), (4, 1), (4, 2), (5, 2), (5, 3), (6, 3),
                                          (6, 0)])),
     CountingInconsistencyError, "adjacent-side apexes of (0, 1, 2, 3) collide"),
    # the apexes 4 and 5 of sides 01 and 12 joined
    (lambda mp: count_n2(crafted(8, C4 + [(4, 0), (4, 1), (5, 1), (5, 2), (6, 2), (6, 3),
                                          (7, 3), (7, 0), (4, 5)])),
     CountingInconsistencyError, "completion of (0, 1, 2, 3) on adjacent sides is not type n2"),
    # one quadrilateral of Paley 9 with 9 n4 incidences: total 6, n13 -2
    (patched_call("_qpe_scan", lambda rows, n, v0_list: (0, 9, 0, 1), quad_plus_edge_census),
     CountingInconsistencyError, "negative aggregate incidence count"),
    (lambda mp: triangle_edge_completion_census(crafted(4, TRIANGLE + [(0, 3), (1, 3),
                                                                       (2, 3)])),
     FamilyViolationError, "vertex 3 joins triangle (0, 1, 2) at several corners"),
    (lambda mp: triangle_edge_completion_census(crafted(4, TRIANGLE + [(0, 3)])),
     FamilyViolationError, "non-edge (3,1) has 1 common neighbours"),
    # pendant 3 at 0; vertex 4 joined to 3 and to both 1 and 2, so q = r = 4
    (lambda mp: triangle_edge_completion_census(crafted(5, TRIANGLE + [(0, 3), (3, 4), (1, 4),
                                                                       (2, 4)])),
     CountingInconsistencyError, "completion of triangle (0, 1, 2) with pendant 3 collapsed"),
    # triangle 0-1-2, pendant 3 at 0, q = 4 and r = 5 with a further edge 4-0
    (lambda mp: triangle_edge_completion_census(crafted(6, TRIANGLE + [(0, 3), (3, 4), (4, 1),
                                                                       (3, 5), (5, 2),
                                                                       (4, 0)])),
     CountingInconsistencyError,
     "completion of triangle (0, 1, 2) with pendant 3 is neither a prism nor type n4"),
    # the four completions at vertex 0 of Paley 9 (two triangles, two
    # pendants each) named prisms, the rest n4
    (patched_call("_completion_type", lambda rows, x, *rest: "n1" if x == 0 else "n4",
                  triangle_edge_completion_census),
     CountingInconsistencyError, "prism completions 4 not divisible by 6"),
]
CENSUS_IDS = ["certificates", "empty", "not-family", "not-an-edge", "walk-chords",
              "walk-count", "3-matchings", "exhaustive-size", "quad-pair-share",
              "quad-pair-class", "edge-quadrilaterals", "quad-prisms", "pentagon-apexes",
              "apex-pattern", "pentagon-sides", "qpe-apexes", "n2-collide", "n2-type",
              "negative-aggregate", "several-corners", "non-edge", "collapsed",
              "completion-type", "prism-completions"]
