import random
from itertools import combinations

import pytest

from oracles import (
    complement,
    early_break_canonical_code,
    graph_from_code,
    induced,
    laplace_determinant,
    petersen,
    random_graph,
    relabeled,
    symmetry_loop,
)
from srg12 import graph6
from srg12.graph import (
    Graph,
    SrgParams,
    canonical_code,
    check_condition_one,
    check_condition_two,
    code_orbit,
    determinant_of_code,
    perfect_matching_count,
    verify_srg,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def full_code(g):
    """Packed edge code of the whole graph, as the exhaustive census packs a
    6-subset."""
    return g.subgraph_code(tuple(range(g.order)))


def certificate(g):
    return canonical_code(full_code(g), g.order)


def determinant(g):
    return determinant_of_code(full_code(g), g.order)


PRISM = Graph.from_edges(
    6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
)
TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestGraphBasics:
    def test_validation_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_validation_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_edges_and_degrees(self, paley9):
        assert paley9.num_edges == 18
        assert all(paley9.degree(v) == 4 for v in range(9))
        assert len(list(paley9.edges())) == 18

    def test_complement_is_involution(self, paley9):
        assert complement(complement(paley9)) == paley9

    def test_induced_subgraph(self):
        g = cycle(6)
        sub = induced(g, (0, 1, 2))
        assert sub.num_edges == 2


# one row per input check of ``Graph``, ``Graph.from_edges``, ``SrgParams``,
# ``code_orbit`` and ``graph6._encode_order``: the call, its error type and
# its message; the asymmetric rows name the witness the per-edge loop finds
# first, so both reach one raise
INPUT_ROWS = [
    (lambda mp: Graph(-1, ()), ValueError, "order must be non-negative"),
    (lambda mp: Graph(2, (0,)), ValueError, "adjacency must have one row per vertex"),
    (lambda mp: Graph(2, (4, 0)), ValueError, "row 0 has bits outside 0..1"),
    (lambda mp: Graph(2, (1, 0)), ValueError, "vertex 0 is adjacent to itself"),
    (lambda mp: Graph(3, (2, 0, 0)), ValueError, "adjacency not symmetric on (1, 0)"),
    (lambda mp: Graph(3, (2, 5, 0)), ValueError, "adjacency not symmetric on (2, 1)"),
    (lambda mp: Graph.from_edges(2, [(1, 1)]), ValueError, "loop at vertex 1"),
    (lambda mp: Graph.from_edges(2, [(0, 2)]), ValueError, "edge (0, 2) outside 0..1"),
    (lambda mp: graph6._encode_order(258048), ValueError,
     "order 258048 beyond supported graph6 range"),
    (lambda mp: SrgParams(0, 0), ValueError, "n must be at least 1"),
    (lambda mp: SrgParams(3, 3), ValueError, "k must satisfy 0 <= k < n"),
    (lambda mp: code_orbit(0, 9), ValueError,
     "code orbits are tabulated for at most 8 vertices, got 9"),
]
INPUT_IDS = ["negative-order", "row-count", "bits-outside", "loop-bit", "asymmetric-first-row",
             "asymmetric-later-row", "loop-edge", "edge-outside", "graph6-order", "params-order",
             "params-degree", "orbit-order"]


class TestSymmetryAgainstTheLoop:
    """``Graph`` accepts symmetric rows; on asymmetric ones it names the pair
    of the per-edge loop (the ``graph-symmetry`` differential row)."""

    def test_symmetric_rows_are_accepted(self):
        rng = random.Random(1712)
        for n in range(0, 300, 13):
            g = random_graph(rng, n, rng.random())
            assert Graph(n, g.rows) == g
            assert symmetry_loop(g.rows) is None


class TestConditions:
    def test_k3(self, k3):
        assert check_condition_one(k3).ok
        assert check_condition_two(k3).ok  # vacuous

    def test_c4_fails_condition_one(self):
        rep = check_condition_one(cycle(4))
        assert not rep.ok
        assert rep.violation[2] == 0  # edges of C4 have no common neighbour

    def test_c4_passes_condition_two(self):
        assert check_condition_two(cycle(4)).ok  # both diagonals have 2

    def test_paley9_both_conditions(self, paley9):
        assert check_condition_one(paley9).ok
        assert check_condition_two(paley9).ok

    def test_empty_graph_vacuous(self):
        g = Graph(0, ())
        assert check_condition_one(g).ok
        assert check_condition_two(g).ok


class TestVerifySrg:
    def test_paley9(self, paley9):
        assert verify_srg(paley9, SrgParams(9, 4, 1, 2)).passed

    def test_bvls(self, bvls):
        assert verify_srg(bvls, SrgParams(243, 22, 1, 2)).passed

    def test_petersen_is_srg_but_not_family(self):
        p = petersen()
        assert verify_srg(p, SrgParams(10, 3, 0, 1)).passed
        family = verify_srg(p, SrgParams(10, 3, 1, 2))
        assert not family.passed
        assert not family.lambda_ok

    def test_irregular_graph_reports_witness(self):
        g = Graph.from_edges(3, [(0, 1)])
        rep = verify_srg(g, SrgParams(3, 1, 1, 2))
        assert not rep.regular
        assert rep.degree_witness is not None

    def test_degenerate_single_vertex(self):
        rep = verify_srg(Graph(1, (0,)), SrgParams(1, 0))
        assert rep.degenerate


class TestCanonicalClass:
    def test_relabeled_c6_same_certificate(self):
        g = cycle(6)
        rng = random.Random(7)
        base = certificate(g)
        for _ in range(100):
            perm = list(range(6))
            rng.shuffle(perm)
            assert certificate(relabeled(g, perm)) == base

    def test_c6_vs_prism_distinct(self):
        assert certificate(cycle(6)) != certificate(PRISM)

    def test_paley9_six_subset_partition(self, paley9):
        classes = {}
        for subset in combinations(range(9), 6):
            cert = canonical_code(paley9.subgraph_code(subset), 6)
            classes[cert] = classes.get(cert, 0) + 1
        assert sum(classes.values()) == 84

    def test_certificate_reconstructs_isomorphic_graph(self):
        cert = certificate(PRISM)
        rebuilt = graph_from_code(cert, 6)
        assert full_code(rebuilt) == cert
        assert certificate(rebuilt) == cert

    def test_graph_from_code_inverts_subgraph_code(self):
        rng = random.Random(21)
        for n in range(8):
            for _ in range(5):
                code = rng.getrandbits(n * (n - 1) // 2)
                assert full_code(graph_from_code(code, n)) == code

    def test_relabeling_invariance_random_graphs(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 7), rng.random())
            perm = list(range(g.order))
            rng.shuffle(perm)
            assert certificate(g) == certificate(relabeled(g, perm))


class TestCodeOrbit:
    def test_canonical_code_matches_early_break_oracle(self):
        rng = random.Random(2024)
        for _ in range(3000):
            code = rng.getrandbits(15)
            assert canonical_code(code, 6) == early_break_canonical_code(code, 6)
        for n, samples in ((7, 12), (8, 3)):
            for _ in range(samples):
                code = rng.getrandbits(n * (n - 1) // 2)
                assert canonical_code(code, n) == early_break_canonical_code(code, n)

    def test_orbits_are_refused_above_eight_vertices(self):
        # the packed table covers n <= 8; n = 9 is refused before it is built
        for orbit_function in (code_orbit, canonical_code):
            with pytest.raises(ValueError, match="at most 8 vertices, got 9"):
                orbit_function(1, 9)

    def test_six_vertex_codes_fall_into_156_classes(self):
        # 156 graphs on 6 vertices (OEIS A000088); each orbit has size
        # 720 / |Aut| and the orbits partition all 2^15 codes
        left = set(range(1 << 15))
        sizes = []
        while left:
            orbit = code_orbit(min(left), 6)
            assert orbit <= left
            left -= orbit
            sizes.append(len(orbit))
        assert len(sizes) == 156
        assert sum(sizes) == 1 << 15
        assert all(720 % size == 0 for size in sizes)

    def test_orbit_is_closed_under_relabelling(self):
        rng = random.Random(17)
        g = random_graph(rng, 6, 0.5)
        code = g.subgraph_code(tuple(range(6)))
        orbit = code_orbit(code, 6)
        assert code in orbit
        for _ in range(20):
            perm = list(range(6))
            rng.shuffle(perm)
            assert relabeled(g, perm).subgraph_code(tuple(range(6))) in orbit
        assert code_orbit(0, 6) == {0}


class TestDeterminant:
    def test_table_values(self):
        assert determinant(cycle(6)) == -4
        assert determinant(PRISM) == 0
        assert determinant(TWO_TRIANGLES) == 4

    def test_against_cofactor_expansion(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            assert determinant(g) == laplace_determinant(g)

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, 6, 0.5)
            perm = list(range(6))
            rng.shuffle(perm)
            assert determinant(g) == determinant(relabeled(g, perm))


class TestThreeEdgeCover:
    def test_table_values(self):
        assert perfect_matching_count(cycle(6).rows, 6) == 2
        assert perfect_matching_count(TWO_TRIANGLES.rows, 6) == 0
        assert perfect_matching_count(PRISM.rows, 6) == 4

    def test_k6(self):
        k6 = Graph.from_edges(6, list(combinations(range(6), 2)))
        assert perfect_matching_count(k6.rows, 6) == 15

    def test_relabeling_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, 6, 0.6)
            perm = list(range(6))
            rng.shuffle(perm)
            assert perfect_matching_count(g.rows, 6) == perfect_matching_count(
                relabeled(g, perm).rows, 6
            )

    def test_odd_order_has_no_perfect_matching(self):
        assert perfect_matching_count(cycle(5).rows, 5) == 0
