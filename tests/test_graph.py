import ast
import random
import traceback
from itertools import combinations, product
from pathlib import Path

import pytest

from oracles import (
    _perm_bit_maps,
    complement,
    early_break_canonical_code,
    graph_from_code,
    induced,
    laplace_determinant,
    petersen,
    random_graph,
    relabeled,
    symmetry_loop,
    transpose_loop,
    verify_cases,
    verify_srg_pairwise,
)
from srg12 import graph6
from srg12 import graph as graph_module
from srg12._bits import is_symmetric, iter_bits, transpose
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


# one row per input check of ``Graph``, ``Graph.from_edges`` and
# ``graph6._encode_order``: the call, its error type and its message; the
# asymmetric rows name the witness the per-edge loop finds first
INPUT_ROWS = [
    (lambda: Graph(-1, ()), ValueError, "order must be non-negative"),
    (lambda: Graph(2, (0,)), ValueError, "adjacency must have one row per vertex"),
    (lambda: Graph(2, (4, 0)), ValueError, "row 0 has bits outside 0..1"),
    (lambda: Graph(2, (1, 0)), ValueError, "vertex 0 is adjacent to itself"),
    (lambda: Graph(3, (2, 0, 0)), ValueError, "adjacency not symmetric on (1, 0)"),
    (lambda: Graph(3, (2, 5, 0)), ValueError, "adjacency not symmetric on (2, 1)"),
    (lambda: Graph.from_edges(2, [(1, 1)]), ValueError, "loop at vertex 1"),
    (lambda: Graph.from_edges(2, [(0, 2)]), ValueError, "edge (0, 2) outside 0..1"),
    (lambda: graph6._encode_order(258048), ValueError,
     "order 258048 beyond supported graph6 range"),
]
INPUT_IDS = ["negative-order", "row-count", "bits-outside", "loop-bit", "asymmetric-first-row",
             "asymmetric-later-row", "loop-edge", "edge-outside", "graph6-order"]


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


def raise_lines(path, *scopes):
    """Line numbers of the raise statements inside the named top-level
    classes and functions of a source file, or in all of it without names."""
    tree = ast.parse(Path(path).read_text())
    return sorted(node.lineno for top in tree.body
                  if not scopes or getattr(top, "name", None) in scopes
                  for node in ast.walk(top) if isinstance(node, ast.Raise))


def last_frame(call):
    """(file, line) of the frame in which ``call`` raised."""
    frame = traceback.extract_tb(raised(call).__traceback__)[-1]
    return frame.filename, frame.lineno


class TestInputRaises:
    """The input checks of ``Graph`` and of the graph6 order field, each
    with its error type and message."""

    @pytest.mark.parametrize("call, error, message", INPUT_ROWS, ids=INPUT_IDS)
    def test_type_and_message(self, call, error, message):
        exc = raised(call)
        assert (type(exc), str(exc)) == (error, message)

    def test_table_reaches_every_raise(self):
        # each raise of Graph (its from_edges included) and _encode_order is
        # the last frame of some row, and no row ends anywhere else
        reached = {last_frame(call) for call, _, _ in INPUT_ROWS}
        expected = {(graph_module.__file__, line)
                    for line in raise_lines(graph_module.__file__, "Graph")}
        expected |= {(graph6.__file__, line)
                     for line in raise_lines(graph6.__file__, "_encode_order")}
        assert len(expected) == 8
        assert reached == expected


SIZES = [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 513, 600]


class TestTranspose:
    """``_bits.transpose`` and ``_bits.is_symmetric`` against the per-bit
    loop, on both sides of every power of two up to 512 and above."""

    @pytest.mark.parametrize("n", SIZES)
    def test_equals_the_loop(self, n):
        rng = random.Random(n)
        for density in (0.0, 0.1, 0.5, 1.0):
            rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
            assert transpose(rows) == transpose_loop(rows)
            assert transpose(tuple(rows)) == transpose_loop(rows)

    @pytest.mark.parametrize("n", SIZES)
    def test_symmetry_equals_the_loop(self, n):
        # a symmetric matrix, then one arc flipped in the first row, in the
        # last row and next to the diagonal
        rng = random.Random(n)
        rows = list(random_graph(rng, n, 0.3).rows)
        cases = [rows]
        if n >= 2:
            i = rng.randrange(n - 1)
            for v, u in ((0, rng.randrange(1, n)), (n - 1, rng.randrange(n - 1)), (i, i + 1)):
                flipped = rows.copy()
                flipped[v] ^= 1 << u
                cases.append(flipped)
        for case in cases:
            expected = transpose_loop(case) == case
            assert is_symmetric(case) == is_symmetric(tuple(case)) == expected
        assert [is_symmetric(case) for case in cases] == [True] + [False] * (len(cases) - 1)


def symmetry_outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


class TestSymmetryAgainstTheLoop:
    """``Graph`` checks symmetry by comparing its rows with their transpose;
    on asymmetric rows it must name the pair the per-edge loop names."""

    def test_asymmetric_rows_name_the_loop_witness(self):
        rng = random.Random(1711)
        for n in [2, 3, 8, 9, 64, 65, 99, 243, 256, 257, 300] + [rng.randint(2, 300)
                                                                for _ in range(30)]:
            rows = list(random_graph(rng, n, rng.random() * 0.3).rows)
            for _ in range(rng.randint(1, 3)):  # one to three arcs flipped
                u, v = rng.sample(range(n), 2)
                rows[v] ^= 1 << u
            expected = symmetry_outcome(symmetry_loop, rows)
            got = symmetry_outcome(Graph, n, tuple(rows))
            assert (got.rows if isinstance(got, Graph) else got) == (
                tuple(rows) if expected is None else expected), n

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


class TestVerifySrgAgainstPairwise:
    """``verify_srg`` stops after the first row that gives both witnesses;
    its report must be the one the full pair scan gives."""

    def test_reports_equal_the_full_scan(self):
        for g, expected in verify_cases():
            assert verify_srg(g, expected) == verify_srg_pairwise(g, expected), (g.order, expected)

    def test_cases_reach_every_outcome(self):
        reports = [verify_srg_pairwise(g, expected) for g, expected in verify_cases()]
        full = [r for r in reports if not r.degenerate]
        assert {r.passed for r in reports if r.degenerate} == {True, False}
        assert {(r.lambda_ok, r.mu_ok) for r in full} == set(product((True, False), repeat=2))
        assert {(r.regular, r.mu_vacuous, r.passed) for r in full} >= {
            (True, True, True), (True, True, False), (True, False, True), (False, False, False)}
        # some scans stop before the last rows: both witnesses lie in rows
        # below n - 2
        assert any(r.lambda_witness and r.mu_witness
                   and max(r.lambda_witness[0], r.mu_witness[0]) < r.expected.n - 2
                   for r in full)


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

    def test_orbit_matches_the_permutation_map_oracle(self):
        # every n from the pairless n <= 1 to the 32-bit fields of n = 7, 8
        rng = random.Random(1708)
        for n in range(9):
            pairs = n * (n - 1) // 2
            codes = {0, (1 << pairs) - 1}
            codes.update(rng.getrandbits(pairs) for _ in range(2 if n == 8 else 12))
            for code in codes:
                want = {sum(1 << dest[b] for b in iter_bits(code))
                        for dest in _perm_bit_maps(n)}
                assert code_orbit(code, n) == want

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
