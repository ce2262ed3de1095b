import pytest

from oracles import check_feasible_relations, complement, paley9_gf9
from srg12 import constructions, graph6
from srg12.census import count_triangles, exhaustive_six_census
from srg12.constructions import (
    GOLAY_PARITY_CHECK,
    FeasibleParams,
    build_bvls243,
    build_paley9,
    feasible_parameters,
)
from srg12.errors import InfeasibleParametersError
from srg12.graph import SrgParams, check_condition_one, check_condition_two, verify_srg


class TestK3:
    def test_shape(self, k3):
        assert k3.order == 3 and k3.num_edges == 3

    def test_conditions(self, k3):
        assert check_condition_one(k3).ok

    def test_verifies_with_vacuous_mu(self, k3):
        rep = verify_srg(k3, SrgParams(3, 2, 1, 2))
        assert rep.passed and rep.mu_vacuous


class TestPaley9:
    def test_shape(self, paley9):
        assert paley9.order == 9
        assert paley9.num_edges == 18
        assert all(paley9.degree(v) == 4 for v in range(9))

    def test_verifies(self, paley9):
        assert verify_srg(paley9, SrgParams(9, 4, 1, 2)).passed

    def test_conditions(self, paley9):
        assert check_condition_one(paley9).ok
        assert check_condition_two(paley9).ok

    def test_triangle_count(self, paley9):
        assert count_triangles(paley9) == 6  # nk/6

    def test_self_complementary_census(self, paley9):
        ours = exhaustive_six_census(paley9)
        comp = exhaustive_six_census(complement(paley9))
        assert ours == comp
        assert verify_srg(complement(paley9), SrgParams(9, 4, 1, 2)).passed

    def test_deterministic(self):
        assert build_paley9() == build_paley9()

    def test_matches_gf9_square_differences(self):
        # the rook's-graph rule is the field construction, labelling included
        g = build_paley9()
        assert g == paley9_gf9()
        assert graph6.encode(g) == b"H{S{aSf"


GOLAY_GENERATOR = (2, 0, 1, 2, 1, 1)  # g(x) = 2 + x^2 + 2x^3 + x^4 + x^5


class TestGolayCode:
    def test_generator_divides_x11_minus_1(self):
        # g divides x^11 - 1 iff the code g generates is cyclic.  The parity
        # check ends in I5, so its kernel has dimension 6; the six unwrapped
        # shifts of g are independent, so the code is that kernel, and every
        # cyclic shift of g must lie in it.
        assert [row[6:] for row in GOLAY_PARITY_CHECK] == [
            tuple(int(i == j) for j in range(5)) for i in range(5)
        ]
        word = list(GOLAY_GENERATOR) + [0] * 5
        for _ in range(11):
            for row in GOLAY_PARITY_CHECK:
                assert sum(h * w for h, w in zip(row, word)) % 3 == 0
            word = word[-1:] + word[:-1]

    def test_code_has_minimum_distance_5(self):
        # all 3^6 codewords of the cyclic code generated by shifts of g
        rows = []
        for shift in range(6):
            row = [0] * 11
            for i, c in enumerate(GOLAY_GENERATOR):
                row[shift + i] = c
            rows.append(row)
        seen_weights = set()
        for sel in range(3**6):
            word = [0] * 11
            s = sel
            for r in rows:
                s, digit = divmod(s, 3)
                if digit:
                    for i in range(11):
                        word[i] = (word[i] + digit * r[i]) % 3
            w = sum(1 for x in word if x)
            seen_weights.add(w)
        assert min(seen_weights - {0}) == 5
        assert len(seen_weights) > 1  # nonzero codewords exist

    def test_perturbed_parity_check_fails_the_build(self, monkeypatch):
        bad = [list(row) for row in GOLAY_PARITY_CHECK]
        bad[2][3] = (bad[2][3] + 1) % 3  # one entry of A
        monkeypatch.setattr(constructions, "GOLAY_PARITY_CHECK",
                            tuple(map(tuple, bad)))
        with pytest.raises(AssertionError, match="failed srg\\(243,22,1,2\\)"):
            build_bvls243()


class TestBvls243:
    def test_shape(self, bvls):
        assert bvls.order == 243
        assert bvls.num_edges == 2673
        assert all(bvls.degree(v) == 22 for v in range(243))

    def test_verifies(self, bvls):
        assert verify_srg(bvls, SrgParams(243, 22, 1, 2)).passed

    def test_conditions_everywhere(self, bvls):
        rep1 = check_condition_one(bvls)
        assert rep1.ok and rep1.pairs_checked == 2673
        rep2 = check_condition_two(bvls)
        assert rep2.ok and rep2.pairs_checked == 243 * 242 // 2 - 2673

    def test_triangle_count(self, bvls):
        assert count_triangles(bvls) == 891  # nk/6 = 243*22/6

    def test_deterministic(self, bvls):
        assert build_bvls243() == bvls


class TestFeasibleParameters:
    def test_golden_list_up_to_1000(self):
        ks = [fp.k for fp in feasible_parameters(1000)]
        assert ks == [4, 14, 22, 112, 994]

    def test_spectra(self):
        by_k = {fp.k: fp for fp in feasible_parameters(1000)}
        assert by_k[14].n == 99
        assert (by_k[14].lambda1, by_k[14].lambda2) == (3, -4)
        assert (by_k[14].r1, by_k[14].r2) == (54, 44)
        assert (by_k[22].n, by_k[22].lambda1, by_k[22].lambda2) == (243, 4, -5)
        assert (by_k[22].r1, by_k[22].r2) == (132, 110)

    def test_relations_hold_for_every_entry(self):
        for fp in feasible_parameters(5000):
            check_feasible_relations(fp)  # raises on any violated relation

    @pytest.mark.parametrize("field, value, relation", [
        ("n", 10, "n = (k^2+2)/2"),
        ("lambda1", 2, "lambda1+lambda2 = -1"),
        ("r2", 5, "r1 + r2 = n - 1"),
    ])
    def test_broken_entry_raises(self, field, value, relation):
        fields = dict(k=4, n=9, lambda1=1, lambda2=-2, r1=4, r2=4, known_graph=None)
        check_feasible_relations(FeasibleParams(**fields))
        fields[field] = value
        with pytest.raises(InfeasibleParametersError) as exc:
            check_feasible_relations(FeasibleParams(**fields))
        assert exc.value.failed_relation == relation

    def test_known_graph_tags(self):
        tags = {fp.k: fp.known_graph for fp in feasible_parameters(1000)}
        assert tags[4] == "Paley9"
        assert tags[22] == "BvLS243"
        assert tags[14] is None

    def test_degenerate_flag(self):
        assert feasible_parameters(3) == []
        degen = feasible_parameters(3, include_degenerate=True)
        assert len(degen) == 1 and degen[0].k == 2 and degen[0].known_graph == "K3"

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            feasible_parameters(1)

    def test_infeasible_k8_excluded(self):
        # 4k-7 = 25 is a square but multiplicities are 88/5
        assert 8 not in [fp.k for fp in feasible_parameters(10)]


def test_builders_are_family_members(k3, paley9, bvls):
    for g, params in ((k3, (3, 2)), (paley9, (9, 4)), (bvls, (243, 22))):
        n, k = params
        assert verify_srg(g, SrgParams(n, k, 1, 2)).passed
