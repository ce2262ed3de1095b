import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import srg12
from oracles import random_graph
from srg12.census import count_triangles
from srg12.errors import InfeasibleParametersError, SizeLimitError
from srg12.graph import Graph, SrgParams
from srg12.spectral import (
    Spectrum,
    adjacency_traces,
    c6_binomial_sum,
    c6_closed_form,
    charpoly_prefix,
    ci_detsum,
    srg_spectrum,
)

# the five feasible parameter sets and their exact c6 values
C6_TABLE = {
    (9, 4): -168,
    (99, 14): -47_288_703,
    (243, 22): -2_975_686_065,
    (6273, 112): -7_204_770_339_625_320,
    (494019, 994): -2_466_795_174_682_153_663_896_408,
}


class TestSpectrum:
    def test_paley_spectrum(self):
        s = srg_spectrum(SrgParams(9, 4, 1, 2))
        assert (s.lambda1, s.lambda2, s.r1, s.r2) == (1, -2, 4, 4)

    def test_conway_spectrum(self):
        s = srg_spectrum(SrgParams(99, 14, 1, 2))
        assert (s.lambda1, s.lambda2, s.r1, s.r2) == (3, -4, 54, 44)

    def test_infeasible_multiplicities(self):
        with pytest.raises(InfeasibleParametersError) as exc:
            srg_spectrum(SrgParams(33, 8, 1, 2))
        assert exc.value.failed_relation is not None

    def test_infeasible_discriminant(self):
        with pytest.raises(InfeasibleParametersError):
            srg_spectrum(SrgParams(19, 6, 1, 2))  # 4k-7 = 17 not a square

    @pytest.mark.parametrize("k", [0, 1])
    def test_valency_below_two_is_infeasible(self, k):
        # 4k-7 < 0 has no square root; the relation is named, not a bare
        # ValueError from isqrt
        with pytest.raises(InfeasibleParametersError) as exc:
            srg_spectrum(SrgParams(3, k, 1, 2))
        assert exc.value.failed_relation == "4k-7 square"


class TestC6Table:
    def test_closed_form(self):
        for (n, k), want in C6_TABLE.items():
            assert c6_closed_form(n, k) == want

    def test_binomial_sum(self):
        for (n, k), want in C6_TABLE.items():
            spec = srg_spectrum(SrgParams(n, k, 1, 2))
            assert c6_binomial_sum(spec) == want

    def test_closed_form_rejects_non_family_order(self):
        with pytest.raises(ValueError):
            c6_closed_form(100, 14)


class TestCharpolyPrefix:
    def test_paley9(self, paley9):
        pre = charpoly_prefix(paley9, 6)
        assert pre.c(0) == 1
        assert pre.c(1) == 0
        assert pre.c(2) == -18
        assert pre.c(3) == -12
        assert pre.c6 == -168

    def test_bvls(self, bvls):
        pre = charpoly_prefix(bvls, 6)
        assert pre.c(2) == -2673
        assert pre.c6 == -2_975_686_065

    def test_c6_cycle(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        pre = charpoly_prefix(c6, 2)
        assert pre.c(2) == -6

    def test_c1_c2_c3_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_graph(rng, rng.randint(3, 40), rng.random() * 0.6 + 0.2)
            pre = charpoly_prefix(g, 3)
            assert pre.c(1) == 0
            assert pre.c(2) == -g.num_edges
            assert pre.c(3) == -2 * count_triangles(g)

    def test_trace_limit(self, paley9):
        with pytest.raises(SizeLimitError):
            adjacency_traces(paley9, 7)


class TestDetSumOracle:
    def test_k3_c3(self, k3):
        assert ci_detsum(k3, 3) == -2

    def test_paley9_c6(self, paley9):
        assert ci_detsum(paley9, 6) == -168

    def test_c2_is_minus_edges_on_5_vertex_graphs(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_graph(rng, 5, 0.5)
            assert ci_detsum(g, 2) == -g.num_edges

    def test_agrees_with_newton_route(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 10), rng.random())
            pre = charpoly_prefix(g, 6)
            for i in range(2, min(6, g.order) + 1):
                assert ci_detsum(g, i) == pre.c(i)

    def test_size_guard(self):
        rng = random.Random(0)
        with pytest.raises(SizeLimitError):
            ci_detsum(random_graph(rng, 11, 0.5), 6)


def test_spectrum_relations_checked():
    s = Spectrum(4, 1, -2, 4, 4)
    s.check_relations()
    with pytest.raises(InfeasibleParametersError) as exc:
        Spectrum(4, 1, -2, 5, 4).check_relations()
    assert exc.value.failed_relation == "k + r1*lambda1 + r2*lambda2 = 0"
    with pytest.raises(InfeasibleParametersError) as exc:
        Spectrum(4, 1, -3, 4, 4).check_relations()
    assert exc.value.failed_relation == "lambda1+lambda2 = -1"


def test_spectrum_relations_checked_under_optimize():
    # python -O strips assert statements; the relation check must survive
    src = Path(srg12.__file__).resolve().parents[1]
    code = (
        "from srg12.errors import InfeasibleParametersError\n"
        "from srg12.spectral import Spectrum\n"
        "try:\n"
        "    Spectrum(4, 1, -2, 5, 4).check_relations()\n"
        "except InfeasibleParametersError as exc:\n"
        "    print(exc.failed_relation)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "k + r1*lambda1 + r2*lambda2 = 0"
