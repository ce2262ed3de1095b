import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import srg12
from oracles import ci_detsum, random_graph
from srg12 import spectral
from srg12.census import count_triangles
from srg12.constructions import build_paley9
from srg12.errors import CountingInconsistencyError, InfeasibleParametersError, SizeLimitError
from srg12.graph import Graph, SrgParams
from srg12.spectral import (
    Spectrum,
    adjacency_traces,
    c6_binomial_sum,
    c6_closed_form,
    charpoly_prefix,
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


    @pytest.mark.parametrize("params", [SrgParams(9, 4, 0, 2), SrgParams(9, 4, 1, 1)])
    def test_outside_the_family_is_refused(self, params):
        # the solver assumes lambda = 1, mu = 2; it must not return the
        # family spectrum for other parameters
        with pytest.raises(InfeasibleParametersError) as exc:
            srg_spectrum(params)
        assert exc.value.failed_relation == "lambda = 1, mu = 2"


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

    def test_traces_match_matrix_powers(self):
        rng = random.Random(61)
        for n in range(13):
            for _ in range(3):
                g = random_graph(rng, n, rng.random())
                adj = [[g.rows[u] >> v & 1 for v in range(n)] for u in range(n)]
                power, traces = adj, []
                for _ in range(6):
                    traces.append(sum(power[i][i] for i in range(n)))
                    power = [[sum(a * adj[x][j] for x, a in enumerate(row))
                              for j in range(n)] for row in power]
                for m in range(7):
                    assert adjacency_traces(g, m) == tuple(traces[:m])


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


# one row per raise of spectral.py: the call (given a MonkeyPatch), its
# error type and message, and the command that reaches it, with its exit
# code and last stderr line, where a command does.  Commands build
# family parameters, so no command reaches the lambda/mu guard, and they
# ask for 6 traces at most.  Five guards take no real input:
# - check_relations: srg_spectrum builds lambda1,2 = (-1 +- s)/2 with
#   s^2 = 4k - 7 and r1 = (-k - (n-1) lambda2)/s, r2 = n - 1 - r1, which
#   satisfy the three relations identically, so only a Spectrum built by
#   hand fails them;
# - the negative multiplicity: for 2 <= k < n, s >= 1 gives
#   s r1 = (n-1)(s+1)/2 - k >= k(s-1)/2 >= 0 and
#   s r2 = (n-1)(s-1)/2 + k > 0, so only parameters SrgParams refuses
#   (here n = 0) reach it;
# - the 576 division: 2n = k^2 + 2 forces k even, and for k = 2j the
#   numerator is an integer polynomial in j divisible by 576 for every
#   residue of j mod 576 (test_c6_numerator_divisible_for_every_even_k),
#   so only a non-integral order reaches it;
# - the Newton step: the traces of an integer matrix give the integer
#   coefficients of its characteristic polynomial, so each division is
#   exact, and only traces patched in reach it.
def newton_on_patched_traces(mp):
    # tr A = 0 and tr A^2 = 1: no integer symmetric matrix has these traces
    mp.setattr(spectral, "adjacency_traces", lambda g, m: (0, 1, 0, 0, 0, 0))
    return charpoly_prefix(build_paley9(), 6)


SPECTRAL_RAISES = [
    (lambda mp: Spectrum(4, 1, -2, 5, 4).check_relations(), InfeasibleParametersError,
     "spectrum Spectrum(k=4, lambda1=1, lambda2=-2, r1=5, r2=4) violates "
     "k + r1*lambda1 + r2*lambda2 = 0"),
    (lambda mp: srg_spectrum(SrgParams(9, 4, 0, 2)), InfeasibleParametersError,
     "spectrum solved only for lambda = 1, mu = 2, got SrgParams(n=9, k=4, lam=0, mu=2)"),
    (lambda mp: srg_spectrum(SrgParams(19, 6)), InfeasibleParametersError,
     "4k-7 = 17 is not a perfect square",
     ("spectral --method sum --params 19,6", 2, "error: 4k-7 = 17 is not a perfect square")),
    (lambda mp: srg_spectrum(SrgParams(33, 8)), InfeasibleParametersError,
     "multiplicity r1 = 88/5 is not an integer",
     ("spectral --method sum --params 33,8", 2,
      "error: multiplicity r1 = 88/5 is not an integer")),
    (lambda mp: srg_spectrum(SimpleNamespace(is_family=True, n=0, k=4)),
     InfeasibleParametersError, "negative multiplicity (r1=-2, r2=1)"),
    (lambda mp: c6_closed_form(100, 14), ValueError, "(n=100, k=14) violates n = (k^2+2)/2",
     ("spectral --params 100,14", 2, "error: (n=100, k=14) violates n = (k^2+2)/2")),
    (lambda mp: c6_closed_form(Fraction(11, 2), 3), ValueError,
     "c6 closed form not divisible by 576 at (n=11/2, k=3)"),
    (lambda mp: charpoly_prefix(build_paley9(), 7), SizeLimitError,
     "traces implemented up to m = 6"),
    (lambda mp: newton_on_patched_traces(mp), CountingInconsistencyError,
     "Newton recurrence not integral at step 2: -1 / 2"),
]
SPECTRAL_IDS = ["relations", "lambda-mu", "discriminant", "r1-integral", "negative-r",
                "family-order", "c6-576", "trace-limit", "newton-step"]


def test_c6_numerator_divisible_for_every_even_k():
    # the numerator is n k (k-2) poly(k) with n = (k^2+2)/2; for k = 2j
    # it is an integer polynomial in j, so its residue mod 576 depends
    # on j mod 576 only
    for j in range(576):
        k = 2 * j
        poly = 3 * k**5 + 6 * k**4 - 84 * k**3 + 116 * k**2 + 124 * k - 240
        assert (k * k + 2) // 2 * k * (k - 2) * poly % 576 == 0
