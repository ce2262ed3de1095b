"""Acceptance suite: golden values and exact-identity checks, one criterion
per test, each printing its own pass line with wall-clock time.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from math import comb

import pytest

from oracles import (
    brute_edge_triples,
    check_feasible_relations,
    ci_detsum,
    induced_cycle_count,
    quadratic_hexagon_bound,
    random_graph,
    report_entry,
)
from srg12 import identities
from srg12.census import (
    count_hexagons,
    count_pentagons,
    count_pentagons_and_hexagons,
    count_quadrilaterals_by_edges,
    count_triangles,
    cycle_census,
    disjoint_triangle_pair_census,
    edge_triple_census,
    exhaustive_six_census,
    named_type_certificates,
    pentagons_through_edge,
)
from srg12.constructions import feasible_parameters
from srg12.graph import SrgParams, verify_srg
from srg12.identities import (
    hexagon_bound,
    makhnev_condition,
    run_all_checks,
    verify_polynomial_chain,
)
from srg12.spectral import (
    c6_binomial_sum,
    c6_closed_form,
    charpoly_prefix,
    srg_spectrum,
)

C6_TABLE = {
    (9, 4): -168,
    (99, 14): -47_288_703,
    (243, 22): -2_975_686_065,
    (6273, 112): -7_204_770_339_625_320,
    (494019, 994): -2_466_795_174_682_153_663_896_408,
}

BVLS_BOUND = 4_980_690


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _report(num, label, timer, limit=None):
    if limit is not None:
        assert timer.seconds < limit, (
            f"criterion {num} exceeded its {limit}s budget: {timer.seconds:.1f}s"
        )
    print(f"PASS criterion {num} ({timer.seconds:.2f}s): {label}")


@pytest.fixture(scope="module")
def paley_report(paley9):
    return run_all_checks(paley9, source="paley9")


def test_criterion_01_c6_table_reproduction():
    with _Timer() as t:
        for (n, k), want in C6_TABLE.items():
            assert c6_closed_form(n, k) == want
            spec = srg_spectrum(SrgParams(n, k, 1, 2))
            assert c6_binomial_sum(spec) == want
    _report(1, "c6 closed form and binomial sum match all five rows", t, limit=1.0)


def test_criterion_02_spectral_triangle_on_graphs(paley9, bvls):
    with _Timer() as t:
        assert charpoly_prefix(paley9, 6).c6 == -168
        assert ci_detsum(paley9, 6) == -168
    assert t.seconds < 1.0
    with _Timer() as t2:
        assert charpoly_prefix(bvls, 6).c6 == -2_975_686_065
    _report(2, "trace route matches on built graphs, det-sum oracle agrees",
            t2, limit=30.0)


def test_criterion_03_construction_validity(paley9, bvls):
    with _Timer() as t:
        rep9 = verify_srg(paley9, SrgParams(9, 4, 1, 2))
        assert rep9.passed
        rep243 = verify_srg(bvls, SrgParams(243, 22, 1, 2))
        assert rep243.passed
    _report(3, "Paley 9 and BvLS 243 verify with zero violations", t, limit=10.0)


def test_criterion_04_cycle_census(paley9, bvls):
    cc9 = cycle_census(paley9)
    assert (cc9.p3, cc9.p4, cc9.p5, cc9.p6) == (6, 9, 0, 6)
    with _Timer() as t_pent:
        assert count_triangles(bvls) == 891
        assert count_quadrilaterals_by_edges(bvls) == 13_365
        rng = random.Random(2024)
        edges = list(bvls.edges())
        for edge in rng.sample(edges, 25):
            assert pentagons_through_edge(bvls, edge) == 720
    assert t_pent.seconds < 300, f"pentagon census took {t_pent.seconds:.1f}s"
    # one pass of the hexagon kernel counts the pentagons too
    with _Timer() as t_hex:
        assert count_pentagons_and_hexagons(bvls) == (384_912, BVLS_BOUND)
    _report(4, "cycle censuses match formulas on Paley 9 and BvLS 243",
            t_hex, limit=900.0)


def _assert_ledger(report, names):
    for name in names:
        entry = report_entry(report, name)
        assert entry.status == "pass", f"{name}: {entry}"


LEDGER_NAMES = [
    "n2_eq3",
    "pentagon_sides_eq4",
    "triangle_pendant_eq5",
    "opposite_sides_eq6",
    "quad_pairs_eq7",
    "triangle_pairs_eq8",
    "quad_plus_edge_eq9",
    "edge_triples_span4",
    "edge_triples_span5",
    "walk_total",
    "walk_t1_from_quadrilaterals",
    "walk_t2_from_triangles",
    "walk_decomposition",
    "n4_twice_n3",
    "master_identity",
]


# golden values of the family identities at (n, k) = (243, 22)
BVLS_LEDGER_VALUES = {
    "triangle_count": 891,
    "quadrilateral_count": 13_365,
    "pentagon_count": 384_912,
    "pentagons_per_edge": 720,
    "edge_triples_span4": 1_551_231,
    "edge_triples_span5": 146_453_670,
    "walk_total": 4_276_800,
    "walk_t1_from_quadrilaterals": 53_460,
    "walk_t2_from_triangles": 53_460,
    "n2_eq3": 53_460,
    "pentagon_sides_eq4": 1_924_560,
    "triangle_pendant_eq5": 53_460,
    "opposite_sides_eq6": 26_730,
    "quad_pairs_eq7": 507_870,
    "triangle_pairs_eq8": 383_130,
    "quad_plus_edge_eq9": 34_601_985,
    "master_identity": 203_808_231,
    "hexagon_identity": BVLS_BOUND,
    "c6_closed_vs_trace": -2_975_686_065,
}


def test_criterion_05_identity_ledger(paley_report, bvls_report):
    with _Timer() as t:
        _assert_ledger(paley_report, LEDGER_NAMES)
        master = report_entry(paley_report, "master_identity")
        assert master.expected == master.actual == 648
        _assert_ledger(bvls_report, LEDGER_NAMES)
        for name, value in BVLS_LEDGER_VALUES.items():
            entry = report_entry(bvls_report, name)
            assert entry.expected == entry.actual == value, (name, entry)
    _report(5, "every counting identity passes on Paley 9 and BvLS 243", t)


def test_criterion_06_hexagon_theorem(paley_report, bvls_report):
    with _Timer() as t:
        e9 = report_entry(paley_report, "hexagon_identity")
        assert e9.status == "pass" and e9.expected == 6
        e243 = report_entry(bvls_report, "hexagon_identity")
        assert e243.status == "pass" and e243.expected == BVLS_BOUND
        assert report_entry(paley_report, "hexagon_at_least_bound").status == "pass"
        assert report_entry(bvls_report, "hexagon_at_least_bound").status == "pass"
    _report(6, "hexagons minus n3 equals the bound on both graphs", t)


def test_criterion_07_conjecture_observation(paley9, bvls):
    with _Timer() as t:
        assert makhnev_condition(paley9).holds
        bvls_result = makhnev_condition(bvls)
        print(f"  makhnev condition on BvLS 243: n3 = {bvls_result.n3} "
              f"({'holds' if bvls_result.holds else 'fails'})")
        if bvls_result.holds:
            assert count_hexagons(bvls) == BVLS_BOUND
        else:  # consistency is the theorem's identity, not the conjecture
            assert count_hexagons(bvls) - bvls_result.n3 == BVLS_BOUND
    _report(7, "conjecture observation recorded; hexagon count consistent", t)


def test_criterion_08_feasibility_enumeration():
    with _Timer() as t:
        rows = feasible_parameters(1000)
        assert [fp.k for fp in rows] == [4, 14, 22, 112, 994]
        by_k = {fp.k: fp for fp in rows}
        assert (by_k[14].n, by_k[14].lambda1, by_k[14].lambda2) == (99, 3, -4)
        assert (by_k[14].r1, by_k[14].r2) == (54, 44)
        for fp in rows:
            check_feasible_relations(fp)
    _report(8, "feasible k up to 1000 is exactly {4, 14, 22, 112, 994}", t,
            limit=1.0)


def test_criterion_09_oracle_equivalence_suite():
    certs = named_type_certificates()
    rng = random.Random(99)
    with _Timer() as t:
        for trial in range(50):
            g = random_graph(rng, rng.randint(8, 16), rng.random() * 0.55 + 0.15)
            census = exhaustive_six_census(g)
            counts = {cls.certificate: st.count for cls, st in census.items()}

            tp = disjoint_triangle_pair_census(g)
            assert tp.n1 == counts.get(certs["n1"], 0)
            assert tp.n3 == counts.get(certs["n3"], 0)
            assert tp.n5 == counts.get(certs["n5"], 0)
            assert tp.n14 == counts.get(certs["n14"], 0)
            assert count_hexagons(g) == counts.get(certs["n12"], 0)
            assert count_pentagons(g) == induced_cycle_count(g, 5)

            triples = edge_triple_census(g)
            assert triples == brute_edge_triples(g)
            assert triples.e4 + triples.e5 + triples.e6 == comb(g.num_edges, 3)
            cover_sum = sum(
                st.count * st.cover_count for st in census.values()
            )
            assert triples.e6 == cover_sum

            prefix = charpoly_prefix(g, 6)
            assert prefix.c(2) == -g.num_edges
            assert prefix.c(3) == -2 * count_triangles(g)
            det_sum = sum(st.count * st.det for st in census.values())
            assert prefix.c6 == det_sum
    _report(9, "50 random graphs: every census matches its oracle", t,
            limit=120.0)


def test_criterion_10_polynomial_chain(monkeypatch):
    points = list(range(6, 32, 2))
    with _Timer() as t:
        assert verify_polynomial_chain(points).passed
        monkeypatch.setattr(identities, "hexagon_bound", quadratic_hexagon_bound(2, -21, 54))
        mutated = verify_polynomial_chain(points)
        failed_at = {f.k for f in mutated.failures if f.check == "hexagon count chain"}
        assert failed_at == set(points)
    _report(10, "chain passes at 13 points; mutation fails at every point", t,
            limit=1.0)
