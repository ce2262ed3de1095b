import inspect
import json
import random
import re
import sys
from collections import Counter

import pytest

from oracles import (
    double_edge_switched,
    one_apex_per_edge_graph,
    quadratic_hexagon_bound,
    random_graph,
)
from srg12 import census, cli, graph, identities, spectral
from srg12.census import NAMED_TYPE_EDGES
from srg12.errors import CountingInconsistencyError
from srg12.graph import Graph, SrgParams, check_condition_one, check_condition_two
from srg12.identities import (
    ChainFailure,
    expected_e4,
    expected_e5,
    expected_p3,
    expected_p4,
    expected_p5,
    hexagon_bound,
    jsonable,
    makhnev_condition,
    run_all_checks,
    verify_polynomial_chain,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestClosedForms:
    def test_paley_values(self):
        assert expected_p3(9, 4) == 6
        assert expected_p4(9, 4) == 9
        assert expected_p5(9, 4) == 0
        assert expected_e4(9, 4) == 186
        assert expected_e5(9, 4) == 450

    def test_bvls_values(self):
        assert expected_p3(243, 22) == 891
        assert expected_p4(243, 22) == 13_365
        assert expected_p5(243, 22) == 384_912
        assert expected_e4(243, 22) == 1_551_231
        assert expected_e5(243, 22) == 146_453_670


class TestHexagonBound:
    def test_goldens(self):
        assert hexagon_bound(9, 4) == 6
        assert hexagon_bound(99, 14) == 209_286
        assert hexagon_bound(243, 22) == 4_980_690

    def test_rejects_non_family_order(self):
        with pytest.raises(ValueError):
            hexagon_bound(10, 4)


class TestMakhnev:
    def test_paley_holds(self, paley9):
        result = makhnev_condition(paley9)
        assert result.holds and result.n3 == 0 and result.witness is None

    def test_handbuilt_type3_graph_fails_with_witness(self):
        g = Graph.from_edges(6, NAMED_TYPE_EDGES["n3"])
        result = makhnev_condition(g)
        assert not result.holds
        assert result.n3 == 1
        tri1, tri2, edges = result.witness
        assert len(edges) == 2
        # the two connecting edges are non-incident
        (a, b), (c, d) = edges
        assert len({a, b, c, d}) == 4


@pytest.fixture(scope="module")
def report(paley9):
    return run_all_checks(paley9, source="paley9")


class TestLedgerPaley:
    def test_all_entries_pass(self, report):
        assert report.passed
        assert all(e.status != "fail" for e in report.entries)
        # a family graph skips nothing
        assert all(e.status != "skip" for e in report.entries)

    def test_master_identity_sides(self, report):
        e = report.entry("master_identity")
        assert e.expected == e.actual == 648

    def test_hexagon_identity(self, report):
        e = report.entry("hexagon_identity")
        assert e.expected == e.actual == 6

    def test_conjecture_entries_informational(self, report):
        assert report.entry("makhnev_condition").status == "info"
        assert report.entry("hexagons_equal_bound").status == "info"

    def test_json_schema(self, report):
        payload = report.to_json_dict()
        assert set(payload) == {"graph_meta", "entries"}
        assert payload["graph_meta"]["n"] == 9
        assert payload["graph_meta"]["k"] == 4
        for entry in payload["entries"]:
            assert {"name", "paper_location", "expected", "actual", "pass"} <= set(
                entry
            )
        json.dumps(payload)  # serializable


class TestLedgerK3:
    def test_k3_passes_with_c6_skipped(self, k3):
        report = run_all_checks(k3, source="k3")
        assert report.passed
        assert report.entry("triangle_count").actual == 1
        # c6 does not exist below 6 vertices
        assert report.entry("c6_closed_vs_trace").status == "skip"
        assert report.entry("master_identity").status == "skip"
        assert report.entry("hexagon_identity").status == "pass"


# every ledger stage, in the order run_all_checks runs it on a family graph;
# the pentagon census reads p5 off the hexagon census, so it runs after it
LEDGER_STAGES = [
    "triangle_pair_census", "quad_plus_edge_census", "hexagon_census",
    "pentagon_side_census", "coded_walk_census", "edge_triple_census",
    "quad_pair_census", "triangle_completion_census", "charpoly_prefix",
    "c6_closed_form", "c6_binomial_sum", "hexagon_bound",
]


class TestLedgerProgress:
    def test_each_stage_named_once_in_run_order(self, paley9):
        names = []
        run_all_checks(paley9, progress=names.append)
        assert names == LEDGER_STAGES

    def test_small_graph_runs_no_c6_stage(self, k3):
        names = []
        run_all_checks(k3, progress=names.append)
        assert names == [s for s in LEDGER_STAGES if not s.startswith("c6_")]


class TestLedgerTamperedCandidate:
    def test_tampered_bvls_fails_cleanly(self, bvls):
        # remove one edge, add a non-edge: a wrong srg(243,22,1,2) candidate
        rows = [r for r in bvls.rows]
        u, v = next(bvls.edges())
        w = next(
            x for x in range(243) if x not in (u, v) and not bvls.has_edge(u, x)
        )
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        rows[u] |= 1 << w
        rows[w] |= 1 << u
        candidate = Graph(243, tuple(rows))
        report = run_all_checks(candidate, source="tampered")
        assert not report.passed
        assert any(e.status == "fail" for e in report.entries)
        assert any(e.status == "skip" for e in report.entries)


class TestLedgerNonFamily:
    def test_c4_mostly_skipped(self):
        report = run_all_checks(cycle(4), source="c4")
        by_status = {}
        for e in report.entries:
            by_status.setdefault(e.status, []).append(e.name)
        # condition I fails on C4, condition II passes
        assert "condition_one_edge_triangles" in by_status["fail"]
        assert "condition_two_nonedge_quadrilaterals" in by_status["pass"]
        assert by_status.get("skip")
        assert not report.passed

    def test_failing_graph_never_raises(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        report = run_all_checks(g)
        assert not report.passed


WITNESS = re.compile(r"^(non-edge|edge) \((\d+), (\d+)\) has (\d+) common neighbours$")


class TestLedgerMutations:
    """Seeded degree-preserving double-edge switches of family members fail
    the ledger, and a condition entry names a pair that really breaks
    condition I or II."""

    @pytest.mark.parametrize("name, seeds", [("paley9", range(12)), ("bvls", range(3))])
    def test_switched_family_graph_fails_with_true_witness(self, request, name, seeds):
        base = request.getfixturevalue(name)
        for seed in seeds:
            rng = random.Random(seed)
            g = double_edge_switched(base, rng, 1 + seed % 3)
            report = run_all_checks(g, source=f"{name}-switched-{seed}")
            assert not report.passed
            named = 0
            for entry in report.entries:
                if entry.status != "fail" or not entry.name.startswith("condition_"):
                    continue
                kind, u, v, common = WITNESS.match(entry.detail).groups()
                u, v, common = int(u), int(v), int(common)
                adjacent = g.has_edge(u, v)
                assert adjacent == (kind == "edge")
                assert adjacent == (entry.name == "condition_one_edge_triangles")
                assert g.common_neighbors(u, v) == common != (1 if adjacent else 2)
                named += 1
            assert named


# every census and spectral stage run_all_checks calls, and the fail entry a
# raise in it leaves in the report
STAGE_FAIL_ENTRY = {
    "cn.pentagon_triangle_census": "pentagon_side_census",
    "cn.coded_walk_census": "coded_walk_census",
    "cn.edge_triple_census": "edge_triple_census",
    "cn.disjoint_triangle_pair_census": "triangle_pair_census",
    "cn.quad_pair_census": "quad_pair_census",
    "cn.triangle_edge_completion_census": "triangle_completion_census",
    "cn.quad_plus_edge_census": "quad_plus_edge_census",
    "cn.count_pentagons_and_hexagons": "hexagon_census",
    "sp.charpoly_prefix": "charpoly_prefix",
    "sp.c6_closed_form": "c6_closed_form",
    "sp.srg_spectrum": "c6_binomial_sum",
    "sp.c6_binomial_sum": "c6_binomial_sum",
}


def inject_fault(monkeypatch, stage):
    prefix, name = stage.split(".")
    message = f"injected fault in {name}"

    def fail(*args, **kwargs):
        raise CountingInconsistencyError(message)

    modules = {"cn": census, "sp": spectral, "identities": identities}
    monkeypatch.setattr(modules[prefix], name, fail)
    return message


# the stages each family entry reads, in the order its skip names them; a
# stage entry (the pentagon census, which reads p5 off the hexagon census)
# fails with that text instead, without running
ENTRY_NEEDS = {
    "pentagon_side_census": "hexagon_census",
    "triangle_count": "triangle_pair_census",
    "quadrilateral_count": "quad_plus_edge_census",
    "pentagon_count": "pentagon_side_census",
    "walk_total": "coded_walk_census",
    "walk_t1_from_quadrilaterals": "coded_walk_census",
    "walk_t2_from_triangles": "coded_walk_census",
    "walk_decomposition": "coded_walk_census, pentagon_side_census",
    "edge_triples_span4": "edge_triple_census",
    "edge_triples_span5": "edge_triple_census",
    "edge_triples_partition": "edge_triple_census",
    "triangle_pairs_eq8": "triangle_pair_census",
    "quad_pairs_eq7": "quad_pair_census",
    "n2_eq3": "quad_plus_edge_census",
    "pentagon_sides_eq4": "pentagon_side_census",
    "triangle_pendant_eq5": "triangle_pair_census, quad_pair_census",
    "opposite_sides_eq6": "triangle_pair_census, quad_pair_census",
    "prism_route_agreement": "triangle_pair_census, quad_pair_census",
    "n4_twice_n3": "triangle_pair_census, quad_pair_census",
    "n4_route_agreement": "pentagon_side_census, quad_pair_census",
    "triangle_completion_eq5": "triangle_completion_census",
    "completion_prism_agreement": "triangle_completion_census, triangle_pair_census",
    "completion_n4_agreement": "triangle_completion_census, quad_pair_census",
    "quad_plus_edge_eq9": "quad_plus_edge_census",
    "qpe_prism_incidences": "quad_plus_edge_census, triangle_pair_census",
    "qpe_n4_incidences": "quad_plus_edge_census, quad_pair_census",
    "qpe_n9_incidences": "quad_plus_edge_census, quad_pair_census",
    "charpoly_c2_is_minus_edges": "charpoly_prefix",
    "charpoly_c3_is_minus_two_triangles": "charpoly_prefix, triangle_pair_census",
    "c6_closed_vs_trace": "c6_closed_form, charpoly_prefix",
    "c6_binomial_vs_trace": "c6_binomial_sum, charpoly_prefix",
    "master_identity": "charpoly_prefix, triangle_pair_census, quad_pair_census, "
                       "pentagon_side_census, quad_plus_edge_census, "
                       "edge_triple_census, hexagon_census",
    "hexagon_identity": "hexagon_bound, hexagon_census, triangle_pair_census",
    "hexagon_at_least_bound": "hexagon_bound, hexagon_census",
    "makhnev_condition": "triangle_pair_census",
    "hexagons_equal_bound": "hexagon_bound, hexagon_census",
}


def failures(faults):
    """(status, detail) of every entry that fails or skips when the stages
    in ``faults`` (stage -> error text) raise, read off ``ENTRY_NEEDS``; the
    per-edge entry fails with the pentagon census's text."""
    out = {name: ("fail", detail) for name, detail in faults.items()}
    for name, needs in ENTRY_NEEDS.items():
        unmet = [s for s in needs.split(", ") if s in out]
        if unmet:
            status = "fail" if name in LEDGER_STAGES else "skip"
            out[name] = (status, f"needs {', '.join(unmet)}, which failed")
    if "pentagon_side_census" in out:
        out["pentagons_per_edge"] = ("fail", out["pentagon_side_census"][1])
    return out


def not_passed(report):
    return {e.name: (e.status, e.detail) for e in report.entries
            if e.status in ("fail", "skip")}


class TestLedgerFaultInjection:
    def test_table_lists_every_stage_called(self):
        source = inspect.getsource(run_all_checks)
        modules = {"cn": census, "sp": spectral}
        called = {
            f"{prefix}.{name}"
            for prefix, name in re.findall(r"\b(cn|sp)\.(\w+)", source)
            if inspect.isfunction(getattr(modules[prefix], name))
        }
        assert called == set(STAGE_FAIL_ENTRY)

    @pytest.mark.parametrize("stage", sorted(STAGE_FAIL_ENTRY))
    def test_single_stage_fault_becomes_fail_entry(self, monkeypatch, paley9, stage):
        message = inject_fault(monkeypatch, stage)
        report = run_all_checks(paley9)
        assert not report.passed
        failed = STAGE_FAIL_ENTRY[stage]
        entry = report.entry(failed)
        assert (entry.status, entry.detail) == ("fail", message)
        # nothing else fails but the stages and the per-edge entry that read
        # it, and what needed it skips naming it
        assert not_passed(report) == failures({failed: message})
        json.dumps(report.to_json_dict())

    def test_every_stage_failing_at_once(self, monkeypatch, paley9):
        messages = {inject_fault(monkeypatch, stage)
                    for stage in [*STAGE_FAIL_ENTRY, "identities.hexagon_bound"]}
        names = []
        report = run_all_checks(paley9, progress=names.append)
        assert names == LEDGER_STAGES  # a failed stage still reports progress
        # every stage that runs fails with its fault; the pentagon census
        # does not run without p5
        ran = {*STAGE_FAIL_ENTRY.values(), "hexagon_bound"} - {"pentagon_side_census"}
        for name in ran:
            entry = report.entry(name)
            assert entry.status == "fail" and entry.detail in messages
        # every skip names each failed stage its entry reads, in order; the
        # pentagon census and the per-edge entry fail naming the hexagon
        # census, and nothing passes but the entries read off the
        # verification scan
        assert not_passed(report) == failures(
            {name: report.entry(name).detail for name in ran})
        assert {e.name for e in report.entries if e.status == "pass"} == {
            "condition_one_edge_triangles", "condition_two_nonedge_quadrilaterals",
            "regularity", "order_relation"}
        json.dumps(report.to_json_dict())

    def test_pentagon_fault_fails_per_edge_entry(self, monkeypatch, paley9):
        message = inject_fault(monkeypatch, "cn.pentagon_triangle_census")
        entry = run_all_checks(paley9).entry("pentagons_per_edge")
        assert (entry.status, entry.expected, entry.actual) == ("fail", 0, None)
        assert entry.detail == message

    def test_hexagon_fault_fails_the_pentagon_census_unrun(self, monkeypatch, paley9):
        # the pentagon census takes p5 from the hexagon census, so it fails
        # naming it, and the per-edge entry fails with that text
        calls = []
        monkeypatch.setattr(census, "pentagon_triangle_census",
                            lambda *args: calls.append(args))
        message = inject_fault(monkeypatch, "cn.count_pentagons_and_hexagons")
        report = run_all_checks(paley9)
        assert calls == []
        assert report.entry("hexagon_census").detail == message
        for name in ("pentagon_side_census", "pentagons_per_edge"):
            entry = report.entry(name)
            assert (entry.status, entry.detail) == (
                "fail", "needs hexagon_census, which failed")

    def test_per_edge_mismatch_names_first_edge(self, monkeypatch, paley9):
        real = census.pentagon_triangle_census

        def miscounted(g, p5):
            pt = real(g, p5)
            per_edge = list(pt.per_edge)
            per_edge[3] = per_edge[5] = 1
            return pt._replace(per_edge=tuple(per_edge))

        monkeypatch.setattr(census, "pentagon_triangle_census", miscounted)
        entry = run_all_checks(paley9).entry("pentagons_per_edge")
        edge = list(paley9.edges())[3]
        assert (entry.status, entry.expected, entry.actual) == ("fail", 0, 1)
        assert entry.detail == f"edge {edge}"

    def test_makhnev_fault_on_non_family_graph(self, monkeypatch):
        message = inject_fault(monkeypatch, "cn.disjoint_triangle_pair_census")
        report = run_all_checks(cycle(4))
        assert report.entry("triangle_pair_census").detail == message
        assert report.entry("makhnev_condition").status == "skip"


class TestEdgeTriplePartition:
    @pytest.mark.parametrize("kernel", ["_count_span4_triples", "_count_span5_triples",
                                        "_count_span6_triples"])
    def test_one_span_off_fails_the_partition(self, monkeypatch, paley9, kernel):
        # each span has its own route, so a fault in any one of them breaks
        # e4 + e5 + e6 = C(m, 3)
        real = getattr(census, kernel)
        monkeypatch.setattr(census, kernel, lambda g: real(g) + 1)
        report = run_all_checks(paley9)
        entry = report.entry("edge_triples_partition")
        assert (entry.status, entry.expected, entry.actual) == ("fail", 1, 0)


class TestMergedQuadrilateralPass:
    def test_kernel_fault_fails_the_stage_and_skips_n2(self, monkeypatch, paley9):
        message = "injected fault in the quadrilateral pass"

        def fail(*args):
            raise CountingInconsistencyError(message)

        monkeypatch.setattr(census, "_qpe_scan", fail)
        report = run_all_checks(paley9)
        entry = report.entry("quad_plus_edge_census")
        assert (entry.status, entry.detail) == ("fail", message)
        for name in ("quadrilateral_count", "n2_eq3", "quad_plus_edge_eq9",
                     "qpe_n9_incidences", "master_identity"):
            entry = report.entry(name)
            assert (entry.status, entry.detail) == (
                "skip", "needs quad_plus_edge_census, which failed")

    @pytest.mark.parametrize("name", ["paley9", "bvls"])
    def test_extra_quadrilateral_fails_its_restating_entries(
        self, monkeypatch, request, name
    ):
        # n2 = 4 p4 and the quad-plus-edge total = p4 (m - 4k + 4) are read
        # off the quadrilateral count, so n2_eq3 and quad_plus_edge_eq9
        # restate quadrilateral_count and fail exactly with it
        real = census._qpe_scan

        def one_more(*args):
            prism_inc, n4_inc, n9_inc, quads = real(*args)
            return prism_inc, n4_inc, n9_inc, quads + 1

        monkeypatch.setattr(census, "_qpe_scan", one_more)
        report = run_all_checks(request.getfixturevalue(name))
        assert {e.name for e in report.entries if e.status == "fail"} == {
            "quadrilateral_count", "n2_eq3", "quad_plus_edge_eq9", "master_identity"}


class TestEnumerationBudget:
    def test_ledger_lists_each_structure_once(self, monkeypatch, paley9):
        calls = {"_quad_list": 0, "iter_triangles": 0}

        def counted(name):
            real = getattr(census, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(census, name, counted(name))
        assert run_all_checks(paley9).passed
        # the quad-plus-edge pass lists the quadrilaterals; the triangle-pair
        # and completion censuses list the triangles
        assert calls["_quad_list"] == 1
        assert calls["iter_triangles"] <= 2

    def test_ledger_classifies_no_quadrilateral_pair_one_by_one(self, monkeypatch, paley9):
        # in a family graph no two quadrilaterals through an edge share a
        # vertex, so the pair-by-pair error path never runs
        calls = []
        real = census._quad_pairs_at_edge
        monkeypatch.setattr(census, "_quad_pairs_at_edge",
                            lambda *args: calls.append(args) or real(*args))
        assert run_all_checks(paley9).passed
        assert calls == []

    def test_ledger_names_no_walk_one_by_one(self, monkeypatch, paley9):
        # in a family graph no coded walk has two chords, so the walk-by-walk
        # error path never runs
        calls = []
        real = census._first_bad_walk
        monkeypatch.setattr(census, "_first_bad_walk",
                            lambda *args: calls.append(args) or real(*args))
        assert run_all_checks(paley9).passed
        assert calls == []

    def test_ledger_walks_the_canonical_pentagons_once(self, paley9):
        # one pentagon and hexagon pass, one kernel call per start, gives p5
        # and p6; besides it only the per-edge route of the pentagon census
        # counts pentagons, and no pentagon DFS runs
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__") == "srg12.census":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            assert run_all_checks(paley9).passed
        finally:
            sys.setprofile(None)
        assert calls["count_pentagons_and_hexagons"] == 1
        assert calls["_hexagon_scan"] == paley9.order
        assert {name for name in calls if "pentagon" in name} == {
            "count_pentagons_and_hexagons", "pentagon_triangle_census",
            "_pentagon_edge_scan"}


class TestRouteAgreements:
    def test_type_census_and_ledger_read_one_table(self, monkeypatch, paley9):
        real = census.quad_pair_census

        def more_n9(g):
            qp = real(g)
            return qp._replace(n9=qp.n9 + 1)

        monkeypatch.setattr(census, "quad_pair_census", more_n9)
        with pytest.raises(CountingInconsistencyError,
                           match="qpe_n9_incidences: expected 2, counted 0"):
            census.type_census(paley9)
        entry = run_all_checks(paley9).entry("qpe_n9_incidences")
        assert (entry.status, entry.expected, entry.actual) == ("fail", 2, 0)

    def test_every_agreement_is_a_ledger_entry(self, report):
        for name in census.ROUTE_AGREEMENTS:
            assert report.entry(name).status == "pass"


def counting(monkeypatch, names):
    """Replace each of ``names`` in the modules that hold it by a wrapper
    that counts its calls, as perfbench's tracer does; the counts by name."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(graph, name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (graph, census, identities, cli):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    return calls


class TestVerifyOnce:
    def test_ledger_makes_one_verification_scan(self, monkeypatch, bvls):
        calls = counting(monkeypatch, ["verify_srg", "check_condition_one",
                                       "check_condition_two"])
        assert run_all_checks(bvls).passed
        assert calls == {"verify_srg": 1, "check_condition_one": 0,
                         "check_condition_two": 0}

    def test_family_value_is_not_verified_again(self, monkeypatch, paley9):
        fam = census.require_family(paley9)
        calls = counting(monkeypatch, ["verify_srg"])
        assert census.require_family(fam) is fam
        assert census.type_census(fam) == census.type_census(paley9)
        assert calls == {"verify_srg": 1}  # the plain graph alone


class TestConditionWitnesses:
    """The ledger's condition entries take the first lambda and mu
    witnesses of ``verify_srg``; they must be the pairs that
    ``check_condition_one`` and ``check_condition_two`` name."""

    @staticmethod
    def assert_same_witnesses(g):
        n = g.order
        srg = graph.verify_srg(g, SrgParams(max(n, 1), g.degree(0) if n else 0, 1, 2))
        one, two = check_condition_one(g), check_condition_two(g)
        assert (srg.lambda_ok, srg.lambda_witness) == (one.ok, one.violation)
        assert (srg.mu_ok, srg.mu_witness) == (two.ok, two.violation)
        return one.ok, two.ok

    def test_seeded_graphs_up_to_30_vertices(self):
        rng = random.Random(30)
        graphs = [random_graph(rng, rng.randint(1, 30), rng.random()) for _ in range(150)]
        graphs += [one_apex_per_edge_graph(rng, rng.randint(6, 30)) for _ in range(30)]
        graphs += [cycle(4), cycle(5), Graph.from_edges(5, [(i, j) for i in range(5)
                                                            for j in range(i + 1, 5)])]
        outcomes = {self.assert_same_witnesses(g) for g in graphs}
        assert outcomes == {(False, False), (True, False), (False, True), (True, True)}

    @pytest.mark.parametrize("name, seeds", [("paley9", range(12)), ("bvls", range(3))])
    def test_switched_family_graphs(self, request, name, seeds):
        base = request.getfixturevalue(name)
        assert self.assert_same_witnesses(base) == (True, True)
        for seed in seeds:
            g = double_edge_switched(base, random.Random(seed), 1 + seed % 3)
            assert self.assert_same_witnesses(g) == (False, False)

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_zero_and_one_keep_both_condition_entries(self, order):
        g = Graph(order, (0,) * order)
        self.assert_same_witnesses(g)
        report = run_all_checks(g)
        for name in ("condition_one_edge_triangles",
                     "condition_two_nonedge_quadrilaterals"):
            assert report.entry(name).status == "pass"


class TestPolynomialChain:
    POINTS = list(range(6, 32, 2))

    def test_chain_passes(self):
        report = verify_polynomial_chain(self.POINTS)
        assert report.passed
        assert len(report.points) == 13

    def test_point_validation(self):
        with pytest.raises(ValueError):
            verify_polynomial_chain(self.POINTS[:-1])  # 12 points
        with pytest.raises(ValueError):
            verify_polynomial_chain(self.POINTS[:-1] + [7])  # odd point
        with pytest.raises(ValueError):
            verify_polynomial_chain(self.POINTS[:-1] + [4])  # below 6

    def test_mutation_fails_everywhere(self, monkeypatch):
        monkeypatch.setattr(identities, "hexagon_bound", quadratic_hexagon_bound(2, -21, 53))
        assert verify_polynomial_chain(self.POINTS).passed
        monkeypatch.setattr(identities, "hexagon_bound", quadratic_hexagon_bound(2, -21, 54))
        report = verify_polynomial_chain(self.POINTS)
        failed_points = {
            f.k for f in report.failures if f.check == "hexagon count chain"
        }
        assert failed_points == set(self.POINTS)

    def test_mutation_reports_divergent_expression(self, monkeypatch):
        monkeypatch.setattr(identities, "hexagon_bound", quadratic_hexagon_bound(2, -20, 53))
        report = verify_polynomial_chain(self.POINTS)
        assert not report.passed
        assert all(isinstance(f, ChainFailure) for f in report.failures)


class TestJsonable:
    def test_small_ints_unchanged(self):
        assert jsonable(42) == 42
        assert jsonable(-(2**63) + 1) == -(2**63) + 1

    def test_big_ints_become_strings(self):
        big = -2_466_795_174_682_153_663_896_408
        assert jsonable(big) == str(big)
        assert jsonable(2**63) == str(2**63)

    def test_bools_and_none_pass_through(self):
        assert jsonable(True) is True
        assert jsonable(None) is None
