import inspect
import json
import random
import re
import sys
from collections import Counter

import pytest

from oracles import (
    double_edge_switched,
    quadratic_hexagon_bound,
    report_entry,
)
from srg12 import census, cli, graph, identities, spectral
from srg12.census import NAMED_TYPE_EDGES
from srg12.constructions import build_paley9
from srg12.errors import CountingInconsistencyError
from srg12.graph import Graph
from srg12.identities import (
    ChainFailure,
    expected_e4,
    expected_e5,
    expected_n2,
    expected_p3,
    expected_p4,
    expected_p5,
    expected_quad_plus_edge,
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
        e = report_entry(report, "master_identity")
        assert e.expected == e.actual == 648

    def test_hexagon_identity(self, report):
        e = report_entry(report, "hexagon_identity")
        assert e.expected == e.actual == 6

    def test_conjecture_entries_informational(self, report):
        assert report_entry(report, "makhnev_condition").status == "info"
        assert report_entry(report, "hexagons_equal_bound").status == "info"

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
        assert report_entry(report, "triangle_count").actual == 1
        # c6 does not exist below 6 vertices
        assert report_entry(report, "c6_closed_vs_trace").status == "skip"
        assert report_entry(report, "master_identity").status == "skip"
        assert report_entry(report, "hexagon_identity").status == "pass"


class TestLedgerK1:
    def test_suites_skip_for_the_order(self):
        # K1 verifies, but the charpoly rows need 3 vertices
        report = run_all_checks(Graph(1, (0,)))
        suites = [e for e in report.entries if e.name.endswith("_suite")]
        assert len(suites) == 8
        assert {(e.status, e.detail) for e in suites} == {
            ("skip", "graph has fewer than 3 vertices")}
        assert report.passed


# every ledger stage, in the order run_all_checks runs it on a family graph
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


# what a faulted stage raises: the ledger's own errors and five that no
# stage raises on purpose
FAULT_TYPES = [CountingInconsistencyError, ValueError, TypeError, KeyError, IndexError,
               ZeroDivisionError, AttributeError]


def inject_fault(monkeypatch, stage, error=CountingInconsistencyError):
    """Make ``stage`` (``cn.<name>``, ``sp.<name>`` or ``identities.<name>``)
    raise ``error``; the text its fail entry must hold."""
    prefix, name = stage.split(".")
    exc = error(f"injected fault in {name}")

    def fail(*args, **kwargs):
        raise exc

    modules = {"cn": census, "sp": spectral, "identities": identities}
    monkeypatch.setattr(modules[prefix], name, fail)
    return str(exc)


# the stages each family entry reads, in the order its skip names them
ENTRY_NEEDS = {
    "triangle_count": "triangle_pair_census",
    "quadrilateral_count": "quad_plus_edge_census",
    "pentagon_count": "hexagon_census",
    "pentagons_per_edge": "pentagon_side_census",
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
    in ``faults`` (stage -> error text) raise, read off ``ENTRY_NEEDS``."""
    out = {name: ("fail", detail) for name, detail in faults.items()}
    for name, needs in ENTRY_NEEDS.items():
        unmet = [s for s in needs.split(", ") if s in out]
        if unmet:
            out[name] = ("skip", f"needs {', '.join(unmet)}, which failed")
    return out


def not_passed(report):
    return {e.name: (e.status, e.detail) for e in report.entries
            if e.status in ("fail", "skip")}


class TestLedgerFaultInjection:
    def test_table_lists_every_stage_called(self):
        # the ledger's stage table is module-level code of identities
        source = inspect.getsource(identities)
        modules = {"cn": census, "sp": spectral}
        called = {
            f"{prefix}.{name}"
            for prefix, name in re.findall(r"\b(cn|sp)\.(\w+)", source)
            if inspect.isfunction(getattr(modules[prefix], name))
        }
        assert called == set(STAGE_FAIL_ENTRY)

    @pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
    @pytest.mark.parametrize("stage", [*sorted(STAGE_FAIL_ENTRY), "identities.hexagon_bound"])
    def test_single_stage_fault_becomes_fail_entry(self, monkeypatch, paley9, stage, error):
        message = inject_fault(monkeypatch, stage, error)
        report = run_all_checks(paley9)
        assert not report.passed
        failed = STAGE_FAIL_ENTRY.get(stage, "hexagon_bound")
        entry = report_entry(report, failed)
        assert (entry.status, entry.detail) == ("fail", message)
        # nothing else fails, and what needed it skips naming it
        assert not_passed(report) == failures({failed: message})
        json.dumps(report.to_json_dict())

    def test_every_stage_failing_at_once(self, monkeypatch, paley9):
        messages = {inject_fault(monkeypatch, stage)
                    for stage in [*STAGE_FAIL_ENTRY, "identities.hexagon_bound"]}
        names = []
        report = run_all_checks(paley9, progress=names.append)
        assert names == LEDGER_STAGES  # a failed stage still reports progress
        # every stage fails with its fault
        ran = {*STAGE_FAIL_ENTRY.values(), "hexagon_bound"}
        for name in ran:
            entry = report_entry(report, name)
            assert entry.status == "fail" and entry.detail in messages
        # every skip names each failed stage its entry reads, in order, and
        # nothing passes but the entries read off the verification scan
        assert not_passed(report) == failures(
            {name: report_entry(report, name).detail for name in ran})
        assert {e.name for e in report.entries if e.status == "pass"} == {
            "condition_one_edge_triangles", "condition_two_nonedge_quadrilaterals",
            "regularity", "order_relation"}
        json.dumps(report.to_json_dict())

    @pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
    def test_pentagon_fault_skips_per_edge_entry(self, monkeypatch, paley9, error):
        # the stage's own fail entry holds the error; the per-edge entry
        # skips like every other entry that reads the stage
        message = inject_fault(monkeypatch, "cn.pentagon_triangle_census", error)
        report = run_all_checks(paley9)
        assert report_entry(report, "pentagon_side_census").detail == message
        entry = report_entry(report, "pentagons_per_edge")
        assert (entry.status, entry.expected, entry.actual, entry.detail) == (
            "skip", None, None, "needs pentagon_side_census, which failed")

    def test_hexagon_fault_leaves_the_pentagon_census(self, monkeypatch, paley9):
        # the pentagon census reads the graph only, so it runs and its
        # entries pass; pentagon_count, which reads the hexagon pass, skips
        inject_fault(monkeypatch, "cn.count_pentagons_and_hexagons")
        report = run_all_checks(paley9)
        assert "pentagon_side_census" not in {e.name for e in report.entries}
        for name in ("pentagons_per_edge", "pentagon_sides_eq4", "walk_decomposition"):
            assert report_entry(report, name).status == "pass"
        entry = report_entry(report, "pentagon_count")
        assert (entry.status, entry.detail) == ("skip", "needs hexagon_census, which failed")

    def test_per_edge_mismatch_names_first_edge(self, monkeypatch, paley9):
        real = census.pentagon_triangle_census

        def miscounted(g):
            pt = real(g)
            per_edge = list(pt.per_edge)
            per_edge[3] = per_edge[5] = 1
            return pt._replace(per_edge=tuple(per_edge))

        monkeypatch.setattr(census, "pentagon_triangle_census", miscounted)
        entry = report_entry(run_all_checks(paley9), "pentagons_per_edge")
        edge = list(paley9.edges())[3]
        assert (entry.status, entry.expected, entry.actual) == ("fail", 0, 1)
        assert entry.detail == f"edge {edge}"

    @pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
    def test_makhnev_fault_on_non_family_graph(self, monkeypatch, error):
        message = inject_fault(monkeypatch, "cn.disjoint_triangle_pair_census", error)
        report = run_all_checks(cycle(4))
        assert report_entry(report, "triangle_pair_census").detail == message
        assert report_entry(report, "makhnev_condition").status == "skip"

    @pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
    def test_entry_whose_sides_raise_becomes_fail_entry(self, monkeypatch, paley9, error):
        # walk_total alone reads expected_walk_total; the stages it needs ran
        message = inject_fault(monkeypatch, "identities.expected_walk_total", error)
        report = run_all_checks(paley9)
        entry = report_entry(report, "walk_total")
        assert (entry.status, entry.expected, entry.actual, entry.detail) == (
            "fail", 1, 0, message)
        assert not_passed(report) == {"walk_total": ("fail", message)}

    @pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
    def test_ledger_rows_raise_an_entry_error(self, monkeypatch, paley9, error):
        # the census command runs its rows through run_ledger_rows, which
        # raises one error type naming the row, as it does for a stage
        message = inject_fault(monkeypatch, "identities.expected_walk_total", error)
        with pytest.raises(CountingInconsistencyError) as raised:
            identities.run_ledger_rows(census.require_family(paley9), ["walk_total"])
        assert str(raised.value) == f"walk_total: {message}"
        assert type(raised.value.__cause__) is error
        assert str(raised.value.__cause__) == message


class TestPentagonRoutes:
    """The hexagon pass and the per-edge scan count the pentagons on their
    own, and a wrong count fails only the entries of its own route."""

    def test_hexagon_p5_fails_only_pentagon_count(self, monkeypatch, paley9):
        real = census.count_pentagons_and_hexagons

        def one_more(g):
            counts = real(g)
            return counts._replace(p5=counts.p5 + 1)

        monkeypatch.setattr(census, "count_pentagons_and_hexagons", one_more)
        report = run_all_checks(paley9)
        assert not_passed(report) == {"pentagon_count": ("fail", "")}
        assert report_entry(report, "pentagon_count").actual == 1

    def test_edge_count_off_by_five_fails_only_per_edge_route(self, monkeypatch, paley9):
        # five more pentagons through one edge: one more pentagon, five n8 sides
        real = census._pentagon_edge_scan

        def five_more(rows, edges):
            n4, per_edge = real(rows, edges)
            return n4, [per_edge[0] + 5, *per_edge[1:]]

        monkeypatch.setattr(census, "_pentagon_edge_scan", five_more)
        report = run_all_checks(paley9)
        assert {name for name, (status, _) in not_passed(report).items()
                if status == "fail"} == {"pentagons_per_edge", "pentagon_sides_eq4",
                                         "walk_decomposition", "master_identity"}
        assert report_entry(report, "pentagon_count").status == "pass"


class TestEdgeTriplePartition:
    @pytest.mark.parametrize("kernel", ["_count_span4_triples", "_count_span5_triples",
                                        "_count_span6_triples"])
    def test_one_span_off_fails_the_partition(self, monkeypatch, paley9, kernel):
        # each span has its own route, so a fault in any one of them breaks
        # e4 + e5 + e6 = C(m, 3)
        real = getattr(census, kernel)
        monkeypatch.setattr(census, kernel, lambda *args: real(*args) + 1)
        report = run_all_checks(paley9)
        entry = report_entry(report, "edge_triples_partition")
        assert (entry.status, entry.expected, entry.actual) == ("fail", 1, 0)


class TestMergedQuadrilateralPass:
    def test_kernel_fault_fails_the_stage_and_skips_n2(self, monkeypatch, paley9):
        message = "injected fault in the quadrilateral pass"

        def fail(*args):
            raise CountingInconsistencyError(message)

        monkeypatch.setattr(census, "_qpe_scan", fail)
        report = run_all_checks(paley9)
        entry = report_entry(report, "quad_plus_edge_census")
        assert (entry.status, entry.detail) == ("fail", message)
        for name in ("quadrilateral_count", "n2_eq3", "quad_plus_edge_eq9",
                     "qpe_n9_incidences", "master_identity"):
            entry = report_entry(report, name)
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


# The reach table: per census stage of the ledger and integer field of its
# result, the entries that newly fail on Paley 9 when that field is one too
# large.  Fields that are not integers (n3_witness, per_edge) are not listed.
FIELD_REACH = {
    "disjoint_triangle_pair_census": {
        "n1": ("completion_prism_agreement", "master_identity", "opposite_sides_eq6",
               "prism_route_agreement", "qpe_prism_incidences", "triangle_pairs_eq8",
               "triangle_pendant_eq5"),
        "n3": ("hexagon_identity", "master_identity", "n4_twice_n3", "opposite_sides_eq6",
               "triangle_pairs_eq8"),
        "n5": ("master_identity", "triangle_pairs_eq8"),
        "n14": ("master_identity", "triangle_pairs_eq8"),
        "excluded": (),  # 0 in the family (lambda = 1), and no entry reads it
        "p3": ("charpoly_c3_is_minus_two_triangles", "triangle_count"),
    },
    "quad_plus_edge_census": {
        "total": ("quad_plus_edge_eq9",),  # restates quadrilateral_count
        "prism_incidences": ("qpe_prism_incidences",),
        "n4_incidences": ("qpe_n4_incidences",),
        "n9_incidences": ("qpe_n9_incidences",),
        "n13": ("master_identity",),
        "n6_7_10_11": ("master_identity",),
        "p4": ("quadrilateral_count",),
        "n2": ("master_identity", "n2_eq3"),  # n2_eq3 restates quadrilateral_count
    },
    "count_pentagons_and_hexagons": {
        "p5": ("pentagon_count",),
        "p6": ("hexagon_identity", "master_identity"),
    },
    "pentagon_triangle_census": {
        "n4": ("n4_route_agreement", "pentagon_sides_eq4"),
        "n8": ("master_identity", "pentagon_sides_eq4"),
        "p5": ("walk_decomposition",),
    },
    "coded_walk_census": {
        "total": ("walk_decomposition", "walk_total"),
        "t1": ("walk_decomposition", "walk_t1_from_quadrilaterals"),
        "t2": ("walk_decomposition", "walk_t2_from_triangles"),
        "p5_walks": (),  # enters the ledger only through total
    },
    "edge_triple_census": {
        "e4": ("edge_triples_partition", "edge_triples_span4", "master_identity"),
        "e5": ("edge_triples_partition", "edge_triples_span5", "master_identity"),
        "e6": ("edge_triples_partition",),
    },
    "quad_pair_census": {
        "n1": ("prism_route_agreement", "quad_pairs_eq7"),
        "n4": ("completion_n4_agreement", "master_identity", "n4_route_agreement",
               "n4_twice_n3", "qpe_n4_incidences", "quad_pairs_eq7", "triangle_pendant_eq5"),
        "n9": ("master_identity", "qpe_n9_incidences", "quad_pairs_eq7"),
    },
    "triangle_edge_completion_census": {
        "n1": ("completion_prism_agreement", "triangle_completion_eq5"),
        "n4": ("completion_n4_agreement", "triangle_completion_eq5"),
    },
}

# entries that fail exactly when quadrilateral_count does: the kernel gives
# n2 and the quad-plus-edge total as multiples of p4, and their closed forms
# are the same multiples of expected_p4
RESTATES_QUADRILATERAL_COUNT = ("n2_eq3", "quad_plus_edge_eq9")
# entries whose sides are multiples of triangle_count's on any k-regular
# graph: 6 n1 + n4 counts the (triangle, pendant) pairs, 3(k - 2) per triangle
RESTATES_TRIANGLE_COUNT = ("triangle_completion_eq5",)


def ledger_stage_results(g):
    """The result of each ``cn.<stage>`` the ledger calls, by stage name."""
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        for stage in FIELD_REACH:
            real = getattr(census, stage)
            mp.setattr(census, stage, lambda *args, _name=stage, _real=real:
                       results.setdefault(_name, _real(*args)))
        run_all_checks(g)
    return results


def newly_failing(g, stage, field):
    """The entries of the ledger on g that fail when ``cn.<stage>`` reports
    ``field`` one too large, and not without that."""
    real = getattr(census, stage)

    def failing():
        return {e.name for e in run_all_checks(g).entries if e.status == "fail"}

    def one_too_many(*args):
        result = real(*args)
        return result._replace(**{field: getattr(result, field) + 1})

    before = failing()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, stage, one_too_many)
        return failing() - before


class TestFieldReach:
    def test_table_lists_every_integer_field(self, paley9):
        results = ledger_stage_results(paley9)
        assert {f"cn.{stage}" for stage in results} == {
            stage for stage in STAGE_FAIL_ENTRY if stage.startswith("cn.")}
        assert {stage: [f for f in r._fields if type(getattr(r, f)) is int]
                for stage, r in results.items()} == {
            stage: list(fields) for stage, fields in FIELD_REACH.items()}

    @pytest.mark.parametrize("stage, field", [(stage, field) for stage, fields in
                                              FIELD_REACH.items() for field in fields])
    def test_one_too_many_fails_the_listed_entries(self, paley9, stage, field):
        assert newly_failing(paley9, stage, field) == set(FIELD_REACH[stage][field])

    @pytest.mark.parametrize("name", ["paley9", "bvls"])
    def test_restating_entries_are_multiples_of_p4(self, request, name):
        fam = census.require_family(request.getfixturevalue(name))
        q = census.quad_plus_edge_census(fam)
        factor = fam.m - 4 * (fam.k - 2) - 4
        assert factor and (q.n2, q.total) == (4 * q.p4, factor * q.p4)
        assert (expected_n2(fam.n, fam.k), expected_quad_plus_edge(fam.n, fam.k)) == (
            4 * expected_p4(fam.n, fam.k), factor * expected_p4(fam.n, fam.k))

    @pytest.mark.parametrize("name", ["paley9", "bvls"])
    def test_restating_entries_are_multiples_of_p3(self, request, name):
        fam = census.require_family(request.getfixturevalue(name))
        _, entries = identities.run_ledger_rows(fam, RESTATES_TRIANGLE_COUNT)
        factor = 3 * (fam.k - 2)
        for entry in RESTATES_TRIANGLE_COUNT:
            assert (entries[entry].expected, entries[entry].actual) == (
                factor * expected_p3(fam.n, fam.k), factor * census.count_triangles(fam.graph))


class TestEnumerationBudget:
    def test_ledger_lists_each_structure_once(self, monkeypatch, paley9):
        calls = []
        real = census._quad_list
        monkeypatch.setattr(census, "_quad_list",
                            lambda *args: calls.append(args) or real(*args))
        census._triangle_ids.cache_clear()
        census._triangle_table.cache_clear()
        assert run_all_checks(paley9).passed
        # the quad-plus-edge pass lists the quadrilaterals; the triangle-pair
        # census, the completion census and the one_in table of the hexagon
        # and pentagon-side stages share one listing of the triangles
        assert len(calls) == 1
        assert census._triangle_ids.cache_info().misses == 1
        assert census._triangle_table.cache_info().misses == 1

    def test_cycle_census_lists_the_triangles_once(self, paley9):
        # p3 and the hexagon pass's triangle table read one listing
        census._triangle_ids.cache_clear()
        census._triangle_table.cache_clear()
        assert census.cycle_census(paley9).p3 == 6
        assert census._triangle_ids.cache_info().misses == 1

    def test_ledger_classifies_no_quadrilateral_pair_one_by_one(self, monkeypatch, paley9):
        # in a family graph no two quadrilaterals through an edge share a
        # vertex, so the pair-by-pair error path never runs
        calls = []
        real = census._quad_pairs_at_edge
        monkeypatch.setattr(census, "_quad_pairs_at_edge",
                            lambda *args: calls.append(args) or real(*args))
        assert run_all_checks(paley9).passed
        assert calls == []

    def test_ledger_checks_no_corner_or_quadrilateral_one_by_one(self, monkeypatch, paley9,
                                                                  bvls):
        # in a family graph every (triangle, corner) and every quadrilateral
        # passes its mask tests, so neither one-by-one loop runs
        calls = []
        for name in ("_corner_completions_one_by_one", "_side_apexes_one_by_one"):
            real = getattr(census, name)
            monkeypatch.setattr(census, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        assert run_all_checks(paley9).passed
        assert run_all_checks(bvls).passed
        assert calls == []

    def test_ledger_and_pair_censuses_make_no_canonical_calls(self, monkeypatch, bvls):
        calls = []
        real = graph.canonical_code

        def counted(code, n):
            calls.append(n)
            return real(code, n)

        monkeypatch.setattr(graph, "canonical_code", counted)
        graph.classify_code.cache_clear()
        census.named_type_certificates.cache_clear()
        assert run_all_checks(build_paley9()).passed
        census.disjoint_triangle_pair_census(bvls)
        census.quad_pair_census(bvls)
        assert calls == []
        census.named_type_certificates()  # the counter does see certificate labelling
        assert calls

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
        # one pentagon and hexagon pass, one kernel call over every start,
        # gives p5 and p6; besides it only the per-edge route of the pentagon
        # census counts pentagons, and no pentagon DFS runs
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
        assert calls["_hexagon_scan"] == 1
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
        entry = report_entry(run_all_checks(paley9), "qpe_n9_incidences")
        assert (entry.status, entry.expected, entry.actual) == ("fail", 2, 0)

    def test_every_agreement_is_a_ledger_entry(self, report):
        agree = [row.name for row in identities.LEDGER
                 if isinstance(row, identities.Check) and row.kind == "agree"]
        assert agree == ["prism_route_agreement", "n4_route_agreement", "qpe_prism_incidences",
                         "qpe_n4_incidences", "qpe_n9_incidences"]
        assert identities.TYPE_CENSUS_ROWS == (*identities.TYPE_CENSUS_STAGES, *agree)
        for name in agree:
            assert report_entry(report, name).status == "pass"

    def test_unknown_row_name_is_refused(self, monkeypatch, paley9):
        # a misspelt name would otherwise drop its row silently; nothing runs
        calls = []
        monkeypatch.setattr(census, "disjoint_triangle_pair_census", calls.append)
        with pytest.raises(ValueError, match="^no ledger row named 'no_such_row'$"):
            identities.run_ledger_rows(census.require_family(paley9),
                                       ["triangle_count", "no_such_row"])
        assert calls == []


class TestLateBinding:
    """The ledger looks each census function up on the census module when
    it runs it, so a wrapper put there, as perfbench's tracer puts its
    spans, sees every call, from ``check`` and from ``census`` alike."""

    def test_wrapped_census_functions_see_every_call(self, monkeypatch, capsys, paley9):
        names = [stage.split(".")[1] for stage in STAGE_FAIL_ENTRY if stage.startswith("cn.")]
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(census, name)

            def wrapper(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(census, name, wrapper)
        assert run_all_checks(paley9).passed
        assert all(calls.values()), calls
        calls.update(dict.fromkeys(names, 0))
        assert cli.main(["census", "--graph", "paley9", "--what", "all"]) == 0
        capsys.readouterr()
        # the type census runs each of its parts once, and no other census
        parts = {name for name in names
                 if STAGE_FAIL_ENTRY[f"cn.{name}"] in identities.TYPE_CENSUS_STAGES}
        assert len(parts) == len(identities.TYPE_CENSUS_STAGES)
        assert calls == {name: int(name in parts) for name in names}


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
    """The ledger's condition entries take the witnesses of ``verify_srg``,
    which the ``conditions`` row compares with the condition scans'."""

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_zero_and_one_keep_both_condition_entries(self, order):
        report = run_all_checks(Graph(order, (0,) * order))
        for name in ("condition_one_edge_triangles",
                     "condition_two_nonedge_quadrilaterals"):
            assert report_entry(report, name).status == "pass"


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


def paley9_rows(mp, names, quad_pairs=None):
    """``run_ledger_rows(names)`` on the verified Paley 9, with ``quad_pairs``
    in place of ``cn.quad_pair_census`` if given."""
    if quad_pairs:
        mp.setattr(census, "quad_pair_census", quad_pairs)
    return identities.run_ledger_rows(census.require_family(build_paley9()), names)


# one row per raise of identities.py: the call (given a MonkeyPatch), its
# error type and message; Paley 9 has 6 prisms
IDENTITY_RAISES = [
    (lambda mp: expected_p3(5, 2), ValueError, "triangle count: 10 is not divisible by 6"),
    (lambda mp: hexagon_bound(10, 4), ValueError, "(n=10, k=4) violates n = (k^2+2)/2"),
    (lambda mp: paley9_rows(mp, ["nope"]), ValueError, "no ledger row named 'nope'"),
    (lambda mp: paley9_rows(mp, ["quad_pair_census"], lambda fam: 1 // 0),
     CountingInconsistencyError, "quad_pair_census: integer division or modulo by zero"),
    (lambda mp: paley9_rows(mp, ["prism_route_agreement"],
                            lambda fam: census.QuadPairCensus(7, 0, 0)),
     CountingInconsistencyError, "prism_route_agreement: expected 6, counted 7"),
    (lambda mp: verify_polynomial_chain(range(6, 30, 2)), ValueError,
     "need at least 13 distinct sample points"),
    (lambda mp: verify_polynomial_chain([5, *range(6, 30, 2)]), ValueError,
     "sample points must be even and >= 6, got 5"),
]
IDENTITY_IDS = ["exact-division", "hexagon-order", "unknown-row", "raising-row",
                "failed-agreement", "chain-point-count", "chain-point-value"]


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
