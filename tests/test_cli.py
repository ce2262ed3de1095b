import argparse
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import command_outcome, double_edge_switched, exit_code
from test_identities import FAULT_TYPES
from srg12 import cli, graph6
from srg12.cli import main
from srg12.errors import FamilyViolationError
from srg12.graph import Graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_stdout_graph6(self, capsys):
        code, out, _ = run(capsys, "construct", "--graph", "paley9")
        assert code == 0
        assert out.strip() == "H{S{aSf"

    def test_to_file_then_check_roundtrip(self, tmp_path, capsys, paley9):
        path = tmp_path / "p9.g6"
        code, _, _ = run(capsys, "construct", "--graph", "paley9", "--out", str(path))
        assert code == 0
        assert graph6.load_file(path) == paley9

        json_a = tmp_path / "a.json"
        json_b = tmp_path / "b.json"
        assert run(capsys, "check", "--graph", str(path), "--json", str(json_a),
                   "--workers", "1")[0] == 0
        assert run(capsys, "check", "--graph", "paley9", "--json", str(json_b),
                   "--workers", "1")[0] == 0
        assert json_a.read_bytes() == json_b.read_bytes()


class TestVerify:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "paley9")
        assert code == 0
        assert "verified" in out

    def test_explicit_params(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "paley9",
                           "--params", "9,4,1,2")
        assert code == 0

    def test_failing_graph_exits_1(self, tmp_path, capsys):
        from srg12.graph import Graph

        path = tmp_path / "c4.g6"
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        graph6.save_file(path, c4)
        code, out, _ = run(capsys, "verify", "--graph", str(path))
        assert code == 1
        assert "FAIL" in out


class TestCheck:
    def test_paley_all_pass(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "--graph", "paley9",
                           "--json", str(out_json), "--workers", "1")
        assert code == 0
        assert "0 fail" in out
        payload = json.loads(out_json.read_text())
        assert payload["graph_meta"]["n"] == 9
        names = {e["name"] for e in payload["entries"]}
        assert "master_identity" in names
        assert all(e["pass"] is not False for e in payload["entries"])

    def test_non_family_graph_exits_1(self, tmp_path, capsys):
        from srg12.graph import Graph

        path = tmp_path / "path.g6"
        graph6.save_file(path, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        code, _, _ = run(capsys, "check", "--graph", str(path), "--workers", "1")
        assert code == 1


class TestGoldenReports:
    """``check --json`` reproduces the committed reports byte for byte; they
    hold no timestamps and the source is a fingerprint.  A worker count is
    accepted and has no effect: Paley 9 under ``--workers 2`` gives the
    bytes of ``--workers 1``, the golden.  K3 covers the graphs below 6
    vertices, where the c6 and master entries skip; the 5-cycle, read from
    a graph6 file, covers a graph outside the family, which fails its
    condition entries and exits 1."""

    @pytest.mark.parametrize("name, workers", [
        pytest.param("paley9", ["--workers", "1"], id="paley9"),
        pytest.param("paley9", ["--workers", "2"], id="paley9-workers2"),
    ] + [pytest.param(name, ["--workers", "1"], id=name) for name in ("bvls243", "k3", "cycle5")])
    def test_check_json_matches_golden(self, capsys, tmp_path, name, workers):
        graph, expected_code = name, 0
        if name == "cycle5":
            from srg12.graph import Graph

            graph, expected_code = tmp_path / "cycle5.g6", 1
            graph6.save_file(graph, Graph.from_edges(5, [(i, (i + 1) % 5)
                                                         for i in range(5)]))
        out_json = tmp_path / "report.json"
        code, _, _ = run(capsys, "check", "--graph", str(graph), *workers,
                         "--json", str(out_json))
        assert code == expected_code
        golden = Path(__file__).parent / "data" / f"check_{name}.json"
        assert out_json.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("name, workers", [("paley9", "1"), ("paley9", "2"), ("bvls243", "1")])
    def test_census_json_matches_golden(self, capsys, tmp_path, name, workers):
        out_json = tmp_path / "census.json"
        code, _, _ = run(capsys, "census", "--graph", name, "--what", "all",
                         "--workers", workers, "--json", str(out_json))
        assert code == 0
        golden = Path(__file__).parent / "data" / f"census_{name}.json"
        assert out_json.read_bytes() == golden.read_bytes()

    def test_exhaustive_census_json_matches_golden(self, capsys, tmp_path):
        # the seeded switched circulant C16(1, 2, 3) of the orbit-expansion
        # budget test: outside the family, over a hundred 6-vertex classes
        from srg12.graph import Graph

        circulant = Graph.from_edges(16, [(i, (i + d) % 16) for i in range(16)
                                          for d in (1, 2, 3)])
        path = tmp_path / "switched16.g6"
        graph6.save_file(path, double_edge_switched(circulant, random.Random(1603), 12))
        out_json = tmp_path / "census.json"
        code, _, _ = run(capsys, "census", "--graph", str(path), "--exhaustive",
                         "--json", str(out_json))
        assert code == 0
        golden = Path(__file__).parent / "data" / "census_exhaustive_switched16.json"
        assert out_json.read_bytes() == golden.read_bytes()


class TestCensusCommand:
    def test_cycles_json(self, capsys):
        code, out, _ = run(capsys, "census", "--graph", "paley9",
                           "--what", "cycles", "--workers", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["cycles"] == {"p3": 6, "p4": 9, "p5": 0, "p6": 6}
        assert all(v == 0 for v in payload["residuals"].values())

    def test_exhaustive_flag(self, capsys):
        code, out, _ = run(capsys, "census", "--graph", "paley9", "--what",
                           "types", "--exhaustive", "--workers", "1")
        assert code == 0
        payload = json.loads(out)
        assert sum(c["count"] for c in payload["exhaustive_six_census"]) == 84
        assert payload["types"]["n1"] == 6

    def test_all_on_non_family_graph_degrades(self, tmp_path, capsys):
        from srg12.graph import Graph

        path = tmp_path / "c4.g6"
        graph6.save_file(path, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        code, out, _ = run(capsys, "census", "--graph", str(path),
                           "--what", "all", "--workers", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["cycles"]["p4"] == 1
        assert payload["types"] is None
        assert "types_error" in payload

    def test_all_verifies_once_and_counts_each_cycle_length_once(
            self, capsys, monkeypatch):
        from srg12 import census, cli, graph

        calls = {"verify_srg": 0, "count_hexagons": 0,
                 "count_pentagons_and_hexagons": 0, "edge_triple_census": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        wrapper = counted(graph, "verify_srg")
        for module in (graph, census, cli):
            monkeypatch.setattr(module, "verify_srg", wrapper)
        for name in ("count_hexagons", "count_pentagons_and_hexagons",
                     "edge_triple_census"):
            monkeypatch.setattr(census, name, counted(census, name))
        code, out, _ = run(capsys, "census", "--graph", "paley9", "--what", "all",
                           "--workers", "1")
        assert code == 0
        assert json.loads(out)["cycles"] == {"p3": 6, "p4": 9, "p5": 0, "p6": 6}
        # one pentagon and hexagon pass gives p5 and p6, and count_hexagons,
        # a read of that pass, would run a second
        assert calls == {"verify_srg": 1, "count_hexagons": 0,
                         "count_pentagons_and_hexagons": 1, "edge_triple_census": 1}

    def test_types_on_non_family_graph_fails(self, tmp_path, capsys):
        from srg12.graph import Graph

        path = tmp_path / "c4.g6"
        graph6.save_file(path, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        code, _, err = run(capsys, "census", "--graph", str(path),
                           "--what", "types", "--workers", "1")
        assert code == 1
        assert "srg" in err


# each single census mode reports graph_meta, its own section and the
# residuals it names, as the --what all golden has them
CENSUS_MODES = {
    "cycles": ("cycles", ["p3", "p4", "p5", "p6_minus_bound"]),
    "triples": ("edge_triples", ["e4", "e5"]),
    "types": ("types", ["eq8", "n2", "n4_minus_2n3"]),
}


class TestCensusModes:
    @pytest.mark.parametrize("what", sorted(CENSUS_MODES))
    def test_mode_is_a_projection_of_the_golden(self, capsys, what):
        golden = json.loads((Path(__file__).parent / "data" / "census_paley9.json").read_text())
        section, residuals = CENSUS_MODES[what]
        expected = {"graph_meta": golden["graph_meta"], section: golden[section],
                    "residuals": {r: golden["residuals"][r] for r in residuals}}
        code, out, err = run(capsys, "census", "--graph", "paley9", "--what", what)
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("what", ["cycles", "triples"])
    def test_non_family_mode_has_no_residuals(self, tmp_path, capsys, what):
        from srg12.graph import Graph

        path = tmp_path / "c4.g6"
        graph6.save_file(path, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        code, out, _ = run(capsys, "census", "--graph", str(path), "--what", what)
        assert code == 0
        payload = json.loads(out)
        assert payload["residuals"] == {}
        assert set(payload) == {"graph_meta", CENSUS_MODES[what][0], "residuals"}

    def test_empty_graph_is_not_a_family_member(self, tmp_path, capsys):
        from srg12.graph import Graph

        path = tmp_path / "empty.g6"
        graph6.save_file(path, Graph(0, ()))
        message = "empty graph is not a family member"
        assert run(capsys, "census", "--graph", str(path), "--what", "types") == (
            1, "", f"check failed: {message}\n")
        code, out, _ = run(capsys, "census", "--graph", str(path), "--what", "all")
        assert code == 0
        payload = json.loads(out)
        assert (payload["types"], payload["types_error"]) == (None, message)
        assert payload["residuals"] == {}


# the census functions of the six type-census stages, in LEDGER order, and
# the ledger stage each one runs as
TYPE_STAGES_IN_LEDGER_ORDER = {
    "disjoint_triangle_pair_census": "triangle_pair_census",
    "quad_plus_edge_census": "quad_plus_edge_census",
    "count_pentagons_and_hexagons": "hexagon_census",
    "pentagon_triangle_census": "pentagon_side_census",
    "edge_triple_census": "edge_triple_census",
    "quad_pair_census": "quad_pair_census",
}


def stop_at(monkeypatch, failing, error):
    """Put call-recording wrappers on the census module for the six
    type-census functions, ``failing`` raising ``error("injected")``; the
    calls made and the error raised."""
    from srg12 import census

    calls = []
    injected = error("injected")
    for name in TYPE_STAGES_IN_LEDGER_ORDER:
        real = getattr(census, name)

        def wrapper(*args, _name=name, _real=real):
            calls.append(_name)
            if _name == failing:
                raise injected
            return _real(*args)

        monkeypatch.setattr(census, name, wrapper)
    return calls, injected


def ran_until(failing):
    stages = list(TYPE_STAGES_IN_LEDGER_ORDER)
    return stages[:stages.index(failing) + 1]


class TestCensusFailures:
    """A failed route agreement or census stage fails ``census --what
    types|all`` with exit 1, no report and the error on stderr; a failed
    stage stops the census, whatever it raised, with one error naming it."""

    @pytest.mark.parametrize("what", ["types", "all"])
    def test_route_agreement_failure(self, monkeypatch, capsys, what):
        from srg12 import census

        real = census.quad_pair_census

        def more_n9(g):
            qp = real(g)
            return qp._replace(n9=qp.n9 + 1)

        monkeypatch.setattr(census, "quad_pair_census", more_n9)
        assert run(capsys, "census", "--graph", "paley9", "--what", what) == (
            1, "", "check failed: qpe_n9_incidences: expected 2, counted 0\n")

    @pytest.mark.parametrize("what", ["types", "all"])
    @pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
    @pytest.mark.parametrize("stage", TYPE_STAGES_IN_LEDGER_ORDER)
    def test_stage_failure(self, monkeypatch, capsys, stage, error, what):
        # the census stops there: no stage after it in LEDGER order runs
        calls, injected = stop_at(monkeypatch, stage, error)
        assert run(capsys, "census", "--graph", "paley9", "--what", what) == (
            1, "", f"check failed: {TYPE_STAGES_IN_LEDGER_ORDER[stage]}: {injected}\n")
        assert calls == ran_until(stage)

    @pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
    @pytest.mark.parametrize("stage", TYPE_STAGES_IN_LEDGER_ORDER)
    def test_type_census_stops_at_a_failed_stage(self, monkeypatch, paley9, stage, error):
        from srg12.census import type_census
        from srg12.errors import CountingInconsistencyError

        calls, injected = stop_at(monkeypatch, stage, error)
        with pytest.raises(CountingInconsistencyError) as raised:
            type_census(paley9)
        assert str(raised.value) == f"{TYPE_STAGES_IN_LEDGER_ORDER[stage]}: {injected}"
        assert raised.value.__cause__ is injected
        assert calls == ran_until(stage)


class TestSpectralCommand:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "spectral", "--params", "99,14")
        assert code == 0
        assert "-47288703" in out

    def test_sum_json(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectral", "--params", "243,22",
                         "--method", "sum", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["c6"] == -2975686065
        assert payload["intermediate"]["r1"] == 132

    def test_trace_on_builtin(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, out, _ = run(capsys, "spectral", "--method", "trace",
                           "--graph", "paley9", "--json", str(path))
        assert code == 0
        assert "-168" in out
        # tr A^i = 4^i + 4 * 1^i + 4 * (-2)^i from the spectrum of Paley 9
        assert json.loads(path.read_text())["intermediate"]["traces"] == [
            4**i + 4 + 4 * (-2)**i for i in range(1, 7)]

    def test_big_c6_serialized_as_string(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        code, _, _ = run(capsys, "spectral", "--params", "494019,994",
                         "--method", "sum", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["c6"] == "-2466795174682153663896408"

    def test_infeasible_params_exit_2(self, capsys):
        code, _, err = run(capsys, "spectral", "--params", "33,8",
                           "--method", "sum")
        assert code == 2
        assert "r1" in err

    @pytest.mark.parametrize("k, disc", [("0", "-7"), ("1", "-3")])
    def test_valency_below_two_exit_2(self, capsys, k, disc):
        code, _, err = run(capsys, "spectral", "--params", f"3,{k}",
                           "--method", "sum")
        assert code == 2
        assert err == f"error: 4k-7 = {disc} is not a perfect square\n"

    def test_missing_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "spectral", "--method", "closed")
        assert code == 2


class TestParamsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "params", "--max-k", "1000")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip() and not l.startswith("    k")]
        ks = [int(l.split()[0]) for l in lines if l.lstrip()[0].isdigit()]
        assert ks == [4, 14, 22, 112, 994]
        assert "Paley9" in out and "BvLS243" in out

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        code, _, _ = run(capsys, "params", "--max-k", "100", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert [row["k"] for row in payload] == [4, 14, 22]


class TestProgress:
    def test_gated_to_one_second(self, monkeypatch, capsys):
        from srg12 import cli

        monkeypatch.setenv("SRG12_PROGRESS", "1")
        clock = iter([0.0, 0.3, 1.5, 1.6, 3.0])
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
        prog = cli._Progress("demo")
        prog.stage("a")   # 0.3s: suppressed
        prog.stage("b")   # 1.5s: emitted
        prog.stage("c")   # 1.6s: suppressed
        prog.stage("d")   # 3.0s: emitted
        assert capsys.readouterr().err == "demo: finished b\ndemo: finished d\n"

    def test_silent_without_tty_or_env(self, monkeypatch, capsys):
        from srg12 import cli

        monkeypatch.delenv("SRG12_PROGRESS", raising=False)
        prog = cli._Progress("demo")
        prog.stage("a")
        assert capsys.readouterr().err == ""

    def test_census_reports_stages_only(self, monkeypatch, capsys):
        # every line passes the time gate; the cycle census is one stage,
        # and the ledger runs the hexagon bound its residual needs
        from srg12 import cli

        monkeypatch.setenv("SRG12_PROGRESS", "1")
        clock = iter(range(0, 1000, 2))
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
        code, _, err = run(capsys, "census", "--graph", "paley9", "--what", "cycles")
        assert code == 0
        assert err == "census: finished cycle_census\ncensus: finished hexagon_bound\n"


# verify on the 5-cycle: regular, but neither condition holds
C5_VERIFIED = """\
  regular                                 pass  degree 2
  lambda uniform                          FAIL  (0, 1, 0)
  mu uniform                              FAIL  (0, 2, 1)
  params match                            pass  expected (5,2,1,2)
  order relation k(k-2)=2(n-k-1)          FAIL
  condition I (edge triangles)            FAIL  (0, 1, 0)
  condition II (non-edge quadrilaterals)  FAIL  (0, 2, 1)
verification failed
"""


class TestErrors:
    def test_malformed_graph6_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_bytes(b"D\x01\x02\n")
        code, _, err = run(capsys, "check", "--graph", str(bad), "--workers", "1")
        assert code == 2
        assert "byte" in err

    @pytest.mark.parametrize("name, data, code, out, err", [
        ("s6.g6", b":Fa@x^\n", 2, "", "input error: line 1: invalid order byte 0x3a (byte 0)\n"),
        ("d6.g6", b"&DOOOW?\n", 2, "",
         "input error: line 1: invalid order byte 0x26 (byte 0)\n"),
        ("nul.g6", b"Dhc\0\n", 2, "",
         "input error: line 1: graph6 body for n=5 needs 2 bytes, got 3 (byte 3)\n"),
        ("lone-nul.g6", b"\0\n", 2, "", "input error: line 1: invalid order byte 0x00 (byte 0)\n"),
        ("crlf.g6", b"Dhc\r\n", 1, C5_VERIFIED, ""),
        (".", None, 2, "", "input error: [Errno 21] Is a directory: '.'\n"),
        ("missing.g6", None, 2, "",
         "input error: [Errno 2] No such file or directory: 'missing.g6'\n"),
    ], ids=["sparse6", "digraph6", "nul-after-line", "lone-nul", "crlf", "directory", "missing"])
    def test_verify_outcome(self, monkeypatch, capsys, tmp_path, name, data, code, out, err):
        # whole stdout and stderr of verify on files no other table reads
        monkeypatch.chdir(tmp_path)
        if data is not None:
            Path(name).write_bytes(data)
        assert run(capsys, "verify", "--graph", name) == (code, out, err)


class TestInputErrors:
    """Bad input exits 2 with nothing on stdout; argparse's own errors come
    after its usage lines, so the last stderr line is the one pinned."""

    @pytest.mark.parametrize("argv, line", [
        ("verify --graph paley9 --params 0,0,0,0", "error: n must be at least 1"),
        ("verify --graph paley9 --params 3,5,1,2", "error: k must satisfy 0 <= k < n"),
        ("verify --graph paley9 --params 1,2,3",
         "srg12 verify: error: argument --params: expected n,k,lambda,mu"),
        ("verify --graph paley9 --params a,b,c,d",
         "srg12 verify: error: argument --params: expected n,k,lambda,mu"),
        ("spectral --params x,4", "srg12 spectral: error: argument --params: expected n,k"),
    ])
    def test_exit_2_with_message(self, capsys, argv, line):
        assert command_outcome(capsys, argv) == (2, "", line)

    def test_infeasible_params_leave_the_spectrum_out(self, capsys, tmp_path):
        # 33,8 has no integral spectrum: the closed form still gives c6
        path = tmp_path / "c6.json"
        assert run(capsys, "spectral", "--params", "33,8", "--json", str(path)) == (
            0, "c6 = -242132\n", "")
        assert json.loads(path.read_text()) == {
            "c6": -242132, "intermediate": {}, "method": "closed"}

    @pytest.mark.parametrize("argv", [
        "construct --graph paley9 --out", "check --graph paley9 --json",
        "census --graph paley9 --json", "spectral --params 99,14 --json",
        "params --max-k 30 --json"], ids=lambda argv: argv.split()[0])
    @pytest.mark.parametrize("where, error", [
        ("directory", "[Errno 21] Is a directory"),
        ("missing/out", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing-directory"])
    def test_unwritable_output_refused_before_any_work(
            self, monkeypatch, capsys, tmp_path, argv, where, error):
        # refused on the path's shape, so also when os.access says yes
        from srg12 import census, cli

        (tmp_path / "directory").mkdir()
        before = sorted(tmp_path.rglob("*"))
        calls = []
        for module, names in (
                (cli, ["_load_graph", "run_all_checks", "run_ledger_rows", "c6_closed_form",
                       "feasible_parameters"]),
                (census, ["require_family", "cycle_census", "edge_triple_census",
                          "disjoint_triangle_pair_census", "quad_pair_census",
                          "pentagon_triangle_census", "quad_plus_edge_census",
                          "count_pentagons_and_hexagons"])):
            for name in names:
                monkeypatch.setattr(module, name, lambda *a, _n=name, **kw: calls.append(_n))
        monkeypatch.setitem(cli.BUILTIN_GRAPHS, "paley9", lambda: calls.append("build"))
        path = tmp_path / where
        assert run(capsys, *argv.split(), str(path)) == (
            2, "", f"input error: {error}: '{path}'\n")
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before


class TestInputValidation:
    @pytest.mark.parametrize("command", ["check", "census"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, capsys, command, workers):
        code, _, err = run(capsys, command, "--graph", "k3", "--workers", workers)
        assert code == 2
        assert err.startswith("error: --workers must be at least 1")

    @pytest.mark.parametrize("command", ["check", "census"])
    def test_workers_refused_before_the_graph_loads(self, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "_load_graph", lambda source: pytest.fail("graph loaded"))
        assert run(capsys, command, "--graph", "missing.g6", "--workers", "0") == (
            2, "", "error: --workers must be at least 1, got 0\n")

    def test_worker_count_resolution(self):
        from types import SimpleNamespace

        from srg12 import cli

        # valid counts are accepted and ignored
        assert cli._resolve_workers(SimpleNamespace(workers=None)) is None
        assert cli._resolve_workers(SimpleNamespace(workers=3)) is None

    @staticmethod
    def _census_of_cycle(capsys, tmp_path, n):
        from srg12.graph import Graph

        path = tmp_path / f"c{n}.g6"
        graph6.save_file(path, Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
        return run(capsys, "census", "--graph", str(path), "--exhaustive")

    def test_exhaustive_accepts_16_vertices(self, tmp_path, capsys):
        code, out, _ = self._census_of_cycle(capsys, tmp_path, 16)
        assert code == 0
        assert sum(c["count"] for c in json.loads(out)["exhaustive_six_census"]) == 8008

    def test_exhaustive_refuses_17_vertices(self, tmp_path, capsys):
        assert self._census_of_cycle(capsys, tmp_path, 17) == (
            2, "", "error: exhaustive census guarded to 16 vertices, got 17\n"
        )

    def test_exhaustive_refuses_before_other_censuses(self, monkeypatch, capsys):
        from srg12 import census

        calls = []
        for name in ("require_family", "cycle_census", "edge_triple_census",
                     "disjoint_triangle_pair_census", "quad_pair_census",
                     "pentagon_triangle_census", "quad_plus_edge_census",
                     "count_pentagons_and_hexagons"):
            monkeypatch.setattr(census, name, lambda *a, _n=name, **kw: calls.append(_n))
        assert run(capsys, "census", "--graph", "bvls243", "--exhaustive") == (
            2, "", "error: exhaustive census guarded to 16 vertices, got 243\n"
        )
        assert calls == []


def command(argv):
    """``srg12 <argv>`` run without the error handling of ``main``."""
    args = cli.build_parser().parse_args(argv.split())
    return args.func(args)


NOT_FAMILY = ("graph is not a verified srg(4,2,1,2): regular=True lambda_ok=False mu_ok=True "
              "order_relation=False")
# one row per raise of cli.py: the call, its error type and message, and the
# command line with its exit code and last stderr line; c4.g6 is a 4-cycle
CLI_RAISES = [
    (lambda mp: cli._resolve_workers(SimpleNamespace(workers=0)), cli.UsageError,
     "--workers must be at least 1, got 0",
     ("check --graph k3 --workers 0", 2, "error: --workers must be at least 1, got 0")),
    (lambda mp: command("spectral --method sum"), cli.UsageError,
     "spectral --method closed|sum needs --params n,k",
     ("spectral --method sum", 2, "error: spectral --method closed|sum needs --params n,k")),
    (lambda mp: command("spectral --method trace"), cli.UsageError,
     "spectral --method trace needs --graph FILE.g6",
     ("spectral --method trace", 2, "error: spectral --method trace needs --graph FILE.g6")),
    (lambda mp: command("spectral --method trace --graph k3"), cli.UsageError,
     "c6 needs at least 6 vertices, graph has 3",
     ("spectral --method trace --graph k3", 2, "error: c6 needs at least 6 vertices, graph has 3")),
    (lambda mp: cli._int_fields("3", "n,k"), argparse.ArgumentTypeError, "expected n,k",
     ("spectral --params 3", 2, "srg12 spectral: error: argument --params: expected n,k")),
    (lambda mp: command("census --graph c4.g6 --what types"), FamilyViolationError, NOT_FAMILY,
     ("census --graph c4.g6 --what types", 1, f"check failed: {NOT_FAMILY}")),
]
CLI_IDS = ["workers", "closed-sum-params", "trace-graph", "trace-order", "int-fields",
           "census-types"]


def graph6_bytes(rng):
    """A random line: arbitrary bytes, or a graph6 line of a random graph
    whose order and body length agree, left as it is or with one byte
    replaced, removed or inserted, or with a header or CRLF end."""
    if rng.random() < 0.3:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
    n = rng.randrange(24)
    body = bytes(rng.randrange(63, 127) for _ in range(-(-n * (n - 1) // 12)))
    line = bytearray(bytes([63 + n]) + body + b"\n")
    cut = rng.randrange(len(line))
    edit = rng.randrange(6)
    if edit == 1:
        line[cut] = rng.randrange(256)
    elif edit == 2:
        del line[cut]
    elif edit == 3:
        line.insert(cut, rng.randrange(256))
    elif edit == 4:
        line = b">>graph6<<" + line
    elif edit == 5:
        line = line[:-1] + b"\r\n"
    return bytes(line)


def field(rng, bound):
    """A random --params or --max-k field: mostly an integer of magnitude at
    most ``bound``, small more often than not."""
    pick = rng.random()
    if pick < 0.1:
        return rng.choice(["", "x", "1.5", "-", "0x10", " 7"])
    if pick < 0.6:
        return str(rng.randint(-3, 30))
    return str(rng.randint(-bound, bound))


class TestMalformedInputProperty:
    """Seeded random inputs through ``main``: every run exits 0, 1 or 2 and
    no exception escapes it (in a process, a traceback on stderr)."""

    def assert_handled(self, capsys, argv, what):
        code = exit_code(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, what)

    def test_random_graph6_files(self, monkeypatch, capsys, tmp_path):
        rng = random.Random(1616)
        monkeypatch.chdir(tmp_path)
        for _ in range(60):
            data = graph6_bytes(rng)
            Path("g.g6").write_bytes(data)
            for argv in ("check", "verify", "census", "spectral --method trace"):
                self.assert_handled(capsys, [*argv.split(), "--graph", "g.g6"], data)

    def test_random_params_and_max_k(self, capsys):
        # params walks every even k up to --max-k: a huge bound is slow, not
        # wrong, so its values stay at most 2000
        rng = random.Random(1617)
        for _ in range(40):
            fields = ",".join(field(rng, 10**6) for _ in range(rng.choice([2, 2, 4, 4, 3])))
            k = rng.randint(-3, 1000)
            pair = rng.choice([fields, f"{(k * k + 2) // 2},{k}"])  # n = (k^2+2)/2 or not
            for argv in (["verify", "--graph", "paley9", "--params", fields],
                         ["spectral", "--method", rng.choice(["closed", "sum"]),
                          "--params", pair]):
                self.assert_handled(capsys, argv, argv[-1])
            max_k = field(rng, 2000)
            self.assert_handled(capsys, ["params", "--max-k", max_k], max_k)
