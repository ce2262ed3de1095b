import json
from pathlib import Path

import pytest

from srg12 import graph6
from srg12.cli import main


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
    accepted and has no effect, so no byte depends on it."""

    @pytest.mark.parametrize("name, workers", [
        pytest.param(name, workers, id=name + suffix)
        for name in ("paley9", "bvls243")
        for workers, suffix in ((["--workers", "1"], ""),
                                (["--workers", "2"], "-workers2"))
    ])
    def test_check_json_matches_golden(self, capsys, tmp_path, name, workers):
        out_json = tmp_path / "report.json"
        code, _, _ = run(capsys, "check", "--graph", name, *workers,
                         "--json", str(out_json))
        assert code == 0
        golden = Path(__file__).parent / "data" / f"check_{name}.json"
        assert out_json.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", ["paley9", "bvls243"])
    def test_census_json_matches_golden(self, capsys, tmp_path, name, workers):
        out_json = tmp_path / "census.json"
        code, _, _ = run(capsys, "census", "--graph", name, "--what", "all",
                         "--workers", workers, "--json", str(out_json))
        assert code == 0
        golden = Path(__file__).parent / "data" / f"census_{name}.json"
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

        calls = {"verify_srg": 0, "count_hexagons": 0, "_pentagon_scan": 0,
                 "edge_triple_census": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        wrapper = counted(graph, "verify_srg")
        for module in (graph, census, cli):
            monkeypatch.setattr(module, "verify_srg", wrapper)
        for name in ("count_hexagons", "_pentagon_scan", "edge_triple_census"):
            monkeypatch.setattr(census, name, counted(census, name))
        code, out, _ = run(capsys, "census", "--graph", "paley9", "--what", "all",
                           "--workers", "1")
        assert code == 0
        assert json.loads(out)["cycles"] == {"p3": 6, "p4": 9, "p5": 0, "p6": 6}
        assert calls == {"verify_srg": 1, "count_hexagons": 1, "_pentagon_scan": 1,
                         "edge_triple_census": 1}

    def test_types_on_non_family_graph_fails(self, tmp_path, capsys):
        from srg12.graph import Graph

        path = tmp_path / "c4.g6"
        graph6.save_file(path, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        code, _, err = run(capsys, "census", "--graph", str(path),
                           "--what", "types", "--workers", "1")
        assert code == 1
        assert "srg" in err


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

    def test_trace_on_builtin(self, capsys):
        code, out, _ = run(capsys, "spectral", "--method", "trace",
                           "--graph", "paley9")
        assert code == 0
        assert "-168" in out

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

    def test_trace_below_six_vertices_exit_2(self, capsys):
        code, _, err = run(capsys, "spectral", "--method", "trace",
                           "--graph", "k3")
        assert code == 2
        assert "6 vertices" in err

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
        prog.tick(1, 10)   # 0.3s: suppressed
        prog.tick(2, 10)   # 1.5s: emitted
        prog.tick(3, 10)   # 1.6s: suppressed
        prog.tick(4, 10)   # 3.0s: emitted
        err = capsys.readouterr().err
        assert err.count("demo:") == 2

    def test_silent_without_tty_or_env(self, monkeypatch, capsys):
        from srg12 import cli

        monkeypatch.delenv("SRG12_PROGRESS", raising=False)
        prog = cli._Progress("demo")
        prog.tick(1, 10)
        assert capsys.readouterr().err == ""


class TestErrors:
    def test_malformed_graph6_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_bytes(b"D\x01\x02\n")
        code, _, err = run(capsys, "check", "--graph", str(bad), "--workers", "1")
        assert code == 2
        assert "byte" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--graph", "/nonexistent/file.g6")
        assert code == 2


class TestInputValidation:
    @pytest.mark.parametrize("command", ["check", "census"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, capsys, command, workers):
        code, _, err = run(capsys, command, "--graph", "k3", "--workers", workers)
        assert code == 2
        assert err.startswith("error: --workers must be at least 1")

    def test_worker_count_resolution(self):
        from types import SimpleNamespace

        from srg12 import cli

        # valid counts are accepted and ignored
        assert cli._resolve_workers(SimpleNamespace(workers=None)) is None
        assert cli._resolve_workers(SimpleNamespace(workers=3)) is None

    @pytest.mark.parametrize("limit", ["-1", "17", "243"])
    def test_exhaustive_limit_out_of_range_exit_2(self, capsys, limit):
        code, out, err = run(capsys, "census", "--graph", "paley9", "--exhaustive",
                             "--exhaustive-limit", limit, "--workers", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --exhaustive-limit must be in 0..16")

    def test_exhaustive_limit_in_range(self, capsys):
        code, _, err = run(capsys, "census", "--graph", "paley9", "--what", "cycles",
                           "--exhaustive", "--exhaustive-limit", "8", "--workers", "1")
        assert code == 2  # Paley 9 is above the chosen limit
        assert "guarded to 8 vertices" in err
        code, out, _ = run(capsys, "census", "--graph", "paley9", "--what", "cycles",
                           "--exhaustive", "--exhaustive-limit", "9", "--workers", "1")
        assert code == 0
        assert sum(c["count"] for c in json.loads(out)["exhaustive_six_census"]) == 84
