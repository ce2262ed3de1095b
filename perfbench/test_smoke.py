"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest -q perfbench/test_smoke.py

Each workload, including ledger-parallel, which BENCHMARK.json does not
list, runs in smoke mode (tiny inputs, every correctness check on), traced
and untraced, and must print exactly the metrics BENCHMARK.json declares.  The checks must reject wrong outputs, and the benchmark must
refuse to run without the package sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr + done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", "ledger-serial", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


OK = {"rc": 0, "error": None}


def test_ledger_oracle_rejects_any_changed_entry():
    golden = checks.load_golden("paley9")
    report = {"graph_meta": dict(golden["graph_meta"], source="X"),
              "entries": copy.deepcopy(golden["entries"])}
    assert checks.check_ledger(OK, report, golden, "X") is None
    assert checks.check_ledger(OK, report, golden, "Y") is not None
    report["entries"][-1]["actual"] += 1
    assert checks.check_ledger(OK, report, golden, "X") is not None
    assert checks.check_ledger({"rc": 1, "error": None}, report, golden, "X")


def test_screen_oracle_needs_a_true_witness():
    # path 0-1-2: edge (0, 1) has no common neighbour, so condition I fails
    rows = [0b010, 0b101, 0b010]
    entry = {"status": "fail", "detail": "edge (0, 1) has 0 common neighbours"}
    report = {"entries": [entry]}
    assert checks.check_screen({"rc": 1, "error": None}, report, "fail", rows) is None
    assert checks.check_screen(OK, report, "fail", rows) is not None
    entry["detail"] = "edge (0, 2) has 0 common neighbours"  # not an edge
    assert checks.check_screen({"rc": 1, "error": None}, report, "fail", rows)
    crashed = {"rc": None, "error": "Traceback\nValueError: boom\n"}
    assert "ValueError" in checks.check_screen(crashed, None, "pass", rows)


def test_exhaustive_oracle_checks_the_determinant_sum():
    rows = [0] * 6  # empty graph: one class, det 0, c6 0
    payload = {"exhaustive_six_census": [
        {"certificate": 0, "edges": 0, "count": 1, "det": 0, "cover_count": 0}]}
    assert checks.check_exhaustive(OK, payload, rows, 0, None) is None
    assert checks.check_exhaustive(OK, payload, rows, 1, None) is not None
    payload["exhaustive_six_census"][0]["count"] = 2
    assert checks.check_exhaustive(OK, payload, rows, 0, None) is not None


def test_malformed_output_is_a_failed_operation(tmp_path):
    check = run.Checker("screen", True, [{"name": "x", "expect": "fail"}],
                        {"x": {"rows": [0, 0, 0], "fingerprint": ""}})
    out = tmp_path / "out.json"
    out.write_text('{"entries": 5}')
    assert check("x", {"rc": 1, "error": None}, out).startswith("malformed output")
    out.write_text("not json")
    assert check("x", {"rc": 1, "error": None}, out).startswith("unreadable JSON")
