"""Correctness checks on every operation's output.

Each check returns None when the output is right, or a one-line reason.
A wrong exit code, an exception that escaped ``cli.main`` and a wrong
report all count as a failed operation.
"""

from __future__ import annotations

import json
import re
from math import comb
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the paper's headline values for BvLS 243, tying the stored golden ledger
# to the constants it must contain: p6 = hexagon bound, c6, Makhnev n3 = 0
_N, _K = 243, 22
BVLS243_ANCHORS = {
    "hexagons_equal_bound": _N * _K * (_K - 2) * (2 * _K * _K - 21 * _K + 53) // 12,
    "c6_closed_vs_trace": -2_975_686_065,
    "makhnev_condition": 0,
}


def load_golden(name: str) -> dict:
    """Golden ledger (entries and n, k) of a family member, from the seed code."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    if name == "bvls243":
        actual = {e["name"]: e["actual"] for e in golden["entries"]}
        for entry, value in BVLS243_ANCHORS.items():
            if actual.get(entry) != value:
                raise ValueError(f"golden {name}: {entry} is {actual.get(entry)}, "
                                 f"expected {value}")
    return golden


def _exit_code(result: dict, want: int):
    if result["error"]:
        return "exception escaped cli.main: " + result["error"].strip().splitlines()[-1]
    if result["rc"] != want:
        return f"exit code {result['rc']}, expected {want}"
    return None


def check_ledger(result: dict, report, golden: dict, fingerprint: str):
    """Exact reproduction of the golden ledger, with the input's fingerprint."""
    bad = _exit_code(result, 0)
    if bad:
        return bad
    meta = dict(golden["graph_meta"], source=fingerprint)
    if report["graph_meta"] != meta:
        return f"graph_meta {report['graph_meta']} != {meta}"
    if report["entries"] != golden["entries"]:
        diff = [g["name"] for g, e in zip(golden["entries"], report["entries"]) if g != e]
        return f"ledger differs from golden: {diff or 'entry count'}"
    return None


_WITNESS = re.compile(r"^(non-edge|edge) \((\d+), (\d+)\) has (\d+) common neighbours$")


def _true_witness(detail: str, rows: list[int]) -> bool:
    """Does the entry name a pair that really breaks condition I or II?"""
    m = _WITNESS.match(detail)
    if not m:
        return False
    kind, u, v, common = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    if max(u, v) >= len(rows) or u == v:
        return False
    adjacent = bool(rows[u] >> v & 1)
    return (adjacent == (kind == "edge")
            and (rows[u] & rows[v]).bit_count() == common
            and common != (1 if adjacent else 2))


def check_screen(result: dict, report, expect: str, rows: list[int]):
    """Family members pass; perturbed candidates fail with a true witness."""
    if expect == "pass":
        bad = _exit_code(result, 0)
        if bad:
            return bad
        failed = [e["name"] for e in report["entries"] if e["status"] == "fail"]
        return f"family member failed {failed}" if failed else None
    bad = _exit_code(result, 1)
    if bad:
        return bad
    if not any(e["status"] == "fail" and _true_witness(e["detail"], rows)
               for e in report["entries"]):
        return "no fail entry names a violating pair"
    return None


def check_exhaustive(result: dict, payload, rows: list[int], c6: int,
                     named_counts: dict | None):
    """Subset total, Σ count·det = c6 (trace route), Σ count·edges, named types."""
    bad = _exit_code(result, 0)
    if bad:
        return bad
    n = len(rows)
    m = sum(r.bit_count() for r in rows) // 2
    classes = payload["exhaustive_six_census"]
    total = sum(c["count"] for c in classes)
    if total != comb(n, 6):
        return f"class counts sum to {total}, expected C({n},6) = {comb(n, 6)}"
    det_sum = sum(c["count"] * c["det"] for c in classes)
    if det_sum != c6:
        return f"sum of count*det {det_sum} != charpoly c6 {c6}"
    edge_sum = sum(c["count"] * c["edges"] for c in classes)
    if edge_sum != m * comb(n - 2, 4):
        return f"sum of count*edges {edge_sum} != |E| C(n-2,4) = {m * comb(n - 2, 4)}"
    if named_counts is not None:
        by_cert = {c["certificate"]: c["count"] for c in classes}
        wrong = {name: (by_cert.get(cert, 0), want)
                 for name, (cert, want) in named_counts.items()
                 if by_cert.get(cert, 0) != want}
        if wrong:
            return f"named types (exhaustive, targeted) differ: {wrong}"
    return None
