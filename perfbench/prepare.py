"""Benchmark set-up: turn a plan into graph6 files through the package.

Usage: python3 perfbench/prepare.py SRC_DIR PLAN.json OUT_DIR

Run in a fresh interpreter.  The timed part is what a user pays before the
first audit: importing ``srg12``, building the family members a plan starts
from, constructing every candidate ``Graph`` and graph6-encoding it to a
file.  The benchmark's own seeded generation (relabelling, edge switches,
the independent condition check) runs with the clocks stopped.  Prints one
JSON line with the CPU and wall seconds of the timed part and writes
OUT_DIR/manifest.json.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from inputs import condition_violation, relabel, switch_edges


def fingerprint(encoded: bytes) -> str:
    """The report's ``graph_meta.source`` for a graph with this graph6 line."""
    if len(encoded) <= 48:
        return encoded.decode("ascii")
    return "sha256:" + hashlib.sha256(encoded).hexdigest()[:16]


def candidate_rows(spec: dict, bases: dict) -> list[int]:
    """Generate one candidate's adjacency rows from its plan entry."""
    rows = list(bases[spec["base"]].rows) if spec["base"] else list(spec["rows"])
    if spec["perm"]:
        rows = relabel(rows, spec["perm"])
    if spec["switches"]:
        rng = random.Random(spec["switch_seed"])
        rows = switch_edges(rows, rng, spec["switches"])
        # a switch that happens to keep both conditions would hand the
        # program a family member labelled as a perturbed candidate
        while condition_violation(rows) is None:
            rows = switch_edges(rows, rng, 1)
    want_family = spec["expect"] == "pass"
    if spec["expect"] != "any" and (condition_violation(rows) is None) != want_family:
        raise SystemExit(f"plan error: {spec['name']} should "
                         f"{'' if want_family else 'not '}be a family member")
    return rows


class Stopwatch:
    """Wall and CPU seconds summed over the timed segments of one set-up."""

    def __init__(self):
        self.wall = self.cpu = 0.0

    @contextmanager
    def timed(self):
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu


def main(src: str, plan_path: str, out_dir: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, src)

    clock = Stopwatch()
    with clock.timed():
        import srg12
        from srg12 import graph6

    builders = {"k3": srg12.build_k3, "paley9": srg12.build_paley9,
                "bvls243": srg12.build_bvls243}
    bases = {}
    build_bvls243_s = 0.0
    for name in sorted({g["base"] for g in plan["graphs"] if g["base"]}):
        with clock.timed():
            t0 = time.perf_counter()
            bases[name] = builders[name]()
            if name == "bvls243":
                build_bvls243_s = time.perf_counter() - t0

    manifest = {}
    for spec in plan["graphs"]:
        rows = candidate_rows(spec, bases)
        path = out / f"{spec['name']}.g6"
        with clock.timed():
            encoded = graph6.encode(srg12.Graph(len(rows), tuple(rows)))
            path.write_bytes(encoded + b"\n")
        manifest[spec["name"]] = {
            "path": str(path), "rows": rows, "fingerprint": fingerprint(encoded),
        }
    (out / "manifest.json").write_text(json.dumps(manifest))
    print(json.dumps({"setup_cpu_s": clock.cpu, "setup_wall_s": clock.wall,
                      "build_bvls243_s": build_bvls243_s}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
