"""The srg12 benchmark: closed-loop workloads with exact output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see perfbench/README.md for why each exists):

    ledger-serial    srg12 check --workers 1 on a relabelled BvLS 243
    ledger-parallel  the same at --workers = number of usable CPUs (run by
                     hand; BENCHMARK.json leaves it out as too unsteady)
    screen           srg12 check on a stream of non-family candidates
                     and a few relabelled family members
    exhaustive       srg12 census --exhaustive on 16-vertex graphs and Paley 9

One client sends one command at a time to ``srg12.cli.main`` in a freshly
forked process (perfbench/worker.py) while less than S seconds have passed;
every output is checked (perfbench/checks.py).  With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 every operation also
runs traced and the line carries the per-layer metrics (perfbench/spans.py).
--smoke runs each workload once on tiny inputs, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import checks
import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ledger-serial", "ledger-parallel", "screen", "exhaustive")
SETUP_REPEATS = 7
NPROC = len(os.sched_getaffinity(0))

# screen stream: candidates of each kind per block of the seeded stream,
# listed from the cheapest kind to the dearest.  The counts put the median
# inside the switched Paley 9 group and p95 inside the regular64 group
# (6-regular, 40-64 vertices), not on a boundary between two kinds where a
# small change of mix would move them.
SCREEN_BLOCK = {"srg99": 6, "k3": 1, "paley9-switched": 6, "bvls243-switched": 3,
                "paley9": 1, "regular64": 3}
SCREEN_BLOCKS = 12
SMOKE_SCREEN_BLOCK = {"srg99": 3, "k3": 1, "paley9-switched": 3, "bvls243-switched": 2,
                      "paley9": 1, "regular64": 2}
# 6-regular 16-vertex graphs after Paley 9: regular graphs vary less than
# G(n, m) in how many distinct labelled 6-subsets they have, which sets the
# cost of a cold exhaustive census
EXHAUSTIVE_GRAPHS = 24


def _spec(name, base=None, rows=None, perm=None, switches=0, rng=None, expect="fail"):
    return {"name": name, "base": base, "rows": rows, "perm": perm,
            "switches": switches, "expect": expect,
            "switch_seed": rng.getrandbits(64) if switches else 0}


_ORDER = {"k3": 3, "paley9": 9, "bvls243": 243}


def _family(name, base, rng, switches=0):
    return _spec(name, base=base, perm=inputs.random_perm(_ORDER[base], rng),
                 switches=switches, rng=rng, expect="fail" if switches else "pass")


def plan_graphs(workload: str, rng: random.Random, smoke: bool) -> list[dict]:
    """The seeded inputs of a workload, in the order they are sent."""
    if workload.startswith("ledger"):
        return [_family("ledger", "paley9" if smoke else "bvls243", rng)]
    if workload == "exhaustive":
        n, d = (10, 4) if smoke else (16, 6)
        graphs = [_family("paley9", "paley9", rng)]
        for i in range(1 if smoke else EXHAUSTIVE_GRAPHS):
            graphs.append(_spec(f"g{i:02d}", rows=inputs.random_regular(n, d, rng),
                                expect="any"))
        return graphs
    block = SMOKE_SCREEN_BLOCK if smoke else SCREEN_BLOCK
    kinds = [k for k, count in block.items() for _ in range(count)]
    graphs = []
    for _ in range(1 if smoke else SCREEN_BLOCKS):
        rng.shuffle(kinds)
        for kind in kinds:
            name = f"c{len(graphs):03d}-{kind}"
            if kind == "srg99":
                graphs.append(_spec(name, rows=inputs.random_regular(99, 14, rng)))
            elif kind == "regular64":
                n = rng.randrange(40, 65, 2)
                graphs.append(_spec(name, rows=inputs.random_regular(n, 6, rng)))
            elif kind.endswith("-switched"):
                graphs.append(_family(name, kind.split("-")[0], rng,
                                      switches=rng.randint(1, 3)))
            else:
                graphs.append(_family(name, kind, rng))
    return graphs


def command(workload: str, path: str, out: str) -> list[str]:
    if workload == "ledger-serial":
        return ["check", "--graph", path, "--workers", "1", "--json", out]
    if workload == "ledger-parallel":
        return ["check", "--graph", path, "--workers", str(NPROC), "--json", out]
    if workload == "screen":
        return ["check", "--graph", path, "--json", out]
    return ["census", "--graph", path, "--exhaustive", "--json", out]


class Checker:
    """Binds the checks of a workload to its prepared inputs."""

    def __init__(self, workload: str, smoke: bool, graphs: list[dict], manifest: dict):
        self.workload = workload
        self.specs = {g["name"]: g for g in graphs}
        self.manifest = manifest
        if workload.startswith("ledger"):
            self.golden = checks.load_golden("paley9" if smoke else "bvls243")
        if workload == "exhaustive":
            from srg12 import Graph, build_paley9, type_census
            from srg12.census import named_type_certificates
            from srg12.spectral import charpoly_prefix

            self.c6 = {name: charpoly_prefix(Graph(len(e["rows"]), tuple(e["rows"])), 6).c6
                       for name, e in manifest.items()}
            tc = type_census(build_paley9())
            self.named = {name: (cert, getattr(tc, name))
                          for name, cert in named_type_certificates().items()}

    def __call__(self, name: str, result: dict, out: Path):
        entry = self.manifest[name]
        try:
            payload = json.loads(out.read_text()) if out.exists() else None
        except ValueError as exc:
            return f"unreadable JSON output: {exc}"
        if payload is None and not result["error"]:
            return f"no JSON output (exit code {result['rc']})"
        try:
            if self.workload.startswith("ledger"):
                return checks.check_ledger(result, payload, self.golden,
                                           entry["fingerprint"])
            if self.workload == "screen":
                return checks.check_screen(result, payload, self.specs[name]["expect"],
                                           entry["rows"])
            return checks.check_exhaustive(result, payload, entry["rows"], self.c6[name],
                                           self.named if name == "paley9" else None)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"


class Worker:
    """Client side of perfbench/worker.py: one request in flight at a time."""

    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], run_id: int, spans_path) -> dict:
        self.proc.stdin.write(json.dumps(
            {"argv": argv, "run": run_id, "spans": spans_path}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("operation server exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def setup(src: Path, plan_path: Path, out_dir: Path, repeats: int) -> list[dict]:
    """Run the set-up in fresh interpreters; every repeat writes the same files."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), str(src), str(plan_path),
             str(out_dir)], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_record(args, src: Path) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (src.parent / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(src.parent), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "python": platform.python_version(), "nproc": NPROC,
            "cpu_model": cpu_model, "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "srg12" / "__init__.py").is_file():
        print(f"srg12 sources not found under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    rng = random.Random(f"srg12-bench:{args.workload}:{args.seed}:{args.smoke}")
    graphs = plan_graphs(args.workload, rng, args.smoke)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({"graphs": graphs}))
    samples = setup(src, plan_path, work / "inputs", 1 if args.smoke else SETUP_REPEATS)
    manifest = json.loads((work / "inputs" / "manifest.json").read_text())

    sys.path.insert(0, str(src))
    check = Checker(args.workload, args.smoke, graphs, manifest)
    out = work / "out.json"
    spans_path = work / "spans.jsonl"
    record = run_record(args, src)

    plain, traced, failures = [], [], []
    worker = Worker(src)
    try:
        start = perf_counter()
        i = 0
        while True:
            name = graphs[i % len(graphs)]["name"]
            argv = command(args.workload, manifest[name]["path"], str(out))
            # traced and untraced copies take turns going first, so the
            # overhead estimate does not carry an order effect
            modes = (None, str(spans_path))[::1 - 2 * (i % 2)] if args.trace else (None,)
            for mode in modes:
                out.unlink(missing_ok=True)
                result = worker.run(argv, i, mode)
                result["name"] = name
                (traced if mode else plain).append(result)
                bad = check(name, result, out)
                if bad:
                    failures.append(f"{name}: {bad}")
            i += 1
            if i == len(graphs) if args.smoke else perf_counter() - start >= args.seconds:
                break
    finally:
        worker.close()

    walls = [r["wall_s"] for r in plain]
    if args.trace:
        records = [json.loads(line) for line in spans_path.read_text().splitlines()]
        metrics = spans.per_layer(records, statistics.median(
            s["build_bvls243_s"] for s in samples))
        units = {}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(walls))
        record["tracing_overhead_s"] = overhead
        record["tracing_overhead_share"] = overhead / statistics.median(walls)
    else:
        # gated metrics count CPU time: on a shared virtual machine the wall
        # time of an operation also holds the time the host ran other guests
        cpus = [r["cpu_s"] for r in plain]
        metrics = {
            "setup_s": statistics.median(s["setup_cpu_s"] for s in samples),
            "cpu_ms.p50": 1000 * statistics.median(cpus),
            "cpu_ms.p95": 1000 * percentile(cpus, 0.95),
            "ops_per_cpu_s": len(cpus) / sum(cpus),
            "peak_rss_mb": max(r["maxrss_kb"] for r in plain) / 1024,
        }
        units = {"setup_s": "s", "ops_per_cpu_s": "1/s", "peak_rss_mb": "MB"}
    record.update(op_ms_p50=1000 * statistics.median(walls),
                  op_ms_p95=1000 * percentile(walls, 0.95),
                  ops_per_s=len(walls) / sum(walls),
                  setup_wall_s=statistics.median(s["setup_wall_s"] for s in samples))
    by_kind: dict[str, list[float]] = {}
    for r in plain:
        by_kind.setdefault(r["name"].split("-", 1)[-1], []).append(r["wall_s"])
    record["op_ms_p50_by_kind"] = {kind: 1000 * statistics.median(w)
                                   for kind, w in sorted(by_kind.items())}
    attempted = len(plain) + len(traced)
    record.update(operations=len(plain), attempted=attempted, failed=len(failures),
                  failures=failures[:20],
                  setup_cpu_s=[s["setup_cpu_s"] for s in samples])
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name, _unit(name))}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "cpu_s": "s", "base_s": "s", "calls": "count",
            "objects": "count", "objects_per_s": "1/s", "p50": "ms", "p95": "ms"}.get(
                suffix, "ratio")


if __name__ == "__main__":
    sys.exit(main())
