"""Run perfbench in alternating parent/change pairs and write BENCH_<pr>.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent REV --pr N WORKLOAD:PAIRS ...

for example ``--parent HEAD~1 --pr 17 exhaustive:10 ledger-serial:5 screen:5``.

The parent revision is exported with ``git archive`` into a temporary
directory; the change is a copy of the working tree without its
``__pycache__`` directories, ``.git`` and ``.perfbench``, so neither side
starts with compiled modules or earlier benchmark files.  Both copies are
removed afterwards.  Pair i of a
workload runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in both trees (T is ``run_seconds`` of ``BENCHMARK.json``), the parent first
when i is even and the change first when i is odd, with the same seed
S = seed base + i + 1 on both sides.  Each side runs its own checkout's
``perfbench/`` on its own ``src/``.  A run that exits nonzero or reports
``correct: false`` stops the tool.  The output keeps every pair's result
line, each side's total of failed operations and, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles and the number of pairs
the change won.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full commit id."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run([*git, "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return commit


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree} is not correct: {lines[-1]}")
    return result


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        sign = 1 if metric["better"] == "lower" else -1
        row = {}
        for side, values in sides.items():
            row[f"{side}_median"] = round(statistics.median(values), 4)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
                row[f"{side}_q1_q3"] = [round(q1, 4), round(q3, 4)]
        row["change_wins"] = sum(sign * c < sign * p
                                 for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = row
    return summary


def host() -> str:
    model = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    text = (f"{len(os.sched_getaffinity(0))}-vCPU {model}, "
            f"Python {platform.python_version()}")
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        text += ", PYTHONDONTWRITEBYTECODE set (modules compiled at import)"
    return text


def workload_spec(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    if not name or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS, got {text!r}")
    return name, int(pairs)


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="pair i uses seed SEED_BASE + i + 1")
    parser.add_argument("workloads", nargs="+", type=workload_spec, metavar="WORKLOAD:PAIRS")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]

    out = {
        "what": "perfbench result lines (the last stdout line of perfbench/run.py) "
                "for the parent commit and this change, in alternating pairs",
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "parent_commit": None,
        "host": host(),
        "order": "pair i runs the parent first when i is even and the change first "
                 "when i is odd; both sides of a pair use the same seed",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        out["parent_commit"] = export(args.parent, parent)
        shutil.copytree(ROOT, change,
                        ignore=shutil.ignore_patterns("__pycache__", ".git", ".perfbench"))
        for workload, count in args.workloads:
            seeds = [args.seed_base + i + 1 for i in range(count)]
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(parent if side == "parent" else change,
                                          workload, seed, seconds)
                print(f"{workload} pair {i} seed {seed}: " + ", ".join(
                    f"{side} cpu_ms.p50 {pair[side]['metrics']['cpu_ms.p50']['value']:.1f}"
                    for side in ("parent", "change")), file=sys.stderr, flush=True)
                pairs.append(pair)
            failed = {side: sum(p[side]["failed"] for p in pairs)
                      for side in ("parent", "change")}
            out["workloads"][workload] = {"pair_count": count, "seeds": seeds,
                                          "failed": failed,
                                          "summary": summarize(pairs, benchmark["end_to_end"]),
                                          "pairs": pairs}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
