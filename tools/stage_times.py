"""Per-stage CPU time of the ledger on BvLS 243, for one or more src/ trees.

Usage (from the repository root):

    python3 tools/stage_times.py [SRC ...]

for example ``python3 tools/stage_times.py ../parent/src src``.
SRC defaults to this checkout's ``src``.  Each run is a fresh interpreter
with ``PYTHONPATH=SRC`` that builds BvLS 243 and times ``run_all_checks`` on
it with ``time.process_time``, so no cache survives from one run to the
next.  A stage's time is read through the ``progress`` hook: it is the time
since the previous stage ended, so it also holds the entries checked in
between and, for the first stage, the verification scan.  Rounds alternate
over the trees; the table gives the minimum over RUNS runs of each stage
and of the whole ``run_all_checks``, in seconds, one column per tree.  A run
whose ledger does not pass stops the tool.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 7  # runs per tree

CHILD = """
import json, time
from srg12.constructions import build_bvls243
from srg12.identities import run_all_checks

g = build_bvls243()
times = {}
last = [time.process_time()]

def progress(name):
    now = time.process_time()
    times[name] = now - last[0]
    last[0] = now

start = last[0]
report = run_all_checks(g, progress=progress)
times["run_all_checks"] = time.process_time() - start
print(json.dumps({"passed": report.passed, "times": times}))
"""


def one_run(src: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"run on {src} exited {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["passed"]:
        raise RuntimeError(f"the ledger on {src} does not pass")
    return result["times"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT / "src"],
                        metavar="SRC", help="src/ directories to time")
    args = parser.parse_args(argv)
    best: list[dict[str, float]] = [{} for _ in args.trees]
    for _ in range(RUNS):
        for tree, mins in zip(args.trees, best):
            for name, seconds in one_run(tree.resolve()).items():
                mins[name] = min(seconds, mins.get(name, seconds))
    names = list(best[0])
    width = max(map(len, names))
    print(f"{'stage':<{width}}  " + "  ".join(str(t) for t in args.trees))
    for name in names:
        print(f"{name:<{width}}  " + "  ".join(
            f"{mins[name]:.3f}" if name in mins else "-" for mins in best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
