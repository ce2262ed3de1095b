"""Run a fixed list of CLI commands in a parent revision and in this
checkout, and report every difference in their output.

Usage (from the repository root):

    python3 tools/compare_reports.py --parent REV

The parent revision is exported with ``git archive`` (``bench_pairs.export``)
into a temporary directory, which is removed afterwards.  Each command runs
as ``python -m srg12.cli ...`` with ``PYTHONPATH`` set to one tree's ``src``,
in an empty working directory of its own that also holds the two graph6
input files (a 5-cycle and the circulant C16(1, 3)), without
``SRG12_PROGRESS`` and without writing bytecode.  A command with
``--json``/``--out`` writes ``out.json``/``out.g6`` there.  The tool
compares the exit code, stdout, stderr and the written file, prints one
line per command (``same`` or ``DIFF`` and what differs) and exits 1 if any
command differs.  Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

INPUTS = {"c5.g6": "Dhc\n", "c16.g6": "OlSggSD?gA_D?D_Ag?l?D\n"}

# each command, with the output file it writes
COMMANDS = [
    *(f"check --graph {g} --json out.json" for g in ("k3", "paley9", "bvls243", "c5.g6")),
    *(f"census --graph paley9 --what {w} --json out.json"
      for w in ("all", "cycles", "types", "triples")),
    *(f"census --graph bvls243 --what {w} --json out.json" for w in ("all", "cycles")),
    "census --graph k3 --what all --json out.json",
    "census --graph c16.g6 --exhaustive --json out.json",
    "verify --graph paley9",
    "verify --graph bvls243",
    "spectral --params 99,14 --json out.json",
    "params --max-k 1000 --json out.json",
    "construct --graph bvls243 --out out.g6",
]


def run(src: Path, command: str) -> dict:
    """Exit code, stdout, stderr and written file of ``command`` run on ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "SRG12_PROGRESS"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="srg12-compare-") as work:
        for name, text in INPUTS.items():
            Path(work, name).write_text(text)
        done = subprocess.run([sys.executable, "-m", "srg12.cli", *command.split()],
                              cwd=work, env=env, capture_output=True, timeout=600)
        written = [Path(work, name) for name in ("out.json", "out.g6")]
        return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
                "file": b"".join(p.read_bytes() for p in written if p.exists())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="srg12-parent-") as tmp:
        commit = export(args.parent, Path(tmp))
        print(f"parent {commit[:12]} against {ROOT}")
        differing = 0
        for command in COMMANDS:
            parent, change = run(Path(tmp, "src"), command), run(ROOT / "src", command)
            diff = [key for key in parent if parent[key] != change[key]]
            differing += bool(diff)
            print(f"{'DIFF' if diff else 'same'}  {command}"
                  + (f"  ({', '.join(diff)})" if diff else ""))
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
