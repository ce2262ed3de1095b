"""Run a fixed list of CLI commands in a parent revision and in this
checkout, and report every difference in their output.

Usage (from the repository root):

    python3 tools/compare_reports.py --parent REV

The parent revision is exported with ``git archive`` (``bench_pairs.export``)
into a temporary directory, which is removed afterwards.  Each command runs
as ``python -m srg12.cli ...`` with ``PYTHONPATH`` set to one tree's ``src``,
in an empty working directory of its own that also holds the graph6
input files, without ``SRG12_PROGRESS`` and without writing bytecode.
Three inputs are fixed lines (a 4-cycle, a 5-cycle and the circulant
C16(1, 3)), and five are malformed lines: sparse6, digraph6, a NUL byte
after a line and alone, and a CRLF end.  Five more are generated from a
fixed seed with perfbench's standard-library input helpers, so that large
graphs also reach the commands through the decoder: a random 14-regular
graph on 99 vertices, a relabelled BvLS 243 with one double-edge switch, a
relabelled BvLS 243 written with the ``>>graph6<<`` header and a CRLF line
end, and random 6-regular graphs on 257 and 300 vertices, the widest
matrices that the decoder's transpose and the symmetry check of ``Graph``
meet here.  A command with ``--json``/``--out`` writes
``out.json``/``out.g6`` there.  The refusal commands, one per command line
of the tier-1 raise tables, and ``verify`` on the malformed lines, a
directory and a missing file, cover the exit codes and error lines of
refused input.  The tool compares the exit code, stdout, stderr and the
written file, prints one line per command (``same`` or ``DIFF`` and what
differs) and exits 1 if any command differs.  Standard library only; not
part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

sys.path.insert(0, str(ROOT / "perfbench"))
from inputs import random_perm, random_regular, relabel, switch_edges  # noqa: E402

# parity-check matrix [A | I5] of the ternary Golay code, as in constructions.py
GOLAY = ((1, 2, 2, 2, 1, 0, 1, 0, 0, 0, 0), (0, 1, 2, 2, 2, 1, 0, 1, 0, 0, 0),
         (2, 1, 2, 0, 1, 2, 0, 0, 1, 0, 0), (1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0),
         (2, 2, 2, 1, 0, 1, 0, 0, 0, 0, 1))


def bvls243() -> list[int]:
    """Rows of the Cayley graph of GF(3)^5 on the 22 signed Golay columns."""
    conn = [[sign * row[col] % 3 for row in GOLAY] for col in range(11) for sign in (1, -1)]
    digits = [[v // 3**i % 3 for i in range(5)] for v in range(243)]
    return [sum(1 << sum((d + c) % 3 * 3**i for i, (d, c) in enumerate(zip(digits[v], dc)))
                for dc in conn) for v in range(243)]


def graph6_line(rows: list[int]) -> bytes:
    """The graph6 line of ``rows``, bit by bit."""
    n = len(rows)
    bits = "".join(str(rows[i] >> j & 1) for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    order = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    return bytes(v + 63 for v in order + [int(bits[p:p + 6], 2) for p in range(0, len(bits), 6)])


MALFORMED = {"s6.g6": b":Fa@x^\n", "d6.g6": b"&DOOOW?\n", "nul.g6": b"Dhc\0\n",
             "lone-nul.g6": b"\0\n", "crlf.g6": b"Dhc\r\n"}


def inputs() -> dict[str, bytes]:
    rng = random.Random(2806)
    bvls = relabel(bvls243(), random_perm(243, rng))
    return {"c4.g6": b"Cl\n", "c5.g6": b"Dhc\n", "c16.g6": b"OlSggSD?gA_D?D_Ag?l?D\n",
            **MALFORMED,
            "n99.g6": graph6_line(random_regular(99, 14, rng)) + b"\n",
            "bvls-switched.g6": graph6_line(switch_edges(bvls, rng, 1)) + b"\n",
            "bvls-header.g6": b">>graph6<<" + graph6_line(bvls) + b"\r\n",
            **{f"n{n}.g6": graph6_line(random_regular(n, 6, rng)) + b"\n" for n in (257, 300)}}


INPUTS = inputs()

# each command, with the output file it writes
COMMANDS = [
    *(f"check --graph {g} --json out.json" for g in ("k3", "paley9", "bvls243", "c5.g6")),
    *(f"census --graph paley9 --what {w} --json out.json"
      for w in ("all", "cycles", "types", "triples")),
    *(f"census --graph bvls243 --what {w} --json out.json"
      for w in ("all", "cycles", "types", "triples")),
    "census --graph k3 --what all --json out.json",
    "census --graph c16.g6 --exhaustive --json out.json",
    "verify --graph paley9",
    "verify --graph bvls243",
    "spectral --params 99,14 --json out.json",
    "params --max-k 1000 --json out.json",
    "construct --graph bvls243 --out out.g6",
    *(command.format(g) for g in ("n99.g6", "bvls-switched.g6", "bvls-header.g6")
      for command in ("check --graph {} --json out.json", "verify --graph {}",
                      "census --graph {} --what cycles --json out.json")),
    *(command.format(g) for g in ("n257.g6", "n300.g6")
      for command in ("check --graph {} --json out.json", "verify --graph {}")),
    # outside the family: types exits 1, all reports no type census
    *(f"census --graph bvls-switched.g6 --what {w} --json out.json" for w in ("all", "types")),
    # refusals: the command lines of the raise tables, then unreadable input
    "check --graph k3 --workers 0", "spectral --method sum", "spectral --method trace",
    "spectral --method trace --graph k3", "spectral --params 3",
    "census --graph c4.g6 --what types", "spectral --method sum --params 19,6",
    "spectral --method sum --params 33,8", "spectral --params 100,14", "params --max-k 1",
    *(f"verify --graph {g}" for g in (*MALFORMED, ".", "missing.g6")),
]


def run(src: Path, command: str) -> dict:
    """Exit code, stdout, stderr and written file of ``command`` run on ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "SRG12_PROGRESS"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="srg12-compare-") as work:
        for name, text in INPUTS.items():
            Path(work, name).write_bytes(text)
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
