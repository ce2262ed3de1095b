"""Operation server: runs ``srg12.cli.main`` in a cold process per request.

Usage: python3 perfbench/worker.py SRC_DIR

Reads one JSON request per stdin line, {"argv": [...], "run": id,
"spans": path or null}, and answers with one JSON line per request.  The
server imports ``srg12`` once and then forks a child per request.  The
child starts from the state right after ``import srg12``: the
classification cache ``graph._CODE_CACHE``, the ``_perm_bit_maps``
permutation tables and the named-type certificates are still empty, as in
every command-line invocation, and nothing from an earlier request is
left in them.  Interpreter start-up and import are paid once here; the
benchmark measures them as part of set-up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_op(req: dict, cli) -> dict:
    """Run one command in this (forked) process and measure it."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    main = cli.main
    tracer = None
    if req["spans"]:
        import spans

        tracer = spans.Tracer(req["run"])
        spans.install(tracer)
        main = tracer.record("cli.main", main)
    before = [resource.getrusage(w) for w in (resource.RUSAGE_SELF,
                                              resource.RUSAGE_CHILDREN)]
    rc = error = None
    t0 = perf_counter()
    try:
        rc = main(req["argv"])
    except BaseException:  # the request fails; the server keeps serving
        error = traceback.format_exc(limit=4)
    wall = perf_counter() - t0
    after = [resource.getrusage(w) for w in (resource.RUSAGE_SELF,
                                             resource.RUSAGE_CHILDREN)]
    cpu = sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime
              for a, b in zip(after, before))
    if tracer:
        tracer.dump(req["spans"])
    return {"rc": rc, "error": error, "wall_s": wall, "cpu_s": cpu,
            "maxrss_kb": after[0].ru_maxrss + after[1].ru_maxrss}


def serve(src: str) -> None:
    sys.path.insert(0, src)
    from srg12 import cli

    for line in sys.stdin:
        req = json.loads(line)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            status = 1
            try:
                payload = json.dumps(run_op(req, cli)).encode()
                with os.fdopen(w, "wb") as fh:
                    fh.write(payload)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            data = fh.read().decode()
        _, status = os.waitpid(pid, 0)
        if not data:
            data = json.dumps({"rc": None, "wall_s": 0.0, "cpu_s": 0.0,
                               "maxrss_kb": 0,
                               "error": f"operation process ended with status {status}"})
        sys.stdout.write(data + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
