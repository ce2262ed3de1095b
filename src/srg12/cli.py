"""Command-line interface.

Commands: construct, verify, census, spectral, check, params.
Exit codes: 0 success / all checks pass, 1 identity or verification failure,
2 usage or input errors, among them a --json or --out path that does not open,
found before any work.  Machine-readable JSON goes to --json / --out paths or
stdout; progress goes to stderr, one line per finished stage and at most
one a second.  ``check`` and ``census --what types|all`` run identity-ledger
rows through one runner; each census residual is a named ledger entry's
actual minus expected.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
# argparse looks its messages up through gettext, which imports locale on
# first use; loading it with the CLI keeps that import out of each command
# of a process that imported the CLI in advance
import locale  # noqa: F401
import os
import sys
import time
from dataclasses import asdict

from . import census as cn
from . import graph6
from .constructions import BUILTIN_GRAPHS, feasible_parameters
from .errors import (
    CountingInconsistencyError,
    FamilyViolationError,
    Graph6Error,
    InfeasibleParametersError,
    SizeLimitError,
)
from .graph import Graph, SrgParams, verify_srg
from .identities import IdentityReport, jsonable, run_all_checks, run_ledger_rows
from .spectral import c6_binomial_sum, c6_closed_form, charpoly_prefix, srg_spectrum

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(Exception):
    pass


class _Progress:
    """Time-gated stage reporter; stderr only, >= 1s between lines."""

    def __init__(self, label: str):
        self.label = label
        self.enabled = sys.stderr.isatty() or os.environ.get("SRG12_PROGRESS") == "1"
        self.last = time.monotonic()

    def stage(self, name: str) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if now - self.last >= 1.0:
            print(f"{self.label}: finished {name}", file=sys.stderr)
            self.last = now


def _resolve_workers(args) -> None:
    """Validate --workers: a count below 1 is a usage error.  The count is
    accepted for compatibility and has no effect; every census runs in
    process."""
    if getattr(args, "workers", None) is not None and args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")


def _load_graph(source: str) -> Graph:
    builder = BUILTIN_GRAPHS.get(source.lower())
    if builder is not None:
        return builder()
    return graph6.load_file(source)


def _fingerprint(g: Graph) -> str:
    """Content-derived identity for reports, stable across graph sources."""
    encoded = graph6.encode(g)
    if len(encoded) <= 48:
        return encoded.decode("ascii")
    return "sha256:" + hashlib.sha256(encoded).hexdigest()[:16]


def _normalize(obj):
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return jsonable(obj)


def _emit_json(payload, path) -> None:
    """Write a payload whose integers are already ``jsonable``.  json.dumps
    escapes every non-ASCII character, so the text is ASCII whatever the
    encoding the file is opened with; utf-8 needs no codec import."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ----------------------------------------------------------------


def _cmd_construct(args) -> int:
    g = BUILTIN_GRAPHS[args.graph]()
    if args.out:
        graph6.save_file(args.out, g)
        print(f"wrote {args.graph}: n={g.order}, |E|={g.num_edges} -> {args.out}")
    else:
        sys.stdout.write(graph6.encode(g).decode("ascii") + "\n")
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    # one scan against (n, deg, 1, 2) gives conditions I and II as well
    conditions, _ = cn.family_check(g)
    report = conditions
    if args.params:
        report = verify_srg(g, SrgParams(*args.params))
    expected = report.expected
    rows = [
        ("regular", report.regular,
         f"degree {report.degree}" if report.regular else str(report.degree_witness)),
        ("lambda uniform", report.lambda_ok,
         "" if report.lambda_ok else str(report.lambda_witness)),
        ("mu uniform", report.mu_ok,
         "vacuous (no non-edges)" if report.mu_vacuous else
         ("" if report.mu_ok else str(report.mu_witness))),
        ("params match", report.params_match,
         f"expected ({expected.n},{expected.k},{expected.lam},{expected.mu})"),
        ("order relation k(k-2)=2(n-k-1)", report.order_relation_ok, ""),
        ("condition I (edge triangles)", conditions.lambda_ok,
         "" if conditions.lambda_ok else str(conditions.lambda_witness)),
        ("condition II (non-edge quadrilaterals)", conditions.mu_ok,
         "" if conditions.mu_ok else str(conditions.mu_witness)),
    ]
    width = max(len(r[0]) for r in rows)
    for name, ok, detail in rows:
        mark = "pass" if ok else "FAIL"
        line = f"  {name:<{width}}  {mark}"
        if detail:
            line += f"  {detail}"
        print(line)
    ok = report.passed and conditions.lambda_ok and conditions.mu_ok
    print("verified" if ok else "verification failed")
    return 0 if ok else CHECK_FAILURE


# each residual is a ledger entry's actual minus expected; "all" reports every row
CENSUS_RESIDUALS = {
    "cycles": {"p3": "triangle_count", "p4": "quadrilateral_count",
               "p5": "pentagon_count", "p6_minus_bound": "hexagons_equal_bound"},
    "triples": {"e4": "edge_triples_span4", "e5": "edge_triples_span5"},
    "types": {"n2": "n2_eq3", "n4_minus_2n3": "n4_twice_n3", "eq8": "triangle_pairs_eq8"},
    "all": {"hexagon_identity": "hexagon_identity"},
}
# the stages a cycle census stands in for; its residuals read only p3 to p6
_CYCLE_STAGES = ("triangle_pair_census", "quad_plus_edge_census", "hexagon_census")


def _cmd_census(args) -> int:
    g = _load_graph(args.graph)
    _resolve_workers(args)
    progress = _Progress("census")
    payload = {"graph_meta": {"n": g.order, "edges": g.num_edges,
                              "source": _fingerprint(g)}}
    what = args.what
    # first, so that its size guard refuses before any other census runs
    classes = cn.exhaustive_six_census(g) if args.exhaustive else None
    try:
        fam = cn.require_family(g)
    except FamilyViolationError as exc:
        if what == "types":
            raise
        fam = None
        if what == "all":
            payload["types"], payload["types_error"] = None, str(exc)
    residuals = {name: entry for mode, rows in CENSUS_RESIDUALS.items()
                 if what in (mode, "all") for name, entry in rows.items()}
    types = fam is not None and what in ("types", "all")
    counted, entries, names = {}, {}, [*residuals.values()]
    if types:  # the type censuses count every cycle length and the edge triples
        names += [*cn.TYPE_CENSUS_PARTS, *cn.ROUTE_AGREEMENTS]
    else:
        if what in ("cycles", "all"):
            counted = dict.fromkeys(_CYCLE_STAGES, cn.cycle_census(g))
            progress.stage("cycle_census")
        if what in ("triples", "all"):
            counted["edge_triple_census"] = cn.edge_triple_census(g)
            progress.stage("edge_triple_census")
    if fam is not None:
        counted, entries = run_ledger_rows(fam, names, counted, progress.stage)
    if types:
        payload["types"] = asdict(cn.TypeCensus.assemble(counted))
    if what in ("cycles", "all"):
        tp, qpe, hexes = (counted[s] for s in _CYCLE_STAGES)
        payload["cycles"] = {"p3": tp.p3, "p4": qpe.p4, "p5": hexes.p5, "p6": hexes.p6}
    if what in ("triples", "all"):
        et = counted["edge_triple_census"]
        payload["edge_triples"] = {"e4": et.e4, "e5": et.e5, "e6": et.e6}
    if classes is not None:
        payload["exhaustive_six_census"] = [
            {"certificate": cls.certificate, "edges": cls.edge_count,
             **stats._asdict()}
            for cls, stats in sorted(
                classes.items(), key=lambda kv: (-kv[1].count, kv[0].certificate)
            )
        ]
    payload["residuals"] = {name: entries[entry].actual - entries[entry].expected
                            for name, entry in residuals.items() if entry in entries}
    _emit_json(_normalize(payload), args.json)
    bad = [k for k, v in payload["residuals"].items() if v != 0]
    if bad:
        print(f"nonzero residuals: {', '.join(sorted(bad))}", file=sys.stderr)
        return CHECK_FAILURE
    return 0


def _cmd_spectral(args) -> int:
    method = args.method
    payload = {"method": method, "intermediate": {}}
    params = None
    if args.params:
        n, k = args.params
        params = SrgParams(n, k, 1, 2)
    elif method in ("closed", "sum"):
        raise UsageError("spectral --method closed|sum needs --params n,k")

    spec = None
    if method == "closed":
        payload["c6"] = c6_closed_form(params.n, params.k)
    elif method == "sum":
        spec = srg_spectrum(params)
        payload["c6"] = c6_binomial_sum(spec)
    else:  # trace
        if not args.graph:
            raise UsageError("spectral --method trace needs --graph FILE.g6")
        g = _load_graph(args.graph)
        if g.order < 6:
            raise UsageError(f"c6 needs at least 6 vertices, graph has {g.order}")
        prefix = charpoly_prefix(g, 6)
        payload["c6"] = prefix.c6
        payload["intermediate"]["traces"] = list(prefix.traces)
    if spec is None and params is not None:  # the spectrum, when it exists
        try:
            spec = srg_spectrum(params)
        except InfeasibleParametersError:
            pass
    if spec is not None:
        payload["intermediate"].update(
            lambda1=spec.lambda1, lambda2=spec.lambda2, r1=spec.r1, r2=spec.r2
        )
    print(f"c6 = {payload['c6']}")
    if args.json:
        _emit_json(_normalize(payload), args.json)
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    _resolve_workers(args)
    progress = _Progress("check")
    report: IdentityReport = run_all_checks(
        g, source=_fingerprint(g), progress=progress.stage
    )
    width = max(len(e.name) for e in report.entries)
    marks = {"pass": "pass", "fail": "FAIL", "skip": "skip", "info": "info"}
    for e in report.entries:
        line = f"  {e.name:<{width}}  {marks[e.status]:<4}"
        if e.status in ("pass", "fail", "info"):
            line += f"  expected={e.expected} actual={e.actual}"
        if e.detail:
            line += f"  ({e.detail})"
        print(line)
    failed = [e for e in report.entries if e.status == "fail"]
    print(
        f"{len(report.entries)} checks: "
        f"{sum(e.status == 'pass' for e in report.entries)} pass, "
        f"{len(failed)} fail, "
        f"{sum(e.status == 'skip' for e in report.entries)} skipped, "
        f"{sum(e.status == 'info' for e in report.entries)} informational"
    )
    if args.json:
        _emit_json(report.to_json_dict(), args.json)
    return CHECK_FAILURE if failed else 0


def _cmd_params(args) -> int:
    rows = feasible_parameters(args.max_k, include_degenerate=args.include_degenerate)
    print(f"{'k':>5} {'n':>8} {'lambda1':>8} {'lambda2':>8} {'r1':>8} {'r2':>8}  known graph")
    for fp in rows:
        print(
            f"{fp.k:>5} {fp.n:>8} {fp.lambda1:>8} {fp.lambda2:>8} "
            f"{fp.r1:>8} {fp.r2:>8}  {fp.known_graph or '-'}"
        )
    if args.json:
        _emit_json(_normalize([asdict(fp) for fp in rows]), args.json)
    return 0


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srg12",
        description=(
            "Constructions, censuses and identity checks for strongly "
            "regular graphs with lambda=1, mu=2"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a known family member")
    p.add_argument("--graph", required=True, choices=sorted(BUILTIN_GRAPHS))
    p.add_argument("--out", type=_output_path, help="write graph6 to this path (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="srg and condition checks")
    p.add_argument("--graph", required=True,
                   help="builtin name (k3|paley9|bvls243) or graph6 file")
    p.add_argument("--params", type=_params_type,
                   help="expected n,k,lambda,mu (default: n,deg,1,2)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="cycle/edge-triple/type censuses")
    p.add_argument("--graph", required=True)
    p.add_argument("--what", choices=("cycles", "triples", "types", "all"),
                   default="all")
    p.add_argument("--exhaustive", action="store_true",
                   help="include the 6-subset census (graphs of at most "
                   f"{cn.EXHAUSTIVE_MAX_VERTICES} vertices)")
    p.add_argument("--json", type=_output_path, help="write JSON here instead of stdout")
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("spectral", help="exact c6 by closed form, sum or traces")
    p.add_argument("--params", type=_pair_type, help="n,k")
    p.add_argument("--method", choices=("closed", "sum", "trace"),
                   default="closed")
    p.add_argument("--graph", help="graph6 file or builtin (trace method)")
    p.add_argument("--json", type=_output_path)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("check", help="run the full identity ledger")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", type=_output_path, help="write the report as JSON")
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("params", help="feasible family parameter sets")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--include-degenerate", action="store_true")
    p.add_argument("--json", type=_output_path)
    p.set_defaults(func=_cmd_params)
    return parser


def _int_fields(text: str, form: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, one per field of ``form``;
    anything else is an argparse error naming the form."""
    try:
        fields = tuple(int(p) for p in text.split(","))
    except ValueError:
        fields = ()
    if len(fields) != form.count(",") + 1:
        raise argparse.ArgumentTypeError(f"expected {form}")
    return fields


def _pair_type(text: str):
    return _int_fields(text, "n,k")


def _output_path(path: str) -> str:
    """``path`` once it opens to append: any OSError refuses it before the
    command runs, and a file that this check made is removed again."""
    made = not os.path.lexists(path)
    open(path, "a").close()
    if made:
        os.remove(path)
    return path


def _params_type(text: str):
    return _int_fields(text, "n,k,lambda,mu")


def main(argv=None) -> int:
    # objects older than the command outlive it; frozen, its collections skip them
    gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (FamilyViolationError, CountingInconsistencyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except (Graph6Error, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (UsageError, InfeasibleParametersError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
