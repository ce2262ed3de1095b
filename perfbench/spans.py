"""Spans and counters around calls into the ``srg12`` modules.

Nothing in the package is edited: ``install`` replaces module attributes
that callers look up at call time (``cn.quad_pair_census`` inside
``identities``, ``verify_srg`` as imported into ``census``, ``identities``
and ``cli``, the ``Graph.subgraph_code`` method, ...) with wrappers that
record a span (name, start, end, parent, run id) or bump a counter.  Spans
stay in memory and are written once the operation ends.

Census stages that may use a process pool also record the CPU time of the
process plus its reaped children, so pool work is visible from the parent.
Pool workers inherit the wrappers, but nothing they run is wrapped.
"""

from __future__ import annotations

import functools
import json
import resource
from time import perf_counter

# census stages that identities.run_all_checks calls, mapped to the number
# of objects each enumerates, read from its return value
CENSUS_STAGES = {
    "count_triangles": lambda r: r,
    "count_quadrilaterals_by_edges": lambda r: r,
    "pentagon_triangle_census": lambda r: r.p5,
    "pentagons_through_edge": None,
    "coded_walk_census": lambda r: r.total,
    "edge_triple_census": None,
    "disjoint_triangle_pair_census":
        lambda r: r.n1 + r.n3 + r.n5 + r.n14 + r.excluded,
    "quad_pair_census": lambda r: 3 * r.n1 + r.n4 + r.n9,
    "count_n2": None,
    "triangle_edge_completion_census": None,
    "quad_plus_edge_census": lambda r: r.total,
    "count_hexagons": lambda r: r,
}
# stages with a ProcessPoolExecutor path
POOLED_STAGES = ("pentagon_triangle_census", "coded_walk_census",
                 "quad_plus_edge_census", "count_hexagons")
# further census entry points of the census command
OTHER_CENSUS = ("cycle_census", "count_pentagons", "type_census",
                "exhaustive_six_census")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Tracer:
    """In-memory spans and call counters of one operation."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, extra]
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []

    def record(self, name: str, fn, objects=None, pooled: bool = False):
        """Wrap ``fn`` so every call becomes a span named ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            cpu0 = _cpu_s() if pooled else 0.0
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            extra = {}
            if pooled:
                extra["cpu_s"] = _cpu_s() - cpu0
                extra["workers"] = kwargs.get("workers", 1)
            if objects is not None:
                extra["objects"] = objects(result)
            rec[4] = extra or None
            return result

        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` with a bare call counter (for the per-subset primitives)."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "a", encoding="ascii") as fh:
            fh.write(json.dumps({
                "run": self.run_id,
                "spans": self.spans,
                "counts": {k: v[0] for k, v in self.counts.items()},
            }) + "\n")


def install(tracer: Tracer) -> None:
    """Replace the traced attributes of the imported ``srg12`` modules."""
    from srg12 import census, cli, graph, graph6, identities, spectral

    def replace(wrapper, attr, *modules):
        for module in modules:
            setattr(module, attr, wrapper)

    for name, objects in CENSUS_STAGES.items():
        setattr(census, name, tracer.record(
            f"census.{name}", getattr(census, name), objects,
            pooled=name in POOLED_STAGES))
    for name in OTHER_CENSUS:
        setattr(census, name, tracer.record(f"census.{name}", getattr(census, name)))

    replace(tracer.record("graph.verify_srg", graph.verify_srg),
            "verify_srg", graph, census, identities, cli)
    for name in ("check_condition_one", "check_condition_two"):
        replace(tracer.record(f"graph.{name}", getattr(graph, name)),
                name, graph, identities, cli)
    replace(tracer.count("graph.classify_code", graph.classify_code),
            "classify_code", graph, census)
    graph.canonical_code = tracer.record("graph.canonical_code", graph.canonical_code)
    graph.Graph.subgraph_code = tracer.count(
        "graph.Graph.subgraph_code", graph.Graph.subgraph_code)

    graph6.load_file = tracer.record("graph6.load_file", graph6.load_file)
    spectral.charpoly_prefix = tracer.record(
        "spectral.charpoly_prefix", spectral.charpoly_prefix)
    identities.makhnev_condition = tracer.record(
        "identities.makhnev_condition", identities.makhnev_condition)
    replace(tracer.record("identities.run_all_checks", identities.run_all_checks),
            "run_all_checks", identities, cli)


# -- aggregation ---------------------------------------------------------------

OBJECT_STAGES = ("pentagon_triangle_census", "coded_walk_census",
                 "disjoint_triangle_pair_census", "quad_pair_census",
                 "count_quadrilaterals_by_edges", "count_hexagons")
SELF_TIMED = ("cli.main", "identities.run_all_checks")
TIMED = tuple(f"census.{s}" for s in CENSUS_STAGES) + (
    "census.exhaustive_six_census", "graph.verify_srg", "graph.check_condition_one",
    "graph.check_condition_two", "graph.canonical_code", "graph6.load_file",
    "identities.makhnev_condition", "spectral.charpoly_prefix",
)


def per_layer(records: list[dict], build_bvls243_s: float) -> dict[str, float]:
    """Per-operation layer metrics from the span records of traced operations.

    Times, call counts and object counts are means per operation.
    """
    runs = max(len(records), 1)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    objects: dict[str, int] = {}
    cpu: dict[str, float] = {}
    counts: dict[str, int] = {}
    pool_cpu = pool_base = 0.0
    covered = covered_base = 0.0
    for rec in records:
        spans = rec["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name in SELF_TIMED:
                self_s[name] = self_s.get(name, 0.0) + dur - child_s[idx]
            if name == "identities.run_all_checks":
                covered += child_s[idx]
                covered_base += dur
            if extra:
                if "objects" in extra:
                    objects[name] = objects.get(name, 0) + extra["objects"]
                if "cpu_s" in extra:
                    cpu[name] = cpu.get(name, 0.0) + extra["cpu_s"]
                    pool_cpu += extra["cpu_s"]
                    pool_base += dur * extra["workers"]
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value

    out = {}
    for name in TIMED:
        out[f"{name}.s"] = busy.get(name, 0.0) / runs
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / runs
    out["identities.run_all_checks.covered_share"] = (
        covered / covered_base if covered_base else 0.0)
    for stage in OBJECT_STAGES:
        name = f"census.{stage}"
        out[f"{name}.objects"] = objects.get(name, 0) / runs
        out[f"{name}.objects_per_s"] = (
            objects.get(name, 0) / busy[name] if busy.get(name) else 0.0)
    for stage in POOLED_STAGES:
        out[f"census.{stage}.cpu_s"] = cpu.get(f"census.{stage}", 0.0) / runs
    out["census.pool.efficiency"] = pool_cpu / pool_base if pool_base else 0.0
    out["census.pool.base_s"] = pool_base / runs
    out["graph.verify_srg.calls"] = calls.get("graph.verify_srg", 0) / runs
    classify = counts.get("graph.classify_code", 0)
    misses = calls.get("graph.canonical_code", 0)
    out["graph.classify_code.calls"] = classify / runs
    out["graph.canonical_code.calls"] = misses / runs
    out["graph.classify_code.hit_ratio"] = (
        (classify - misses) / classify if classify else 0.0)
    out["graph.Graph.subgraph_code.calls"] = (
        counts.get("graph.Graph.subgraph_code", 0) / runs)
    out["constructions.build_bvls243.s"] = build_bvls243_s
    return out
