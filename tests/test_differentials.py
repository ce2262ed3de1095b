"""Each fast kernel of ``srg12`` against its reference, one row per
comparison.

A row of ``DIFFERENTIALS`` names the fast kernel's module, the call of the
kernel (given the module first) and of its reference on one case, the
oracle or one-by-one functions behind the reference, the seeded cases in
labelled groups and, where equal outcomes would not show that the cases
reach both sides of the kernel's shortcuts, what they must reach.  Here
each group of a row runs on the imported module as a test of its own, and
each row's reach check as another; a whole row, group after group, is the
kill check of each of its mutants in ``tests/test_mutants.py``.  Each
group's cases are built, and each reference outcome computed, once, on
first use, and reused.  Where a kernel falls back to a one-by-one
loop of its module, its outcome says whether the loop ran, and the
reference's whether the loop raised: a mask test fails exactly where the
loop raises.  A ``_pairwise`` or ``_loop`` function of ``oracles.py`` and
a ``_one_by_one`` function of ``census.py`` each need a row.  A row also
lists the ``srg12`` functions its kernel calls: the rows that list a
function are the battery a mutant of it must fail.  Every function of
``_bits.py`` and every ``_``-prefixed function of ``census.py`` needs such
a row, and a traced run checks that each row calls what it lists.
"""

import importlib
import inspect
import random
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import fields
from functools import lru_cache, partial
from itertools import combinations, product
from math import comb
from typing import Callable, NamedTuple

import pytest

import oracles
import test_census
from oracles import (
    _perm_bit_maps,
    brute_edge_triples,
    c4s_through_edge,
    certificate_type,
    coded_walks_from,
    double_edge_switched,
    early_break_canonical_code,
    graph6_decode_loop,
    graph6_encode_loop,
    hexagon_scan_pairwise,
    induced,
    mask_test_graphs,
    neighbour_counts_loop,
    one_apex_per_edge_graph,
    oracle_six_census,
    outcome,
    pentagon_edge_scan_pairwise,
    pentagon_scan_pairwise,
    pentagon_side_census,
    pentagon_side_route,
    pentagons_through,
    quad_edge_type_incidences,
    quad_pair_cases,
    random_graph,
    symmetry_loop,
    transpose_loop,
    triangle_pair_census_pairwise,
    triangle_table_loop,
    triangles,
    trusting_completion_type,
    verify_cases,
    verify_srg_pairwise,
)
from srg12 import _bits, census, graph, graph6
from srg12._bits import iter_bits
from srg12.census import NAMED_TYPE_EDGES, QUAD_PAIR_TYPES, TRIANGLE_PAIR_TYPES, iter_quadrilaterals
from srg12.constructions import build_bvls243, build_paley9
from srg12.errors import CountingInconsistencyError
from srg12.graph import Graph, SrgReport


class Differential(NamedTuple):
    name: str
    module: str  # the srg12 module of the fast kernel
    fast: Callable  # fast(module, *case): the kernel's outcome
    reference: Callable  # reference(*case): the reference's outcome
    cases: dict  # label -> (): the seeded cases of that group
    # group label -> reach(cases, outcomes), which asserts what the cases
    # of that group reach; the label None stands for the whole row
    reach: dict = {}
    references: tuple = ()  # the functions behind ``reference``, if not itself
    patch: tuple = ()  # (name, value) pairs set in the module on both sides
    exercises: tuple = ()  # the srg12 functions ``fast`` calls: a sweep's battery

    def __hash__(self):  # the cases dict has none; row names are unique
        return hash(self.name)


@contextmanager
def patched(module, patch):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch:
            mp.setattr(module, name, value)
        yield


_CASES: dict[tuple[str, str], list] = {}
_EXPECTED: dict[tuple[str, str], list] = {}


def cases_of(row: Differential, label: str) -> list:
    """The cases of the row's group ``label``, built on first use."""
    if (row.name, label) not in _CASES:
        _CASES[row.name, label] = list(row.cases[label]())
    return _CASES[row.name, label]


def expected(row: Differential, label: str):
    """The reference outcomes of the group, one per case, each computed on
    first use."""
    done = _EXPECTED.setdefault((row.name, label), [])
    module = importlib.import_module(f"srg12.{row.module}")
    for i, case in enumerate(cases_of(row, label)):
        if i == len(done):
            with patched(module, row.patch):
                done.append(row.reference(*case))
        yield done[i]


def first_difference(row: Differential, module, labels=None):
    """(case, fast outcome, reference outcome) at the first case of the
    groups ``labels`` (all, by default) on which the row's kernel in
    ``module`` differs from its reference, or None."""
    with patched(module, row.patch):
        for label in labels or row.cases:
            for case, want in zip(cases_of(row, label), expected(row, label)):
                got = row.fast(module, *case)
                if got != want:
                    return case, got, want
    return None


def with_loop(module, kernel: str, loop: str, *args):
    """The outcome of ``module.<kernel>(*args)``, and whether it ran ``<loop>``."""
    real = getattr(module, loop)
    ran = []
    setattr(module, loop, lambda *a: ran.append(a) or real(*a))
    try:
        return outcome(getattr(module, kernel), *args), bool(ran)
    finally:
        setattr(module, loop, real)


def loop_outcome(loop: str, *args):
    """The outcome of ``census.<loop>(*args)``, and whether it raised."""
    want = outcome(getattr(census, loop), *args)
    return want, isinstance(want, tuple)


def walk_outcome(g: Graph, s: int):
    """``coded_walks_from``, its error text as the census raises it."""
    want = coded_walks_from(g, s)
    return want if isinstance(want, tuple) else (CountingInconsistencyError.__name__, want)


def error_outcome(call, *args):
    """call(*args), or the type, text and byte offset of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # the kernel and the loop must raise alike
        return type(exc), str(exc), getattr(exc, "byte_index", None)


def as_report(report) -> SrgReport:
    """A report of any module's ``verify_srg`` as an ``srg12.graph.SrgReport``."""
    return SrgReport(*(getattr(report, f.name) for f in fields(report)))


def orbit_by_maps(code: int, n: int):
    """The images of ``code`` under every permutation map, and their minimum."""
    orbit = frozenset(sum(1 << dest[b] for b in iter_bits(code)) for dest in _perm_bit_maps(n))
    return orbit, min(orbit)


def random_graphs(rng, count, sizes, densities):
    """Seeded graphs, orders from ``sizes`` (low, high), densities from
    ``densities`` (low, spread)."""
    (low_n, high_n), (low_p, spread) = sizes, densities
    return [random_graph(rng, rng.randint(low_n, high_n), rng.random() * spread + low_p)
            for _ in range(count)]


bvls243 = lru_cache(maxsize=1)(build_bvls243)


def every_start(graphs):
    return [(g.rows, g.order, range(g.order)) for g in graphs]


def each_start(graphs):
    return [(g.rows, g.order, [v0]) for g in graphs for v0 in range(g.order)]


# (rows, n, starts): seeded graphs on 6-14 and on 6-40 vertices from every
# start at once, then seeded graphs on 6-24 vertices and BvLS 243 after
# three switches from each start alone
HEXAGON_CASES = {
    "every-start-6-14":
        lambda: every_start(random_graphs(random.Random(6), 30, (6, 14), (0.1, 0.6))),
    "every-start-6-40":
        lambda: every_start(random_graphs(random.Random(6), 60, (6, 40), (0.05, 0.8))),
    "each-start-6-24":
        lambda: each_start(random_graphs(random.Random(61), 40, (6, 24), (0.1, 0.6))),
    "each-start-switched-bvls243":
        lambda: each_start([double_edge_switched(bvls243(), random.Random(4980690), 3)]),
}


def hexagon_reach(cases, outcomes):
    # some counter c_x needs three digits (a vertex of off with four
    # neighbours in R_x), and the triples (v1, v5) that reach the counting
    # fall on both sides of |C| <= 1, which the family gives
    wide, guards = False, set()
    for rows, n, starts in cases:
        for v0 in starts:
            off = ((1 << n) - 1) & ~((2 << v0) - 1) & ~rows[v0]
            upper = [x for x in iter_bits(rows[v0]) if x > v0]
            wide = wide or any((rows[v] & rows[x] & off).bit_count() >= 4
                               for x in upper for v in iter_bits(off))
            for v1, v5 in combinations(upper, 2):
                common = rows[v1] & rows[v5] & off
                if (not rows[v1] >> v5 & 1 and rows[v1] & off & ~common
                        and rows[v5] & off & ~common):
                    guards.add(common.bit_count() >= 2)
            if wide and len(guards) == 2:
                return
    assert wide and guards == {True, False}


def every_edge(graphs):
    return [(g, [e]) for g in graphs for e in g.edges()]


def one_apex_graphs(rng, count, sizes, tries):
    return [one_apex_per_edge_graph(rng, rng.randint(*sizes), tries=tries) for _ in range(count)]


def one_apex_then_random(rng):
    graphs = one_apex_graphs(rng, 4, (16, 24), 80)
    return graphs + random_graphs(rng, 30, (6, 16), (0.1, 0.4))


# (graph, edges): each edge alone of seeded graphs with one apex per edge,
# which reach the counting paths, and of seeded random graphs, which also
# reach the slow path, where the apex meets a w or y candidate
PENTAGON_EDGE_CASES = {
    "one-apex-16-24-random-6-16": lambda: every_edge(one_apex_then_random(random.Random(45))),
    "one-apex-16-30": lambda: every_edge(one_apex_graphs(random.Random(45), 20, (16, 30), 120)),
    "random-6-24": lambda: every_edge(random_graphs(random.Random(46), 40, (6, 24), (0.05, 0.5))),
}


def pentagon_edge_reach(cases, outcomes):
    counted = [n4 for n4, _ in outcomes if isinstance(n4, int)]
    assert len(counted) > 500 and sum(n4 > 0 for n4 in counted) > 100
    assert {name for name, _ in outcomes if isinstance(name, str)} == {
        "FamilyViolationError", "CountingInconsistencyError"}


def each_graph(graphs):
    return [(g,) for g in graphs]


def random_then_switched(rng):
    graphs = random_graphs(rng, 40, (6, 16), (0.4, 0.4))
    return graphs + [double_edge_switched(bvls243(), rng, 40)]


# (graph,): seeded graphs, the named types, last BvLS 243 after 40 switches
TRIANGLE_PAIR_CASES = {
    "random-6-12": lambda: each_graph(random_graphs(random.Random(891), 20, (6, 12), (0.4, 0.4))),
    "named-types": lambda: each_graph(Graph.from_edges(6, edges)
                                      for edges in NAMED_TYPE_EDGES.values()),
    "random-6-16-switched-bvls243": lambda: each_graph(random_then_switched(random.Random(891))),
}


def triangle_pair_reach(cases, outcomes):
    # the family has no outside vertex joined to two corners of a triangle;
    # these triangles fall on both sides, and the switched BvLS 243 has
    # both n3 and excluded pairs
    guards = {bool((r[a] & r[b] | r[a] & r[c] | r[b] & r[c]) & ~(1 << a | 1 << b | 1 << c))
              for (g,) in cases for r in [g.rows] for a, b, c in triangles(g)}
    assert guards == {True, False} and outcomes[-1].n3 and outcomes[-1].excluded


@lru_cache(maxsize=1)
def census_raise_graphs():
    """The graphs that the rows of ``CENSUS_RAISES`` craft, caught as built."""
    graphs = []

    class Built(Exception):
        pass

    def catch(n, edges):
        graphs.append(Graph.from_edges(n, edges))
        raise Built

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(test_census, "crafted", catch)
        for call, *_ in test_census.CENSUS_RAISES:
            with suppress(Exception):
                call(mp)
    return tuple(graphs)


# in the crafted graph, vertex 4 is the apex of sides 12 and 23 of 0-1-2-3
COLLIDE = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (4, 2), (4, 3),
                               (5, 0), (5, 1), (6, 3), (6, 0)])


def every_quad(graphs):
    return [(g.rows, quad) for g in graphs for quad in iter_quadrilaterals(g)]


def every_corner(graphs):
    return [(g.rows, tri, idx) for g in graphs for tri in triangles(g) for idx in range(3)]


# (rows, quad) per quadrilateral of the mask test and crafted graphs
SIDE_APEX_CASES = {"mask-test": lambda: every_quad(mask_test_graphs()),
                   "census-raises": lambda: every_quad(census_raise_graphs()),
                   "collide": lambda: every_quad([COLLIDE])}

# (rows, triangle, corner) per corner of the mask test and crafted graphs
CORNER_CASES = {"mask-test": lambda: every_corner(mask_test_graphs()),
                "census-raises": lambda: every_corner(census_raise_graphs())}


# message fragments of the guards of the one-by-one loops
LOOP_GUARDS = ("triangle apexes", "collide", "not type n2", "several corners",
               "common neighbours", "collapsed", "neither a prism")


def loop_guards(*reached):
    """The loop raised on the guards ``reached`` alone, and some case passed."""
    def reach(cases, outcomes):
        seen = {guard for want, raised in outcomes if raised
                for guard in LOOP_GUARDS if guard in want[1]}
        assert seen == set(reached) and not all(raised for _, raised in outcomes)
    return reach


# (rows, u, v, quadrilaterals through uv) per case of ``quad_pair_cases``
QUAD_PAIR_CASES = {
    "random-6-14-switched-bvls243":
        lambda: [(g.rows, u, v, c4s_through_edge(g, u, v)) for g, (u, v) in quad_pair_cases()],
}


def quad_pair_reach(cases, outcomes):
    # the pair-by-pair path runs where a w or an x lies on two
    # quadrilaterals through the edge (a w1x2 edge is such a further
    # quadrilateral through w1); both errors and counts occur
    guards = {len({w for w, _ in quads}) < len(quads) or len({x for _, x in quads}) < len(quads)
              for _, _, _, quads in cases}
    assert guards == {True, False}
    assert {want[0] if isinstance(want[0], str) else "counts" for want in outcomes} == {
        "counts", "FamilyViolationError", "CountingInconsistencyError"}


def one_apex_9_to_30(rng):
    graphs = [one_apex_per_edge_graph(rng, rng.randint(9, 18)) for _ in range(20)]
    return graphs + one_apex_graphs(rng, 10, (16, 30), 120)


# (graph,): seeded graphs with one apex per edge, where mu = 2 may fail; on
# family graphs the single-corner vertices of each corner send as many
# edges to both neighbouring corners, and n4 = 2 n3 = 0, so only such
# graphs tell the routes apart
QPE_CASES = {
    "one-apex-16-20": lambda: each_graph(one_apex_graphs(random.Random(9), 8, (16, 20), 80)),
    "one-apex-9-30": lambda: each_graph(one_apex_9_to_30(random.Random(9))),
}


def qpe_reach(cases, outcomes):
    # the prism, n4 and n9 incidences are each non-zero on ten graphs
    nonzero = Counter(i for counts in outcomes for i, c in enumerate(counts) if c)
    assert min(nonzero[i] for i in range(3)) >= 10


def walk_starts(graphs):
    return [(g, s) for g in graphs for s in range(g.order)]


def switched_bvls_starts(rng):
    g = double_edge_switched(bvls243(), rng, 1)
    return [(g, s) for s in rng.sample(range(g.order), 30)]


WALK = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

# (graph, start): every start of seeded graphs on 6-11 and on 6-12
# vertices, then 30 starts of BvLS 243 after one switch, which breaks
# mu = 2 near the switched edges only; then start 0 of the walk
# 0-1-2-3-4-0 with the chords 14 and 24, with 13, 14 and 24, and with 14
# and 24 and a vertex 5 joined to 0 and 3, so that both vertices at
# distance 2 from 0 have two neighbours in N(0), as in a family graph
WALK_CASES = {
    "random-6-11": lambda: walk_starts(random_graphs(random.Random(5), 20, (6, 11), (0.2, 0.5))),
    "random-6-12": lambda: walk_starts(random_graphs(random.Random(5), 40, (6, 12), (0.2, 0.5))),
    "switched-bvls243": lambda: switched_bvls_starts(random.Random(4276800)),
    "chords": lambda: [(Graph.from_edges(5, WALK + [(1, 4), (2, 4)]), 0),
                       (Graph.from_edges(5, WALK + [(1, 3), (1, 4), (2, 4)]), 0),
                       (Graph.from_edges(6, WALK + [(1, 4), (2, 4), (0, 5), (3, 5)]), 0)],
}


def chords_reach(cases, outcomes):
    # each walk is refused by its chord count, the last where mu = 2 holds
    # on the vertices at distance 2 from the start
    rows = cases[-1][0].rows
    assert [(rows[x] & rows[0]).bit_count() for x in (2, 3)] == [2, 2]
    assert outcomes == [(CountingInconsistencyError.__name__, f"walk (0,1,2,3,4) has {c} chords")
                        for c in (2, 3, 2)]


def walk_reach(cases, outcomes):
    # counts and refused walks occur, and the BvLS starts fall on both
    # sides of mu = 2 over D2
    assert {isinstance(want[0], str) for want in outcomes} == {True, False}
    guards = {all((r[x] & r[s]).bit_count() == 2 for x in range(g.order)
                  if x != s and not r[s] >> x & 1 and r[x] & r[s])
              for g, s in cases if g.order == 243 for r in [g.rows]}
    assert guards == {True, False}


EDGE_TRIPLE_CASES = {
    "random-4-9": lambda: each_graph(random_graphs(random.Random(3), 20, (4, 9), (0.2, 0.6))),
    "random-6-16": lambda: each_graph(random_graphs(random.Random(23), 20, (6, 16), (0.15, 0.6))),
    "seed29-6-16": lambda: each_graph(random_graphs(random.Random(29), 20, (6, 16), (0.15, 0.6))),
    "seed66-0-11": lambda: each_graph(random_graphs(random.Random(66), 200, (0, 11), (0.0, 1.0))),
}


def edge_triple_reach(cases, outcomes):
    assert all(sum(counts) == comb(g.num_edges, 3) for (g,), counts in zip(cases, outcomes))


def matchings_reach(cases, outcomes):
    # 3-matchings in more than a quarter of the graphs
    assert sum(counts[2] > 0 for counts in outcomes) > 50


def verify_reach(cases, reports):
    # degenerate reports both pass and fail; full scans reach every pair of
    # lambda and mu outcomes, and some stop before the last rows: both
    # witnesses lie in rows below n - 2
    full = [r for r in reports if not r.degenerate]
    assert {r.passed for r in reports if r.degenerate} == {True, False}
    assert {(r.lambda_ok, r.mu_ok) for r in full} == set(product((True, False), repeat=2))
    assert {(r.regular, r.mu_vacuous, r.passed) for r in full} >= {
        (True, True, True), (True, True, False), (True, False, True), (False, False, False)}
    assert any(r.lambda_witness and r.mu_witness
               and max(r.lambda_witness[0], r.mu_witness[0]) < r.expected.n - 2 for r in full)


def orbit_codes_2_to_7():
    rng = random.Random(11)
    cases = []
    for n in range(2, 8):
        size = n * (n - 1) // 2
        codes = [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(3 + 9 * (n < 7))]
        cases += [(code, n) for code in codes]
    return cases


def orbit_codes_0_to_8():
    rng = random.Random(1708)
    cases = []
    for n in range(9):
        pairs = n * (n - 1) // 2
        codes = {0, (1 << pairs) - 1}
        codes.update(rng.getrandbits(pairs) for _ in range(2 if n == 8 else 12))
        cases += [(code, n) for code in sorted(codes)]
    return cases


# (code, n): the empty, the full and seeded codes on every n from the
# pairless n <= 1 to the 32-bit fields of 7 and 8
ORBIT_CASES = {"n2-7": orbit_codes_2_to_7, "n0-8": orbit_codes_0_to_8}


SIX_CENSUS_CASES = {
    "paley9": lambda: [(build_paley9(),)],
    "random-7-8": lambda: each_graph(random_graphs(random.Random(16), 6, (7, 8), (0.2, 0.6))),
    "random-10": lambda: [(random_graph(random.Random(1010), 10, 0.5),)],
}


# both sides of every power of two up to 512, and above
SIZES = [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 513, 600]


def seeded_matrices():
    rng = random.Random(28)
    return [([rng.getrandbits(n) for _ in range(n)],)
            for n in (1, 5, 8, 9, 16, 30, 64, 100, 128, 200, 256, 257, 300)]


def matrices_at(n):
    rng = random.Random(n)
    return [([sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)],)
            for density in (0.0, 0.1, 0.5, 1.0)]


# (rows,): seeded square bit matrices, then those of ``SIZES`` at four densities
TRANSPOSE_CASES = {"seeded": seeded_matrices,
                   **{f"n{n}": partial(matrices_at, n) for n in SIZES}}


def seeded_symmetric():
    rng = random.Random(30)
    cases = []
    for n in (2, 3, 9, 40, 99):
        rows = list(random_graph(rng, n, 0.3).rows)
        flipped = rows.copy()
        flipped[n - 1] ^= 1 << rng.randrange(n - 1)
        cases += [(rows,), (flipped,)]
    return cases


def symmetric_at(n):
    rng = random.Random(n)
    rows = list(random_graph(rng, n, 0.3).rows)
    cases = [(rows,)]
    if n >= 2:
        i = rng.randrange(n - 1)
        for v, u in ((0, rng.randrange(1, n)), (n - 1, rng.randrange(n - 1)), (i, i + 1)):
            flipped = rows.copy()
            flipped[v] ^= 1 << u
            cases.append((flipped,))
    return cases


# (rows,): seeded symmetric matrices, each followed by copies with one arc
# flipped (for ``SIZES``: in the first row, the last, by the diagonal)
SYMMETRY_CASES = {"seeded": seeded_symmetric,
                  **{f"n{n}": partial(symmetric_at, n) for n in SIZES}}


def symmetry_reach(cases, outcomes):
    # exactly the unflipped matrices are symmetric
    assert Counter(outcomes) == {(True, True): 5 + len(SIZES),
                                 (False, False): len(cases) - 5 - len(SIZES)}


def flipped(rng, n, density, flips=None):
    """(n, rows) of a seeded graph with ``flips`` arcs flipped; by default
    one to three, drawn after the graph."""
    rows = list(random_graph(rng, n, density).rows)
    for _ in range(flips or rng.randint(1, 3)):
        u, v = rng.sample(range(n), 2)
        rows[v] ^= 1 << u
    return n, tuple(rows)


def one_flip():
    rng = random.Random(29)
    return [flipped(rng, n, 0.3, 1) for n in (2, 3, 9, 40, 99)]


def up_to_three_flips():
    rng = random.Random(1711)
    sizes = [2, 3, 8, 9, 64, 65, 99, 243, 256, 257, 300] + [rng.randint(2, 300) for _ in range(30)]
    return [flipped(rng, n, rng.random() * 0.3) for n in sizes]


# (n, rows): seeded symmetric rows with one arc flipped, then with one to
# three arcs flipped
GRAPH_SYMMETRY_CASES = {"one-flip": one_flip, "up-to-three-flips": up_to_three_flips}


def corrupted(rng, line):
    """``line``, with a byte replaced, cut off or added, and a CRLF end."""
    yield line
    if len(line) > 1:
        pos = rng.randrange(len(line))
        yield line[:pos] + bytes([rng.randrange(256)]) + line[pos + 1:]
        yield line[:-1]
        yield line[:-1] + bytes([rng.choice([62, 63, 64, 126, 127, 128])])
    yield line + bytes([rng.randrange(63, 127)])
    yield line + b"\r\n"


def with_corruptions(rng, g):
    return g, list(corrupted(rng, graph6_encode_loop(g)))


def random_lines():
    rng = random.Random(2801)
    return [with_corruptions(rng, random_graph(rng, rng.randint(0, 300), rng.random()))
            for _ in range(40)]


def lines_at(n):
    rng = random.Random(n)
    return [with_corruptions(rng, random_graph(rng, n, density))
            for density in (0.0, rng.random(), 1.0)]


def sparse_line():
    rng = random.Random(2000)
    edges = {tuple(sorted(rng.sample(range(2000), 2))) for _ in range(6000)}
    return [with_corruptions(rng, Graph.from_edges(2000, edges))]


def every_last_byte():
    rng = random.Random(2802)
    cases = []
    for n in (2, 3, 4, 5, 8, 63, 99):
        g = random_graph(rng, n, 0.5)
        line = graph6_encode_loop(g)
        cases.append((g, [line[:-1] + bytes([last]) for last in range(256)]))
    return cases


# (graph, lines): seeded graphs up to 300 vertices, at byte and word edges
# and a sparse one on 2000, each with its line and corruptions; then small
# graphs with every value of the last byte
GRAPH6_CASES = {
    "random-0-300": random_lines,
    **{f"n{n}": partial(lines_at, n)
       for n in (7, 8, 9, 15, 16, 17, 62, 63, 64, 127, 128, 129, 255, 256, 257)},
    "sparse-2000": sparse_line,
    "every-last-byte": every_last_byte,
}


def graph6_reach(cases, outcomes):
    # every graph is read back from one of its lines
    assert all(g in decoded for (g, _), (_, decoded) in zip(cases, outcomes))


def settings(order, fixed, free):
    """Every graph on ``order`` vertices with the ``fixed`` edges plus a
    subset of the ``free`` pairs."""
    for bits in range(1 << len(free)):
        extra = [pair for t, pair in enumerate(free) if bits >> t & 1]
        yield Graph.from_edges(order, fixed + extra)


def holds(test):
    """A reach check that ``test(outcomes)`` holds."""
    def check(cases, outcomes):
        assert test(outcomes)
    return check


# Type rules: each kernel fixes most pairs of a 6-vertex structure and
# decides its type from the few pairs left free.  Every setting of those
# pairs is a case, as is a seeded sample of BvLS 243 structures, and the
# reference is the canonical certificate (``certificate_type``).

PAIR_COUNTS = (*TRIANGLE_PAIR_TYPES, "excluded")


def pair_counts(tp) -> dict:
    return {name: getattr(tp, name) for name in PAIR_COUNTS}


def triangle_pair_types(g: Graph) -> dict:
    """The counts of a 6-vertex graph, whose disjoint triangle pairs all
    span it: each of the certificate's type, or excluded."""
    pairs = sum(1 for s, t in combinations(triangles(g), 2) if not set(s) & set(t))
    want = certificate_type(g, range(6))
    want = want if want in TRIANGLE_PAIR_TYPES else "excluded"
    return {name: pairs if name == want else 0 for name in PAIR_COUNTS}


def bvls_triangle_pairs():
    rng = random.Random(243)
    tris = triangles(bvls243())
    cases = []
    while len(cases) < 150:
        s, t = rng.sample(tris, 2)
        if not set(s) & set(t):
            cases.append((induced(bvls243(), s + t),))
    return cases


def nonzero(outcomes):
    return {name for counts in outcomes for name, count in counts.items() if count}


# (graph,): triangles 0-1-2 and 3-4-5 with each of the 512 settings of
# the nine pairs between them, then 150 disjoint pairs of BvLS 243
TRIANGLE_TYPE_CASES = {
    "settings": lambda: each_graph(settings(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
        [(a, b) for a in range(3) for b in range(3, 6)])),
    "bvls243": bvls_triangle_pairs,
}


def quad_pair_type(g: Graph, u: int, v: int, q1, q2):
    """The kernel's counts of the pair, by certificate: one pair of its
    type, or the error for a type no pair has."""
    want = certificate_type(g, (u, v) + q1 + q2)
    if want in QUAD_PAIR_TYPES:
        return [int(want == name) for name in QUAD_PAIR_TYPES]
    return (CountingInconsistencyError.__name__,
            f"C4 pair through ({u},{v}) induced an unexpected class")


def bvls_quad_pairs():
    rng = random.Random(22)
    cases = []
    for u, v in rng.sample(list(bvls243().edges()), 30):
        quads = c4s_through_edge(bvls243(), u, v)
        cases += [(bvls243(), u, v, *rng.sample(quads, 2)) for _ in range(5)]
    return cases


def quad_type_of(want):
    return QUAD_PAIR_TYPES[want.index(1)] if isinstance(want, list) else None


# (graph, u, v, quad, quad): quadrilaterals 0-1-2-3-0 and 0-1-4-5-0 with
# each of the 16 settings of 24, 35, 25 and 34, then 150 pairs of BvLS 243
QUAD_TYPE_CASES = {
    "settings": lambda: [(g, 0, 1, (2, 3), (4, 5)) for g in settings(
        6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)],
        [(2, 4), (3, 5), (2, 5), (3, 4)])],
    "bvls243": bvls_quad_pairs,
}


@lru_cache(maxsize=1)
def bvls_completions_and_n2():
    """20 triangles of BvLS 243 with 3 pendants each, as (x, y, z, p, q, r),
    then 40 quadrilaterals a-b-c-d with the apexes e, f of sides ab, bc."""
    rng = random.Random(3)
    g = bvls243()
    rows = g.rows
    completions = []
    for x, y, z in rng.sample(triangles(g), 20):
        tmask = (1 << x) | (1 << y) | (1 << z)
        pendants = [p for p in g.neighbors(x) if not tmask >> p & 1]
        for p in rng.sample(pendants, 3):
            q = (rows[p] & rows[y] & ~(1 << x)).bit_length() - 1
            r = (rows[p] & rows[z] & ~(1 << x)).bit_length() - 1
            completions.append((g, (x, y, z, p, q, r)))
    n2 = []
    for a, b, c, d in rng.sample(list(iter_quadrilaterals(g)), 40):
        e = (rows[a] & rows[b]).bit_length() - 1
        f = (rows[b] & rows[c]).bit_length() - 1
        n2.append((g, (a, b, c, d, e, f)))
    return completions, n2


# (graph, (a, b, c, d, e, f)): quadrilateral 0-1-2-3-0 with apex 4 on side
# 01 and apex 5 on side 12, each of the 32 settings of 42, 43, 45, 50 and
# 53, then the BvLS 243 sample
N2_CASES = {
    "settings": lambda: [(g, tuple(range(6))) for g in settings(
        6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 1), (5, 2)],
        [(4, 2), (4, 3), (4, 5), (5, 0), (5, 3)])],
    "bvls243": lambda: bvls_completions_and_n2()[1],
}


def completion_type(g: Graph, verts):
    want = certificate_type(g, verts)
    return want if want in ("n1", "n4") else None


# (graph, (x, y, z, p, q, r)): triangle 0-1-2, pendant 3 at 0, q = 4 joined
# to 3 and 1, r = 5 joined to 3 and 2, each of the 32 settings of 45, 40,
# 42, 50 and 51, then the BvLS 243 sample
COMPLETION_TYPE_CASES = {
    "settings": lambda: [(g, tuple(range(6))) for g in settings(
        6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 1), (3, 5), (5, 2)],
        [(4, 5), (4, 0), (4, 2), (5, 0), (5, 1)])],
    "bvls243": lambda: bvls_completions_and_n2()[0],
}

# pentagon 0..4 with apexes 5..9 on its sides 01, 12, 23, 34, 40; the pairs
# joining apex 5 to 2, 3 and 4 are left free
PENTAGON_FIXED = [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 1)]
PENTAGON_FIXED += [(6, 1), (6, 2), (7, 2), (7, 3), (8, 3), (8, 4), (9, 4), (9, 0)]
PENTAGON_FREE = [(5, 2), (5, 3), (5, 4)]


def pentagon_side_type(g: Graph):
    """The kernel's outcome on side 01 of the pentagon 0..4, by
    certificate: one pentagon and one n4 side or none, or the error that
    names the pattern of apex 5 on 2, 3 and 4."""
    want = certificate_type(g, range(6))
    if want in ("n4", "n8"):
        return int(want == "n4"), [1]
    hits = sum((g.rows[5] >> w & 1) << i for i, w in enumerate((2, 3, 4)))
    return (CountingInconsistencyError.__name__,
            f"apex of side (0,1) has adjacency pattern {hits:03b} on pentagon (0, 1, 2, 3, 4)")


def side_type_of(want):
    return ("n8", "n4")[want[0]] if isinstance(want[0], int) else None


def pentagon_side_reach(cases, outcomes):
    # all three outcomes occur; where the side has a type, the pentagon is
    # the graph's only one, and its four other sides are type n8
    assert set(map(side_type_of, outcomes)) == {"n4", "n8", None}
    for (g,), want in zip(cases, outcomes):
        if isinstance(want[0], int):
            assert pentagon_side_census(g) == (want[0], 5 - want[0], 1)


# (graph, edges): the edges of Paley 9 in one call; each edge alone of the
# eight pentagon apex settings; side 01 of the pentagons 0-1-2-3-4 and
# 0-1-2-10-4, which share w = 2 and y = 4 and whose side apex 5 is joined
# to 3 alone; 25 edges of BvLS 243 in one call
PENTAGON_ROUTE_CASES = {
    "paley9": lambda: [(build_paley9(), list(build_paley9().edges()))],
    "apex-settings": lambda: every_edge(settings(10, PENTAGON_FIXED, PENTAGON_FREE)),
    "two-pentagons": lambda: [(Graph.from_edges(11, PENTAGON_FIXED + [(5, 3), (10, 2), (10, 4)]),
                               [(0, 1)])],
    "bvls243": lambda: [(bvls243(), random.Random(2673).sample(list(bvls243().edges()), 25))],
}


def apex_settings_reach(cases, outcomes):
    compared = sum(isinstance(want[0][0], int) for want in outcomes)
    assert (compared, len(outcomes) - compared) == (96, 36)


def seeded_counter_inputs():
    rng = random.Random(8)
    cases = []
    for _ in range(200):
        n, density = rng.randint(1, 70), rng.random()
        rows = [sum(1 << x for x in range(n) if rng.random() < density) for _ in range(n)]
        cases.append((rows, rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n)))
    return cases


# (rows, sources, within, mask): seeded square bit matrices on 1-70
# vertices, then the triangle with no sources and with no vertex counted
COUNTER_CASES = {
    "seeded": seeded_counter_inputs,
    "empty": lambda: [([0b110, 0b101, 0b011], 0, 0b111, 0b111),
                      ([0b110, 0b101, 0b011], 0b111, 0, 0b111)],
}


def counter_reach(cases, outcomes):
    # some count needs four digits
    assert max(len(digits) for digits, _ in outcomes) >= 4


# (graph,): seeded graphs on 0-16 vertices
TRIANGLE_TABLE_CASES = {
    "random-0-16": lambda: each_graph(random_graphs(random.Random(891), 60, (0, 16), (0.1, 0.8))),
}


def triangle_table_outcome(mod, g):
    """The triangle listing of g, its tri_of masks, whether the table
    shares them, and the table's one_in masks."""
    ids, tri_of = mod._triangle_ids(g.rows)
    shared, one_in = mod._triangle_table(g.rows)
    return ids, tri_of, shared is tri_of, one_in


def triangle_table_reach(cases, outcomes):
    # graphs with no triangle, one, and several
    assert {min(len(ids), 2) for ids, *_ in outcomes} == {0, 1, 2}


def canonical_code_cases():
    rng = random.Random(2024)
    return [(rng.getrandbits(n * (n - 1) // 2), n)
            for n, samples in ((6, 3000), (7, 12), (8, 3)) for _ in range(samples)]


# the srg12 functions behind the kernels, shared by several rows
TRIANGLE_IDS = (census._triangle_ids, census._above, _bits.iter_bits)
TRIANGLE_TABLE = (*TRIANGLE_IDS, census._triangle_table, _bits.neighbour_count_digits)
COUNTERS = (_bits.neighbour_count_digits, _bits.digit_total, _bits.iter_bits)
PENTAGON_SCAN = (census._pentagon_edge_scan, census._apex_pattern_check, *TRIANGLE_TABLE,
                 _bits.digit_total)


def corner_completions(name, reach, patch=()):
    # per (triangle, corner); the trusting type rule leaves every other
    # guard to hold alone
    return Differential(
        name, "census",
        lambda mod, *case: with_loop(mod, "_corner_completions",
                                     "_corner_completions_one_by_one", *case),
        lambda *case: loop_outcome("_corner_completions_one_by_one", *case), CORNER_CASES,
        {None: loop_guards("several corners", "common neighbours", "collapsed", *reach)},
        (census._corner_completions_one_by_one,), patch,
        (census._corner_completions, census._corner_completions_one_by_one, _bits.iter_bits)
        + (() if patch else (census._completion_type,)))


DIFFERENTIALS = [
    Differential(
        "hexagon", "census",
        lambda mod, rows, n, starts: mod._hexagon_scan(rows, n, starts, mod._triangle_table(rows)),
        lambda rows, n, starts: (pentagon_scan_pairwise(rows, n, starts),
                                 hexagon_scan_pairwise(rows, n, starts)),
        HEXAGON_CASES, {None: hexagon_reach}, (pentagon_scan_pairwise, hexagon_scan_pairwise),
        exercises=(census._hexagon_scan, *TRIANGLE_TABLE, _bits.digit_total)),
    Differential(
        "pentagon-edges", "census",
        lambda mod, g, edges: outcome(mod._pentagon_edge_scan, g.rows, edges),
        lambda g, edges: outcome(pentagon_edge_scan_pairwise, g.rows, edges),
        {**PENTAGON_EDGE_CASES, **PENTAGON_ROUTE_CASES}, {None: pentagon_edge_reach},
        (pentagon_edge_scan_pairwise,), exercises=PENTAGON_SCAN),
    # the per-pentagon route, and the count of pentagons_through_edge
    Differential(
        "pentagon-route", "census",
        lambda mod, g, edges: (outcome(mod._pentagon_edge_scan, g.rows, edges),
                               [mod.pentagons_through_edge(g, e) for e in edges]),
        lambda g, edges: (outcome(pentagon_side_route, g, edges),
                          [len(pentagons_through(g, *e)) for e in edges]),
        PENTAGON_ROUTE_CASES,
        {"two-pentagons": holds(lambda outcomes: outcomes == [((1, [2]), [2])]),
         "apex-settings": apex_settings_reach,
         "bvls243": holds(lambda outcomes: all(n4 == 0 for (n4, _), _ in outcomes))},
        (pentagon_side_route, pentagons_through),
        exercises=(*PENTAGON_SCAN, census.pentagons_through_edge)),
    Differential("pentagon-side-type", "census",
                 lambda mod, g: outcome(mod._pentagon_edge_scan, g.rows, [(0, 1)]),
                 pentagon_side_type,
                 {"settings": lambda: each_graph(settings(10, PENTAGON_FIXED, PENTAGON_FREE))},
                 {None: pentagon_side_reach}, (certificate_type,), exercises=PENTAGON_SCAN),
    Differential("triangle-pairs", "census",
                 lambda mod, g: outcome(mod.disjoint_triangle_pair_census, g),
                 triangle_pair_census_pairwise, TRIANGLE_PAIR_CASES, {None: triangle_pair_reach},
                 exercises=(census.disjoint_triangle_pair_census, *TRIANGLE_IDS)),
    Differential("triangle-pair-types", "census",
                 lambda mod, g: pair_counts(mod.disjoint_triangle_pair_census(g)),
                 triangle_pair_types, TRIANGLE_TYPE_CASES,
                 {"settings": holds(lambda outcomes: nonzero(outcomes) == set(PAIR_COUNTS)),
                  "bvls243": holds(lambda outcomes: {"n1", "n5", "n14"} <= nonzero(outcomes))},
                 (certificate_type,),
                 exercises=(census.disjoint_triangle_pair_census, *TRIANGLE_IDS)),
    Differential("quad-pair-types", "census",
                 lambda mod, g, u, v, q1, q2: outcome(mod._quad_pairs_at_edge, g.rows, u, v,
                                                      [q1, q2]),
                 quad_pair_type, QUAD_TYPE_CASES,
                 {"settings": holds(lambda outcomes: set(map(quad_type_of, outcomes))
                                    == {"n9", "n4", "n1", None}),
                  "bvls243": holds(lambda outcomes: set(map(quad_type_of, outcomes))
                                   == {"n1", "n9"})},
                 (certificate_type,), exercises=(census._quad_pairs_at_edge,)),
    Differential("n2-type", "census", lambda mod, g, verts: mod._is_n2(g.rows, *verts),
                 lambda g, verts: certificate_type(g, verts) == "n2", N2_CASES,
                 {"settings": holds(lambda outcomes: sum(outcomes) == 1),
                  "bvls243": holds(all)},
                 (certificate_type,), exercises=(census._is_n2,)),
    Differential("completion-type", "census",
                 lambda mod, g, verts: mod._completion_type(g.rows, *verts[:3], *verts[4:]),
                 completion_type, COMPLETION_TYPE_CASES,
                 {"settings": holds(lambda outcomes: set(outcomes) == {"n1", "n4", None}),
                  "bvls243": holds(lambda outcomes: set(outcomes) == {"n1"})},
                 (certificate_type,), exercises=(census._completion_type,)),
    Differential(
        "side-apexes", "census",
        lambda mod, rows, quad: with_loop(mod, "_side_apexes", "_side_apexes_one_by_one",
                                          rows, *quad),
        lambda rows, quad: loop_outcome("_side_apexes_one_by_one", rows, quad), SIDE_APEX_CASES,
        {None: loop_guards("triangle apexes", "collide", "not type n2")},
        (census._side_apexes_one_by_one,),
        exercises=(census._side_apexes, census._side_apexes_one_by_one, census._is_n2)),
    corner_completions("corner-completions", ["neither a prism"]),
    corner_completions("corner-completions-trusting", [],
                       (("_completion_type", trusting_completion_type),)),
    Differential(
        "quad-pairs", "census",
        lambda mod, rows, u, v, quads: outcome(mod._quad_pairs_through_edge, rows, u, v,
                                               len(quads) + 2),
        lambda rows, u, v, quads: outcome(census._quad_pairs_at_edge, rows, u, v, quads),
        QUAD_PAIR_CASES, {None: quad_pair_reach}, (census._quad_pairs_at_edge,),
        exercises=(census._quad_pairs_through_edge, census._quad_pairs_at_edge,
                   _bits.iter_bits)),
    Differential("qpe-incidences", "census",
                 lambda mod, g: mod._qpe_scan(g.rows, g.order, range(g.order))[:3],
                 quad_edge_type_incidences, QPE_CASES, {None: qpe_reach},
                 exercises=(census._qpe_scan, census._quad_list, census._side_apexes,
                            census._above, _bits.iter_bits)),
    Differential("walks", "census",
                 lambda mod, g, s: outcome(mod._walk_scan, g.rows, g.order, [s]),
                 walk_outcome, WALK_CASES, {None: walk_reach, "chords": chords_reach},
                 (coded_walks_from,),
                 exercises=(census._walk_scan, census._first_bad_walk,
                            _bits.neighbour_count_digits, _bits.iter_bits)),
    Differential("edge-triples", "census", lambda mod, g: outcome(mod.edge_triple_census, g),
                 brute_edge_triples, EDGE_TRIPLE_CASES,
                 {None: edge_triple_reach, "seed66-0-11": matchings_reach},
                 exercises=(census.edge_triple_census, census._count_span4_triples,
                            census._count_span5_triples, census._count_span6_triples,
                            _bits.iter_bits)),
    Differential("triangle-table", "census", triangle_table_outcome, triangle_table_loop,
                 TRIANGLE_TABLE_CASES, {None: triangle_table_reach}, exercises=TRIANGLE_TABLE),
    Differential("neighbour-counter", "_bits",
                 lambda mod, rows, sources, within, mask: (
                     digits := mod.neighbour_count_digits(rows, sources, within),
                     mod.digit_total(digits, mask)),
                 neighbour_counts_loop, COUNTER_CASES, {"seeded": counter_reach},
                 exercises=COUNTERS),
    # verify_srg stops after the first row that gives both witnesses
    Differential("verify", "graph",
                 lambda mod, g, params: as_report(mod.verify_srg(g, params)),
                 verify_srg_pairwise, {"seeded": verify_cases}, {None: verify_reach},
                 exercises=(graph.verify_srg,)),
    Differential("orbit", "graph",
                 lambda mod, code, n: (mod.code_orbit(code, n), mod.canonical_code(code, n)),
                 orbit_by_maps, ORBIT_CASES, references=(_perm_bit_maps,),
                 exercises=(graph.code_orbit, graph.canonical_code)),
    Differential("canonical-code", "graph", lambda mod, code, n: mod.canonical_code(code, n),
                 early_break_canonical_code, {"seed2024": canonical_code_cases},
                 exercises=(graph.canonical_code, graph.code_orbit)),
    Differential("six-census", "census",
                 lambda mod, g: {c.certificate: stats.count
                                 for c, stats in mod.exhaustive_six_census(g).items()},
                 oracle_six_census, SIX_CENSUS_CASES,
                 exercises=(census.exhaustive_six_census, census._six_subset_tally,
                            _bits.pair_index_table, _bits.iter_bits)),
    Differential("transpose", "_bits",
                 lambda mod, rows: (mod.transpose(rows), mod.transpose(tuple(rows))),
                 lambda rows: (transpose_loop(rows),) * 2, TRANSPOSE_CASES,
                 references=(transpose_loop,), exercises=(_bits.transpose, _bits._cells)),
    Differential("is-symmetric", "_bits",
                 lambda mod, rows: (mod.is_symmetric(rows), mod.is_symmetric(tuple(rows))),
                 lambda rows: (transpose_loop(rows) == rows,) * 2, SYMMETRY_CASES,
                 {None: symmetry_reach}, (transpose_loop,),
                 exercises=(_bits.is_symmetric, _bits._cells)),
    # on asymmetric rows Graph names the pair that the per-edge loop names
    Differential("graph-symmetry", "graph",
                 lambda mod, n, rows: error_outcome(lambda: mod.Graph(n, rows).rows),
                 lambda n, rows: error_outcome(symmetry_loop, rows) or rows,
                 GRAPH_SYMMETRY_CASES, references=(symmetry_loop,),
                 exercises=(Graph.__post_init__, _bits.is_symmetric, _bits.iter_bits)),
    # equal bytes, an equal Graph, or the same error type, message and offset
    Differential(
        "graph6-loops", "graph6",
        lambda mod, g, lines: (mod.encode(g), [error_outcome(mod.decode, d) for d in lines]),
        lambda g, lines: (graph6_encode_loop(g),
                          [error_outcome(graph6_decode_loop, d) for d in lines]),
        GRAPH6_CASES, {None: graph6_reach}, (graph6_encode_loop, graph6_decode_loop),
        exercises=(graph6.encode, graph6.decode, graph6._encode_order, graph6._decode_order,
                   _bits.transpose, _bits.is_symmetric)),
]

ROW = {row.name: row for row in DIFFERENTIALS}


GROUPS = [(row, label) for row in DIFFERENTIALS for label in row.cases]


@pytest.mark.parametrize("row, label", GROUPS,
                         ids=[f"{row.name}-{label}" for row, label in GROUPS])
def test_fast_kernel_equals_its_reference(row, label):
    module = importlib.import_module(f"srg12.{row.module}")
    assert first_difference(row, module, [label]) is None


REACHING = [row for row in DIFFERENTIALS if row.reach]


@pytest.mark.parametrize("row", REACHING, ids=[row.name for row in REACHING])
def test_cases_reach_what_the_row_needs(row):
    for label, check in row.reach.items():
        labels = [label] if label else row.cases
        check([case for label in labels for case in cases_of(row, label)],
              [want for label in labels for want in expected(row, label)])


def functions_of(module, prefix=""):
    """The functions defined in ``module`` whose names start with
    ``prefix``, unwrapped from their caches."""
    found = (inspect.unwrap(value) for name, value in vars(module).items()
             if name.startswith(prefix))
    return [f for f in found if inspect.isfunction(f) and f.__module__ == module.__name__]


def test_every_reference_has_a_row():
    references = {f for row in DIFFERENTIALS for f in row.references or (row.reference,)}
    named = [f for module, ends in ((oracles, ("_pairwise", "_loop")), (census, ("_one_by_one",)))
             for f in functions_of(module) if f.__name__.endswith(ends)]
    assert [f.__name__ for f in named if f not in references] == []
    assert len(ROW) == len(DIFFERENTIALS), "row names repeat"
    assert [row.name for row in DIFFERENTIALS if not row.cases] == []
    assert [f"{row.name}-{label}" for row, label in GROUPS if not cases_of(row, label)] == []


def test_every_kernel_function_has_a_battery():
    # a sweep of one of these functions runs the rows that list it
    listed = {inspect.unwrap(f) for row in DIFFERENTIALS for f in row.exercises}
    kernels = functions_of(_bits) + functions_of(census, "_")
    assert [f.__name__ for f in kernels if f not in listed] == []
    assert [row.name for row in DIFFERENTIALS if not row.exercises] == []


def uncalled(row) -> list[str]:
    """The functions that ``row`` lists as exercised and that its fast side
    does not call, traced over its cases in order until each has run."""
    module = importlib.import_module(f"srg12.{row.module}")
    wanted = {inspect.unwrap(f).__code__: f for f in row.exercises}
    for f in row.exercises:
        if hasattr(f, "cache_clear"):  # a cached call runs no code
            f.cache_clear()
    seen = set()

    def trace(frame, event, arg):  # called on each new frame; no line events
        seen.add(frame.f_code)

    outer = sys.gettrace()
    with patched(module, row.patch):
        for label in row.cases:
            for case in cases_of(row, label):
                sys.settrace(trace)
                try:
                    row.fast(module, *case)
                finally:
                    sys.settrace(outer)
                if wanted.keys() <= seen:
                    return []
    return sorted(f.__qualname__ for code, f in wanted.items() if code not in seen)


@pytest.mark.parametrize("row", DIFFERENTIALS, ids=[row.name for row in DIFFERENTIALS])
def test_row_calls_what_it_lists(row):
    assert uncalled(row) == []
