"""Brute-force oracles the censuses are tested against, and the helpers
that run the calls and command lines of the raise tables.

Every oracle enumerates subsets or permutations directly and stays
independent of the counting paths under test.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from srg12 import graph6
from srg12._bits import iter_bits, pair_index_table
from srg12.census import (
    TrianglePairCensus,
    VerifiedFamily,
    _apex_pattern_check,
    named_type_certificates,
)
from srg12.cli import main
from srg12.constructions import build_bvls243, build_k3, build_paley9
from srg12.errors import (
    CountingInconsistencyError,
    FamilyViolationError,
    InfeasibleParametersError,
    Graph6Error,
    SizeLimitError,
)
from srg12.graph import Graph, SrgParams, SrgReport, classify_code, determinant_of_code
from srg12.spectral import Spectrum


@lru_cache(maxsize=None)
def _perm_bit_maps(n: int):
    """For each permutation of range(n), where each edge-code bit lands."""
    pairs = pair_index_table(n)
    maps = []
    for sigma in permutations(range(n)):
        dest = [0] * len(pairs)
        for (i, j), pos in pairs.items():
            a, b = sigma[i], sigma[j]
            dest[pos] = pairs[(a, b) if a < b else (b, a)]
        maps.append(tuple(dest))
    return tuple(maps)


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return Graph(g.order, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)))


def relabeled(g: Graph, perm) -> Graph:
    """The graph with vertex v renamed perm[v]."""
    rows = [0] * g.order
    for v, row in enumerate(g.rows):
        new = 0
        for u in iter_bits(row):
            new |= 1 << perm[u]
        rows[perm[v]] = new
    return Graph(g.order, tuple(rows))


def induced(g: Graph, vertices) -> Graph:
    """Induced subgraph on ``vertices`` (kept in the given order)."""
    verts = list(vertices)
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for j, u in enumerate(verts):
            if g.has_edge(v, u):
                rows[i] |= 1 << j
    return Graph(len(verts), tuple(rows))


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """Each triangle once as (a, b, c), a < b < c, in lexicographic order:
    every pair of later neighbours of a that is joined."""
    return [(a, b, c) for a in range(g.order)
            for b, c in combinations([v for v in g.neighbors(a) if v > a], 2)
            if g.has_edge(b, c)]


def c4s_through_edge(g: Graph, u: int, v: int) -> list[tuple[int, int]]:
    """Induced C4s through edge (u,v), as (w, x) with u-v-w-x-u the cycle."""
    rows = g.rows
    out = []
    for w in iter_bits(rows[v] & ~rows[u] & ~(1 << u)):
        for x in iter_bits(rows[u] & rows[w] & ~rows[v] & ~(1 << v)):
            out.append((w, x))
    return out


@lru_cache(maxsize=1)
def quad_pair_cases():
    """Seeded (graph, edge) cases for the quadrilateral-pair kernels: every
    edge of 30 random graphs and 150 edges of BvLS 243 after 3 switches.
    Some hold two quadrilaterals through the edge that share a vertex."""
    rng = random.Random(4)
    graphs = [random_graph(rng, rng.randint(6, 14), rng.random() * 0.5 + 0.2)
              for _ in range(30)]
    switched = double_edge_switched(build_bvls243(), rng, 3)
    cases = [(g, e) for g in graphs for e in g.edges()]
    cases += [(switched, e) for e in rng.sample(list(switched.edges()), 150)]
    return tuple(cases)


def graph_from_code(code: int, n: int) -> Graph:
    """Inverse of ``Graph.subgraph_code`` for a graph on n labelled vertices."""
    pairs = pair_index_table(n).items()
    return Graph.from_edges(n, [pair for pair, pos in pairs if code >> pos & 1])


def early_break_canonical_code(code: int, n: int) -> int:
    """Lexicographically minimal relabelling of a packed edge code.

    Tries every permutation of range(n) and abandons one as soon as its
    partial image, built from the lowest bit up, exceeds the best so far.
    """
    if code == 0:
        return 0
    best = None
    for dest in _perm_bit_maps(n):
        cand = 0
        m = code
        while m:
            low = m & -m
            cand |= 1 << dest[low.bit_length() - 1]
            m ^= low
            if best is not None and cand > best:
                break
        else:
            if best is None or cand < best:
                best = cand
    return best


def oracle_six_census(g: Graph) -> dict[int, int]:
    """Number of 6-subsets per certificate, each subset labelled by
    ``early_break_canonical_code``."""
    counts = {}
    for subset in combinations(range(g.order), 6):
        cert = early_break_canonical_code(g.subgraph_code(subset), 6)
        counts[cert] = counts.get(cert, 0) + 1
    return counts


def certificate_type(g: Graph, verts):
    """Named type of the subgraph induced on 6 vertices, or None, decided by
    canonical certificate (minimum edge code over all 720 relabellings)."""
    names = {cert: name for name, cert in named_type_certificates().items()}
    return names.get(classify_code(g.subgraph_code(tuple(sorted(verts))), 6))


def coded_walks_from(g: Graph, s: int):
    """(pentagon, house, paw) counts of the closed walks s-w1-w2-w3-w4-s
    coded 0 1 2 2 1 0, walk by walk; a walk with two or more chords gives
    its error message instead."""
    ns = g.rows[s]
    d2 = {w for w in range(g.order)
          if w != s and not ns >> w & 1 and g.rows[w] & ns}
    counts = [0, 0, 0]
    for w1 in g.neighbors(s):
        for w2 in (w for w in g.neighbors(w1) if w in d2):
            for w3 in (w for w in g.neighbors(w2) if w in d2):
                for w4 in (w for w in g.neighbors(w3) if ns >> w & 1):
                    if w4 == w1:
                        counts[2] += 1
                        continue
                    chords = g.has_edge(w1, w3) + g.has_edge(w1, w4) + g.has_edge(w2, w4)
                    if chords >= 2:
                        return f"walk ({s},{w1},{w2},{w3},{w4}) has {chords} chords"
                    counts[chords] += 1
    return tuple(counts)


def pentagon_side_is_n4(rows, pent, i) -> bool:
    """Whether side (pent[i], pent[i+1]) of induced pentagon ``pent`` and
    its apex make type n4 rather than n8.

    The side has one apex, its unique common neighbour, and the apex lies
    outside the pentagon.  Its further neighbours on the pentagon,
    ``rows[apex] & pmask & ~side``, are none (n8) or the opposite vertex
    alone (n4); any other pattern raises.
    """
    pmask = 0
    for v in pent:
        pmask |= 1 << v
    a, b = pent[i], pent[i - 4]
    apex_mask = rows[a] & rows[b]
    if apex_mask.bit_count() != 1:
        raise FamilyViolationError(
            f"side ({a},{b}) has {apex_mask.bit_count()} triangle apexes"
        )
    if apex_mask & pmask:
        raise CountingInconsistencyError(
            f"apex of side ({a},{b}) lies inside pentagon {pent}"
        )
    apex_row = rows[apex_mask.bit_length() - 1]
    rest = apex_row & pmask & ~((1 << a) | (1 << b))
    if rest and rest != 1 << pent[i - 2]:  # not the opposite vertex alone
        hits = (
            (apex_row >> pent[i - 3] & 1)
            + (apex_row >> pent[i - 2] & 1) * 2
            + (apex_row >> pent[i - 1] & 1) * 4
        )
        raise CountingInconsistencyError(
            f"apex of side ({a},{b}) has adjacency pattern {hits:03b} "
            f"on pentagon {pent}"
        )
    return bool(rest)


def pentagon_n4_sides(rows, pent) -> int:
    """Number of sides of induced pentagon ``pent`` that make type n4."""
    return sum(pentagon_side_is_n4(rows, pent, i) for i in range(5))


def pentagons_through(g: Graph, u: int, v: int):
    """Induced pentagons u-v-w-x-y-u through edge (u, v), as tuples, by
    walking three steps from v and testing every pair of the five."""
    out = []
    for w in g.neighbors(v):
        for x in g.neighbors(w):
            for y in g.neighbors(x):
                pent = (u, v, w, x, y)
                if len(set(pent)) < 5 or not g.has_edge(y, u):
                    continue
                edges = sum(g.has_edge(a, b) for a, b in combinations(pent, 2))
                if edges == 5:
                    out.append(pent)
    return out


def iter_pentagons(g: Graph):
    """Each induced pentagon once, as u-v-w-x-y-u with u its minimum vertex
    and v < y, from the walks of ``pentagons_through``."""
    for u in range(g.order):
        for v in g.neighbors(u):
            for pent in pentagons_through(g, u, v):
                if min(pent) == u and v < pent[4]:
                    yield pent


def pentagon_scan_pairwise(rows, n: int, v0_list) -> int:
    """Induced pentagons v0-v1-v2-v3-v4 whose minimum vertex is in v0_list,
    v1 < v4, one popcount over v3 per path v0-v1-v2 and end v4."""
    count = 0
    for v0 in v0_list:
        abv = ((1 << n) - 1) & ~((1 << (v0 + 1)) - 1)
        nv0 = rows[v0]
        outer = nv0 & abv
        for v1 in iter_bits(outer):
            r1 = rows[v1]
            for v4 in iter_bits(outer & ~((1 << (v1 + 1)) - 1) & ~r1):
                r4 = rows[v4]
                base3 = r4 & abv & ~nv0 & ~r1
                for v2 in iter_bits(r1 & abv & ~nv0 & ~r4):
                    count += (rows[v2] & base3).bit_count()
    return count


def hexagon_scan_pairwise(rows, n: int, v0_list) -> int:
    """Induced hexagons v0-v1-v2-v3-v4-v5 whose minimum vertex is in
    v0_list, one popcount over v3 per pair (v2, v4) of non-adjacent ends."""
    count = 0
    for v0 in v0_list:
        abv = ((1 << n) - 1) & ~((1 << (v0 + 1)) - 1)
        nv0 = rows[v0]
        outer = nv0 & abv
        for v1 in iter_bits(outer):
            r1 = rows[v1]
            for v5 in iter_bits(outer & ~((1 << (v1 + 1)) - 1) & ~r1):
                r5 = rows[v5]
                base2 = r1 & abv & ~nv0 & ~r5
                base4 = r5 & abv & ~nv0 & ~r1
                base3 = abv & ~nv0 & ~r1 & ~r5
                for v2 in iter_bits(base2):
                    r2 = rows[v2]
                    part3 = r2 & base3
                    for v4 in iter_bits(base4 & ~r2):
                        count += (part3 & rows[v4]).bit_count()
    return count


def triangle_pair_census_pairwise(g: Graph) -> TrianglePairCensus:
    """The disjoint triangle pair census, one pair of triangles at a time:
    a pair whose cross edges are no matching is excluded, the others are
    classed by cross-edge count, and the n3 witness is the first n3 pair in
    listing order."""
    rows = g.rows
    tris = triangles(g)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in tris]
    around = [
        (rows[a] | rows[b] | rows[c]) & ~m for (a, b, c), m in zip(tris, masks)
    ]
    by_cross = [0, 0, 0, 0]
    excluded = 0
    witness = None
    for i, ti in enumerate(tris):
        mi = masks[i]
        ra, rb, rc = (rows[x] for x in ti)
        for j in range(i + 1, len(tris)):
            mj = masks[j]
            if mi & mj:
                continue
            # a matching has as many edges as endpoints on either side
            cross = (ra & mj).bit_count() + (rb & mj).bit_count() + (rc & mj).bit_count()
            if cross != (around[i] & mj).bit_count() or cross != (around[j] & mi).bit_count():
                excluded += 1
                continue
            by_cross[cross] += 1
            if cross == 2 and witness is None:
                tj = tris[j]
                edges = tuple((u, x) for u in ti for x in tj if rows[u] >> x & 1)
                witness = (ti, tj, edges)
    n14, n5, n3, n1 = by_cross
    return TrianglePairCensus(n1, n3, n5, n14, excluded, len(tris), witness)


def pentagon_edge_scan_pairwise(rows, edges):
    """(n4 sides, pentagons through each edge) over ``edges``, one popcount
    over x per pair (w, y) of each pentagon u-v-w-x-y-u; raises as the
    census kernel does, before counting, on an edge without exactly one
    triangle apex or whose apex meets w or y."""
    n4 = 0
    counts = []
    for u, v in edges:
        ru, rv = rows[u], rows[v]
        apex_mask = ru & rv
        if apex_mask.bit_count() != 1:
            raise FamilyViolationError(
                f"side ({u},{v}) has {apex_mask.bit_count()} triangle apexes"
            )
        rt = rows[apex_mask.bit_length() - 1]
        not_uv = ~(ru | rv)
        ws = rv & ~ru & ~(1 << u)
        ys = ru & ~rv & ~(1 << v)
        if (ws | ys) & rt:
            _apex_pattern_check(rows, u, v, rt, ws, ys, not_uv)
        count = 0
        for w in iter_bits(ws):
            rw = rows[w]
            xbase = rw & not_uv
            for y in iter_bits(ys & ~rw):
                count += (xbase & rows[y]).bit_count()
                n4 += (xbase & rt & rows[y]).bit_count()
        counts.append(count)
    return n4, counts


def pentagon_side_census(g: Graph):
    """(n4, n8, p5) by classifying the five sides of each induced pentagon."""
    n4 = p5 = 0
    for pent in iter_pentagons(g):
        p5 += 1
        n4 += pentagon_n4_sides(g.rows, pent)
    return n4, 5 * p5 - n4, p5


def edges_clear_of(g: Graph, closed: int) -> int:
    """Edges with neither end in the vertex mask ``closed``, one vertex of
    the complement at a time."""
    outside = ((1 << g.order) - 1) & ~closed
    left = outside
    count = 0
    for u in range(g.order):
        if outside >> u & 1:
            left ^= 1 << u
            count += (g.rows[u] & left).bit_count()
    return count


def double_edge_switched(g: Graph, rng, count: int) -> Graph:
    """``g`` after ``count`` seeded degree-preserving double-edge switches.

    Edges a-b and c-d become a-d and c-b, provided the four vertices are
    distinct and neither new edge exists or was removed by an earlier
    switch, so no switch undoes another and the edge set always changes.
    """
    rows = list(g.rows)
    edges = list(g.edges())
    removed = set()
    done = 0
    while done < count:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {frozenset((a, d)), frozenset((c, b))}
        if len({a, b, c, d}) < 4 or rows[a] >> d & 1 or rows[c] >> b & 1 or new & removed:
            continue
        rows[a] ^= 1 << b | 1 << d
        rows[b] ^= 1 << a | 1 << c
        rows[c] ^= 1 << d | 1 << b
        rows[d] ^= 1 << c | 1 << a
        edges.remove((a, b) if a < b else (b, a))
        edges.remove((c, d) if c < d else (d, c))
        edges += [(min(a, d), max(a, d)), (min(c, b), max(c, b))]
        removed |= {frozenset((a, b)), frozenset((c, d))}
        done += 1
    return Graph(g.order, tuple(rows))


def verify_srg_pairwise(g: Graph, expected: SrgParams) -> SrgReport:
    """``graph.verify_srg`` as it was before it stopped at its witnesses: a
    degree list, then every pair of vertices, counting the non-edges."""
    n = g.order
    degenerate = n <= 1
    if degenerate:
        return SrgReport(
            expected, True, True, 0 if n else None, None,
            True, None, True, True, None,
            params_match=(expected.n == n),
            order_relation_ok=True,
        )

    degs = [g.degree(v) for v in range(n)]
    k = degs[0]
    regular = True
    degree_witness = None
    for v, d in enumerate(degs):
        if d != k:
            regular = False
            degree_witness = (v, d)
            break

    lambda_ok = True
    lambda_witness = None
    mu_ok = True
    mu_witness = None
    nonedges = 0
    for u in range(n):
        row = g.rows[u]
        for v in range(u + 1, n):
            c = (row & g.rows[v]).bit_count()
            if row >> v & 1:
                if lambda_ok and c != expected.lam:
                    lambda_ok = False
                    lambda_witness = (u, v, c)
            else:
                nonedges += 1
                if mu_ok and c != expected.mu:
                    mu_ok = False
                    mu_witness = (u, v, c)
    mu_vacuous = nonedges == 0

    params_match = regular and n == expected.n and k == expected.k
    if expected.is_family and regular:
        order_relation_ok = k * (k - 2) == 2 * (n - k - 1)
    else:
        order_relation_ok = True
    return SrgReport(
        expected, False, regular,
        k if regular else None, degree_witness,
        lambda_ok, lambda_witness,
        mu_ok, mu_vacuous, mu_witness,
        params_match, order_relation_ok,
    )


def circulant(n: int, k: int) -> Graph:
    """The k-regular circulant on n vertices (k even): i ~ i +- 1..k/2."""
    return Graph.from_edges(n, [(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)])


@lru_cache(maxsize=1)
def verify_cases() -> tuple:
    """Seeded (graph, expected) pairs on which ``verify_srg`` must give the
    report of ``verify_srg_pairwise``: random graphs of 0-40 vertices at five
    densities, K0 to K8, the three builtins and a relabelled Paley 9, BvLS 243
    after 1-3 switches and three random 14-regular graphs on 99 vertices.
    Each graph is checked against (n, degree of vertex 0, 1, 2) and against
    parameters with lam and mu drawn from 0..3 (k redrawn one time in four)."""
    rng = random.Random(99)
    bvls, paley = build_bvls243(), build_paley9()
    graphs = [random_graph(rng, rng.randint(0, 40), p)
              for p in (0.1, 0.3, 0.5, 0.8, 0.95) for _ in range(15)]
    graphs += [Graph.from_edges(n, combinations(range(n), 2)) for n in range(9)]
    graphs += [build_k3(), paley, relabeled(paley, rng.sample(range(9), 9)), bvls]
    graphs += [double_edge_switched(bvls, rng, count) for count in (1, 2, 3)]
    graphs += [double_edge_switched(circulant(99, 14), rng, 400) for _ in range(3)]
    cases = []
    for g in graphs:
        n, k = max(g.order, 1), g.degree(0) if g.order else 0
        cases.append((g, SrgParams(n, k, 1, 2)))
        k = k if rng.random() < 0.75 else rng.randrange(n)
        cases.append((g, SrgParams(n, k, rng.randint(0, 3), rng.randint(0, 3))))
    return tuple(cases)


def outcome(call, *args):
    """call(*args), or the type name and text of the census error it raised."""
    try:
        return call(*args)
    except (CountingInconsistencyError, FamilyViolationError) as exc:
        return type(exc).__name__, str(exc)


def raised(call):
    """The exception that ``call()`` raises; the test fails if it returns."""
    with pytest.raises(Exception) as info:
        call()
    return info.value


def raise_error(tmp_path, call, data):
    """The Graph6Error that ``graph6.<call>`` raises on ``data`` (load_file
    reads it from a file)."""
    path = tmp_path / "g.g6"
    if call == "load_file":
        path.write_bytes(data)
        data = path
    with pytest.raises(Graph6Error) as info:
        getattr(graph6, call)(data)
    return info.value, path


def exit_code(argv):
    """The exit code of ``srg12 <argv>``, argparse's exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def command_outcome(capsys, argv):
    """Exit code, stdout and last stderr line of ``srg12 <argv>``; argparse's
    own errors come after its usage lines."""
    code = exit_code(argv.split())
    out = capsys.readouterr()
    return code, out.out, out.err.splitlines()[-1]


def random_graph(rng, n, p) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _degrees_of_code(code: int, size: int):
    degs = [0] * size
    pos = 0
    for i in range(size):
        for j in range(i + 1, size):
            if code >> pos & 1:
                degs[i] += 1
                degs[j] += 1
            pos += 1
    return degs


def _connected_code(code: int, size: int) -> bool:
    adj = [0] * size
    pos = 0
    for i in range(size):
        for j in range(i + 1, size):
            if code >> pos & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        rest = adj[v] & ~seen
        while rest:
            low = rest & -rest
            seen |= low
            frontier.append(low.bit_length() - 1)
            rest ^= low
    return seen == (1 << size) - 1


def induced_cycle_count(g: Graph, length: int) -> int:
    """Count induced C_length by scanning all vertex subsets."""
    count = 0
    for subset in combinations(range(g.order), length):
        code = g.subgraph_code(subset)
        if code.bit_count() != length:
            continue
        if _degrees_of_code(code, length) != [2] * length:
            continue
        if _connected_code(code, length):
            count += 1
    return count


def induced_cycles_through_edge(g: Graph, edge, length: int) -> int:
    u, v = edge
    count = 0
    for subset in combinations(range(g.order), length):
        if u not in subset or v not in subset:
            continue
        code = g.subgraph_code(subset)
        if code.bit_count() != length:
            continue
        if _degrees_of_code(code, length) != [2] * length:
            continue
        if _connected_code(code, length):
            count += 1
    return count


def brute_edge_triples(g: Graph):
    """(e4, e5, e6) by scanning every unordered triple of edges."""
    masks = [(1 << u) | (1 << v) for u, v in g.edges()]
    e4 = e5 = e6 = 0
    for a, b, c in combinations(masks, 3):
        span = (a | b | c).bit_count()
        if span <= 4:
            e4 += 1
        elif span == 5:
            e5 += 1
        else:
            e6 += 1
    return e4, e5, e6


def _induced_quads(g: Graph):
    """Vertex 4-subsets inducing a C4, by scanning every 4-subset."""
    for subset in combinations(range(g.order), 4):
        code = g.subgraph_code(subset)
        if code.bit_count() == 4 and _degrees_of_code(code, 4) == [2, 2, 2, 2]:
            yield subset


def quad_edge_incidences(g: Graph) -> int:
    """Pairs (induced C4, vertex-disjoint edge) counted directly."""
    total = 0
    c4s = [(1 << a) | (1 << b) | (1 << c) | (1 << d) for a, b, c, d in _induced_quads(g)]
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges()]
    for qmask in c4s:
        for em in edge_masks:
            if not qmask & em:
                total += 1
    return total


def quad_edge_type_incidences(g: Graph) -> tuple[int, int, int]:
    """Pairs (induced C4, vertex-disjoint edge) whose six vertices induce
    the prism, type n4 and type n9, each classified by canonical
    certificate."""
    edges = list(g.edges())
    found = Counter(certificate_type(g, quad + edge) for quad in _induced_quads(g)
                    for edge in edges if not set(quad) & set(edge))
    return found["n1"], found["n4"], found["n9"]


def one_apex_per_edge_graph(rng, n: int, tries: int = 40) -> Graph:
    """Seeded graph on n vertices made of edge-disjoint triangles: each of
    ``tries`` random triangles is added when every edge then lies in exactly
    one triangle.  Opposite corners of a quadrilateral may still share
    further neighbours, so mu = 2 need not hold."""
    edges = set()
    for _ in range(tries):
        a, b, c = rng.sample(range(n), 3)
        tri = {(min(x, y), max(x, y)) for x, y in ((a, b), (a, c), (b, c))}
        trial = Graph.from_edges(n, edges | tri)
        if not tri & edges and all(trial.common_neighbors(x, y) == 1
                                   for x, y in trial.edges()):
            edges |= tri
    return Graph.from_edges(n, edges)


def unverified_family(g: Graph) -> VerifiedFamily:
    """The verified-family value of g, built without verifying, so that a
    family census runs its kernels on a graph outside the family."""
    return VerifiedFamily(g, g.order, g.degree(0), g.num_edges)


def triangle_with_pendants(joins) -> Graph:
    """The triangle 0-1-2 with two pendants at each corner (3 and 4 at 0, 5
    and 6 at 1, 7 and 8 at 2), the pendants joined by the edges ``joins``."""
    return Graph.from_edges(9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6),
                                (2, 7), (2, 8), *joins])


def laplace_determinant(g: Graph) -> int:
    """Cofactor-expansion determinant of the adjacency matrix."""
    n = g.order
    mat = [[g.rows[i] >> j & 1 for j in range(n)] for i in range(n)]

    def det(m):
        size = len(m)
        if size == 0:
            return 1
        if size == 1:
            return m[0][0]
        total = 0
        sign = 1
        for col in range(size):
            if m[0][col]:
                minor = [row[:col] + row[col + 1:] for row in m[1:]]
                total += sign * m[0][col] * det(minor)
            sign = -sign
        return total

    return det(mat)


def petersen() -> Graph:
    """Kneser graph K(5,2): 2-subsets of a 5-set, adjacent iff disjoint."""
    verts = list(combinations(range(5), 2))
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(verts, 2)
        if not set(a) & set(b)
    ]
    return Graph.from_edges(10, edges)


def quadratic_hexagon_bound(a2: int, a1: int, a0: int):
    """``identities.hexagon_bound`` with its quadratic 2k^2 - 21k + 53
    replaced by a2 k^2 + a1 k + a0, as an exact Fraction: the mutant for
    the polynomial-chain tests."""
    def bound(n: int, k: int) -> Fraction:
        return Fraction(n * k * (k - 2) * (a2 * k * k + a1 * k + a0), 12)
    return bound


def ci_detsum(g: Graph, i: int) -> int:
    """Brute-force c_i of the characteristic polynomial: signed sum of
    induced-subgraph determinants over all i-subsets.  Guarded to 10
    vertices and i <= 6."""
    if g.order > 10 or i > 6:
        raise SizeLimitError("determinant-sum oracle guarded to n<=10, i<=6")
    total = sum(determinant_of_code(g.subgraph_code(subset), i)
                for subset in combinations(range(g.order), i))
    return (-1) ** i * total


def paley9_gf9() -> Graph:
    """Paley graph on GF(9) from its field arithmetic: GF(9) is
    GF(3)[x]/(x^2+1), a+bx is vertex 3a+b, and u ~ v iff u - v is a nonzero
    square."""
    def mul(p, q):
        (a, b), (c, d) = divmod(p, 3), divmod(q, 3)
        return ((a * c - b * d) % 3) * 3 + (a * d + b * c) % 3  # x^2 = -1

    def sub(p, q):
        (a, b), (c, d) = divmod(p, 3), divmod(q, 3)
        return ((a - c) % 3) * 3 + (b - d) % 3

    squares = {mul(t, t) for t in range(1, 9)}
    return Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                                if sub(u, v) in squares])


def report_entry(report, name: str):
    """The entry of an identity report named ``name``."""
    for e in report.entries:
        if e.name == name:
            return e
    raise KeyError(name)


def check_feasible_relations(fp) -> None:
    """Raise InfeasibleParametersError naming the first relation a
    ``FeasibleParams`` row fails: n and the multiplicity total here, the
    spectral relations in ``Spectrum.check_relations``."""
    relations = (
        ("n = (k^2+2)/2", 2 * fp.n == fp.k**2 + 2),
        ("r1 + r2 = n - 1", fp.r1 + fp.r2 == fp.n - 1),
    )
    for relation, holds in relations:
        if not holds:
            raise InfeasibleParametersError(f"parameters {fp} violate {relation}", relation)
    Spectrum(fp.k, fp.lambda1, fp.lambda2, fp.r1, fp.r2).check_relations()


# -- the graph6 codec and the symmetry check as per-edge loops -----------------
# The codec before it ran through binascii and the transpose, and the
# symmetry loop that ``Graph`` now runs only to name its witness.

_BITS_OF_BYTE = {byte: format(byte - 63, "06b") for byte in graph6._BODY_BYTES}


def graph6_encode_loop(g: Graph) -> bytes:
    """Encode a graph as one graph6 line (without trailing newline)."""
    # upper triangle, column by column: x(0,1), x(0,2), x(1,2), x(0,3), ...;
    # column j is row j's j low bits, lowest first (the 1 << j keeps their zeros)
    bits = "".join([bin(row & (1 << j) - 1 | 1 << j)[:2:-1] for j, row in enumerate(g.rows)])
    bits += "0" * (-len(bits) % 6)
    return graph6._encode_order(g.order) + bytes(
        [int(bits[pos:pos + 6], 2) + 63 for pos in range(0, len(bits), 6)])


def graph6_decode_loop(data) -> Graph:
    """Decode one graph6 line (bytes or str) into a Graph."""
    if isinstance(data, str):
        data = graph6._ascii(data)
    if data.startswith(graph6._HEADER):
        data = data[len(graph6._HEADER):]
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 line")
    n, body_start = graph6._decode_order(data)
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    body = data[body_start:]
    if len(body) != need_bytes:
        raise Graph6Error(f"graph6 body for n={n} needs {need_bytes} bytes, got {len(body)}",
                          byte_index=body_start + min(len(body), need_bytes))
    rest = body.lstrip(graph6._BODY_BYTES)
    if rest:
        raise Graph6Error(f"byte 0x{rest[0]:02x} outside graph6 range",
                          byte_index=len(data) - len(rest))
    bits = "".join(map(_BITS_OF_BYTE.__getitem__, body))
    if "1" in bits[need_bits:]:  # the padding, all in the last byte
        raise Graph6Error("nonzero padding bits", byte_index=body_start + need_bytes - 1)
    rows = [0] * n
    for j in range(1, n):  # column j holds x(i, j) for i < j, lowest i first
        rows[j] = col = int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    return Graph(n, tuple(rows))


def symmetry_loop(rows) -> None:
    """Raise ValueError naming the first (u, v), in the order of v then u,
    with u in row v but v not in row u."""
    for v, row in enumerate(rows):
        for u in iter_bits(row):
            if not rows[u] >> v & 1:
                raise ValueError(f"adjacency not symmetric on ({u}, {v})")


def transpose_loop(rows) -> list[int]:
    """The transpose of a square bit matrix, one set bit at a time."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in iter_bits(row):
            out[j] |= 1 << i
    return out
