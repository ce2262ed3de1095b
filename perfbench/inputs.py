"""Seeded input generation for the benchmark, in plain Python.

Graphs are lists of adjacency bit rows (row v has bit u set iff u ~ v), the
representation ``srg12.Graph`` uses, so nothing here imports the package:
generation cost stays out of the measured set-up time, and the candidate
graphs do not depend on the code under test.
"""

from __future__ import annotations

import random


def circulant(n: int, d: int) -> list[int]:
    """The d-regular circulant graph on n vertices (d even)."""
    rows = [0] * n
    for v in range(n):
        for s in range(1, d // 2 + 1):
            rows[v] |= 1 << ((v + s) % n) | 1 << ((v - s) % n)
    return rows


def edge_list(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows))
            if rows[u] >> v & 1]


def switch_edges(rows: list[int], rng: random.Random, count: int) -> list[int]:
    """Apply ``count`` degree-preserving double-edge switches.

    Edges a-b and c-d become a-d and c-b, provided the four vertices are
    distinct and neither new edge exists yet.
    """
    rows = list(rows)
    edges = edge_list(rows)
    done = 0
    while done < count:
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or rows[a] >> d & 1 or rows[c] >> b & 1:
            continue
        rows[a] ^= 1 << b | 1 << d
        rows[b] ^= 1 << a | 1 << c
        rows[c] ^= 1 << d | 1 << b
        rows[d] ^= 1 << c | 1 << a
        edges[i], edges[j] = (a, d), (c, b)
        done += 1
    return rows


def random_regular(n: int, d: int, rng: random.Random) -> list[int]:
    """A d-regular graph on n vertices: a circulant mixed by 5·|E| switches."""
    return switch_edges(circulant(n, d), rng, 5 * n * d // 2)


def random_gnm(n: int, m: int, rng: random.Random) -> list[int]:
    rows = [0] * n
    for u, v in rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Rename vertex v to perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        new = 0
        while row:
            low = row & -row
            new |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out[perm[v]] = new
    return out


def random_perm(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def condition_violation(rows: list[int]):
    """First pair breaking the family conditions, or None.

    Returns (u, v, adjacent, common): an edge whose endpoints do not have
    exactly one common neighbour, or a non-edge whose endpoints do not have
    exactly two.  Independent of the package's own condition checks.
    """
    n = len(rows)
    for u in range(n):
        for v in range(u + 1, n):
            adjacent = bool(rows[u] >> v & 1)
            common = (rows[u] & rows[v]).bit_count()
            if common != (1 if adjacent else 2):
                return (u, v, adjacent, common)
    return None
