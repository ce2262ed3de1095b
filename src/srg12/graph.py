"""Core graph type and structural predicates.

Graphs are simple and undirected, with vertices 0..n-1 and the adjacency of
each vertex stored as one Python integer used as a bit vector.  Common-
neighbour counts, which dominate every census in this package, are then
single ``&``-and-popcount operations.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from ._bits import iter_bits, pair_index_table


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple graph: ``order`` vertices, one bit row per vertex."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.order
        if n < 0:
            raise ValueError("order must be non-negative")
        if len(self.rows) != n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"vertex {v} is adjacent to itself")
        for v, row in enumerate(self.rows):
            for u in iter_bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric on ({u}, {v})")

    @classmethod
    def from_edges(cls, order: int, edges) -> "Graph":
        rows = [0] * order
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) outside 0..{order - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, tuple(rows))

    # -- basic accessors -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.rows[v])

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in lexicographic order."""
        for u in range(self.order):
            for v in iter_bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def common_neighbors(self, u: int, v: int) -> int:
        return (self.rows[u] & self.rows[v]).bit_count()

    def complement(self) -> "Graph":
        full = (1 << self.order) - 1
        return Graph(
            self.order,
            tuple((full ^ row ^ (1 << v)) for v, row in enumerate(self.rows)),
        )

    def relabeled(self, perm) -> "Graph":
        """Return the graph with vertex v renamed perm[v]."""
        rows = [0] * self.order
        for v, row in enumerate(self.rows):
            new = 0
            for u in iter_bits(row):
                new |= 1 << perm[u]
            rows[perm[v]] = new
        return Graph(self.order, tuple(rows))

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on ``vertices`` (kept in the given order)."""
        verts = list(vertices)
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for i, v in enumerate(verts):
            row = self.rows[v]
            for j, u in enumerate(verts):
                if row >> u & 1:
                    rows[i] |= 1 << j
        return Graph(len(verts), tuple(rows))

    def subgraph_code(self, vertices) -> int:
        """Packed edge code of the induced subgraph on a sorted vertex tuple.

        Bit t of the result corresponds to pair t in lexicographic order over
        the positions of ``vertices``; it labels the named types and serves
        the test oracles (the exhaustive census builds its codes by prefix).
        """
        code = 0
        pos = 0
        k = len(vertices)
        rows = self.rows
        for a in range(k):
            ra = rows[vertices[a]]
            for b in range(a + 1, k):
                if ra >> vertices[b] & 1:
                    code |= 1 << pos
                pos += 1
        return code


def _rows_of_code(code: int, n: int) -> tuple[int, ...]:
    """Adjacency rows of the packed edge code of a graph on n vertices."""
    rows = [0] * n
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return tuple(rows)


@dataclass(frozen=True, slots=True)
class SrgParams:
    """Parameter quadruple (n, k, lam, mu) of a strongly regular graph."""

    n: int
    k: int
    lam: int = 1
    mu: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= self.k < self.n:
            raise ValueError("k must satisfy 0 <= k < n")

    @property
    def is_family(self) -> bool:
        return self.lam == 1 and self.mu == 2


# -- Conditions I and II ------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """Outcome of a per-edge or per-non-edge common-neighbour scan."""

    ok: bool
    pairs_checked: int
    violation: Optional[tuple[int, int, int]] = None  # (u, v, count)

    def __bool__(self) -> bool:
        return self.ok


def check_condition_one(g: Graph) -> ConditionReport:
    """Every edge lies in exactly one triangle (common-neighbour count 1)."""
    checked = 0
    for u, v in g.edges():
        checked += 1
        c = g.common_neighbors(u, v)
        if c != 1:
            return ConditionReport(False, checked, (u, v, c))
    return ConditionReport(True, checked)


def check_condition_two(g: Graph) -> ConditionReport:
    """Every non-adjacent pair lies in exactly one quadrilateral (count 2)."""
    checked = 0
    for u in range(g.order):
        row = g.rows[u]
        for v in range(u + 1, g.order):
            if row >> v & 1:
                continue
            checked += 1
            c = g.common_neighbors(u, v)
            if c != 2:
                return ConditionReport(False, checked, (u, v, c))
    return ConditionReport(True, checked)


# -- srg verification ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class SrgReport:
    """Structured outcome of verify_srg; never raises, records every failure."""

    expected: SrgParams
    degenerate: bool
    regular: bool
    degree: Optional[int]  # common degree when regular, else None
    degree_witness: Optional[tuple[int, int]]  # (vertex, its degree)
    lambda_ok: bool
    lambda_witness: Optional[tuple[int, int, int]]
    mu_ok: bool
    mu_vacuous: bool
    mu_witness: Optional[tuple[int, int, int]]
    params_match: bool
    order_relation_ok: bool  # k(k-2) == 2(n-k-1), evaluated for lam=1, mu=2

    @property
    def passed(self) -> bool:
        return (
            self.regular
            and self.lambda_ok
            and self.mu_ok
            and self.params_match
            and self.order_relation_ok
        )


def verify_srg(g: Graph, expected: SrgParams) -> SrgReport:
    """Check regularity and the lambda/mu uniformity of g against ``expected``.

    The report also evaluates the order relation k(k-2) = 2(n-k-1) that pins
    n = (k^2+2)/2 for the lam=1, mu=2 family (skipped for other parameters).
    """
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


# -- canonical forms of packed edge codes ---------------------------------


@dataclass(frozen=True, slots=True)
class CanonicalClass:
    """Order-independent certificate of a small graph.

    Certificates of two graphs are equal iff the graphs are isomorphic:
    the certificate is the minimum packed edge code in the graph's orbit
    under all vertex permutations (``code_orbit``).
    """

    certificate: int
    vertex_count: int
    edge_count: int


@lru_cache(maxsize=None)
def _orbit_columns(n: int) -> tuple[str, int, tuple[int, ...]]:
    """(field format, byte length, columns) of the edge-code bits on n <= 8
    vertices: column b holds, in native-endian field s, the mask of the bit
    that pair b lands on under permutation s of range(n)."""
    if n > 8:
        raise ValueError(f"code orbits are tabulated for at most 8 vertices, got {n}")
    pairs = pair_index_table(n)
    fmt, width = ("H", 2) if len(pairs) <= 16 else ("I", 4)
    mask = [[0] * n for _ in range(n)]
    for (i, j), pos in pairs.items():
        mask[i][j] = mask[j][i] = 1 << pos
    perms = list(itertools.permutations(range(n)))
    columns = []
    for i, j in pairs:
        column = bytearray(width * len(perms))
        fields = memoryview(column).cast(fmt)
        for s, sigma in enumerate(perms):
            fields[s] = mask[sigma[i]][sigma[j]]
        columns.append(int.from_bytes(column, sys.byteorder))
    return fmt, width * len(perms), tuple(columns)


def code_orbit(code: int, n: int) -> frozenset[int]:
    """Every relabelling of a packed edge code on n <= 8 vertices (a larger n
    raises ValueError): the sum of the ``_orbit_columns`` of its set bits
    holds, in field s, its image under permutation s (which sends distinct
    bits to distinct bits: no carries)."""
    fmt, size, columns = _orbit_columns(n)
    packed = sum([columns[b] for b in iter_bits(code)])
    return frozenset(memoryview(packed.to_bytes(size, sys.byteorder)).cast(fmt))


def canonical_code(code: int, n: int) -> int:
    """Lexicographically minimal relabelling of a packed edge code on
    n <= 8 vertices: the minimum of its orbit."""
    return min(code_orbit(code, n))


# classification cache: vertex count -> {raw code -> canonical code}
_CODE_CACHE: dict[int, dict[int, int]] = {}


def classify_code(code: int, n: int) -> int:
    cache = _CODE_CACHE.setdefault(n, {})
    cert = cache.get(code)
    if cert is None:
        cert = canonical_code(code, n)
        cache[code] = cert
    return cert


# -- exact determinants and perfect matchings of edge codes ---------------


def determinant_of_code(code: int, n: int) -> int:
    """Exact adjacency determinant of a packed edge code on n vertices, by
    Bareiss fraction-free elimination."""
    if n == 0:
        return 1
    rows = _rows_of_code(code, n)
    m = [[rows[i] >> j & 1 for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for p in range(n - 1):
        if m[p][p] == 0:
            for r in range(p + 1, n):
                if m[r][p] != 0:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[p][p]
        for r in range(p + 1, n):
            for c in range(p + 1, n):
                m[r][c] = (m[r][c] * pivot - m[r][p] * m[p][c]) // prev
            m[r][p] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def perfect_matching_count(rows, n: int) -> int:
    """Count perfect matchings by pairing off the lowest unmatched vertex."""
    if n % 2:
        return 0

    def rec(unmatched: int) -> int:
        if not unmatched:
            return 1
        low = unmatched & -unmatched
        v = low.bit_length() - 1
        rest = unmatched ^ low
        total = 0
        for u in iter_bits(rows[v] & rest):
            total += rec(rest ^ (1 << u))
        return total

    return rec((1 << n) - 1)


def matching_count_of_code(code: int, n: int) -> int:
    return perfect_matching_count(_rows_of_code(code, n), n)
