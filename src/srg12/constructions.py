"""Known members of the lambda=1, mu=2 family and feasible parameter sets.

The three constructible members are the triangle K3, the Paley graph on
GF(9), and the 243-vertex coset graph of the perfect ternary Golay code
(Berlekamp-Van Lint-Seidel graph).  The Golay construction self-validates:
the finished graph must verify as srg(243,22,1,2) or construction aborts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InfeasibleParametersError
from .graph import Graph, SrgParams, verify_srg
from .spectral import srg_spectrum

KNOWN_GRAPH_TAGS = {2: "K3", 4: "Paley9", 22: "BvLS243"}


def build_k3() -> Graph:
    """The triangle: the degenerate k=2 member (mu is vacuous)."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def build_paley9() -> Graph:
    """Paley graph on GF(9) = GF(3)[x]/(x^2+1), with a+bx labelled 3a+b.

    Its nonzero squares are +-1 and +-x, so u ~ v iff u and v agree in
    exactly one ternary digit: the 3x3 rook's graph.
    """
    return Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                                if u // 3 == v // 3 or u % 3 == v % 3])


# -- ternary Golay coset graph --------------------------------------------


# Parity-check matrix [A | I5] of the perfect ternary Golay [11,6,5] code
# generated by g(x) = 2 + x^2 + 2x^3 + x^4 + x^5, a factor of x^11 - 1 over
# GF(3); its rows span the dual code.
GOLAY_PARITY_CHECK = (
    (1, 2, 2, 2, 1, 0, 1, 0, 0, 0, 0),
    (0, 1, 2, 2, 2, 1, 0, 1, 0, 0, 0),
    (2, 1, 2, 0, 1, 2, 0, 0, 1, 0, 0),
    (1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0),
    (2, 2, 2, 1, 0, 1, 0, 0, 0, 0, 1),
)


def build_bvls243() -> Graph:
    """Coset graph of the perfect ternary Golay [11,6,5] code.

    Vertices are the 3^5 = 243 cosets of the code in GF(3)^11, identified
    with their syndromes; two cosets are adjacent iff their difference coset
    contains a word of weight 1.  Equivalently this is the Cayley graph of
    GF(3)^5 whose connection set is the 22 signed parity-check columns.
    """
    conn_digits = [tuple(sign * row[col] % 3 for row in GOLAY_PARITY_CHECK)
                   for col in range(11) for sign in (1, -1)]
    digits = [tuple((v // 3**i) % 3 for i in range(5)) for v in range(243)]
    rows = [0] * 243
    for v in range(243):
        dv = digits[v]
        row = 0
        for dc in conn_digits:
            u = 0
            for i in range(4, -1, -1):
                u = u * 3 + (dv[i] + dc[i]) % 3
            row |= 1 << u
        rows[v] = row
    g = Graph(243, tuple(rows))

    report = verify_srg(g, SrgParams(243, 22, 1, 2))
    if not report.passed:
        raise AssertionError(
            f"Golay coset graph failed srg(243,22,1,2) verification: {report}"
        )
    return g


BUILTIN_GRAPHS = {
    "k3": build_k3,
    "paley9": build_paley9,
    "bvls243": build_bvls243,
}


# -- feasible parameter sets ----------------------------------------------


@dataclass(frozen=True, slots=True)
class FeasibleParams:
    """A spectrally feasible (n, k) for the family, with its exact spectrum."""

    k: int
    n: int
    lambda1: int
    lambda2: int
    r1: int
    r2: int
    known_graph: Optional[str]


def feasible_parameters(k_max: int, include_degenerate: bool = False):
    """All spectrally feasible valencies k <= k_max for the family.

    Walks even k (Condition I forces k even), keeps those where 4k-7 is a
    perfect square and the multiplicities come out as non-negative integers.
    The degenerate k=2 (K3: no non-edges, mu unwitnessed) is excluded unless
    ``include_degenerate``.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    out = []
    start = 2 if include_degenerate else 4
    for k in range(start, k_max + 1, 2):
        n = (k * k + 2) // 2
        try:
            spec = srg_spectrum(SrgParams(n, k))
        except InfeasibleParametersError:
            continue
        out.append(FeasibleParams(k, n, spec.lambda1, spec.lambda2, spec.r1,
                                  spec.r2, KNOWN_GRAPH_TAGS.get(k)))
    return out
