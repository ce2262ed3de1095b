"""Exact characteristic-polynomial coefficients, three independent ways.

For the lambda=1, mu=2 family the x^(n-6) coefficient c6 can be computed
from a closed form in (n, k), from a binomial sum over the spectrum, or
from power-sum traces of the adjacency matrix of a concrete graph via
Newton's identities.  All three routes use exact integer arithmetic; the
binomial route needs arbitrary precision (single terms near k=994 exceed
10^38 before cancellation).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .errors import (
    CountingInconsistencyError,
    InfeasibleParametersError,
    SizeLimitError,
)
from .graph import Graph, SrgParams


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Exact adjacency spectrum of a family member: k, two restricted
    eigenvalues and their multiplicities."""

    k: int
    lambda1: int
    lambda2: int
    r1: int
    r2: int

    @property
    def n(self) -> int:
        return self.r1 + self.r2 + 1

    def check_relations(self) -> None:
        """Raise InfeasibleParametersError naming the first relation that
        fails."""
        relations = (
            ("lambda1+lambda2 = -1", self.lambda1 + self.lambda2 == -1),
            ("lambda1*lambda2 = -(k-2)", self.lambda1 * self.lambda2 == -(self.k - 2)),
            ("k + r1*lambda1 + r2*lambda2 = 0",
             self.k + self.r1 * self.lambda1 + self.r2 * self.lambda2 == 0),
        )
        for relation, holds in relations:
            if not holds:
                raise InfeasibleParametersError(
                    f"spectrum {self} violates {relation}", relation
                )


@dataclass(frozen=True, slots=True)
class CharPolyPrefix:
    """Leading coefficients c0..cm of det(xI - A), c_i multiplying x^(n-i)."""

    coefficients: tuple[int, ...]

    def c(self, i: int) -> int:
        return self.coefficients[i]

    @property
    def c6(self) -> int:
        return self.coefficients[6]


def srg_spectrum(params: SrgParams) -> Spectrum:
    """Exact spectrum of srg(n,k,1,2); raises InfeasibleParametersError
    naming the failed relation when no integer solution exists, or when
    the parameters are not lambda = 1, mu = 2."""
    if not params.is_family:
        raise InfeasibleParametersError(
            f"spectrum solved only for lambda = 1, mu = 2, got {params}",
            "lambda = 1, mu = 2",
        )
    n, k = params.n, params.k
    disc = 4 * k - 7
    s = isqrt(max(disc, 0))  # k < 2 makes disc negative, so never square
    if s * s != disc:
        raise InfeasibleParametersError(
            f"4k-7 = {disc} is not a perfect square", "4k-7 square"
        )
    lam1 = (-1 + s) // 2
    lam2 = (-1 - s) // 2
    num = -k - (n - 1) * lam2
    if num % s:
        raise InfeasibleParametersError(
            f"multiplicity r1 = {num}/{s} is not an integer",
            "k + r1*lambda1 + r2*lambda2 = 0",
        )
    r1 = num // s
    r2 = n - 1 - r1
    if r1 < 0 or r2 < 0:
        raise InfeasibleParametersError(
            f"negative multiplicity (r1={r1}, r2={r2})", "r1, r2 >= 0"
        )
    spec = Spectrum(k, lam1, lam2, r1, r2)
    spec.check_relations()
    return spec


def c6_closed_form(n: int, k: int) -> int:
    """c6 for a family member directly from (n, k).

    The division by 576 must be exact; a remainder signals parameters
    outside the family.
    """
    if 2 * n != k * k + 2:
        raise ValueError(f"(n={n}, k={k}) violates n = (k^2+2)/2")
    poly = 3 * k**5 + 6 * k**4 - 84 * k**3 + 116 * k**2 + 124 * k - 240
    num = n * k * (k - 2) * poly
    if num % 576:
        raise ValueError(f"c6 closed form not divisible by 576 at (n={n}, k={k})")
    return -(num // 576)


def c6_binomial_sum(spec: Spectrum) -> int:
    """c6 from the spectrum: k*e5 + e6 of the restricted eigenvalue multiset."""
    k, l1, l2, r1, r2 = spec.k, spec.lambda1, spec.lambda2, spec.r1, spec.r2
    e5 = sum(
        comb(r1, 5 - i) * comb(r2, i) * l1 ** (5 - i) * l2**i for i in range(6)
    )
    e6 = sum(
        comb(r1, 6 - i) * comb(r2, i) * l1 ** (6 - i) * l2**i for i in range(7)
    )
    return k * e5 + e6


def adjacency_traces(g: Graph, m: int) -> tuple[int, ...]:
    """(tr A^1, ..., tr A^m), one pass per vertex v.

    Row v of A^2 is one popcount per row, row v of A^3 sums it over each
    vertex's neighbours, and the higher traces follow from symmetry,
    tr A^(i+j) = sum_{u,v} (A^i)_uv (A^j)_uv.  Supports m <= 6.
    """
    if m > 6:
        raise SizeLimitError("traces implemented up to m = 6")
    rows = g.rows
    nbrs = [tuple(g.neighbors(v)) for v in range(g.order)]
    t = [0] * 7  # t[i] = tr A^i; tr A = 0 without loops
    for v, rv in enumerate(rows):
        w2 = [(rv & r).bit_count() for r in rows]
        w3 = [sum(w2[x] for x in nb) for nb in nbrs]
        t[2] += w2[v]
        t[3] += w3[v]
        t[4] += sum(a * a for a in w2)
        t[5] += sum(a * b for a, b in zip(w2, w3))
        t[6] += sum(a * a for a in w3)
    return tuple(t[1:max(m, 0) + 1])


def charpoly_prefix(g: Graph, m: int = 6) -> CharPolyPrefix:
    """c0..cm of the characteristic polynomial via Newton's identities.

    Power sums are the traces of A^i; the elementary-symmetric recurrence
    is kept in integers; each division by i must be exact, and a remainder
    raises CountingInconsistencyError.
    """
    if m > g.order:
        m = g.order
    traces = adjacency_traces(g, m)
    e = [1]
    for i in range(1, m + 1):
        acc = 0
        sign = 1
        for j in range(1, i + 1):
            acc += sign * e[i - j] * traces[j - 1]
            sign = -sign
        if acc % i:
            raise CountingInconsistencyError(
                f"Newton recurrence not integral at step {i}: {acc} / {i}"
            )
        e.append(acc // i)
    coeffs = tuple((-1) ** i * e[i] for i in range(m + 1))
    return CharPolyPrefix(coeffs)

