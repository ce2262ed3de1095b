"""Known members of the lambda=1, mu=2 family and feasible parameter sets.

The three constructible members are the triangle K3, the Paley graph on
GF(9), and the 243-vertex coset graph of the perfect ternary Golay code
(Berlekamp-Van Lint-Seidel graph).  The Golay construction self-validates:
the finished graph must verify as srg(243,22,1,2) or construction aborts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .errors import InfeasibleParametersError
from .graph import Graph, SrgParams, verify_srg

KNOWN_GRAPH_TAGS = {2: "K3", 4: "Paley9", 22: "BvLS243"}


def build_k3() -> Graph:
    """The triangle: the degenerate k=2 member (mu is vacuous)."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


# -- Paley graph on GF(9) -------------------------------------------------
#
# GF(9) is realised as GF(3)[x]/(x^2+1); the element a+bx gets vertex index
# 3a+b, so the labelling (and hence graph6 output) is reproducible.


def _gf9_mul(p: int, q: int) -> int:
    a, b = divmod(p, 3)
    c, d = divmod(q, 3)
    # (a+bx)(c+dx) with x^2 = -1
    return ((a * c - b * d) % 3) * 3 + (a * d + b * c) % 3


def _gf9_sub(p: int, q: int) -> int:
    a, b = divmod(p, 3)
    c, d = divmod(q, 3)
    return ((a - c) % 3) * 3 + (b - d) % 3


def build_paley9() -> Graph:
    """Paley graph on GF(9): u ~ v iff u - v is a nonzero square."""
    squares = {_gf9_mul(t, t) for t in range(1, 9)}
    rows = [0] * 9
    for u in range(9):
        for v in range(u + 1, 9):
            if _gf9_sub(u, v) in squares:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(9, tuple(rows))


# -- ternary Golay coset graph --------------------------------------------


def _gf3_poly_divmod(num: list[int], den: list[int]):
    """Quotient and remainder of polynomials over GF(3), low-degree first."""
    num = list(num)
    dlead = den[-1]
    if dlead % 3 != 1:
        raise ValueError(f"divisor must be monic, leading coefficient {dlead}")
    quot = [0] * max(1, len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1] % 3
        if coef:
            quot[shift] = coef
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - coef * d) % 3
    while len(num) > 1 and num[-1] % 3 == 0:
        num.pop()
    return quot, [c % 3 for c in num]


def ternary_golay_generator() -> tuple[int, ...]:
    """Coefficients (low first) of a monic degree-5 factor of x^11-1 over GF(3).

    x^11-1 splits as (x-1) times two irreducible quintics; either quintic
    generates a perfect [11,6,5] code.  The lexicographically smallest
    coefficient tuple is chosen so the construction is deterministic.
    """
    target = [2] + [0] * 10 + [1]  # x^11 - 1 = x^11 + 2 over GF(3)
    found = []
    for mask in range(3**5):
        coeffs = []
        m = mask
        for _ in range(5):
            m, c = divmod(m, 3)
            coeffs.append(c)
        cand = coeffs + [1]
        if cand[0] == 0:
            continue  # x | g would put x | x^11-1
        _, rem = _gf3_poly_divmod(target, cand)
        if rem == [0]:
            found.append(tuple(cand))
    if not found:
        raise AssertionError("x^11-1 has no quintic factor over GF(3)")
    return min(found)


def _gf3_nullspace(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the right null space of a matrix over GF(3)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] % 3), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 if rows[r][c] % 3 == 1 else 2
        rows[r] = [(x * inv) % 3 for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % 3:
                f = rows[i][c] % 3
                rows[i] = [(a - f * b) % 3 for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for ri, pc in enumerate(pivots):
            vec[pc] = (-rows[ri][fc]) % 3
        basis.append(vec)
    return basis


def build_bvls243() -> Graph:
    """Coset graph of the perfect ternary Golay [11,6,5] code.

    Vertices are the 3^5 = 243 cosets of the code in GF(3)^11, identified
    with their syndromes; two cosets are adjacent iff their difference coset
    contains a word of weight 1.  Equivalently this is the Cayley graph of
    GF(3)^5 whose connection set is the 22 signed parity-check columns.
    """
    gen = ternary_golay_generator()
    # generator matrix: shifts of g(x) as rows of a 6 x 11 matrix
    gmat = []
    for shift in range(6):
        row = [0] * 11
        for i, c in enumerate(gen):
            row[shift + i] = c
        gmat.append(row)
    hmat = _gf3_nullspace(gmat)  # 5 x 11, rows span the dual code
    if len(hmat) != 5:
        raise AssertionError("parity check of the Golay code must have rank 5")

    def syndrome(col: int) -> tuple[int, ...]:
        return tuple(hrow[col] % 3 for hrow in hmat)

    def encode(vec) -> int:
        val = 0
        for digit in reversed(vec):
            val = val * 3 + digit
        return val

    connection = set()
    for col in range(11):
        s = syndrome(col)
        connection.add(encode(s))
        connection.add(encode(tuple((-d) % 3 for d in s)))
    if len(connection) != 22 or 0 in connection:
        raise AssertionError(
            "weight-1 words do not give 22 distinct nonzero cosets; "
            "generator polynomial is wrong"
        )

    digits = [tuple((v // 3**i) % 3 for i in range(5)) for v in range(243)]
    conn_digits = [digits[c] for c in connection]
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

    def check_relations(self) -> None:
        """Raise InfeasibleParametersError naming the first relation that
        fails."""
        relations = (
            ("n = (k^2+2)/2", 2 * self.n == self.k**2 + 2),
            ("lambda1+lambda2 = -1", self.lambda1 + self.lambda2 == -1),
            ("lambda1*lambda2 = -(k-2)", self.lambda1 * self.lambda2 == -(self.k - 2)),
            ("r1 + r2 = n - 1", self.r1 + self.r2 == self.n - 1),
            ("k + r1*lambda1 + r2*lambda2 = 0",
             self.k + self.r1 * self.lambda1 + self.r2 * self.lambda2 == 0),
        )
        for relation, holds in relations:
            if not holds:
                raise InfeasibleParametersError(
                    f"parameters {self} violate {relation}", relation
                )


def _solve_spectrum(n: int, k: int):
    """Integer eigenvalues/multiplicities for srg(n,k,1,2), or raise.

    Raises InfeasibleParametersError naming the first failed relation.
    """
    disc = 4 * k - 7
    s = isqrt(disc)
    if s * s != disc:
        raise InfeasibleParametersError(
            f"4k-7 = {disc} is not a perfect square", "4k-7 square"
        )
    lam1 = (-1 + s) // 2
    lam2 = (-1 - s) // 2
    if lam1 + lam2 != -1:  # needs s odd, which 4k-7 odd guarantees
        raise InfeasibleParametersError(
            "eigenvalues are not integers", "lambda1+lambda2 = -1"
        )
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
    return lam1, lam2, r1, r2


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
        if (k * k + 2) % 2:
            continue
        n = (k * k + 2) // 2
        try:
            lam1, lam2, r1, r2 = _solve_spectrum(n, k)
        except InfeasibleParametersError:
            continue
        fp = FeasibleParams(k, n, lam1, lam2, r1, r2, KNOWN_GRAPH_TAGS.get(k))
        fp.check_relations()
        out.append(fp)
    return out
