"""Classical oracles for the benchmark's expected outputs.

Written without importing tracediagrams, so a defect in the package's own
oracles (tracediagrams.matrices) cannot hide a defect in the engine.
Everything is exact: ints and Fractions only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm


def det_bareiss(a) -> Fraction:
    """Determinant by fraction-free elimination (row swaps on zero pivots)."""
    n = len(a)
    den = lcm(*(Fraction(x).denominator for row in a for x in row))
    m = [[int(Fraction(x) * den) for x in row] for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], den**n)


def charpoly_coeffs(a) -> list[Fraction]:
    """``c_0..c_n`` with ``det(A - x*I) = sum c_i x^i``, by Faddeev-LeVerrier."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    p = [Fraction(0)] * (n + 1)  # det(x*I - A) = sum p_i x^i
    p[n] = Fraction(1)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        p[n - k] = -sum(am[i][i] for i in range(n)) / k
        m = [[am[i][j] + (p[n - k] if i == j else 0) for j in range(n)] for i in range(n)]
    return [(-1) ** n * x for x in p]


def pfaffian(a) -> Fraction:
    """Signed sum over perfect matchings of a skew-symmetric matrix."""

    def pf(idx):
        if not idx:
            return Fraction(1)
        first, rest = idx[0], idx[1:]
        return sum(
            ((-1) ** pos * Fraction(a[first][j]) * pf(rest[:pos] + rest[pos + 1 :])
             for pos, j in enumerate(rest)),
            Fraction(0),
        )

    return pf(tuple(range(len(a))))


def dot(u, v) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(u, v)), Fraction(0))


def perm_sign(images) -> int:
    """Sign of a permutation of distinct integers, by counting inversions."""
    inv = sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )
    return -1 if inv % 2 else 1


# -- closed diagram values ---------------------------------------------------


def det_value(a) -> Fraction:
    n = len(a)
    return (-1) ** (n // 2) * factorial(n) * det_bareiss(a)


def charcoeff_value(a, i: int) -> Fraction:
    n = len(a)
    c = charpoly_coeffs(a)[i]
    return (-1) ** (i + n // 2) * factorial(i) * factorial(n - i) * c


def pf_value(a) -> Fraction:
    m = len(a) // 2
    return (-1) ** m * 2**m * factorial(m) * pfaffian(a)


def crossdot_value(u, v, w, x) -> Fraction:
    return dot(u, w) * dot(v, x) - dot(u, x) * dot(v, w)


# -- function matrices (rows: output index beta, columns: input index alpha) --


def sign_tensor(n: int, k: int) -> list[list[int]]:
    """The antisymmetrizer on k strands: sign(pi) where beta is alpha permuted."""
    out = [[0] * n**k for _ in range(n**k)]
    for c, alpha in enumerate(product(range(n), repeat=k)):
        if len(set(alpha)) < k:
            continue
        for pi in permutations(range(k)):
            row = sum(alpha[p] * n ** (k - 1 - i) for i, p in enumerate(pi))
            out[row][c] = perm_sign(pi)
    return out


def twonode_matrix(n: int, k: int) -> list[list[int]]:
    scale = (-1) ** (n // 2) * factorial(n - k)
    return [[scale * x for x in row] for row in sign_tensor(n, k)]


def zero_matrix(n: int, inputs: int, outputs: int) -> list[list[int]]:
    return [[0] * n**inputs for _ in range(n**outputs)]


def render_value(x) -> str:
    return f"{Fraction(x)}\n"


def render_matrix(rows) -> str:
    return "".join(" ".join(str(Fraction(x)) for x in row) + "\n" for row in rows)
