"""Exact rational matrices and the classical oracles used to cross-check diagrams.

Matrices are immutable tuples of tuple rows with ``Fraction`` entries; there is
no floating point anywhere. The oracles at the bottom (determinant by
fraction-free elimination, characteristic polynomial by the Faddeev-LeVerrier
recurrence, Pfaffian as a signed sum over perfect matchings) never touch the
diagram engine, so an agreement between the two routes is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DimensionMismatchError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def freeze_matrix(rows) -> Matrix:
    """Normalize any nested iterable of numbers into an exact Matrix."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise DimensionMismatchError("ragged rows in matrix")
    return out


def freeze_vector(entries) -> Vector:
    return tuple(Fraction(x) for x in entries)


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((Fraction(0),) * cols for _ in range(rows))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise DimensionMismatchError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def madd(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise DimensionMismatchError("matrix addition shape mismatch")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mpow(a: Matrix, k: int) -> Matrix:
    n, _ = shape(a)
    out = identity(n)
    for _ in range(k):
        out = matmul(out, a)
    return out


def mtrace(a: Matrix) -> Fraction:
    return sum((row[i] for i, row in enumerate(a)), Fraction(0))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major blocks of a scaled by b."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    return tuple(
        tuple(a[i // rb][j // cb] * b[i % rb][j % cb] for j in range(ca * cb))
        for i in range(ra * rb)
    )


def word_product(mats) -> Matrix:
    """Product of a nonempty sequence of matrices, left to right."""
    mats = list(mats)
    out = mats[0]
    for m in mats[1:]:
        out = matmul(out, m)
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def matrices_equal(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def vec_dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError("dot product length mismatch")
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def vec_cross(u: Vector, v: Vector) -> Vector:
    """Classical cross product of two 3-vectors."""
    if len(u) != 3 or len(v) != 3:
        raise DimensionMismatchError("cross product needs 3-vectors")
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


# ---------------------------------------------------------------------------
# Oracles


def bareiss_det(m: Matrix) -> Fraction:
    """Determinant by Bareiss fraction-free elimination.

    Rational input is scaled to an integer matrix first, so every
    intermediate division in the elimination is exact integer division.
    """
    n, c = shape(m)
    if n != c:
        raise DimensionMismatchError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    scale = lcm(*(x.denominator for row in m for x in row)) if n else 1
    a = [[int(x * scale) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], scale**n)


def charpoly_fl(a: Matrix) -> tuple[Fraction, ...]:
    """Coefficients ``c_0. .c_n`` of ``det(A - x*I)`` via Faddeev-LeVerrier.

    The recurrence produces ``det(x*I - A)``; the result is flipped by the
    overall sign ``(-1)^n`` so that ``c_0 = det(A)`` and ``c_n = (-1)^n``.
    """
    n, c = shape(a)
    if n != c:
        raise DimensionMismatchError("characteristic polynomial of a non-square matrix")
    b = [Fraction(0)] * (n + 1)
    b[n] = Fraction(1)
    mk = identity(n)
    for k in range(1, n + 1):
        am = matmul(a, mk)
        b[n - k] = -mtrace(am) / k
        mk = madd(am, mscale(b[n - k], identity(n)))
    flip = 1 if n % 2 == 0 else -1
    return tuple(flip * x for x in b)


def pfaffian_matchings(a: Matrix) -> Fraction:
    """Pfaffian of a skew-symmetric matrix as the signed perfect-matching sum."""
    n, c = shape(a)
    if n != c:
        raise DimensionMismatchError("Pfaffian of a non-square matrix")
    for i in range(n):
        for j in range(n):
            if a[i][j] != -a[j][i]:
                raise DimensionMismatchError("Pfaffian requires a skew-symmetric matrix")
    if n % 2 == 1:
        return Fraction(0)

    def pf(idx: tuple[int, ...]) -> Fraction:
        if not idx:
            return Fraction(1)
        first, rest = idx[0], idx[1:]
        total = Fraction(0)
        for pos, j in enumerate(rest):
            term = a[first][j]
            if term == 0:
                continue
            sign = 1 if pos % 2 == 0 else -1
            total += sign * term * pf(rest[:pos] + rest[pos + 1 :])
        return total

    return pf(tuple(range(n)))
