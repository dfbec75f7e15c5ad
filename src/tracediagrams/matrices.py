"""Exact rational matrices and the classical oracles used to cross-check diagrams.

Matrices are immutable tuples of tuple rows with ``Fraction`` entries, the type
callers see; there is no floating point anywhere, and inexact input such as a
``float`` is refused. Inside, products, sums and the oracles run on integer
matrices over one denominator: ``_lattice`` takes a matrix there and
``_rational`` brings it back, so a chain of operations divides once, at its
end, as Bareiss elimination does. The oracles at the bottom (determinant by fraction-free
elimination, characteristic polynomial by the Faddeev-LeVerrier recurrence,
Pfaffian as a signed sum over perfect matchings) never touch the diagram
engine, so an agreement between the two routes is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from operator import mul

from .errors import DimensionMismatchError, InexactValueError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]
IntRows = list[list[int]]


def _exact(x) -> Fraction:
    """``x`` as a Fraction; a float or any other non-rational number is refused.

    A Fraction is returned as it is, so a parsed ``.tmat`` entry is not built
    a second time.
    """
    if type(x) is Fraction:
        return x
    if not isinstance(x, Rational):
        raise InexactValueError(f"{x!r} is not an exact rational number")
    return Fraction(x)


def _lattice(m) -> tuple[IntRows, int]:
    """Integer rows and the positive denominator ``den`` with ``m == rows / den``.

    ``den`` is the lcm of the entries' denominators; the entries may be
    ints or Fractions.
    """
    den = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def _rational(rows, den: int) -> Matrix:
    """The Matrix ``rows / den``: the one division at the end of a lattice chain."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def _product(a, b) -> IntRows:
    """Product of two integer matrices, shapes unchecked."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _int_identity(n: int) -> IntRows:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def freeze_matrix(rows) -> Matrix:
    """Normalize any nested iterable of exact numbers into a Matrix."""
    out = tuple(tuple(_exact(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise DimensionMismatchError("ragged rows in matrix")
    return out


def freeze_vector(entries) -> Vector:
    return tuple(_exact(x) for x in entries)


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise DimensionMismatchError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    (ia, da), (ib, db) = _lattice(a), _lattice(b)
    return _rational(_product(ia, ib), da * db)


def madd(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise DimensionMismatchError("matrix addition shape mismatch")
    (ia, da), (ib, db) = _lattice(a), _lattice(b)
    den = lcm(da, db)
    ka, kb = den // da, den // db
    return _rational(
        [[x * ka + y * kb for x, y in zip(ra, rb)] for ra, rb in zip(ia, ib)], den
    )


def mscale(c, a: Matrix) -> Matrix:
    c = _exact(c)
    rows, den = _lattice(a)
    k = c.numerator
    return _rational([[k * x for x in row] for row in rows], c.denominator * den)


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
    out, den = _lattice(mats[0])
    for prev, m in zip(mats, mats[1:]):
        (ra, ca), (rb, cb) = shape(prev), shape(m)
        if ca != rb:
            raise DimensionMismatchError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
        rows, d = _lattice(m)
        out, den = _product(out, rows), den * d
    return _rational(out, den)


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


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
    a, scale = _lattice(m)
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
    It runs on the integer matrix ``M = d*A``, whose characteristic
    polynomial has integer coefficients ``b_j``, so every division by ``k`` is
    exact; the coefficient of ``x^j`` for ``A`` is then ``b_j / d^(n-j)``.
    """
    n, c = shape(a)
    if n != c:
        raise DimensionMismatchError("characteristic polynomial of a non-square matrix")
    m, den = _lattice(a)
    b = [0] * (n + 1)
    b[n] = 1
    mk = _int_identity(n)
    for k in range(1, n + 1):
        am = _product(m, mk)
        q, r = divmod(-sum(am[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError(f"Faddeev-LeVerrier step {k} left a remainder")
        b[n - k] = q
        for i in range(n):
            am[i][i] += q
        mk = am
    flip = 1 if n % 2 == 0 else -1
    return tuple(Fraction(flip * x, den ** (n - j)) for j, x in enumerate(b))


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
