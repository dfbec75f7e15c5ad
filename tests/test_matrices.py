"""Oracle checks: the classical routines must stand on their own."""

from fractions import Fraction
from itertools import permutations
from math import factorial
from random import Random

import pytest

from tracediagrams import matrices as mx


def naive_det(m):
    """Permutation-expansion determinant, the slow reference."""
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def rand_matrix(rng, n, rational=False):
    if rational:
        return mx.freeze_matrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        )
    return mx.freeze_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def test_bareiss_matches_naive_expansion():
    rng = Random("bareiss")
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = rand_matrix(rng, n)
            assert mx.bareiss_det(m) == naive_det(m)


def test_bareiss_rational_entries():
    rng = Random("bareiss-q")
    for _ in range(10):
        m = rand_matrix(rng, 3, rational=True)
        assert mx.bareiss_det(m) == naive_det(m)


def test_bareiss_singular_and_empty():
    assert mx.bareiss_det(mx.freeze_matrix([[1, 1], [1, 1]])) == 0
    assert mx.bareiss_det(()) == 1


def test_charpoly_identity_matrix():
    # det(I - x I) = (1 - x)^3
    cs = mx.charpoly_fl(mx.identity(3))
    assert cs == (Fraction(1), Fraction(-3), Fraction(3), Fraction(-1))


def test_charpoly_companion_matrix():
    # companion of x^2 - 5x - 2; det(A - x I) has coefficients (-2, -5, 1)
    comp = mx.freeze_matrix([[0, 2], [1, 5]])
    assert mx.charpoly_fl(comp) == (Fraction(-2), Fraction(-5), Fraction(1))


def test_charpoly_agrees_with_determinant_samples():
    rng = Random("charpoly")
    for _ in range(5):
        a = rand_matrix(rng, 4)
        cs = mx.charpoly_fl(a)
        for lam in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3)):
            shifted = mx.madd(a, mx.mscale(-lam, mx.identity(4)))
            assert sum(c * lam**i for i, c in enumerate(cs)) == mx.bareiss_det(shifted)


def test_charpoly_extreme_coefficients():
    rng = Random("charpoly-ends")
    for n in (2, 3, 4):
        a = rand_matrix(rng, n)
        cs = mx.charpoly_fl(a)
        assert cs[0] == mx.bareiss_det(a)
        assert cs[n] == (-1) ** n


def test_pfaffian_2x2():
    for a in (1, 2, 7):
        m = mx.freeze_matrix([[0, a], [-a, 0]])
        assert mx.pfaffian_matchings(m) == a


def test_pfaffian_4x4_formula():
    rng = Random("pf4")
    for _ in range(10):
        vals = {k: Fraction(rng.randint(-9, 9)) for k in ("ab", "ac", "ad", "bc", "bd", "cd")}
        m = mx.freeze_matrix(
            [
                [0, vals["ab"], vals["ac"], vals["ad"]],
                [-vals["ab"], 0, vals["bc"], vals["bd"]],
                [-vals["ac"], -vals["bc"], 0, vals["cd"]],
                [-vals["ad"], -vals["bd"], -vals["cd"], 0],
            ]
        )
        expected = vals["ab"] * vals["cd"] - vals["ac"] * vals["bd"] + vals["ad"] * vals["bc"]
        assert mx.pfaffian_matchings(m) == expected


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_squares_to_determinant(n):
    rng = Random(f"pf-sq-{n}")
    for _ in range(5):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = rng.randint(-5, 5)
                rows[i][j], rows[j][i] = x, -x
        m = mx.freeze_matrix(rows)
        assert mx.pfaffian_matchings(m) ** 2 == mx.bareiss_det(m)


def test_pfaffian_odd_dimension_zero():
    m = mx.freeze_matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    assert mx.pfaffian_matchings(m) == 0


def test_pfaffian_rejects_non_skew():
    with pytest.raises(Exception):
        mx.pfaffian_matchings(mx.freeze_matrix([[1, 2], [3, 4]]))


def test_kron_and_word_product():
    a = mx.freeze_matrix([[1, 2], [3, 4]])
    b = mx.freeze_matrix([[0, 1], [1, 0]])
    k = mx.kron(a, b)
    # block form: k[i][j] = a[i//2][j//2] * b[i%2][j%2]
    assert k[0][1] == 1 and k[0][0] == 0 and k[2][1] == 3 and k[2][3] == 4
    ones = mx.freeze_matrix([[1, 1], [1, 1]])
    assert mx.word_product([ones, ones, ones]) == mx.mscale(4, ones)


def test_vector_helpers():
    u = mx.freeze_vector([1, 0, 0])
    v = mx.freeze_vector([0, 1, 0])
    assert mx.vec_cross(u, v) == (0, 0, 1)
    assert mx.vec_dot(u, v) == 0
    w = mx.freeze_vector([Fraction(1, 2), 2, -1])
    assert mx.vec_dot(w, w) == Fraction(1, 4) + 4 + 1


# ---------------------------------------------------------------------------
# The integer-lattice kernels against plain Fraction arithmetic


def ref_matmul(a, b):
    cols = range(len(b[0]))
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in cols)
        for row in a
    )


def ref_madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_mscale(c, a):
    return tuple(tuple(Fraction(c) * x for x in row) for row in a)


def ref_charpoly(a):
    """Coefficients of det(A - x I) by expanding over permutations, polynomials as lists."""
    n = len(a)
    total = [Fraction(0)] * (n + 1)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        poly = [Fraction(sign)]
        for i in range(n):
            # poly *= a[i][perm[i]] - x when perm[i] == i, else a[i][perm[i]]
            scaled = [c * a[i][perm[i]] for c in poly] + [Fraction(0)]
            shifted = [Fraction(0)] + [-c if perm[i] == i else Fraction(0) for c in poly]
            poly = [p + q for p, q in zip(scaled, shifted)]
        total = [t + c for t, c in zip(total, poly)]
    return tuple(total)


def ref_polarize(tau, k, mats):
    n = len(mats[0])
    total = tuple((Fraction(0),) * n for _ in range(n))
    for mask in range(2**k):
        part = tuple((Fraction(0),) * n for _ in range(n))
        for p in range(k):
            if mask >> p & 1:
                part = ref_madd(part, mats[p])
        sign = (-1) ** (k - bin(mask).count("1"))
        total = ref_madd(total, ref_mscale(sign, tau(part)))
    return ref_mscale(Fraction(1, factorial(k)), total)


def lattice_cases(n):
    """Rational matrices with a different denominator per matrix, the zero matrix and I."""
    rng = Random(f"lattice-{n}")
    rand = [
        mx.freeze_matrix(
            [[Fraction(rng.randint(-9, 9), d) for _ in range(n)] for _ in range(n)]
        )
        for d in (1, 2, 3, 7)
    ]
    return rand + [mx.freeze_matrix([[0] * n for _ in range(n)]), mx.identity(n)]


def exact(m):
    return all(type(x) is Fraction for row in m for x in row)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lattice_kernels_match_fraction_arithmetic(n):
    cases = lattice_cases(n)
    for a in cases:
        for b in cases:
            assert mx.matmul(a, b) == ref_matmul(a, b) and exact(mx.matmul(a, b))
            assert mx.madd(a, b) == ref_madd(a, b) and exact(mx.madd(a, b))
        for c in (0, 3, Fraction(-5, 6)):
            assert mx.mscale(c, a) == ref_mscale(c, a) and exact(mx.mscale(c, a))
        assert mx.word_product([a, cases[1], a]) == ref_matmul(ref_matmul(a, cases[1]), a)
        assert mx.bareiss_det(a) == naive_det(a)
        cs = mx.charpoly_fl(a)
        assert cs == ref_charpoly(a) and all(type(x) is Fraction for x in cs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_polarize_matches_fraction_inclusion_exclusion(n):
    from tracediagrams.identities import polarize

    cases = lattice_cases(n)

    def cube(m):
        return ref_matmul(ref_matmul(m, m), m)

    def trace_square(m):
        return ref_mscale(sum((m[i][i] for i in range(n)), Fraction(0)), ref_matmul(m, m))

    for tau in (cube, trace_square):
        for mats in ((cases[0], cases[2], cases[3]), (cases[1], cases[4], cases[5])):
            got = polarize(tau, 3, mats)
            assert got == ref_polarize(tau, 3, mats) and exact(got)


def test_exact_keeps_fractions_converts_ints_and_refuses_inexact_numbers():
    from decimal import Decimal

    from tracediagrams import InexactValueError

    half = Fraction(1, 2)
    assert mx._exact(half) is half
    for x, want in ((3, Fraction(3)), (-7, Fraction(-7)), (True, Fraction(1)), (False, Fraction(0))):
        got = mx._exact(x)
        assert type(got) is Fraction and got == want
    for x in (0.5, 2.0, 1 + 0j, 2j, Decimal("0.5"), Decimal(2)):
        with pytest.raises(InexactValueError):
            mx._exact(x)
    # parsed entries reach the binding as the parser's own Fractions
    m = mx.freeze_matrix([[half, 1], [Fraction(-3, 4), 0]])
    assert m[0][0] is half and m == ((half, 1), (Fraction(-3, 4), 0))
