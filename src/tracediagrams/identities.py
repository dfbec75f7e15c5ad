"""Randomized exact verification of the diagrammatic identities.

Every check here is an equality of rationals or rational matrices; there are
no tolerances. ``CATALOGUE`` declares each identity, and ``run_identity`` runs
any of them; it is the one entry, which the ``verify``, ``polarize`` and
``pfaffian`` commands all call. Each trial draws its matrices from an RNG
seeded with the string ``"{seed}:{trial}"`` so runs are reproducible and
trials can be distributed over worker processes without changing any result.

Only the matrices change between trials. An identity's fixture, built from the
dimension alone once per run (once per worker process with ``jobs > 1``),
holds its diagrams and formal sums and the verdicts of its checks that take no
binding; each trial adds those verdicts' problems to its own record, in the
order the checks run. ``antisym-two-node`` also keeps the enumerator walk of
its marked exchange check (colorings, signatures and the index of each
coloring's images), so a trial computes only each coloring's coefficient.
``binor`` takes no binding: its fixture also recomputes every entry through
per-basis weights, and every trial reports the fixture's verdict.
The ``polarization`` fixture is the multi-label diagram sum, built once and
split into its summand classes, each with its signed count; a trial evaluates
every term once, class by class, and takes the whole sum as the sum of the
class matrices. ``ch`` and ``symmetrizer-sum`` sum one term per class; at n=2
``ch`` and ``ch-general`` check and sum the six summands of the full expansion.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm
from random import Random
from typing import Callable, Optional

from . import builders, matrices
from .algebra import (
    is_relation,
    reframe,
    reframe_positions,
    sum_closed_value,
    sum_function_matrix,
    tensor,
    compose,
)
from .diagram import (
    Coloring,
    Edge,
    EndRef,
    FormalSum,
    HEAD,
    MatrixBinding,
    TAIL,
    TraceDiagram,
    internal,
    leaf,
)
from .engine import (
    FunctionMatrix,
    _sum_cells,
    enumerate_colorings,
    evaluate_closed,
    function_matrix,
    signature,
    coefficient,
    tensor_index,
    weight,
)
from .errors import HomogeneityError, TraceDiagramError


def trial_rng(seed, trial: int) -> Random:
    # string seeding keeps the stream identical across processes and platforms
    return Random(f"{seed}:{trial}")


def random_int_matrix(rng: Random, n: int, lo: int = -9, hi: int = 9) -> matrices.Matrix:
    return matrices.freeze_matrix(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def random_rational_vector(rng: Random, n: int) -> matrices.Vector:
    return tuple(random_rational(rng) for _ in range(n))


def random_rational_matrix(rng: Random, n: int) -> matrices.Matrix:
    return matrices.freeze_matrix(
        [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    )


def random_skew_matrix(rng: Random, n: int) -> matrices.Matrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-9, 9)
            rows[i][j] = x
            rows[j][i] = -x
    return matrices.freeze_matrix(rows)


# ---------------------------------------------------------------------------
# Characteristic polynomial, two routes


def charpoly_diagrammatic(a: matrices.Matrix) -> tuple[Fraction, ...]:
    """Coefficients of det(A - x*I) from the closed two-vertex diagrams.

    The diagram with i unmarked strands, scaled by
    ``(-1)^(i + floor(n/2)) / (i! (n-i)!)``, is the coefficient of x^i.
    """
    a = matrices.freeze_matrix(a)
    return _charpoly_from(_charpoly_diagrams(len(a)), a)


def _charpoly_diagrams(n: int) -> list[TraceDiagram]:
    return [builders.char_coeff_diagram(n, i, "A") for i in range(n + 1)]


def _charpoly_from(diagrams, a: matrices.Matrix) -> tuple[Fraction, ...]:
    n = len(a)
    binding = MatrixBinding(n, {"A": a})
    out = []
    for i, diagram in enumerate(diagrams):
        val = evaluate_closed(diagram, binding)
        scale = Fraction((-1) ** (i + n // 2), factorial(i) * factorial(n - i))
        out.append(scale * val)
    return tuple(out)


# ---------------------------------------------------------------------------
# Polarization


def _bitmask_splits(items):
    """Every split of ``items`` into (chosen, rest), one per bitmask, bit p for item p."""
    for mask in range(2 ** len(items)):
        yield (
            [x for p, x in enumerate(items) if mask >> p & 1],
            [x for p, x in enumerate(items) if not mask >> p & 1],
        )


def polarize(tau: Callable[[matrices.Matrix], matrices.Matrix], k: int, mats):
    """Multilinear polar form of a degree-k homogeneous matrix function.

    Computed by exact inclusion-exclusion:
    ``(1/k!) * sum over S of (-1)^(k-|S|) tau(sum of mats[i], i in S)``.
    Homogeneity is checked on one sample instead of being trusted.
    """

    def on_lattice(rows, den):
        return matrices._lattice(tau(matrices._rational(rows, den)))

    return matrices._rational(*_polar_lattice(on_lattice, k, mats))


def _polar_lattice(tau, k: int, mats) -> tuple[matrices.IntRows, int]:
    """:func:`polarize` for a ``tau`` that maps (integer rows, denominator) to
    the same form. The subset sums, tau's values and the signed total stay
    integer matrices, over one denominator each, and so does the result."""
    mats = [matrices.freeze_matrix(m) for m in mats]
    if len(mats) != k:
        raise ValueError(f"need exactly {k} matrices, got {len(mats)}")
    n = len(mats[0])
    rows, den = matrices._lattice(tuple(row for m in mats for row in m))
    ints = [rows[p * n : (p + 1) * n] for p in range(k)]  # mats[p] == ints[p] / den
    # probe = I + sum of mats; tau(2 probe) == 2^k tau(probe), cross-multiplied
    probe = [[den * (i == j) + sum(m[i][j] for m in ints) for j in range(n)] for i in range(n)]
    twice, twice_den = tau([[2 * x for x in row] for row in probe], den)
    once, once_den = tau(probe, den)
    if any(
        x * once_den != 2**k * y * twice_den
        for rt, ro in zip(twice, once)
        for x, y in zip(rt, ro)
    ):
        raise HomogeneityError(f"function is not homogeneous of degree {k}")
    terms = []
    for chosen, rest in _bitmask_splits(ints):
        part = [[sum(xs) for xs in zip(*rs)] for rs in zip(*chosen)] or _zeros(n)
        terms.append(((-1) ** len(rest), *tau(part, den)))
    total_den = lcm(*(d for _, _, d in terms))
    total = _zeros(n)
    for sign, value, value_den in terms:
        _add_scaled(total, sign * (total_den // value_den), value)
    return total, total_den * factorial(k)


def _zeros(n: int) -> matrices.IntRows:
    return [[0] * n for _ in range(n)]


def _add_scaled(total: matrices.IntRows, w: int, rows) -> None:
    """total += w * rows, in place, for integer matrices."""
    for out_row, row in zip(total, rows):
        for j, x in enumerate(row):
            out_row[j] += w * x


def _powers(m: matrices.IntRows, k: int) -> list[matrices.IntRows]:
    """[M^0, M^1, ..., M^k] of an integer matrix M, each from the one before."""
    out = [matrices._int_identity(len(m))]
    for _ in range(k):
        out.append(matrices._product(out[-1], m))
    return out


def _monomial_fn(i: int, lam: tuple[int, ...]):
    """x -> (prod of tr(x^l) for l in lam) * x^i, the diagonal of one summand
    class, on the lattice: for x = M/d it is (prod of tr(M^l)) M^i over
    d^(i + sum(lam))."""

    def fn(rows: matrices.IntRows, den: int) -> tuple[matrices.IntRows, int]:
        powers = _powers(rows, max((i, *lam)))
        scalar = 1
        for ell in lam:
            scalar *= sum(powers[ell][j][j] for j in range(len(rows)))
        return [[scalar * x for x in row] for row in powers[i]], den ** (i + sum(lam))

    return fn


def _poly_lattice(coeffs, rows: matrices.IntRows, den: int) -> tuple[matrices.IntRows, int]:
    """sum_i coeffs[i] * x^i for x = M/d given as (M, d), on the lattice.

    With the coefficients over a common denominator L and k the top degree,
    the value is (sum_i (L coeffs[i]) d^(k-i) M^i) over L d^k.
    """
    k = len(coeffs) - 1
    common = lcm(*(c.denominator for c in coeffs))
    out = _zeros(len(rows))
    for i, (c, power) in enumerate(zip(coeffs, _powers(rows, k))):
        _add_scaled(out, c.numerator * (common // c.denominator) * den ** (k - i), power)
    return out, common * den**k


def _poly_at(coeffs, m: matrices.Matrix) -> matrices.Matrix:
    """sum_i coeffs[i] * m^i."""
    return matrices._rational(*_poly_lattice(coeffs, *matrices._lattice(m)))


# ---------------------------------------------------------------------------
# Reports


@dataclass
class VerificationReport:
    identity: str
    dimension: int
    trials: int
    status: str  # proven-exact-on-samples | failed | inconclusive
    witnesses: tuple = ()
    elapsed: float = 0.0
    records: tuple = ()
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "proven-exact-on-samples"

    def text_lines(self) -> list[str]:
        line = (
            f"identity={self.identity} dim={self.dimension} trials={self.trials} "
            f"status={self.status} elapsed={self.elapsed:.3f}s"
        )
        out = [line]
        for key, val in sorted(self.data.items()):
            out.append(f"  {key}={val}")
        for w in self.witnesses:
            out.append(f"  witness trial={w['trial']} seed={w['seed']} detail={w['detail']}")
        return out

    def record_lines(self) -> list[str]:
        out = []
        for rec in self.records:
            payload = {"identity": self.identity, "dimension": self.dimension}
            payload.update(rec)
            out.append(json.dumps(payload, default=str, sort_keys=True))
        summary = {
            "identity": self.identity,
            "dimension": self.dimension,
            "trials": self.trials,
            "status": self.status,
            "elapsed": round(self.elapsed, 6),
        }
        summary.update({k: str(v) for k, v in self.data.items()})
        out.append(json.dumps(summary, sort_keys=True))
        return out


# ---------------------------------------------------------------------------
# Per-trial checks: (n, rng, fixture) -> the trial's record fields, at
# least "ok"; each fixture builder sits next to its check


def _verdict(problems: list[str]) -> dict:
    return {"ok": not problems, "detail": "; ".join(problems)}


def _labels(n: int) -> list[str]:
    return [f"A{i}" for i in range(1, n + 1)]


def _sum_and_summands(n: int, binding: MatrixBinding, total: FormalSum, a1: str, a2: str):
    """The function matrix of ``total`` and, at n=2, the problems of its six
    summands, whose matrices it sums: ``total`` is then ``builders.ch_diagram(2,
    [a1, a2])``, its terms in the lexicographic order of the permutations below."""
    if n != 2:
        return sum_function_matrix(total, binding), []
    m1, m2 = binding.matrix(a1), binding.matrix(a2)
    i2 = matrices.identity(2)
    t1, t2 = matrices.mtrace(m1), matrices.mtrace(m2)
    expected = {
        (1, 2, 3): matrices.mscale(t1 * t2, i2),
        (1, 3, 2): matrices.mscale(matrices.mtrace(matrices.matmul(m1, m2)), i2),
        (2, 1, 3): matrices.mscale(t2, m1),
        (2, 3, 1): matrices.matmul(m2, m1),
        (3, 1, 2): matrices.matmul(m1, m2),
        (3, 2, 1): matrices.mscale(t1, m2),
    }
    fms = [function_matrix(term, binding) for _, term in total.terms]
    problems = [
        f"summand {img} has the wrong matrix"
        for (img, want), fm in zip(expected.items(), fms)
        if fm.entries != want
    ]
    return _sum_cells((c, fm) for (c, _), fm in zip(total.terms, fms)), problems


def _loop_sums(n: int, k: int) -> list[FormalSum]:
    """The closed j-loop antisymmetrizers marked ``A``, j = 0..k, one term per class."""
    return [builders.loop_classes(n, "A", j) for j in range(k + 1)]


def _cycle_coefficients(k: int, loops: list[FormalSum], binding: MatrixBinding):
    """``(-1)^i k!/(k-i)! * (closed (k-i)-loop antisymmetrizer)``, the
    coefficient of A^i in the cycle decomposition, for i = 0..k; ``loops``
    are :func:`_loop_sums` up to at least k."""
    return [
        Fraction((-1) ** i * factorial(k), factorial(k - i))
        * sum_closed_value(loops[k - i], binding)
        for i in range(k + 1)
    ]


def _ch_fixture(n: int):
    # at n=2 the check reads the six summands of the full expansion
    total = builders.ch_diagram(n, ["A"] * n) if n == 2 else builders.ch_classes(n, "A", n)
    return total, _loop_sums(n, n)


def _check_cayley_hamilton(n: int, rng: Random, fix) -> dict:
    total, loops = fix
    a = random_int_matrix(rng, n)
    binding = MatrixBinding(n, {"A": a})
    fm, summand_problems = _sum_and_summands(n, binding, total, "A", "A")
    problems = [] if fm.is_zero() else ["diagram sum is not the zero matrix"]

    coeffs = _cycle_coefficients(n, loops, binding)
    rhs = _poly_at(coeffs, a)
    problems += [
        f"strand coefficient {i} != n! * c_{i}"
        for i, (coeff, c) in enumerate(zip(coeffs, matrices.charpoly_fl(a)))
        if coeff != factorial(n) * c
    ]
    if fm.entries != rhs:
        problems.append("cycle decomposition disagrees with the diagram sum")
    if not matrices.is_zero_matrix(rhs):
        problems.append("n! * sum c_i A^i is not zero")

    problems += summand_problems
    if n == 2:
        # the regrouped sum is 2(A^2 - tr(A)A + det(A)I)
        regrouped = _poly_at((matrices.bareiss_det(a), -matrices.mtrace(a), 1), a)
        if fm.entries != matrices.mscale(2, regrouped):
            problems.append("diagram sum != 2(A^2 - tr(A)A + det(A)I)")
    return _verdict(problems)


def _check_generalized_ch(n: int, rng: Random, fix) -> dict:
    binding = MatrixBinding(n, {lab: random_int_matrix(rng, n) for lab in _labels(n)})
    fm, summand_problems = _sum_and_summands(n, binding, fix, "A1", "A2")
    problems = [] if fm.is_zero() else ["diagram sum is not the zero matrix"]
    return _verdict(problems + summand_problems)


def _check_binor(n: int, rng: Random, fix) -> dict:
    # the relation takes no binding: every trial reports the fixture's verdict,
    # for which every entry is also recomputed through per-basis weights
    return _verdict([] if fix.holds else [f"residual {fix.residual}"])


def _check_det_diagram(n: int, rng: Random, fix) -> dict:
    a = random_int_matrix(rng, n)
    got = evaluate_closed(fix, MatrixBinding(n, {"A": a}))
    want = Fraction((-1) ** (n // 2) * factorial(n)) * matrices.bareiss_det(a)
    return _verdict([] if got == want else [f"diagram {got} vs oracle {want}"])


def _det_sum_terms(n: int) -> list[TraceDiagram]:
    return [builders.det_sum_term(n, i, "A", "B") for i in range(n + 1)]


def _det_split_holds(terms, binding: MatrixBinding) -> bool:
    """det(A+B) against the split two-vertex diagrams, exactly."""
    n = len(terms) - 1
    lhs = matrices.bareiss_det(matrices.madd(binding.matrix("A"), binding.matrix("B")))
    total = Fraction(0)
    for i, term in enumerate(terms):
        val = evaluate_closed(term, binding)
        total += Fraction(1, factorial(i) * factorial(n - i)) * val
    return lhs == Fraction((-1) ** (n // 2)) * total


def _check_det_sum(n: int, rng: Random, fix) -> dict:
    binding = MatrixBinding(
        n, {"A": random_int_matrix(rng, n), "B": random_int_matrix(rng, n)}
    )
    return _verdict([] if _det_split_holds(fix, binding) else ["determinant split failed"])


def _check_charpoly(n: int, rng: Random, fix) -> dict:
    a = random_int_matrix(rng, n)
    got = _charpoly_from(fix, a)
    want = matrices.charpoly_fl(a)
    return _verdict([] if got == want else [f"diagram {got} vs oracle {want}"])


def multiplicity_ratio_check(n: int, k: int) -> bool:
    """Recoloring the shared unmarked edges multiplies one coloring's weight by (n-k)!.

    For every admissible coloring of the two-vertex diagram, the weight of its
    restriction to the through strands equals (n-k)! times the single-coloring
    contribution.
    """
    d = builders.two_node_antisym(n, k)
    binding = MatrixBinding(n)
    for col in enumerate_colorings(d):
        legs = {vid: col.at(d.leaf_end(vid)) for vid in d.open_leaves()}
        w = weight(d, legs, binding)
        single = signature(d, col) * coefficient(d, col, binding)
        if w != factorial(n - k) * single:
            return False
    return True


def _exchange_walk(n: int, k: int):
    """The binding-free part of :func:`_exchange_holds`: the diagram, its
    colorings from the enumerator with their signatures, and per coloring the
    stream index of its image under each permutation of the shared edges
    (``None`` where the image is missing from the stream)."""
    d = builders.two_node_pair(n, k, (("A",),) * (n - k))
    shared = [f"s{j}" for j in range(1, n - k + 1)]
    colorings = list(enumerate_colorings(d))
    index = {col: i for i, col in enumerate(colorings)}
    images = []
    for col in colorings:
        pairs = col.as_dict()
        row = []
        for rho in permutations(shared):
            permuted = dict(pairs)
            for src, dst in zip(shared, rho):
                permuted[dst] = pairs[src]
            row.append(index.get(Coloring.from_dict(permuted)))
        images.append(row)
    return d, colorings, [signature(d, col) for col in colorings], images


def _exchange_holds(walk, binding: MatrixBinding) -> bool:
    """Permuting (head, tail) pairs among identically marked shared edges fixes
    each coloring's contribution (both vertex signs flip together, the entries
    are the same multiset): each, computed once, equals its images'; a missing
    image fails."""
    d, colorings, signs, images = walk
    value = [s * coefficient(d, col, binding) for s, col in zip(signs, colorings)]
    return all(j is not None and value[j] == v for v, row in zip(value, images) for j in row)


def _antisym_fixture(n: int) -> list[tuple[list[str], object]]:
    """Per k, the problems of the binding-free checks (the two-vertex expansion
    and the shared-edge multiplicity) and, for k < n, the binding-free walk of
    the marked exchange check."""
    out = []
    for k in range(n + 1):
        problems = []
        anti = sum_function_matrix(builders.antisymmetrizer(n, k), None)
        pair = function_matrix(builders.two_node_antisym(n, k), None)
        scaled = Fraction((-1) ** (n // 2), factorial(n - k)) * pair
        if anti != scaled:
            problems.append(f"two-vertex expansion fails at k={k}")
        if k < n and not multiplicity_ratio_check(n, k):
            problems.append(f"shared-edge multiplicity fails at k={k}")
        out.append((problems, _exchange_walk(n, k) if k < n else None))
    return out


def _check_antisym_two_node(n: int, rng: Random, fix) -> dict:
    problems = []
    for k, (fixed, walk) in enumerate(fix):
        problems += fixed
        if walk is not None:
            binding = MatrixBinding(n, {"A": random_int_matrix(rng, n)})
            if not _exchange_holds(walk, binding):
                problems.append(f"marked exchange invariance fails at k={k}")
    return _verdict(problems)


def _cycle_sum_holds(k: int, total: FormalSum, loops, binding: MatrixBinding) -> bool:
    """Cycle decomposition of the closed antisymmetrizer with one open strand:
    the k-loop diagram sum ``total`` equals
    ``sum_i (-1)^i k!/(k-i)! * (closed (k-i)-loop antisymmetrizer) * A^i``."""
    lhs = sum_function_matrix(total, binding).entries
    rhs = _poly_at(_cycle_coefficients(k, loops, binding), binding.matrix("A"))
    return lhs == rhs


def _symmetrizer_fixture(n: int):
    return [builders.ch_classes(n, "A", k) for k in range(n + 1)], _loop_sums(n, n)


def _check_symmetrizer_sum(n: int, rng: Random, fix) -> dict:
    totals, loops = fix
    binding = MatrixBinding(n, {"A": random_int_matrix(rng, n)})
    bad = [k for k, total in enumerate(totals) if not _cycle_sum_holds(k, total, loops, binding)]
    return _verdict([f"fails for k in {bad}"] if bad else [])


def _fricke_fixture(n: int):
    return builders.fricke_sum("A", "B", "C"), builders.fricke_traced_sum("A", "B", "C")


def _check_fricke(n: int, rng: Random, fix) -> dict:
    open_sum, traced_sum = fix
    a, b, c = (random_rational_matrix(rng, 2) for _ in range(3))
    binding = MatrixBinding(2, {"A": a, "B": b, "C": c})

    def tr(*ms):
        return matrices.mtrace(matrices.word_product(ms))

    classical = tr(a, b, c) + tr(a, c, b) == (
        tr(a, b) * tr(c) + tr(a) * tr(b, c) + tr(b) * tr(c, a) - tr(a) * tr(b) * tr(c)
    )
    open_rel = is_relation(open_sum, binding)
    traced = sum_closed_value(traced_sum, binding)
    problems = []
    if not classical:
        problems.append("classical trace identity failed")
    if not open_rel.holds:
        problems.append(f"open diagram sum residual {open_rel.residual}")
    if traced != 0:
        problems.append(f"traced diagram sum = {traced}")
    return _verdict(problems)


def _vector_fixture(n: int):
    return (
        builders.cross_product_diagram("u", "v"),
        builders.dot_product_diagram("u", "v"),
        builders.cross_dot_closed("u", "v", "w", "x"),
    )


def _check_vector(n: int, rng: Random, fix) -> dict:
    cross_diagram, dot_diagram, quad_diagram = fix
    vecs = {lab: random_rational_vector(rng, 3) for lab in ("u", "v", "w", "x")}
    u, v, w, x = vecs.values()
    binding = MatrixBinding(3, vectors=vecs)

    def cross(b):
        fm = function_matrix(cross_diagram, b)
        return tuple(row[0] for row in fm.entries)

    problems = []
    if cross(binding) != matrices.vec_cross(u, v):
        problems.append("cross product disagrees with the classical formula")
    if any(cross(MatrixBinding(3, vectors={"u": u, "v": u}))):
        problems.append("u x u is not zero")
    dot = evaluate_closed(dot_diagram, binding)
    if dot != matrices.vec_dot(u, v):
        problems.append("dot product disagrees with the classical formula")

    quad = evaluate_closed(quad_diagram, binding)
    classical = matrices.vec_dot(u, w) * matrices.vec_dot(v, x) - matrices.vec_dot(
        u, x
    ) * matrices.vec_dot(v, w)
    if quad != classical:
        problems.append("four-vector contraction disagrees")
    if quad != matrices.vec_dot(matrices.vec_cross(u, v), matrices.vec_cross(w, x)):
        problems.append("four-vector contraction != (u x v).(w x x)")
    return _verdict(problems)


def _framing_fixture(n: int):
    """The binor relation's verdict under every leaf partition; the marked
    two-strand diagram, its leaf colorings, and each reframing with the flat
    cell index each coloring stands for in its function matrix."""
    rel = builders.binor_relation()
    _, first = rel.terms[0]
    splits = _bitmask_splits(range(len(first.inputs + first.outputs)))
    holds = all(is_relation(reframe_positions(rel, ins, outs)).holds for ins, outs in splits)
    d = tensor(builders.matrix_strand(3, ("A",)), builders.matrix_strand(3, ("B",)))
    leaves = list(d.inputs) + list(d.outputs)
    colorings = [dict(zip(leaves, c)) for c in product(range(1, 4), repeat=len(leaves))]
    framed = [
        (
            reframe(d, ins, outs),
            [
                tensor_index([c[v] for v in outs], 3) * 3 ** len(ins)
                + tensor_index([c[v] for v in ins], 3)
                for c in colorings
            ],
        )
        for ins, outs in _bitmask_splits(leaves)
    ]
    return holds, d, colorings, framed


def _check_framing_independence(n: int, rng: Random, fix) -> dict:
    holds, d, colorings, framed = fix
    problems = [] if holds else ["vertex-pair relation breaks under some leaf partition"]

    # weights of a marked diagram must not depend on the framing either
    binding = MatrixBinding(
        3, {"A": random_rational_matrix(rng, 3), "B": random_rational_matrix(rng, 3)}
    )
    weights = [weight(d, c, binding) for c in colorings]
    # every framing's function matrix must hold, at the cell a leaf coloring
    # stands for, that coloring's weight: cells[idx] / den == w, cross-multiplied
    matrices_and_cells = ((function_matrix(f, binding), cells) for f, cells in framed)
    if any(
        fm.cells.get(idx, 0) * w.denominator != w.numerator * fm.den
        for fm, cells in matrices_and_cells
        for idx, w in zip(cells, weights)
    ):
        problems.append("weight changed under reframing")
    return _verdict(problems)


def random_diagram(rng: Random, n: int, n_in: int, n_out: int) -> TraceDiagram:
    """Random small framed diagram with the requested arity.

    Internal vertex count is chosen so the half-edge pool pairs up evenly.
    Only wires between internal vertices carry marking words, of length 0-2
    over ``A`` and ``B``: a cup or cap
    reverses the travel direction of a fused chain, so a marked leaf wire
    could meet an oppositely directed marked wire under composition, which
    the model rejects rather than transposing.
    """
    total_leaves = n_in + n_out
    options = [v for v in (0, 1, 2) if (v * n + total_leaves) % 2 == 0]
    if not options:
        raise ValueError(f"no internal vertex count fits arity {n_in}+{n_out} at n={n}")
    v_count = rng.choice(options)

    slots: list[str] = []
    for i in range(1, v_count + 1):
        slots += [f"x{i}"] * n
    leaf_ids = [f"in{i}" for i in range(1, n_in + 1)]
    leaf_ids += [f"out{i}" for i in range(1, n_out + 1)]
    slots += leaf_ids
    rng.shuffle(slots)

    def is_leaf(vid):
        return not vid.startswith("x")

    def role(vid):
        return "in" if vid.startswith("in") else "out"

    edges = []
    for idx in range(0, len(slots), 2):
        p, q = slots[idx], slots[idx + 1]
        eid = f"e{idx // 2 + 1}"
        if is_leaf(p) and is_leaf(q):
            if role(p) == role(q):
                tail, head = sorted((p, q))
            else:
                tail, head = (p, q) if role(p) == "in" else (q, p)
            word = ()
        elif is_leaf(p) or is_leaf(q):
            lf, vx = (p, q) if is_leaf(p) else (q, p)
            tail, head = (lf, vx) if role(lf) == "in" else (vx, lf)
            word = ()
        else:
            tail, head = p, q
            word = tuple(rng.choices(("A", "B"), k=rng.randint(0, 2)))
        edges.append(Edge(eid, tail, head, word))

    vertices = [leaf(vid) for vid in leaf_ids]
    for i in range(1, v_count + 1):
        vid = f"x{i}"
        ends = [
            EndRef(e.id, end)
            for e in edges
            for end in (TAIL, HEAD)
            if e.vertex_at(end) == vid
        ]
        rng.shuffle(ends)
        vertices.append(internal(vid, ends))

    return TraceDiagram(
        n,
        tuple(vertices),
        tuple(edges),
        inputs=tuple(f"in{i}" for i in range(1, n_in + 1)),
        outputs=tuple(f"out{i}" for i in range(1, n_out + 1)),
    )


def _arity(rng: Random, n: int, glue: int) -> int:
    # companion arity; at even n a diagram needs an even leaf total
    if n % 2 == 0:
        return glue % 2 + 2 * rng.randint(0, 1)
    return rng.randint(0, 2)


def _check_functoriality(n: int, rng: Random, fix) -> dict:
    binding = MatrixBinding(
        n, {"A": random_int_matrix(rng, n, -4, 4), "B": random_int_matrix(rng, n, -4, 4)}
    )
    glue = rng.randint(0, 2)
    bottom = random_diagram(rng, n, _arity(rng, n, glue), glue)
    top = random_diagram(rng, n, glue, _arity(rng, n, glue))
    left = random_diagram(rng, n, _arity(rng, n, 0), _arity(rng, n, 0))
    right = random_diagram(rng, n, _arity(rng, n, 0), _arity(rng, n, 0))

    def fm(d):
        return function_matrix(d, binding)

    problems = []
    if fm(compose(top, bottom)) != _product(fm(top), fm(bottom)):
        problems.append("composition does not match the matrix product")
    if fm(tensor(left, right)) != _kron(fm(left), fm(right)):
        problems.append("tensor does not match the Kronecker product")
    return _verdict(problems)


def _product(a: FunctionMatrix, b: FunctionMatrix) -> FunctionMatrix:
    """The matrix product ``a @ b`` of function matrices, from their nonzero
    cells: cell (r, c) sums a's (r, k) times b's (k, c) over the shared k."""
    cols, inner = b.n**b.input_arity, a.n**a.input_arity
    rows: dict[int, list] = {}  # b's row k -> its (column, cell) pairs
    for idx, x in b.cells.items():
        rows.setdefault(idx // cols, []).append((idx % cols, x))
    cells: dict[int, int] = {}
    for idx, y in a.cells.items():
        base = idx // inner * cols
        for c, x in rows.get(idx % inner, ()):
            cells[base + c] = cells.get(base + c, 0) + y * x
    return FunctionMatrix(
        a.n, b.input_arity, a.output_arity, {i: x for i, x in cells.items() if x}, a.den * b.den
    )


def _kron(a: FunctionMatrix, b: FunctionMatrix) -> FunctionMatrix:
    """The Kronecker product of function matrices, from their nonzero cells:
    cell (r1 R2 + r2, c1 C2 + c2) is a's (r1, c1) times b's (r2, c2), for b
    of R2 rows and C2 columns."""
    ca, cb = a.n**a.input_arity, b.n**b.input_arity
    rb = b.n**b.output_arity
    cells = {
        (i // ca * rb + j // cb) * ca * cb + i % ca * cb + j % cb: x * y
        for i, x in a.cells.items()
        for j, y in b.cells.items()
    }
    return FunctionMatrix(
        a.n, a.input_arity + b.input_arity, a.output_arity + b.output_arity, cells, a.den * b.den
    )


def _polarization_fixture(n: int):
    """The terms of the multi-label diagram sum grouped by summand class
    (i, cycle type), in sorted class order, each with its signed count
    (``builders._class_coefficient``) and its diagram sum. A term's class is
    read off its strand form: i letters on the open strand, a loop per cycle."""
    classes: dict[tuple, list] = {}
    for c, form in builders.ch_diagram(n, _labels(n)).terms:
        ((_, word, *_),) = form.strands
        lam = tuple(sorted(len(loop) for _, loop in form.loops))
        classes.setdefault((len(word), lam), []).append((c, form))
    return [
        (i, lam, builders._class_coefficient(n, lam), FormalSum(tuple(terms)))
        for (i, lam), terms in sorted(classes.items())
    ]


def _check_polarization(n: int, rng: Random, fix) -> dict:
    labels = _labels(n)
    mats = [random_int_matrix(rng, n, -5, 5) for _ in labels]
    binding = MatrixBinding(n, dict(zip(labels, mats)))
    problems = []
    total = None  # the whole diagram sum, as the sum of the class matrices
    for i, lam, count, sub in fix:
        fm = sum_function_matrix(sub, binding)
        total = fm if total is None else total + fm
        pol = matrices._rational(*_polar_lattice(_monomial_fn(i, lam), n, mats))
        want = matrices.mscale(count, pol)
        if fm.entries != want:
            problems.append(f"class (i={i}, cycles={lam}) mismatch")

    full = total.entries

    def tau(rows, den):  # p_x(x): homogeneous of degree n in x, zero by Cayley-Hamilton
        return _poly_lattice(matrices.charpoly_fl(matrices._rational(rows, den)), rows, den)

    pol_full = matrices.mscale(factorial(n), matrices._rational(*_polar_lattice(tau, n, mats)))
    if full != pol_full:
        problems.append("diagram sum != n! * polarized identity")
    if not matrices.is_zero_matrix(full):
        problems.append("zero sets differ: diagram sum nonzero")
    return _verdict(problems)


def _check_pfaffian(n: int, rng: Random, fix) -> dict:
    a = random_skew_matrix(rng, n)
    pf = matrices.pfaffian_matchings(a)
    if pf == 0:
        return {"ok": True, "skipped": True, "detail": "Pf = 0"}
    val = evaluate_closed(builders.pfaffian_diagram(n, "A"), MatrixBinding(n, {"A": a}))
    return {"ok": True, "skipped": False, "ratio": str(val / pf)}


def _pfaffian_summary(n: int, results: list) -> tuple[dict, bool]:
    """The proportionality constant is measured, not asserted: every ratio
    must agree, and a run without a nonzero Pfaffian is inconclusive."""
    ratios = [r["ratio"] for r in results if not r["skipped"]]
    if len(set(ratios)) > 1:
        for r in results:
            if not r["skipped"]:
                r.update(ok=False, detail="ratios differ across samples")
    constant = ratios[0] if ratios else "undetermined"
    return {"samples_with_nonzero_pfaffian": len(ratios), "constant": constant}, not ratios


# ---------------------------------------------------------------------------
# The catalogue and its runner


@dataclass(frozen=True)
class Identity:
    """A per-trial check ``(n, rng, fixture) -> record fields`` and its dimensions.

    ``fixture(n)`` builds what every trial shares: the diagrams and the
    verdicts of the checks that take no binding. A run builds it once, in
    each worker process that runs its trials, and hands it to every trial;
    without a builder the check gets ``None``. ``dims`` of ``None`` accepts
    any dimension. ``summary(n, results)`` sees all records after the trials,
    may mark some failed, and returns the report's extra data and whether the
    run is inconclusive.
    """

    check: Callable[[int, Random, object], dict]
    default_dim: int
    dims: Optional[tuple[int, ...]]
    summary: Optional[Callable[[int, list], tuple[dict, bool]]] = None
    fixture: Optional[Callable[[int], object]] = None


CATALOGUE: dict[str, Identity] = {
    "ch": Identity(_check_cayley_hamilton, 2, tuple(range(1, 11)), fixture=_ch_fixture),
    "ch-general": Identity(
        _check_generalized_ch, 2, tuple(range(1, 8)),
        fixture=lambda n: builders.ch_diagram(n, _labels(n)),
    ),
    "binor": Identity(
        _check_binor,
        3,
        (3,),
        fixture=lambda n: is_relation(builders.binor_relation(), None, mode="all-bases"),
    ),
    "det-diagram": Identity(
        _check_det_diagram, 2, tuple(range(1, 13)),
        fixture=lambda n: builders.determinant_diagram(n, "A"),
    ),
    "det-sum": Identity(_check_det_sum, 2, tuple(range(1, 8)), fixture=_det_sum_terms),
    "charpoly": Identity(_check_charpoly, 2, tuple(range(1, 11)), fixture=_charpoly_diagrams),
    "antisym-two-node": Identity(_check_antisym_two_node, 2, (1, 2, 3), fixture=_antisym_fixture),
    "symmetrizer-sum": Identity(
        _check_symmetrizer_sum, 2, tuple(range(1, 11)), fixture=_symmetrizer_fixture
    ),
    "fricke": Identity(_check_fricke, 2, (2,), fixture=_fricke_fixture),
    "vector": Identity(_check_vector, 3, (3,), fixture=_vector_fixture),
    "framing-independence": Identity(
        _check_framing_independence, 3, (3,), fixture=_framing_fixture
    ),
    "functoriality": Identity(_check_functoriality, 2, tuple(range(1, 9))),
    # run by the `polarize` and `pfaffian` commands rather than by `verify`; the
    # diagram sum is n! times the polarized identity, so that constant is n!,
    # while the Pfaffian's constant is measured, not asserted
    "polarization": Identity(
        _check_polarization,
        2,
        None,
        lambda n, results: ({"constant": factorial(n)}, False),
        _polarization_fixture,
    ),
    "pfaffian": Identity(_check_pfaffian, 4, None, _pfaffian_summary),
}


# The fixtures of the run in progress, by (identity, n); None outside a run.
# A serial run sets it for the length of its trials and a worker process for
# its own life, which ends with the run's pool, so no fixture outlives its run.
_run_fixtures: Optional[dict] = None


def _fixture(identity: str, n: int):
    build = CATALOGUE[identity].fixture
    if build is None:
        return None
    if _run_fixtures is None:  # a trial run on its own
        return build(n)
    key = (identity, n)
    if key not in _run_fixtures:
        _run_fixtures[key] = build(n)
    return _run_fixtures[key]


def _start_worker() -> None:
    global _run_fixtures
    _run_fixtures = {}


def _map_trials(identity: str, n: int, trials: int, seed, jobs: int):
    global _run_fixtures
    args = [(identity, n, seed, t) for t in range(trials)]
    if jobs > 1:
        # imported here so that a run at jobs=1 loads no process-pool modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker) as pool:
            return list(pool.map(_trial_star, args))
    saved, _run_fixtures = _run_fixtures, {}
    try:
        return [run_single_trial(*a) for a in args]
    finally:
        _run_fixtures = saved


def _trial_star(args):
    return run_single_trial(*args)


def run_single_trial(identity: str, n: int, seed, trial: int) -> dict:
    fields = CATALOGUE[identity].check(n, trial_rng(seed, trial), _fixture(identity, n))
    return {"trial": trial, **fields}


def run_identity(
    identity: str,
    n: Optional[int] = None,
    trials: int = 20,
    seed=0,
    jobs: int = 1,
) -> VerificationReport:
    """Run one catalogue entry's trials, over ``jobs`` processes, and report."""
    entry = CATALOGUE.get(identity)
    if entry is None:
        raise TraceDiagramError(
            f"unknown identity {identity!r}; choose from {sorted(CATALOGUE)}"
        )
    if n is None:
        n = entry.default_dim
    if entry.dims is not None and n not in entry.dims:
        raise TraceDiagramError(
            f"identity {identity!r} supports dimensions {entry.dims}, got {n}"
        )
    if n < 1:
        raise TraceDiagramError(f"dimension must be >= 1, got {n}")
    if trials < 1 or jobs < 1:
        raise TraceDiagramError(
            f"trials and jobs must be at least 1, got trials={trials}, jobs={jobs}"
        )
    start = time.monotonic()
    results = _map_trials(identity, n, trials, seed, jobs)
    extra, inconclusive = entry.summary(n, results) if entry.summary else ({}, False)
    elapsed = time.monotonic() - start
    witnesses = tuple(
        {"trial": r["trial"], "seed": f"{seed}:{r['trial']}", "detail": r.get("detail", "")}
        for r in results
        if not r["ok"]
    )
    status = "inconclusive" if inconclusive else "proven-exact-on-samples"
    if witnesses:
        status = "failed"
    return VerificationReport(
        identity, n, len(results), status, witnesses, elapsed, tuple(results), extra
    )
