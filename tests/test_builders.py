"""Named diagram constructors and their pinned conventions."""

import hashlib
from fractions import Fraction
from itertools import permutations
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tracediagrams import (
    DimensionMismatchError,
    MatrixBinding,
    builders,
    evaluate_closed,
    function_matrix,
    sum_closed_value,
    sum_function_matrix,
    validate,
)
from tracediagrams import matrices as mx
from tracediagrams import perms
from tracediagrams.diagram import _Strands
from tracediagrams.dsl import serialize_diagram
from tracediagrams.engine import index_tensor


def test_all_builders_validate():
    samples = [
        builders.identity_strands(3, 2),
        builders.permutation_diagram(3, (2, 3, 1)),
        builders.matrix_strand(2, ("A", "B")),
        builders.trace_loop(4, ("A",)),
        builders.determinant_diagram(4, "A"),
        builders.det_sum_term(3, 1, "A", "B"),
        builders.char_coeff_diagram(3, 2, "A"),
        builders.two_node_antisym(3, 1),
        builders.cross_product_diagram("u", "v"),
        builders.dot_product_diagram("u", "v"),
        builders.cross_dot_closed("u", "v", "w", "x"),
        builders.pfaffian_diagram(4, "A"),
    ]
    for d in samples:
        assert validate(d).ok, validate(d).violations
    for s in (
        builders.antisymmetrizer(2, 3),
        builders.ch_diagram(2, ["A", "B"]),
        builders.ch_classes(3, "A", 4),
        builders.loop_classes(3, "A", 4),
    ):
        for _, term in s.terms:
            assert validate(term.diagram()).ok


def test_permutation_diagrams_compose_like_permutations():
    for p in permutations((1, 2, 3)):
        for q in permutations((1, 2, 3)):
            fp = function_matrix(builders.permutation_diagram(2, p))
            fq = function_matrix(builders.permutation_diagram(2, q))
            fpq = function_matrix(builders.permutation_diagram(2, perms.compose(p, q)))
            assert mx.matmul(fp.entries, fq.entries) == fpq.entries


def test_swap_diagram_action():
    fm = function_matrix(builders.permutation_diagram(2, (2, 1)))
    col = fm.column((1, 2))
    nonzero = {index_tensor(r, 2, 2): v for r, v in enumerate(col) if v}
    assert nonzero == {(2, 1): Fraction(1)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_antisymmetrizer_above_dimension_is_zero(n):
    fm = sum_function_matrix(builders.antisymmetrizer(n, n + 1))
    assert fm.is_zero()


def test_antisymmetrizer_kills_repeated_indices():
    fm = sum_function_matrix(builders.antisymmetrizer(3, 3))
    assert all(x == 0 for x in fm.column((1, 1, 2)))


@pytest.mark.parametrize("n", [2, 3])
def test_two_node_expansion_constant(n):
    for k in range(n + 1):
        anti = sum_function_matrix(builders.antisymmetrizer(n, k))
        pair = function_matrix(builders.two_node_antisym(n, k))
        scaled = Fraction((-1) ** (n // 2), factorial(n - k)) * pair
        assert anti.entries == scaled.entries


def test_determinant_diagram_values():
    assert evaluate_closed(
        builders.determinant_diagram(2, "A"), MatrixBinding(2, {"A": mx.identity(2)})
    ) == -2
    b3 = MatrixBinding(3, {"A": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    assert evaluate_closed(builders.determinant_diagram(3, "A"), b3) == -36
    singular = MatrixBinding(2, {"A": [[1, 1], [1, 1]]})
    assert evaluate_closed(builders.determinant_diagram(2, "A"), singular) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_diagram_against_elimination_oracle(n):
    rng = Random(f"det{n}")
    for _ in range(5):
        a = mx.freeze_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        got = evaluate_closed(builders.determinant_diagram(n, "A"), MatrixBinding(n, {"A": a}))
        assert got == (-1) ** (n // 2) * factorial(n) * mx.bareiss_det(a)


def test_char_coeff_diagram_extremes():
    # i = n is the all-unmarked pair, i = 0 the all-marked one
    n = 3
    b = MatrixBinding(n, {"A": [[1, 2, 3], [0, 1, 4], [5, 6, 0]]})
    top = evaluate_closed(builders.char_coeff_diagram(n, n, "A"), b)
    assert top == (-1) ** (n // 2) * factorial(n)
    bottom = evaluate_closed(builders.char_coeff_diagram(n, 0, "A"), b)
    assert bottom == evaluate_closed(builders.determinant_diagram(n, "A"), b)


@pytest.mark.parametrize("n", [2, 3])
def test_char_coeff_ciliation_variant_changes_at_most_sign(n):
    # rotating a vertex's cilium by one slot scales values by (-1)^(n-1)
    from tracediagrams import TraceDiagram, internal

    rng = Random(f"cil{n}")
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    b = MatrixBinding(n, {"A": a})
    for i in range(n + 1):
        d = builders.char_coeff_diagram(n, i, "A")
        verts = tuple(
            internal(v.id, v.ciliation[1:] + v.ciliation[:1]) if v.id == "vt" else v
            for v in d.vertices
        )
        rotated = TraceDiagram(d.n, verts, d.edges, d.inputs, d.outputs)
        v0 = evaluate_closed(d, b)
        v1 = evaluate_closed(rotated, b)
        assert abs(v0) == abs(v1)
        assert v1 == (-1) ** (n - 1) * v0


def test_ch_diagram_single_label_1x1():
    b = MatrixBinding(1, {"A": [[7]]})
    fm = sum_function_matrix(builders.ch_diagram(1, ["A"]), b)
    assert fm.is_zero()


def test_ch_diagram_six_summands_2x2():
    rng = Random("six")
    a1 = mx.freeze_matrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
    a2 = mx.freeze_matrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
    b = MatrixBinding(2, {"A1": a1, "A2": a2})
    i2 = mx.identity(2)
    t1, t2 = mx.mtrace(a1), mx.mtrace(a2)
    expected = {
        (1, 2, 3): mx.mscale(t1 * t2, i2),
        (1, 3, 2): mx.mscale(mx.mtrace(mx.matmul(a1, a2)), i2),
        (2, 1, 3): mx.mscale(t2, a1),
        (2, 3, 1): mx.matmul(a2, a1),
        (3, 1, 2): mx.matmul(a1, a2),
        (3, 2, 1): mx.mscale(t1, a2),
    }
    closure = {2: "A1", 3: "A2"}
    total = mx.freeze_matrix([[0, 0], [0, 0]])
    for img in permutations((1, 2, 3)):
        term = builders.closure_diagram(2, img, closure, open_strand=1)
        got = function_matrix(term, b).entries
        assert got == expected[img]
        total = mx.madd(total, mx.mscale(perms.sign(img), got))
    assert mx.is_zero_matrix(total)


def test_antisym_closed_loops_values():
    # one strand: tr(A); two strands: tr(A)^2 - tr(A^2)
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]]})
    a = b.matrix("A")
    assert sum_closed_value(builders.antisym_closed_loops(2, ["A"]), b) == mx.mtrace(a)
    got = sum_closed_value(builders.antisym_closed_loops(2, ["A", "A"]), b)
    assert got == mx.mtrace(a) ** 2 - mx.mtrace(mx.matmul(a, a))
    empty = sum_closed_value(builders.antisym_closed_loops(2, []), b)
    assert empty == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_class_sums_match_the_full_expansion(n):
    rng = Random(f"classes:{n}")
    for m in range(n + 1):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        b = MatrixBinding(n, {"A": rows})
        classes = sum_function_matrix(builders.ch_classes(n, "A", m), b)
        assert classes == sum_function_matrix(builders.ch_diagram(n, ["A"] * m), b)
        loops = sum_closed_value(builders.loop_classes(n, "A", m), b)
        assert loops == sum_closed_value(builders.antisym_closed_loops(n, ["A"] * m), b)


def _cycle_lengths(images):
    """The cycle lengths of a permutation of 1..k given by its images, the
    cycle through 1 first."""
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = images[cur - 1]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _term_classes(s):
    """Each term's coefficient by its class (open word length, loop word lengths
    in non-increasing order); the edges of a closure diagram come strand first."""
    out = {}
    for c, term in s.terms:
        d = term.diagram()
        words = [len(e.marking) for e in d.edges]
        if d.inputs:
            key = (words[0], tuple(sorted(words[1:], reverse=True)))
        else:
            key = tuple(sorted(words, reverse=True))
        assert key not in out
        out[key] = c
    return out


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_class_coefficients_count_signed_permutations(m):
    # the cycle through strand 1 leaves i letters on the open strand; each other
    # cycle closes into a loop of its length
    open_count, closed_count = {}, {}
    for img in permutations(range(1, m + 2)):
        first, *rest = _cycle_lengths(img)
        key = (first - 1, tuple(sorted(rest, reverse=True)))
        open_count[key] = open_count.get(key, 0) + perms.sign(img)
    for img in permutations(range(1, m + 1)):
        key = tuple(sorted(_cycle_lengths(img), reverse=True))
        closed_count[key] = closed_count.get(key, 0) + perms.sign(img)
    n = max(m, 1)
    assert _term_classes(builders.ch_classes(n, "A", m)) == open_count
    assert _term_classes(builders.loop_classes(n, "A", m)) == closed_count


def test_fricke_traced_terms_read_as_trace_monomials():
    binding = MatrixBinding(
        2, {"A": [[1, 1], [0, 1]], "B": [[2, 0], [1, 1]], "C": [[0, 1], [1, 3]]}
    )
    a, b, c = (binding.matrix(k) for k in ("A", "B", "C"))
    total = sum_closed_value(builders.fricke_traced_sum("A", "B", "C"), binding)

    def tr(*ms):
        return mx.mtrace(mx.word_product(ms))

    classical = (
        tr(a) * tr(b) * tr(c)
        + tr(a, c, b)
        + tr(a, b, c)
        - tr(a, b) * tr(c)
        - tr(a, c) * tr(b)
        - tr(a) * tr(b, c)
    )
    assert total == classical == 0


def test_cross_product_basis_table():
    for i in range(3):
        for j in range(3):
            u = [0, 0, 0]
            v = [0, 0, 0]
            u[i] = 1
            v[j] = 1
            b = MatrixBinding(3, vectors={"u": u, "v": v})
            fm = function_matrix(builders.cross_product_diagram("u", "v"), b)
            got = tuple(fm.entries[r][0] for r in range(3))
            assert got == mx.vec_cross(mx.freeze_vector(u), mx.freeze_vector(v))


def test_dot_product_value():
    b = MatrixBinding(3, vectors={"u": [1, 2, 3], "v": [4, 5, 6]})
    assert evaluate_closed(builders.dot_product_diagram("u", "v"), b) == 32


def test_pfaffian_diagram_2x2_pinned_ratio():
    # pins the nested-arc direction convention: value = -2 * Pf at n = 2
    for a in (1, 2, 3):
        b = MatrixBinding(2, {"A": [[0, a], [-a, 0]]})
        assert evaluate_closed(builders.pfaffian_diagram(2, "A"), b) == -2 * a


def test_pfaffian_diagram_refuses_odd_dimension():
    with pytest.raises(DimensionMismatchError):
        builders.pfaffian_diagram(3, "A")


def test_trace_loop_word_order():
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]], "B": [[0, 1], [1, 0]]})
    got = evaluate_closed(builders.trace_loop(2, ("A", "B")), b)
    assert got == mx.mtrace(mx.matmul(b.matrix("A"), b.matrix("B")))


def test_builtin_registry():
    d = builders.build_builtin("det", ["A"], 3)
    assert validate(d).ok
    s = builders.build_builtin("antisym", ["4"], 3)
    assert len(s.terms) == 24
    with pytest.raises(Exception):
        builders.build_builtin("nonesuch", [], 2)
    with pytest.raises(DimensionMismatchError):
        builders.build_builtin("cross", ["u", "v"], 2)
    with pytest.raises(Exception):
        builders.build_builtin("det", [], 2)


def _sums_by_family():
    words = ((), ("A",), ("A", "B"), ("A", "A", "B"), ("A", "B", "C"))
    return {
        "antisymmetrizer": [builders.antisymmetrizer(3, k) for k in range(5)],
        "ch_diagram": [builders.ch_diagram(3, w) for w in words],
        "antisym_closed_loops": [builders.antisym_closed_loops(3, w) for w in words],
        "ch_classes": [builders.ch_classes(3, "A", m) for m in range(5)],
        "loop_classes": [builders.loop_classes(3, "A", m) for m in range(5)],
        "fricke": [
            builders.fricke_sum("A", "B", "C"),
            builders.fricke_traced_sum("A", "B", "C"),
        ],
    }


def _digest(texts) -> str:
    return hashlib.sha256("\x00".join(texts).encode()).hexdigest()


# sha256 over each term's coefficient and serialize_diagram text, in term
# order: a change of term order, edge ids or words changes the digest even
# where the summed value does not
PINNED_SUMS = {
    "antisymmetrizer": "4191d0d9e6c55d606c7e602437c095af67247d20f3a32aa8318b13f6df04c6da",
    "ch_diagram": "14808694bdbaa04103b7bc4408789c82ca66ac62923544f79a4c76739663b50f",
    "antisym_closed_loops": "7d6f3d7d103ee21b19da95837ffd9c403e79165dd8eecf50a57bd21dda965bfe",
    "ch_classes": "e856b2e9f8e694541d1d05263b31f56567c5bff510e74836263b85030cd761a3",
    "loop_classes": "fc7841b09ba28ff6d8a5c73e5b32decf5d518f07f5780ad410daf711d292d562",
    "fricke": "228a188ca5b47404e56a274200456723a9dff0c0f6f165924bbbc479ab50c3ca",
}


@pytest.mark.parametrize("family", sorted(PINNED_SUMS))
def test_builder_sums_are_pinned(family):
    texts = [
        f"{c}\n{serialize_diagram(d)}"
        for s in _sums_by_family()[family]
        for c, d in s.terms
    ]
    assert _digest(texts) == PINNED_SUMS[family]


def test_closure_diagrams_are_pinned():
    # every permutation of 1..4, closed fully or with each strand left open,
    # with and without a top mark on the open strand
    labels = {j: f"L{j}" for j in range(1, 5)}
    texts = [
        serialize_diagram(builders.closure_diagram(2, img, labels, open_strand, top))
        for img in permutations(range(1, 5))
        for open_strand in (None, 1, 2, 3, 4)
        for top in (None, "T")
    ]
    assert _digest(texts) == (
        "353b465fffee678081ca9518e07c90070595b3d1e58cc7f1451088db8d0790a7"
    )


@st.composite
def closures(draw):
    """A permutation of 1..k, k in 0..6; the open strand, a point or None; a
    closure label over A, B, C for every other point; and a top mark on the
    open strand, drawn or None."""
    k = draw(st.integers(0, 6))
    images = tuple(draw(st.permutations(range(1, k + 1))))
    open_strand = draw(st.one_of(st.none(), st.integers(1, k))) if k else None
    labels = {j: draw(st.sampled_from("ABC")) for j in range(1, k + 1) if j != open_strand}
    top = draw(st.one_of(st.none(), st.sampled_from("AT"))) if open_strand else None
    return images, labels, open_strand, top


@settings(derandomize=True, max_examples=200, deadline=None)
@given(closures(), st.integers(1, 4))
def test_strand_forms_built_from_images_match_their_diagrams(case, n):
    images, labels, open_strand, top = case
    form = builders._closure(n, images, labels, open_strand, top)
    d = builders.closure_diagram(n, images, labels, open_strand, top)
    assert validate(d).ok
    assert _Strands.of(d) == form
    assert _Strands.of(form.diagram()) == form and form.diagram() == d
    # the open strand's word and the loops' words hold every closure label once
    words = [w for _, w, *_ in form.strands] + [w for _, w in form.loops]
    letters = sorted(lab for w in words for lab in w)
    assert letters == sorted([*labels.values()] + ([top] if top else []))
    wires = builders._permutation(n, images)
    assert _Strands.of(builders.permutation_diagram(n, images)) == wires
    assert _Strands.of(wires.diagram()) == wires
