"""Evaluation engine: enumeration, signatures, coefficients, weights, matrices."""

from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, factorial
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from tracediagrams import (
    Coloring,
    DiagramStructureError,
    DimensionMismatchError,
    Edge,
    FormalSum,
    FramingError,
    FunctionMatrix,
    InexactValueError,
    LeafColoringError,
    MatrixBinding,
    TraceDiagram,
    TraceDiagramError,
    UnboundLabelError,
    builders,
    coefficient,
    enumerate_colorings,
    evaluate_closed,
    function_matrix,
    leaf,
    signature,
    weight,
)
from tracediagrams import cli, engine
from tracediagrams import matrices as mx
from tracediagrams.algebra import compose, sum_closed_value, sum_function_matrix, tensor
from tracediagrams.diagram import INTERNAL, _Strands
from tracediagrams.dsl import parse_matrix_file, serialize_diagram
from tracediagrams.engine import index_tensor, tensor_index
from tracediagrams.identities import _arity, random_diagram, random_skew_matrix


def binding2():
    return MatrixBinding(2, {"A": [[1, 2], [3, 4]]})


def test_enumerate_exchange_diagram_precolored():
    d = builders.two_node_antisym(3, 2)
    cols = list(enumerate_colorings(d, {"in1": 1, "in2": 2}))
    assert len(cols) == 2
    # legs keep their labels, middle edge forced to 3, outputs swap or not
    for col in cols:
        assert col.head("l1") == col.tail("l1") == 1
        assert col.head("s1") == 3
    outs = {(col.head("o1"), col.head("o2")) for col in cols}
    assert outs == {(1, 2), (2, 1)}


def test_enumerate_empty_when_no_extension_exists():
    # repeated labels at an internal vertex are inadmissible
    d = builders.two_node_antisym(3, 2)
    assert list(enumerate_colorings(d, {"in1": 1, "in2": 1})) == []


def test_enumerate_is_deterministic():
    d = builders.two_node_antisym(3, 2)
    once = [c.pairs for c in enumerate_colorings(d)]
    again = [c.pairs for c in enumerate_colorings(d)]
    assert once == again


def test_enumerate_single_strand():
    d = builders.identity_strands(3, 1)
    cols = list(enumerate_colorings(d, {"in1": 2}))
    assert len(cols) == 1
    assert cols[0].head("s1") == cols[0].tail("s1") == 2


def test_enumerate_marked_loop():
    cols = list(enumerate_colorings(builders.trace_loop(3, ("A",))))
    assert [c.head("c1") for c in cols] == [1, 2, 3]


def test_loop_union_has_power_colorings():
    # c disjoint unmarked loops: n^c colorings, all coefficient 1, signature +1
    for n in (2, 3):
        for c in (1, 2, 3):
            d = builders.trace_loop(n, ())
            for _ in range(c - 1):
                d = tensor(d, builders.trace_loop(n, ()))
            cols = list(enumerate_colorings(d))
            assert len(cols) == n**c
            b = MatrixBinding(n)
            assert all(signature(d, col) == 1 for col in cols)
            assert all(coefficient(d, col, b) == 1 for col in cols)
            assert evaluate_closed(d) == n**c


def test_signature_trivial_without_vertices():
    d = builders.trace_loop(2, ("A",))
    for col in enumerate_colorings(d):
        assert signature(d, col) == 1


def test_coefficient_selects_matrix_entry():
    d = builders.matrix_strand(2, ("A",))
    b = binding2()
    for col in enumerate_colorings(d):
        i, j = col.head("s1"), col.tail("s1")
        assert coefficient(d, col, b) == b.matrix("A")[i - 1][j - 1]


def test_coefficient_multi_marking_word():
    # word (A, B, C) of all-ones 2x2 matrices: every entry of the product is 4
    d = builders.matrix_strand(2, ("A", "B", "C"))
    ones = [[1, 1], [1, 1]]
    b = MatrixBinding(2, {"A": ones, "B": ones, "C": ones})
    col = Coloring.from_dict({"s1": (1, 2)})
    assert coefficient(d, col, b) == 4


def test_coefficient_unmarked_is_one():
    d = builders.identity_strands(2, 1)
    col = Coloring.from_dict({"s1": (1, 1)})
    assert coefficient(d, col, MatrixBinding(2)) == 1


def test_weight_identity_strand_is_delta():
    d = builders.identity_strands(3, 1)
    for i in range(1, 4):
        for j in range(1, 4):
            expected = Fraction(int(i == j))
            assert weight(d, {"in1": i, "out1": j}) == expected


def test_weight_exchange_diagram_values():
    d = builders.two_node_antisym(3, 2)
    base = {"in1": 1, "in2": 2}
    assert weight(d, dict(base, out1=2, out2=1)) == 1
    assert weight(d, dict(base, out1=1, out2=2)) == -1
    assert weight(d, dict(base, out1=1, out2=1)) == 0


def test_weight_requires_total_leaf_coloring():
    d = builders.identity_strands(2, 1)
    with pytest.raises(LeafColoringError):
        weight(d, {"in1": 1})
    with pytest.raises(LeafColoringError):
        weight(d, {"in1": 1, "out1": 1, "ghost": 2})


def test_closed_weight_is_closed_value():
    b = MatrixBinding(2, {"A": [[1, 0], [0, 2]]})
    d = builders.determinant_diagram(2, "A")
    assert weight(d, {}, b) == evaluate_closed(d, b) == -4


def test_evaluate_closed_examples():
    assert evaluate_closed(builders.trace_loop(2, ("A",)), binding2()) == 5
    assert evaluate_closed(builders.trace_loop(3, ())) == 3
    assert evaluate_closed(builders.determinant_diagram(2, "A"), binding2()) == 4


def test_evaluate_closed_rejects_open_leaves():
    with pytest.raises(FramingError):
        evaluate_closed(builders.identity_strands(2, 1))


def test_fast_closed_matches_brute_force():
    rng = Random("fast")
    labels = ("A", "B")
    for _ in range(20):
        n = rng.randint(1, 4)
        b = MatrixBinding(
            n,
            {
                lab: [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                for lab in labels
            },
        )
        edges = tuple(
            Edge(
                f"c{i}",
                None,
                None,
                tuple(rng.choices(labels, k=rng.randint(0, 3))),
            )
            for i in range(rng.randint(0, 3))
        )
        d = TraceDiagram(n, (), edges, inputs=(), outputs=())
        # closed loops take the strand walk: check it against the coloring
        # definition and against the DP
        want = _enumerated_weight(d, {}, b)
        assert evaluate_closed(d, b) == want
        assert weight(d, {}, b) == want


def test_fast_closed_basics():
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]], "B": [[0, 1], [1, 0]]})
    d = builders.trace_loop(2, ("A", "B"))
    ab = mx.matmul(b.matrix("A"), b.matrix("B"))
    assert evaluate_closed(d, b) == mx.mtrace(ab)
    two = tensor(builders.trace_loop(2, ("A",)), builders.trace_loop(2, ("B",)))
    assert evaluate_closed(two, b) == mx.mtrace(b.matrix("A")) * mx.mtrace(
        b.matrix("B")
    )
    empty = TraceDiagram(3, (), (), inputs=(), outputs=())
    assert evaluate_closed(empty) == 1


def test_function_matrix_identity_and_strand():
    assert function_matrix(builders.identity_strands(3, 1)).entries == mx.identity(3)
    fm = function_matrix(builders.matrix_strand(2, ("A",)), binding2())
    assert fm.entries == binding2().matrix("A")


def test_function_matrix_exchange_column():
    fm = function_matrix(builders.two_node_antisym(3, 2))
    col = fm.column((1, 2))
    nonzero = {index_tensor(r, 3, 2): v for r, v in enumerate(col) if v}
    assert nonzero == {(2, 1): Fraction(1), (1, 2): Fraction(-1)}


def test_function_matrix_requires_framing():
    bare = TraceDiagram(2, builders.identity_strands(2, 1).vertices,
                        builders.identity_strands(2, 1).edges)
    with pytest.raises(FramingError):
        function_matrix(bare)


@pytest.mark.parametrize("img", [(2, 1), (1, 2, 3), (3, 1, 2), (2, 3, 4, 1)])
def test_permutation_diagram_keeps_only_its_nonzero_cells(img):
    n, k = 3, len(img)
    fm = function_matrix(builders.permutation_diagram(n, img))
    assert len(fm.cells) == n**k
    assert set(fm.cells.values()) == {1}
    dense = fm.entries
    assert fm.entries is dense
    assert sum(1 for row in dense for x in row if x) == n**k
    assert len(dense) == len(dense[0]) == n**k


def test_function_matrix_arithmetic_drops_cancelled_cells():
    b = binding2()
    fm = function_matrix(builders.matrix_strand(2, ("A",)), b)
    assert fm.cells == {0: 1, 1: 2, 2: 3, 3: 4}
    assert fm.entry((2,), (1,)) == 3 and fm.column((2,)) == (2, 4)
    assert (fm + (-1) * fm).cells == {} and (0 * fm).is_zero()
    assert fm + fm == 2 * fm != fm
    assert {fm, 1 * fm} == {fm}  # hashable, by value
    loop = function_matrix(builders.trace_loop(2, ("A",)), b)
    assert loop.scalar() == 5
    with pytest.raises(FramingError):
        fm + loop


def test_function_matrix_values_do_not_depend_on_the_denominator():
    b = MatrixBinding(2, {"A": [[Fraction(1, 2), 0], [Fraction(2, 3), 5]]})
    fm = function_matrix(builders.matrix_strand(2, ("A",)), b)
    assert (fm.cells, fm.den) == ({0: 3, 2: 4, 3: 30}, 6)
    assert fm.entry((2,), (1,)) == Fraction(2, 3) and fm.column((2,)) == (0, 5)
    thirds = Fraction(1, 3) * fm + Fraction(2, 3) * fm
    sevenths = Fraction(3, 7) * fm + Fraction(4, 7) * fm
    assert thirds == sevenths == fm and hash(thirds) == hash(sevenths) == hash(fm)
    reduced = FunctionMatrix(2, 1, 1, {0: -2, 3: 3}, 5)
    assert FunctionMatrix(2, 1, 1, {0: 4, 3: -6}, -10) == reduced
    assert hash(FunctionMatrix(2, 1, 1, {0: 4, 3: -6}, -10)) == hash(reduced)
    cancelled = Fraction(1, 3) * fm + Fraction(-1, 3) * fm
    assert cancelled.cells == {} and cancelled == 0 * fm
    strand = builders.matrix_strand(2, ("A",))
    s = FormalSum.of((Fraction(1, 3), strand), (Fraction(-1, 3), strand))
    assert sum_function_matrix(s, b).cells == {}


def test_inexact_numbers_are_refused():
    # a float entry would put a 2^55 denominator into every sum
    with pytest.raises(InexactValueError):
        MatrixBinding(2, {"A": [[0.1, 0], [0, 1]]})
    with pytest.raises(InexactValueError):
        MatrixBinding(3, vectors={"u": [1, 0.5, 0]})
    d = builders.matrix_strand(2, ("A",))
    fm = function_matrix(d, binding2())
    for make in (
        lambda: FormalSum.of((0.5, d)),
        lambda: FormalSum.single(d, 0.5),
        lambda: FormalSum.single(d).scale(0.5),
        lambda: 0.5 * fm,
        lambda: mx.mscale(0.5, mx.identity(2)),
    ):
        with pytest.raises(InexactValueError):
            make()
    assert issubclass(InexactValueError, TraceDiagramError)


def test_multi_marking_collapses_to_product():
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]], "B": [[0, 1], [1, 1]], "C": [[2, 1], [0, 1]]})
    word = function_matrix(builders.matrix_strand(2, ("A", "B", "C")), b)
    prod = mx.word_product([b.matrix(x) for x in ("A", "B", "C")])
    single = MatrixBinding(2, {"P": prod})
    collapsed = function_matrix(builders.matrix_strand(2, ("P",)), single)
    assert word.entries == collapsed.entries


def test_zero_pruning_does_not_change_results():
    # the signed sum drops moves with zero coefficients; the oracles use every entry
    b = MatrixBinding(2, {"A": [[0, 1], [2, 0]]})
    a = b.matrix("A")
    d = builders.determinant_diagram(2, "A")
    assert evaluate_closed(d, b) == -2 * mx.bareiss_det(a) == 4
    s = builders.matrix_strand(2, ("A", "A"))
    assert function_matrix(s, b).entries == mx.word_product([a, a])


def test_vector_terminal_with_zero_entries_matches_vec_dot():
    b = MatrixBinding(3, vectors={"u": [0, 1, 0], "v": [1, 0, 2]})
    d = builders.dot_product_diagram("u", "v")
    assert evaluate_closed(d, b) == mx.vec_dot(b.vector("u"), b.vector("v"))


@given(st.integers(2, 4), st.lists(st.integers(1, 4), min_size=0, max_size=4))
def test_tensor_index_round_trip(n, labels):
    labels = [min(x, n) for x in labels]
    idx = tensor_index(labels, n)
    assert index_tensor(idx, n, len(labels)) == tuple(labels)


@given(st.permutations(range(1, 5)), st.permutations(range(1, 5)))
def test_permutation_sign_is_multiplicative(p, q):
    from tracediagrams import perms

    assert perms.sign(perms.compose(p, q)) == perms.sign(p) * perms.sign(q)


# ---------------------------------------------------------------------------
# The signed-sum engine against the coloring enumerator, which is the definition


def _enumerated_matrix(d, b):
    """sum of signature * coefficient over enumerate_colorings, keyed by (beta, alpha)."""
    ins, outs = d.inputs or (), d.outputs or ()
    sums = {}
    for col in enumerate_colorings(d):
        key = (
            tuple(col.at(d.leaf_end(v)) for v in outs),
            tuple(col.at(d.leaf_end(v)) for v in ins),
        )
        sums[key] = sums.get(key, 0) + signature(d, col) * coefficient(d, col, b)
    return sums


def _enumerated_weight(d, leaf_coloring, b):
    return sum(
        signature(d, col) * coefficient(d, col, b)
        for col in enumerate_colorings(d, leaf_coloring)
    )


def _assert_engine_matches_enumerator(d, b, rng):
    sums = _enumerated_matrix(d, b)
    fm = function_matrix(d, b)
    n = d.n
    for beta in product(range(1, n + 1), repeat=fm.output_arity):
        for alpha in product(range(1, n + 1), repeat=fm.input_arity):
            assert fm.entry(beta, alpha) == sums.get((beta, alpha), 0)
    leaves = {vid: rng.randint(1, n) for vid in d.open_leaves()}
    assert weight(d, leaves, b) == _enumerated_weight(d, leaves, b)


def _random_binding(rng, n, vectors=""):
    """Matrices A and B and the named vectors, entries in [-2, 2] over a
    denominator drawn from 1..7 per label, so labels differ in denominator;
    one matrix in five is all zero. Small numerators make about one entry in
    five zero, so zero pruning is exercised."""

    def entries(den):
        return [Fraction(rng.randint(-2, 2), den) for _ in range(n)]

    mats = {}
    for lab in "AB":
        den = rng.randint(1, 7)
        mats[lab] = [entries(den) for _ in range(n)] if rng.randrange(5) else [[0] * n] * n
    return MatrixBinding(n, mats, {lab: entries(rng.randint(1, 7)) for lab in vectors})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from((4, 3, 2, 1)),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_engine_matches_enumerator_on_random_diagrams(n, n_in, n_out, seed):
    assume(not (n % 2 == 0 and (n_in + n_out) % 2))
    rng = Random(seed)
    d = random_diagram(rng, n, n_in, n_out)
    # about half the open leaves end in vector u or v instead
    vec = {vid: rng.choice("uv") for vid in d.open_leaves() if rng.randrange(2)}
    d = TraceDiagram(
        n,
        tuple(leaf(v.id, vec[v.id]) if v.id in vec else v for v in d.vertices),
        d.edges,
        inputs=tuple(vid for vid in d.inputs if vid not in vec),
        outputs=tuple(vid for vid in d.outputs if vid not in vec),
    )
    _assert_engine_matches_enumerator(d, _random_binding(rng, n, "uv"), rng)


@pytest.mark.parametrize(
    "d",
    [
        builders.cross_dot_closed("u", "v", "w", "x"),
        builders.cross_product_diagram("u", "v"),
        builders.dot_product_diagram("u", "v"),
        builders.pfaffian_diagram(4, "A"),
        builders.matrix_strand(3, ("A", "B")),
    ],
    ids=["cross-dot", "cross-product", "dot-product", "pfaffian-4", "marked-strand"],
)
def test_engine_matches_enumerator_on_fixed_diagrams(d):
    rng = Random(d.n)
    _assert_engine_matches_enumerator(d, _random_binding(rng, d.n, "uvwx"), rng)


# Marked edges that end at a vector leaf: the vector entry is read at the
# leaf's own end, the tail label on an edge from a vector, the head label on
# an edge into one, which differ once the edge is marked.


def _cross(a, b):
    return [a[i - 2] * b[i - 1] - a[i - 1] * b[i - 2] for i in range(3)]


def _dot(a, b):
    return sum(p * q for p, q in zip(a, b))


def _apply(m, v):
    return [_dot(row, v) for row in m]


def _marked(d, marks, vectors=None):
    """``d`` with the words in ``marks`` on those edges; with ``vectors``
    (leaf id -> vector label), those open leaves end in vectors and ``d``
    is closed."""
    vectors = vectors or {}
    vertices = tuple(leaf(v.id, vectors[v.id]) if v.id in vectors else v for v in d.vertices)
    edges = tuple(replace(e, marking=marks.get(e.id, e.marking)) for e in d.edges)
    framing = ((), ()) if vectors else (d.inputs, d.outputs)
    return TraceDiagram(d.n, vertices, edges, *framing)


_U, _V = [Fraction(1, 2), 0, -3], [2, Fraction(-5, 3), 0]
_W, _X = [0, 4, Fraction(1, 7)], [-1, 2, 3]
_A = [[1, 0, Fraction(-2, 3)], [0, 3, 1], [Fraction(5, 2), -1, 0]]
_B = [[0, 2, 1], [Fraction(-1, 4), 0, 3], [1, 1, 0]]
_LEGS = {"eu": ("A",), "eo": ("B",)}


@pytest.mark.parametrize(
    "d, want",
    [
        (  # A on the leg from vector u, B on the output leg
            _marked(builders.cross_product_diagram("u", "v"), _LEGS),
            _apply(_B, _cross(_apply(_A, _U), _V)),
        ),
        (  # the output leg ends in vector w: B's head label picks w's entry
            _marked(builders.cross_product_diagram("u", "v"), _LEGS, {"out1": "w"}),
            [_dot(_W, _apply(_B, _cross(_apply(_A, _U), _V)))],
        ),
        (  # two vertices: A on u's leg, the word A B on x's leg
            _marked(
                builders.cross_dot_closed("u", "v", "w", "x"), {"eu": ("A",), "ex": ("A", "B")}
            ),
            [_dot(_cross(_apply(_A, _U), _V), _cross(_W, _apply(_A, _apply(_B, _X))))],
        ),
    ],
    ids=["cross-marked-legs", "cross-into-vector", "crossdot-marked-legs"],
)
def test_marked_edges_at_vector_leaves(d, want):
    b = MatrixBinding(3, {"A": _A, "B": _B}, {"u": _U, "v": _V, "w": _W, "x": _X})
    assert function_matrix(d, b).column(()) == tuple(Fraction(y) for y in want)
    _assert_engine_matches_enumerator(d, b, Random(0))


# Parallel marked strands between two vertices are placed in one DP step, a
# bundle weighed by k! times a minor; the enumerator places every coloring.

_WORDS = ((), ("A",), ("B",), ("A", "B"))


@st.composite
def vertex_pairs(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, n - 2))  # two strands or more; legs at k >= 1
    # words from a palette of one or two, so most pairs repeat a word
    palette = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2))
    words = draw(st.lists(st.sampled_from(palette), min_size=n - k, max_size=n - k))
    return builders.two_node_pair(n, k, words)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(vertex_pairs(), st.integers(0, 2**32 - 1))
def test_vertex_pairs_match_the_enumerator(d, seed):
    rng = Random(seed)
    b = _random_binding(rng, d.n)
    _assert_engine_matches_enumerator(d, b, rng)
    for _ in range(3):
        leaves = {vid: rng.randint(1, d.n) for vid in d.open_leaves()}
        assert weight(d, leaves, b) == _enumerated_weight(d, leaves, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_pairs_match_the_enumerator(n):
    rng = Random(n)
    b = _random_binding(rng, n)
    for i in range(n + 1):
        for d in (builders.det_sum_term(n, i, "A", "B"), builders.char_coeff_diagram(n, i, "A")):
            assert evaluate_closed(d, b) == _enumerated_matrix(d, b).get(((), ()), 0)


def test_one_diagram_object_under_several_bindings():
    # the engine keeps a diagram's validated shape on the diagram; bindings
    # and leaf colorings must still be read afresh on every call
    d = builders.determinant_diagram(3, "A")
    for seed in range(3):
        rng = Random(seed)
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        want = -6 * mx.bareiss_det(mx.freeze_matrix(a))
        assert evaluate_closed(d, MatrixBinding(3, {"A": a})) == want
    with pytest.raises(UnboundLabelError):
        evaluate_closed(d)
    with pytest.raises(DimensionMismatchError):
        evaluate_closed(d, MatrixBinding(2, {"A": mx.identity(2)}))
    s = builders.two_node_antisym(3, 2)
    assert weight(s, {"in1": 1, "in2": 2, "out1": 2, "out2": 1}) == 1
    assert weight(s, {"in1": 1, "in2": 2, "out1": 1, "out2": 2}) == -1


def test_determinant_diagram_at_seven():
    a = mx.freeze_matrix([[Random(7 * i + j).randint(-9, 9) for j in range(7)] for i in range(7)])
    d = builders.determinant_diagram(7, "A")
    assert evaluate_closed(d, MatrixBinding(7, {"A": a})) == (
        (-1) ** 3 * factorial(7) * mx.bareiss_det(a)
    )


def test_char_coeff_diagrams_at_six():
    rng = Random("charpoly-6")
    n = 6
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    b = MatrixBinding(n, {"A": a})
    coeffs = mx.charpoly_fl(b.matrix("A"))
    for i in range(n + 1):
        value = evaluate_closed(builders.char_coeff_diagram(n, i, "A"), b)
        scale = Fraction((-1) ** (i + n // 2), factorial(i) * factorial(n - i))
        assert scale * value == coeffs[i]


def test_pfaffian_diagram_at_eight():
    a = random_skew_matrix(Random("pfaffian-8"), 8)
    value = evaluate_closed(builders.pfaffian_diagram(8, "A"), MatrixBinding(8, {"A": a}))
    # the constant the Pfaffian scan measures: (-1)^m 2^m m! with m = n/2
    assert value == (-1) ** 4 * 2**4 * factorial(4) * mx.pfaffian_matchings(a)


# ---------------------------------------------------------------------------
# The DP takes its steps in an order that keeps few vertices open, where
# that is shown to hold no more states than id order. The states are
# counted here by wrapping the two step functions.


def _id_order(n, pattern):
    return range(len(pattern))


def _peak(d, b, order=None):
    """The function matrix of a fresh copy of ``d`` (so its steps are ordered
    anew; with ``order`` in place of the engine's) and the most states the DP
    held at once, counting the one it starts from."""
    counts = [1]
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_edge", "_bundle"):

            def counted(*args, step=getattr(engine, name)):
                states = step(*args)
                counts.append(len(states))
                return states

            mp.setattr(engine, name, counted)
        if order is not None:
            mp.setattr(engine, "_order", order)
        fm = function_matrix(replace(d), b)
    return max(counts), fm


def _generic_binding(rng, n):
    """A and B with entries of up to six digits and none zero, so that no
    move or minor is zero and the states are all those the shape allows."""

    def entry():
        return rng.choice((-1, 1)) * rng.randint(1, 10**6)

    return MatrixBinding(n, {lab: [[entry() for _ in range(n)] for _ in range(n)] for lab in "AB"})


@st.composite
def multi_vertex_diagrams(draw, dims, vertices=2):
    """The tensor of two random diagrams (often two components) or the
    composition of two, with at least ``vertices`` internal vertices (up to 4)."""
    n = draw(st.sampled_from(dims))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        glue = rng.randint(0, 2)
        top = random_diagram(rng, n, glue, _arity(rng, n, glue))
        d = compose(top, random_diagram(rng, n, _arity(rng, n, glue), glue))
    else:
        left = random_diagram(rng, n, _arity(rng, n, 0), _arity(rng, n, 0))
        d = tensor(left, random_diagram(rng, n, _arity(rng, n, 0), _arity(rng, n, 0)))
    assume(sum(v.kind == INTERNAL for v in d.vertices) >= vertices)
    return d


@settings(derandomize=True, max_examples=400, deadline=None)
@given(multi_vertex_diagrams((3, 4, 5)), st.integers(0, 2**32 - 1))
def test_step_order_holds_no_more_states_than_id_order(d, seed):
    b = _generic_binding(Random(seed), d.n)
    peak, fm = _peak(d, b)
    id_peak, id_fm = _peak(d, b, _id_order)
    assert peak <= id_peak
    assert fm == id_fm


@settings(derandomize=True, max_examples=40, deadline=None)
@given(multi_vertex_diagrams((2, 3), vertices=3), st.integers(0, 2**32 - 1))
def test_ordered_steps_match_the_enumerator(d, seed):
    rng = Random(seed)
    _assert_engine_matches_enumerator(d, _random_binding(rng, d.n), rng)


def test_char_coeff_diagrams_at_ten_hold_at_most_binomial_states():
    # the unmarked strands go first, so the states are the C(10, j) label sets
    # shared by both vertices after j strands, then one minor each
    rng = Random("charpoly-10")
    n = 10
    b = MatrixBinding(n, {"A": [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]})
    coeffs = mx.charpoly_fl(b.matrix("A"))
    for i in range(n + 1):
        peak, fm = _peak(builders.char_coeff_diagram(n, i, "A"), b)
        assert peak <= comb(n, min(i, n // 2))
        scale = Fraction((-1) ** (i + n // 2), factorial(i) * factorial(n - i))
        assert scale * fm.scalar() == coeffs[i]


# ---------------------------------------------------------------------------
# Diagrams without an internal vertex are walked strand by strand; weight
# still takes the DP, so both are checked against the coloring enumerator


@st.composite
def vertex_free_diagrams(draw):
    """n in 1..4; 0-3 strands whose ends are each an input, an output or a
    vector leaf (so cups, caps and fully contracted strands occur); 0-2 free
    loops; every edge marked by a word of length 0-3 over A and B."""
    n = draw(st.integers(1, 4))
    words = st.lists(st.sampled_from("AB"), max_size=3).map(tuple)
    vertices, edges, ins, outs = [], [], [], []
    for i in range(draw(st.integers(0, 3))):
        ends = []
        for side in "th":
            vid = f"{side}{i}"
            kind = draw(st.sampled_from(("in", "out", "vec")))
            vertices.append(leaf(vid, draw(st.sampled_from("uv")) if kind == "vec" else None))
            if kind != "vec":
                (ins if kind == "in" else outs).append(vid)
            ends.append(vid)
        edges.append(Edge(f"s{i}", ends[0], ends[1], draw(words)))
    for i in range(draw(st.integers(0, 2))):
        edges.append(Edge(f"c{i}", None, None, draw(words)))
    ins, outs = draw(st.permutations(ins)), draw(st.permutations(outs))
    return TraceDiagram(n, tuple(vertices), tuple(draw(st.permutations(edges))),
                        inputs=tuple(ins), outputs=tuple(outs))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(vertex_free_diagrams(), st.integers(0, 2**32 - 1))
def test_strand_walk_matches_enumerator_on_vertex_free_diagrams(d, seed):
    rng = Random(seed)
    b = _random_binding(rng, d.n, "uv")
    sums = _enumerated_matrix(d, b)
    fm = function_matrix(d, b)
    cols = d.n**fm.input_arity
    want = {}
    for (beta, alpha), x in sums.items():
        if x:
            want[tensor_index(beta, d.n) * cols + tensor_index(alpha, d.n)] = x
    assert {idx: Fraction(x, fm.den) for idx, x in fm.cells.items()} == want
    leaves = {vid: rng.randint(1, d.n) for vid in d.open_leaves()}
    assert weight(d, leaves, b) == _enumerated_weight(d, leaves, b)
    if d.is_closed():
        assert evaluate_closed(d, b) == sums.get(((), ()), 0)


def test_vertex_free_evaluation_builds_no_shape():
    b = MatrixBinding(3, {"A": [[1, 2, 0], [0, 1, 3], [4, 0, 1]]})
    perm = builders.permutation_diagram(3, (2, 3, 1))
    strand = builders.matrix_strand(3, ("A", "A"))
    loop = builders.trace_loop(3, ("A",))
    assert function_matrix(perm).cells and function_matrix(strand, b).cells
    assert evaluate_closed(loop, b) == 3
    assert all("_shape" not in d.__dict__ for d in (perm, strand, loop))
    # weight keeps the DP, which indexes the diagram once and keeps the index
    weight(strand, {"in1": 1, "out1": 2}, b)
    assert "_shape" in strand.__dict__


def _raised(call):
    with pytest.raises(TraceDiagramError) as info:
        call()
    return type(info.value), str(info.value)


def _loop_and_strand(inputs=("a",), outputs=("z",), extra=()):
    """A strand from leaf a (input) to leaf z (output) marked B A, a vector
    leaf w on a second strand, and a free loop marked A."""
    vertices = (leaf("a"), leaf("z"), leaf("w", "v"), leaf("y")) + extra
    edges = (
        Edge("e1", "a", "z", ("B", "A")),
        Edge("e2", "w", "y", ()),
        Edge("e3", None, None, ("A",)),
    )
    return TraceDiagram(3, vertices, edges, inputs=inputs, outputs=outputs + ("y",))


def _vector_strand():
    """A closed strand whose tail is vector v and whose head is vector u."""
    vertices = (leaf("t", "v"), leaf("h", "u"))
    return TraceDiagram(3, vertices, (Edge("e", "t", "h"),), (), ())


@pytest.mark.parametrize(
    "d, binding, error",
    [
        (
            TraceDiagram(2, (leaf("x", "u"),), (Edge("e", "x", "x"),), (), ()),
            None,
            DiagramStructureError("leaf x has degree 2, expected 1"),
        ),
        (
            _loop_and_strand(inputs=()),
            None,
            DiagramStructureError("framing not a partition of the open leaves"),
        ),
        (_loop_and_strand(), None, UnboundLabelError("A")),
        (
            _loop_and_strand(),
            MatrixBinding(2, {"A": mx.identity(2), "B": mx.identity(2)}, {"v": [1, 2]}),
            DimensionMismatchError("binding dimension 2 != diagram dimension 3"),
        ),
        (
            _loop_and_strand(),
            MatrixBinding(3, {"A": mx.identity(3)}, {"v": [1, 2, 3]}),
            UnboundLabelError("B"),
        ),
        (
            _loop_and_strand(),
            MatrixBinding(3, {"A": mx.identity(3), "B": mx.identity(3)}),
            UnboundLabelError("v"),
        ),
        (
            TraceDiagram(3, (), (Edge("c", None, None, ("B", "A")),), (), ()),
            None,
            UnboundLabelError("A"),
        ),
        (
            builders.trace_loop(2, ("A",)),
            MatrixBinding(3, {"A": mx.identity(3)}),
            DimensionMismatchError("binding dimension 3 != diagram dimension 2"),
        ),
        # a strand from vector v (its tail) to vector u (its head): the binding
        # reads the tail first, while with no binding the sorted-first label
        # is named
        (_vector_strand(), MatrixBinding(3), UnboundLabelError("v")),
        (_vector_strand(), None, UnboundLabelError("u")),
    ],
    ids=[
        "leaf-degree-2",
        "framing",
        "unbound",
        "dimension",
        "unbound-in-binding",
        "missing-vector",
        "loop",
        "loop-dimension",
        "vectors-tail-first",
        "vectors-sorted-first",
    ],
)
def test_strand_walk_raises_what_the_dp_raises(d, binding, error):
    want = (type(error), str(error))
    assert _raised(lambda: function_matrix(d, binding)) == want
    assert _raised(lambda: weight(d, {}, binding)) == want  # the DP route
    if d.is_closed():
        assert _raised(lambda: evaluate_closed(d, binding)) == want


def test_unframed_open_vertex_free_diagram_is_refused():
    d = builders.matrix_strand(2, ("A",))
    bare = TraceDiagram(2, d.vertices, d.edges)
    assert _raised(lambda: function_matrix(bare)) == (
        FramingError, "function matrix needs a framed diagram"
    )
    assert _raised(lambda: evaluate_closed(bare)) == (
        FramingError, "not closed: open leaves in1, out1"
    )


# ---------------------------------------------------------------------------
# The builders' permutation sums hold strand forms; each term's diagram, built
# by form.diagram(), must give the same sum and the same errors


@st.composite
def form_sums(draw):
    """n in 1..3 and 1-3 terms with coefficients in -3..3 / 1..3, all of one
    arity: unmarked permutations of k <= 3 strands, or closure summands of a
    permutation of k <= 4 points with labels over A and B, each with the
    open strand 1 and a top mark drawn or none."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    wired = draw(st.booleans())
    is_open = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        if wired:
            images = tuple(draw(st.permutations(range(1, k + 1))))
            terms.append((coeff, builders._permutation(n, images)))
            continue
        m = k + 1
        images = tuple(draw(st.permutations(range(1, m + 1))))
        labels = {j: draw(st.sampled_from("AB")) for j in range(2 if is_open else 1, m + 1)}
        top = draw(st.sampled_from((None, "A", "B"))) if is_open else None
        terms.append((coeff, builders._closure(n, images, labels, 1 if is_open else None, top)))
    return FormalSum(tuple(terms))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(form_sums(), st.integers(0, 2**32 - 1))
def test_form_sums_match_the_diagram_route_and_the_enumerator(s, seed):
    b = _random_binding(Random(seed), s.terms[0][1].n)
    diagrams = FormalSum(tuple((c, form.diagram()) for c, form in s.terms))
    fm = sum_function_matrix(s, b)
    assert fm == sum_function_matrix(diagrams, b)
    want = {}
    for c, d in diagrams.terms:
        for key, x in _enumerated_matrix(d, b).items():
            want[key] = want.get(key, 0) + c * x
    n = fm.n
    for beta in product(range(1, n + 1), repeat=fm.output_arity):
        for alpha in product(range(1, n + 1), repeat=fm.input_arity):
            assert fm.entry(beta, alpha) == want.get((beta, alpha), 0)
    if all(form.is_closed() for _, form in s.terms):
        assert sum_closed_value(s, b) == sum_closed_value(diagrams, b) == fm.scalar()


@pytest.mark.parametrize(
    "tmat, error",
    [
        (None, UnboundLabelError("A")),
        ("matrix A 2 2\n1 2\n3 4\n", UnboundLabelError("B")),
        ("matrix A 3 3\n1 0 0\n0 1 0\n0 0 1\nmatrix B 3 3\n1 0 0\n0 1 0\n0 0 1\n",
         DimensionMismatchError("binding dimension 3 != diagram dimension 2")),
    ],
    ids=["no-binding", "missing-label", "dimension"],
)
def test_form_terms_raise_what_their_diagrams_raise(tmp_path, capsys, tmat, error):
    want = (type(error), str(error))
    b = None
    if tmat is not None:
        (tmp_path / "m.tmat").write_text(tmat, encoding="utf-8")
        b = parse_matrix_file(tmat)
    for forms, evaluate in (
        (builders.ch_diagram(2, ["A", "B"]), sum_function_matrix),
        (builders.antisym_closed_loops(2, ["A", "B"]), sum_closed_value),
    ):
        assert all(isinstance(form, _Strands) for _, form in forms.terms)
        diagrams = FormalSum(tuple((c, form.diagram()) for c, form in forms.terms))
        assert _raised(lambda: evaluate(forms, b)) == want
        assert _raised(lambda: evaluate(diagrams, b)) == want
    # through the CLI: the builtin sum (strand forms) and one of its terms'
    # diagrams, whose loop is marked A B, written out as a .tdg
    terms = builders.ch_diagram(2, ["A", "B"]).terms
    (term,) = [f for _, f in terms if f.loops == (("c1", ("A", "B")),)]
    (tmp_path / "sum.tdg").write_text("diagram s = builtin:ch(A, B) @ dim 2\n", encoding="utf-8")
    (tmp_path / "term.tdg").write_text(serialize_diagram(term), encoding="utf-8")
    for tdg in ("sum.tdg", "term.tdg"):
        argv = ["eval", str(tmp_path / tdg)]
        argv += [] if tmat is None else ["--bind", str(tmp_path / "m.tmat")]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == str(error) + "\n"
