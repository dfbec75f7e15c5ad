"""Evaluation engine: enumeration, signatures, coefficients, weights, matrices."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from tracediagrams import (
    Coloring,
    DiagramStructureError,
    DimensionMismatchError,
    Edge,
    FramingError,
    LeafColoringError,
    MatrixBinding,
    TraceDiagram,
    UnboundLabelError,
    builders,
    coefficient,
    enumerate_colorings,
    evaluate_closed,
    evaluate_fast_closed,
    function_matrix,
    signature,
    weight,
)
from tracediagrams import matrices as mx
from tracediagrams.algebra import tensor
from tracediagrams.engine import index_tensor, tensor_index


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
        assert evaluate_fast_closed(d, b) == evaluate_closed(d, b)


def test_fast_closed_basics():
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]], "B": [[0, 1], [1, 0]]})
    d = builders.trace_loop(2, ("A", "B"))
    ab = mx.matmul(b.matrix("A"), b.matrix("B"))
    assert evaluate_fast_closed(d, b) == mx.mtrace(ab)
    two = tensor(builders.trace_loop(2, ("A",)), builders.trace_loop(2, ("B",)))
    assert evaluate_fast_closed(two, b) == mx.mtrace(b.matrix("A")) * mx.mtrace(
        b.matrix("B")
    )
    empty = TraceDiagram(3, (), (), inputs=(), outputs=())
    assert evaluate_fast_closed(empty) == 1


def test_fast_closed_needs_a_binding_for_marked_loops():
    with pytest.raises(UnboundLabelError):
        evaluate_fast_closed(builders.trace_loop(2, ("A",)))


def test_fast_closed_refuses_a_binding_of_another_dimension():
    identity3 = MatrixBinding(3, {"A": mx.identity(3)})
    with pytest.raises(DimensionMismatchError):
        evaluate_fast_closed(builders.trace_loop(2, ("A",)), identity3)


def test_fast_closed_refuses_vertices():
    with pytest.raises(DiagramStructureError):
        evaluate_fast_closed(builders.determinant_diagram(2, "A"), binding2())


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


def test_multi_marking_collapses_to_product():
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]], "B": [[0, 1], [1, 1]], "C": [[2, 1], [0, 1]]})
    word = function_matrix(builders.matrix_strand(2, ("A", "B", "C")), b)
    prod = mx.word_product([b.matrix(x) for x in ("A", "B", "C")])
    single = MatrixBinding(2, {"P": prod})
    collapsed = function_matrix(builders.matrix_strand(2, ("P",)), single)
    assert word.entries == collapsed.entries


def test_zero_pruning_does_not_change_results():
    b = MatrixBinding(2, {"A": [[0, 1], [2, 0]]})
    d = builders.determinant_diagram(2, "A")
    assert evaluate_closed(d, b, prune_zeros=True) == evaluate_closed(
        d, b, prune_zeros=False
    )
    s = builders.matrix_strand(2, ("A", "A"))
    assert (
        function_matrix(s, b, prune_zeros=True).entries
        == function_matrix(s, b, prune_zeros=False).entries
    )


def test_vector_terminal_prune_toggle():
    b = MatrixBinding(3, vectors={"u": [0, 1, 0], "v": [1, 0, 2]})
    d = builders.dot_product_diagram("u", "v")
    assert evaluate_closed(d, b, prune_zeros=True) == evaluate_closed(
        d, b, prune_zeros=False
    )


@given(st.integers(2, 4), st.lists(st.integers(1, 4), min_size=0, max_size=4))
def test_tensor_index_round_trip(n, labels):
    labels = [min(x, n) for x in labels]
    idx = tensor_index(labels, n)
    assert index_tensor(idx, n, len(labels)) == tuple(labels)


@given(st.permutations(range(1, 5)), st.permutations(range(1, 5)))
def test_permutation_sign_is_multiplicative(p, q):
    from tracediagrams import perms

    assert perms.sign(perms.compose(p, q)) == perms.sign(p) * perms.sign(q)
