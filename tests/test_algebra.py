"""Monoidal structure: composition, tensor, reframing, formal sums, relations."""

from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from tracediagrams import (
    CompositionError,
    DiagramStructureError,
    Edge,
    FormalSum,
    FramingError,
    MatrixBinding,
    TraceDiagram,
    TraceDiagramError,
    UnboundLabelError,
    builders,
    compose,
    compose_sums,
    evaluate_closed,
    function_matrix,
    is_relation,
    leaf,
    reframe,
    reframe_positions,
    sum_closed_value,
    sum_function_matrix,
    tensor,
    weight,
)
from tracediagrams import algebra
from tracediagrams import diagram as diagram_module
from tracediagrams import matrices as mx
from tracediagrams import perms
from tracediagrams.dsl import parse_diagram_set, parse_relation
from tracediagrams.engine import _sum_cells, index_tensor
from tracediagrams.identities import random_diagram, trial_rng


def binding(n=2, **mats):
    return MatrixBinding(n, mats or {"A": [[1, 2], [3, 4]], "B": [[0, 1], [2, 1]]})


def cup(n, outputs=("o1", "o2"), marking=()):
    return TraceDiagram(
        n,
        (leaf(outputs[0]), leaf(outputs[1])),
        (Edge("e1", outputs[1], outputs[0], marking),),
        inputs=(),
        outputs=outputs,
    )


def cap(n, inputs=("i1", "i2"), marking=()):
    return TraceDiagram(
        n,
        (leaf(inputs[0]), leaf(inputs[1])),
        (Edge("e1", inputs[0], inputs[1], marking),),
        inputs=inputs,
        outputs=(),
    )


def test_compose_strands_concatenates_words():
    top = builders.matrix_strand(2, ("A",))
    bottom = builders.matrix_strand(2, ("B",))
    glued = compose(top, bottom)
    (edge,) = glued.edges
    assert edge.marking == ("A", "B")
    b = binding()
    got = function_matrix(glued, b)
    want = mx.matmul(b.matrix("A"), b.matrix("B"))
    assert got.entries == want


def test_compose_with_identity_is_identity():
    b = binding()
    d = builders.matrix_strand(2, ("A",))
    left = compose(builders.identity_strands(2, 1), d)
    right = compose(d, builders.identity_strands(2, 1))
    for glued in (left, right):
        assert function_matrix(glued, b).entries == b.matrix("A")


def test_compose_vertex_halves_recovers_exchange_diagram():
    # bottom: trivalent vertex with two inputs and one upward edge;
    # top: trivalent vertex with one input and two outputs
    from tracediagrams import EndRef, HEAD, TAIL, internal

    bottom = TraceDiagram(
        3,
        (
            leaf("in1"),
            leaf("in2"),
            leaf("mid_out"),
            internal("vb", (EndRef("l1", HEAD), EndRef("l2", HEAD), EndRef("m", TAIL))),
        ),
        (Edge("l1", "in1", "vb"), Edge("l2", "in2", "vb"), Edge("m", "vb", "mid_out")),
        inputs=("in1", "in2"),
        outputs=("mid_out",),
    )
    top = TraceDiagram(
        3,
        (
            leaf("mid_in"),
            leaf("out1"),
            leaf("out2"),
            internal("vt", (EndRef("m", HEAD), EndRef("o2", TAIL), EndRef("o1", TAIL))),
        ),
        (Edge("m", "mid_in", "vt"), Edge("o1", "vt", "out1"), Edge("o2", "vt", "out2")),
        inputs=("mid_in",),
        outputs=("out1", "out2"),
    )
    glued = compose(top, bottom)
    want = function_matrix(builders.two_node_antisym(3, 2))
    crossing_minus_id = sum_function_matrix(
        FormalSum.of(
            (1, builders.permutation_diagram(3, (2, 1))),
            (-1, builders.identity_strands(3, 2)),
        )
    )
    assert function_matrix(glued).entries == want.entries == crossing_minus_id.entries


def test_compose_cap_with_cup_gives_loop():
    for n in (2, 3):
        glued = compose(cap(n), cup(n))
        assert glued.is_closed()
        from tracediagrams import evaluate_closed

        assert evaluate_closed(glued) == n


def test_compose_marked_cap_cup_traces_product():
    from tracediagrams import evaluate_closed

    b = binding()
    glued = compose(cap(2, marking=("A",)), cup(2, marking=("B",)))
    want = mx.mtrace(mx.matmul(b.matrix("A"), b.matrix("B")))
    assert evaluate_closed(glued, b) == want


def test_compose_rejects_arity_mismatch():
    with pytest.raises(CompositionError):
        compose(builders.identity_strands(2, 2), builders.identity_strands(2, 1))


def test_compose_rejects_opposed_marked_wires():
    bottom = tensor(builders.matrix_strand(2, ("A",)), builders.matrix_strand(2, ("B",)))
    with pytest.raises(CompositionError):
        compose(cap(2), bottom)


def test_tensor_is_kronecker():
    b = binding()
    t = tensor(builders.matrix_strand(2, ("A",)), builders.matrix_strand(2, ("B",)))
    got = function_matrix(t, b)
    assert got.entries == mx.kron(b.matrix("A"), b.matrix("B"))


def test_tensor_with_empty_is_identity():
    b = binding()
    empty = TraceDiagram(2, (), (), inputs=(), outputs=())
    d = builders.matrix_strand(2, ("A",))
    assert function_matrix(tensor(d, empty), b).entries == b.matrix("A")
    assert function_matrix(tensor(empty, d), b).entries == b.matrix("A")


def test_tensor_of_loops_multiplies_values():
    from tracediagrams import evaluate_closed

    b = binding()
    t = tensor(builders.trace_loop(2, ("A",)), builders.trace_loop(2, ("B",)))
    assert evaluate_closed(t, b) == mx.mtrace(b.matrix("A")) * mx.mtrace(b.matrix("B"))


def test_reframe_identity_partition():
    d = builders.identity_strands(2, 2)
    assert reframe(d, d.inputs, d.outputs) == d


def test_reframe_rejects_bad_partition():
    d = builders.identity_strands(2, 2)
    with pytest.raises(FramingError):
        reframe(d, ("in1",), ("out1", "out2"))


def test_reframe_preserves_weights_exhaustively():
    # all partitions, all total leaf colorings, marked and unmarked diagrams
    b = MatrixBinding(3, {"A": [[1, 2, 0], [0, 1, 1], [5, 0, 2]], "B": [[2, 1, 1], [1, 0, 3], [0, 0, 1]]})
    cases = [
        builders.two_node_antisym(3, 2),
        tensor(builders.matrix_strand(3, ("A",)), builders.matrix_strand(3, ("B",))),
    ]
    for d in cases:
        leaves = list(d.inputs) + list(d.outputs)
        for mask in range(2 ** len(leaves)):
            ins = [leaves[p] for p in range(len(leaves)) if mask >> p & 1]
            outs = [leaves[p] for p in range(len(leaves)) if not mask >> p & 1]
            rd = reframe(d, ins, outs)
            for combo in product(range(1, 4), repeat=len(leaves)):
                gamma = dict(zip(leaves, combo))
                assert weight(d, gamma, b) == weight(rd, gamma, b)


def test_formal_sum_cancels_itself():
    s = FormalSum.single(builders.matrix_strand(2, ("A",)))
    z = s + (-1) * s
    assert sum_function_matrix(z, binding()).is_zero()


def _dense_sum(s, b):
    """The formal sum's function matrix, added term by term over dense grids."""
    total = None
    for c, d in s.terms:
        grid = mx.mscale(c, function_matrix(d, b).entries)
        total = grid if total is None else mx.madd(total, grid)
    return total


def _dense_worst(grid, n, output_arity, input_arity):
    """Residual and witness of a row-major scan; on ties the last cell wins."""
    worst, witness = Fraction(0), None
    for r, row in enumerate(grid):
        for c, x in enumerate(row):
            if x != 0 and abs(x.numerator) >= abs(worst.numerator):
                worst = x
                witness = (
                    index_tensor(r, n, output_arity),
                    index_tensor(c, n, input_arity),
                )
    return worst, witness


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from((3, 2, 1)),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_sparse_sum_matches_dense_sum(n, n_in, n_out, terms, seed):
    assume(not (n % 2 == 0 and (n_in + n_out) % 2))
    rng = Random(seed)
    # each label over its own denominator, so the terms' denominators differ
    dens = {lab: rng.randint(1, 7) for lab in "AB"}
    b = MatrixBinding(
        n,
        {
            lab: [[Fraction(rng.randint(-2, 2), den) for _ in range(n)] for _ in range(n)]
            for lab, den in dens.items()
        },
    )
    s = FormalSum.of(
        *(
            (
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                random_diagram(rng, n, n_in, n_out),
            )
            for _ in range(terms)
        )
    )
    fm = sum_function_matrix(s, b)
    want = _dense_sum(s, b)
    assert fm.entries == want
    assert all(fm.cells.values())
    check = is_relation(s, b)
    assert (check.residual, check.witness) == _dense_worst(want, n, n_out, n_in)

    zero = sum_function_matrix(s + (-1) * s, b)
    assert zero.is_zero() and zero.cells == {}
    assert zero.entries == mx.freeze_matrix([[0] * n**n_in for _ in range(n**n_out)])


def test_relation_witness_breaks_ties_like_the_dense_scan():
    # 2 * (identity - crossing): every pair of distinct labels gives a +2 and
    # a -2 entry; the last of them in row-major order is the witness
    n = 3
    s = FormalSum.of(
        (2, builders.permutation_diagram(n, (1, 2))),
        (-2, builders.permutation_diagram(n, (2, 1))),
    )
    grid = _dense_sum(s, None)
    worst, witness = _dense_worst(grid, n, 2, 2)
    assert sum(1 for row in grid for x in row if abs(x) == 2) > 2
    check = is_relation(s)
    assert (check.residual, check.witness) == (worst, witness) == (2, ((3, 2), (3, 2)))


def test_exchange_relation_is_zero_function():
    check = is_relation(builders.binor_relation())
    assert check.holds and check.residual == 0 and check.witness is None


def test_single_nonzero_term_is_not_a_relation():
    check = is_relation(FormalSum.single(builders.matrix_strand(2, ("A",))), binding())
    assert not check.holds
    assert check.residual != 0
    assert check.witness is not None


def test_all_bases_mode_agrees():
    check = is_relation(builders.binor_relation(), mode="all-bases")
    assert check.holds
    with pytest.raises(ValueError):
        is_relation(builders.binor_relation(), mode="sometimes")


def test_all_bases_mode_reports_disagreeing_routes(monkeypatch):
    monkeypatch.setattr(algebra, "weight", lambda *args: Fraction(1))
    with pytest.raises(TraceDiagramError, match="routes disagree"):
        is_relation(builders.binor_relation(), mode="all-bases")


def test_empty_sum_has_no_value():
    with pytest.raises(FramingError):
        sum_closed_value(FormalSum(()))
    with pytest.raises(FramingError):
        sum_function_matrix(FormalSum(()))


def test_vector_contraction_relation():
    # the closed four-vector diagram minus its two dot-product expansions
    rng = Random("uvwx")
    vecs = {k: [Fraction(rng.randint(-5, 5)) for _ in range(3)] for k in "uvwx"}
    b = MatrixBinding(3, vectors=vecs)
    lhs = builders.cross_dot_closed("u", "v", "w", "x")
    uw_vx = tensor(builders.dot_product_diagram("u", "w"), builders.dot_product_diagram("v", "x"))
    ux_vw = tensor(builders.dot_product_diagram("u", "x"), builders.dot_product_diagram("v", "w"))
    rel = FormalSum.of((1, lhs), (-1, uw_vx), (1, ux_vw))
    assert is_relation(rel, b).holds


def test_antisymmetrizer_idempotent_up_to_factorial():
    from math import factorial

    for n in (2, 3):
        for k in (1, 2, 3):
            s = builders.antisymmetrizer(n, k)
            squared = compose_sums(s, s)
            lhs = sum_function_matrix(squared)
            rhs = Fraction(factorial(k)) * sum_function_matrix(s)
            assert lhs.entries == rhs.entries


def test_antisymmetrizer_action():
    s = builders.antisymmetrizer(2, 2)
    fm = sum_function_matrix(s)
    col = fm.column((1, 2))
    from tracediagrams.engine import index_tensor

    nonzero = {index_tensor(r, 2, 2): v for r, v in enumerate(col) if v}
    assert nonzero == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def test_compose_functoriality_random_pairs():
    for trial in range(5):
        rng = trial_rng("alg", trial)
        n = rng.choice((2, 3))
        b = MatrixBinding(
            n,
            {
                "A": [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                "B": [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
            },
        )
        glue = rng.randint(0, 2)
        extra = glue % 2 if n % 2 == 0 else rng.randint(0, 2)
        bottom = random_diagram(rng, n, extra, glue)
        top = random_diagram(rng, n, glue, extra)
        got = function_matrix(compose(top, bottom), b)
        want = mx.matmul(function_matrix(top, b).entries, function_matrix(bottom, b).entries)
        assert got.entries == want


def test_reframe_positions_all_partitions_of_exchange_relation():
    rel = builders.binor_relation()
    for mask in range(16):
        ins = tuple(p for p in range(4) if mask >> p & 1)
        outs = tuple(p for p in range(4) if not mask >> p & 1)
        assert is_relation(reframe_positions(rel, ins, outs)).holds


# -- term-by-term evaluation of formal sums ---------------------------------------


def _term_by_term(s, b):
    return _sum_cells((c, function_matrix(d, b)) for c, d in s.terms)


def _vector_strand(label):
    return TraceDiagram(
        2,
        (leaf("l", label), leaf("o")),
        (Edge("s", "l", "o", ("A",)),),
        inputs=(),
        outputs=("o",),
    )


_AB_PAIR = TraceDiagram(
    2,
    tuple(leaf(v) for v in ("i1", "i2", "o1", "o2")),
    (Edge("s1", "i1", "o1", ("A",)), Edge("s2", "i2", "o2", ("B",))),
    inputs=("i1", "i2"),
    outputs=("o1", "o2"),
)


@pytest.mark.parametrize(
    "first, second",
    [
        (builders.trace_loop(2, "ABB"), builders.trace_loop(2, "BBA")),
        (builders.trace_loop(2, "AAB"), builders.trace_loop(2, "ABA")),
    ],
)
def test_rotated_loop_words_merge(first, second):
    b = binding()
    s = FormalSum.of((2, first), (-1, second))
    assert sum_closed_value(s, b) == evaluate_closed(first, b)


@pytest.mark.parametrize(
    "first, second",
    [
        # a reversed loop word that is not a rotation: tr(ABC) != tr(CBA)
        (builders.trace_loop(2, "ABC"), builders.trace_loop(2, "CBA")),
        (_AB_PAIR, reframe(_AB_PAIR, ("i2", "i1"), ("o1", "o2"))),
        (builders.matrix_strand(2, "AB"), builders.matrix_strand(2, "BA")),
        # the same word read the other way along the strand: A against A^T
        (
            builders.matrix_strand(2, "A"),
            replace(builders.matrix_strand(2, "A"), edges=(Edge("s1", "out1", "in1", ("A",)),)),
        ),
        (_vector_strand("u"), _vector_strand("v")),
    ],
    ids=["reversed-loop", "swapped-inputs", "reversed-word", "reversed-strand", "vector-labels"],
)
def test_different_functions_do_not_merge(first, second):
    b = MatrixBinding(
        2,
        {"A": [[1, 2], [3, 4]], "B": [[0, 1], [2, 1]], "C": [[2, 0], [1, 3]]},
        {"u": [1, 2], "v": [3, -1]},
    )
    s = FormalSum.of((1, first), (-1, second))
    fm = sum_function_matrix(s, b)
    assert fm == _term_by_term(s, b) and not fm.is_zero()


def test_cancelling_class_still_needs_its_labels():
    strand = builders.matrix_strand(2, "AC")
    loop = builders.trace_loop(2, "C")
    for s, evaluate in (
        (FormalSum.of((1, strand), (-1, strand)), sum_function_matrix),
        (FormalSum.of((1, loop), (-1, loop)), sum_closed_value),
        (builders.ch_classes(2, "C", 2), sum_function_matrix),
        (builders.loop_classes(2, "C", 2), sum_closed_value),
    ):
        for b in (binding(), None):
            with pytest.raises(UnboundLabelError):
                evaluate(s, b)


def test_malformed_term_still_raises():
    # the second strand has an end attached to nothing
    bad = TraceDiagram(
        2, (leaf("i"), leaf("o")), (Edge("s", "i", None, ("A",)),), inputs=("i",), outputs=("o",)
    )
    s = FormalSum.of((1, builders.matrix_strand(2, "A")), (1, bad), (-1, bad))
    with pytest.raises(DiagramStructureError):
        sum_function_matrix(s, binding())


@pytest.mark.parametrize(
    "labels, dim, terms",
    [("A, A, A, A", 4, 12), ("A, B, C", 3, 24), ("A, A, B", 3, 24)],
    ids=["AAAA-4", "ABC-3", "AAB-3"],
)
def test_ch_builtin_sums_equal_labels_by_class(monkeypatch, labels, dim, terms):
    calls = []
    evaluate = algebra.function_matrix
    monkeypatch.setattr(algebra, "function_matrix", lambda d, b: calls.append(d) or evaluate(d, b))
    (s,) = parse_diagram_set(f"diagram s = builtin:ch({labels}) @ dim {dim}").values()
    rng = Random(labels)
    b = MatrixBinding(
        dim,
        {lab: [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
               for _ in range(dim)] for lab in "ABC"},
    )
    assert len(s.terms) == terms
    assert sum_function_matrix(s, b).is_zero()
    assert len(calls) == terms


def test_each_term_is_validated_once(monkeypatch):
    # a builder's permutation sum is valid by construction and is never
    # validated; a sum of diagrams from the DSL validates each term once
    calls = []
    validate = diagram_module.validate
    monkeypatch.setattr(diagram_module, "validate", lambda d: calls.append(d) or validate(d))
    s = builders.antisymmetrizer(2, 3)
    for _ in range(2):
        assert sum_function_matrix(s).is_zero()
    assert calls == []
    rel = parse_relation(
        "\n".join(
            f"{perms.sign(p)} * builtin:perm({', '.join(map(str, p))}) @ dim 2"
            for p in permutations((1, 2, 3))
        )
    )
    for _ in range(2):
        assert sum_function_matrix(rel).is_zero()
    assert len(calls) == len(rel.terms) == 6
