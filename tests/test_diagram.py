"""Core model: validation, vertex permutations, isomorphism, bindings."""

import pytest

from tracediagrams import (
    Coloring,
    DimensionMismatchError,
    Edge,
    EndRef,
    FormalSum,
    HEAD,
    InadmissibleColoringError,
    MatrixBinding,
    TraceDiagram,
    UnboundLabelError,
    internal,
    leaf,
    validate,
    vertex_permutation,
)
from tracediagrams import builders, enumerate_colorings, signature
from tracediagrams import matrices as mx


def identity_strand(n=2):
    return builders.identity_strands(n, 1)


def test_validate_identity_strand_ok():
    assert validate(identity_strand()).ok


def test_validate_is_pure():
    d = identity_strand()
    again = TraceDiagram(d.n, d.vertices, d.edges, d.inputs, d.outputs)
    assert validate(d) == validate(d) == validate(again)


def test_validate_wrong_internal_degree():
    d = TraceDiagram(
        3,
        (leaf("a"), leaf("b"), internal("v", (EndRef("e1", HEAD), EndRef("e2", HEAD)))),
        (Edge("e1", "a", "v"), Edge("e2", "b", "v")),
    )
    assert any("degree 2 != n = 3" in v for v in validate(d).violations)


def test_validate_framing_partition():
    d = builders.identity_strands(2, 2)
    broken = TraceDiagram(d.n, d.vertices, d.edges, inputs=("in1", "in2"), outputs=())
    assert any("partition" in v for v in validate(broken).violations)


def test_validate_ciliation_must_cover_incidents():
    d = TraceDiagram(
        2,
        (leaf("a"), leaf("b"), internal("v", (EndRef("e1", HEAD), EndRef("e1", HEAD)))),
        (Edge("e1", "a", "v"), Edge("e2", "b", "v")),
    )
    assert any("ciliation" in v for v in validate(d).violations)


def test_validate_dangling_edge_endpoint():
    d = TraceDiagram(2, (leaf("a"),), (Edge("e1", "a", "ghost"),))
    assert any("unknown vertex" in v for v in validate(d).violations)


def test_vertex_permutation_four_edges():
    # degree-4 vertex, all edges inbound, labels 2,4,1,3 in ciliated order
    ends = tuple(EndRef(f"e{i}", HEAD) for i in (1, 2, 3, 4))
    d = TraceDiagram(
        4,
        tuple(leaf(f"l{i}") for i in (1, 2, 3, 4)) + (internal("v", ends),),
        tuple(Edge(f"e{i}", f"l{i}", "v") for i in (1, 2, 3, 4)),
    )
    col = Coloring.from_dict(
        {"e1": (2, 2), "e2": (4, 4), "e3": (1, 1), "e4": (3, 3)}
    )
    assert vertex_permutation(d, col, "v") == (2, 4, 1, 3)
    ident = Coloring.from_dict({f"e{i}": (i, i) for i in (1, 2, 3, 4)})
    assert vertex_permutation(d, ident, "v") == (1, 2, 3, 4)
    bad = Coloring.from_dict({"e1": (2, 2), "e2": (2, 2), "e3": (1, 1), "e4": (3, 3)})
    with pytest.raises(InadmissibleColoringError):
        vertex_permutation(d, bad, "v")


def test_vertex_permutations_of_exchange_diagram():
    d = builders.two_node_antisym(3, 2)
    cols = list(enumerate_colorings(d, {"in1": 1, "in2": 2}))
    assert len(cols) == 2
    first, second = cols
    assert vertex_permutation(d, first, "vb") == (1, 2, 3)
    assert vertex_permutation(d, first, "vt") == (3, 2, 1)
    assert signature(d, first) == -1
    assert vertex_permutation(d, second, "vt") == (3, 1, 2)
    assert signature(d, second) == 1


def test_vertex_permutation_is_bijection_on_all_colorings():
    for n, k in ((2, 1), (3, 2), (3, 1)):
        d = builders.two_node_antisym(n, k)
        for col in enumerate_colorings(d):
            for vid in ("vb", "vt"):
                images = vertex_permutation(d, col, vid)
                assert sorted(images) == list(range(1, n + 1))


def _rotate_ciliation(d: TraceDiagram, vid: str) -> TraceDiagram:
    verts = []
    for v in d.vertices:
        if v.id == vid:
            cil = v.ciliation[1:] + v.ciliation[:1]
            verts.append(internal(vid, cil))
        else:
            verts.append(v)
    return TraceDiagram(d.n, tuple(verts), d.edges, d.inputs, d.outputs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rotating_ciliation_scales_signature(n):
    # moving the cilium by one slot multiplies every signature by (-1)^(n-1)
    d = builders.two_node_antisym(n, 0)
    rotated = _rotate_ciliation(d, "vt")
    flip = (-1) ** (n - 1)
    for col in enumerate_colorings(d):
        assert signature(rotated, col) == flip * signature(d, col)


def test_formal_sum_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        FormalSum.of((1, identity_strand(2)), (1, identity_strand(3)))


def test_formal_sum_rejects_mixed_arities():
    with pytest.raises(DimensionMismatchError):
        FormalSum.of(
            (1, builders.identity_strands(2, 1)), (1, builders.identity_strands(2, 2))
        )


def test_binding_validates_shapes():
    with pytest.raises(DimensionMismatchError):
        MatrixBinding(2, {"A": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]})
    with pytest.raises(DimensionMismatchError):
        MatrixBinding(2, vectors={"u": [1, 2, 3]})
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]]})
    with pytest.raises(UnboundLabelError) as err:
        b.matrix("Z")
    assert err.value.label == "Z"


def test_binding_edge_matrix_is_word_product():
    b = MatrixBinding(2, {"A": [[1, 1], [1, 1]], "B": [[2, 0], [0, 2]]})
    assert b.edge_matrix(("A", "B"))[0][0] == 2
    assert b.edge_matrix(("B", "A"))[0][0] == 2
    word = ("A", "B", "A")
    product = b.edge_matrix(word)
    assert b.edge_matrix(word) is product
    assert product == mx.word_product([b.matrix(lab) for lab in word])
