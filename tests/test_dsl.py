"""Text formats: parsing, serialization, round-trips, error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracediagrams import (
    DimensionMismatchError,
    DslSyntaxError,
    FormalSum,
    MatrixBinding,
    TraceDiagramError,
    builders,
    evaluate_closed,
    function_matrix,
    is_relation,
)
from tracediagrams.algebra import compose
from tracediagrams.dsl import (
    parse_diagram,
    parse_diagram_set,
    parse_matrix_file,
    parse_relation,
    parse_relation_file,
    serialize_diagram,
)


def test_parse_marked_loop_with_semicolons():
    d = parse_diagram("dim 2; edge e1 loop mark A")
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]]})
    assert evaluate_closed(d, b) == 5


def test_loop_statement_spelling_variants():
    a = parse_diagram("dim 2\nloop e1 mark A B")
    b = parse_diagram("dim 2\nedge e1 loop mark A B")
    assert a == b


def test_parse_trivalent_vector_node():
    text = """
    # cross product node
    dim 3
    vertex lu leaf vec u
    vertex lv leaf vec v
    vertex out1 leaf
    vertex x internal cil(eo.t, eu.h, ev.h)
    edge eo x out1
    edge eu lu x
    edge ev lv x
    inputs
    outputs eo@out1
    """
    d = parse_diagram(text)
    b = MatrixBinding(3, vectors={"u": [2, 0, 0], "v": [0, 3, 0]})
    got = function_matrix(d, b)
    want = function_matrix(builders.cross_product_diagram("u", "v"), b)
    assert got.entries == want.entries


def test_builtin_reference_line():
    entities = parse_diagram_set("diagram d = builtin:det(A) @ dim 3")
    b = MatrixBinding(3, {"A": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    assert evaluate_closed(entities["d"], b) == -36


def test_builtin_requires_dimension():
    with pytest.raises(DslSyntaxError):
        parse_diagram_set("diagram d = builtin:det(A)")


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_diagram_set, "diagram d = builtin:id(x) @ dim 2"),
        (parse_diagram_set, "dim \u00b2\nloop e1"),
        (parse_relation, "dim x\n1 * builtin:id(1)\n"),
        (parse_matrix_file, "vector u \u00b2\n1\n"),
        (parse_relation, "1/0 * builtin:id(1) @ dim 2"),
    ],
    ids=[
        "builtin-arg",
        "tdg-dim-superscript",
        "trel-dim",
        "tmat-superscript",
        "trel-zero-denominator",
    ],
)
def test_malformed_numbers_are_syntax_errors(parse, text):
    with pytest.raises(DslSyntaxError):
        parse(text)


@pytest.mark.parametrize(
    "text",
    ["dim 2\nloop", "dim 2\nvertex v leaf\nedge e w x\ninputs e"],
    ids=["loop-without-id", "framing-edge-to-unknown-vertices"],
)
def test_malformed_statements_are_syntax_errors(text):
    with pytest.raises(DslSyntaxError):
        parse_diagram_set(text)


def test_round_trip_is_bit_exact():
    cases = [
        builders.determinant_diagram(3, "A"),
        builders.two_node_antisym(3, 2),
        builders.pfaffian_diagram(4, "A"),
        builders.cross_product_diagram("u", "v"),
        builders.matrix_strand(2, ("A", "B")),
        compose(builders.matrix_strand(2, ("A",)), builders.matrix_strand(2, ("B",))),
    ]
    for d in cases:
        text = serialize_diagram(d)
        assert serialize_diagram(parse_diagram(text)) == text


def test_multiple_named_diagrams():
    text = """
    diagram first
    dim 2
    loop e1 mark A
    diagram second
    dim 2
    loop e1
    """
    entities = parse_diagram_set(text)
    assert set(entities) == {"first", "second"}
    assert evaluate_closed(entities["second"]) == 2


def test_duplicate_diagram_names_rejected():
    with pytest.raises(DslSyntaxError):
        parse_diagram_set("diagram a\ndim 2\nloop e1\ndiagram a\ndim 2\nloop e1")
    # reported at the second header of the repeated name, not at the last block
    text = "\n".join(f"diagram {name} = builtin:id(1) @ dim 2" for name in "xxy")
    with pytest.raises(DslSyntaxError) as info:
        parse_diagram_set(text)
    assert info.value.line == 2
    assert str(info.value) == "line 2: duplicate diagram name 'x'"


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(DslSyntaxError) as err:
        parse_diagram("dim 2\nwobble e1")
    assert err.value.line == 2
    with pytest.raises(DslSyntaxError) as err:
        parse_diagram("dim 2\nvertex v internal nocil")
    assert err.value.line == 2


def test_self_loop_needs_end_disambiguation():
    text = """
    dim 2
    vertex x internal cil(a1, a1)
    edge a1 x x mark A
    """
    with pytest.raises(DslSyntaxError) as err:
        parse_diagram(text)
    assert "both ends" in str(err.value)


def test_framing_by_edge_resolves_unique_leaf():
    text = """
    dim 2
    vertex l1 leaf
    vertex l2 leaf
    edge e1 l1 l2
    inputs e1@l1
    outputs e1@l2
    """
    d = parse_diagram(text)
    assert d.inputs == ("l1",) and d.outputs == ("l2",)
    ambiguous = text.replace("inputs e1@l1", "inputs e1")
    with pytest.raises(DslSyntaxError):
        parse_diagram(ambiguous)


def test_matrix_file_rational_entries():
    binding = parse_matrix_file(
        "matrix A 2 2\n1 2\n3 4\nvector u 2\n1/3 -2\n"
    )
    assert binding.matrix("A")[1][0] == 3
    assert binding.vector("u") == (Fraction(1, 3), Fraction(-2))


@pytest.mark.parametrize(
    "token, want",
    [
        ("1.5", Fraction(3, 2)),
        ("1e3", Fraction(1000)),
        ("1_000", None),  # accepted from Python 3.11 on, as Fraction accepts it
        ("+3", Fraction(3)),
        ("-3/4", Fraction(-3, 4)),
        ("-12/08", Fraction(-3, 2)),
        ("3/0", "line 2: bad rational '3/0': Fraction(3, 0)"),
        ("3/-4", "line 2: bad rational '3/-4': Invalid literal for Fraction: '3/-4'"),
        ("x", "line 2: bad rational 'x': Invalid literal for Fraction: 'x'"),
    ],
)
def test_matrix_file_reads_what_fraction_reads(token, want):
    # plain integers and p/q take a faster route than Fraction(str); the
    # accepted tokens, their values and the error texts stay Fraction's
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        expected = f"line 2: bad rational {token!r}: {exc}"
    assert want is None or want == expected
    try:
        got = parse_matrix_file(f"vector u 1\n{token}\n").vector("u")[0]
    except DslSyntaxError as exc:
        got = str(exc)
    assert got == expected and type(got) is type(expected)


def test_matrix_file_shape_errors():
    with pytest.raises(DslSyntaxError):
        parse_matrix_file("matrix A 2 3\n1 2 3\n4 5 6\n")
    with pytest.raises(DslSyntaxError):
        parse_matrix_file("matrix A 2 2\n1 2\n")
    with pytest.raises(DslSyntaxError):
        parse_matrix_file("matrix A 2 2\n1 2\n3 4\nvector u 3\n1 2 3\n")
    with pytest.raises(DslSyntaxError):
        parse_matrix_file("matrix A 2 2\n1 x\n3 4\n")


@pytest.mark.parametrize(
    "text, err",
    [
        ("matrix A 0 0\nmatrix B 1 1\n2\n", "line 1: matrix 'A' is empty"),
        ("vector u 0\n", "line 1: vector 'u' is empty"),
        ("matrix A 1 1\n2\nvector u 0\n", "line 3: vector 'u' is empty"),
    ],
)
def test_matrix_file_refuses_empty_blocks_at_their_header(text, err):
    with pytest.raises(DslSyntaxError) as info:
        parse_matrix_file(text)
    assert str(info.value) == err


@pytest.mark.parametrize(
    "text, err",
    [
        ("matrix A 2 2\n1 2\n3 4\nmatrix A 2 2\n5 6\n7 8\n", "line 4: duplicate matrix 'A'"),
        ("vector u 2\n1 2\nmatrix A 2 2\n1 0\n0 1\nvector u 2\n3 4\n",
         "line 6: duplicate vector 'u'"),
    ],
    ids=["matrix", "vector"],
)
def test_matrix_file_refuses_a_repeated_block_at_its_second_header(text, err):
    with pytest.raises(DslSyntaxError) as info:
        parse_matrix_file(text)
    assert str(info.value) == err


def test_matrix_and_vector_may_share_a_name():
    binding = parse_matrix_file("matrix A 2 2\n1 2\n3 4\nvector A 2\n5 6\n")
    assert binding.matrix("A") == ((1, 2), (3, 4))
    assert binding.vector("A") == (5, 6)


def test_binding_dimension_mismatch_surfaces_at_evaluation():
    d = parse_diagram("dim 3; loop e1 mark A")
    binding = parse_matrix_file("matrix A 2 2\n1 2\n3 4\n")
    with pytest.raises(DimensionMismatchError):
        evaluate_closed(d, binding)


def test_parse_relation_with_builtins():
    rel = parse_relation(
        "dim 3\n1 * builtin:twonode(2)\n-1 * builtin:perm(2,1)\n1 * builtin:id(2)\n"
    )
    assert is_relation(rel).holds


def test_parse_relation_with_named_diagrams():
    text = """
    dim 2
    diagram straight
    dim 2
    vertex l1 leaf
    vertex l2 leaf
    edge e1 l1 l2
    inputs e1@l1
    outputs e1@l2
    1 * straight
    -1 * builtin:id(1) @ dim 2
    """
    rel = parse_relation(text)
    assert is_relation(rel).holds


def test_parse_relation_unknown_name():
    with pytest.raises(DslSyntaxError):
        parse_relation("1 * mystery\n")


def test_parse_relation_scales_formal_sums():
    rel = parse_relation("dim 2\n1/2 * builtin:antisym(2)\n")
    assert isinstance(rel, FormalSum)
    assert {c for c, _ in rel.terms} == {Fraction(1, 2), Fraction(-1, 2)}


def test_relation_file_with_import(tmp_path):
    (tmp_path / "defs.tdg").write_text(
        "diagram straight\ndim 2\nvertex l1 leaf\nvertex l2 leaf\n"
        "edge e1 l1 l2\ninputs e1@l1\noutputs e1@l2\n",
        encoding="utf-8",
    )
    (tmp_path / "rel.trel").write_text(
        "use defs.tdg\n1 * straight\n-1 * builtin:id(1) @ dim 2\n",
        encoding="utf-8",
    )
    rel = parse_relation_file(tmp_path / "rel.trel")
    assert is_relation(rel).holds


@pytest.mark.parametrize(
    "files, name",
    [
        ({}, "missing.trel"),
        ({"rel.trel": b"use missing.tdg\n1 * builtin:id(1) @ dim 2\n"}, "rel.trel"),
        ({"rel.trel": b"\xff\xfe1 * builtin:id(1) @ dim 2\n"}, "rel.trel"),
    ],
    ids=["missing-relation-file", "missing-use-target", "not-utf8"],
)
def test_unreadable_relation_files_raise_typed_errors(tmp_path, files, name):
    for file, data in files.items():
        (tmp_path / file).write_bytes(data)
    with pytest.raises(TraceDiagramError, match="cannot read"):
        parse_relation_file(tmp_path / name)


# Statements and tokens of all three formats, so generated documents get past
# the first line; numbers stay small so that no builtin builds a large diagram.
_TOKENS = [
    "dim 2", "vertex v leaf", "vertex w internal cil(e, f)", "edge e v w",
    "edge f w v mark A", "loop g", "inputs e", "outputs e@v", "matrix A 2 2",
    "vector u 2", "1 2", "1/2 * d", "diagram d", "diagram d = builtin:det(A) @ dim 2",
    "diagram", "d", "=", "builtin:antisym(2)", "builtin:perm(2,1)", "builtin:nope()",
    "@", "dim", "0", "1", "2", "3", "-1/2", "1/0", "x", "vertex", "v", "w", "leaf",
    "vec", "u", "internal", "cil(e)", "cil(e.h, e.t)", "cil(", "edge", "e", "f",
    "loop", "mark", "A", "inputs", "outputs", "e@", "matrix", "vector", "use", "*",
    ";", "#", "\u00b2", "\u0663",
]
_DOCUMENTS = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4).map(" ".join),
        max_size=8,
    ).map("\n".join),
)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_DOCUMENTS)
def test_parsers_raise_only_typed_errors(text):
    for parse in (parse_diagram_set, parse_matrix_file, parse_relation):
        try:
            parse(text)
        except TraceDiagramError:
            pass
