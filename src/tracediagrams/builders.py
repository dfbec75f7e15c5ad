"""Constructors for the named diagrams, parameterized by dimension.

Ciliation conventions are pinned here once and guarded by tests:

* Two-vertex builders enumerate the shared edges in mirrored order (the top
  vertex reverses the bottom vertex's order). Under this convention the closed
  all-marked pair evaluates to ``(-1)^floor(n/2) * n! * det(A)`` and the
  two-vertex expansion of the antisymmetrizer carries the constant
  ``(-1)^floor(n/2) / (n-k)!``.
* Strand wires run upward: input legs have their tail at the leaf, output legs
  their head, so composed markings always chain head to tail.
* Loop-closure builders close strand ``j`` through an arc marked by the j-th
  label; walking a closure cycle collects labels in travel order and stores
  the word reversed, which is the head-to-tail reading.

The antisymmetrizer, :func:`ch_diagram`, :func:`antisym_closed_loops` and
:func:`fricke_sum` are one signed sum over S_k, :func:`_signed_sum`, of their
summands, each a strand form (``diagram._Strands``) that :func:`_permutation`
wires or one cycle walk in :func:`_closure` closes, never a validated diagram.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from . import perms
from .diagram import (
    HEAD,
    TAIL,
    Edge,
    EndRef,
    FormalSum,
    TraceDiagram,
    _Strands,
    internal,
    leaf,
)
from .errors import DimensionMismatchError, DiagramStructureError


def _check_strand_count(k: int) -> None:
    if k < 0:
        raise DiagramStructureError(f"strand count must be >= 0, got {k}")


def identity_strands(n: int, k: int) -> TraceDiagram:
    """k disjoint unmarked strands, input i wired straight to output i."""
    _check_strand_count(k)
    return permutation_diagram(n, tuple(range(1, k + 1)))


def _permutation(n: int, images) -> _Strands:
    """Unmarked strands ``s<i>`` from input i to output images[i-1], as a strand form."""
    k = len(images)
    strands = tuple((f"s{i}", (), ("in", i), ("out", j)) for i, j in enumerate(images, 1))
    return _Strands(n, (k, k), strands, ())


def permutation_diagram(n: int, images) -> TraceDiagram:
    """Unmarked strands connecting input i to output images[i-1]."""
    images = tuple(images)
    k = len(images)
    if sorted(images) != list(range(1, k + 1)):
        raise DiagramStructureError(f"{images} is not a permutation of 1..{k}")
    return _permutation(n, images).diagram()


def matrix_strand(n: int, word) -> TraceDiagram:
    """Single strand marked by a word of labels, first label nearest the output."""
    return _Strands(n, (1, 1), (("s1", tuple(word), ("in", 1), ("out", 1)),), ()).diagram()


def trace_loop(n: int, word) -> TraceDiagram:
    """Free loop marked by a word; its closed value is the trace of the product."""
    return _Strands(n, (0, 0), (), (("c1", tuple(word)),)).diagram()


def _signed_sum(k: int, build) -> FormalSum:
    """The sum of ``sign(images) * build(images)`` over the permutations of
    1..k in lexicographic order: the antisymmetrizer on k strands, each
    summand closed as ``build`` closes it."""
    terms = [(Fraction(perms.sign(img)), build(img)) for img in permutations(range(1, k + 1))]
    return FormalSum(tuple(terms))


def antisymmetrizer(n: int, k: int) -> FormalSum:
    """Signed sum over all wire permutations of k strands."""
    _check_strand_count(k)
    return _signed_sum(k, lambda img: _permutation(n, img))


def two_node_pair(n: int, k: int, shared_markings) -> TraceDiagram:
    """Two internal vertices joined by n-k marked strands, with k legs each.

    Bottom ciliation: legs left to right, then shared edges; top ciliation:
    shared edges reversed, then legs right to left (the mirrored convention).
    """
    shared_markings = tuple(tuple(w) for w in shared_markings)
    if not 0 <= k <= n or len(shared_markings) != n - k:
        raise DiagramStructureError("need one marking word per shared edge")
    vertices = []
    edges = []
    vb_cil = []
    for i in range(1, k + 1):
        vertices.append(leaf(f"in{i}"))
        vertices.append(leaf(f"out{i}"))
        edges.append(Edge(f"l{i}", tail=f"in{i}", head="vb"))
        edges.append(Edge(f"o{i}", tail="vt", head=f"out{i}"))
        vb_cil.append(EndRef(f"l{i}", HEAD))
    for j in range(1, n - k + 1):
        edges.append(Edge(f"s{j}", tail="vb", head="vt", marking=shared_markings[j - 1]))
        vb_cil.append(EndRef(f"s{j}", TAIL))
    vt_cil = [EndRef(f"s{j}", HEAD) for j in range(n - k, 0, -1)]
    vt_cil += [EndRef(f"o{i}", TAIL) for i in range(k, 0, -1)]
    vertices.append(internal("vb", vb_cil))
    vertices.append(internal("vt", vt_cil))
    return TraceDiagram(
        n,
        tuple(vertices),
        tuple(edges),
        inputs=tuple(f"in{i}" for i in range(1, k + 1)),
        outputs=tuple(f"out{i}" for i in range(1, k + 1)),
    )


def determinant_diagram(n: int, label: str) -> TraceDiagram:
    """Closed pair of n-vertices joined by n strands all marked by ``label``.

    Evaluates to ``(-1)^floor(n/2) * n! * det`` of the bound matrix.
    """
    return two_node_pair(n, 0, ((label,),) * n)


def det_sum_term(n: int, i: int, a_label: str, b_label: str) -> TraceDiagram:
    """Closed two-vertex diagram with n-i strands marked a and i marked b."""
    if not 0 <= i <= n:
        raise DiagramStructureError(f"strand split {i} out of range 0..{n}")
    return two_node_pair(n, 0, ((a_label,),) * (n - i) + ((b_label,),) * i)


def char_coeff_diagram(n: int, i: int, label: str) -> TraceDiagram:
    """Closed two-vertex diagram with n-i marked strands and i unmarked ones.

    Scaled by ``(-1)^(i+floor(n/2)) / (i! (n-i)!)`` it gives the coefficient
    of x^i in ``det(A - x*I)``.
    """
    if not 0 <= i <= n:
        raise DiagramStructureError(f"strand split {i} out of range 0..{n}")
    return two_node_pair(n, 0, ((label,),) * (n - i) + ((),) * i)


def two_node_antisym(n: int, k: int) -> TraceDiagram:
    """Two n-vertices sharing n-k unmarked edges, with k through strands.

    Its function equals ``(-1)^floor(n/2) * (n-k)!`` times the antisymmetrizer
    on k strands.
    """
    return two_node_pair(n, k, ((),) * (n - k))


def _closure(n: int, images, closure_labels, open_strand=None, open_top_mark=None) -> _Strands:
    """:func:`closure_diagram` as a strand form: each cycle of ``images`` is
    walked once, the open strand's first, so its edge ``s1`` is the one
    strand, then the loops ``c1, c2, ...`` in order of their smallest point."""
    first = () if open_strand is None else (open_strand,)
    visited: set[int] = set()
    strands: tuple = ()
    loops = []
    for start in (*first, *range(1, len(images) + 1)):
        if start in visited:
            continue
        cycle = [start]
        while (nxt := images[cycle[-1] - 1]) != start:
            cycle.append(nxt)
        visited.update(cycle)
        # the arcs met after leaving start, read head to tail
        word = tuple(closure_labels[j] for j in reversed(cycle[1:]))
        if start == open_strand:
            if open_top_mark is not None:
                word = (open_top_mark, *word)
            strands = (("s1", word, ("in", 1), ("out", 1)),)
        else:
            loops.append((f"c{len(loops) + 1}", (closure_labels[start], *word)))
    return _Strands(n, (len(strands), len(strands)), strands, tuple(loops))


def closure_diagram(n: int, images, closure_labels, open_strand=None, open_top_mark=None):
    """One permutation summand with strands closed through marked arcs.

    ``images`` permutes strand positions (input i meets output images[i-1]);
    every strand except ``open_strand`` is closed by an arc marked with its
    entry in ``closure_labels``. The result, the diagram of :func:`_closure`'s
    form, collapses to one open strand (when ``open_strand`` is set) plus one
    free loop per leftover cycle.
    """
    return _closure(n, tuple(images), closure_labels, open_strand, open_top_mark).diagram()


def ch_diagram(n: int, labels) -> FormalSum:
    """Antisymmetrizer on m+1 strands with strand 1 open and the others closed
    through arcs marked by the m labels, as a sum of collapsed summands."""
    labels = tuple(labels)
    m = len(labels)
    closure = {j: labels[j - 2] for j in range(2, m + 2)}
    return _signed_sum(m + 1, lambda img: _closure(n, img, closure, open_strand=1))


def antisym_closed_loops(n: int, labels) -> FormalSum:
    """Fully closed antisymmetrizer: every strand loops through its own mark.

    Each permutation summand collapses to one free loop per cycle; the sum's
    value is a scalar.
    """
    labels = tuple(labels)
    m = len(labels)
    closure = {j: labels[j - 1] for j in range(1, m + 1)}
    return _signed_sum(m, lambda img: _closure(n, img, closure))


def _partitions(k: int, largest: int | None = None):
    """The partitions of k, parts at most ``largest``, as non-increasing tuples."""
    if k == 0:
        yield ()
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def _cycle_images(lengths) -> tuple[int, ...]:
    """Images of a permutation with cycles of these lengths on consecutive points."""
    images: list[int] = []
    for length in lengths:
        start = len(images) + 1
        images += [*range(start + 1, start + length), start]
    return tuple(images)


def _class_coefficient(m: int, lam) -> Fraction:
    """(-1)^(m - len(lam)) m!/z_lam, z_lam = prod_j j^(m_j) m_j! over the parts j:
    the signed count of an m-label closure sum's summands with loop type lam."""
    z = 1
    for j in set(lam):
        z *= j ** lam.count(j) * factorial(lam.count(j))
    return Fraction((-1) ** (m - len(lam)) * factorial(m), z)


def ch_classes(n: int, label: str, m: int) -> FormalSum:
    """:func:`ch_diagram` with m labels all ``label``, one closure diagram per
    class of equal summands: i letters on the open strand and loops of cycle
    type lam of m - i."""
    closure = dict.fromkeys(range(2, m + 2), label)
    terms = [
        (
            _class_coefficient(m, lam),
            _closure(n, _cycle_images((i + 1, *lam)), closure, open_strand=1),
        )
        for i in range(m + 1)
        for lam in _partitions(m - i)
    ]
    return FormalSum(tuple(terms))


def loop_classes(n: int, label: str, m: int) -> FormalSum:
    """:func:`antisym_closed_loops` with m labels all ``label``, one closure
    diagram per cycle type lam of m, as in :func:`ch_classes`."""
    closure = dict.fromkeys(range(1, m + 1), label)
    terms = [
        (_class_coefficient(m, lam), _closure(n, _cycle_images(lam), closure))
        for lam in _partitions(m)
    ]
    return FormalSum(tuple(terms))


def fricke_sum(a_label: str, b_label: str, c_label: str) -> FormalSum:
    """The 2x2 six-summand relation with an open strand marked ``a`` on top and
    loop closures for ``b`` and ``c``."""
    closure = {2: b_label, 3: c_label}
    return _signed_sum(3, lambda img: _closure(2, img, closure, 1, a_label))


def fricke_traced_sum(a_label: str, b_label: str, c_label: str) -> FormalSum:
    """Trace of the open six-summand relation: all three strands closed."""
    return antisym_closed_loops(2, (a_label, b_label, c_label))


def cross_product_diagram(u_label: str, v_label: str) -> TraceDiagram:
    """Trivalent node contracting two bound 3-vectors into one output leg."""
    x_cil = (EndRef("eo", TAIL), EndRef("eu", HEAD), EndRef("ev", HEAD))
    return TraceDiagram(
        3,
        (leaf("lu", u_label), leaf("lv", v_label), leaf("out1"), internal("x", x_cil)),
        (
            Edge("eo", tail="x", head="out1"),
            Edge("eu", tail="lu", head="x"),
            Edge("ev", tail="lv", head="x"),
        ),
        inputs=(),
        outputs=("out1",),
    )


def dot_product_diagram(u_label: str, v_label: str) -> TraceDiagram:
    """Two vector terminals joined by an unmarked edge; value is the dot product."""
    return TraceDiagram(
        3,
        (leaf("lu", u_label), leaf("lv", v_label)),
        (Edge("e1", tail="lu", head="lv"),),
        inputs=(),
        outputs=(),
    )


def cross_dot_closed(
    u_label: str, v_label: str, w_label: str, x_label: str
) -> TraceDiagram:
    """Two trivalent nodes joined by an edge, each contracting two vectors;
    the closed value is (u x v) . (w x x)."""
    c1 = (EndRef("em", TAIL), EndRef("eu", HEAD), EndRef("ev", HEAD))
    c2 = (EndRef("em", HEAD), EndRef("ew", HEAD), EndRef("ex", HEAD))
    return TraceDiagram(
        3,
        (
            leaf("lu", u_label),
            leaf("lv", v_label),
            leaf("lw", w_label),
            leaf("lx", x_label),
            internal("x1", c1),
            internal("x2", c2),
        ),
        (
            Edge("em", tail="x1", head="x2"),
            Edge("eu", tail="lu", head="x1"),
            Edge("ev", tail="lv", head="x1"),
            Edge("ew", tail="lw", head="x2"),
            Edge("ex", tail="lx", head="x2"),
        ),
        inputs=(),
        outputs=(),
    )


def binor_relation() -> FormalSum:
    """Vertex pair minus crossing plus identity; the zero function at n=3."""
    return FormalSum.of(
        (1, two_node_antisym(3, 2)),
        (-1, permutation_diagram(3, (2, 1))),
        (1, identity_strands(3, 2)),
    )


def pfaffian_diagram(n: int, label: str) -> TraceDiagram:
    """Single n-vertex (n even) with its ends paired into nested marked arcs.

    Arc k runs from ciliation slot k to slot n+1-k, so arcs nest without
    crossing; each arc is marked by ``label``.
    """
    if n % 2:
        raise DimensionMismatchError(f"single-vertex pairing needs even n, got {n}")
    m = n // 2
    edges = [Edge(f"a{k}", tail="x", head="x", marking=(label,)) for k in range(1, m + 1)]
    cil = [EndRef(f"a{k}", TAIL) for k in range(1, m + 1)]
    cil += [EndRef(f"a{k}", HEAD) for k in range(m, 0, -1)]
    return TraceDiagram(
        n, (internal("x", cil),), tuple(edges), inputs=(), outputs=()
    )


# ---------------------------------------------------------------------------
# Registry used by the DSL and the CLI


def _ints(args):
    return [int(a) for a in args]


BUILTINS = {
    "id": lambda n, k: identity_strands(n, int(k)),
    "perm": lambda n, *imgs: permutation_diagram(n, _ints(imgs)),
    "strand": lambda n, *labels: matrix_strand(n, labels),
    "trace": lambda n, *labels: trace_loop(n, labels),
    "antisym": lambda n, k: antisymmetrizer(n, int(k)),
    "det": lambda n, label: determinant_diagram(n, label),
    "detsum": lambda n, i, a, b: det_sum_term(n, int(i), a, b),
    "charcoeff": lambda n, i, label: char_coeff_diagram(n, int(i), label),
    "twonode": lambda n, k: two_node_antisym(n, int(k)),
    "ch": lambda n, *labels: _ch_builtin(n, labels),
    "cross": lambda n, u, v: _require_dim(n, 3, cross_product_diagram(u, v)),
    "dot": lambda n, u, v: _require_dim(n, 3, dot_product_diagram(u, v)),
    "crossdot": lambda n, u, v, w, x: _require_dim(n, 3, cross_dot_closed(u, v, w, x)),
    "binor": lambda n: _require_dim(n, 3, binor_relation()),
    "pf": lambda n, label: pfaffian_diagram(n, label),
    "fricke": lambda n, a, b, c: _require_dim(n, 2, fricke_sum(a, b, c)),
    "fricke-traced": lambda n, a, b, c: _require_dim(n, 2, fricke_traced_sum(a, b, c)),
}


def _ch_builtin(n: int, labels):
    # equal labels sum one term per class; any other labels the full expansion
    if len(set(labels)) == 1:
        return ch_classes(n, labels[0], len(labels))
    return ch_diagram(n, labels)


def _require_dim(n, expected, built):
    if n != expected:
        raise DimensionMismatchError(
            f"builder is hard-coded to dimension {expected}, got {n}"
        )
    return built


def build_builtin(name: str, args, n: int):
    """Resolve a builtin reference to a TraceDiagram or FormalSum."""
    try:
        fn = BUILTINS[name]
    except KeyError:
        raise DiagramStructureError(f"unknown builtin {name!r}") from None
    try:
        return fn(n, *args)
    except (TypeError, ValueError) as exc:
        raise DiagramStructureError(f"builtin {name!r}: {exc}") from None
