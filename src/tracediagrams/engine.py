"""Evaluation of trace diagrams by signed sums over admissible colorings.

A coloring assigns a pair of labels in ``1..n`` to the head and tail of every
edge so that the labels at each internal vertex are pairwise distinct, and so
that head and tail agree on unmarked edges and on free loops (whose two formal
ends are the same point of the strand). Each coloring contributes the product
of its permutation signs at the internal vertices times the product of the
selected matrix entries, one per edge: entry ``(head label, tail label)`` of
the product of the edge's marking word. Vector-terminated leaves contribute
the vector entry selected by the label at that end. Framed diagrams sum these
contributions into a matrix indexed by output and input leaf labels in mixed
radix, leftmost leaf most significant. A :class:`FunctionMatrix` keeps only the
nonzero entries of that matrix; its dense form is built when first asked for.

The sum is computed without listing the colorings. Edges are taken in id
order, head label before tail label, and the partial colorings are merged by
what the rest of the sum can still see: the set of labels used so far at each
internal vertex, kept as a bitmask, and the labels placed at the open leaves
that a function matrix is indexed by. This reads each internal vertex as an
exterior product: the determinant diagram passes through C(2n, n) states in
all rather than (n!)^2 colorings. An edge's label pairs with the same effect
on the state are merged, and a merged pair whose coefficient is zero is never
placed. A placed label's sign is the parity of the larger labels already at
its vertex, which gives the sign of the vertex read in placement order; one
sign per vertex, fixed by the diagram, converts that to the ciliation order.
:func:`enumerate_colorings`, :func:`signature` and :func:`coefficient` keep
the definition itself, and the tests compare the two.

A diagram without an internal vertex needs none of this: every edge is a free
loop or a strand between two leaves, so the sum is a product of one factor per
edge. :func:`function_matrix` and :func:`evaluate_closed`, the entries for a
diagram's whole sum, go through one route switch, :func:`_cells`, which walks
such a diagram's strands once in :func:`_strand_cells`, building no
:class:`_Shape`, and hands any other diagram to the DP, :func:`_signed_sum`.
:func:`weight` (which pins leaf labels) and :func:`enumerate_colorings` always
use the DP's shape. Every evaluation starts in one function, :func:`_bound`,
which checks the diagram and binding (:func:`_check`) and then reads the
binding, and both kernels take each edge's weighted label pairs from one
helper, :func:`_entries`; so every route refuses the same inputs with the same
errors and weighs an edge by the same rule.

The signed sum runs on integers. :func:`_bound` reads each edge's word product
and each vector as integer entries over one denominator, so the sum of a
whole diagram is an integer over the product of those denominators, divided
once; a :class:`FunctionMatrix` keeps integer cells over one denominator.
Sums and rational multiples of function matrices, and the function matrix of a
formal sum, add such cells in one loop, :func:`_sum_cells`.
``Fraction`` is the type every public function returns. The reference
:func:`coefficient` multiplies the binding's ``Fraction`` word products, so it
checks the integer route rather than sharing it. :func:`enumerate_colorings`
yields in lexicographic order over edges sorted by id, so results and streams
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Mapping, Optional

from . import matrices, perms
from .diagram import (
    HEAD,
    INTERNAL,
    LEAF,
    TAIL,
    Coloring,
    MatrixBinding,
    TraceDiagram,
    _validation,
    vertex_permutation,
)
from .errors import (
    DiagramStructureError,
    DimensionMismatchError,
    FramingError,
    LeafColoringError,
    UnboundLabelError,
)

LeafColoring = Mapping[str, int]  # open-leaf vertex id -> label in 1..n

_ZERO = Fraction(0)


def tensor_index(labels, n: int) -> int:
    """Mixed-radix rank of a label tuple, leftmost position most significant."""
    idx = 0
    for lab in labels:
        idx = idx * n + (lab - 1)
    return idx


def index_tensor(idx: int, n: int, arity: int) -> tuple[int, ...]:
    out = []
    for _ in range(arity):
        out.append(idx % n + 1)
        idx //= n
    return tuple(reversed(out))


@dataclass(frozen=True)
class FunctionMatrix:
    """Matrix of a framed diagram's multilinear function in the standard tensor basis.

    Only the nonzero entries are stored, as integers over one denominator:
    entry ``cells[idx] / den`` sits at the flat index ``row * n**input_arity
    + col``, where rows are output and columns input labels in mixed radix. A
    permutation diagram on k strands has n^k nonzero entries out of n^(2k).
    ``den`` is positive and has no common factor with all the cells, so
    equal functions have equal fields and ``==`` and the hash compare values.
    ``entry``, ``column``, ``scalar`` and ``entries`` give ``Fraction``
    values; ``entries``, the dense ``n^out x n^in`` form, is built on first
    use and kept. It is the dense view for the API and the tests: the CLI
    prints from ``cells`` and ``den`` and builds no grid of ``Fraction``.
    ``+`` and scaling by a rational go through one cell-sum loop,
    :func:`_sum_cells`.
    """

    n: int
    input_arity: int
    output_arity: int
    cells: dict[int, int] = field(hash=False)  # flat index -> nonzero numerator
    den: int = 1

    def __post_init__(self):
        g = gcd(self.den, *self.cells.values())
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "cells", {i: x // g for i, x in self.cells.items()})
            object.__setattr__(self, "den", self.den // g)

    @cached_property
    def entries(self) -> matrices.Matrix:
        cols = self.n**self.input_arity
        grid = [[_ZERO] * cols for _ in range(self.n**self.output_arity)]
        for idx, x in self.cells.items():
            grid[idx // cols][idx % cols] = Fraction(x, self.den)
        return tuple(tuple(row) for row in grid)

    def entry(self, beta, alpha) -> Fraction:
        idx = tensor_index(beta, self.n) * self.n**self.input_arity
        return Fraction(self.cells.get(idx + tensor_index(alpha, self.n), 0), self.den)

    def column(self, alpha) -> tuple[Fraction, ...]:
        cols = self.n**self.input_arity
        j = tensor_index(alpha, self.n)
        return tuple(
            Fraction(self.cells.get(r * cols + j, 0), self.den)
            for r in range(self.n**self.output_arity)
        )

    def is_zero(self) -> bool:
        return not self.cells

    def scalar(self) -> Fraction:
        if self.input_arity or self.output_arity:
            raise FramingError("scalar() needs a 0-in/0-out matrix")
        return Fraction(self.cells.get(0, 0), self.den)

    def __add__(self, other: "FunctionMatrix") -> "FunctionMatrix":
        return _sum_cells(((1, self), (1, other)))

    def __rmul__(self, c) -> "FunctionMatrix":
        return _sum_cells(((matrices._exact(c), self),))


def _sum_cells(terms) -> FunctionMatrix:
    """The sum of ``c * fm`` over ``(c, fm)`` pairs of rationals and function
    matrices of one shape.

    The integer cells are added into one map over a common denominator, which
    grows to take in each term's; cells that cancel are dropped.
    """
    shape = None
    total: dict[int, int] = {}
    den = 1
    for c, fm in terms:
        if shape is None:
            shape = (fm.n, fm.input_arity, fm.output_arity)
        elif (fm.n, fm.input_arity, fm.output_arity) != shape:
            raise FramingError("function matrices have different shapes")
        term_den = c.denominator * fm.den
        if den % term_den:
            grow = lcm(den, term_den) // den
            total = {idx: grow * x for idx, x in total.items()}
            den *= grow
        k = c.numerator * (den // term_den)
        for idx, x in fm.cells.items():
            if k != 1:
                x *= k
            total[idx] = total[idx] + x if idx in total else x
    return FunctionMatrix(*shape, {idx: x for idx, x in total.items() if x}, den)


def _check(diagram: TraceDiagram, binding: Optional[MatrixBinding]) -> None:
    """Validation, then the dimension, then with no binding the sorted-first
    label: the checks :func:`_bound` makes before reading the binding."""
    result = _validation(diagram)
    if not result.ok:
        raise DiagramStructureError("; ".join(result.violations))
    if binding is not None:
        if binding.n != diagram.n:
            raise DimensionMismatchError(
                f"binding dimension {binding.n} != diagram dimension {diagram.n}"
            )
    elif labels := diagram.matrix_labels() | diagram.vector_labels():
        raise UnboundLabelError(min(labels))


def _bound(diagram: TraceDiagram, binding: Optional[MatrixBinding]) -> tuple[dict, dict, int]:
    """After :func:`_check`, the binding's part of the diagram's sum: the
    integer rows of each marked edge's word product by edge id, the integer
    entries of the vector at each vector-terminated end by ``(edge id, end)``,
    and the product of their denominators. Words are read in edge id order,
    then vectors, tail before head, so all routes fail on one unbound label.
    """
    _check(diagram, binding)
    words, vectors, den = {}, {}, 1
    if binding is None:  # _check has found no label to read
        return words, vectors, den
    edges = sorted(diagram.edges, key=lambda e: e.id)
    for e in edges:
        if e.marking:
            words[e.id], d = binding.edge_lattice(e.marking)
            den *= d
    label = {v.id: v.vector_label for v in diagram.vertices if v.vector_label is not None}
    for e in edges if label else ():  # most diagrams have no vector leaf
        for end, vid in ((TAIL, e.tail), (HEAD, e.head)):
            if vid in label:
                vectors[(e.id, end)], d = binding.vector_lattice(label[vid])
                den *= d
    return words, vectors, den


def _entries(bound: tuple, n: int, eid: str, loop: bool, head=None, tail=None) -> Iterator:
    """The nonzero ``(head label, tail label, entry)`` of edge ``eid``, labels
    0-based: entry (head, tail) of its word (the identity when unmarked; head
    and tail agree on a free ``loop``) times the vector entry at each
    vector-terminated end. ``head`` or ``tail`` pins that end's label.
    """
    words, vectors, _ = bound
    rows = words.get(eid)
    hvec = tvec = None
    if vectors:
        hvec, tvec = vectors.get((eid, HEAD)), vectors.get((eid, TAIL))
    for h in range(n) if head is None else (head,):
        if rows is None or loop:
            tails = (h,) if tail is None or tail == h else ()
        else:
            tails = range(n) if tail is None else (tail,)
        for t in tails:
            c = 1 if rows is None else rows[h][t]
            if hvec is not None:
                c *= hvec[h]
            if tvec is not None:
                c *= tvec[t]
            if c:
                yield h, t, c


class _Shape:
    """Validated index of a diagram's edge ends; it does not depend on a binding.

    Built once per diagram object by :func:`_shape`, from the validation kept
    on the diagram, which the CLI may already have made; it validates for the
    enumerator, which makes no other check.
    """

    def __init__(self, diagram: TraceDiagram):
        result = _validation(diagram)
        if not result.ok:
            raise DiagramStructureError("; ".join(result.violations))
        self.n = diagram.n
        self.edges = sorted(diagram.edges, key=lambda e: e.id)
        self.internal_ids = [v.id for v in diagram.vertices if v.kind == INTERNAL]
        self.end_vertex: dict[tuple[str, str], str] = {}
        self.open_end: dict[str, tuple[str, str]] = {}
        byid = {v.id: v for v in diagram.vertices}
        for e in self.edges:
            for end in (TAIL, HEAD):
                vid = e.vertex_at(end)
                if vid is None:
                    continue
                v = byid[vid]
                if v.kind == INTERNAL:
                    self.end_vertex[(e.id, end)] = vid
                elif v.vector_label is None:
                    self.open_end[vid] = (e.id, end)

        # The signed sum places labels edge by edge, head before tail, so each
        # vertex first reads its labels in that order. The sign of the
        # permutation from there to the ciliation order does not depend on
        # the labels, so it is one factor for the whole sum.
        self.slot = {vid: k * self.n for k, vid in enumerate(self.internal_ids)}
        rank: dict[tuple[str, str], int] = {}
        placed = dict.fromkeys(self.internal_ids, 0)
        for e in self.edges:
            for end in (HEAD, TAIL):
                vid = self.end_vertex.get((e.id, end))
                if vid is not None:
                    rank[(e.id, end)] = placed[vid]
                    placed[vid] += 1
        self.reading_sign = 1
        for v in diagram.vertices:
            if v.kind == INTERNAL:
                self.reading_sign *= perms.sign(rank[(r.edge, r.end)] for r in v.ciliation)
        # per edge: its id, whether it is a free loop, and per end (head
        # first) the end's key and its vertex's bit offset or None
        self.edge_ends = [
            (
                e.id,
                e.is_free_loop,
                tuple(
                    ((e.id, end), self.slot.get(self.end_vertex.get((e.id, end))))
                    for end in (HEAD, TAIL)
                ),
            )
            for e in self.edges
        ]

    def colorings(
        self, pinned: Optional[dict[tuple[str, str], int]] = None
    ) -> Iterator[dict[str, tuple[int, int]]]:
        """Backtracking enumeration of admissible colorings extending ``pinned``."""
        pinned = pinned or {}
        n = self.n
        used: dict[str, set[int]] = {vid: set() for vid in self.internal_ids}
        assignment: dict[str, tuple[int, int]] = {}
        edges = self.edges

        def admissible(e, end: str, label: int) -> bool:
            want = pinned.get((e.id, end))
            if want is not None and want != label:
                return False
            vid = self.end_vertex.get((e.id, end))
            return vid is None or label not in used[vid]

        def place(i: int) -> Iterator[dict[str, tuple[int, int]]]:
            if i == len(edges):
                yield dict(assignment)
                return
            e = edges[i]
            tied = e.is_free_loop or not e.marking
            for h in range(1, n + 1):
                tails = (h,) if tied else range(1, n + 1)
                for t in tails:
                    if not admissible(e, HEAD, h) or not admissible(e, TAIL, t):
                        continue
                    vh = self.end_vertex.get((e.id, HEAD))
                    vt = self.end_vertex.get((e.id, TAIL))
                    if vh is not None and vt is not None and vh == vt and h == t:
                        continue
                    if vh is not None:
                        used[vh].add(h)
                    if vt is not None:
                        used[vt].add(t)
                    assignment[e.id] = (h, t)
                    yield from place(i + 1)
                    del assignment[e.id]
                    if vh is not None:
                        used[vh].discard(h)
                    if vt is not None:
                        used[vt].discard(t)

        yield from place(0)

    def pin_leaves(self, leaf_coloring: LeafColoring) -> dict[tuple[str, str], int]:
        pinned = {}
        for vid, label in leaf_coloring.items():
            if vid not in self.open_end:
                raise LeafColoringError(f"{vid!r} is not an open leaf")
            if not 1 <= label <= self.n:
                raise LeafColoringError(f"label {label} out of range 1..{self.n}")
            pinned[self.open_end[vid]] = label
        return pinned


def _shape(diagram: TraceDiagram) -> _Shape:
    """The diagram's :class:`_Shape`, kept on the diagram after the first call.

    Diagrams are immutable, so the shape stays valid; repeated evaluations of
    one diagram (every leaf coloring of a weight table, say) validate it once.
    """
    shape = diagram.__dict__.get("_shape")
    if shape is None:
        shape = _Shape(diagram)
        object.__setattr__(diagram, "_shape", shape)
    return shape


def _signed_sum(shape: _Shape, bound: tuple, pinned: Mapping, places: Mapping) -> dict[int, int]:
    """Sum of sign * coefficient over the colorings extending ``pinned``
    (0-based labels), split by ``sum(places[end] * label)`` over the open ends
    in ``places``, each sum times the denominator of ``bound`` and
    ``shape.reading_sign``.

    A state is one int: n bits per internal vertex holding the labels used
    there so far, and above them the partial ``places`` index. Colorings
    that reach the same state merge, so the cost follows the number of
    states, not of colorings. Each placed label contributes the parity of
    the larger labels already at its vertex, which builds the sign of the
    placement-order reading; ``reading_sign`` turns it into the ciliation
    reading.
    """
    shift = shape.n * len(shape.internal_ids)
    states: dict[int, int] = {0: 1}
    for edge in shape.edge_ends:
        moves = _moves(shape.n, bound, edge, pinned, places, shift)
        grown: dict[int, int] = {}
        for state, value in states.items():
            for need, add, parity, pos, neg in moves:
                if state & need:
                    continue
                key = state + add
                term = value * (neg if (state & parity).bit_count() & 1 else pos)
                if key in grown:
                    grown[key] += term
                else:
                    grown[key] = term
        states = grown
    return {key >> shift: v for key, v in states.items()}


def _moves(n: int, bound: tuple, edge, pinned, places, shift) -> list[tuple]:
    """The label pairs one edge may take, as (bits that must be free,
    state increment, sign-parity mask, coefficient, -coefficient).

    Pairs with the same effect on the state merge into one move with the
    summed coefficient, and a move whose coefficient is zero is dropped.
    """
    eid, loop, ((hkey, hslot), (tkey, tslot)) = edge
    hplace, tplace = places.get(hkey, 0) << shift, places.get(tkey, 0) << shift
    merged: dict[tuple[int, int, int], int] = {}
    for h, t, c in _entries(bound, n, eid, loop, pinned.get(hkey), pinned.get(tkey)):
        need = parity = 0
        if hslot is not None:
            need = 1 << (hslot + h)
            parity = ((1 << n) - (2 << h)) << hslot
        if tslot is not None:
            bit = 1 << (tslot + t)
            if need & bit:  # both ends at one vertex with one label
                continue
            larger = ((1 << n) - (2 << t)) << tslot
            if need & larger:  # the head, at this vertex, holds a larger label
                c = -c
            need |= bit
            parity ^= larger
        move = (need, need + hplace * h + tplace * t, parity)
        if move in merged:
            merged[move] += c
        else:
            merged[move] = c
    # a move whose parity mask is empty never flips its sign
    return [(*move, c, -c if move[2] else c) for move, c in merged.items() if c]


def _strand_cells(diagram: TraceDiagram, bound: tuple, places: Mapping[str, int]) -> dict:
    """:func:`_signed_sum` for a diagram with no internal vertex, read off its
    strands: every edge is a free loop or a strand between two leaves, so the
    sum factors. A loop gives the sum of its entries, the trace of its word.
    A strand's entries are placed at ``sum(places[leaf] * label)`` over its
    open leaves, and the cells are the products of one entry per strand.
    ``places`` must give each open leaf its own mixed-radix place, so no two
    products share a cell.
    """
    scalar, strands = 1, []
    for e in diagram.edges:
        if e.is_free_loop:
            scalar *= sum(c for _, _, c in _entries(bound, diagram.n, e.id, True))
        else:
            strands.append(e)
    cells = {0: scalar} if scalar else {}
    for e in strands:
        hplace, tplace = places.get(e.head, 0), places.get(e.tail, 0)
        part: dict[int, int] = {}
        for h, t, c in _entries(bound, diagram.n, e.id, False):
            key = h * hplace + t * tplace
            part[key] = part.get(key, 0) + c
        cells = {i + j: x * y for i, x in cells.items() for j, y in part.items() if y}
    return cells


def enumerate_colorings(
    diagram: TraceDiagram, precoloring: Optional[LeafColoring] = None
) -> Iterator[Coloring]:
    """Admissible colorings extending a leaf pre-coloring, each exactly once.

    No binding is consulted: the stream depends only on the diagram shape.
    Order is lexicographic in (head, tail) pairs over edges sorted by id.
    """
    shape = _shape(diagram)
    for labels in shape.colorings(shape.pin_leaves(precoloring or {})):
        yield Coloring.from_dict(labels)


def signature(diagram: TraceDiagram, coloring: Coloring) -> int:
    """Product of the permutation signs at the internal vertices; +1 with none."""
    sign = 1
    for v in diagram.vertices:
        if v.kind == INTERNAL:
            sign *= perms.sign(vertex_permutation(diagram, coloring, v.id))
    return sign


def coefficient(
    diagram: TraceDiagram, coloring: Coloring, binding: MatrixBinding
) -> Fraction:
    """Product over edges of the (head, tail) entry of the edge's word product.

    Unmarked edges contribute 1; each vector-terminated leaf contributes the
    vector entry selected by the label at its end.
    """
    if binding.n != diagram.n:
        raise DimensionMismatchError(
            f"binding dimension {binding.n} != diagram dimension {diagram.n}"
        )
    coeff = Fraction(1)
    for e in diagram.edges:
        if e.marking:
            m = binding.edge_matrix(e.marking)
            coeff *= m[coloring.head(e.id) - 1][coloring.tail(e.id) - 1]
    for v in diagram.vertices:
        if v.kind == LEAF and v.vector_label is not None:
            ref = diagram.leaf_end(v.id)
            coeff *= binding.vector(v.vector_label)[coloring.at(ref) - 1]
    return coeff


def weight(
    diagram: TraceDiagram,
    leaf_coloring: LeafColoring,
    binding: Optional[MatrixBinding] = None,
) -> Fraction:
    """Signed sum of coefficients over all colorings extending a total leaf coloring."""
    bound = _bound(diagram, binding)
    shape = _shape(diagram)
    if set(leaf_coloring) != set(shape.open_end):
        raise LeafColoringError(
            "leaf coloring must cover exactly the open leaves: "
            f"got {sorted(leaf_coloring)}, expected {sorted(shape.open_end)}"
        )
    pinned = {end: label - 1 for end, label in shape.pin_leaves(leaf_coloring).items()}
    value = _signed_sum(shape, bound, pinned, {}).get(0, 0)
    return Fraction(value, bound[2] * shape.reading_sign)


def _cells(
    diagram: TraceDiagram,
    binding: Optional[MatrixBinding],
    places: Mapping[str, int],
) -> tuple[dict[int, int], int]:
    """``(cells, den)`` of the diagram's signed sum, nonzero cells only: the
    strand walk for a diagram without an internal vertex, the DP otherwise."""
    bound = _bound(diagram, binding)
    if all(v.kind != INTERNAL for v in diagram.vertices):
        return _strand_cells(diagram, bound, places), bound[2]
    shape = _shape(diagram)
    ends = {shape.open_end[vid]: place for vid, place in places.items()}
    cells = _signed_sum(shape, bound, {}, ends)
    return {idx: x for idx, x in cells.items() if x}, bound[2] * shape.reading_sign


def evaluate_closed(
    diagram: TraceDiagram, binding: Optional[MatrixBinding] = None
) -> Fraction:
    """Value of a diagram with no open leaves: the full signed coloring sum."""
    if diagram.open_leaves():
        raise FramingError(
            f"not closed: open leaves {', '.join(diagram.open_leaves())}"
        )
    cells, den = _cells(diagram, binding, {})
    return Fraction(cells.get(0, 0), den)


def function_matrix(
    diagram: TraceDiagram, binding: Optional[MatrixBinding] = None
) -> FunctionMatrix:
    """Matrix of the diagram's multilinear function in the standard tensor basis.

    Column alpha holds the weights of every output coloring beta; a closed
    framed diagram yields the 1x1 matrix of its value.
    """
    if not diagram.framed:
        raise FramingError("function matrix needs a framed diagram")
    n, ins, outs = diagram.n, diagram.inputs, diagram.outputs
    cols = n ** len(ins)
    places = {vid: n**k for k, vid in enumerate(reversed(ins))}
    places.update({vid: cols * n**k for k, vid in enumerate(reversed(outs))})
    return FunctionMatrix(n, len(ins), len(outs), *_cells(diagram, binding, places))
