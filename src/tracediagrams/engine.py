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
:class:`_Shape`, and hands any other diagram to the DP. Both routes start with
one check function, :func:`_check`, so they refuse the same inputs with the
same errors. :func:`weight` (which pins leaf labels) and
:func:`enumerate_colorings` always use the DP's shape.

The signed sum runs on integers. Each edge's word product and each vector is
read from the binding as integer entries over one denominator, so the sum of a
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
    label: the checks both evaluation routes make before reading the binding."""
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
        self.vector_end: dict[tuple[str, str], str] = {}  # end -> vector label
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
                elif v.vector_label is not None:
                    self.vector_end[(e.id, end)] = v.vector_label
                else:
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
        # per edge: its id, whether head and tail share one label, and per end
        # (head first) the end's key and its vertex's bit offset or None
        self.edge_ends = [
            (
                e.id,
                e.is_free_loop or not e.marking,
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


class _Prepared:
    """A diagram's shape with the bound matrices and vectors it uses.

    Matrices and vectors are integer entries over a denominator each;
    :meth:`signed_sum` returns integers, and ``den``, the product of those
    denominators times ``reading_sign``, is the one divisor of its result.
    """

    def __init__(self, diagram: TraceDiagram, binding: Optional[MatrixBinding]):
        _check(diagram, binding)
        self.shape = shape = _shape(diagram)
        self.eff: dict[str, list[list[int]]] = {}
        self.end_vector: dict[tuple[str, str], list[int]] = {}
        den = shape.reading_sign
        for e in shape.edges:
            if e.marking:
                self.eff[e.id], d = binding.edge_lattice(e.marking)
                den *= d
        for end, label in shape.vector_end.items():
            self.end_vector[end], d = binding.vector_lattice(label)
            den *= d
        self.den = den

    def signed_sum(
        self,
        pinned: Mapping[tuple[str, str], int],
        places: Mapping[tuple[str, str], int],
    ) -> dict[int, int]:
        """Sum of sign * coefficient over the colorings extending ``pinned``,
        split by ``sum(places[end] * (label at end - 1))`` over the open ends
        in ``places``, each sum times ``den``.

        A state is one int: n bits per internal vertex holding the labels used
        there so far, and above them the partial ``places`` index. Colorings
        that reach the same state merge, so the cost follows the number of
        states, not of colorings. Each placed label contributes the parity of
        the larger labels already at its vertex, which builds the sign of the
        placement-order reading; ``reading_sign``, a factor of ``den``, turns
        it into the ciliation reading.
        """
        shape = self.shape
        shift = shape.n * len(shape.internal_ids)
        states: dict[int, int] = {0: 1}
        for edge in shape.edge_ends:
            moves = self._moves(edge, pinned, places, shift)
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

    def _moves(self, edge, pinned, places, shift) -> list[tuple]:
        """The label pairs one edge may take, as (bits that must be free,
        state increment, sign-parity mask, coefficient, -coefficient).

        Pairs with the same effect on the state merge into one move with the
        summed coefficient, and a move whose coefficient is zero is dropped;
        a pinned end offers only its pinned label.
        """
        n = self.shape.n
        eid, tied, ((hkey, hslot), (tkey, tslot)) = edge
        want = pinned.get(hkey)
        heads = range(1, n + 1) if want is None else (want,)
        want = pinned.get(tkey)
        tails = range(1, n + 1) if want is None else (want,)
        if tied:
            pairs = [(h, h) for h in heads if h in tails]
        else:
            pairs = [(h, t) for h in heads for t in tails]
        eff = self.eff.get(eid)
        hvec, tvec = self.end_vector.get(hkey), self.end_vector.get(tkey)
        hplace, tplace = places.get(hkey, 0) << shift, places.get(tkey, 0) << shift
        merged: dict[tuple[int, int, int], int] = {}
        for h, t in pairs:
            c = 1 if eff is None else eff[h - 1][t - 1]
            if hvec is not None:
                c *= hvec[h - 1]
            if tvec is not None:
                c *= tvec[t - 1]
            need = parity = 0
            if hslot is not None:
                need = 1 << (hslot + h - 1)
                parity = ((1 << n) - (1 << h)) << hslot
            if tslot is not None:
                bit = 1 << (tslot + t - 1)
                if need & bit:  # both ends at one vertex with one label
                    continue
                larger = ((1 << n) - (1 << t)) << tslot
                if need & larger:  # the head, at this vertex, holds a larger label
                    c = -c
                need |= bit
                parity ^= larger
            move = (need, need + hplace * (h - 1) + tplace * (t - 1), parity)
            if move in merged:
                merged[move] += c
            else:
                merged[move] = c
        # a move whose parity mask is empty never flips its sign
        return [(*move, c, -c if move[2] else c) for move, c in merged.items() if c]


def _strand_cells(
    diagram: TraceDiagram,
    binding: Optional[MatrixBinding],
    places: Mapping[str, int],
) -> tuple[dict[int, int], int]:
    """:meth:`_Prepared.signed_sum` and :attr:`_Prepared.den` for a diagram
    with no internal vertex, read off its strands: every edge is a free loop
    or a strand between two leaves, so the sum factors. A loop gives the trace
    of its word's integer entries (``n`` when unmarked), and a strand gives
    its word's entries (the identity when unmarked), each times the vector
    entry at a vector-terminated end and placed at ``sum(places[leaf] *
    (label - 1))`` over its open leaves. The cells are the products of one
    entry per strand. ``places`` must give each open leaf its own mixed-radix
    place, so no two products share a cell. Lattices are read in
    ``_Prepared``'s order, so a binding that lacks a label fails on the same
    label.
    """
    _check(diagram, binding)
    n = diagram.n
    scalar, den, strands = 1, 1, []
    for e in sorted(diagram.edges, key=lambda e: e.id):
        rows = None
        if e.marking:
            rows, d = binding.edge_lattice(e.marking)
            den *= d
        if e.tail is not None:
            strands.append((rows, e.head, e.tail))
        elif rows is None:
            scalar *= n
        else:
            scalar *= sum(row[i] for i, row in enumerate(rows))
    vector = {v.id: v.vector_label for v in diagram.vertices if v.vector_label is not None}
    cells = {0: scalar} if scalar else {}
    for rows, head, tail in strands:
        ends = []
        for vid in (tail, head):
            if vid in vector:
                entries, d = binding.vector_lattice(vector[vid])
                den *= d
                ends.append((entries, 0))
            else:
                ends.append((None, places.get(vid, 0)))
        (tvec, tplace), (hvec, hplace) = ends
        part: dict[int, int] = {}
        for h in range(n):
            for t in range(n) if rows else (h,):
                c = rows[h][t] if rows else 1
                if hvec is not None:
                    c *= hvec[h]
                if tvec is not None:
                    c *= tvec[t]
                if c:
                    key = h * hplace + t * tplace
                    part[key] = part.get(key, 0) + c
        cells = {i + j: x * y for i, x in cells.items() for j, y in part.items() if y}
    return cells, den


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
    prep = _Prepared(diagram, binding)
    open_end = prep.shape.open_end
    if set(leaf_coloring) != set(open_end):
        raise LeafColoringError(
            "leaf coloring must cover exactly the open leaves: "
            f"got {sorted(leaf_coloring)}, expected {sorted(open_end)}"
        )
    pinned = prep.shape.pin_leaves(leaf_coloring)
    return Fraction(prep.signed_sum(pinned, {}).get(0, 0), prep.den)


def _cells(
    diagram: TraceDiagram,
    binding: Optional[MatrixBinding],
    places: Mapping[str, int],
) -> tuple[dict[int, int], int]:
    """``(cells, den)`` of the diagram's signed sum, nonzero cells only: the
    strand walk for a diagram without an internal vertex, the DP otherwise."""
    if all(v.kind != INTERNAL for v in diagram.vertices):
        return _strand_cells(diagram, binding, places)
    prep = _Prepared(diagram, binding)
    ends = {prep.shape.open_end[vid]: place for vid, place in places.items()}
    return {idx: x for idx, x in prep.signed_sum({}, ends).items() if x}, prep.den


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
