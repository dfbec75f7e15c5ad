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
edge. :func:`function_matrix` and :func:`evaluate_closed` take a diagram or
a strand form (``diagram._Strands``, the builders' permutation summands) and
go through one route switch, :func:`_cells`: a form, or a diagram without an
internal vertex once ``_Strands.of`` has validated and converted it (the form
is kept on the diagram, as :func:`_shape` keeps the DP's index), is walked
in :func:`_strand_cells`, building no :class:`_Shape`; any other diagram goes
to the DP, :func:`_signed_sum`, as in :func:`weight` (which pins leaf labels).
Every route reads the binding in one function, :func:`_bound`, and takes each
edge's weighted label pairs from one helper, :func:`_entries`, so all refuse
the same inputs with the same errors and weigh an edge by the same rule.

The signed sum runs on integers. :func:`_bound` reads each edge's word product
(its nonzero entries, kept on the binding as a table) and each vector as
integers over one denominator, so the sum of a whole diagram is an integer
over the product of those denominators, divided once; a
:class:`FunctionMatrix` keeps integer cells over one denominator.
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
    _kept,
    _Strands,
    vertex_permutation,
)
from .errors import (
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


def _bound(form: _Strands, binding: Optional[MatrixBinding]) -> tuple[dict, dict, int]:
    """After the dimension (with no binding, the sorted-first label), the
    binding's part of a sum over the form's edges: each marked word's nonzero
    entries by edge id, each vector's integer entries by ``(edge id, end)``,
    and the product of their denominators. Words are read in edge id order,
    then vectors, tail before head, so all routes fail on one unbound label."""
    n, edges = form.n, sorted(form.strands + form.loops)
    vecs = sorted(  # (edge id, 0 at the tail or 1 at the head, label)
        [(eid, 0, t[1]) for eid, _, t, _ in form.strands if t[0] == "vec"]
        + [(eid, 1, h[1]) for eid, _, _, h in form.strands if h[0] == "vec"]
    )
    if binding is None:
        if vecs or any(e[1] for e in edges):
            raise UnboundLabelError(min({x for e in edges for x in e[1]} | {v[2] for v in vecs}))
        return {}, {}, 1
    if binding.n != n:
        raise DimensionMismatchError(f"binding dimension {binding.n} != diagram dimension {n}")
    words, vectors, den = {}, {}, 1
    for e in edges:  # a free loop is (edge id, word)
        if e[1]:
            words[e[0]], d = binding.edge_entries(e[1], len(e) == 2)
            den *= d
    for eid, k, label in vecs:
        vectors[(eid, (TAIL, HEAD)[k])], d = binding.vector_lattice(label)
        den *= d
    return words, vectors, den


def _entries(bound: tuple, n: int, eid: str, head=None, tail=None):
    """The nonzero ``(head label, tail label, entry)`` of edge ``eid``, labels
    0-based: its word's entries from :func:`_bound` (the identity when
    unmarked) times the vector entry at each vector-terminated end. ``head``
    or ``tail`` pins that end's label.
    """
    words, vectors, _ = bound
    table = words.get(eid)
    if table is None:  # unmarked: the identity, at the pinned label if there is one
        pin = tail if head is None else head
        table = [(h, h, 1) for h in (range(n) if pin is None else (pin,)) if tail in (None, h)]
    elif head is not None or tail is not None:
        table = [
            e for e in table if (head is None or e[0] == head) and (tail is None or e[1] == tail)
        ]
    hvec, tvec = (vectors.get((eid, HEAD)), vectors.get((eid, TAIL))) if vectors else (None, None)
    if hvec is None and tvec is None:
        return table
    return [
        (h, t, x)
        for h, t, c in table
        if (x := c * (1 if hvec is None else hvec[h]) * (1 if tvec is None else tvec[t]))
    ]


class _Shape:
    """Validated index of a diagram's edge ends; it does not depend on a binding.

    Built once per diagram object by :func:`_shape`, from the validation kept
    on the diagram, which the CLI may already have made; it validates for the
    enumerator, which makes no other check.
    """

    def __init__(self, diagram: TraceDiagram):
        self.form = _kept(diagram, "_form", _Strands.of)  # validates; read by _bound
        self.n = diagram.n
        # each edge end's place in a FunctionMatrix index (0 unless a framed leaf)
        self.places = {
            (eid, end): _place(self.n, self.form.arity, at)
            for eid, _, *ends in self.form.strands
            for end, at in zip((TAIL, HEAD), ends)
        }
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
                self.reading_sign *= perms.sign(rank[(r.edge, r.end)] + 1 for r in v.ciliation)
        # per edge: its id and per end (head first) the end's key and its
        # vertex's bit offset or None
        self.edge_ends = [
            (
                e.id,
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
    """The diagram's :class:`_Shape`, kept on the diagram after the first
    call, so repeated evaluations of one diagram (every leaf coloring of a
    weight table, say) index it once."""
    return _kept(diagram, "_shape", _Shape)


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
    eid, ((hkey, hslot), (tkey, tslot)) = edge
    hplace, tplace = places.get(hkey, 0) << shift, places.get(tkey, 0) << shift
    merged: dict[tuple[int, int, int], int] = {}
    for h, t, c in _entries(bound, n, eid, pinned.get(hkey), pinned.get(tkey)):
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


def _place(n: int, arity: tuple[int, int], end: tuple) -> int:
    """The place value of a strand-form end's label in a :class:`FunctionMatrix` index."""
    (ins, outs), (kind, x) = arity, end
    return n ** (ins - x) if kind == "in" else n ** (ins + outs - x) if kind == "out" else 0


def _strand_cells(form: _Strands, bound: tuple) -> dict:
    """:func:`_signed_sum` for a diagram with no internal vertex, read off its
    strand form: every edge is a free loop or a strand between two leaves, so
    the sum factors. A loop gives the sum of its entries, the trace of its
    word. A strand's entries are placed by the :func:`_place` of its ends (0
    at a vector end, so the entries there are added first), and the cells are
    the products of one entry per strand; no two products share a cell.
    """
    n, scalar = form.n, 1
    for eid, _ in form.loops:
        scalar *= sum(c for _, _, c in _entries(bound, n, eid))
    cells = {0: scalar} if scalar else {}
    for eid, _, tail, head in form.strands:
        hp, tp = _place(n, form.arity, head), _place(n, form.arity, tail)
        entries = _entries(bound, n, eid)
        if not (hp and tp):  # entries that share a cell are summed first
            summed: dict[int, int] = {}
            for h, t, c in entries:
                summed[h * hp + t * tp] = summed.get(h * hp + t * tp, 0) + c
            entries, hp, tp = [(j, 0, c) for j, c in summed.items() if c], 1, 0
        cells = {i + h * hp + t * tp: x * c for i, x in cells.items() for h, t, c in entries}
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
    shape = _shape(diagram)
    bound = _bound(shape.form, binding)
    if set(leaf_coloring) != set(shape.open_end):
        raise LeafColoringError(
            "leaf coloring must cover exactly the open leaves: "
            f"got {sorted(leaf_coloring)}, expected {sorted(shape.open_end)}"
        )
    pinned = {end: label - 1 for end, label in shape.pin_leaves(leaf_coloring).items()}
    value = _signed_sum(shape, bound, pinned, {}).get(0, 0)
    return Fraction(value, bound[2] * shape.reading_sign)


def _cells(term, binding: Optional[MatrixBinding]) -> tuple[dict[int, int], int]:
    """``(cells, den)`` of a diagram's or strand form's signed sum, nonzero
    cells only, as a :class:`FunctionMatrix` framed as the term holds them:
    the strand walk for a form or a vertex-free diagram, the DP otherwise."""
    if isinstance(term, TraceDiagram):
        if all(v.kind != INTERNAL for v in term.vertices):
            term = _kept(term, "_form", _Strands.of)
        else:
            shape = _shape(term)
            bound = _bound(shape.form, binding)
            cells = _signed_sum(shape, bound, {}, shape.places)
            return {idx: x for idx, x in cells.items() if x}, bound[2] * shape.reading_sign
    bound = _bound(term, binding)
    return _strand_cells(term, bound), bound[2]


def evaluate_closed(diagram, binding: Optional[MatrixBinding] = None) -> Fraction:
    """Value of a diagram with no open leaves (or of a strand form of one):
    the full signed coloring sum."""
    if not diagram.is_closed():
        leaves = diagram.diagram().open_leaves()
        raise FramingError(f"not closed: open leaves {', '.join(leaves)}")
    cells, den = _cells(diagram, binding)
    return Fraction(cells.get(0, 0), den)


def function_matrix(diagram, binding: Optional[MatrixBinding] = None) -> FunctionMatrix:
    """Matrix of the multilinear function of a diagram (or of a strand form
    of one) in the standard tensor basis.

    Column alpha holds the weights of every output coloring beta; a closed
    framed diagram yields the 1x1 matrix of its value.
    """
    if not diagram.framed:
        raise FramingError("function matrix needs a framed diagram")
    return FunctionMatrix(diagram.n, *diagram.arity, *_cells(diagram, binding))
