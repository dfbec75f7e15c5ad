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
radix, leftmost leaf most significant.

All arithmetic is over ``Fraction``; enumeration order is lexicographic over
edges sorted by id, so results and streams are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    validate,
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
    """Matrix of a framed diagram's multilinear function in the standard tensor basis."""

    n: int
    input_arity: int
    output_arity: int
    entries: tuple[tuple[Fraction, ...], ...]  # n^out rows, n^in cols

    def entry(self, beta, alpha) -> Fraction:
        return self.entries[tensor_index(beta, self.n)][tensor_index(alpha, self.n)]

    def column(self, alpha) -> tuple[Fraction, ...]:
        j = tensor_index(alpha, self.n)
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return matrices.is_zero_matrix(self.entries)

    def scalar(self) -> Fraction:
        if self.input_arity or self.output_arity:
            raise FramingError("scalar() needs a 0-in/0-out matrix")
        return self.entries[0][0]

    def as_matrix(self) -> matrices.Matrix:
        return self.entries

    def __add__(self, other: "FunctionMatrix") -> "FunctionMatrix":
        if (self.n, self.input_arity, self.output_arity) != (
            other.n,
            other.input_arity,
            other.output_arity,
        ):
            raise FramingError("function matrices have different shapes")
        return FunctionMatrix(
            self.n,
            self.input_arity,
            self.output_arity,
            matrices.madd(self.entries, other.entries),
        )

    def __rmul__(self, c) -> "FunctionMatrix":
        return FunctionMatrix(
            self.n,
            self.input_arity,
            self.output_arity,
            matrices.mscale(c, self.entries),
        )


def _check_dimension(diagram: TraceDiagram, binding: Optional[MatrixBinding]) -> None:
    if binding is not None and binding.n != diagram.n:
        raise DimensionMismatchError(
            f"binding dimension {binding.n} != diagram dimension {diagram.n}"
        )


class _Prepared:
    """Indexed view of a diagram, optionally with bound matrices, for the enumerator."""

    def __init__(
        self,
        diagram: TraceDiagram,
        binding: Optional[MatrixBinding],
        prune_zeros: bool,
        shape_only: bool = False,
    ):
        result = validate(diagram)
        if not result.ok:
            raise DiagramStructureError("; ".join(result.violations))
        _check_dimension(diagram, binding)
        self.diagram = diagram
        self.n = diagram.n
        self.prune = prune_zeros and not shape_only
        self.edges = sorted(diagram.edges, key=lambda e: e.id)

        if not shape_only:
            needs_binding = any(e.marking for e in diagram.edges) or any(
                v.vector_label for v in diagram.vertices
            )
            if needs_binding and binding is None:
                missing = sorted(diagram.matrix_labels() | diagram.vector_labels())
                raise UnboundLabelError(missing[0])

        self.eff: dict[str, Optional[matrices.Matrix]] = {}
        for e in self.edges:
            self.eff[e.id] = (
                binding.edge_matrix(e.marking) if e.marking and not shape_only else None
            )

        self.internal_ids = [v.id for v in diagram.vertices if v.kind == INTERNAL]
        self.cil_refs = [
            (v.id, tuple((r.edge, r.end) for r in v.ciliation))
            for v in diagram.vertices
            if v.kind == INTERNAL
        ]
        self.end_vertex: dict[tuple[str, str], str] = {}
        self.end_vector: dict[tuple[str, str], matrices.Vector] = {}
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
                    if not shape_only:
                        self.end_vector[(e.id, end)] = binding.vector(v.vector_label)
                else:
                    self.open_end[vid] = (e.id, end)

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
            if vid is not None and label in used[vid]:
                return False
            if self.prune:
                vec = self.end_vector.get((e.id, end))
                if vec is not None and vec[label - 1] == 0:
                    return False
            return True

        def place(i: int) -> Iterator[dict[str, tuple[int, int]]]:
            if i == len(edges):
                yield dict(assignment)
                return
            e = edges[i]
            eff = self.eff[e.id]
            tied = e.is_free_loop or not e.marking
            for h in range(1, n + 1):
                tails = (h,) if tied else range(1, n + 1)
                for t in tails:
                    if self.prune and eff is not None and eff[h - 1][t - 1] == 0:
                        continue
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

    def contribution(self, labels: dict[str, tuple[int, int]]) -> Fraction:
        """sign * coefficient of one admissible coloring."""
        sign = 1
        for _, refs in self.cil_refs:
            images = []
            for eid, end in refs:
                h, t = labels[eid]
                images.append(h if end == HEAD else t)
            sign *= perms.sign(images)
        coeff = Fraction(1)
        for e in self.edges:
            eff = self.eff[e.id]
            if eff is not None:
                h, t = labels[e.id]
                coeff *= eff[h - 1][t - 1]
        for (eid, end), vec in self.end_vector.items():
            h, t = labels[eid]
            coeff *= vec[(h if end == HEAD else t) - 1]
        return sign * coeff

    def pin_leaves(self, leaf_coloring: LeafColoring) -> dict[tuple[str, str], int]:
        pinned = {}
        for vid, label in leaf_coloring.items():
            if vid not in self.open_end:
                raise LeafColoringError(f"{vid!r} is not an open leaf")
            if not 1 <= label <= self.n:
                raise LeafColoringError(f"label {label} out of range 1..{self.n}")
            pinned[self.open_end[vid]] = label
        return pinned


def enumerate_colorings(
    diagram: TraceDiagram, precoloring: Optional[LeafColoring] = None
) -> Iterator[Coloring]:
    """Admissible colorings extending a leaf pre-coloring, each exactly once.

    No binding is consulted: the stream depends only on the diagram shape.
    Order is lexicographic in (head, tail) pairs over edges sorted by id.
    """
    prep = _Prepared(diagram, None, prune_zeros=False, shape_only=True)
    pinned = prep.pin_leaves(precoloring or {})
    for labels in prep.colorings(pinned):
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
    prune_zeros: bool = True,
) -> Fraction:
    """Signed sum of coefficients over all colorings extending a total leaf coloring."""
    prep = _Prepared(diagram, binding, prune_zeros)
    if set(leaf_coloring) != set(prep.open_end):
        raise LeafColoringError(
            "leaf coloring must cover exactly the open leaves: "
            f"got {sorted(leaf_coloring)}, expected {sorted(prep.open_end)}"
        )
    pinned = prep.pin_leaves(leaf_coloring)
    total = Fraction(0)
    for labels in prep.colorings(pinned):
        total += prep.contribution(labels)
    return total


def evaluate_closed(
    diagram: TraceDiagram,
    binding: Optional[MatrixBinding] = None,
    prune_zeros: bool = True,
) -> Fraction:
    """Value of a diagram with no open leaves: the full signed coloring sum."""
    if diagram.open_leaves():
        raise FramingError(
            f"not closed: open leaves {', '.join(diagram.open_leaves())}"
        )
    return weight(diagram, {}, binding, prune_zeros)


def evaluate_fast_closed(
    diagram: TraceDiagram, binding: Optional[MatrixBinding] = None
) -> Fraction:
    """Product of traces of the loop words; only for vertex-free closed diagrams.

    Cross-checked against :func:`evaluate_closed` in the test suite; the empty
    diagram evaluates to 1.
    """
    if diagram.vertices:
        raise DiagramStructureError("fast path inapplicable: diagram has vertices")
    _check_dimension(diagram, binding)
    total = Fraction(1)
    for e in diagram.edges:
        if not e.is_free_loop:
            raise DiagramStructureError("fast path inapplicable: non-loop edge")
        if e.marking and binding is None:
            raise UnboundLabelError(e.marking[0])
        if e.marking:
            total *= matrices.mtrace(binding.edge_matrix(e.marking))
        else:
            total *= diagram.n
    return total


def function_matrix(
    diagram: TraceDiagram,
    binding: Optional[MatrixBinding] = None,
    prune_zeros: bool = True,
) -> FunctionMatrix:
    """Matrix of the diagram's multilinear function in the standard tensor basis.

    Column alpha holds the weights of every output coloring beta; a closed
    framed diagram yields the 1x1 matrix of its value.
    """
    if not diagram.framed:
        raise FramingError("function matrix needs a framed diagram")
    prep = _Prepared(diagram, binding, prune_zeros)
    n = diagram.n
    in_ends = [prep.open_end[vid] for vid in diagram.inputs]
    out_ends = [prep.open_end[vid] for vid in diagram.outputs]
    rows, cols = n ** len(out_ends), n ** len(in_ends)
    grid = [[Fraction(0)] * cols for _ in range(rows)]

    def end_label(labels, end_key):
        h, t = labels[end_key[0]]
        return h if end_key[1] == HEAD else t

    for labels in prep.colorings():
        alpha = tuple(end_label(labels, k) for k in in_ends)
        beta = tuple(end_label(labels, k) for k in out_ends)
        grid[tensor_index(beta, n)][tensor_index(alpha, n)] += prep.contribution(labels)

    return FunctionMatrix(
        n, len(in_ends), len(out_ends), tuple(tuple(row) for row in grid)
    )
