"""Immutable data model for trace diagrams.

A trace diagram over dimension ``n`` is a directed multigraph whose vertices
have degree 1 (leaves) or degree ``n`` (internal vertices carrying an explicit
ordering of their incident edge ends, the *ciliation*). Edges are marked by an
ordered word of matrix labels, listed head to tail, standing for the product
of the bound matrices with the first label nearest the head; an edge may also
close on itself with no vertices at all (a free loop). A leaf is *open*, in
which case a framing assigns it to the ordered inputs or outputs of the
diagram, or it is terminated by a vector label, which contracts that end
against a bound vector during evaluation.

Everything here is immutable: diagrams can be shared freely between threads
or processes, and two compare equal only when their ids agree too.

A diagram without an internal vertex also has a strand form, :class:`_Strands`,
all the engine's strand walk reads; the permutation builders emit their
summands in it. :meth:`_Strands.diagram` and :meth:`_Strands.of` convert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional

from . import matrices
from .errors import (
    DiagramStructureError,
    DimensionMismatchError,
    InadmissibleColoringError,
    UnboundLabelError,
)

HEAD = "head"
TAIL = "tail"

LEAF = "leaf"
INTERNAL = "internal"


def other_end(end: str) -> str:
    return TAIL if end == HEAD else HEAD


@dataclass(frozen=True)
class EndRef:
    """One end of one edge: the unit the ciliation and colorings refer to."""

    edge: str
    end: str  # HEAD or TAIL

    def __str__(self) -> str:
        return f"{self.edge}.{'h' if self.end == HEAD else 't'}"


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str  # LEAF or INTERNAL
    ciliation: tuple[EndRef, ...] = ()
    vector_label: Optional[str] = None


def leaf(vid: str, vector_label: Optional[str] = None) -> Vertex:
    return Vertex(vid, LEAF, (), vector_label)


def internal(vid: str, ciliation: Iterable[EndRef]) -> Vertex:
    return Vertex(vid, INTERNAL, tuple(ciliation))


@dataclass(frozen=True)
class Edge:
    """Directed edge; ``tail``/``head`` are vertex ids, or both None for a free loop."""

    id: str
    tail: Optional[str]
    head: Optional[str]
    marking: tuple[str, ...] = ()

    @property
    def is_free_loop(self) -> bool:
        return self.tail is None and self.head is None

    def vertex_at(self, end: str) -> Optional[str]:
        return self.head if end == HEAD else self.tail


@dataclass(frozen=True)
class TraceDiagram:
    n: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    inputs: Optional[tuple[str, ...]] = None  # ordered open-leaf vertex ids
    outputs: Optional[tuple[str, ...]] = None

    @property
    def framed(self) -> bool:
        return self.inputs is not None and self.outputs is not None

    @property
    def arity(self) -> tuple[int, int]:
        return len(self.inputs or ()), len(self.outputs or ())

    def vertex(self, vid: str) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)

    def incidence(self) -> dict[str, list[EndRef]]:
        """Vertex id -> incident edge ends, in edge-declaration order."""
        inc: dict[str, list[EndRef]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            for end in (TAIL, HEAD):
                vid = e.vertex_at(end)
                if vid is not None:
                    inc.setdefault(vid, []).append(EndRef(e.id, end))
        return inc

    def leaf_end(self, vid: str) -> EndRef:
        """The single edge end attached to a leaf vertex."""
        ends = self.incidence().get(vid, [])
        if len(ends) != 1:
            raise KeyError(f"{vid} is not a leaf with one incident end")
        return ends[0]

    def open_leaves(self) -> tuple[str, ...]:
        return tuple(
            v.id for v in self.vertices if v.kind == LEAF and v.vector_label is None
        )

    def is_closed(self) -> bool:
        """No open leaf ends; vector-terminated leaves carry no free index."""
        return not self.open_leaves()

    def diagram(self) -> "TraceDiagram":
        """The diagram itself, as :meth:`_Strands.diagram` gives a form's."""
        return self


class _Strands(NamedTuple):
    """A diagram's edges as the engine reads them: each free loop as ``(edge
    id, word)``, any other edge as ``(edge id, word, tail end, head end)``,
    an end being ``("in", i)``, ``("out", j)`` (the i-th input or j-th output
    from 1), ``("vec", label)`` or ``("", vertex id)``. Without an internal
    vertex it is the strand form, all the strand walk reads, and never validated."""

    n: int
    arity: tuple[int, int]  # inputs, outputs
    strands: tuple
    loops: tuple
    framed = True

    @classmethod
    def of(cls, diagram: TraceDiagram) -> "_Strands":
        """The form of a diagram that :func:`validate` passes, its open leaves framed."""
        result = _validation(diagram)
        if not result.ok:
            raise DiagramStructureError("; ".join(result.violations))
        ends = {
            v.id: ("", v.id) if v.vector_label is None else ("vec", v.vector_label)
            for v in diagram.vertices
        }
        ends.update((vid, ("in", i)) for i, vid in enumerate(diagram.inputs or (), 1))
        ends.update((vid, ("out", j)) for j, vid in enumerate(diagram.outputs or (), 1))
        strands = tuple(
            (e.id, e.marking, ends[e.tail], ends[e.head]) for e in diagram.edges if e.tail in ends
        )
        loops = tuple((e.id, e.marking) for e in diagram.edges if e.is_free_loop)
        return cls(diagram.n, diagram.arity, strands, loops)

    def is_closed(self) -> bool:
        return self.arity == (0, 0)

    def diagram(self) -> TraceDiagram:
        """The diagram: leaves ``in<i>``, ``out<j>`` and, per vector end, ``<edge
        id>.t`` or ``.h``; edges strands first."""
        ins = [f"in{i}" for i in range(1, self.arity[0] + 1)]
        outs = [f"out{j}" for j in range(1, self.arity[1] + 1)]
        vertices, edges = [leaf(vid) for vid in ins + outs], []
        for eid, word, *ends in self.strands:
            vids = [f"{eid}.{t}" if k == "vec" else f"{k}{x}" for t, (k, x) in zip("th", ends)]
            vertices += [leaf(vid, x) for vid, (k, x) in zip(vids, ends) if k == "vec"]
            edges.append(Edge(eid, *vids, word))
        edges += [Edge(eid, None, None, word) for eid, word in self.loops]
        return TraceDiagram(self.n, tuple(vertices), tuple(edges), tuple(ins), tuple(outs))


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(diagram: TraceDiagram) -> ValidationResult:
    """Structural diagnostics; never raises. An empty list means the diagram is well formed."""
    bad: list[str] = []
    if diagram.n < 1:
        bad.append(f"dimension must be >= 1, got {diagram.n}")

    vids = [v.id for v in diagram.vertices]
    if len(set(vids)) != len(vids):
        bad.append("duplicate vertex id")
    eids = [e.id for e in diagram.edges]
    if len(set(eids)) != len(eids):
        bad.append("duplicate edge id")
    byid = {v.id: v for v in diagram.vertices}

    for e in diagram.edges:
        if (e.tail is None) != (e.head is None):
            bad.append(f"edge {e.id}: one end closed, one attached")
            continue
        for end in (TAIL, HEAD):
            vid = e.vertex_at(end)
            if vid is not None and vid not in byid:
                bad.append(f"edge {e.id}: unknown vertex {vid!r}")

    inc = diagram.incidence()
    for v in diagram.vertices:
        ends = inc.get(v.id, [])
        if v.kind == LEAF:
            if len(ends) != 1:
                bad.append(f"leaf {v.id} has degree {len(ends)}, expected 1")
            if v.ciliation:
                bad.append(f"leaf {v.id} carries a ciliation")
        elif v.kind == INTERNAL:
            if v.vector_label is not None:
                bad.append(f"internal vertex {v.id} carries a vector label")
            if len(ends) != diagram.n:
                bad.append(
                    f"internal vertex {v.id} has degree {len(ends)} != n = {diagram.n}"
                )
            if sorted(map(str, v.ciliation)) != sorted(map(str, ends)):
                bad.append(
                    f"ciliation of {v.id} does not list its incident ends exactly once"
                )
        else:
            bad.append(f"vertex {v.id} has unknown kind {v.kind!r}")

    if diagram.inputs is not None or diagram.outputs is not None:
        ins = diagram.inputs or ()
        outs = diagram.outputs or ()
        listed = list(ins) + list(outs)
        if len(set(listed)) != len(listed):
            bad.append("framing repeats a leaf")
        open_set = set(diagram.open_leaves())
        for vid in listed:
            if vid not in open_set:
                bad.append(f"framing lists {vid!r}, which is not an open leaf")
        if set(listed) != open_set or len(listed) != len(open_set):
            bad.append("framing not a partition of the open leaves")

    return ValidationResult(tuple(bad))


def _kept(diagram: TraceDiagram, key: str, build):
    """``build(diagram)``, kept on the (immutable) diagram under ``key`` after the first call."""
    value = diagram.__dict__.get(key)
    if value is None:
        value = build(diagram)
        object.__setattr__(diagram, key, value)
    return value


def _validation(diagram: TraceDiagram) -> ValidationResult:
    """:func:`validate`'s result, kept on the diagram: the engine and the CLI
    read this one result."""
    return _kept(diagram, "_validation", validate)


@dataclass(frozen=True)
class Coloring:
    """Head/tail labels for every edge, keyed by edge id, sorted for determinism."""

    pairs: tuple[tuple[str, tuple[int, int]], ...]

    def __post_init__(self):
        object.__setattr__(self, "_by_edge", dict(self.pairs))

    @classmethod
    def from_dict(cls, labels: Mapping[str, tuple[int, int]]) -> "Coloring":
        return cls(tuple(sorted((e, (h, t)) for e, (h, t) in labels.items())))

    def head(self, edge_id: str) -> int:
        return self._by_edge[edge_id][0]

    def tail(self, edge_id: str) -> int:
        return self._by_edge[edge_id][1]

    def at(self, ref: EndRef) -> int:
        h, t = self._by_edge[ref.edge]
        return h if ref.end == HEAD else t

    def as_dict(self) -> dict[str, tuple[int, int]]:
        return dict(self.pairs)


def vertex_permutation(
    diagram: TraceDiagram, coloring: Coloring, vertex_id: str
) -> tuple[int, ...]:
    """Images (1..n) read off the ciliation: position i holds the label on the i-th end."""
    v = diagram.vertex(vertex_id)
    if v.kind != INTERNAL:
        raise InadmissibleColoringError(f"{vertex_id} is not an internal vertex")
    images = tuple(coloring.at(ref) for ref in v.ciliation)
    if len(set(images)) != len(images):
        raise InadmissibleColoringError(f"inadmissible coloring at vertex {vertex_id}")
    return images


@dataclass(frozen=True)
class FormalSum:
    """Rational linear combination of diagrams.

    A term is a :class:`TraceDiagram` or, in a builder's permutation sum, a
    strand form (:class:`_Strands`); where a diagram is needed, the term's
    ``diagram()`` builds it. ``terms`` stay as built; evaluation
    (``algebra.sum_function_matrix``, ``algebra.sum_closed_value``) takes
    them one by one, so sums with equal terms are built one term per class
    (``builders.ch_classes``).
    """

    terms: tuple[tuple[Fraction, TraceDiagram | _Strands], ...]

    def __post_init__(self):
        dims = {d.n for _, d in self.terms}
        if len(dims) > 1:
            raise DimensionMismatchError("formal sum mixes dimensions")
        arities = {d.arity for _, d in self.terms if d.framed}
        if len(arities) > 1:
            raise DimensionMismatchError("formal sum mixes framing arities")

    @classmethod
    def of(cls, *pairs) -> "FormalSum":
        return cls(tuple((matrices._exact(c), d) for c, d in pairs))

    @classmethod
    def single(cls, diagram: TraceDiagram, coeff=1) -> "FormalSum":
        return cls(((matrices._exact(coeff), diagram),))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(self.terms + other.terms)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def __rmul__(self, c) -> "FormalSum":
        return self.scale(c)

    def scale(self, c) -> "FormalSum":
        c = matrices._exact(c)
        return FormalSum(tuple((c * k, d) for k, d in self.terms))


@dataclass(frozen=True)
class MatrixBinding:
    """Concrete exact matrices and vectors for the labels a diagram uses."""

    n: int
    matrices: Mapping[str, matrices.Matrix] = field(default_factory=dict)
    vectors: Mapping[str, matrices.Vector] = field(default_factory=dict)
    _word_products: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # marking word -> (integer rows, denominator),
    # (word, loop) -> (nonzero entries, denominator)
    _lattices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {self.n}")
        mats = {k: matrices.freeze_matrix(v) for k, v in self.matrices.items()}
        vecs = {k: matrices.freeze_vector(v) for k, v in self.vectors.items()}
        for k, m in mats.items():
            if matrices.shape(m) != (self.n, self.n):
                raise DimensionMismatchError(
                    f"matrix {k!r} is {matrices.shape(m)}, expected {self.n}x{self.n}"
                )
        for k, v in vecs.items():
            if len(v) != self.n:
                raise DimensionMismatchError(
                    f"vector {k!r} has length {len(v)}, expected {self.n}"
                )
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "vectors", vecs)

    def matrix(self, label: str) -> matrices.Matrix:
        try:
            return self.matrices[label]
        except KeyError:
            raise UnboundLabelError(label) from None

    def vector(self, label: str) -> matrices.Vector:
        try:
            return self.vectors[label]
        except KeyError:
            raise UnboundLabelError(label) from None

    def edge_matrix(self, marking: tuple[str, ...]) -> matrices.Matrix:
        """Product of a marking word, first label nearest the head.

        Each word's product is computed once and kept on the binding, which is
        immutable, so the kept product stays valid.
        """
        marking = tuple(marking)
        product = self._word_products.get(marking)
        if product is None:
            product = matrices.word_product([self.matrix(lab) for lab in marking])
            self._word_products[marking] = product
        return product

    def edge_lattice(self, marking: tuple[str, ...]) -> tuple[list[list[int]], int]:
        """The product of a marking word as integer rows over one positive
        denominator, the form the engine sums in.

        It is multiplied out in integers from the word's prefix, and every
        prefix's product is kept on the binding, like :meth:`edge_matrix`'s.
        """
        marking = tuple(marking)
        lattice = self._lattices.get(marking)
        if lattice is None:
            if len(marking) < 2:
                lattice = matrices._lattice(self.matrix(marking[0]))
            else:
                a, da = self.edge_lattice(marking[:-1])
                b, db = self.edge_lattice(marking[-1:])
                lattice = (matrices._product(a, b), da * db)
            self._lattices[marking] = lattice
        return lattice

    def edge_entries(self, marking: tuple[str, ...], loop: bool) -> tuple[tuple, int]:
        """:meth:`edge_lattice` as its nonzero ``(head, tail, entry)``, labels
        0-based, over its denominator; on a free ``loop``, whose head and tail
        are one point, the diagonal ones. Kept on the binding, like it."""
        entries = self._lattices.get((marking, loop))
        if entries is None:
            rows, den = self.edge_lattice(marking)
            table = [(h, t, x) for h, row in enumerate(rows) for t, x in enumerate(row) if x]
            entries = (tuple(e for e in table if not loop or e[0] == e[1]), den)
            self._lattices[(marking, loop)] = entries
        return entries
