"""Monoidal operations on framed diagrams and arithmetic on formal sums.

Composition glues the bottom diagram's outputs to the top diagram's inputs in
order. The glued leaves disappear and the wire segments meeting there fuse
into single edges, concatenating marking words; a chain that closes on itself
becomes a free loop. Fusion never inserts 2-valent vertices (trace diagram
vertices have degree 1 or n only). A fused wire needs its marked segments to
run in one direction; gluing two marked segments head-to-head is rejected
rather than silently transposing anything.

A formal sum is evaluated term by term, each term through the engine, which
takes a builder's strand-form term as it is; composition, reframing and the
per-basis route of :func:`is_relation` build that term's diagram. Sums
whose terms repeat are built with one term per class instead: the
Cayley-Hamilton sums with equal labels come from ``builders.ch_classes`` and
``builders.loop_classes``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .diagram import (
    HEAD,
    INTERNAL,
    LEAF,
    TAIL,
    Edge,
    EndRef,
    FormalSum,
    MatrixBinding,
    TraceDiagram,
    Vertex,
    other_end,
)
from .engine import (
    FunctionMatrix,
    _sum_cells,
    evaluate_closed,
    function_matrix,
    index_tensor,
    weight,
)
from .errors import CompositionError, DimensionMismatchError, FramingError, TraceDiagramError


def _renamed(d: TraceDiagram, prefix: str):
    vmap = {v.id: prefix + v.id for v in d.vertices}
    emap = {e.id: prefix + e.id for e in d.edges}
    verts = tuple(
        Vertex(
            vmap[v.id],
            v.kind,
            tuple(EndRef(emap[r.edge], r.end) for r in v.ciliation),
            v.vector_label,
        )
        for v in d.vertices
    )
    edges = tuple(
        Edge(
            emap[e.id],
            vmap[e.tail] if e.tail is not None else None,
            vmap[e.head] if e.head is not None else None,
            e.marking,
        )
        for e in d.edges
    )
    return verts, edges, vmap


def compose(top: TraceDiagram, bottom: TraceDiagram) -> TraceDiagram:
    """Glue bottom's i-th output to top's i-th input; framing becomes
    (bottom inputs, top outputs)."""
    if top.n != bottom.n:
        raise DimensionMismatchError("composition mixes dimensions")
    if not top.framed or not bottom.framed:
        raise FramingError("composition needs framed diagrams")
    if len(bottom.outputs) != len(top.inputs):
        raise CompositionError(
            f"arity mismatch: {len(bottom.outputs)} outputs vs {len(top.inputs)} inputs"
        )

    bverts, bedges, bvmap = _renamed(bottom, "b.")
    tverts, tedges, tvmap = _renamed(top, "t.")
    all_edges = {e.id: e for e in bedges + tedges}
    all_verts = {v.id: v for v in bverts + tverts}

    end_at: dict[tuple[str, str], Optional[str]] = {}
    leaf_end: dict[str, tuple[str, str]] = {}
    for e in all_edges.values():
        for end in (TAIL, HEAD):
            vid = e.vertex_at(end)
            end_at[(e.id, end)] = vid
            if vid is not None and all_verts[vid].kind == LEAF:
                leaf_end[vid] = (e.id, end)

    partner: dict[tuple[str, str], tuple[str, str]] = {}
    for bo, ti in zip(bottom.outputs, top.inputs):
        a, b = leaf_end[bvmap[bo]], leaf_end[tvmap[ti]]
        partner[a] = b
        partner[b] = a

    touched = {eid for (eid, _) in partner}
    new_edges: list[Edge] = [e for eid, e in sorted(all_edges.items()) if eid not in touched]
    end_remap: dict[tuple[str, str], EndRef] = {}
    done: set[str] = set()

    # a chain starts at an end that is not a glue junction and ends at another
    # (open), or, once no such end is left, returns to its start (a cycle);
    # chain entries are (edge id, end we entered the segment at)
    starts = [(eid, end) for eid in sorted(touched) for end in (TAIL, HEAD)]
    starts = [s for s in starts if s not in partner] + [(eid, TAIL) for eid in sorted(touched)]
    for start in starts:
        if start[0] in done:
            continue
        chain = [start]
        while True:
            nxt = partner.get((chain[-1][0], other_end(chain[-1][1])))
            if nxt is None or nxt == start:
                break
            chain.append(nxt)
        done.update(eid for eid, _ in chain)
        # a marked segment entered at its head runs against the chain
        directions = {entered for eid, entered in chain if all_edges[eid].marking}
        if len(directions) > 1:
            raise CompositionError(
                "cannot fuse oppositely directed marked wires "
                f"({', '.join(eid for eid, _ in chain)})"
            )
        if directions == {HEAD}:
            chain = [(eid, other_end(entered)) for eid, entered in reversed(chain)]
        word = tuple(
            lab
            for eid, _ in reversed(chain)
            for lab in all_edges[eid].marking
        )
        new_id = min(eid for eid, _ in chain)
        if nxt is not None:
            new_edges.append(Edge(new_id, None, None, word))
        else:
            first_e, first_in = chain[0]
            last_e, last_in = chain[-1]
            tail_v = end_at[(first_e, first_in)]
            head_v = end_at[(last_e, other_end(last_in))]
            new_edges.append(Edge(new_id, tail_v, head_v, word))
            end_remap[(first_e, first_in)] = EndRef(new_id, TAIL)
            end_remap[(last_e, other_end(last_in))] = EndRef(new_id, HEAD)

    glued_leaves = {end_at[end] for end in partner}
    new_verts = []
    for vid, v in sorted(all_verts.items()):
        if vid in glued_leaves:
            continue
        if v.kind == INTERNAL:
            cil = tuple(
                end_remap.get((r.edge, r.end), r) for r in v.ciliation
            )
            new_verts.append(Vertex(vid, INTERNAL, cil))
        else:
            new_verts.append(v)

    return TraceDiagram(
        top.n,
        tuple(new_verts),
        tuple(sorted(new_edges, key=lambda e: e.id)),
        inputs=tuple(bvmap[x] for x in bottom.inputs),
        outputs=tuple(tvmap[x] for x in top.outputs),
    )


def tensor(left: TraceDiagram, right: TraceDiagram) -> TraceDiagram:
    """Disjoint union; inputs and outputs concatenate left then right."""
    if left.n != right.n:
        raise DimensionMismatchError("tensor mixes dimensions")
    if not left.framed or not right.framed:
        raise FramingError("tensor needs framed diagrams")
    lverts, ledges, lvmap = _renamed(left, "l.")
    rverts, redges, rvmap = _renamed(right, "r.")
    return TraceDiagram(
        left.n,
        lverts + rverts,
        ledges + redges,
        inputs=tuple(lvmap[x] for x in left.inputs)
        + tuple(rvmap[x] for x in right.inputs),
        outputs=tuple(lvmap[x] for x in left.outputs)
        + tuple(rvmap[x] for x in right.outputs),
    )


def reframe(diagram: TraceDiagram, inputs, outputs) -> TraceDiagram:
    """Same diagram, new ordered partition of its open leaves."""
    inputs, outputs = tuple(inputs), tuple(outputs)
    listed = list(inputs) + list(outputs)
    if sorted(listed) != sorted(diagram.open_leaves()):
        raise FramingError("new framing is not a partition of the open leaves")
    return replace(diagram, inputs=inputs, outputs=outputs)


DiagramOrSum = Union[TraceDiagram, FormalSum]


def _as_sum(x: DiagramOrSum) -> FormalSum:
    return x if isinstance(x, FormalSum) else FormalSum.single(x)


def compose_sums(top: DiagramOrSum, bottom: DiagramOrSum) -> FormalSum:
    """Bilinear extension of composition to formal sums."""
    terms = [
        (ct * cb, compose(dt.diagram(), db.diagram()))
        for ct, dt in _as_sum(top).terms
        for cb, db in _as_sum(bottom).terms
    ]
    return FormalSum(tuple(terms))


def reframe_positions(s: DiagramOrSum, input_positions, output_positions) -> FormalSum:
    """Repartition every term by position into its current (inputs + outputs) list.

    Position indices refer to the concatenated framing of each term, so the
    same wire endpoint moves the same way in every term of the sum.
    """
    input_positions = tuple(input_positions)
    output_positions = tuple(output_positions)
    out_terms = []
    for c, d in _as_sum(s).terms:
        d = d.diagram()
        ordered = tuple(d.inputs) + tuple(d.outputs)
        if sorted(input_positions + output_positions) != list(range(len(ordered))):
            raise FramingError("positions must partition the framed leaves")
        out_terms.append(
            (
                c,
                reframe(
                    d,
                    (ordered[i] for i in input_positions),
                    (ordered[i] for i in output_positions),
                ),
            )
        )
    return FormalSum(tuple(out_terms))


def _terms(s: DiagramOrSum):
    terms = _as_sum(s).terms
    if not terms:
        raise FramingError("cannot evaluate an empty formal sum")
    return terms


def sum_function_matrix(
    s: DiagramOrSum, binding: Optional[MatrixBinding] = None
) -> FunctionMatrix:
    """Function matrix of a formal sum: the coefficient-weighted sum of term matrices.

    The matrices are built one at a time and their integer cells added into
    one map over a common denominator (:func:`engine._sum_cells`), which grows
    to take in each term's; cells that cancel are dropped.
    """
    return _sum_cells((c, function_matrix(d, binding)) for c, d in _terms(s))


def sum_closed_value(
    s: DiagramOrSum, binding: Optional[MatrixBinding] = None
) -> Fraction:
    """Value of a formal sum of closed diagrams."""
    return sum((c * evaluate_closed(d, binding) for c, d in _terms(s)), Fraction(0))


@dataclass(frozen=True)
class RelationCheck:
    holds: bool
    residual: Fraction
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]  # (output, input) labels

    def __bool__(self) -> bool:
        return self.holds


def is_relation(
    s: DiagramOrSum,
    binding: Optional[MatrixBinding] = None,
    mode: str = "exact-on-binding",
) -> RelationCheck:
    """Does the sum evaluate to the zero function on this binding?

    ``exact-on-binding`` sums the term function matrices. ``all-bases``
    additionally recomputes every matrix entry through independent per-basis
    weight sums, a second route through the engine.
    """
    if mode not in ("exact-on-binding", "all-bases"):
        raise ValueError(f"unknown mode {mode!r}")
    fs = _as_sum(s)
    fm = sum_function_matrix(fs, binding)
    n, cols = fm.n, fm.n**fm.input_arity
    # row-major scan for the largest |numerator| of a cell's reduced value;
    # on ties the last cell wins
    worst, worst_num, witness = 0, 0, None
    for idx in sorted(fm.cells):
        x = fm.cells[idx]
        num = abs(x) // gcd(x, fm.den)
        if num >= worst_num:
            worst, worst_num = x, num
            witness = (
                index_tensor(idx // cols, n, fm.output_arity),
                index_tensor(idx % cols, n, fm.input_arity),
            )
    if mode == "all-bases":
        terms = [(coeff, d.diagram()) for coeff, d in fs.terms]
        for r in range(n**fm.output_arity):
            beta = index_tensor(r, n, fm.output_arity)
            for c in range(cols):
                alpha = index_tensor(c, n, fm.input_arity)
                entry = Fraction(0)
                for coeff, d in terms:
                    leaf_coloring = dict(zip(d.inputs, alpha))
                    leaf_coloring.update(zip(d.outputs, beta))
                    entry += coeff * weight(d, leaf_coloring, binding)
                if entry != Fraction(fm.cells.get(r * cols + c, 0), fm.den):
                    raise TraceDiagramError(
                        "function-matrix and per-basis weight routes disagree"
                    )
    return RelationCheck(worst == 0, Fraction(worst, fm.den), witness)
