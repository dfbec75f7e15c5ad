"""Line-oriented text formats for diagrams, relations and matrix bindings.

One construct per line, no nesting; ``#`` starts a comment and ``;`` separates
statements on one line. File kinds: ``.tdg`` holds named diagrams, ``.trel``
holds a rational combination of diagrams, ``.tmat`` holds matrices/vectors.

Diagram grammar::

    diagram <name>                 # optional for single-diagram files
    diagram <name> = builtin:det(A) @ dim 3
    dim <n>
    vertex <id> leaf [vec <label>]
    vertex <id> internal cil(<end>, <end>, ...)
    edge <id> <tail-vertex> <head-vertex> [mark <L1> <L2> ...]
    edge <id> loop [mark ...]      # or: loop <id> [mark ...]
    inputs <end> <end> ...
    outputs <end> ...

A ciliation end is ``e`` when unambiguous, or ``e.h`` / ``e.t`` to pick the
head or tail end (needed when both ends of an edge meet the same vertex).
Framing entries are leaf edges, written ``e`` or ``e@leaf`` when both ends of
the edge are leaves. Serialization emits entities sorted by id with canonical
end suffixes, so round-trips are bit-exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .builders import build_builtin
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
)
from .errors import DslSyntaxError, TraceDiagramError

_ID = r"[A-Za-z_][A-Za-z0-9_.-]*"
_ID_RE = re.compile(rf"^{_ID}$")
_BUILTIN_RE = re.compile(rf"^builtin:({_ID})\((.*?)\)\s*(?:@\s*dim\s+(\d+))?$")
_TERM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)\s*\*\s*(\S.*)$")

Entity = Union[TraceDiagram, FormalSum]


def _read_text(path) -> str:
    """A UTF-8 input file's text; a file that cannot be read or decoded is a typed error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceDiagramError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceDiagramError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        bare = raw.split("#", 1)[0]
        for piece in bare.split(";"):
            piece = piece.strip()
            if piece:
                yield lineno, piece


def _check_id(token: str, line: int) -> str:
    if not _ID_RE.match(token):
        raise DslSyntaxError(f"bad identifier {token!r}", line)
    return token


def _rational(token: str, line: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise DslSyntaxError(f"bad rational {token!r}: {exc}", line) from None


def parse_builtin_ref(text: str, default_dim: Optional[int], line: int = 0) -> Entity:
    m = _BUILTIN_RE.match(text.strip())
    if not m:
        raise DslSyntaxError(f"bad builtin reference {text!r}", line)
    name, argstr, dimstr = m.groups()
    args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    n = int(dimstr) if dimstr else default_dim
    if n is None:
        raise DslSyntaxError("builtin reference needs '@ dim <n>'", line)

    try:
        return build_builtin(name, args, n)
    except TraceDiagramError as exc:
        raise DslSyntaxError(str(exc), line) from exc


class _Draft:
    """Mutable accumulator for one diagram block."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.n: Optional[int] = None
        self.vertices: list[Vertex] = []
        self.edges: list[Edge] = []
        self.pending_cil: list[tuple[str, list[str], int]] = []
        self.inputs: Optional[list[tuple[str, int]]] = None
        self.outputs: Optional[list[tuple[str, int]]] = None
        self.builtin: Optional[Entity] = None

    def edge_map(self):
        return {e.id: e for e in self.edges}

    def finish(self) -> Entity:
        if self.builtin is not None:
            return self.builtin
        if self.n is None:
            raise DslSyntaxError(f"diagram {self.name!r} never set 'dim'", self.line)
        edge_map = self.edge_map()

        def resolve_cil(vid: str, token: str, line: int) -> EndRef:
            name = token
            end = None
            if "@" in name:
                name, at = name.split("@", 1)
                if at != vid:
                    raise DslSyntaxError(
                        f"end {token!r} names vertex {at!r}, not {vid!r}", line
                    )
            if name.endswith(".h"):
                name, end = name[:-2], HEAD
            elif name.endswith(".t"):
                name, end = name[:-2], TAIL
            e = edge_map.get(name)
            if e is None:
                raise DslSyntaxError(f"ciliation names unknown edge {name!r}", line)
            here = [side for side in (TAIL, HEAD) if e.vertex_at(side) == vid]
            if end is None:
                if len(here) != 1:
                    raise DslSyntaxError(
                        f"edge {name!r} meets {vid!r} at both ends; use .h or .t", line
                    )
                end = here[0]
            elif end not in here:
                raise DslSyntaxError(
                    f"edge {name!r} has no {end} end at {vid!r}", line
                )
            return EndRef(name, end)

        vertices = list(self.vertices)
        for vid, tokens, line in self.pending_cil:
            cil = tuple(resolve_cil(vid, t, line) for t in tokens)
            vertices = [
                Vertex(v.id, v.kind, cil, v.vector_label) if v.id == vid else v
                for v in vertices
            ]

        def resolve_leaf(entry: tuple[str, int]) -> str:
            token, line = entry
            name, at = (token.split("@", 1) + [None])[:2]
            e = edge_map.get(name)
            if e is None:
                raise DslSyntaxError(f"framing names unknown edge {name!r}", line)
            open_leaves = {
                v.id for v in vertices if v.kind == LEAF and v.vector_label is None
            }
            leaf_sides = [
                e.vertex_at(side)
                for side in (TAIL, HEAD)
                if e.vertex_at(side) in open_leaves
            ]
            if at is not None:
                if at not in leaf_sides:
                    raise DslSyntaxError(
                        f"edge {name!r} has no open leaf {at!r}", line
                    )
                return at
            if len(leaf_sides) != 1:
                raise DslSyntaxError(
                    f"edge {name!r} touches {len(leaf_sides)} open leaves; "
                    "use e@leaf",
                    line,
                )
            return leaf_sides[0]

        inputs = outputs = None
        if self.inputs is not None or self.outputs is not None:
            inputs = tuple(resolve_leaf(x) for x in (self.inputs or []))
            outputs = tuple(resolve_leaf(x) for x in (self.outputs or []))
        return TraceDiagram(
            self.n, tuple(vertices), tuple(self.edges), inputs=inputs, outputs=outputs
        )


def _feed(draft: _Draft, line: int, stmt: str) -> None:
    words = stmt.split()
    head = words[0]
    if head == "dim":
        if len(words) != 2 or not words[1].isdecimal():
            raise DslSyntaxError("expected 'dim <n>'", line)
        draft.n = int(words[1])
    elif head == "vertex":
        if len(words) < 3:
            raise DslSyntaxError("expected 'vertex <id> leaf|internal ...'", line)
        vid = _check_id(words[1], line)
        if words[2] == "leaf":
            vec = None
            if len(words) == 5 and words[3] == "vec":
                vec = words[4]
            elif len(words) != 3:
                raise DslSyntaxError("expected 'vertex <id> leaf [vec <label>]'", line)
            draft.vertices.append(Vertex(vid, LEAF, (), vec))
        elif words[2] == "internal":
            rest = stmt.split(None, 2)[2][len("internal") :].strip()
            m = re.match(r"^cil\((.*)\)$", rest)
            if not m:
                raise DslSyntaxError("internal vertex needs cil(...)", line)
            tokens = [t.strip() for t in m.group(1).split(",") if t.strip()]
            draft.vertices.append(Vertex(vid, INTERNAL, ()))
            draft.pending_cil.append((vid, tokens, line))
        else:
            raise DslSyntaxError(f"unknown vertex kind {words[2]!r}", line)
    elif head in ("edge", "loop"):
        if head == "loop":
            if len(words) < 2:
                raise DslSyntaxError("expected 'loop <id> [mark ...]'", line)
            words = ["edge", words[1], "loop"] + words[2:]
        if len(words) < 3:
            raise DslSyntaxError("expected 'edge <id> <tail> <head>'", line)
        eid = _check_id(words[1], line)
        if words[2] == "loop":
            tail = head_v = None
            rest = words[3:]
        else:
            if len(words) < 4:
                raise DslSyntaxError("expected 'edge <id> <tail> <head>'", line)
            tail, head_v = words[2], words[3]
            rest = words[4:]
        marking: tuple[str, ...] = ()
        if rest:
            if rest[0] != "mark" or len(rest) < 2:
                raise DslSyntaxError("trailing words must be 'mark <L1> ...'", line)
            marking = tuple(rest[1:])
        draft.edges.append(Edge(eid, tail, head_v, marking))
    elif head in ("inputs", "outputs"):
        entries = [(w, line) for w in words[1:]]
        if head == "inputs":
            draft.inputs = entries if draft.inputs is None else draft.inputs + entries
        else:
            draft.outputs = (
                entries if draft.outputs is None else draft.outputs + entries
            )
    else:
        raise DslSyntaxError(f"unknown statement {head!r}", line)


def parse_diagram_set(text: str, default_dim: Optional[int] = None) -> dict[str, Entity]:
    """Parse a .tdg document into named diagrams (or builtin formal sums)."""
    drafts: list[_Draft] = []
    current: Optional[_Draft] = None
    for line, stmt in _logical_lines(text):
        words = stmt.split()
        if words[0] == "diagram":
            if len(words) >= 4 and words[2] == "=":
                name = _check_id(words[1], line)
                entity = parse_builtin_ref(stmt.split("=", 1)[1].strip(), default_dim, line)
                d = _Draft(name, line)
                d.builtin = entity
                drafts.append(d)
                current = None
                continue
            if len(words) != 2:
                raise DslSyntaxError("expected 'diagram <name>'", line)
            current = _Draft(_check_id(words[1], line), line)
            drafts.append(current)
            continue
        if current is None:
            if drafts:
                raise DslSyntaxError(
                    "statement outside a diagram block (add 'diagram <name>')", line
                )
            current = _Draft("main", line)
            drafts.append(current)
        _feed(current, line, stmt)
    seen = set()
    for d in drafts:
        if d.name in seen:
            raise DslSyntaxError(f"duplicate diagram name {d.name!r}", d.line)
        seen.add(d.name)
    return {d.name: d.finish() for d in drafts}


def parse_diagram(text: str) -> TraceDiagram:
    """Parse a single-diagram document."""
    entities = parse_diagram_set(text)
    if len(entities) != 1:
        raise DslSyntaxError(f"expected one diagram, found {len(entities)}", 1)
    (entity,) = entities.values()
    if not isinstance(entity, TraceDiagram):
        raise DslSyntaxError("document holds a formal sum, not a single diagram", 1)
    return entity


def serialize_diagram(diagram: TraceDiagram, name: Optional[str] = None) -> str:
    """Canonical text: entities sorted by id, explicit end suffixes, LF lines;
    a formal sum's strand-form term is written as its diagram."""
    diagram = diagram.diagram()
    out = []
    if name is not None:
        out.append(f"diagram {name}")
    out.append(f"dim {diagram.n}")
    for v in sorted(diagram.vertices, key=lambda v: v.id):
        if v.kind == LEAF:
            suffix = f" vec {v.vector_label}" if v.vector_label else ""
            out.append(f"vertex {v.id} leaf{suffix}")
        else:
            ends = ", ".join(str(r) for r in v.ciliation)
            out.append(f"vertex {v.id} internal cil({ends})")
    for e in sorted(diagram.edges, key=lambda e: e.id):
        mark = f" mark {' '.join(e.marking)}" if e.marking else ""
        if e.is_free_loop:
            out.append(f"loop {e.id}{mark}")
        else:
            out.append(f"edge {e.id} {e.tail} {e.head}{mark}")
    if diagram.framed:
        for title, leaves in (("inputs", diagram.inputs), ("outputs", diagram.outputs)):
            refs = " ".join(
                f"{diagram.leaf_end(vid).edge}@{vid}" for vid in leaves
            )
            out.append(f"{title} {refs}".rstrip())
    return "\n".join(out) + "\n"


def parse_relation(
    text: str,
    registry: Optional[dict[str, Entity]] = None,
    default_dim: Optional[int] = None,
) -> FormalSum:
    """Parse a .trel document: term lines over named or builtin diagrams.

    Inline ``diagram`` blocks extend the registry; ``use`` lines are resolved
    by :func:`parse_relation_file`.
    """
    registry = dict(registry or {})
    term_lines: list[tuple[int, Fraction, str]] = []
    diagram_text: list[str] = []
    dim = default_dim
    for line, stmt in _logical_lines(text):
        words = stmt.split()
        m = _TERM_RE.match(stmt)
        if m:
            term_lines.append((line, _rational(m.group(1), line), m.group(2).strip()))
        elif words[0] == "use":
            raise DslSyntaxError(
                "'use' requires file context; call parse_relation_file", line
            )
        elif words[0] == "dim" and len(words) == 2 and not diagram_text:
            if not words[1].isdecimal():
                raise DslSyntaxError("expected 'dim <n>'", line)
            dim = int(words[1])
        else:
            diagram_text.append(stmt)
    if diagram_text:
        registry.update(
            parse_diagram_set("\n".join(diagram_text), default_dim=dim)
        )

    terms = []
    for line, coeff, ref in term_lines:
        if ref.startswith("builtin:"):
            entity = parse_builtin_ref(ref, dim, line)
        elif ref in registry:
            entity = registry[ref]
        else:
            raise DslSyntaxError(f"unknown diagram {ref!r}", line)
        if isinstance(entity, FormalSum):
            terms.extend(entity.scale(coeff).terms)
        else:
            terms.append((coeff, entity))
    if not terms:
        raise DslSyntaxError("relation has no terms", 1)
    return FormalSum(tuple(terms))


def parse_relation_file(path) -> FormalSum:
    """Parse a .trel file, resolving ``use <file.tdg>`` imports next to it."""
    path = Path(path)
    text = _read_text(path)
    registry: dict[str, Entity] = {}
    kept: list[str] = []
    for line, stmt in _logical_lines(text):
        words = stmt.split()
        if words[0] == "use":
            if len(words) != 2:
                raise DslSyntaxError("expected 'use <file.tdg>'", line)
            registry.update(parse_diagram_set(_read_text(path.parent / words[1])))
        else:
            kept.append(stmt)
    return parse_relation("\n".join(kept), registry=registry)


def parse_matrix_file(text: str) -> MatrixBinding:
    """Parse a .tmat document of matrix/vector blocks with rational entries."""
    mats: dict[str, list[list[Fraction]]] = {}
    vecs: dict[str, list[Fraction]] = {}
    expect: Optional[tuple[str, str, int, int]] = None  # kind, name, rows-left, cols
    n: Optional[int] = None
    for line, stmt in _logical_lines(text):
        words = stmt.split()
        if expect is not None:
            kind, name, left, cols = expect
            row = [_rational(tok, line) for tok in words]
            if len(row) != cols:
                raise DslSyntaxError(f"expected {cols} entries, got {len(row)}", line)
            if kind == "matrix":
                mats[name].append(row)
            else:
                vecs[name] = row
            left -= 1
            expect = (kind, name, left, cols) if left else None
            continue
        if words[0] == "matrix":
            if len(words) != 4 or not (words[2].isdecimal() and words[3].isdecimal()):
                raise DslSyntaxError("expected 'matrix <name> <rows> <cols>'", line)
            name, rows, cols = words[1], int(words[2]), int(words[3])
            if rows != cols:
                raise DslSyntaxError(f"matrix {name!r} must be square", line)
            size, shape = rows, f"is {rows}x{cols}"
            expect = ("matrix", name, rows, cols)
        elif words[0] == "vector":
            if len(words) != 3 or not words[2].isdecimal():
                raise DslSyntaxError("expected 'vector <name> <len>'", line)
            name, size = words[1], int(words[2])
            shape = f"has length {size}"
            expect = ("vector", name, 1, size)
        else:
            raise DslSyntaxError(f"unknown statement {words[0]!r}", line)
        blocks = mats if words[0] == "matrix" else vecs  # one name space each
        if name in blocks:
            raise DslSyntaxError(f"duplicate {words[0]} {name!r}", line)
        blocks[name] = []
        if size < 1:
            raise DslSyntaxError(f"{words[0]} {name!r} is empty", line)
        if n is None:
            n = size
        elif n != size:
            raise DslSyntaxError(f"{words[0]} {name!r} {shape}, file dimension is {n}", line)
    if expect is not None:
        raise DslSyntaxError(f"unterminated block for {expect[1]!r}", line)
    if n is None:
        raise DslSyntaxError("empty matrix file", 1)
    return MatrixBinding(n, mats, vecs)
