"""Command-line front end.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or input
errors. All numeric output is exact rational text, never decimal.

The argument parser is built on the first call of :func:`main` and reused
after that. ``eval`` prints a function matrix from its nonzero ``cells``
over ``den``; :attr:`FunctionMatrix.entries` is the dense view for the API
and the tests, and prints the same text.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import matrices
from .algebra import sum_closed_value, sum_function_matrix
from .diagram import TraceDiagram, _validation
from .dsl import _read_text, parse_diagram_set, parse_matrix_file
from .engine import FunctionMatrix, evaluate_closed, function_matrix
from .errors import DslSyntaxError, TraceDiagramError
from .identities import (
    CATALOGUE,
    charpoly_diagrammatic,
    run_identity,
)


def _matrix_text(fm: FunctionMatrix) -> str:
    """One line per output row, entries separated by spaces, no final newline."""
    cols = fm.n**fm.input_arity
    rows: dict[int, list[str]] = {}
    for idx, x in fm.cells.items():
        r, c = divmod(idx, cols)
        rows.setdefault(r, ["0"] * cols)[c] = str(Fraction(x, fm.den))
    zero = " ".join(["0"] * cols)
    return "\n".join(
        " ".join(rows[r]) if r in rows else zero for r in range(fm.n**fm.output_arity)
    )


def _cmd_eval(args) -> int:
    text = _read_text(args.file)
    entities = parse_diagram_set(text, default_dim=args.dim)
    if args.diagram:
        if args.diagram not in entities:
            print(
                f"no diagram named {args.diagram!r}; file has {sorted(entities)}",
                file=sys.stderr,
            )
            return 2
        entity = entities[args.diagram]
    elif len(entities) == 1:
        (entity,) = entities.values()
    else:
        print(
            f"file has {len(entities)} diagrams; pick one with --diagram",
            file=sys.stderr,
        )
        return 2

    binding = None
    if args.bind:
        binding = parse_matrix_file(_read_text(args.bind))

    if isinstance(entity, TraceDiagram):
        result = _validation(entity)
        if not result.ok:
            for v in result.violations:
                print(f"invalid diagram: {v}", file=sys.stderr)
            return 2
        if entity.is_closed():
            print(evaluate_closed(entity, binding))
        else:
            print(_matrix_text(function_matrix(entity, binding)))
    else:
        terms_closed = all(d.is_closed() for _, d in entity.terms)
        if terms_closed:
            print(sum_closed_value(entity, binding))
        else:
            print(_matrix_text(sum_function_matrix(entity, binding)))
    return 0


def _emit_report(report, fmt: str) -> None:
    lines = report.record_lines() if fmt == "records" else report.text_lines()
    for line in lines:
        print(line)


def _cmd_verify(args) -> int:
    report = run_identity(
        args.identity, n=args.dim, trials=args.trials, seed=args.seed, jobs=args.jobs
    )
    _emit_report(report, args.format)
    return 0 if report.ok else 1


def _cmd_charpoly(args) -> int:
    binding = parse_matrix_file(_read_text(args.bind))
    a = binding.matrix(args.matrix)
    diag = charpoly_diagrammatic(a)
    oracle = matrices.charpoly_fl(a)
    mismatch = False
    for i, (d, o) in enumerate(zip(diag, oracle)):
        flag = "" if d == o else "  MISMATCH"
        print(f"c{i} diagram={d} oracle={o}{flag}")
        mismatch |= d != o
    print("status=" + ("disagree" if mismatch else "agree"))
    return 1 if mismatch else 0


def _cmd_polarize(args) -> int:
    report = run_identity("polarization", args.dim, args.trials, args.seed)
    _emit_report(report, args.format)
    return 0 if report.ok else 1


def _cmd_pfaffian(args) -> int:
    if args.dim % 2:
        print("pfaffian scan needs an even dimension", file=sys.stderr)
        return 2
    report = run_identity("pfaffian", args.dim, args.trials, args.seed, args.jobs)
    for rec in report.records:
        if rec.get("skipped"):
            print(f"trial={rec['trial']} skipped (Pf = 0)")
        else:
            print(f"trial={rec['trial']} ratio={rec['ratio']}")
    if report.status == "inconclusive":
        print("constant=inconclusive (all sampled Pfaffians were zero)")
        return 1
    if report.ok:
        print(f"constant={report.data['constant']}")
        return 0
    print("constant=inconsistent")
    return 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tracediagrams",
        description="Evaluate trace diagrams exactly and verify their matrix identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a .tdg diagram (value or function matrix)")
    p.add_argument("file", help="diagram file (.tdg)")
    p.add_argument("--bind", help="matrix binding file (.tmat)")
    p.add_argument("--diagram", help="which diagram to evaluate")
    p.add_argument("--dim", type=int, help="default dimension for builtin references")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify", help="run one identity's randomized exact checks")
    # polarization and the Pfaffian scan, which accept any dimension, have
    # their own commands
    p.add_argument("identity", choices=sorted(k for k, v in CATALOGUE.items() if v.dims))
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", default="0")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("charpoly", help="characteristic polynomial, diagrams vs oracle")
    p.add_argument("--bind", required=True)
    p.add_argument("--matrix", default="A")
    p.set_defaults(fn=_cmd_charpoly)

    p = sub.add_parser("polarize", help="compare the multi-matrix sum with polarization")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", default="0")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_polarize)

    p = sub.add_parser("pfaffian", help="scan the single-vertex pairing diagram ratio")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", default="0")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_pfaffian)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DslSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except TraceDiagramError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
