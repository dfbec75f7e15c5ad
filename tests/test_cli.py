"""Command-line behavior: output, exit codes, determinism across --jobs."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tracediagrams
from tracediagrams import FunctionMatrix, MatrixBinding, function_matrix, tensor
from tracediagrams import cli
from tracediagrams.builders import cross_product_diagram, matrix_strand, trace_loop
from tracediagrams.cli import main


@pytest.fixture
def bound_files(tmp_path):
    tdg = tmp_path / "d.tdg"
    tdg.write_text(
        "diagram loopA\ndim 2\nloop e1 mark A\n"
        "diagram det2 = builtin:det(A) @ dim 2\n",
        encoding="utf-8",
    )
    tmat = tmp_path / "m.tmat"
    tmat.write_text("matrix A 2 2\n1 2\n3 4\n", encoding="utf-8")
    ident = tmp_path / "i.tmat"
    ident.write_text("matrix A 2 2\n1 0\n0 1\n", encoding="utf-8")
    return tdg, tmat, ident


def test_eval_trace(bound_files, capsys):
    tdg, tmat, _ = bound_files
    code = main(["eval", str(tdg), "--bind", str(tmat), "--diagram", "loopA"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "5"


def test_eval_det_identity(bound_files, capsys):
    tdg, _, ident = bound_files
    code = main(["eval", str(tdg), "--bind", str(ident), "--diagram", "det2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-2"


def test_eval_framed_prints_matrix(tmp_path, capsys):
    tdg = tmp_path / "s.tdg"
    tdg.write_text("diagram s = builtin:strand(A) @ dim 2\n", encoding="utf-8")
    tmat = tmp_path / "m.tmat"
    tmat.write_text("matrix A 2 2\n1 2\n3 4\n", encoding="utf-8")
    assert main(["eval", str(tdg), "--bind", str(tmat)]) == 0
    assert capsys.readouterr().out == "1 2\n3 4\n"


def test_eval_framed_prints_rational_cells(tmp_path, capsys):
    tdg = tmp_path / "s.tdg"
    tdg.write_text("diagram s = builtin:strand(A, B) @ dim 2\n", encoding="utf-8")
    tmat = tmp_path / "m.tmat"
    tmat.write_text(
        "matrix A 2 2\n1/2 -3/4\n0 5\nmatrix B 2 2\n1 0\n0 1/3\n", encoding="utf-8"
    )
    assert main(["eval", str(tdg), "--bind", str(tmat)]) == 0
    assert capsys.readouterr().out == "1/2 -1/4\n0 5/3\n"


def _dense_text(fm):
    return "\n".join(" ".join(str(x) for x in row) for row in fm.entries)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2))
def test_sparse_printer_matches_the_dense_rendering(data, n, ins, outs):
    size = n ** (ins + outs)
    cells = data.draw(st.dictionaries(
        st.integers(0, size - 1), st.integers(-40, 40).filter(bool), max_size=size
    ))
    den = data.draw(st.integers(-12, 12).filter(bool))
    fm = FunctionMatrix(n, ins, outs, cells, den)
    assert cli._matrix_text(fm) == _dense_text(fm)


def test_sparse_printer_on_diagram_shapes():
    half = Fraction(1, 2)
    b = MatrixBinding(
        3,
        {"A": [[half, -3, 0], [0, Fraction(-7, 4), 1], [2, 0, 0]], "B": [[0] * 3] * 3},
        {"u": [half, -1, 2], "v": [0, Fraction(2, 3), -5]},
    )
    shapes = [
        function_matrix(cross_product_diagram("u", "v"), b),  # 0-in/1-out
        function_matrix(trace_loop(3, "A"), b),  # 1x1, closed
        function_matrix(tensor(matrix_strand(3, "A"), matrix_strand(3, "A")), b),
        function_matrix(matrix_strand(3, "B"), b),  # all zero
    ]
    texts = [cli._matrix_text(fm) for fm in shapes]
    assert texts == [_dense_text(fm) for fm in shapes]
    assert texts[0].splitlines() == ["11/3", "5/2", "1/3"]
    assert texts[1] == "-5/4"
    assert "-7/8" in texts[2].split() and "49/16" in texts[2].split()
    assert texts[3] == "0 0 0\n0 0 0\n0 0 0"


def test_eval_formal_sum(tmp_path, capsys):
    tdg = tmp_path / "a.tdg"
    tdg.write_text("diagram z = builtin:antisym(3) @ dim 2\n", encoding="utf-8")
    assert main(["eval", str(tdg)]) == 0
    out = capsys.readouterr().out
    assert set(out.split()) == {"0"}


def test_eval_unbound_label_exits_2(bound_files, capsys):
    tdg, _, _ = bound_files
    code = main(["eval", str(tdg), "--diagram", "loopA"])
    assert code == 2
    assert "'A'" in capsys.readouterr().err


_LEAVES = "dim 2\nvertex a leaf\nvertex z leaf\n"


@pytest.mark.parametrize(
    "tdg, bind, err",
    [
        ("dim 2\nvertex x leaf vec u\nedge e x x\n", False,
         "invalid diagram: leaf x has degree 2, expected 1"),
        (_LEAVES + "vertex p leaf\nvertex q leaf\nedge e a z mark A\nedge f p q\n"
         "inputs e@a\noutputs e@z\n", True,
         "invalid diagram: framing not a partition of the open leaves"),
        ("diagram s = builtin:strand(B, A) @ dim 2\n", False, "label 'A' is not bound"),
        ("diagram s = builtin:strand(A) @ dim 3\n", True,
         "binding dimension 2 != diagram dimension 3"),
        (_LEAVES + "edge e a z mark A\n", True, "function matrix needs a framed diagram"),
    ],
    ids=["leaf-degree-2", "framing", "unbound", "dimension", "unframed"],
)
def test_eval_malformed_vertex_free_diagram_exits_2(bound_files, tmp_path, capsys, tdg, bind, err):
    path = tmp_path / "bad.tdg"
    path.write_text(tdg, encoding="utf-8")
    argv = ["eval", str(path)] + (["--bind", str(bound_files[1])] if bind else [])
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == err + "\n"


@pytest.mark.parametrize(
    "tmat, err",
    [
        ("matrix A 0 0\nmatrix B 1 1\n2\n", "line 1: matrix 'A' is empty"),
        ("vector u 0\n", "line 1: vector 'u' is empty"),
    ],
)
def test_eval_empty_matrix_block_exits_2(tmp_path, capsys, tmat, err):
    tdg = tmp_path / "s.tdg"
    tdg.write_text("diagram s = builtin:strand(B) @ dim 1\n", encoding="utf-8")
    (tmp_path / "z.tmat").write_text(tmat, encoding="utf-8")
    assert main(["eval", str(tdg), "--bind", str(tmp_path / "z.tmat")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"syntax error: {err}\n"


def test_eval_repeated_matrix_block_exits_2(tmp_path, capsys):
    tdg = tmp_path / "s.tdg"
    tdg.write_text("diagram s = builtin:strand(A) @ dim 2\n", encoding="utf-8")
    tmat = tmp_path / "m.tmat"
    tmat.write_text("matrix A 2 2\n1 2\n3 4\nmatrix A 2 2\n5 6\n7 8\n", encoding="utf-8")
    assert main(["eval", str(tdg), "--bind", str(tmat)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "syntax error: line 4: duplicate matrix 'A'\n"


def test_eval_needs_diagram_choice(bound_files, capsys):
    tdg, tmat, _ = bound_files
    assert main(["eval", str(tdg), "--bind", str(tmat)]) == 2
    assert "--diagram" in capsys.readouterr().err


def test_eval_malformed_builtin_argument_exits_2(tmp_path, capsys):
    tdg = tmp_path / "bad.tdg"
    tdg.write_text("diagram d = builtin:id(x) @ dim 2\n", encoding="utf-8")
    assert main(["eval", str(tdg)]) == 2
    assert "syntax error" in capsys.readouterr().err


@pytest.mark.parametrize("builtin", ["antisym(-1)", "id(-2)"])
def test_eval_negative_strand_count_exits_2(tmp_path, capsys, builtin):
    tdg = tmp_path / "neg.tdg"
    tdg.write_text(f"diagram d = builtin:{builtin} @ dim 2\n", encoding="utf-8")
    assert main(["eval", str(tdg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "strand count must be >= 0" in out.err


def test_eval_missing_file(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "nope.tdg")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "{dir}"],
        ["eval", "{garbled}"],
        ["eval", "{tdg}", "--bind", "{garbled}"],
        ["eval", "{tdg}", "--bind", "{dir}"],
        ["charpoly", "--bind", "{garbled}"],
        ["charpoly", "--bind", "{dir}"],
    ],
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, argv):
    tdg = tmp_path / "s.tdg"
    tdg.write_text("diagram s = builtin:strand(A) @ dim 2\n", encoding="utf-8")
    garbled = tmp_path / "garbled.tdg"
    garbled.write_bytes(b"\xff\xfe")
    paths = {"dir": tmp_path, "garbled": garbled, "tdg": tdg}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_exit_codes(capsys):
    assert main(["verify", "ch", "--dim", "2", "--trials", "2", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "status=proven-exact-on-samples" in out


def test_verify_wrong_dimension_exits_2(capsys):
    assert main(["verify", "binor", "--dim", "2"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "det-diagram", "--trials", "0"],
        ["verify", "det-diagram", "--trials", "-3"],
        ["verify", "det-diagram", "--jobs", "0"],
        ["polarize", "--trials", "0"],
        ["pfaffian", "--dim", "2", "--trials", "0"],
        ["pfaffian", "--dim", "2", "--jobs", "0"],
    ],
)
def test_empty_trial_runs_exit_2(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "at least 1" in captured.err
    assert "proven-exact-on-samples" not in captured.out


@pytest.mark.parametrize(
    "args",
    [
        ["polarize", "--dim", "-1"],
        ["polarize", "--dim", "0"],
        ["pfaffian", "--dim", "-2"],
        ["pfaffian", "--dim", "0"],
    ],
)
def test_non_positive_dimensions_exit_2(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"dimension must be >= 1, got {args[2]}\n"
    assert captured.out == ""


def test_verify_jobs_do_not_change_output(capsys):
    args = ["verify", "det-diagram", "--dim", "2", "--trials", "4", "--seed", "1",
            "--format", "records"]
    assert main(args + ["--jobs", "1"]) == 0
    one = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    two = capsys.readouterr().out
    # timing differs; compare every per-trial record
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in text.strip().splitlines()
    ]
    assert strip(one) == strip(two)


def _session(argvs, capsys):
    """Exit code, stdout without timings, and stderr of each command in turn."""
    out = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        stdout = re.sub(r"elapsed(=|\": )[0-9.e-]+", "elapsed", captured.out)
        out.append((code, stdout, captured.err))
    return out


def test_reused_parser_matches_a_fresh_parser(bound_files, monkeypatch, capsys):
    tdg, tmat, _ = bound_files
    argvs = [
        ["verify", "det-diagram", "--dim", "2", "--trials", "2", "--seed", "3",
         "--format", "records"],
        ["verify", "det-diagram", "--dim", "2", "--trials", "2", "--seed", "3"],
        ["verify", "no-such-identity"],
        ["eval", str(tdg), "--bind", str(tmat), "--diagram", "det2"],
        ["verify", "binor", "--trials", "1", "--format", "records"],
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = _session(argvs, capsys)
    cli.build_parser.cache_clear()
    reused = _session(argvs, capsys)
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
    assert fresh[0][1].startswith("{") and fresh[1][1].startswith("identity=det-diagram")
    assert "invalid choice" in fresh[2][2]


def test_jobs_one_loads_no_process_pool():
    script = (
        "import sys\n"
        "pool = lambda: [m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')]\n"
        "import tracediagrams\n"
        "assert not pool(), pool()\n"
        "from tracediagrams.cli import main\n"
        "assert main(['verify', 'binor', '--trials', '1']) == 0\n"
        "assert not pool(), pool()\n"
    )
    src = str(Path(tracediagrams.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_charpoly_command(bound_files, capsys):
    _, tmat, _ = bound_files
    assert main(["charpoly", "--bind", str(tmat), "--matrix", "A"]) == 0
    out = capsys.readouterr().out
    assert "c0 diagram=-2 oracle=-2" in out
    assert "status=agree" in out


def test_polarize_command(capsys):
    assert main(["polarize", "--dim", "2", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "constant=2" in out


def test_pfaffian_command(capsys):
    assert main(["pfaffian", "--dim", "2", "--trials", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "constant=-2" in out
    assert main(["pfaffian", "--dim", "3", "--trials", "2"]) == 2
