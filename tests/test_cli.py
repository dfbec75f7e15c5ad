"""Command-line behavior: output, exit codes, determinism across --jobs."""

import json

import pytest

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
