"""Tests of the benchmark itself: inputs, failure accounting and span arithmetic."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def own_modules():
    """run.main re-imports tracediagrams; give the other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "tracediagrams"}
    yield
    for k in [k for k in sys.modules if k.split(".")[0] == "tracediagrams"]:
        del sys.modules[k]
    sys.modules.update(saved)


def _snapshot(reqs, workdir: Path):
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argvs = [tuple(a.replace(str(workdir), "<dir>") for a in r.argv) for r in reqs]
    return files, argvs, [r.expected for r in reqs]


@pytest.mark.parametrize("name", ["closed-eval", "open-sums"])
def test_same_seed_gives_same_inputs(tmp_path, name):
    build = workloads.WORKLOADS[name]
    a = _snapshot(build(7, tmp_path / "a"), tmp_path / "a")
    b = _snapshot(build(7, tmp_path / "b"), tmp_path / "b")
    assert a == b


def test_same_seed_gives_same_verify_requests(tmp_path):
    a, b = workloads.verify_mix(7, tmp_path), workloads.verify_mix(7, tmp_path)
    assert [r.argv for r in a] == [r.argv for r in b]
    assert all("7" in r.argv for r in a)


def test_other_seed_gives_other_inputs(tmp_path):
    a = _snapshot(workloads.closed_eval(1, tmp_path / "a"), tmp_path / "a")
    b = _snapshot(workloads.closed_eval(2, tmp_path / "b"), tmp_path / "b")
    assert a[0] != b[0]


def test_sparse_support_is_half_zero_and_seed_independent():
    for n, skew in ((5, False), (6, True)):
        supports = set()
        for seed in range(4):
            a = workloads.random_matrix(workloads.Random(seed), n, "sparse", skew)
            cells = [(i, j) for i in range(n) for j in range(i + 1 if skew else 0, n)]
            nonzero = sum(1 for i, j in cells if a[i][j] != 0)
            assert nonzero == (len(cells) + 1) // 2
            # the seed relabels the basis, so sorted row and column counts repeat
            rows = tuple(sorted(sum(1 for x in row if x) for row in a))
            cols = tuple(sorted(sum(1 for row in a if row[j]) for j in range(n)))
            supports.add((rows, cols))
        assert len(supports) == 1


def _tiny(corrupt: bool):
    def build(seed, workdir):
        f = workloads._Files(workdir)
        tdg = f.diagram("det2", "det(A) @ dim 2")
        tn = f.diagram("tn", "twonode(1) @ dim 2")
        a = [[1, 2], [3, 4]]
        tmat = f.write("a.tmat", workloads.tmat_text({"A": a}))
        good = oracles.render_value(oracles.det_value(a))
        return [
            workloads._eval("det2", tdg, tmat, good),
            workloads._eval("det2-b", tdg, tmat, good.replace("4", "5") if corrupt else good),
            workloads._eval("tn", tn, None, oracles.render_matrix(oracles.twonode_matrix(2, 1))),
        ]

    return build


def _run_tiny(monkeypatch, capsys, corrupt: bool, trace: int):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny(corrupt))
    argv = ["--workload", "tiny", "--seed", "0", "--seconds", "0.4", "--trace", str(trace)]
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_corrupted_expected_output_fails_the_run(monkeypatch, capsys, own_modules):
    code, report, result = _run_tiny(monkeypatch, capsys, corrupt=True, trace=0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 3 > 0
    assert report["failed_ratio"] == pytest.approx(1 / 3)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys, own_modules):
    code, report, result = _run_tiny(monkeypatch, capsys, corrupt=False, trace=1)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert metrics["engine.calls"] == 3 and metrics["dsl.calls"] > 0
    assert metrics["engine.fm_cells"] == 4 and metrics["engine.fm_nonzero"] == 2
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(
        metrics["trace.self_sum_s"])
    assert metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]


def test_passes_take_the_input_sets_in_turn():
    sent = []
    cli = SimpleNamespace(main=lambda argv: sent.append(argv[0]) or 0)
    sets = [[workloads.Request(f"r{k}", (f"set{k}",), check=lambda out: [])] for k in range(3)]
    walls, cpus, wall_lat, cpu_lat = run.Run(cli).passes(sets, 0.01, workloads.Random(0))
    assert len(walls) == len(cpus) == len(sent) == len(wall_lat) == len(cpu_lat) > 3
    assert sent[:6] == ["set0", "set1", "set2", "set0", "set1", "set2"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    value, note = run.tail([x / 10 for x in range(200, 0, -1)])
    assert value == pytest.approx(19.0)
    assert note == {"percentile": 95.0, "samples": 200, "beyond": 10}
    assert run.tail([3.0, 1.0])[0] == 3.0


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


def test_self_times_of_nested_spans():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("dsl.parse_diagram_set", 1.0, 4.0, 0),
        _span("builders.det", 2.0, 3.0, 1),
        _span("engine.evaluate_closed", 5.0, 9.0, 0),
        _span("engine.weight", 6.0, 8.0, 3),
        _span("algebra.is_relation", 9.0, 9.75, 0),
        _span("algebra.sum_function_matrix", 9.25, 9.5, 5),
    ]
    tree[-1][spans.COUNTS] = {"terms": 3}
    assert spans.self_times(tree) == pytest.approx([2.25, 2.0, 1.0, 2.0, 2.0, 0.5, 0.25])
    m = spans.layer_metrics(tree, passes=1)
    assert m["algebra.calls"] == 1
    assert m["algebra.sum_s"] == pytest.approx(0.25)
    assert m["algebra.terms_summed"] == 3
    assert m["cli.self_s"] == pytest.approx(2.25)
    assert m["engine.self_s"] == pytest.approx(4.0)
    # the nested engine.weight is inside the engine entry span, not a second call
    assert m["engine.calls"] == 1
    assert m["engine.eval_s"] == pytest.approx(4.0)
    assert m["dsl.parse_s"] == pytest.approx(3.0)
    assert m["trace.self_sum_s"] == pytest.approx(10.0)


def test_self_times_split_parallel_worker_spans():
    tree = [
        _span("identities.pool", 0.0, 10.0),
        _span("identities.run_single_trial", 1.0, 7.0, 0),
        _span("identities.run_single_trial", 2.0, 8.0, 0),
    ]
    # 0-1 and 8-10 pool alone; 1-2 first worker; 2-7 both, split; 7-8 second worker
    assert spans.self_times(tree) == pytest.approx([3.0, 3.5, 3.5])
    m = spans.layer_metrics(tree, passes=2)
    assert m["identities.pool_wait_s"] == pytest.approx(1.5)
    assert m["identities.trials"] == 1
    assert m["identities.trial_s"] == pytest.approx(6.0)
    assert m["trace.self_sum_s"] == pytest.approx(5.0)


def test_worker_spans_reach_the_trace(own_modules):
    cli = run._fresh_import()
    tracer = spans.Tracer()
    tracer.install({k: v for k, v in sys.modules.items() if k.split(".")[0] == "tracediagrams"})
    try:
        argv = ["verify", "binor", "--trials", "2", "--jobs", "2", "--format", "records"]
        with run.redirect_stdout(run.io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    names = [rec[spans.NAME] for rec in tracer.spans]
    pool = names.index("identities.pool")
    trials = [rec for rec in tracer.spans if rec[spans.NAME] == "identities.run_single_trial"]
    assert len(trials) == 2 and all(rec[spans.PARENT] == pool for rec in trials)
    assert tracer.worker_spans > 2 and tracer.missing_worker_trials == 0
    assert "engine.function_matrix" in names  # recorded inside the workers
    assert not hasattr(cli.main, "__wrapped__")  # uninstall put the originals back
