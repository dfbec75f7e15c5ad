"""Benchmark runner for tracediagrams.

    python3 perfbench/run.py --workload closed-eval --seed 1 --seconds 40 --trace 0

Runs one workload as a closed loop: one client, one request at a time, each
request a ``tracediagrams`` command line passed to ``tracediagrams.cli.main``
in this process. The seed makes INPUT_SETS sets of requests; one set sent in a
seeded shuffled order is a pass. Passes take the sets in turn until the next
pass would end after ``--seconds``. Every stdout is checked against the
oracles in :mod:`oracles`.

Request latency, throughput and set-up time are read from the CPU clock of
this process and its reaped children. The program is single-threaded and does
not wait, so that is its latency on a core of its own; it leaves out time the
shared host gives to other tenants. The wall-clock figures are in the report.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` the first half of the time runs untraced and the second half
traced (see :mod:`spans`), and the last line holds the per-layer metrics per
pass. The line before it is a JSON report with the environment, the failed
ratio, the tail percentile and the failures. Exit code 0 means every output
was correct; 1 means a wrong output; 2 means the program could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from random import Random
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 15
# Input sets per run, from seeds seed*INPUT_SETS .. seed*INPUT_SETS+INPUT_SETS-1;
# pass k uses set k mod INPUT_SETS, so one run averages over several inputs.
INPUT_SETS = 4
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "tracediagrams"}


def _fresh_import():
    """Import the package from ``src/`` anew, as a new process would."""
    for name in _package_modules():
        del sys.modules[name]
    cli = importlib.import_module("tracediagrams.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tracediagrams imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import, input generation and expected outputs, repeated; returns the last.

    Returns the CLI module, the request sets, and the median wall and CPU
    seconds of one set-up.
    """
    build = workloads.WORKLOADS[workload]
    walls, cpus = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0, c0 = perf_counter(), _cpu_seconds()
        cli = _fresh_import()
        sets = [build(seed * INPUT_SETS + k, workdir / f"set{k}") for k in range(INPUT_SETS)]
        walls.append(perf_counter() - t0)
        cpus.append(_cpu_seconds() - c0)
    gc.collect()  # the discarded imports are garbage; collect it before timing
    return cli, sets, statistics.median(walls), statistics.median(cpus)


def _cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


class Run:
    """Outcomes of the requests sent so far."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.outputs: dict[str, str] = {}

    def request(self, req: workloads.Request) -> tuple[float, float]:
        """Send one request; returns its wall and CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = perf_counter(), _cpu_seconds()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request; keep measuring the rest
            code = "exception: " + traceback.format_exc(limit=3)
        latency = perf_counter() - t0, _cpu_seconds() - c0
        self.attempted += 1
        problems = [f"{req.label}: exit {code}"] if code != 0 else req.problems(out.getvalue())
        if problems:
            self.failed += 1
            self.problems += problems
        self.outputs[req.label] = out.getvalue()
        return latency

    def passes(self, sets, seconds: float, rng: Random, tracer=None):
        """Whole passes until the next one would end after ``seconds``.

        Pass k sends the requests of ``sets[k % len(sets)]`` in shuffled order.
        Returns the wall and CPU seconds of each pass and of each request.
        """
        walls, cpus, wall_lat, cpu_lat = [], [], [], []
        start = perf_counter()
        while True:
            order = list(sets[len(walls) % len(sets)])
            rng.shuffle(order)
            t0, c0 = perf_counter(), _cpu_seconds()
            for i, req in enumerate(order):
                if tracer is not None:
                    tracer.request = (len(walls), i)
                wall, cpu = self.request(req)
                wall_lat.append(wall)
                cpu_lat.append(cpu)
            walls.append(perf_counter() - t0)
            cpus.append(_cpu_seconds() - c0)
            if perf_counter() - start + statistics.median(walls) > seconds:
                return walls, cpus, wall_lat, cpu_lat


def tail(latencies: list[float]) -> tuple[float, dict]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and which it is."""
    s = sorted(latencies)
    beyond = TAIL_BEYOND if len(s) > TAIL_BEYOND else 0
    pct = 100.0 * (len(s) - beyond) / len(s)
    return s[-beyond - 1], {"percentile": round(pct, 3), "samples": len(s), "beyond": beyond}


def check_digest(run: Run) -> str:
    """Pin the verify-mix records (minus elapsed) of the default program seed.

    Sends one untimed pass at that seed; its outputs replace the timed ones.
    """
    for req in workloads.verify_requests(workloads.DIGEST_SEED):
        run.request(req)
    want = workloads.pinned_digests()
    bad = sorted(
        label for label, digest in want.items()
        if workloads.record_digest(run.outputs.get(label, "")) != digest
    )
    for label in bad:
        run.failed += 1
        run.problems.append(f"{label}: records differ from verify_digest.json")
    return "mismatch: " + ", ".join(bad) if bad else "ok"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, trace: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "trace": trace,
        "cpu_control": "CPU frequency and pinning are not controlled",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DIGEST_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "tracediagrams").is_dir():
        print(f"no tracediagrams sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = Path(__file__).resolve().parent / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        try:
            cli, sets, *setup_s = setup(args.workload, args.seed, workdir)
        except Exception:
            traceback.print_exc()
            return 2
        run = Run(cli)
        rng = Random(f"order:{args.workload}:{args.seed}")
        env = environment(args.seed, bool(args.trace))
        report = {"workload": args.workload, "environment": env}
        if args.trace:
            metrics = traced(run, sets, args.seconds, rng, report)
        else:
            metrics = untraced(run, sets, args.seconds, rng, setup_s, report)
        if args.workload == "verify-mix":
            report["verify_digest"] = check_digest(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    report["failed_ratio"] = run.failed / run.attempted
    report["failures"] = run.problems[:20]
    print(json.dumps(report, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def untraced(run: Run, sets, seconds: float, rng: Random, setup: tuple, report) -> dict:
    walls, cpus, wall_lat, cpu_lat = run.passes(sets, seconds, rng)
    setup_wall, setup_cpu = setup
    tail_s, tail_note = tail(cpu_lat)
    wall_tail_s, _ = tail(wall_lat)
    report.update(
        passes=len(walls), requests=len(cpu_lat), pass_walls_s=walls, pass_cpus_s=cpus,
        latency_tail=tail_note,
        wall_clock={
            "setup_s": setup_wall,
            "requests_per_s": len(wall_lat) / sum(walls),
            "latency_p50_ms": statistics.median(wall_lat) * 1000,
            "latency_tail_ms": wall_tail_s * 1000,
        },
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": metric(setup_cpu, "s"),
        "requests_per_s": metric(len(cpu_lat) / sum(cpus), "1/s"),
        "latency_p50_ms": metric(statistics.median(cpu_lat) * 1000, "ms"),
        "latency_tail_ms": metric(tail_s * 1000, "ms"),
        "cpu_s": metric(statistics.fmean(cpus), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def traced(run: Run, sets, seconds: float, rng: Random, report) -> dict:
    plain_walls, *_ = run.passes(sets, seconds / 2, rng)
    tracer = spans.Tracer()
    tracer.install(_package_modules())
    try:
        walls, *_ = run.passes(sets, seconds / 2, rng, tracer)
    finally:
        tracer.uninstall()
    n = len(walls)
    out = spans.layer_metrics(tracer.spans, n)
    out["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(plain_walls) - 1
    out["trace.wall_s"] = sum(walls) / n
    out["trace.spans"] = len(tracer.spans) / n
    out["trace.worker_trials_missing"] = tracer.missing_worker_trials / n
    report.update(untraced_passes=len(plain_walls), traced_passes=n, trace_notes=tracer.notes,
                  worker_spans=tracer.worker_spans)
    units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("ratio") else "count")
             for k in out}
    return {k: metric(v, units[k]) for k, v in sorted(out.items())}


if __name__ == "__main__":
    sys.exit(main())
