"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
check is an exact equality over the rationals at the stated sample sizes; the
stated runtime budgets are asserted too.
"""

import time
from random import Random

from tracediagrams import (
    Edge,
    MatrixBinding,
    TraceDiagram,
    builders,
    coefficient,
    enumerate_colorings,
    evaluate_closed,
    signature,
    sum_function_matrix,
)
from tracediagrams import matrices as mx
from tracediagrams.identities import (
    random_int_matrix,
    run_identity,
    trial_rng,
)


def _criterion(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_trace_diagram():
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        for trial in range(20):
            rng = trial_rng(f"tr{n}", trial)
            a = random_int_matrix(rng, n)
            got = evaluate_closed(
                builders.trace_loop(n, ("A",)), MatrixBinding(n, {"A": a})
            )
            ok &= got == mx.mtrace(a)
    _criterion(1, "trace loop equals matrix trace", ok, time.monotonic() - start, 1)


def test_criterion_02_determinant_diagram():
    start = time.monotonic()
    ok = all(
        run_identity("det-diagram", n=n, trials=20, seed="acc").ok for n in (2, 3, 4)
    )
    _criterion(2, "determinant diagram vs elimination", ok, time.monotonic() - start, 10)


def test_criterion_03_antisymmetrizer_collapse():
    start = time.monotonic()
    ok = all(
        sum_function_matrix(builders.antisymmetrizer(n, n + 1)).is_zero()
        for n in (1, 2, 3)
    )
    _criterion(3, "antisymmetrizer above dimension", ok, time.monotonic() - start, 5)


def test_criterion_04_cayley_hamilton():
    start = time.monotonic()
    ok = all(run_identity("ch", n=n, trials=20, seed="acc").ok for n in (2, 3))
    _criterion(4, "diagrammatic Cayley-Hamilton", ok, time.monotonic() - start, 30)


def test_criterion_05_generalized_ch():
    start = time.monotonic()
    ok = all(run_identity("ch-general", n=n, trials=20, seed="acc").ok for n in (2, 3))
    _criterion(5, "multi-matrix generalization", ok, time.monotonic() - start, 30)


def test_criterion_06_charpoly_coefficients():
    start = time.monotonic()
    ok = all(run_identity("charpoly", n=n, trials=20, seed="acc").ok for n in (2, 3, 4))
    _criterion(6, "characteristic coefficients", ok, time.monotonic() - start, 60)


def test_criterion_07_det_sum_and_symmetrizer_sum():
    start = time.monotonic()
    ok = all(run_identity("det-sum", n=n, trials=10, seed="acc").ok for n in (2, 3))
    ok &= all(
        run_identity("symmetrizer-sum", n=n, trials=10, seed="acc").ok for n in (2, 3)
    )
    _criterion(7, "determinant split and cycle decomposition", ok, time.monotonic() - start, 60)


def test_criterion_08_two_node_expansion_and_multiplicity():
    start = time.monotonic()
    ok = all(
        run_identity("antisym-two-node", n=n, trials=3, seed="acc").ok for n in (2, 3)
    )
    _criterion(8, "two-vertex expansion and shared-edge factor", ok, time.monotonic() - start, 60)


def test_criterion_09_framing_independence_and_functoriality():
    start = time.monotonic()
    ok = run_identity("framing-independence", n=3, trials=5, seed="acc").ok
    ok &= all(
        run_identity("functoriality", n=n, trials=10, seed="acc").ok for n in (2, 3)
    )
    _criterion(9, "framing independence and functoriality", ok, time.monotonic() - start, 60)


def test_criterion_10_vector_and_fricke():
    start = time.monotonic()
    ok = run_identity("vector", n=3, trials=20, seed="acc").ok
    ok &= run_identity("fricke", n=2, trials=20, seed="acc").ok
    _criterion(10, "vector identities and trace sum relation", ok, time.monotonic() - start, 30)


def test_criterion_11_polarization():
    start = time.monotonic()
    report = run_identity("polarization", 2, trials=5, seed="acc")
    ok = report.ok and report.data["constant"] == 2
    print(f"  polarization constant (dim 2): {report.data['constant']}")
    _criterion(11, "polarization of the single-matrix identity", ok, time.monotonic() - start, 30)


def test_criterion_12_pfaffian_scan():
    start = time.monotonic()
    ok = True
    for n in (2, 4):
        report = run_identity("pfaffian", n, trials=14, seed="acc")
        nonzero = report.data["samples_with_nonzero_pfaffian"]
        ok &= report.ok and nonzero >= 10
        print(f"  pfaffian ratio constant (dim {n}): {report.data['constant']}")
    _criterion(12, "single-vertex pairing ratio constancy", ok, time.monotonic() - start, 30)


def test_criterion_13_fast_path_self_consistency():
    start = time.monotonic()
    rng = Random("acc:fast")
    labels = ("A", "B")
    ok = True
    for _ in range(50):
        n = rng.randint(1, 4)
        binding = MatrixBinding(
            n,
            {
                lab: [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                for lab in labels
            },
        )
        edges = tuple(
            Edge(f"c{i}", None, None, tuple(rng.choices(labels, k=rng.randint(0, 3))))
            for i in range(rng.randint(0, 3))
        )
        d = TraceDiagram(n, (), edges, inputs=(), outputs=())
        # closed loops take the strand walk: check it against the signed
        # coloring sum, which is the definition
        want = sum(
            signature(d, col) * coefficient(d, col, binding)
            for col in enumerate_colorings(d)
        )
        ok &= evaluate_closed(d, binding) == want
    _criterion(13, "fast closed path equals coloring sum", ok, time.monotonic() - start, 30)
