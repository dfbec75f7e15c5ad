"""Identity drivers, polarization, the Pfaffian scan, and reports."""

import hashlib
import json
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from math import factorial, prod
from random import Random

import pytest

from tracediagrams import (
    FunctionMatrix,
    HomogeneityError,
    MatrixBinding,
    TraceDiagramError,
    builders,
    function_matrix,
    perms,
    sum_function_matrix,
    validate,
    weight,
)
from tracediagrams import algebra, identities
from tracediagrams import matrices as mx
from tracediagrams.identities import (
    VerificationReport,
    charpoly_diagrammatic,
    multiplicity_ratio_check,
    polarize,
    random_diagram,
    run_identity,
    trial_rng,
)


def test_charpoly_diagrammatic_known_matrix():
    cs = charpoly_diagrammatic([[1, 2], [3, 4]])
    assert cs == (Fraction(-2), Fraction(-5), Fraction(1))
    assert cs == mx.charpoly_fl(mx.freeze_matrix([[1, 2], [3, 4]]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_charpoly_routes_agree(n):
    rng = Random(f"cp{n}")
    for _ in range(3):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert charpoly_diagrammatic(a) == mx.charpoly_fl(mx.freeze_matrix(a))


@pytest.mark.parametrize(
    "identity,n",
    [
        ("ch", 2),
        ("ch", 3),
        ("ch-general", 2),
        ("ch-general", 3),
        ("binor", 3),
        ("det-diagram", 3),
        ("det-sum", 2),
        ("det-sum", 3),
        ("charpoly", 3),
        ("antisym-two-node", 2),
        ("antisym-two-node", 3),
        ("symmetrizer-sum", 2),
        ("symmetrizer-sum", 3),
        ("fricke", 2),
        ("vector", 3),
        ("framing-independence", 3),
        ("functoriality", 2),
        ("functoriality", 3),
    ],
)
def test_identity_drivers_pass(identity, n):
    report = run_identity(identity, n=n, trials=3, seed="unit")
    assert report.ok, report.witnesses


def test_run_identity_rejects_unknown_or_bad_dim():
    with pytest.raises(Exception):
        run_identity("nonesuch")
    with pytest.raises(Exception):
        run_identity("binor", n=2)


def test_binor_fixture_compares_the_weight_route(monkeypatch):
    # the fixture, which every trial reports, recomputes each entry by weights
    monkeypatch.setattr(algebra, "weight", lambda *args: Fraction(1))
    with pytest.raises(TraceDiagramError, match="routes disagree"):
        run_identity("binor", trials=2)


def test_parallel_trials_match_serial():
    pairs = [
        (
            run_identity("det-diagram", n=2, trials=6, seed=3, jobs=1),
            run_identity("det-diagram", n=2, trials=6, seed=3, jobs=2),
        ),
        (
            run_identity("pfaffian", 4, trials=6, seed=3),
            run_identity("pfaffian", 4, trials=6, seed=3, jobs=2),
        ),
        # the polarize command has no --jobs; its runner does
        (
            run_identity("polarization", 2, trials=3, seed=3),
            run_identity("polarization", n=2, trials=3, seed=3, jobs=2),
        ),
    ]
    # identities whose workers build a fixture
    for identity, n in [
        ("antisym-two-node", 3),
        ("framing-independence", 3),
        ("binor", 3),
        ("ch", 3),
        ("symmetrizer-sum", 3),
        ("fricke", 2),
        ("vector", 3),
    ]:
        pairs.append(
            (
                run_identity(identity, n=n, trials=3, seed=3, jobs=1),
                run_identity(identity, n=n, trials=3, seed=3, jobs=2),
            )
        )
    for serial, parallel in pairs:
        assert serial.records == parallel.records
        assert serial.status == parallel.status
        assert serial.data == parallel.data


# sha256 of record_lines() without "elapsed", at seed 0 and 5 trials, each
# identity at its default dimension; polarization at n=2, the Pfaffian at n=4
PINNED_RECORDS = {
    "antisym-two-node": "e481885d7fd8c30c306eda6bd3efb15d13464bebd2cc10936599893cad3034c5",
    "binor": "09eda496cdc41277a243e794c33a432e17d92f06fa68bc498c3a0dc5bdb4645f",
    "ch": "b7a90a979a6d0b536fa03a3f3b635d320277a7d236be8c3f15613fb76266b8d3",
    "ch-general": "fcfcc400b9e088e7b646acb9e4f0586d2099ad0cf0445eaa6a2bea108f2c71e3",
    "charpoly": "c582e16f3682511a115517d8a8601e86c406ab8d7ca4c07192c4b564480a08bc",
    "det-diagram": "d3b096a41ec677d1217dc2496b06e9febd58f93de63c9756baea1897de3fb44d",
    "det-sum": "a5e0c44faeeba0e0fc8bce5080b0a6791fe6f7110f2b3824d2829079b64bc468",
    "framing-independence": "8e2a998986518c110fff53673608584a74eeb67dbc43a0b18cacaabebb747d9c",
    "fricke": "4e466c22d32146f2fccc2168da0bd243a080fba81f25452f33ba52e149039aef",
    "functoriality": "6f991a551b7814e681b51db386540406c5411522db93797f9f5c1a4569d93420",
    "symmetrizer-sum": "aa77da2ea5f290de380ae2cc78c4f188c78b692ddd5d912d1642176f1417c8ff",
    "vector": "0e917f3cc65c4c43b097816874feaa00cec61f038fde47f826aa5b6d423ce992",
    "polarization": "394d72a81ff04003c88172d034dafc3ab938dc8300974fcc1f1e72e81c56a2b4",
    "pfaffian": "53bc2b9d93bb217adab44f8acf2ac1eea0095dd59379aa29fbf008de47aed306",
}


def _records_digest(report) -> str:
    lines = []
    for line in report.record_lines():
        rec = json.loads(line)
        rec.pop("elapsed", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("identity", sorted(PINNED_RECORDS))
def test_records_are_pinned(identity):
    # polarization and pfaffian run at their default dimensions, 2 and 4
    report = run_identity(identity, trials=5, seed=0)
    assert _records_digest(report) == PINNED_RECORDS[identity]


def test_fixture_is_built_once_per_run(monkeypatch):
    calls = []
    build = builders.ch_diagram

    def counted(n, labels):
        calls.append((n, tuple(labels)))
        return build(n, labels)

    monkeypatch.setattr(builders, "ch_diagram", counted)
    assert run_identity("ch-general", n=3, trials=4, seed=1).ok
    assert calls == [(3, ("A1", "A2", "A3"))]
    # the next run builds its own
    assert run_identity("ch-general", n=3, trials=2, seed=1).ok
    assert len(calls) == 2
    assert identities._run_fixtures is None


@pytest.mark.parametrize("identity", ["ch", "symmetrizer-sum"])
def test_raised_dimension_cap_runs(identity):
    assert max(identities.CATALOGUE[identity].dims) == 10
    assert run_identity(identity, n=10, trials=1, seed=0).ok


@pytest.mark.parametrize("identity, cap", [("det-diagram", 12), ("charpoly", 10), ("det-sum", 7)])
def test_raised_determinant_caps_run(identity, cap):
    # ch-general's cap, 7, costs seconds a trial and runs in CI's worker step
    assert max(identities.CATALOGUE[identity].dims) == cap
    assert max(identities.CATALOGUE["ch-general"].dims) == 7
    assert run_identity(identity, n=cap, trials=1, seed=0).ok


def _functoriality_pairs(n, rng):
    """A binding and the (top, bottom) and (left, right) pairs the
    functoriality check composes and tensors, drawn as it draws them."""
    b = MatrixBinding(n, {lab: identities.random_int_matrix(rng, n, -4, 4) for lab in "AB"})
    glue = rng.randint(0, 2)
    bottom = random_diagram(rng, n, identities._arity(rng, n, glue), glue)
    top = random_diagram(rng, n, glue, identities._arity(rng, n, glue))
    left = random_diagram(rng, n, identities._arity(rng, n, 0), identities._arity(rng, n, 0))
    right = random_diagram(rng, n, identities._arity(rng, n, 0), identities._arity(rng, n, 0))
    return b, (top, bottom), (left, right)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_products_match_the_dense_ones(n):
    # the functoriality check multiplies function matrices cell by cell; the
    # dense matmul and kron of their entries must give the same matrices
    for trial in range(6):
        b, (top, bottom), (left, right) = _functoriality_pairs(n, trial_rng(f"fm{n}", trial))
        t, u, x, y = (function_matrix(d, b) for d in (top, bottom, left, right))
        assert identities._product(t, u).entries == mx.matmul(t.entries, u.entries)
        assert identities._kron(x, y).entries == mx.kron(x.entries, y.entries)


@pytest.mark.parametrize(
    "name, problem",
    [
        ("_product", "composition does not match the matrix product"),
        ("_kron", "tensor does not match the Kronecker product"),
    ],
)
def test_functoriality_fails_on_a_perturbed_product(monkeypatch, name, problem):
    exact = getattr(identities, name)

    def perturbed(a, b):  # one more at cell 0
        fm = exact(a, b)
        return fm + FunctionMatrix(fm.n, fm.input_arity, fm.output_arity, {0: 1})

    monkeypatch.setattr(identities, name, perturbed)
    for n in (2, 3):
        fields = identities._check_functoriality(n, trial_rng(0, 0), None)
        assert not fields["ok"]
        assert fields["detail"] == problem


@pytest.mark.parametrize("identity", ["ch", "ch-general"])
def test_two_by_two_summands_are_evaluated_once(monkeypatch, identity):
    calls = []
    for module in (identities, algebra):
        evaluate = module.function_matrix
        monkeypatch.setattr(
            module, "function_matrix", lambda d, b, f=evaluate: calls.append(d) or f(d, b)
        )
    assert run_identity(identity, n=2, trials=1, seed=0).ok
    assert len(calls) == 6


def test_binding_free_failure_shows_in_every_trial(monkeypatch):
    # the binding-free multiplicity check runs once per run; its message
    # still comes before each k's per-trial exchange check
    monkeypatch.setattr(identities, "multiplicity_ratio_check", lambda n, k: False)
    monkeypatch.setattr(identities, "_exchange_holds", lambda walk, b: False)
    report = run_identity("antisym-two-node", n=2, trials=3, seed=0)
    assert report.status == "failed"
    want = "; ".join(
        f"{check} fails at k={k}"
        for k in (0, 1)
        for check in ("shared-edge multiplicity", "marked exchange invariance")
    )
    assert [w["detail"] for w in report.witnesses] == [want] * 3


def _exchange_mutant(monkeypatch, tamper):
    """The marked exchange check at n=3, k=0 with ``tamper(d, colorings)`` applied
    to the enumerator's stream."""
    enumerate_colorings = identities.enumerate_colorings
    monkeypatch.setattr(
        identities, "enumerate_colorings", lambda d: tamper(d, list(enumerate_colorings(d)))
    )
    b = MatrixBinding(3, {"A": [[1, 2, 0], [0, 3, 1], [4, 0, 1]]})
    return identities._exchange_holds(identities._exchange_walk(3, 0), b)


def test_marked_exchange_fails_on_a_changed_contribution(monkeypatch):
    coefficient = identities.coefficient
    target = []

    def tamper(d, colorings):
        target.append(colorings[1])
        return colorings

    def changed(d, col, binding):
        value = coefficient(d, col, binding)
        return value + 1 if col == target[0] else value

    monkeypatch.setattr(identities, "coefficient", changed)
    assert not _exchange_mutant(monkeypatch, tamper)


def test_marked_exchange_fails_on_a_dropped_image(monkeypatch):
    assert _exchange_mutant(monkeypatch, lambda d, colorings: colorings)
    assert not _exchange_mutant(monkeypatch, lambda d, colorings: colorings[:1] + colorings[2:])


def test_det_sum_special_cases():
    n = 3
    rng = Random("detsum")
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    zero = [[0] * n for _ in range(n)]
    terms = identities._det_sum_terms(n)
    assert identities._det_split_holds(terms, MatrixBinding(n, {"A": a, "B": zero}))
    assert identities._det_split_holds(terms, MatrixBinding(n, {"A": a, "B": a}))
    am = mx.freeze_matrix(a)
    assert mx.bareiss_det(mx.madd(am, am)) == 2**n * mx.bareiss_det(am)


def test_symmetrizer_sum_small_cases():
    b = MatrixBinding(2, {"A": [[1, 2], [3, 4]]})
    a = b.matrix("A")
    for k in (0, 1):
        total = builders.ch_classes(2, "A", k)
        assert identities._cycle_sum_holds(k, total, identities._loop_sums(2, k), b)
    # k = 1 reads tr(A) I - A on both sides
    lhs = sum_function_matrix(builders.ch_diagram(2, ["A"]), b).entries
    want = mx.madd(mx.mscale(mx.mtrace(a), mx.identity(2)), mx.mscale(-1, a))
    assert lhs == want


@pytest.mark.parametrize("n", [2, 3])
def test_multiplicity_ratio_all_k(n):
    for k in range(n):
        assert multiplicity_ratio_check(n, k)


def test_marked_exchange_invariance():
    b = MatrixBinding(3, {"A": [[1, 2, 0], [0, 3, 1], [4, 0, 1]]})
    for k in range(3):
        assert identities._exchange_holds(identities._exchange_walk(3, k), b)


def test_generalized_sum_specializes_to_single_matrix():
    # binding every label to the same matrix reproduces the one-matrix sum
    rng = Random("same")
    for n in (2, 3):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        labels = [f"A{i}" for i in range(1, n + 1)]
        general = sum_function_matrix(
            builders.ch_diagram(n, labels),
            MatrixBinding(n, {lab: a for lab in labels}),
        )
        single = sum_function_matrix(
            builders.ch_diagram(n, ["A"] * n), MatrixBinding(n, {"A": a})
        )
        assert general.entries == single.entries


def test_fricke_identity_matrix_cases():
    from tracediagrams.algebra import sum_closed_value

    i2 = mx.identity(2)
    b = MatrixBinding(2, {"A": i2, "B": i2, "C": i2})
    # tr(I^3) + tr(I^3) = 4 matches the right side 2*2*3 - 8
    assert mx.mtrace(i2) ** 3 == 8
    assert sum_closed_value(builders.fricke_traced_sum("A", "B", "C"), b) == 0
    rng = Random("fri")
    a = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
    bb = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
    c_is_identity = MatrixBinding(2, {"A": a, "B": bb, "C": i2})
    assert sum_closed_value(builders.fricke_traced_sum("A", "B", "C"), c_is_identity) == 0


def test_two_by_two_determinant_from_traces():
    # corollary used to regroup the six summands: det = (tr^2 - tr(A^2)) / 2,
    # and the fully closed two-loop antisymmetrizer computes exactly that
    from tracediagrams.algebra import sum_closed_value

    rng = Random("cor")
    for _ in range(10):
        a = mx.freeze_matrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
        traces = (mx.mtrace(a) ** 2 - mx.mtrace(mx.matmul(a, a))) / 2
        assert mx.bareiss_det(a) == traces
        closed = sum_closed_value(
            builders.antisym_closed_loops(2, ["A", "A"]), MatrixBinding(2, {"A": a})
        )
        assert closed == 2 * mx.bareiss_det(a)


def test_polarize_square_monomial():
    rng = Random("pol")
    a1 = mx.freeze_matrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
    a2 = mx.freeze_matrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
    got = polarize(lambda m: mx.matmul(m, m), 2, (a1, a2))
    want = mx.mscale(
        Fraction(1, 2), mx.madd(mx.matmul(a1, a2), mx.matmul(a2, a1))
    )
    assert got == want


def test_polarize_trace_monomial():
    rng = Random("pol2")
    a1 = mx.freeze_matrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
    a2 = mx.freeze_matrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
    got = polarize(lambda m: mx.mscale(mx.mtrace(m), m), 2, (a1, a2))
    want = mx.mscale(
        Fraction(1, 2),
        mx.madd(mx.mscale(mx.mtrace(a1), a2), mx.mscale(mx.mtrace(a2), a1)),
    )
    assert got == want


def test_polarize_diagonal_recovers_function():
    rng = Random("pol3")
    a = mx.freeze_matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    tau = lambda m: mx.word_product((m, m, m))
    got = polarize(tau, 3, (a, a, a))
    assert got == tau(a)


def test_polarize_flags_inhomogeneous_function():
    a = mx.identity(2)
    with pytest.raises(HomogeneityError):
        polarize(lambda m: mx.madd(m, mx.identity(2)), 2, (a, a))


@pytest.mark.parametrize("n", [2, 3])
def test_polarization_check_passes(n):
    report = run_identity("polarization", n, trials=2, seed="unit")
    assert report.ok
    assert report.data["constant"] == factorial(n)


def _cycle_lengths(img):
    """Cycle lengths of a permutation of 1..k given by its images, the cycle
    through 1 first."""
    seen, out = set(), []
    for start in range(1, len(img) + 1):
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = img[cur - 1]
            length += 1
        if length:
            out.append(length)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_polarization_classes_match_a_cycle_count(n):
    # the cycle through strand 1 leaves an open strand with one letter fewer
    # than its length; every other cycle closes into a loop
    want = {}
    for img in permutations(range(1, n + 2)):
        first, *rest = _cycle_lengths(img)
        key = (first - 1, tuple(sorted(rest)))
        want[key] = want.get(key, 0) + perms.sign(img)
    fix = identities._polarization_fixture(n)
    assert [(i, lam, count) for i, lam, count, _ in fix] == sorted(
        (i, lam, count) for (i, lam), count in want.items()
    )
    assert sum(len(sub.terms) for *_, sub in fix) == factorial(n + 1)
    # each term's strand form has its class: i letters on the open strand and
    # the loop words' lengths; the class's signed count sums its coefficients
    for i, lam, count, sub in fix:
        for _, form in sub.terms:
            ((_, word, *_),) = form.strands
            assert (len(word), tuple(sorted(len(w) for _, w in form.loops))) == (i, lam)
        assert sum(c for c, _ in sub.terms) == count

    labels = [f"A{i}" for i in range(1, n + 1)]
    rng = trial_rng("classes", n)
    b = MatrixBinding(n, {lab: identities.random_int_matrix(rng, n) for lab in labels})
    parts = [sum_function_matrix(sub, b).entries for *_, sub in fix]
    whole = sum_function_matrix(builders.ch_diagram(n, labels), b).entries
    assert reduce(mx.madd, parts) == whole


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shared_table_polar_forms_match_polarize(n):
    # every class's polar form read from one trial's table equals the one
    # polarize() computes on its own, on rational matrices of mixed denominators
    rng = trial_rng("table", n)
    mats = [identities.random_rational_matrix(rng, n) for _ in range(n)]
    table = identities._polar_table(mats, n, n)

    def power(x, j):
        return mx.word_product([x] * j) if j else mx.identity(n)

    for i, lam, _, _ in identities._polarization_fixture(n):

        def tau(x):
            return mx.mscale(prod(mx.mtrace(power(x, ell)) for ell in lam), power(x, i))

        got = mx._rational(*identities._polar_lattice(identities._monomial_fn(i, lam), table))
        assert got == polarize(tau, n, mats)


def test_polarization_check_fails_on_a_negated_class_count():
    fix = identities._polarization_fixture(3)
    assert identities._check_polarization(3, trial_rng(0, 0), fix)["ok"]
    for j, (i, lam, count, sub) in enumerate(fix):
        broken = fix[:j] + [(i, lam, -count, sub)] + fix[j + 1 :]
        fields = identities._check_polarization(3, trial_rng(0, 0), broken)
        assert not fields["ok"] and fields["detail"] == f"class (i={i}, cycles={lam}) mismatch"


@pytest.mark.parametrize("i, lam", [(1, (1,)), (2, (2,)), (0, (1, 1, 1, 1))])
def test_shared_table_refuses_an_inhomogeneous_class(i, lam):
    rng = trial_rng("table", 3)
    table = identities._polar_table([identities.random_int_matrix(rng, 3) for _ in "ABC"], 3, 3)
    with pytest.raises(HomogeneityError):
        identities._polar_lattice(identities._monomial_fn(i, lam), table)


def test_framing_reference_cells_are_the_pinned_weights():
    # the check compares every framing with d's own; here that framing's cells,
    # at the fixture's index of each leaf coloring, equal the pinned-leaf weights
    _, framed, own = identities._framing_fixture(3)
    d, cells = framed[own]
    leaves = d.inputs + d.outputs
    colorings = [dict(zip(leaves, c)) for c in product(range(1, 4), repeat=len(leaves))]
    for seed in ("cross", 0):  # seed 0 draws the check's trial-0 binding
        rng = trial_rng(seed, 0)
        b = MatrixBinding(3, {lab: identities.random_rational_matrix(rng, 3) for lab in "AB"})
        fm = function_matrix(d, b)
        weights = [weight(d, c, b) for c in colorings]
        assert len(cells) == len(weights) == 81 and any(weights)
        for c, idx, w in zip(colorings, cells, weights):
            assert Fraction(fm.cells.get(idx, 0), fm.den) == w
            assert fm.entry([c[v] for v in d.outputs], [c[v] for v in d.inputs]) == w


def test_framing_check_fails_on_swapped_cells():
    holds, framed, own = identities._framing_fixture(3)
    assert identities._check_framing_independence(3, trial_rng(0, 0), (holds, framed, own))["ok"]
    for where in (own, len(framed) - 1):  # the reference framing, then another
        f, cells = framed[where]
        swapped = [cells[1], cells[0], *cells[2:]]
        broken = framed[:where] + [(f, swapped)] + framed[where + 1 :]
        fields = identities._check_framing_independence(3, trial_rng(0, 0), (holds, broken, own))
        assert not fields["ok"] and fields["detail"] == "weight changed under reframing"


def test_pfaffian_diagram_is_built_once_per_run(monkeypatch):
    calls = []
    build = builders.pfaffian_diagram
    monkeypatch.setattr(builders, "pfaffian_diagram", lambda n, a: calls.append(n) or build(n, a))
    report = run_identity("pfaffian", n=6, trials=4, seed=0)
    assert report.data["samples_with_nonzero_pfaffian"] > 1
    assert calls == [6]
    # odd sizes have Pfaffian 0 and build nothing
    assert run_identity("pfaffian", n=5, trials=2, seed=0).status == "inconclusive"
    assert calls == [6]


def test_pfaffian_scan_consistent():
    rep2 = run_identity("pfaffian", 2, trials=8, seed="pf")
    rep4 = run_identity("pfaffian", 4, trials=8, seed="pf")
    assert rep2.ok and rep4.ok
    assert rep2.data["constant"] == "-2"
    assert rep4.data["constant"] == "8"


def test_pfaffian_scan_inconclusive_without_samples():
    # every skew-symmetric matrix of odd size has Pfaffian 0
    rep = run_identity("pfaffian", 3, trials=4, seed=0)
    assert rep.status == "inconclusive"
    assert rep.data["constant"] == "undetermined"


@pytest.mark.parametrize("identity", ["det-diagram", "polarization", "pfaffian"])
@pytest.mark.parametrize("trials, jobs", [(0, 1), (-3, 1), (2, 0)])
def test_run_identity_refuses_empty_runs(identity, trials, jobs):
    with pytest.raises(TraceDiagramError):
        run_identity(identity, n=2, trials=trials, jobs=jobs)


def test_random_diagram_is_valid_and_framed():
    for trial in range(20):
        rng = trial_rng("gen", trial)
        n = rng.choice((2, 3))
        n_out = rng.randint(0, 2)
        n_in = n_out % 2 if n % 2 == 0 else rng.randint(0, 2)
        d = random_diagram(rng, n, n_in, n_out)
        assert validate(d).ok, validate(d).violations
        assert len(d.inputs) == n_in and len(d.outputs) == n_out


def test_report_serialization_round_trip():
    report = VerificationReport(
        identity="demo",
        dimension=2,
        trials=2,
        status="failed",
        witnesses=({"trial": 1, "seed": "0:1", "detail": "residual 5"},),
        elapsed=0.25,
        records=({"trial": 0, "ok": True}, {"trial": 1, "ok": False, "detail": "residual 5"}),
        data={"constant": 2},
    )
    text = report.text_lines()
    assert any("status=failed" in line for line in text)
    assert any("witness trial=1" in line for line in text)
    recs = [json.loads(line) for line in report.record_lines()]
    assert recs[-1]["status"] == "failed"
    assert recs[0]["identity"] == "demo"
    assert not report.ok
