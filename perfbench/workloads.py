"""Seeded workload generation: input files, request argv and output checks.

Each workload is a list of requests, one ``tracediagrams`` command line each.
The generated ``.tdg``/``.tmat`` files and the argv are the only input the
program gets; the expected outputs come from :mod:`oracles`, which does not
import the program. The same seed always writes byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, Optional

import oracles

# The program seed whose verify-mix records are pinned by verify_digest.json.
DIGEST_SEED = 0
DIGEST_FILE = Path(__file__).with_name("verify_digest.json")


@dataclass(frozen=True)
class Request:
    label: str
    argv: tuple[str, ...]
    expected: Optional[str] = None  # exact stdout, when the output is a value or matrix
    check: Optional[Callable[[str], list[str]]] = None  # structured check -> problems

    def problems(self, stdout: str) -> list[str]:
        if self.check is not None:
            return self.check(stdout)
        if stdout != self.expected:
            return [f"{self.label}: stdout differs from the oracle's"]
        return []


# -- bindings ----------------------------------------------------------------

KINDS = ("int", "rat", "sparse")


def _nonzero_int(rng: Random) -> int:
    return rng.choice([x for x in range(-9, 10) if x])


def _entry(rng: Random, kind: str):
    if kind == "rat":
        return Fraction(_nonzero_int(rng), rng.randint(1, 5))
    return _nonzero_int(rng)


def _sparse_pattern(n: int, skew: bool) -> list[list[bool]]:
    """A fixed half-zero support; the seed only relabels the basis.

    Enumeration prunes zero entries, so its cost depends on the support.
    Drawing the support afresh per seed would make the cost of a request
    depend on the seed; a simultaneous row/column permutation of one fixed
    support leaves the search tree isomorphic, so every seed costs the same.
    """
    rng = Random(f"support:{n}:{skew}")
    cells = [(i, j) for i in range(n) for j in range(i + 1 if skew else 0, n)]
    keep = set()
    if not skew:  # a permutation in the support keeps the determinant nonzero
        keep |= set(enumerate(rng.sample(range(n), n)))
    rest = [c for c in cells if c not in keep]
    rng.shuffle(rest)
    keep |= set(rest[: (len(cells) + 1) // 2 - len(keep)])
    return [[(i, j) in keep for j in range(n)] for i in range(n)]


def random_matrix(rng: Random, n: int, kind: str, skew: bool = False):
    """Dense nonzero ints in [-9, 9], p/q with q <= 5, or half-zero ints."""
    support = _sparse_pattern(n, skew) if kind == "sparse" else None
    relabel = rng.sample(range(n), n) if support else list(range(n))
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if skew else 0, n):
            if support is None or support[i][j]:
                x = _entry(rng, kind)
                a[relabel[i]][relabel[j]] = x
                if skew:
                    a[relabel[j]][relabel[i]] = -x
    return a


def random_vector(rng: Random, kind: str, n: int = 3):
    if kind == "sparse":
        zero = rng.randrange(n)
        return [0 if i == zero else _nonzero_int(rng) for i in range(n)]
    return [_entry(rng, kind) for _ in range(n)]


def tmat_text(matrices: dict, vectors: Optional[dict] = None) -> str:
    out = []
    for name, m in matrices.items():
        out.append(f"matrix {name} {len(m)} {len(m)}")
        out.extend(" ".join(str(Fraction(x)) for x in row) for row in m)
    for name, v in (vectors or {}).items():
        out.append(f"vector {name} {len(v)}")
        out.append(" ".join(str(Fraction(x)) for x in v))
    return "\n".join(out) + "\n"


class _Files:
    """Writes input files under one directory and hands back their paths."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        return str(path)

    def diagram(self, name: str, builtin: str) -> str:
        return self.write(f"{name}.tdg", f"diagram {name} = builtin:{builtin}\n")


def _eval(label, tdg, tmat, expected) -> Request:
    argv = ("eval", tdg) + (("--bind", tmat) if tmat else ())
    return Request(label, argv, expected=expected)


# -- closed-eval ---------------------------------------------------------------


def closed_eval(seed: int, workdir: Path) -> list[Request]:
    """Closed vertex diagrams: enumeration and per-colouring products dominate."""
    rng = Random(f"closed-eval:{seed}")
    f = _Files(workdir)
    tdg = {
        "det5": f.diagram("det5", "det(A) @ dim 5"),
        "det4": f.diagram("det4", "det(A) @ dim 4"),
        "pf6": f.diagram("pf6", "pf(A) @ dim 6"),
        "crossdot": f.diagram("crossdot", "crossdot(u, v, w, x) @ dim 3"),
    }
    for i in (1, 2, 3):
        tdg[f"cc{i}"] = f.diagram(f"cc{i}", f"charcoeff({i}, A) @ dim 5")
    reqs = []
    for kind in KINDS:
        a5, a4 = random_matrix(rng, 5, kind), random_matrix(rng, 4, kind)
        s6 = random_matrix(rng, 6, kind, skew=True)
        vecs = {name: random_vector(rng, kind) for name in "uvwx"}
        t5 = f.write(f"{kind}-5.tmat", tmat_text({"A": a5}))
        t4 = f.write(f"{kind}-4.tmat", tmat_text({"A": a4}))
        t6 = f.write(f"{kind}-skew6.tmat", tmat_text({"A": s6}))
        t3 = f.write(f"{kind}-vec3.tmat", tmat_text({}, vecs))
        render = oracles.render_value
        reqs.append(_eval(f"det5/{kind}", tdg["det5"], t5, render(oracles.det_value(a5))))
        for i in (1, 2, 3):
            want = render(oracles.charcoeff_value(a5, i))
            reqs.append(_eval(f"charcoeff{i}-5/{kind}", tdg[f"cc{i}"], t5, want))
        reqs.append(_eval(f"det4/{kind}", tdg["det4"], t4, render(oracles.det_value(a4))))
        reqs.append(_eval(f"pf6/{kind}", tdg["pf6"], t6, render(oracles.pf_value(s6))))
        want = render(oracles.crossdot_value(*(vecs[k] for k in "uvwx")))
        reqs.append(_eval(f"crossdot3/{kind}", tdg["crossdot"], t3, want))
    return reqs


# -- open-sums -----------------------------------------------------------------


def open_sums(seed: int, workdir: Path) -> list[Request]:
    """Framed diagrams and formal sums printed as dense function matrices."""
    rng = Random(f"open-sums:{seed}")
    f = _Files(workdir)
    m = oracles.render_matrix
    zero = oracles.zero_matrix
    a4i, a4r = random_matrix(rng, 4, "int"), random_matrix(rng, 4, "rat")
    abc3 = {k: random_matrix(rng, 3, kind) for k, kind in zip("ABC", KINDS)}
    abc2 = {k: random_matrix(rng, 2, kind) for k, kind in zip("ABC", KINDS)}
    t4i = f.write("int-4.tmat", tmat_text({"A": a4i}))
    t4r = f.write("rat-4.tmat", tmat_text({"A": a4r}))
    t3 = f.write("abc-3.tmat", tmat_text(abc3))
    t2 = f.write("abc-2.tmat", tmat_text(abc2))
    ch4 = f.diagram("ch4", "ch(A, A, A, A) @ dim 4")
    return [
        _eval("antisym3-4", f.diagram("as34", "antisym(3) @ dim 4"), None,
              m(oracles.sign_tensor(4, 3))),
        _eval("antisym4-3", f.diagram("as43", "antisym(4) @ dim 3"), None,
              m(zero(3, 4, 4))),
        _eval("twonode1-4", f.diagram("tn14", "twonode(1) @ dim 4"), None,
              m(oracles.twonode_matrix(4, 1))),
        _eval("twonode2-4", f.diagram("tn24", "twonode(2) @ dim 4"), None,
              m(oracles.twonode_matrix(4, 2))),
        _eval("ch-AAAA-4/int", ch4, t4i, m(zero(4, 1, 1))),
        _eval("ch-AAAA-4/rat", ch4, t4r, m(zero(4, 1, 1))),
        _eval("ch-ABC-3", f.diagram("ch3", "ch(A, B, C) @ dim 3"), t3, m(zero(3, 1, 1))),
        _eval("binor-3", f.diagram("binor", "binor() @ dim 3"), None, m(zero(3, 2, 2))),
        _eval("fricke-2", f.diagram("fricke", "fricke(A, B, C) @ dim 2"), t2,
              m(zero(2, 1, 1))),
    ]


# -- verify-mix ----------------------------------------------------------------

# largest allowed dimension of each identity in `tracediagrams verify`
VERIFY_DIMS = {
    "ch": 3,
    "ch-general": 3,
    "binor": 3,
    "det-diagram": 4,
    "det-sum": 3,
    "charpoly": 4,
    "antisym-two-node": 3,
    "symmetrizer-sum": 3,
    "fricke": 2,
    "vector": 3,
    "framing-independence": 3,
    "functoriality": 3,
}
# --jobs 2 spread 17% in requests_per_s between runs on a 2-CPU host whose
# neighbours steal cycles; --jobs 1 spread 6%. The pool path is still traced
# and tested (tests/test_perfbench.py), but the workload runs trials serially.
VERIFY_JOBS = 1
VERIFY_TRIALS = 10
POLARIZE_TRIALS = 5
PFAFFIAN_DIM = 6


def _check_records(label: str, trials: int) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        try:
            recs = [json.loads(line) for line in stdout.splitlines()]
        except ValueError:
            return [f"{label}: output is not JSON records"]
        problems = []
        if len(recs) != trials + 1:
            problems.append(f"{label}: {len(recs)} records, expected {trials + 1}")
        problems += [
            f"{label}: trial {r.get('trial')} not ok" for r in recs[:-1] if r.get("ok") is not True
        ]
        if recs and recs[-1].get("status") != "proven-exact-on-samples":
            problems.append(f"{label}: summary status {recs[-1].get('status')!r}")
        return problems

    return check


def _check_pfaffian(label: str, n: int, trials: int) -> Callable[[str], list[str]]:
    constant = oracles.pf_value(_unit_skew(n))
    want = f"constant={constant}"

    def check(stdout: str) -> list[str]:
        lines = stdout.splitlines()
        problems = []
        if len(lines) != trials + 1:
            problems.append(f"{label}: {len(lines)} lines, expected {trials + 1}")
        for line in lines[:-1]:
            if not (line.endswith(f"ratio={constant}") or line.endswith("skipped (Pf = 0)")):
                problems.append(f"{label}: unexpected line {line!r}")
        if not lines or lines[-1] != want:
            problems.append(f"{label}: last line is not {want!r}")
        return problems

    return check


def _unit_skew(n: int):
    """Block-diagonal skew matrix with Pf = 1, so pf_value gives the constant."""
    a = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        a[k][k + 1], a[k + 1][k] = 1, -1
    return a


def verify_requests(program_seed: int) -> list[Request]:
    seed = str(program_seed)
    reqs = []
    for ident, dim in VERIFY_DIMS.items():
        argv = ("verify", ident, "--dim", str(dim), "--trials", str(VERIFY_TRIALS),
                "--seed", seed, "--format", "records", "--jobs", str(VERIFY_JOBS))
        reqs.append(Request(f"verify-{ident}", argv, check=_check_records(ident, VERIFY_TRIALS)))
    argv = ("polarize", "--dim", "3", "--trials", str(POLARIZE_TRIALS), "--seed", seed,
            "--format", "records")
    reqs.append(Request("polarize-3", argv, check=_check_records("polarize", POLARIZE_TRIALS)))
    argv = ("pfaffian", "--dim", str(PFAFFIAN_DIM), "--trials", str(VERIFY_TRIALS),
            "--seed", seed, "--jobs", str(VERIFY_JOBS))
    reqs.append(Request("pfaffian-6", argv,
                        check=_check_pfaffian("pfaffian", PFAFFIAN_DIM, VERIFY_TRIALS)))
    return reqs


def verify_mix(seed: int, workdir: Path) -> list[Request]:
    """Randomized identity checks: many small diagrams, per-call set-up and oracles."""
    return verify_requests(seed)


def record_digest(stdout: str) -> str:
    """sha256 of the output lines with the timing field ``elapsed`` removed."""
    lines = []
    for line in stdout.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        rec.pop("elapsed", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pinned_digests() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))["digests"]


WORKLOADS = {
    "closed-eval": closed_eval,
    "open-sums": open_sums,
    "verify-mix": verify_mix,
}
