"""Layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions of each ``tracediagrams`` module
with wrappers that record a span per call: name, start, end, parent span and
request id. Re-imported names (``from .engine import evaluate_closed`` in
``cli``, ``algebra``, ``identities``) are separate bindings, so every module
attribute that refers to a wrapped function is replaced, not just the one in
the defining module. Spans stay in memory until the benchmark ends.

Trials that ``verify --jobs N`` runs in worker processes record their spans in
the worker; the worker's entry point returns them next to the trial result and
the pool wrapper in the parent adopts them under the pool span. Workers that
did not inherit the wrappers (any start method other than fork) return bare
results, and the tracer counts those trials as missing spans.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "dsl", "builders", "diagram", "engine", "algebra", "matrices", "identities")

# Called once per colouring, vertex or matrix entry: wrapping them would
# measure the wrapper. Their time counts as the caller's self time, like
# `perms`, which is not wrapped at all.
UNWRAPPED = {
    "engine.tensor_index",
    "engine.index_tensor",
    "engine.signature",
    "engine.coefficient",
    "diagram.vertex_permutation",
    "diagram.other_end",
    "diagram.leaf",
    "diagram.internal",
    "matrices.shape",
    "matrices.freeze_matrix",
    "matrices.freeze_vector",
}

ORACLES = {"bareiss_det", "charpoly_fl", "pfaffian_matchings", "vec_dot", "vec_cross"}
DENSE = {"madd", "mscale"}
SUMS = {"sum_function_matrix", "sum_closed_value"}
TRIAL_DRIVERS = {"run_single_trial", "polarization_check", "pfaffian_scan"}

# per-pass totals reported by layer_metrics, besides the ratios and maxima
SUMMED = [f"{layer}.self_s" for layer in LAYERS] + [
    "engine.eval_s", "engine.calls", "engine.fm_cells", "engine.fm_nonzero",
    "algebra.sum_s", "algebra.calls", "algebra.terms_summed",
    "matrices.dense_s", "matrices.dense_calls", "matrices.oracle_s", "matrices.oracle_calls",
    "diagram.validate_s", "diagram.validate_calls",
    "builders.build_s", "builders.calls", "builders.terms",
    "identities.trial_s", "identities.trials", "identities.pool_wait_s",
    "dsl.parse_s", "dsl.calls",
]

# span record fields
NAME, START, END, PARENT, REQUEST, COUNTS = range(6)


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def _matrix_counts(args, result) -> dict:
    cells = sum(len(row) for row in result.entries)
    nonzero = sum(1 for row in result.entries for x in row if x)
    return {"cells": cells, "nonzero": nonzero}


def _summed_terms(args, result) -> dict:
    return {"terms": _terms(args[0])}


def _built_terms(args, result) -> dict:
    return {"terms": _terms(result)}


def _count_hook(name: str):
    """What a span counts from its call, for the metrics that need more than time."""
    if name == "engine.function_matrix":
        return _matrix_counts
    if name in {f"algebra.{fn}" for fn in SUMS}:
        return _summed_terms
    if name.startswith("builders."):
        return _built_terms
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.worker_spans = 0
        self.missing_worker_trials = 0
        self.notes: list[str] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [name, perf_counter(), 0.0, parent, self.request, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        hook = _count_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                rec[COUNTS] = hook(args, result)
            return result

        return wrapper

    def adopt(self, worker_spans: list, parent: int) -> None:
        """Append spans recorded in a worker, re-rooted under ``parent``."""
        offset = len(self.spans)
        for rec in worker_spans:
            p = rec[PARENT]
            self.spans.append([rec[NAME], rec[START], rec[END],
                               parent if p is None else p + offset, self.request, rec[COUNTS]])
        self.worker_spans += len(worker_spans)

    # -- installing ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (name -> module object)."""
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"tracediagrams.{layer}"]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                name = f"{layer}.{fname}"
                if (fname.startswith("_") or fn.__module__ != mod.__name__
                        or name in UNWRAPPED or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[fn] = self.wrap(name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        self._install_pool(modules["tracediagrams.identities"])

    def _patch(self, mod, attr: str, value) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _install_pool(self, ident) -> None:
        star, map_trials = getattr(ident, "_trial_star", None), getattr(ident, "_map_trials", None)
        if star is None or map_trials is None:
            self.notes.append("process-pool boundary not found: worker spans are missing")
            return

        # functools.wraps keeps __module__/__qualname__, so pickle sends the
        # patched worker entry point by reference.
        @functools.wraps(star)
        def worker_entry(args):
            self.spans, self.stack = [], []
            result = star(args)
            return result, self.spans

        @functools.wraps(map_trials)
        def pool(*args, **kwargs):
            jobs = args[4] if len(args) > 4 else kwargs.get("jobs", 1)
            rec = self._open("identities.pool")
            index = self.stack[-1]
            try:
                out = map_trials(*args, **kwargs)
            finally:
                self._close(rec)
            results = []
            for item in out:
                if isinstance(item, tuple):
                    item, worker_spans = item
                    self.adopt(worker_spans, index)
                elif jobs > 1:
                    self.missing_worker_trials += 1
                results.append(item)
            return results

        self._patch(ident, "_trial_star", worker_entry)
        self._patch(ident, "_map_trials", pool)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)


# -- analysis ----------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's share of wall time not covered by its own active children.

    At every instant the time goes to the active spans that have no active
    child, split equally among them. In one thread exactly one span is such a
    leaf, so a span's self time is its duration minus the time its child spans
    cover. Spans from parallel worker processes split the instants they share,
    so the self times of all spans add up to the time covered by root spans.
    """
    depth = []
    for rec in spans:
        p = rec[PARENT]
        depth.append(0 if p is None else depth[p] + 1)
    events = []
    for i, rec in enumerate(spans):
        events.append((rec[START], 1, depth[i], i))
        events.append((rec[END], 0, -depth[i], i))
    events.sort()
    out = [0.0] * len(spans)
    active_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    prev = None
    for t, is_start, _, i in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for s in leaves:
                out[s] += share
        prev = t
        p = spans[i][PARENT]
        if is_start:
            active.add(i)
            leaves.add(i)
            if p is not None and p in active:
                active_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(i)
            leaves.discard(i)
            if p is not None and p in active:
                active_children[p] -= 1
                if active_children[p] == 0:
                    leaves.add(p)
    return out


def layer_metrics(spans: list, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the workload mix.

    A layer's entry span is one with no ancestor in the same layer; ``_s``
    totals and ``calls`` count entry spans, so nested calls inside a layer
    are not counted twice.
    """
    selfs = self_times(spans)
    layer = [rec[NAME].split(".", 1)[0] for rec in spans]
    fname = [rec[NAME].split(".", 1)[1] for rec in spans]

    def ancestors(i):
        p = spans[i][PARENT]
        while p is not None:
            yield p
            p = spans[p][PARENT]

    entry = [all(layer[a] != layer[i] for a in ancestors(i)) for i in range(len(spans))]
    dur = [rec[END] - rec[START] for rec in spans]
    m = dict.fromkeys(SUMMED, 0.0)
    max_engine = 0.0
    for i, rec in enumerate(spans):
        lay, fn, counts = layer[i], fname[i], rec[COUNTS] or {}
        m[f"{lay}.self_s"] += selfs[i]
        if fn == "pool":
            m["identities.pool_wait_s"] += selfs[i]
        if lay == "diagram" and fn == "validate":
            m["diagram.validate_s"] += dur[i]
            m["diagram.validate_calls"] += 1
        if lay == "algebra" and fn in SUMS:  # sums never nest in one another
            m["algebra.sum_s"] += dur[i]
            m["algebra.terms_summed"] += counts.get("terms", 0)
        if lay == "engine" and fn == "function_matrix":
            m["engine.fm_cells"] += counts.get("cells", 0)
            m["engine.fm_nonzero"] += counts.get("nonzero", 0)
        if lay == "identities" and fn in TRIAL_DRIVERS:
            m["identities.trial_s"] += dur[i]
            if fn == "run_single_trial":
                m["identities.trials"] += 1
        if lay == "identities" and fn == "trial_rng" and any(
                fname[a] in ("polarization_check", "pfaffian_scan") for a in ancestors(i)):
            m["identities.trials"] += 1
        if not entry[i]:
            continue
        if lay == "engine":
            m["engine.eval_s"] += dur[i]
            m["engine.calls"] += 1
            max_engine = max(max_engine, dur[i])
        elif lay == "algebra":
            m["algebra.calls"] += 1
        elif lay == "matrices" and fn in DENSE:
            m["matrices.dense_s"] += dur[i]
            m["matrices.dense_calls"] += 1
        elif lay == "matrices" and fn in ORACLES:
            m["matrices.oracle_s"] += dur[i]
            m["matrices.oracle_calls"] += 1
        elif lay == "builders":
            m["builders.build_s"] += dur[i]
            m["builders.calls"] += 1
            m["builders.terms"] += counts.get("terms", 0)
        elif lay == "dsl":
            m["dsl.parse_s"] += dur[i]
            m["dsl.calls"] += 1
    out = {k: v / passes for k, v in m.items()}
    out["engine.max_call_s"] = max_engine
    cells = out["engine.fm_cells"]
    out["engine.useful_ratio"] = out["engine.fm_nonzero"] / cells if cells else 0.0
    out["trace.self_sum_s"] = sum(selfs) / passes
    return out
