"""Spans and counts around public onmf functions, for the traced run.

The library is not changed. Each traced function is rebound, for the
duration of one op, in the namespace of every onmf module that holds it (a
method is rebound on its class), so calls from one library module into
another are seen. Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Module-relative names of the traced functions; metric names are
# "<name>.self_ms" and "<name>.calls", both averaged per op.
TRACED = (
    "cli.main",
    "core.read_matrix",
    "core.write_matrix",
    "core.normalize_columns",
    "core.frobenius_norm_sq",
    "core.CompactW.materialize",
    "synth.gen_planted_double",
    "kmeans.weighted_kmeans",
    "kmeans.kmeanspp_seed",
    "kmeans.lloyd",
    "single.factorize_single",
    "double.factorize_double",
    "double.factorize_double_large_k",
    "double.centroid_weights",
    "double.weight_reduction",
    "double.group_centroids",
    "double.solve_orthogonal_centroids",
    "bcc.bcc_cluster",
    "bcc.round_block",
    "bcc.disagreements",
    "metrics.recovery_error",
    "metrics.reconstruction_error",
    "metrics.non_orthogonality",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lloyd_counts(args, kwargs, result):
    # Size of the (n, k, m) float64 distance temporary, computed from the
    # argument shapes, not measured.
    n, m = _arg(args, kwargs, 0, "pts").points.shape
    k = len(_arg(args, kwargs, 1, "centroids"))
    return {"tmp_bytes": float(n * k * m * 8)}


def _reduction_counts(args, kwargs, result):
    q = np.asarray(_arg(args, kwargs, 1, "q"), dtype=np.float64)
    k = len(q)
    total = float(q.sum())
    removed = 1.0 - float(np.sum(result)) / total if total > 0 else 0.0
    return {"pairs": k * (k - 1) / 2.0, "q_removed_frac": removed}


def _grouping_counts(args, kwargs, result):
    positive = np.asarray(_arg(args, kwargs, 1, "q_reduced")) > 0
    return {"positive": float(positive.sum()),
            "groups": float(np.unique(result[positive]).size)}


def _read_counts(args, kwargs, result):
    return {"bytes": float(os.path.getsize(_arg(args, kwargs, 0, "path")))}


# Counts taken from a traced call's arguments and return value; metric names
# are "<function>.<key>", averaged per call. Units are in COUNT_UNITS.
COUNTERS = {
    "kmeans.lloyd": _lloyd_counts,
    "double.weight_reduction": _reduction_counts,
    "double.group_centroids": _grouping_counts,
    "core.read_matrix": _read_counts,
}
COUNT_UNITS = {
    "kmeans.lloyd.tmp_bytes": "bytes-computed",
    "double.weight_reduction.pairs": "count",
    "double.weight_reduction.q_removed_frac": "fraction",
    "double.group_centroids.positive": "count",
    "double.group_centroids.groups": "count",
    "core.read_matrix.bytes": "bytes",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 if none
    op: int


class Tracer:
    """Records spans for the ops run inside `Tracer.op(op_id)`.

    Functions named in TRACED that the library no longer has are listed in
    `missing` and report zero calls.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[tuple[str, dict[str, float]]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._bindings = self._resolve()

    def _resolve(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every rebinding."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "onmf" or name.startswith("onmf.")]
        bindings = []
        for name in TRACED:
            module_name, *path, attr = name.split(".")
            try:
                owner = importlib.import_module("onmf." + module_name)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            if path:  # a method: rebind it on its class only
                bindings.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, key, original, wrapper))
        return bindings

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The span covers the wrapper's own work, so that what lies
            # outside every span is the caller's.
            start = time.perf_counter()
            stack = self._stack
            span = Span(name, start, start, stack[-1] if stack else -1,
                        self._op)
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.counts.append((name, counter(args, kwargs, result)))
                return result
            finally:
                stack.pop()
                span.end = time.perf_counter()
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Install the wrappers for one op and restore the originals after."""
        self._op = op_id
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)
            self._stack.clear()

    def installed(self) -> bool:
        return any(getattr(owner, attr) is not original
                   for owner, attr, original, _ in self._bindings)

    def covered_by_op(self) -> dict[int, float]:
        """Seconds of each op spent inside its top-level spans, which is
        also the sum of the self times of all its spans."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent < 0:
                covered[s.op] += s.end - s.start
        return covered

    def span_cost_s(self, calls: int = 2000, repeats: int = 5) -> float:
        """Time one span adds to a call, from wrapping a no-op function."""
        def noop():
            return None
        wrapped = self._wrap("calibration", noop, None)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        del self.spans[-calls * repeats:]
        return max(best, 0.0)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Self time and calls per op for each traced function, and the
        per-call mean of each count."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, inner in zip(self.spans, child):
            self_s[s.name] += s.end - s.start - inner
            calls[s.name] += 1
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.self_ms"] = (self_s[name] * 1e3 / ops, "ms")
            out[f"{name}.calls"] = (calls[name] / ops, "count")
        sums: dict[str, float] = defaultdict(float)
        seen: dict[str, int] = defaultdict(int)
        for name, record in self.counts:
            for key, value in record.items():
                sums[f"{name}.{key}"] += value
                seen[f"{name}.{key}"] += 1
        for metric, unit in COUNT_UNITS.items():
            value = sums[metric] / seen[metric] if seen[metric] else 0.0
            out[metric] = (value, unit)
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op]
                      for s in self.spans],
            "counts": [[name, record] for name, record in self.counts],
            "missing": self.missing,
        }
