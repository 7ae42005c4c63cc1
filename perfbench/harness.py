"""Runs one workload as a closed loop and turns the run into metrics.

One caller in one process issues one op at a time. Set-up makes the inputs
from the seed; the timed loop then cycles through them until the run time is
up and every input has run at least once. The first op on each input gives
the results digest and the quality ratio, so both depend on the seed only.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from spans import TRACED, Tracer
from workloads import PURPOSE, Outcome

SETUP_REPEATS = 3
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it


class Ops:
    """Attempts ops on a workload's inputs and counts the failures.

    Any exception in an op, a failed output check, or an output that differs
    from an earlier op on the same input counts as a failed op.
    """

    def __init__(self, workload, inputs: list) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict[int, bytes] = {}

    def attempt(self, index: int, scope=None) -> tuple[float, Outcome | None]:
        """Run the op on input `index` inside `scope`; time only the op."""
        inp = self.inputs[index]
        self.attempted += 1
        t0 = t1 = time.perf_counter()
        try:
            with scope if scope is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    raw = self.workload.run(inp)
                finally:
                    t1 = time.perf_counter()
            outcome = self.workload.inspect(inp, raw)
        except Exception as exc:  # a failed op is counted, never fatal
            return t1 - t0, self._fail(index, f"{type(exc).__name__}: {exc}")
        if outcome.error is None:
            first = self._first.setdefault(index, outcome.digest)
            if first != outcome.digest:
                outcome.error = "output differs from an earlier op"
        if outcome.error is not None:
            return t1 - t0, self._fail(index, outcome.error)
        return t1 - t0, outcome

    def _fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"input {index}: {reason}")
        return None


def results_digest(outcomes: list[Outcome | None]) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        data = b"failed" if out is None else out.digest
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return "sha256:" + h.hexdigest()


def _median_quality(outcomes: list[Outcome | None]) -> float:
    values = [o.quality for o in outcomes if o is not None]
    return statistics.median(values) if values else float("nan")


def set_up(workload, seed: int, workdir: str, repeats: int):
    """Make the inputs and warm up, `repeats` times; returns the last
    inputs and the median set-up time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed, workdir)
        workload.warm_up(inputs)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


@contextlib.contextmanager
def _tracemalloc_peak(peaks: list[int]):
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def _untraced(ops: Ops, seconds: float) -> dict:
    pool = len(ops.inputs)
    latencies: list[float] = []
    first_pass: list[Outcome | None] = []
    timed_s = 0.0
    start = time.perf_counter()
    i = 0
    while i < pool or time.perf_counter() - start < seconds:
        latency, out = ops.attempt(i % pool)
        timed_s += latency
        if out is not None:
            latencies.append(latency)
        if i < pool:
            first_pass.append(out)
        i += 1
    peaks: list[int] = []
    ops.attempt(0, _tracemalloc_peak(peaks))

    n = len(latencies)
    metrics = {
        "ops_per_s": (n / timed_s, "1/s"),
        "peak_mem_mb": (peaks[0] / 1e6, "MB"),
        "quality_ratio": (_median_quality(first_pass), "ratio"),
    }
    reported = {"op_p50_ms": (statistics.median(latencies) * 1e3 if n else
                              float("nan"), "ms")}
    notes = {"ops_timed": n, "inputs": pool}
    if n >= P90_MIN_OPS:
        reported["op_p90_ms"] = (
            statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
    else:
        notes["op_p90_ms"] = f"not reported: {n} ops, needs {P90_MIN_OPS}"
    return {"metrics": metrics, "reported": reported, "notes": notes,
            "checks": [], "digest": results_digest(first_pass),
            "latencies_ms": [t * 1e3 for t in latencies]}


def _traced(ops: Ops, seconds: float, name: str) -> dict:
    """Alternate untraced and traced ops on the same input, so that the
    difference between the two is the tracing overhead."""
    pool = len(ops.inputs)
    tracer = Tracer()
    span_cost_s = tracer.span_cost_s()
    first_pass: dict[bool, list[Outcome | None]] = {False: [], True: []}
    gaps: list[float] = []
    traced_latency: dict[int, float] = {}
    start = time.perf_counter()
    i = 0
    while i < pool or time.perf_counter() - start < seconds:
        latency = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            scope = tracer.op(i) if traced else None
            latency[traced], out = ops.attempt(i % pool, scope)
            if i < pool:
                first_pass[traced].append(out)
        traced_latency[i] = latency[True]
        gaps.append(latency[True] - latency[False])
        i += 1
    n = len(traced_latency)
    covered = tracer.covered_by_op()
    unaccounted = [traced_latency[op] - covered.get(op, 0.0)
                   for op in traced_latency]

    metrics = tracer.layer_metrics(n)
    overhead_ms = statistics.median(gaps) * 1e3
    span_cost_ms = len(tracer.spans) / n * span_cost_s * 1e3
    unaccounted_ms = statistics.median(unaccounted) * 1e3
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    metrics["trace.span_cost_ms"] = (span_cost_ms, "ms")
    metrics["trace.unaccounted_ms"] = (unaccounted_ms, "ms")

    digests = {t: results_digest(first_pass[t]) for t in (False, True)}
    # The paired gap is the overhead measured with op-to-op noise, so the
    # allowance is its upper quartile, or the wrapper cost if that is larger.
    gap_q3_ms = (statistics.quantiles(gaps, n=4)[2] if len(gaps) > 1
                 else gaps[0]) * 1e3
    allowance_ms = max(gap_q3_ms, span_cost_ms)
    checks = [
        ("traced digest equals untraced digest",
         digests[True] == digests[False]),
        (f"op wall minus self-times {unaccounted_ms:.4f} ms <= tracing "
         f"overhead {allowance_ms:.4f} ms", unaccounted_ms <= allowance_ms),
    ]
    op_ms = statistics.mean(traced_latency.values()) * 1e3
    purpose = []
    for claim, prefixes, test in PURPOSE[name]:
        fns = [f for f in TRACED if f.startswith(prefixes)]
        self_ms = sum(metrics[f + ".self_ms"][0] for f in fns)
        calls = sum(metrics[f + ".calls"][0] for f in fns)
        ok = self_ms > 0.5 * op_ms if test == "most" else calls == 0
        purpose.append((f"{claim} (self {self_ms:.3f} of {op_ms:.3f} ms, "
                        f"{calls:g} calls per op)", ok))
    notes = {"ops_traced": n, "inputs": pool, "traced_op_ms": op_ms,
             "missing_functions": tracer.missing}
    return {"metrics": metrics, "notes": notes, "checks": checks,
            "purpose": purpose, "digest": digests[False],
            "spans": tracer.dump()}


def git_sha(root: Path) -> str | None:
    """HEAD of the repository at `root`, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, onmf_threads_set: bool,
                blas_vars: tuple[str, ...]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "onmf_threads_set": onmf_threads_set,
        "loop": "closed, 1 caller, 1 process",
    }


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, import_s: float) -> dict:
    """One benchmark run; returns the metrics, checks and notes."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs, setup_s = set_up(workload, seed, str(workdir),
                                 1 if trace else SETUP_REPEATS)
        ops = Ops(workload, inputs)
        if trace:
            result = _traced(ops, seconds, workload.name)
        else:
            result = _untraced(ops, seconds)
            result["metrics"]["setup_s"] = (import_s + setup_s, "s")
            result["notes"]["setup"] = (
                f"imports {import_s:.4f} s + median of {SETUP_REPEATS} "
                f"set-ups {setup_s:.4f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result.setdefault("reported", {})["ops_failed_frac"] = (
        ops.failed / ops.attempted, "fraction")
    result["errors"] = ops.errors
    result["correct"] = ops.failed == 0 and all(ok for _, ok in
                                                result["checks"])
    return result
