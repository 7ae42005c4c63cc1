"""Benchmark of the onmf library and CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload single-csv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Prints a readable report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The full
record, and the spans of a traced run, go to perfbench/_out/. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("single-csv", "sweep-double", "bcc-600")
# One BLAS thread keeps runs steady on a shared machine; it is within the
# "at most nproc" the benchmark allows.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout does not hold the onmf sources the benchmark needs."""


def bootstrap() -> bool:
    """Pin BLAS threads, clear ONMF_THREADS and put this checkout's onmf
    first on the import path. Call before numpy is imported. Returns whether
    ONMF_THREADS was set."""
    onmf_threads_set = os.environ.pop("ONMF_THREADS", None) is not None
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "onmf" / "__init__.py").is_file():
        raise SetupError(f"no onmf package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import onmf
    if Path(onmf.__file__).resolve().parent != (src / "onmf").resolve():
        raise SetupError(f"imported onmf from {onmf.__file__}, not {src}")
    return onmf_threads_set


def _report(name: str, seed: int, seconds: float, trace: bool,
            result: dict) -> None:
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric:45s} {value:14.6g} {unit}")
    for metric, (value, unit) in result["reported"].items():
        print(f"{metric:45s} {value:14.6g} {unit}  (report only)")
    print(f"{'ops attempted, failed':45s} {result['attempted']}, "
          f"{result['failed']}")
    for key, value in result["notes"].items():
        print(f"{key:45s} {value}")
    print(f"{'digest':45s} {result['digest']}")
    for claim, ok in result["checks"]:
        print(f"check   {'ok  ' if ok else 'FAIL'} {claim}")
    for claim, ok in result.get("purpose", []):
        print(f"purpose {'ok  ' if ok else 'FAIL'} {claim}")
    for error in result["errors"]:
        print(f"error   {error}")


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        onmf_threads_set = bootstrap()
    except SetupError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    import harness
    import onmf.cli  # noqa: F401  (imports count towards set-up time)
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t_start

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workdir = HERE / "_work" / f"{name}-{args.seed}-{os.getpid()}"
        result = harness.run_workload(WORKLOADS[name](), args.seed,
                                      args.seconds, bool(args.trace),
                                      workdir, import_s)
        result["env"] = harness.environment(ROOT, args.seed, onmf_threads_set,
                                            BLAS_VARS)
        _report(name, args.seed, args.seconds, bool(args.trace), result)
        record = {k: v for k, v in result.items() if k != "spans"}
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if "spans" in result:
            (out_dir / f"{stem}-spans.json").write_text(
                json.dumps(result["spans"]))
        prefix = "" if len(names) == 1 else name + "."
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, (value, unit) in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value,
                                                   "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
