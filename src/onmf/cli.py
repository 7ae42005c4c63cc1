"""Command-line interface: generate, factorize, evaluate, sweep, bcc.

Scalar results go to stdout as JSON, matrices and sweep tables to CSV files.
Every command is deterministic given --seed. Exit codes: 0 success, 1 runtime
failure, 2 usage error, which includes a float flag (--noise, --tol, a
--noise-grid level) that is negative, NaN or infinite and a negative --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from onmf.bcc import BipartiteLabeling, bcc_cluster
from onmf.core import _csv_lines, open_output, read_matrix, write_matrix
from onmf.double import factorize_double, factorize_double_large_k
from onmf.kmeans import KMeansConfig
from onmf.metrics import non_orthogonality, recovery_error, rsfe
from onmf.single import factorize_single
from onmf.synth import gen_planted_double, gen_planted_single


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {value}")
    return value


def _noise_grid(text: str) -> list[float]:
    grid = [_nonneg_float(t) for t in text.split(",") if t.strip() != ""]
    if not grid:
        raise argparse.ArgumentTypeError(f"bad noise grid {text!r}")
    return grid


def _fmt(x: float) -> str:
    return repr(float(x))


def _lower_median(values: tuple[float, ...]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _add_kmeans_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=_positive_int, default=10)
    p.add_argument("--max-iters", type=_positive_int, default=100)
    p.add_argument("--tol", type=_nonneg_float, default=1e-9)
    p.add_argument("--seed", type=_nonneg_int, default=0)


def _config(args: argparse.Namespace, seed: int) -> KMeansConfig:
    return KMeansConfig(restarts=args.restarts, max_iters=args.max_iters,
                        rel_tol=args.tol, seed=seed)


def _generate(m, n, k, noise, seed, mode):
    gen = gen_planted_double if mode == "double" else gen_planted_single
    return gen(m, n, k, noise, seed)


def cmd_generate(args: argparse.Namespace) -> int:
    inst = _generate(args.m, args.n, args.k, args.noise, args.seed, args.mode)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    write_matrix(inst.m_observed, os.path.join(out, "M.csv"))
    write_matrix(inst.m_truth, os.path.join(out, "Mtruth.csv"))
    write_matrix(inst.a_truth, os.path.join(out, "Atruth.csv"))
    write_matrix(inst.w_truth, os.path.join(out, "Wtruth.csv"))
    meta = {"m": args.m, "n": args.n, "k": args.k,
            "noise_level": args.noise, "seed": args.seed, "mode": args.mode}
    with open_output(os.path.join(out, "meta.json")) as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    return 0


def _run_mode(M: np.ndarray, mode: str, k: int, config: KMeansConfig):
    if mode == "single":
        return factorize_single(M, k, config)
    if mode == "double":
        return factorize_double(M, k, config)
    return factorize_double_large_k(M)  # ignores k


def cmd_factorize(args: argparse.Namespace) -> int:
    M = read_matrix(args.input, header=args.header)
    start = time.perf_counter()
    sol = _run_mode(M, args.mode, args.k, _config(args, args.seed))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.out_a:
        write_matrix(sol.a, args.out_a)
    if args.out_w:
        write_matrix(sol.w.materialize(), args.out_w)
    print(json.dumps({"objective": sol.objective,
                      "wall_time_ms": elapsed_ms}, sort_keys=True))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    M = read_matrix(args.input, header=args.header)
    A = read_matrix(args.a)
    W = read_matrix(args.w)
    record = {
        "reconstruction_error": recovery_error(M, A, W),
        "rsfe": rsfe(M, A, W),
        "non_orthogonality_w": non_orthogonality(W),
        "non_orthogonality_a_cols": non_orthogonality(A.T),
    }
    if args.truth:
        record["recovery_error"] = recovery_error(
            read_matrix(args.truth, header=args.header), A, W)
    print(json.dumps(record, sort_keys=True))
    return 0


def _sweep_trial(args: argparse.Namespace, noise: float,
                 seed: int) -> tuple[float, float, float, float]:
    inst = _generate(args.m, args.n, args.k, noise, seed, args.mode)
    start = time.perf_counter()
    sol = _run_mode(inst.m_observed, args.mode, args.k, _config(args, seed))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    W = sol.w.materialize()
    return (
        recovery_error(inst.m_truth, sol.a, W),
        recovery_error(inst.m_observed, sol.a, W),
        non_orthogonality(W),
        elapsed_ms,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    header = ["noise_level", "median_recovery_error",
              "median_reconstruction_error", "median_non_orthogonality",
              "planted_reference"]
    if args.timing:
        header.append("median_wall_time_ms")
    lines = [",".join(header)]
    for level_idx, noise in enumerate(args.noise_grid):
        first = args.seed + level_idx * args.trials
        results = [_sweep_trial(args, noise, seed)
                   for seed in range(first, first + args.trials)]
        rec, recon, ortho, times = zip(*results)
        ref = math.sqrt(2.0 * args.m * args.n) * noise
        row = [_fmt(noise), _fmt(_lower_median(rec)),
               _fmt(_lower_median(recon)), _fmt(_lower_median(ortho)),
               _fmt(ref)]
        if args.timing:
            row.append(_fmt(_lower_median(times)))
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open_output(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_edge_list(path: str, complete: bool) -> BipartiteLabeling:
    edges: dict[tuple[int, int], bool] = {}
    max_u = max_v = -1
    for lineno, parts in _csv_lines(path):
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ValueError(f"{path}:{lineno}: malformed edge line")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed edge line") from exc
        if u < 0 or v < 0:
            raise ValueError(f"{path}:{lineno}: negative vertex index")
        if (u, v) in edges:
            raise ValueError(f"{path}:{lineno}: duplicate edge")
        edges[(u, v)] = parts[2] == "+"
        max_u, max_v = max(max_u, u), max(max_v, v)
    if max_u < 0:
        raise ValueError(f"{path}: empty edge list")
    m, n = max_u + 1, max_v + 1
    if not complete and len(edges) != m * n:
        raise ValueError(
            "incomplete bipartite graph; pass --complete to treat missing "
            "pairs as '-'")
    labels = np.zeros((m, n), dtype=bool)
    for (u, v), plus in edges.items():
        labels[u, v] = plus
    return BipartiteLabeling(labels=labels)


def cmd_bcc(args: argparse.Namespace) -> int:
    g = _read_edge_list(args.edges, args.complete)
    clustering, count = bcc_cluster(g)
    if args.out:
        with open_output(args.out) as fh:
            fh.write("side,index,cluster\n")
            for i, cid in enumerate(clustering.left):
                fh.write(f"u,{i},{int(cid)}\n")
            for j, cid in enumerate(clustering.right):
                fh.write(f"v,{j},{int(cid)}\n")
    print(count)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onmf",
        description="Orthogonal non-negative matrix factorization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a planted instance as CSV")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--noise", type=_nonneg_float, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--mode", choices=["single", "double"], default="single")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("factorize", help="factorize a CSV matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true",
                   help="skip the first line of the input CSV")
    p.add_argument("--k", type=_positive_int, default=1,
                   help="inner dimension (ignored by double-large-k)")
    p.add_argument("--mode", choices=["single", "double", "double-large-k"],
                   default="single")
    _add_kmeans_flags(p)
    p.add_argument("--out-a")
    p.add_argument("--out-w")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("evaluate", help="print metrics for stored factors")
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--a", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--truth")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep",
                       help="noise sweep with per-level medians, CSV output")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--noise-grid", type=_noise_grid, required=True,
                   help="comma-separated noise levels")
    p.add_argument("--trials", type=_positive_int, default=7)
    p.add_argument("--mode", choices=["single", "double"], default="single")
    _add_kmeans_flags(p)
    p.add_argument("--timing", action="store_true",
                   help="append a wall-time column (breaks byte-for-byte "
                        "reproducibility across machines)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bcc", help="bipartite correlation clustering")
    p.add_argument("--edges", required=True,
                   help="edge list: lines of 'u,v,+' or 'u,v,-'")
    p.add_argument("--complete", action="store_true",
                   help="treat missing pairs as '-'")
    p.add_argument("--out", help="clustering CSV path")
    p.set_defaults(func=cmd_bcc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"onmf: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array it could not allocate.
        detail = str(exc) or "allocation failed"
        print(f"onmf: error: out of memory: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
