"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import run_cli
from onmf.bcc import BipartiteLabeling, bcc_cluster, round_block
from onmf.core import frobenius_norm_sq, normalize_columns
from onmf.double import (
    factorize_double,
    factorize_double_large_k,
    solve_orthogonal_centroids,
)
from onmf.kmeans import KMeansConfig, weighted_kmeans
from onmf.metrics import non_orthogonality
from onmf.single import factorize_single
from onmf.synth import gen_planted_single
from oracles import (
    SIN_SQ_PI_12,
    brute_force_bcc,
    brute_force_double,
    brute_force_kmeans,
    brute_force_single,
    coordinate_enumeration_optimum,
    planted_stat,
)


def report(num: int, limit_s: float, start: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - start
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s / limit {limit_s:.0f}s)"
          f"{suffix}")
    assert elapsed < limit_s


def test_criterion_01_orthogonality_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    noise_grid = [0.0, 0.1, 0.5, 1.0]
    for trial in range(200):
        m = int(rng.integers(2, 61))
        n = int(rng.integers(2, 61))
        k = int(rng.integers(1, 11))
        noise = noise_grid[trial % 4]
        inst = gen_planted_single(m, n, k, noise, 5000 + trial)
        cfg = KMeansConfig(restarts=2, max_iters=30, seed=trial)
        s = factorize_single(inst.m_observed, k, cfg)
        assert non_orthogonality(s.w.materialize()) == 0.0
        d = factorize_double(inst.m_observed, k, cfg)
        assert non_orthogonality(d.w.materialize()) == 0.0
        assert non_orthogonality(d.a.T) == 0.0
        lk = factorize_double_large_k(inst.m_observed)
        assert non_orthogonality(lk.w.materialize()) == 0.0
        assert non_orthogonality(lk.a.T) == 0.0
    report(1, 30, start)


def test_criterion_02_planted_reconstruction_statistic():
    start = time.perf_counter()
    m, n, sigma, trials = 20, 50, 0.5, 200
    mean, sd = planted_stat(m, n, sigma)
    gaps = [
        frobenius_norm_sq(inst.m_observed - inst.m_truth)
        for inst in (gen_planted_single(m, n, 3, sigma, 7000 + t)
                     for t in range(trials))
    ]
    sample_mean = float(np.mean(gaps))
    half_width = 3 * sd / math.sqrt(trials)  # = 7.5
    assert mean == 500.0
    assert half_width == pytest.approx(7.5)
    assert abs(sample_mean - mean) <= half_width
    report(2, 5, start, f"sample mean {sample_mean:.2f} vs 500 +/- 7.5")


def test_criterion_03_single_factor_approximation_chain():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ratios = []
    for trial in range(50):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, 4))
        M = rng.random((m, n))
        cfg = KMeansConfig(restarts=50, seed=trial)
        sol = factorize_single(M, k, cfg)
        opt = brute_force_single(M, k)
        pts = normalize_columns(M)
        km = weighted_kmeans(pts, k, cfg)
        km_opt = brute_force_kmeans(pts, k)
        r_emp = km.cost / km_opt.cost if km_opt.cost > 1e-12 else 1.0
        r_emp = max(r_emp, 1.0)
        assert sol.objective <= 2 * r_emp * opt.objective + 1e-9
        if opt.objective > 1e-9:
            ratios.append(sol.objective / opt.objective)
    report(3, 120, start,
           f"median ratio to OPT {np.median(ratios):.4f} over "
           f"{len(ratios)} instances")


def test_criterion_04_large_k_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    bound = 1.0 / SIN_SQ_PI_12
    for trial in range(50):
        M = (rng.random((4, 4)) < rng.uniform(0.2, 0.8)).astype(float)
        obj = factorize_double_large_k(M).objective
        opt = brute_force_double(M, 4)
        assert obj <= bound * opt + 1e-9
    report(4, 120, start)


def test_criterion_05_rounding_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        Mblk = (rng.random((m, n)) < 0.5).astype(float)
        a = rng.random(m) * np.where(rng.random(m) < 0.15, 0.0, 1.0)
        w = rng.random(n) * np.where(rng.random(n) < 0.15, 0.0, 1.0)
        a_hat, w_hat = round_block(Mblk, a, w)
        binary_err = frobenius_norm_sq(Mblk - np.outer(a_hat, w_hat))
        frac_err = frobenius_norm_sq(Mblk - np.outer(a, w))
        assert binary_err <= 8 * frac_err + 1e-12
    report(5, 5, start)


def test_criterion_06_bcc_within_120():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    ratios = []
    for _ in range(30):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, min(8 - m, 5)))
        g = BipartiteLabeling(labels=rng.random((m, n)) < 0.5)
        _, count = bcc_cluster(g)
        opt = brute_force_bcc(g)
        assert count <= 120 * opt
        if opt > 0:
            ratios.append(count / opt)
    median = float(np.median(ratios)) if ratios else 1.0
    report(6, 60, start, f"median empirical ratio {median:.3f}")


def test_criterion_07_scaled_noise_sweep():
    start = time.perf_counter()
    m, n, k, trials = 50, 500, 10, 7
    grid = [round(0.1 * i, 1) for i in range(1, 11)]
    med_recovery, med_reconstruction = [], []
    for level_idx, noise in enumerate(grid):
        rec, recon, planted_gap = [], [], []
        for t in range(trials):
            seed = 9000 + level_idx * trials + t
            inst = gen_planted_single(m, n, k, noise, seed)
            cfg = KMeansConfig(restarts=10, max_iters=50, seed=seed)
            sol = factorize_single(inst.m_observed, k, cfg)
            W = sol.w.materialize()
            AW = sol.a @ W
            assert non_orthogonality(W) == 0.0  # (a)
            rec.append(float(np.linalg.norm(inst.m_truth - AW)))
            recon.append(float(np.linalg.norm(inst.m_observed - AW)))
            planted_gap.append(
                float(np.linalg.norm(inst.m_observed - inst.m_truth)))
        lower = lambda v: sorted(v)[(len(v) - 1) // 2]
        med_recovery.append(lower(rec))
        med_reconstruction.append(lower(recon))
        assert lower(recon) <= lower(planted_gap)  # (b)
    # (c) monotone recovery trend, allowing one inversion of at most 2%
    inversions = 0
    for prev, cur in zip(med_recovery, med_recovery[1:]):
        if cur < prev:
            inversions += 1
            assert (prev - cur) / prev <= 0.02
    assert inversions <= 1
    report(7, 180, start,
           f"median recovery {med_recovery[0]:.1f} -> {med_recovery[-1]:.1f}")


def test_criterion_08_coordinate_solver_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        centroids = rng.random((k, m))
        qp = np.where(rng.random(k) < 0.25, 0.0, rng.random(k))
        sigma = rng.integers(0, k, k)
        a = solve_orthogonal_centroids(centroids, qp, sigma)
        achieved = sum(qp[j] * np.sum((centroids[j] - a[:, sigma[j]]) ** 2)
                       for j in range(k) if qp[j] > 0)
        expected = coordinate_enumeration_optimum(centroids, qp, sigma)
        assert achieved == pytest.approx(expected, abs=1e-12)
    report(8, 10, start)


def test_criterion_09_inequality_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    T, d = 10**5, 4
    rel = 1e-9

    # doubled triangle inequality: ||x-y||^2 <= 2||x||^2 + 2||y||^2
    x = rng.normal(size=(T, d))
    y = rng.normal(size=(T, d))
    lhs = np.sum((x - y) ** 2, axis=1)
    rhs = 2 * np.sum(x**2, axis=1) + 2 * np.sum(y**2, axis=1)
    assert (lhs <= rhs * (1 + rel)).all()

    # non-negative triangle inequality: ||x-y||^2 <= ||x||^2 + ||y||^2
    x = rng.random((T, d))
    y = rng.random((T, d))
    lhs = np.sum((x - y) ** 2, axis=1)
    rhs = np.sum(x**2, axis=1) + np.sum(y**2, axis=1)
    assert (lhs <= rhs * (1 + rel)).all()

    # unit-vector inequality: ||y - theta x||^2 >= 1/2 ||y||^2 ||ybar - x||^2
    x = rng.random((T, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.random((T, d))
    theta = rng.random(T) * 3
    ybar = y / np.linalg.norm(y, axis=1, keepdims=True)
    lhs = np.sum((y - theta[:, None] * x) ** 2, axis=1)
    rhs = 0.5 * np.sum(y**2, axis=1) * np.sum((ybar - x) ** 2, axis=1)
    assert (lhs >= rhs * (1 - rel)).all()

    # center-of-mass identity
    pts = rng.random((T, 3, d))
    wts = rng.random((T, 3))
    b = rng.random((T, d))
    center = np.einsum("tp,tpd->td", wts, pts) / wts.sum(axis=1)[:, None]
    lhs = np.einsum("tp,tpd->t", wts, (pts - b[:, None, :]) ** 2)
    rhs = (np.einsum("tp,tpd->t", wts, (pts - center[:, None, :]) ** 2)
           + wts.sum(axis=1) * np.sum((center - b) ** 2, axis=1))
    assert np.allclose(lhs, rhs, rtol=rel)

    report(9, 10, start)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    gen = ["generate", "--m", "6", "--n", "15", "--k", "2", "--noise", "0.3",
           "--seed", "11"]
    for out in ("a", "b"):
        assert run_cli(gen + ["--out-dir", out], tmp_path).returncode == 0
    for name in ("M.csv", "Mtruth.csv", "Atruth.csv", "Wtruth.csv",
                 "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name).read_bytes()

    fac = ["factorize", "--input", "a/M.csv", "--k", "2", "--mode", "double",
           "--seed", "4"]
    r1, r2 = (run_cli(fac + ["--out-a", f"A{i}.csv", "--out-w", f"W{i}.csv"],
                      tmp_path) for i in (1, 2))
    assert r1.returncode == r2.returncode == 0
    assert (tmp_path / "A1.csv").read_bytes() == (
        tmp_path / "A2.csv").read_bytes()
    assert (tmp_path / "W1.csv").read_bytes() == (
        tmp_path / "W2.csv").read_bytes()
    # stdout JSON identical apart from the wall-time field
    o1, o2 = json.loads(r1.stdout), json.loads(r2.stdout)
    assert o1["objective"] == o2["objective"]

    sweep = ["sweep", "--m", "5", "--n", "12", "--k", "2", "--noise-grid",
             "0.1,0.4", "--trials", "4", "--seed", "8", "--restarts", "3"]
    for out in ("s1.csv", "s2.csv"):
        assert run_cli(sweep + ["--out", out], tmp_path).returncode == 0
    assert (tmp_path / "s1.csv").read_bytes() == (
        tmp_path / "s2.csv").read_bytes()

    (tmp_path / "edges.csv").write_text("0,0,+\n0,1,-\n1,0,-\n1,1,+\n")
    bcc = ["bcc", "--edges", "edges.csv"]
    r1, r2 = (run_cli(bcc + ["--out", out], tmp_path)
              for out in ("c1.csv", "c2.csv"))
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert (tmp_path / "c1.csv").read_bytes() == (
        tmp_path / "c2.csv").read_bytes()
    report(10, 30, start)
