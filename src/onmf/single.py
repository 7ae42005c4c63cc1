"""Single-factor orthogonality: orthogonal-rows W, unconstrained A.

The algorithm normalizes the columns of M into a weighted point set, solves
weighted k-means, clamps the centroids non-negative, and rescales each column
onto its centroid; W then has at most one non-zero per column by
construction. A brute-force oracle (assignment enumeration plus power
iteration for the best rank-1 fit per cluster) provides exact optima for
ratio tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from onmf.core import CompactW, check_nonneg, frobenius_norm_sq, normalize_columns
from onmf.kmeans import KMeansConfig, weighted_kmeans


@dataclass
class OnmfSolution:
    """A structured factorization M ~ a @ w.materialize()."""

    a: np.ndarray  # (m, k)
    w: CompactW
    objective: float


def rank_one_fit(S: np.ndarray, max_iters: int = 1000,
                 tol: float = 1e-12) -> tuple[float, np.ndarray, np.ndarray]:
    """Leading singular triple of a non-negative matrix by power iteration.

    Returns (sigma^2, u, v) with u a unit non-negative left singular vector
    and v = S^T u, so u @ v.T is the best rank-1 approximation. For
    non-negative S the leading pair is entrywise non-negative
    (Perron-Frobenius), enforced by taking absolute values of the iterate.
    """
    S = np.asarray(S, dtype=np.float64)
    m, n = S.shape
    if not S.any():
        return 0.0, np.zeros(m), np.zeros(n)
    u = np.full(m, 1.0 / np.sqrt(m))
    prev = 0.0
    sigma_sq = 0.0
    for _ in range(max_iters):
        z = S @ (S.T @ u)
        norm = np.linalg.norm(z)
        if norm == 0:
            break
        u = np.abs(z) / norm
        v = S.T @ u
        sigma_sq = float(v @ v)
        if abs(sigma_sq - prev) <= tol * max(sigma_sq, 1e-300):
            break
        prev = sigma_sq
    return sigma_sq, u, S.T @ u


def _theta_against(M: np.ndarray, a: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Least-squares scale per column of M onto its group's column of a."""
    n = M.shape[1]
    theta = np.zeros(n)
    norms_sq = np.einsum("ms,ms->s", a, a)
    for i in range(n):
        s = group[i]
        if norms_sq[s] > 0:
            theta[i] = max(float(M[:, i] @ a[:, s]) / norms_sq[s], 0.0)
    return theta


def _solution(M: np.ndarray, a: np.ndarray, group: np.ndarray,
              theta: np.ndarray) -> OnmfSolution:
    """Package (a, group, theta) with its objective ||M - a W||_F^2."""
    w = CompactW(k=a.shape[1], group=group, theta=theta)
    return OnmfSolution(a=a, w=w,
                        objective=frobenius_norm_sq(M - a @ w.materialize()))


def factorize_single(M, k: int, config: KMeansConfig | None = None) -> OnmfSolution:
    """Factorize with orthogonal rows of W via weighted k-means."""
    M = check_nonneg(M)
    if k < 1:
        raise ValueError("k must be >= 1")
    if config is None:
        config = KMeansConfig()
    pts = normalize_columns(M)
    sol = weighted_kmeans(pts, k, config)
    a = np.maximum(sol.centroids.T, 0.0)  # (m, k), clamp is a no-op on our data
    return _solution(M, a, sol.assignment,
                     _theta_against(M, a, sol.assignment))


def brute_force_single(M, k: int) -> OnmfSolution:
    """Exact optimum over all column-to-cluster assignments (test oracle).

    Per cluster the best contribution is the rank-1 fit of the cluster
    submatrix, so the objective of an assignment is the total squared norm
    minus the sum of leading squared singular values of its clusters.
    """
    M = check_nonneg(M)
    m, n = M.shape
    if k**n > 10**6:
        raise ValueError("instance too large for brute force")
    total_sq = frobenius_norm_sq(M)
    cache: dict[int, float] = {}

    def cluster_gain(mask: int) -> float:
        hit = cache.get(mask)
        if hit is not None:
            return hit
        idx = [i for i in range(n) if mask >> i & 1]
        sigma_sq, _, _ = rank_one_fit(M[:, idx])
        cache[mask] = sigma_sq
        return sigma_sq

    best_gain = -1.0
    best_assign: tuple[int, ...] | None = None
    for assign in itertools.product(range(k), repeat=n):
        masks = [0] * k
        for i, j in enumerate(assign):
            masks[j] |= 1 << i
        gain = sum(cluster_gain(msk) for msk in masks if msk)
        if gain > best_gain:
            best_gain = gain
            best_assign = assign
    assert best_assign is not None

    group = np.array(best_assign, dtype=np.int64)
    a = np.zeros((m, k))
    for j in range(k):
        idx = np.flatnonzero(group == j)
        if idx.size:
            _, u, _ = rank_one_fit(M[:, idx])
            a[:, j] = u
    return _solution(M, a, group, _theta_against(M, a, group))
