"""Single-factor orthogonality: orthogonal-rows W, unconstrained A.

The algorithm normalizes the columns of M into a weighted point set, solves
weighted k-means, clamps the centroids non-negative, and rescales each column
onto its centroid; W then has at most one non-zero per column by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onmf.core import CompactW, normalize_columns
from onmf.kmeans import KMeansConfig, weighted_kmeans


@dataclass
class OnmfSolution:
    """A structured factorization M ~ a @ w.materialize()."""

    a: np.ndarray  # (m, k)
    w: CompactW
    objective: float


def _theta_against(M: np.ndarray, a: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Least-squares scale per column of M onto its group's column of a.

    factorize_single fits theta here on its dense a; the double
    factorizations fit it from their compact factor with double._fit_theta,
    which gives the same bits.
    """
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
    """Package (a, group, theta) with its objective ||M - a W||_F^2.

    Column i of a @ W is a[:, group[i]] * theta[i] exactly (every other
    term of the product is a zero), so W is never materialized.
    """
    w = CompactW(k=a.shape[1], group=group, theta=theta)
    # M - a[:, group] * theta, squared, all in one C-ordered buffer: the same
    # elementwise operations and pairwise sum as frobenius_norm_sq of it.
    residual = np.take(a, w.group, axis=1)
    residual *= w.theta
    np.subtract(M, residual, out=residual)
    residual *= residual
    return OnmfSolution(a=a, w=w, objective=float(np.sum(residual)))


def _cluster(M, k: int, config: KMeansConfig | None):
    """Check M, then weighted k-means on the normalized columns.

    Returns (M as a checked, C-ordered float64 matrix, the point set, the
    solution); config defaults to KMeansConfig(). kmeanspp_seed rejects a k
    below 1. M is taken in C order so that the results depend on its values
    alone, not on its memory layout.
    """
    M = np.asarray(M, dtype=np.float64, order="C")
    pts = normalize_columns(M)  # the one check of M
    return M, pts, weighted_kmeans(pts, k, config or KMeansConfig())


def factorize_single(M, k: int, config: KMeansConfig | None = None) -> OnmfSolution:
    """Factorize with orthogonal rows of W via weighted k-means."""
    M, pts, sol = _cluster(M, k, config)
    del pts  # the unit columns, as large as M: free them before the objective
    a = np.maximum(sol.centroids.T, 0.0)  # (m, k), clamp is a no-op on our data
    return _solution(M, a, sol.assignment,
                     _theta_against(M, a, sol.assignment))
