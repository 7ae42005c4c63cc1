"""Single-factor orthogonality: orthogonal-rows W, unconstrained A.

The algorithm normalizes the columns of M into a weighted point set, solves
weighted k-means, clamps the centroids non-negative, and rescales each column
onto its centroid; W then has at most one non-zero per column by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onmf.core import BLOCK_ENTRIES, CompactW, normalize_columns
from onmf.kmeans import KMeansConfig, weighted_kmeans


@dataclass
class OnmfSolution:
    """A structured factorization M ~ a @ w.materialize()."""

    a: np.ndarray  # (m, k)
    w: CompactW
    objective: float


def _fit_theta(M: np.ndarray, group: np.ndarray, a) -> np.ndarray:
    """Least-squares scale per column of M onto its group's column x of A:
    max(M[:, i] . x / |x|^2, 0), or 0 where |x|^2 is 0. a is A, dense
    (m, k) or compact (owner, value, k) as solve_orthogonal_centroids
    returns it; only the gather of x differs.

    The columns of non-zero groups go BLOCK_ENTRIES entries at a time, as
    two blocks of rows: x and a float64 copy of M's columns. Each dot and
    squared norm is one row's pairwise .sum(axis=1), so theta depends on
    the values alone, not on the block size, M's dtype or the BLAS thread
    count. (A BLAS dot past 10,000 terms follows the thread count, and
    einsum past 8,192 entries a row follows the rows it takes at once.)
    """
    compact = isinstance(a, tuple)
    if compact:  # row r of A holds value[r] in column owner[r]
        owner, value, k = a
        live = np.bincount(owner, value, k) > 0
    else:
        live = a.any(axis=0)
    m, n = M.shape
    theta = np.zeros(n)
    cols = np.flatnonzero(live[group])
    step = max(1, BLOCK_ENTRIES // max(m, 1))
    for lo in range(0, cols.size, step):
        c = cols[lo:lo + step]
        s = group[c]
        x = np.where(owner == s[:, None], value, 0.0) if compact else a.T[s]
        prod = M.T[c].astype(np.float64, copy=False)
        prod *= x
        x *= x
        norms_sq = x.sum(axis=1)
        fit = np.divide(prod.sum(axis=1), norms_sq, out=np.zeros(len(c)),
                        where=norms_sq > 0)
        theta[c] = np.maximum(fit, 0.0)
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
    return _solution(M, a, sol.assignment, _fit_theta(M, sol.assignment, a))
