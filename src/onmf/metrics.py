"""Evaluation metrics for factorizations of planted and real instances."""

from __future__ import annotations

import numpy as np

from onmf.core import as_matrix


def _check_shapes(M: np.ndarray, A: np.ndarray, W: np.ndarray) -> None:
    if A.shape[1] != W.shape[0] or M.shape != (A.shape[0], W.shape[1]):
        raise ValueError(
            f"shape mismatch: M {M.shape}, A {A.shape}, W {W.shape}")


def recovery_error(m_truth, A, W) -> float:
    """Frobenius norm of M_truth - A @ W."""
    m_truth, A, W = as_matrix(m_truth), as_matrix(A), as_matrix(W)
    _check_shapes(m_truth, A, W)
    return float(np.linalg.norm(m_truth - A @ W))


def reconstruction_error(M, A, W) -> float:
    """Frobenius norm of M - A @ W: recovery_error under a second name.

    No module of the package calls it; it is kept only because the
    benchmark in perfbench/ calls it and traces it by name.
    """
    return recovery_error(M, A, W)


def non_orthogonality(W) -> float:
    """Off-unit mass of the row Gram matrix after dropping zero rows.

    Zero rows are removed, the remaining rows L2-normalized, and the result
    is the Frobenius norm of the normalized Gram matrix minus the identity.
    After normalization the diagonal equals one identically, so the metric
    reduces to the off-diagonal cosine mass; computing it that way keeps the
    value exactly zero for rows with pairwise disjoint supports. Empty input
    (or all rows zero) gives zero.
    """
    W = as_matrix(W)
    norms = np.linalg.norm(W, axis=1)
    keep = norms > 0
    if not keep.any():
        return 0.0
    V = W[keep] / norms[keep, None]
    G = V @ V.T
    np.fill_diagonal(G, 0.0)
    return float(np.linalg.norm(G))


def rsfe(M, A, W) -> float:
    """Relative squared Frobenius error: ||M - AW||_F^2 / ||M||_F^2."""
    M, A, W = as_matrix(M), as_matrix(A), as_matrix(W)
    _check_shapes(M, A, W)
    denom = float(np.sum(M * M))
    if denom == 0:
        raise ValueError("rsfe undefined for the zero matrix")
    return float(np.sum((M - A @ W) ** 2)) / denom

