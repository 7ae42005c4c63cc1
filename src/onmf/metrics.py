"""Evaluation metrics for factorizations of planted and real instances."""

from __future__ import annotations

import math

import numpy as np

from onmf.core import as_matrix, frobenius_norm_sq


def _residual(M, A, W, AW=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, M - A @ W, A @ W), checked. AW, when given, is the A @ W that a
    call returned for the same A and W, and the product is not formed again:
    M - AW has the bits of M - A @ W. A @ W can have opposite infinite
    terms, and it or the difference can overflow, even where the true
    residual is small: that raises a ValueError, with no RuntimeWarning."""
    M, A, W = (as_matrix(np.asarray(X, dtype=np.float64, order="C"))
               for X in (M, A, W))  # C order: the bits follow the values
    if A.shape[1] != W.shape[0] or M.shape != (A.shape[0], W.shape[1]):
        raise ValueError(
            f"shape mismatch: M {M.shape}, A {A.shape}, W {W.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if AW is None:
            AW = A @ W
        R = M - AW
        # NaN propagates through min and max: no mask the size of R.
        if R.size and not (math.isfinite(R.min())
                           and math.isfinite(R.max())):
            raise ValueError("computing M - AW overflows float64")
    return M, R, AW


def _rescaled(f, X: np.ndarray) -> tuple[float, float]:
    """(f(X / s), s) for f a norm or a sum of squares of the finite matrix X.

    s is 1, and the value f(X) bit for bit, unless f(X) overflows, or
    underflows to 0 for a non-zero X: then s is X's largest absolute entry.
    """
    with np.errstate(over="ignore"):
        value = float(f(X))
    if value == np.inf or (value == 0 and X.any()):
        s = float(np.abs(X).max())
        return float(f(X / s)), s
    return value, 1.0


def _norm(R: np.ndarray) -> float:
    """Frobenius norm of the residual R, also where the squares of its
    entries overflow or underflow (_rescaled). The sum of squares is
    einsum's: np.linalg.norm's BLAS dot adds in an order that follows the
    thread count, and frobenius_norm_sq's R * R is as large as R."""
    sum_sq, s = _rescaled(lambda X: np.einsum("ij,ij->", X, X), R)
    return math.sqrt(sum_sq) * s


def _rsfe(M: np.ndarray, R: np.ndarray) -> float:
    """||R||_F^2 / ||M||_F^2 for the residual R of M, rescaled likewise."""
    num, s_r = _rescaled(frobenius_norm_sq, R)
    denom, s_m = _rescaled(frobenius_norm_sq, M)
    if denom == 0:
        raise ValueError("rsfe undefined for the zero matrix")
    ratio = s_r / s_m
    return num / denom * ratio * ratio


def recovery_error(m_truth, A, W) -> float:
    """Frobenius norm of M_truth - A @ W (_norm)."""
    return _norm(_residual(m_truth, A, W)[1])


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
    (or all rows zero) gives zero. A non-zero row whose squared norm
    overflows, or falls below the normal floats, is first divided by its
    largest absolute entry.
    """
    W = as_matrix(np.asarray(W, dtype=np.float64, order="C"))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(W, axis=1)
    odd = norms == np.inf
    small = np.flatnonzero(norms < 2.0**-511)  # squared: below 2^-1022
    odd[small] = W[small].any(axis=1)
    if odd.any():
        W = W.copy()
        W[odd] /= np.abs(W[odd]).max(axis=1, keepdims=True)
        norms[odd] = np.linalg.norm(W[odd], axis=1)
    keep = norms > 0
    if not keep.any():
        return 0.0
    V = W[keep] / norms[keep, None]
    G = V @ V.T
    np.fill_diagonal(G, 0.0)
    return float(np.linalg.norm(G))


def rsfe(M, A, W) -> float:
    """Relative squared Frobenius error: ||M - AW||_F^2 / ||M||_F^2."""
    return _rsfe(*_residual(M, A, W)[:2])
