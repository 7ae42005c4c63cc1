"""Seeded generation of planted orthogonal-factorization instances.

An instance is built from random non-negative factors whose product is the
planted matrix, plus iid non-negative exponential noise on every entry. Every
non-zero factor entry is Exp(1); the noise level is the mean of the noise
distribution. The draw order is fixed (A entries row-major, then W column
positions and values, then noise row-major) so a seed pins the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlantedInstance:
    """A synthetic instance with its hidden ground-truth factorization."""

    a_truth: np.ndarray  # (m, k)
    w_truth: np.ndarray  # (k, n)
    m_truth: np.ndarray  # (m, n) = a_truth @ w_truth
    m_observed: np.ndarray  # (m, n) = m_truth + noise, entrywise >= m_truth


def _exp(rng: np.random.Generator, shape, mean: float) -> np.ndarray:
    """iid exponential draws with the given mean.

    Drawn by inverting the CDF, not with rng.exponential: that keeps the
    established streams, consumes exactly one uniform per draw, and makes a
    mean of zero give exactly zero.
    """
    return -mean * np.log1p(-rng.random(shape))


def _planted(m: int, n: int, k: int, noise_level: float, seed: int,
             double: bool) -> PlantedInstance:
    if m < 1 or n < 1 or k < 1:
        raise ValueError("m, n, k must all be >= 1")
    if not 0 <= noise_level < np.inf:
        raise ValueError("noise_level must be finite and non-negative")
    rng = np.random.default_rng(seed)

    if double:
        # One non-zero per row of A at a uniformly random column: the columns
        # of A then have pairwise disjoint supports.
        a_truth = np.zeros((m, k))
        cols = rng.integers(0, k, size=m)
        a_truth[np.arange(m), cols] = _exp(rng, m, 1.0)
    else:
        a_truth = _exp(rng, (m, k), 1.0)

    # One non-zero per column of W at a uniformly random row: rows of W have
    # pairwise disjoint supports.
    w_truth = np.zeros((k, n))
    rows = rng.integers(0, k, size=n)
    w_truth[rows, np.arange(n)] = _exp(rng, n, 1.0)

    m_truth = a_truth @ w_truth
    noise = _exp(rng, (m, n), noise_level)
    return PlantedInstance(a_truth=a_truth, w_truth=w_truth, m_truth=m_truth,
                           m_observed=m_truth + noise)


def gen_planted_single(m: int, n: int, k: int, noise_level: float,
                       seed: int) -> PlantedInstance:
    """Planted instance with dense A and orthogonal-rows W."""
    return _planted(m, n, k, noise_level, seed, double=False)


def gen_planted_double(m: int, n: int, k: int, noise_level: float,
                       seed: int) -> PlantedInstance:
    """Planted instance with orthogonal-columns A and orthogonal-rows W."""
    return _planted(m, n, k, noise_level, seed, double=True)
