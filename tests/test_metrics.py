import numpy as np
import pytest

from onmf.core import CompactW
from onmf.metrics import (
    non_orthogonality,
    reconstruction_error,
    recovery_error,
    rsfe,
)
from oracles import planted_stat


def test_recovery_error_examples():
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    A = np.array([[0.5], [0.5]])
    W = np.array([[1.0, 1.0]])
    assert recovery_error(M, A, W) == pytest.approx(1.0)
    assert recovery_error(M, np.zeros((2, 1)), np.zeros((1, 2))) == (
        pytest.approx(np.sqrt(2.0)))
    assert recovery_error(A @ W, A, W) == 0.0


def test_reconstruction_equals_recovery_on_same_matrix():
    rng = np.random.default_rng(25)
    M = rng.random((3, 4))
    A = rng.random((3, 2))
    W = rng.random((2, 4))
    assert reconstruction_error(M, A, W) == recovery_error(M, A, W)


def test_error_shape_mismatch():
    with pytest.raises(ValueError):
        recovery_error(np.ones((2, 2)), np.ones((2, 1)), np.ones((2, 2)))


def test_non_orthogonality_compact_w_is_zero():
    rng = np.random.default_rng(26)
    for _ in range(20):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        w = CompactW(k=k, group=rng.integers(0, k, n), theta=rng.random(n))
        assert non_orthogonality(w.materialize()) == 0.0


def test_non_orthogonality_known_value():
    # normalized rows (1,0) and (1/sqrt2, 1/sqrt2) have cosine 1/sqrt2;
    # sqrt(2 * 1/2) = 1
    assert non_orthogonality([[1.0, 0.0], [1.0, 1.0]]) == pytest.approx(1.0)


def test_non_orthogonality_zero_rows_removed():
    assert non_orthogonality([[0.0, 0.0], [2.0, 1.0]]) == 0.0
    assert non_orthogonality(np.zeros((3, 2))) == 0.0


def test_rsfe_examples():
    M = np.eye(2)
    A = np.array([[0.5], [0.5]])
    W = np.array([[1.0, 1.0]])
    assert rsfe(M, A, W) == pytest.approx(0.5)
    assert rsfe(M, np.zeros((2, 1)), np.zeros((1, 2))) == 1.0
    assert rsfe(A @ W, A, W) == 0.0
    with pytest.raises(ValueError):
        rsfe(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)))


def test_rsfe_cross_computation():
    rng = np.random.default_rng(27)
    M = rng.random((4, 5))
    A = rng.random((4, 2))
    W = rng.random((2, 5))
    assert rsfe(M, A, W) == pytest.approx(
        reconstruction_error(M, A, W) ** 2 / np.sum(M * M), rel=1e-12)


def test_planted_stat():
    mean, sd = planted_stat(20, 50, 0.5)
    assert mean == pytest.approx(500.0)
    assert sd == pytest.approx(np.sqrt(20 * 20 * 50) * 0.25)
    assert planted_stat(10, 10, 0.0) == (0.0, 0.0)
    mean, _ = planted_stat(100, 5000, 1.0)
    assert np.sqrt(mean) == pytest.approx(1000.0)
