import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onmf.core import CompactW
from onmf.metrics import (
    non_orthogonality,
    reconstruction_error,
    recovery_error,
    rsfe,
)
from conftest import nonneg_matrices
from oracles import planted_stat


def test_recovery_error_examples():
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    A = np.array([[0.5], [0.5]])
    W = np.array([[1.0, 1.0]])
    assert recovery_error(M, A, W) == pytest.approx(1.0)
    assert recovery_error(M, np.zeros((2, 1)), np.zeros((1, 2))) == (
        pytest.approx(np.sqrt(2.0)))
    assert recovery_error(A @ W, A, W) == 0.0


def test_recovery_error_of_a_residual_whose_squares_overflow():
    M = np.full((2, 2), 1e200)
    assert recovery_error(M, np.zeros((2, 1)), np.zeros((1, 2))) == 2e200


def test_recovery_error_of_a_residual_whose_squares_underflow():
    # The residual is not zero, so neither is its norm: 2 * 1e-200 exactly.
    M = np.full((2, 2), 1e-200)
    assert recovery_error(M, np.zeros((2, 1)), np.zeros((1, 2))) == 2e-200


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


def test_non_orthogonality_rows_whose_squares_overflow():
    # Each squared entry overflows; the rows are parallel, so the two
    # off-diagonal cosines are 1.
    assert non_orthogonality([[1e200, 1e200], [1e200, 1e200]]) == (
        pytest.approx(np.sqrt(2.0)))


def test_non_orthogonality_rows_whose_squares_underflow():
    # Each squared entry underflows to zero; the rows are not zero rows.
    assert non_orthogonality([[1e-200, 1e-200], [1e-200, 1e-200]]) == (
        pytest.approx(np.sqrt(2.0)))


def test_rsfe_examples():
    M = np.eye(2)
    A = np.array([[0.5], [0.5]])
    W = np.array([[1.0, 1.0]])
    assert rsfe(M, A, W) == pytest.approx(0.5)
    assert rsfe(M, np.zeros((2, 1)), np.zeros((1, 2))) == 1.0
    assert rsfe(A @ W, A, W) == 0.0
    with pytest.raises(ValueError):
        rsfe(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)))


def test_rsfe_of_a_matrix_whose_squares_underflow():
    # ||M||_F^2 underflows to zero, yet M is not the zero matrix.
    M = np.full((2, 2), 2e-200)
    assert rsfe(M, np.zeros((2, 1)), np.zeros((1, 2))) == 1.0
    assert rsfe(M, np.full((2, 1), 1e-100), np.full((1, 2), 1e-100)) == (
        pytest.approx(0.25))


def test_rsfe_of_a_residual_whose_squares_overflow():
    # ||M||_F^2 = 4e300 is finite, ||M - AW||_F^2 about 4e320 is not; the
    # ratio is (1e10 - 1)^2.
    M = np.full((2, 2), 1e150)
    A, W = np.full((2, 1), 1e80), np.full((1, 2), 1e80)
    assert rsfe(M, A, W) == pytest.approx((1e10 - 1) ** 2, rel=1e-12)


@pytest.mark.parametrize("M, A, W", [
    # Every entry of A @ W is 2e400; the true residual is about that.
    (np.ones((2, 2)), np.full((2, 1), 1e200), np.full((1, 2), 1e200)),
    # Opposite terms of 1e400 cancel: the true residual is 1, but the
    # product's terms are +inf and -inf.
    (np.ones((1, 1)), np.array([[1e200, -1e200]]), np.full((2, 1), 1e200)),
    # A @ W is finite; M - A @ W is -2e308.
    (np.full((1, 1), -1e308), np.ones((1, 1)), np.full((1, 1), 1e308)),
    # One NaN entry among finite ones: min and max both see it.
    (np.zeros((2, 2)), np.array([[1e200, -1e200], [0.0, 0.0]]),
     np.array([[1e200, 0.0], [1e200, 0.0]])),
    # One -inf entry whose row also holds the largest, finite, entry.
    (np.array([[-1e308, 0.0]]), np.ones((1, 1)), np.array([[1e308, 0.0]])),
], ids=["product-overflows", "product-cancels", "difference-overflows",
        "one-nan-entry", "one-minus-inf-entry"])
def test_metrics_reject_a_residual_that_is_not_finite(M, A, W):
    # No inf or NaN metric, and no RuntimeWarning (an error under the test
    # settings) on the way to the ValueError.
    for metric in (recovery_error, rsfe):
        with pytest.raises(ValueError,
                           match="^computing M - AW overflows float64$"):
            metric(M, A, W)


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


def _metric_bytes(metric, *args):
    try:
        return np.float64(metric(*args)).tobytes()
    except ValueError as exc:
        return str(exc)


def _assert_values_only(M, A, W):
    # Each metric of M, A and W, and evaluate's non_orthogonality(A.T), has
    # the bytes it has on C-ordered copies.
    C = [np.array(X, order="C") for X in (M, A, W)]
    for metric, args, copies in (
            (recovery_error, (M, A, W), C),
            (rsfe, (M, A, W), C),
            (non_orthogonality, (W,), C[2:]),
            (non_orthogonality, (A.T,), (np.array(A.T, order="C"),))):
        assert _metric_bytes(metric, *args) == _metric_bytes(metric, *copies)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda side: st.tuples(
    *[nonneg_matrices(max_side=side, min_side=side)] * 3)))
def test_metrics_depend_on_values_only(matrices):
    # M, A and W each in C, Fortran or strided layout.
    _assert_values_only(*matrices)


@pytest.mark.parametrize("seed", range(5))
def test_metrics_of_a_planted_solution_depend_on_values_only(seed):
    # A noisy W and a dense A: sums long enough for their order to show.
    rng = np.random.default_rng(seed)
    A = rng.random((37, 5))
    W = np.zeros((5, 211))
    W[rng.integers(0, 5, 211), np.arange(211)] = rng.random(211)
    W += 0.01 * rng.random(W.shape)
    M = A @ W + 0.1 * rng.random((37, 211))
    _assert_values_only(*map(np.asfortranarray, (M, A, W)))
    _assert_values_only(*(np.repeat(X, 2, axis=1)[:, ::2] for X in (M, A, W)))
