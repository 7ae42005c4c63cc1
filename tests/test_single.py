import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onmf.core import frobenius_norm_sq, normalize_columns
from onmf.double import factorize_double, factorize_double_large_k
from onmf.kmeans import KMeansConfig, weighted_kmeans
from onmf.metrics import non_orthogonality
from onmf.single import _solution, factorize_single
from onmf.synth import gen_planted_double, gen_planted_single
from conftest import NONNEG_CELLS, nonneg_matrices, traced_peak
from oracles import (
    brute_force_kmeans,
    brute_force_single,
    rank_one_fit,
    reference_solution,
    reference_theta,
)


def test_exactly_factorizable():
    M = np.array([[2.0, 0.0], [0.0, 3.0]])
    sol = factorize_single(M, 2, KMeansConfig(restarts=10, seed=0))
    assert sol.objective == pytest.approx(0.0, abs=1e-15)


def test_identity_rank_one():
    # best rank-1 fit of I2: centroid (1/2, 1/2) scaled per column, error 1
    sol = factorize_single(np.eye(2), 1, KMeansConfig(seed=0))
    assert sol.objective == pytest.approx(1.0)


def test_planted_noise_free_recovered():
    inst = gen_planted_single(4, 10, 2, 0.0, 3)
    sol = factorize_single(inst.m_observed, 2,
                           KMeansConfig(restarts=50, seed=0))
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_rejects_negative_entries():
    with pytest.raises(ValueError):
        factorize_single(np.array([[1.0, -1.0]]), 1)


def test_zero_columns_contribute_nothing():
    M = np.array([[1.0, 0.0], [1.0, 0.0]])
    sol = factorize_single(M, 1, KMeansConfig(seed=0))
    assert sol.w.theta[1] == 0.0
    assert sol.objective == pytest.approx(0.0, abs=1e-15)


def test_output_w_always_orthogonal():
    rng = np.random.default_rng(10)
    for trial in range(10):
        M = rng.random((5, 9))
        sol = factorize_single(M, 3, KMeansConfig(restarts=3, seed=trial))
        assert non_orthogonality(sol.w.materialize()) == 0.0


def test_rank_one_fit_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(20):
        S = rng.random((4, 6))
        sigma_sq, u, v = rank_one_fit(S)
        expected = float(np.linalg.svd(S, compute_uv=False)[0] ** 2)
        assert sigma_sq == pytest.approx(expected, rel=1e-10)
        assert (u >= 0).all()
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert frobenius_norm_sq(S - np.outer(u, v)) == pytest.approx(
            frobenius_norm_sq(S) - expected, rel=1e-8, abs=1e-10)


def test_brute_force_identity():
    sol = brute_force_single(np.eye(2), 1)
    assert sol.objective == pytest.approx(1.0)


def test_brute_force_orthogonal_groups():
    M = np.array([[2.0, 4.0, 0.0], [0.0, 0.0, 3.0]])
    assert brute_force_single(M, 2).objective == pytest.approx(0.0, abs=1e-12)


def test_brute_force_rank_one_input():
    assert brute_force_single(np.ones((2, 2)), 1).objective == pytest.approx(
        0.0, abs=1e-12)


def test_theta_first_order_optimality():
    rng = np.random.default_rng(12)
    M = rng.random((4, 6))
    sol = factorize_single(M, 2, KMeansConfig(seed=1))
    base = sol.objective
    W = sol.w.materialize()
    for i in range(6):
        for delta in (1e-6, -1e-6):
            Wp = W.copy()
            Wp[sol.w.group[i], i] = max(sol.w.theta[i] + delta, 0.0)
            assert frobenius_norm_sq(M - sol.a @ Wp) >= base - 1e-12


def test_approximation_chain_on_tiny_instances():
    # objective(algorithm) <= 2 * r_emp * objective(optimum), with r_emp the
    # realized k-means ratio against the brute-force k-means optimum
    rng = np.random.default_rng(13)
    for trial in range(15):
        m, n = int(rng.integers(2, 5)), int(rng.integers(3, 6))
        k = int(rng.integers(1, 3))
        M = rng.random((m, n))
        cfg = KMeansConfig(restarts=50, seed=trial)
        sol = factorize_single(M, k, cfg)
        opt = brute_force_single(M, k)
        pts = normalize_columns(M)
        km = weighted_kmeans(pts, k, cfg)
        km_opt = brute_force_kmeans(pts, k)
        r_emp = km.cost / km_opt.cost if km_opt.cost > 1e-12 else 1.0
        assert sol.objective <= 2 * max(r_emp, 1.0) * opt.objective + 1e-9


def test_scale_covariance():
    rng = np.random.default_rng(14)
    M = rng.random((4, 7))
    cfg = KMeansConfig(restarts=5, seed=3)
    base = factorize_single(M, 2, cfg).objective
    scaled = factorize_single(4.0 * M, 2, cfg).objective
    assert scaled == pytest.approx(16.0 * base, rel=1e-9)


def test_objective_matches_dense_product():
    # _solution takes the objective without materializing W; it must equal
    # the dense ||M - a @ W||_F^2 bit for bit.
    rng = np.random.default_rng(15)
    M = rng.random((5, 8))
    a = rng.random((5, 4))
    a[:, 2] = 0.0  # an all-zero column of a
    group = np.array([0, 1, 2, 3, 2, 0, 1, 3])
    theta = reference_theta(M, a, group)
    theta[[1, 6]] = 0.0  # zero-theta columns
    cases = [(M, _solution(M, a, group, theta))]
    for trial in range(4):
        cfg = KMeansConfig(restarts=2, seed=trial)
        single = gen_planted_single(20, 60, 5, 0.3, trial).m_observed
        double = gen_planted_double(20, 60, 5, 0.3, trial).m_observed
        cases += [
            (single, factorize_single(single, 5, cfg)),
            (double, factorize_double(double, 5, cfg)),
            (double, factorize_double_large_k(double)),  # transposed path
            (double.T, factorize_double_large_k(double.T)),
        ]
    for M, sol in cases:
        assert sol.objective == frobenius_norm_sq(M - sol.a @ sol.w.materialize())


@st.composite
def solution_cases(draw):
    """(M, a, group, theta): M in any layout, a in C or Fortran order."""
    M = draw(nonneg_matrices())
    m, n = M.shape
    k = draw(st.integers(1, 4))
    rows = st.lists(NONNEG_CELLS, min_size=k, max_size=k)
    a = np.array(draw(st.lists(rows, min_size=m, max_size=m)),
                 dtype=np.float64).reshape(m, k)
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    group = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                   max_size=n)), dtype=np.int64)
    theta = np.array(draw(st.lists(NONNEG_CELLS, min_size=n, max_size=n)),
                     dtype=np.float64)
    return M, a, group, theta


@settings(max_examples=300, deadline=None)
@given(solution_cases())
@np.errstate(all="ignore")  # products with 1e308 overflow in both
def test_solution_matches_reference(case):
    got, want = _solution(*case), reference_solution(*case)
    assert got.a is want.a
    assert got.w.group.tobytes() == want.w.group.tobytes()
    assert got.w.theta.tobytes() == want.w.theta.tobytes()
    assert (np.float64(got.objective).tobytes()
            == np.float64(want.objective).tobytes())


@pytest.mark.parametrize("factorize", [factorize_single, factorize_double],
                         ids=["single", "double"])
def test_factorization_frees_the_point_set_before_the_objective(factorize):
    # 100 x 2000 with k = 20. The unit columns and k-means's blocks peak at
    # 2.86 MB here. Keeping the unit columns beside the objective's (m, n)
    # residual would take 3.35 MB (3.38 MB in double mode), and an (n, m)
    # k-means work array beside them 3.76 MB: both pass two (m, n) arrays,
    # 3.2 MB.
    m, n, k = 100, 2000, 20
    M = gen_planted_single(m, n, k, 0.5, 3).m_observed
    config = KMeansConfig(restarts=10, max_iters=10)
    assert traced_peak(lambda: factorize(M, k, config)) < 2 * 8 * m * n
