import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from onmf.core import COS_NARROW, COS_WIDE, normalize_columns
from onmf.double import (
    GroupingError,
    _cosine_matrix,
    centroid_weights,
    factorize_double,
    factorize_double_large_k,
    group_centroids,
    solve_orthogonal_centroids,
    weight_reduction,
)
from onmf.kmeans import KMeansConfig, KMeansSolution, weighted_kmeans
from onmf.metrics import non_orthogonality
from onmf.synth import gen_planted_double
from conftest import planted_labels
from oracles import (
    SIN_SQ_PI_12,
    angle,
    brute_force_double,
    coordinate_enumeration_optimum,
)

LARGE_K_RATIO = 1.0 / SIN_SQ_PI_12


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_centroid_weights_single_cluster():
    pts = normalize_columns(np.array([[1.0, 2.0], [1.0, 2.0]]))
    sol = KMeansSolution(centroids=np.zeros((3, 2)),
                         assignment=np.zeros(2, dtype=np.int64), cost=0.0)
    centroids, q = centroid_weights(pts, sol)
    assert q[0] == pytest.approx(pts.total_weight())
    assert q[1] == q[2] == 0.0
    assert np.linalg.norm(centroids[0]) <= 1 + 1e-12


def test_centroid_weights_recentred_norm_at_most_one():
    rng = np.random.default_rng(15)
    for trial in range(10):
        pts = normalize_columns(rng.random((4, 12)))
        sol = weighted_kmeans(pts, 3, KMeansConfig(seed=trial))
        centroids, q = centroid_weights(pts, sol)
        for j in range(3):
            if q[j] > 0:
                assert np.linalg.norm(centroids[j]) <= 1 + 1e-12
                assert np.linalg.norm(centroids[j]) > 0


def test_weight_reduction_orthogonal_pair_untouched():
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = np.array([3.0, 5.0])
    assert np.array_equal(weight_reduction(_cosine_matrix(centroids), q), q)


def test_weight_reduction_in_band_pair():
    centroids = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    qp = weight_reduction(_cosine_matrix(centroids), np.array([3.0, 5.0]))
    assert np.allclose(qp, [0.0, 2.0])


def test_weight_reduction_identical_centroids_untouched():
    centroids = np.array([[1.0, 0.0], [1.0, 0.0]])
    q = np.array([2.0, 2.0])
    assert np.array_equal(weight_reduction(_cosine_matrix(centroids), q), q)


def test_weight_reduction_band_emptiness():
    rng = np.random.default_rng(16)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        centroids = rng.random((k, 3)) + 1e-6
        q = rng.random(k)
        qp = weight_reduction(_cosine_matrix(centroids), q)
        assert (qp >= 0).all() and (qp <= q + 1e-15).all()
        for j1, j2 in itertools.combinations(range(k), 2):
            if qp[j1] > 0 and qp[j2] > 0:
                c = math.cos(angle(centroids[j1], centroids[j2]))
                assert not (COS_WIDE <= c <= COS_NARROW)


def test_grouping_single_positive_centroid():
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    sigma = group_centroids(_cosine_matrix(centroids), np.array([1.0, 0.0]))
    assert sigma[0] == 0
    assert sigma[1] == 0  # zero-weight joins the nearest positive group


def test_grouping_two_groups():
    centroids = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        unit([1.0, 0.05]),
    ])
    sigma = group_centroids(_cosine_matrix(centroids),
                            np.array([1.0, 1.0, 1.0]))
    assert sigma[0] == sigma[2]
    assert sigma[1] != sigma[0]


def test_grouping_all_equal():
    centroids = np.tile(unit([1.0, 2.0]), (4, 1))
    sigma = group_centroids(_cosine_matrix(centroids), np.ones(4))
    assert (sigma == 0).all()


def test_grouping_transitivity_on_random_reduced_inputs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        centroids = rng.random((k, 4)) + 1e-6
        cos = _cosine_matrix(centroids)
        qp = weight_reduction(cos, rng.random(k))
        sigma = group_centroids(cos, qp)
        pos = np.flatnonzero(qp > 0)
        for j1, j2 in itertools.combinations(pos, 2):
            a = angle(centroids[j1], centroids[j2])
            if sigma[j1] == sigma[j2]:
                assert a < math.pi / 6 + 1e-12
            else:
                assert a > math.pi / 3 - 1e-12


# The pair-loop forms of weight_reduction and group_centroids that the array
# forms replaced, kept as the reference for the differential tests below.


def _reference_weight_reduction(centroids: np.ndarray, q: np.ndarray) -> np.ndarray:
    k = len(q)
    cos = _cosine_matrix(centroids)
    qp = np.array(q, dtype=np.float64)
    for j1 in range(k):
        if qp[j1] <= 0:
            continue
        for j2 in range(j1 + 1, k):
            if qp[j2] <= 0 or qp[j1] <= 0:
                continue
            if COS_WIDE <= cos[j1, j2] <= COS_NARROW:
                d = min(qp[j1], qp[j2])
                qp[j1] -= d
                qp[j2] -= d
    return qp


def _reference_group_centroids(centroids: np.ndarray,
                               q_reduced: np.ndarray) -> np.ndarray:
    k = len(q_reduced)
    sigma = np.zeros(k, dtype=np.int64)
    positive = np.flatnonzero(q_reduced > 0)
    if positive.size == 0:
        return sigma
    cos = _cosine_matrix(centroids)

    # Union-find over the positive-weight centroids.
    parent = {int(j): int(j) for j in positive}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a_idx in range(positive.size):
        for b_idx in range(a_idx + 1, positive.size):
            j1, j2 = int(positive[a_idx]), int(positive[b_idx])
            if cos[j1, j2] > COS_NARROW:
                ra, rb = find(j1), find(j2)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    group_of_root: dict[int, int] = {}
    for j in positive:
        root = find(int(j))
        if root not in group_of_root:
            group_of_root[root] = len(group_of_root)
        sigma[j] = group_of_root[root]

    # Verification pass: the post-reduction angle structure must hold.
    for a_idx in range(positive.size):
        for b_idx in range(a_idx + 1, positive.size):
            j1, j2 = int(positive[a_idx]), int(positive[b_idx])
            c = cos[j1, j2]
            if sigma[j1] == sigma[j2]:
                if not c > COS_NARROW:
                    # Reachable through a chain of small angles whose total
                    # stays below pi/3, yet the direct angle must then be
                    # below pi/6 since the band is empty.
                    raise GroupingError(
                        f"within-group angle too large for centroids {j1},{j2}")
            elif not c < COS_WIDE:
                raise GroupingError(
                    f"cross-group angle too small for centroids {j1},{j2}")

    # Extend to zero-weight centroids by the nearest positive one.
    zero_norm = np.linalg.norm(centroids, axis=1) == 0
    for j in range(k):
        if q_reduced[j] > 0:
            continue
        if zero_norm[j]:
            nearest = int(positive[0])
        else:
            nearest = int(positive[np.argmax(cos[j, positive])])
        sigma[j] = sigma[nearest]
    return sigma


ANGLES = (0.0, math.pi / 12, math.pi / 6, math.pi / 3, math.pi / 2)


@st.composite
def centroid_sets(draw):
    """(centroids, q): random, 0/1 tie-heavy or 2-D band-edge centroids,
    with zero centroids and zero or negative weights mixed in."""
    k = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["random", "binary", "angles"]))
    if kind == "angles":
        row = st.builds(lambda t, r: [r * math.cos(t), r * math.sin(t)],
                        st.sampled_from(ANGLES),
                        st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    else:
        d = draw(st.integers(1, 4))
        cell = (st.floats(0.0, 1.0) if kind == "random"
                else st.sampled_from([0.0, 1.0]))
        row = st.lists(cell, min_size=d, max_size=d)
    centroids = np.array(draw(st.lists(row, min_size=k, max_size=k)))
    weight = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1.0, 4.0)
    q = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
    return centroids, q


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except GroupingError as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


@settings(max_examples=400, deadline=None)
@given(centroid_sets())
@example((np.array([[0.0], [1e-200], [0.0], [1.0]]),  # 1e-200: norm underflows
          np.array([0.0, 0.0, 1.0, 1.0])))
def test_large_k_steps_match_pair_loop_reference(case):
    centroids, q = case
    cos = _cosine_matrix(centroids)
    assert _outcome(weight_reduction, cos, q) == _outcome(
        _reference_weight_reduction, centroids, q)
    # Reduced weights, then the unreduced ones, which may raise.
    for weights in (weight_reduction(cos, q), q):
        assert _outcome(group_centroids, cos, weights) == _outcome(
            _reference_group_centroids, centroids, weights)


def _duplicated_binary_columns(seed):
    """0/1 columns on 4 disjoint supports of 15 rows: each support as 3
    identical columns and 3 one-row-short variants, each twice, plus 2 zero
    columns, shuffled. Every group has several members joined by many edges."""
    rng = np.random.default_rng(seed)
    cols = []
    for s in range(4):
        base = np.zeros(60)
        base[15 * s:15 * s + 15] = 1.0
        cols += [base] * 3
        for drop in rng.choice(15, size=3, replace=False):
            variant = base.copy()
            variant[15 * s + drop] = 0.0
            cols += [variant] * 2
    cols += [np.zeros(60)] * 2
    return np.array(cols).T[:, rng.permutation(len(cols))]


@pytest.mark.parametrize("M, multi_member", [
    (planted_labels(600, 600, 12, 0.2, 1).astype(float), False),
    (gen_planted_double(300, 200, 20, 0.05, 3).m_observed, True),
    (_duplicated_binary_columns(4), True),
], ids=["bcc-600x600", "planted-300x200", "duplicated-0/1"])
def test_large_k_steps_match_reference_at_benchmark_scale(M, multi_member):
    pts = normalize_columns(M)
    centroids, q = pts.points, pts.weights
    cos = _cosine_matrix(centroids)
    reduced = weight_reduction(cos, q)
    assert _outcome(weight_reduction, cos, q) == _outcome(
        _reference_weight_reduction, centroids, q)
    for weights in (reduced, q):
        assert _outcome(group_centroids, cos, weights) == _outcome(
            _reference_group_centroids, centroids, weights)
    if multi_member:
        positive = reduced > 0
        sigma = group_centroids(cos, reduced)
        assert np.unique(sigma[positive]).size < positive.sum()


@pytest.mark.parametrize("angles, message", [
    ((0.0, math.pi / 4), "cross-group angle too small for centroids 0,1"),
    ((0.0, 0.5, 1.0), "within-group angle too large for centroids 0,2"),
])
def test_grouping_error_matches_reference(angles, message):
    centroids = np.array([[math.cos(t), math.sin(t)] for t in angles])
    q = np.ones(len(angles))
    expected = (GroupingError, message)
    assert _outcome(_reference_group_centroids, centroids, q) == expected
    assert _outcome(group_centroids, _cosine_matrix(centroids), q) == expected


def test_solver_one_group_is_weighted_mean():
    centroids = np.array([[0.5, 0.1], [0.3, 0.4]])
    qp = np.array([2.0, 1.0])
    a = solve_orthogonal_centroids(centroids, qp, np.array([0, 0]))
    mean = qp @ centroids / qp.sum()
    assert np.allclose(a[:, 0], mean)
    assert (a[:, 1:] == 0).all()


def test_solver_coordinate_argmax():
    # coordinate with (q1, mu1) = (2, 0.6) and (q2, mu2) = (1, 0.9):
    # 1 * 0.81 > 2 * 0.36 so group 2 wins the coordinate
    centroids = np.array([[0.6], [0.9]])
    qp = np.array([2.0, 1.0])
    a = solve_orthogonal_centroids(centroids, qp, np.array([0, 1]))
    assert a[0, 0] == 0.0
    assert a[0, 1] == pytest.approx(0.9)


def test_solver_zero_coordinate():
    centroids = np.array([[0.0, 0.5], [0.0, 0.2]])
    a = solve_orthogonal_centroids(centroids, np.array([1.0, 1.0]),
                                   np.array([0, 1]))
    assert (a[0] == 0).all()


def test_solver_exactly_optimal():
    rng = np.random.default_rng(18)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        centroids = rng.random((k, m))
        qp = np.where(rng.random(k) < 0.2, 0.0, rng.random(k))
        sigma = rng.integers(0, k, k)
        a = solve_orthogonal_centroids(centroids, qp, sigma)
        achieved = sum(qp[j] * np.sum((centroids[j] - a[:, sigma[j]]) ** 2)
                       for j in range(k) if qp[j] > 0)
        expected = coordinate_enumeration_optimum(centroids, qp, sigma)
        assert achieved == pytest.approx(expected, abs=1e-12)
        # feasibility: disjoint supports, non-negative
        assert (a >= 0).all()
        assert (np.count_nonzero(a, axis=1) <= 1).all()


def test_factorize_double_exact_instance():
    M = np.array([[2.0, 0.0], [0.0, 3.0]])
    sol = factorize_double(M, 2, KMeansConfig(restarts=10, seed=0))
    assert sol.objective == pytest.approx(0.0, abs=1e-15)


def test_factorize_double_zero_matrix():
    sol = factorize_double(np.zeros((3, 4)), 2, KMeansConfig(seed=0))
    assert sol.objective == 0.0
    assert (sol.a == 0).all()
    assert (sol.w.theta == 0).all()


def test_factorize_double_planted_noise_free():
    inst = gen_planted_double(5, 8, 2, 0.0, 4)
    sol = factorize_double(inst.m_observed, 2,
                           KMeansConfig(restarts=50, seed=0))
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_double_output_orthogonality_both_factors():
    rng = np.random.default_rng(19)
    for trial in range(10):
        M = rng.random((5, 8))
        sol = factorize_double(M, 3, KMeansConfig(restarts=3, seed=trial))
        assert non_orthogonality(sol.w.materialize()) == 0.0
        assert non_orthogonality(sol.a.T) == 0.0


def test_large_k_all_ones():
    sol = factorize_double_large_k(np.ones((2, 2)))
    assert sol.objective == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(sol.a[:, sol.w.group[0]], unit([1.0, 1.0]))
    assert np.allclose(sol.w.theta, math.sqrt(2.0))


def test_large_k_identity():
    sol = factorize_double_large_k(np.eye(2))
    assert sol.objective == pytest.approx(0.0, abs=1e-15)
    assert len(set(sol.w.group.tolist())) == 2


def test_large_k_transposes_wide_input():
    rng = np.random.default_rng(20)
    M = rng.random((3, 6))  # m < n: forces the transpose path
    sol = factorize_double_large_k(M)
    assert sol.a.shape[0] == 3
    assert sol.w.n == 6
    assert non_orthogonality(sol.w.materialize()) == 0.0
    assert non_orthogonality(sol.a.T) == 0.0


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_large_k_empty_matrix(shape):
    # With no rows nothing is transposed; either way the inner dimension
    # is n.
    sol = factorize_double_large_k(np.zeros(shape))
    assert sol.objective == 0.0
    assert sol.a.shape == shape
    assert sol.w.materialize().shape == (shape[1], shape[1])


def test_large_k_ratio_against_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(15):
        M = (rng.random((4, 4)) < 0.5).astype(float)
        obj = factorize_double_large_k(M).objective
        opt = brute_force_double(M, 4)
        assert obj <= LARGE_K_RATIO * opt + 1e-9


def test_brute_force_double_exact_block_structure():
    M = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert brute_force_double(M, 2) == pytest.approx(0.0, abs=1e-12)
    assert brute_force_double(np.eye(2), 2) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_double_frozen_reference():
    # [[1,1],[1,0]] with k=2: keeping the whole matrix as one rank-1 block is
    # optimal; error = 3 - (3+sqrt(5))/2
    expected = 3.0 - (3.0 + math.sqrt(5.0)) / 2.0
    assert brute_force_double(np.array([[1.0, 1.0], [1.0, 0.0]]),
                              2) == pytest.approx(expected, rel=1e-9)


def test_brute_force_double_too_large():
    with pytest.raises(ValueError):
        brute_force_double(np.ones((6, 3)), 2)
