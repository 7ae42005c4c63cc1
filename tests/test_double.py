import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import onmf.core
import onmf.double
import onmf.kmeans
import onmf.single
from onmf.bcc import BipartiteLabeling, bcc_cluster
from onmf.core import MAX_TOTAL_WEIGHT, check_nonneg, normalize_columns
from onmf.double import (
    GroupingError,
    angle_pairs,
    centroid_weights,
    factorize_double,
    factorize_double_large_k,
    group_centroids,
    solve_orthogonal_centroids,
    weight_reduction,
)
from onmf.kmeans import KMeansConfig, KMeansSolution, weighted_kmeans
from onmf.metrics import non_orthogonality
from onmf.single import _solution, _theta_against, factorize_single
from onmf.synth import gen_planted_double
from conftest import NONNEG_CELLS, TOO_LARGE, nonneg_matrices, planted_labels
from oracles import (
    COS_NARROW,
    COS_WIDE,
    SIN_SQ_PI_12,
    angle,
    angle_separation_violations,
    brute_force_double,
    coordinate_enumeration_optimum,
    exact_cos_sq,
    in_band,
    is_near,
    reference_cosine_matrix,
    reference_group_centroids,
    reference_normalize_columns,
    reference_solution,
    reference_solve_orthogonal_centroids,
    reference_transpose_solution,
    reference_weight_reduction,
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


def _steps(centroids, q):
    """Weight reduction and grouping as double._finish runs them."""
    gram = centroids @ centroids.T
    band, near = angle_pairs(centroids, gram)
    qp = weight_reduction(band, q)
    return qp, group_centroids(near, qp, gram)


def test_weight_reduction_orthogonal_pair_untouched():
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = np.array([3.0, 5.0])
    assert np.array_equal(_steps(centroids, q)[0], q)


def test_weight_reduction_in_band_pair():
    centroids = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    qp, _ = _steps(centroids, np.array([3.0, 5.0]))
    assert np.allclose(qp, [0.0, 2.0])


def test_weight_reduction_identical_centroids_untouched():
    centroids = np.array([[1.0, 0.0], [1.0, 0.0]])
    q = np.array([2.0, 2.0])
    assert np.array_equal(_steps(centroids, q)[0], q)


def test_weight_reduction_band_emptiness():
    rng = np.random.default_rng(16)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        centroids = rng.random((k, 3)) + 1e-6
        q = rng.random(k)
        qp, _ = _steps(centroids, q)
        assert (qp >= 0).all() and (qp <= q + 1e-15).all()
        for j1, j2 in itertools.combinations(range(k), 2):
            if qp[j1] > 0 and qp[j2] > 0:
                assert not in_band(exact_cos_sq(centroids[j1], centroids[j2]))


def test_grouping_single_positive_centroid():
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    _, sigma = _steps(centroids, np.array([1.0, 0.0]))
    assert sigma[0] == 0
    assert sigma[1] == 0  # zero-weight joins the nearest positive group


def test_grouping_two_groups():
    centroids = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        unit([1.0, 0.05]),
    ])
    _, sigma = _steps(centroids, np.array([1.0, 1.0, 1.0]))
    assert sigma[0] == sigma[2]
    assert sigma[1] != sigma[0]


def test_grouping_all_equal():
    centroids = np.tile(unit([1.0, 2.0]), (4, 1))
    _, sigma = _steps(centroids, np.ones(4))
    assert (sigma == 0).all()


def test_grouping_transitivity_on_random_reduced_inputs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        centroids = rng.random((k, 4)) + 1e-6
        qp, sigma = _steps(centroids, rng.random(k))
        pos = np.flatnonzero(qp > 0)
        for j1, j2 in itertools.combinations(pos, 2):
            a = angle(centroids[j1], centroids[j2])
            if sigma[j1] == sigma[j2]:
                assert a < math.pi / 6 + 1e-12
            else:
                assert a > math.pi / 3 - 1e-12


# Pair-loop forms of weight_reduction and group_centroids with exact angle
# tests in rational arithmetic: the reference for the tests below. The
# zero-weight extension is the library's float rule, on the same Gram matrix.


def _exact_weight_reduction(centroids: np.ndarray, q: np.ndarray) -> np.ndarray:
    k = len(q)
    qp = np.array(q, dtype=np.float64)
    for j1 in range(k):
        for j2 in range(j1 + 1, k):
            if qp[j2] <= 0 or qp[j1] <= 0:
                continue
            if in_band(exact_cos_sq(centroids[j1], centroids[j2])):
                d = min(qp[j1], qp[j2])
                qp[j1] -= d
                qp[j2] -= d
    return qp


def _exact_group_centroids(centroids: np.ndarray,
                           q_reduced: np.ndarray) -> np.ndarray:
    k = len(q_reduced)
    sigma = np.zeros(k, dtype=np.int64)
    positive = np.flatnonzero(q_reduced > 0).tolist()
    if not positive:
        return sigma

    # Union-find over the positive-weight centroids.
    parent = {j: j for j in positive}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j1, j2 in itertools.combinations(positive, 2):
        if is_near(exact_cos_sq(centroids[j1], centroids[j2])):
            ra, rb = find(j1), find(j2)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    group_of_root: dict[int, int] = {}
    for j in positive:
        root = find(j)
        if root not in group_of_root:
            group_of_root[root] = len(group_of_root)
        sigma[j] = group_of_root[root]

    # Extend to zero-weight centroids: the largest gram[j, p] / |p|, the
    # first one on ties.
    gram = centroids @ centroids.T
    for j in range(k):
        if q_reduced[j] > 0:
            continue
        best, nearest = None, positive[0]
        for p in positive:
            norm = np.sqrt(gram[p, p])
            score = gram[j, p] / (norm if norm > 0 else 1.0)
            if best is None or score > best:
                best, nearest = score, p
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


def _overlapping_unit_columns(c1, c2, overlap, rows=None):
    """Two unit 0/1 columns, as rows, with c1 and c2 ones sharing overlap."""
    rows = rows or c1 + c2
    x = np.zeros(rows)
    y = np.zeros(rows)
    x[:c1] = 1.0
    y[c1 - overlap:c1 - overlap + c2] = 1.0
    return normalize_columns(np.array([x, y]).T).points


# Exact ties at cos = 1/2 (4 overlap^2 = c1 c2) and cos = sqrt(3)/2
# (4 overlap^2 = 3 c1 c2): both are in the band, so neither pair is near.
EXACT_TIES = ([(c, c, c // 2) for c in range(2, 121, 2)]
              + [(2, 8, 2), (6, 24, 6), (3, 4, 3), (6, 8, 6), (27, 36, 27)])


def _rows_at(*angles):
    return np.array([[math.cos(t), math.sin(t)] for t in angles])


def _assert_steps_match_exact_reference(centroids, q):
    gram = centroids @ centroids.T
    band, near = angle_pairs(centroids, gram)
    reduced = weight_reduction(band, q)
    assert reduced.tobytes() == _exact_weight_reduction(centroids, q).tobytes()
    # Reduced weights, then the unreduced ones.
    for weights in (reduced, q):
        assert (group_centroids(near, weights, gram).tobytes()
                == _exact_group_centroids(centroids, weights).tobytes())
    return reduced


@settings(max_examples=400, deadline=None)
@given(centroid_sets())
@example((np.array([[0.0], [1e-200], [0.0], [1.0]]),  # 1e-200: norm underflows
          np.array([0.0, 0.0, 1.0, 1.0])))
@example((np.array([[1e-200, 0.0], [1e-200, 1e-200], [1.0, 0.0]]),
          np.array([1.0, 1.0, 1.0])))
@example((_overlapping_unit_columns(60, 60, 30), np.array([1.0, 1.0])))
@example((_overlapping_unit_columns(3, 4, 3), np.array([1.0, 2.0])))
@example((_rows_at(0.0, math.pi / 6, math.pi / 3), np.ones(3)))
@example((_rows_at(math.pi / 3, 0.0, math.pi / 6), np.array([1.0, 0.0, 2.0])))
def test_large_k_steps_match_pair_loop_reference(case):
    _assert_steps_match_exact_reference(*case)


@pytest.mark.parametrize("c1, c2, overlap", EXACT_TIES)
def test_exact_ties_are_in_the_band(c1, c2, overlap):
    centroids = _overlapping_unit_columns(c1, c2, overlap)
    band, near = angle_pairs(centroids, centroids @ centroids.T)
    assert [b.tolist() for b in band] == [[0], [1]]
    assert [b.tolist() for b in near] == [[], []]
    _assert_steps_match_exact_reference(centroids, np.array([1.0, 1.0]))


def test_rounded_band_edges_follow_the_exact_angles():
    # The float rows at pi/6 and pi/3 are a rounding away from the edges;
    # the exact angles of the floats decide, whichever side they fall on.
    centroids = _rows_at(0.0, math.pi / 6, math.pi / 3, math.pi / 2)
    band, near = angle_pairs(centroids, centroids @ centroids.T)
    pairs = list(itertools.combinations(range(4), 2))
    exact = [exact_cos_sq(centroids[i], centroids[j]) for i, j in pairs]
    assert list(zip(*[b.tolist() for b in band])) == [
        p for p, c2 in zip(pairs, exact) if in_band(c2)]
    assert list(zip(*[b.tolist() for b in near])) == [
        p for p, c2 in zip(pairs, exact) if is_near(c2)]


# NONNEG_CELLS without the 1e308 that normalize_columns rejects.
FINITE_CELLS = (st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310])
                | st.floats(0.0, 4.0))


@st.composite
def finish_inputs(draw):
    """(centroids, q) as _finish receives them: the unit columns and
    weights of a matrix, or the recentered k-means centroids."""
    M = draw(nonneg_matrices(min_side=1, cells=FINITE_CELLS))
    pts = normalize_columns(M)
    if draw(st.booleans()):
        return pts.points, pts.weights
    k = draw(st.integers(1, 4))
    sol = weighted_kmeans(pts, k, KMeansConfig(restarts=2, seed=0))
    return centroid_weights(pts, sol)


@settings(max_examples=300, deadline=None)
@given(finish_inputs())
@example((_overlapping_unit_columns(60, 60, 30), np.array([1.0, 1.0])))
@example((_rows_at(0.0, 0.5, 1.0), np.ones(3)))
@example((_rows_at(0.0, math.pi / 4), np.ones(2)))
def test_groups_are_separated_by_exact_angles(case):
    # The verification pass the grouping once ran, as an invariant: inside
    # a group every angle is below pi/6, across groups above pi/3.
    centroids, q = case
    qp, sigma = _steps(centroids, q)
    assert angle_separation_violations(centroids, qp, sigma) == []


@pytest.mark.parametrize("angles, message", [
    ((0.0, math.pi / 4), "cross-group angle too small for centroids 0,1"),
    ((0.0, 0.5, 1.0), "within-group angle too large for centroids 0,2"),
])
def test_grouping_error_matches_reference(angles, message):
    # The float reference still raises on weights that were never reduced;
    # after weight reduction, as _finish runs the steps, it raises nothing
    # and agrees with the grouping byte for byte.
    centroids = _rows_at(*angles)
    q = np.ones(len(angles))
    cos = reference_cosine_matrix(centroids)
    with pytest.raises(GroupingError) as err:
        reference_group_centroids(cos, q)
    assert str(err.value) == message
    qp, sigma = _steps(centroids, q)
    ref_qp = reference_weight_reduction(cos, q)
    assert qp.tobytes() == ref_qp.tobytes()
    assert sigma.tobytes() == reference_group_centroids(cos, ref_qp).tobytes()
    assert angle_separation_violations(centroids, qp, sigma) == []


@settings(max_examples=300, deadline=None)
@given(centroid_sets())
def test_float_reference_agrees_away_from_the_band_edges(case):
    # The rounded cosines decide as the exact angles do wherever every
    # cosine is farther than the filter margin from 1/2 and sqrt(3)/2 and
    # every non-zero row has a squared norm the filter takes.
    centroids, q = case
    cos = reference_cosine_matrix(centroids)
    tol = 16 * (centroids.shape[1] + 1) * np.finfo(np.float64).eps
    norms_sq = np.einsum("km,km->k", centroids, centroids)
    nonzero = centroids.any(axis=1)
    if ((np.abs(cos - COS_WIDE) <= tol) | (np.abs(cos - COS_NARROW) <= tol)
            ).any() or (nonzero & ~((norms_sq >= 2.0**-400)
                                    & (norms_sq <= 2.0**400))).any():
        return
    qp, sigma = _steps(centroids, q)
    assert qp.tobytes() == reference_weight_reduction(cos, q).tobytes()
    assert (sigma.tobytes()
            == reference_group_centroids(cos, qp).tobytes())


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


def _count_exact_tests(monkeypatch):
    calls = []
    exact = onmf.double._exact_angle

    def counted(x, y):
        calls.append(1)
        return exact(x, y)

    monkeypatch.setattr(onmf.double, "_exact_angle", counted)
    return calls


@pytest.mark.parametrize("M, multi_member", [
    (planted_labels(600, 600, 12, 0.2, 1).astype(float), False),
    (gen_planted_double(300, 200, 20, 0.05, 3).m_observed, True),
    (_duplicated_binary_columns(4), True),
], ids=["bcc-600x600", "planted-300x200", "duplicated-0/1"])
def test_large_k_steps_match_reference_at_benchmark_scale(monkeypatch, M,
                                                          multi_member):
    # No pair is near an edge of the band here, so the float reference
    # decides every pair as the exact tests do.
    calls = _count_exact_tests(monkeypatch)
    pts = normalize_columns(M)
    centroids, q = pts.points, pts.weights
    cos = reference_cosine_matrix(centroids)
    reduced, sigma = _steps(centroids, q)
    assert calls == []
    assert reduced.tobytes() == reference_weight_reduction(cos, q).tobytes()
    assert sigma.tobytes() == reference_group_centroids(cos, reduced).tobytes()
    if multi_member:
        positive = reduced > 0
        assert np.unique(sigma[positive]).size < positive.sum()
    if M.shape[0] < 100:
        _assert_steps_match_exact_reference(centroids, q)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_no_pair_needs_the_exact_test_on_planted_labels(monkeypatch, seed):
    calls = _count_exact_tests(monkeypatch)
    centroids = normalize_columns(
        planted_labels(600, 600, 12, 0.2, seed).astype(float)).points
    angle_pairs(centroids, centroids @ centroids.T)
    assert calls == []


def test_angle_pairs_take_eight_bytes_a_pair():
    # 100 equal columns: every one of the 4,950 pairs is near.
    centroids = normalize_columns(np.ones((30, 100))).points
    band, near = angle_pairs(centroids, centroids @ centroids.T)
    assert [b.dtype for b in band + near] == [np.dtype(np.int32)] * 4
    assert len(near[0]) == 100 * 99 // 2


def test_angle_steps_hold_no_k_by_k_temporary(monkeypatch):
    # With the Gram matrix given, the walk, the reduction and the grouping
    # allocate blocks and pair lists, never a k x k mask or float array.
    monkeypatch.setattr(onmf.double, "BLOCK_ENTRIES", 1 << 10)
    pts = normalize_columns(planted_labels(600, 600, 12, 0.2, 5).astype(float))
    centroids = pts.points
    gram = centroids @ centroids.T
    k = len(gram)
    tracemalloc.start()
    try:
        band, near = angle_pairs(centroids, gram)
        qp = weight_reduction(band, pts.weights)
        group_centroids(near, qp, gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * k // 4


def test_solve_frees_the_group_means_before_the_result(monkeypatch):
    # k singleton groups: the group means and the result are both k x m.
    monkeypatch.setattr(onmf.double, "BLOCK_ENTRIES", 1 << 10)
    monkeypatch.setattr(onmf.kmeans, "BLOCK_ENTRIES", 1 << 10)
    k, m = 300, 200
    centroids = np.random.default_rng(6).random((k, m))
    tracemalloc.start()
    try:
        solve_orthogonal_centroids(centroids, np.ones(k), np.arange(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * k * m


# (centroids, q_reduced, sigma, a) where two groups tie on the score of a
# coordinate: the smaller group index wins it.
SOLVER_TIES = [
    (np.array([[1.0], [1.0]]), np.array([1.0, 1.0]), np.array([1, 0]),
     [[1.0, 0.0]]),
    # 2 * 0.5^2 == 0.5 * 1^2, with the groups either way round.
    (np.array([[0.5], [1.0]]), np.array([2.0, 0.5]), np.array([0, 1]),
     [[0.5, 0.0]]),
    (np.array([[0.5], [1.0]]), np.array([2.0, 0.5]), np.array([1, 0]),
     [[1.0, 0.0]]),
    # An all-zero coordinate, then a tie.
    (np.array([[0.0, 1.0], [-0.0, 1.0]]), np.array([1.0, 1.0]),
     np.array([0, 1]), [[0.0, 0.0], [1.0, 0.0]]),
]


@st.composite
def solver_cases(draw):
    """(centroids, q_reduced, sigma) with any group labels."""
    centroids, q = draw(centroid_sets())
    k = len(q)
    sigma = np.array(draw(st.lists(st.integers(0, k - 1), min_size=k,
                                   max_size=k)), dtype=np.int64)
    return centroids, q, sigma


@settings(max_examples=300, deadline=None)
@given(solver_cases())
@example(SOLVER_TIES[0][:3])
@example(SOLVER_TIES[1][:3])
@example(SOLVER_TIES[2][:3])
@example(SOLVER_TIES[3][:3])
def test_solver_matches_reference(case):
    got = solve_orthogonal_centroids(*case)
    want = reference_solve_orthogonal_centroids(*case)
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


@pytest.mark.parametrize("centroids, q, sigma, expected", SOLVER_TIES)
def test_solver_ties_go_to_smallest_group(centroids, q, sigma, expected):
    assert solve_orthogonal_centroids(centroids, q, sigma).tolist() == expected


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


def _reference_large_k(M):
    """factorize_double_large_k through the reference copies of its steps,
    with the exact pair-loop weight reduction and grouping."""
    M = check_nonneg(M)
    m, n = M.shape
    if 0 < m < n:
        return reference_transpose_solution(M, _reference_large_k(M.T))
    pts = reference_normalize_columns(M)
    if pts.total_weight() > MAX_TOTAL_WEIGHT:
        raise ValueError(TOO_LARGE)
    qp = _exact_weight_reduction(pts.points, pts.weights)
    sigma = _exact_group_centroids(pts.points, qp)
    a = reference_solve_orthogonal_centroids(pts.points, qp, sigma)
    return reference_solution(M, a, sigma, _theta_against(M, a, sigma))


def _solution_bytes(fn, M):
    try:
        sol = fn(M)
    except (GroupingError, ValueError) as exc:
        return type(exc), str(exc)
    return (sol.a.shape, sol.a.tobytes(), sol.w.k, sol.w.group.tobytes(),
            sol.w.theta.tobytes(), np.float64(sol.objective).tobytes())


@settings(max_examples=300, deadline=None)
@given(nonneg_matrices())
@example(np.eye(3)[:2])  # m < n: the transposed path
@np.errstate(all="ignore")  # squares of 1e308 overflow in both
def test_large_k_matches_reference_steps(M):
    assert (_solution_bytes(factorize_double_large_k, M)
            == _solution_bytes(_reference_large_k, M))


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


@pytest.mark.parametrize("factorize, shape", [
    (lambda M: factorize_single(M, 2), (4, 6)),
    (lambda M: factorize_double(M, 2), (4, 6)),
    (factorize_double_large_k, (4, 6)),  # transposed
    (factorize_double_large_k, (6, 4)),
    (factorize_double_large_k, (5, 5)),
], ids=["single", "double", "large-k-wide", "large-k-tall", "large-k-square"])
def test_each_entry_point_checks_once(monkeypatch, factorize, shape):
    calls = []

    def counted(M):
        calls.append(np.shape(M))
        return check_nonneg(M)

    for module in (onmf.core, onmf.single, onmf.double):
        if hasattr(module, "check_nonneg"):
            monkeypatch.setattr(module, "check_nonneg", counted)
    factorize(np.random.default_rng(0).random(shape))
    assert len(calls) == 1


def _bcc(M):
    return bcc_cluster(BipartiteLabeling(M > 0.5))


@pytest.mark.parametrize("run, shape, expected", [
    (lambda M: factorize_single(M, 2), (4, 6), 1),
    (lambda M: factorize_double(M, 2), (4, 6), 1),
    (factorize_double_large_k, (4, 6), 1),  # transposed
    (factorize_double_large_k, (6, 4), 1),
    (factorize_double_large_k, (5, 5), 1),
    (_bcc, (4, 6), 0),  # transposed
    (_bcc, (6, 4), 0),
], ids=["single", "double", "large-k-wide", "large-k-tall", "large-k-square",
        "bcc-wide", "bcc-tall"])
def test_each_entry_point_builds_one_solution(monkeypatch, run, shape,
                                              expected):
    # Each factorization packages its factors, with their objective, once;
    # bcc_cluster rounds the factors and needs no objective.
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return _solution(*args)

    for module in (onmf.single, onmf.double):
        monkeypatch.setattr(module, "_solution", counted)
    run(np.random.default_rng(0).random(shape))
    assert len(calls) == expected


# Finite cells whose squares overflow (1e200, 1e308) or nearly do (3e153,
# 1e154), among the ordinary and subnormal ones.
HUGE_CELLS = (st.sampled_from([3e153, 1e154, 1e200, 1e308])
              | st.floats(0.0, 1e308) | NONNEG_CELLS)


@settings(max_examples=200, deadline=None)
@given(nonneg_matrices(max_side=5, cells=HUGE_CELLS), st.integers(1, 3))
@example(np.full((3, 3), 1e200), 2)
@example(np.full((2, 2), 1e154), 1)
def test_entry_points_reject_or_stay_finite(M, k):
    # No np.errstate: any numpy warning fails the test. Each entry point
    # either rejects a matrix too large to normalize or returns finite
    # factors and a finite objective.
    config = KMeansConfig(restarts=2, seed=0)
    for factorize in (lambda M: factorize_single(M, k, config),
                      lambda M: factorize_double(M, k, config),
                      factorize_double_large_k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sol = factorize(M)
            except ValueError as exc:
                assert str(exc) == TOO_LARGE
                continue
        assert np.isfinite(sol.a).all()
        assert np.isfinite(sol.w.theta).all()
        assert math.isfinite(sol.objective)


@pytest.mark.parametrize("factorize", [factorize_single, factorize_double])
@pytest.mark.parametrize("M, k, message", [
    ([[1.0, -1.0]], 0, "matrix has negative entries"),
    ([[1.0, float("nan")]], 0, "matrix contains non-finite entries"),
    ([1.0, 2.0], 0, "expected a 2-D matrix, got ndim=1"),
    ([[1.0, 2.0]], 0, "k must be >= 1"),
])
def test_input_errors_keep_their_precedence(factorize, M, k, message):
    # A bad matrix is reported before a bad k.
    with pytest.raises(ValueError) as exc:
        factorize(M, k)
    assert str(exc.value) == message


@pytest.mark.parametrize("M, message", [
    ([[1.0, -1.0, 0.0]], "matrix has negative entries"),  # transposed
    ([[1.0], [float("inf")]], "matrix contains non-finite entries"),
    ([1.0, 2.0], "expected a 2-D matrix, got ndim=1"),
    (np.ones((1, 1, 1)), "expected a 2-D matrix, got ndim=3"),
])
def test_large_k_input_errors(M, message):
    with pytest.raises(ValueError) as exc:
        factorize_double_large_k(M)
    assert str(exc.value) == message
