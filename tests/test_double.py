import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import onmf.bcc
import onmf.core
import onmf.double
import onmf.kmeans
import onmf.single
from onmf.bcc import BipartiteLabeling, bcc_cluster
from onmf.core import MAX_TOTAL_WEIGHT, check_nonneg, normalize_columns
from onmf.double import (
    GroupingError,
    _cos_sq_edges,
    _dense,
    _large_k,
    centroid_weights,
    factorize_double,
    factorize_double_large_k,
    group_centroids,
    solve_orthogonal_centroids,
    weight_reduction,
)
from onmf.kmeans import KMeansConfig, KMeansSolution, weighted_kmeans
from onmf.metrics import non_orthogonality
from onmf.single import _fit_theta, _solution, factorize_single
from onmf.synth import gen_planted_double
from conftest import (NONNEG_CELLS, TOO_LARGE, block_rows, gram_blocks,
                      nonneg_matrices, planted_labels, traced_peak)
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
    reference_theta,
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
    norms_sq = np.einsum("ij,ij->i", centroids, centroids)
    leader = np.empty(len(q), dtype=np.int64)
    qp = weight_reduction(centroids, q, norms_sq, leader)
    return qp, group_centroids(leader, qp, centroids, norms_sq)


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
    with zero centroids of weight 0 and zero or negative weights mixed in."""
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
    # The rows weight_reduction serves: zero, or of a squared norm the
    # filter of double._cos_sq_edges takes.
    row = row.filter(lambda v: not any(v)
                     or 2.0**-400 <= sum(x * x for x in v) <= 2.0**400)
    centroids = np.array(draw(st.lists(row, min_size=k, max_size=k)))
    weight = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1.0, 4.0)
    q = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
    q[~centroids.any(axis=1)] = 0.0  # a zero row carries no weight
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
    # The walk takes one entry, seven and the default number to a block.
    want = _exact_weight_reduction(centroids, q)
    sigma = _exact_group_centroids(centroids, want)
    for entries in (1, 7, onmf.core.BLOCK_ENTRIES):
        with mock.patch.object(onmf.double, "BLOCK_ENTRIES", entries):
            reduced, got = _steps(centroids, q)
        assert reduced.tobytes() == want.tobytes()
        assert got.tobytes() == sigma.tobytes()
    return reduced, sigma


@settings(max_examples=400, deadline=None)
@given(centroid_sets())
@example((_overlapping_unit_columns(60, 60, 30), np.array([1.0, 1.0])))
@example((_overlapping_unit_columns(3, 4, 3), np.array([1.0, 2.0])))
@example((_rows_at(0.0, math.pi / 6, math.pi / 3), np.ones(3)))
@example((_rows_at(math.pi / 3, 0.0, math.pi / 6), np.array([1.0, 0.0, 2.0])))
def test_large_k_steps_match_pair_loop_reference(case):
    _assert_steps_match_exact_reference(*case)


def _assert_pair_decided_exactly(centroids, i, j):
    # Weights 1 and 2 on centroids i and j only: the reduction zeroes i if
    # the pair is in the band, and otherwise the grouping joins them if
    # they are near.
    q = np.zeros(len(centroids))
    q[[i, j]] = 1.0, 2.0
    reduced, sigma = _assert_steps_match_exact_reference(centroids, q)
    cos_sq = exact_cos_sq(centroids[i], centroids[j])
    assert (reduced[[i, j]].tolist() == [0.0, 1.0]) == in_band(cos_sq)
    if not in_band(cos_sq):
        assert (sigma[i] == sigma[j]) == is_near(cos_sq)


@pytest.mark.parametrize("c1, c2, overlap", EXACT_TIES)
def test_exact_ties_are_in_the_band(c1, c2, overlap):
    centroids = _overlapping_unit_columns(c1, c2, overlap)
    assert in_band(exact_cos_sq(centroids[0], centroids[1]))
    _assert_pair_decided_exactly(centroids, 0, 1)


def test_rounded_band_edges_follow_the_exact_angles():
    # The float rows at pi/6 and pi/3 are a rounding away from the edges;
    # the exact angles of the floats decide, whichever side they fall on.
    centroids = _rows_at(0.0, math.pi / 6, math.pi / 3, math.pi / 2)
    for i, j in itertools.combinations(range(4), 2):
        _assert_pair_decided_exactly(centroids, i, j)


# NONNEG_CELLS without the 1e308 that normalize_columns rejects, plus cells
# at the subnormal edge: 1.6e-162 and 2.3e-162 square to the smallest
# subnormal and 1.5e-162 to zero, so a column of them has a squared norm of
# one subnormal and unit entries far from 1/sqrt(m).
FINITE_CELLS = (st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310,
                                 1.5e-162, 1.6e-162, 2.3e-162])
                | st.floats(0.0, 4.0))


def _assert_estimates_within_the_bound(centroids):
    # _cos_sq_edges' bound: each of weight_reduction's estimates, the
    # squared Gram entry times the rows' two reciprocal squared norms, is
    # within (4m + 5) u (1 + 2^-10) of the exact cos^2, and with the
    # rounding of each edge that stays below t / 4, so every edge the
    # filter passes proves its side.
    gram = centroids @ centroids.T
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / gram.diagonal()
        r = np.square(gram) * inv[:, None] * inv
    m = centroids.shape[1]
    u = Fraction(1, 2**53)
    bound = (4 * m + 5) * u * (1 + Fraction(1, 1024))
    t = 32 * (m + 1) * u
    exact_edges = [(1 - t) / 4, (1 + t) / 4, (3 - t) / 4, (3 + t) / 4]
    for edge, exact in zip(_cos_sq_edges(m).tolist(), exact_edges):
        assert bound + abs(Fraction(edge) - exact) < t / 4
    for i, j in itertools.combinations(range(len(centroids)), 2):
        cos_sq = exact_cos_sq(centroids[i], centroids[j])
        if cos_sq is None:
            assert np.isnan(r[i, j])  # a zero row passes no edge
        else:
            assert abs(Fraction(r[i, j]) - cos_sq) <= bound


@pytest.mark.parametrize("c1, c2, overlap", EXACT_TIES)
def test_filter_estimates_are_within_the_bound_at_exact_ties(c1, c2,
                                                            overlap):
    # Each unit column also scaled to the ends of the squared norms the
    # filter serves, 1 / (2m) and 2m.
    m = c1 + c2
    rows = _overlapping_unit_columns(c1, c2, overlap)
    scales = [math.sqrt(1 / (2 * m)), 1.0, math.sqrt(2 * m)]
    _assert_estimates_within_the_bound(
        np.array([row * scale for row in rows for scale in scales]))


@st.composite
def scaled_rows(draw):
    """Non-negative rows, some zero, of 1 to 6 entries, each scaled by
    2^-199, 1 or 2^199, with squared norms in the filter's [2^-400, 2^400]."""
    d = draw(st.integers(1, 6))
    row = st.builds(lambda v, e: [x * 2.0**e for x in v],
                    st.lists(FINITE_CELLS, min_size=d, max_size=d),
                    st.sampled_from([-199, 0, 199]))
    row = row.filter(lambda v: not any(v)
                     or 2.0**-400 <= sum(x * x for x in v) <= 2.0**400)
    return np.array(draw(st.lists(row, min_size=2, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(scaled_rows() | centroid_sets().map(lambda case: case[0]))
def test_filter_estimates_are_within_the_bound(centroids):
    _assert_estimates_within_the_bound(centroids)


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


def _unit_columns(M):
    pts = normalize_columns(np.array(M, dtype=np.float64))
    return pts.points, pts.weights


# A column [1.6e-162] has unit squared norm 0.518; with nine 1.5e-162 below
# it, 4.617 at m = 10. Each goes with a plain column, so there is a pair.
SUBNORMAL_EDGE = [
    (_unit_columns([[1.6e-162, 1.0]]), 0.518),
    (_unit_columns(np.array([[1.6e-162] + [1.5e-162] * 9, [1.0] * 10]).T),
     4.617),
]


@pytest.mark.parametrize("case, norm_sq", SUBNORMAL_EDGE)
def test_subnormal_edge_columns_have_unit_scale(case, norm_sq):
    centroids, _ = case
    assert np.dot(centroids[0], centroids[0]) == pytest.approx(norm_sq,
                                                               abs=1e-3)


@settings(max_examples=300, deadline=None)
@given(finish_inputs())
@example(SUBNORMAL_EDGE[0][0])
@example(SUBNORMAL_EDGE[1][0])
def test_finish_rows_are_in_the_filter_range(case):
    # The precondition of weight_reduction: a positive-weight row is never
    # zero, and every non-zero row has a squared norm the float filter
    # takes.
    centroids, q = case
    gram = centroids @ centroids.T
    norms_sq = gram.diagonal()
    nonzero = centroids.any(axis=1)
    assert nonzero[q > 0].all()
    assert ((norms_sq[nonzero] >= 2.0**-400)
            & (norms_sq[nonzero] <= 2.0**400)).all()
    _assert_steps_match_exact_reference(centroids, q)


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
    # cosine is farther than the filter margin from 1/2 and sqrt(3)/2.
    centroids, q = case
    cos = reference_cosine_matrix(centroids)
    tol = 16 * (centroids.shape[1] + 1) * np.finfo(np.float64).eps
    if ((np.abs(cos - COS_WIDE) <= tol)
            | (np.abs(cos - COS_NARROW) <= tol)).any():
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
    pts = normalize_columns(
        planted_labels(600, 600, 12, 0.2, seed).astype(float))
    _steps(pts.points, pts.weights)
    assert calls == []


def test_angle_steps_hold_no_k_by_k_temporary(monkeypatch):
    # The walk, the reduction and the grouping compute the Gram matrix in
    # GEMM row blocks, here of one row each, never a k x k mask or float
    # array, and no list of pairs outlives its block. On the uniform input
    # nearly all of the 179,700 pairs are in the band, and on the equal
    # columns all are near: 8 bytes a pair would hold about 1.4 MB.
    monkeypatch.setattr(onmf.double, "BLOCK_ENTRIES", 1 << 10)
    monkeypatch.setattr(onmf.double, "_GEMM_ROWS", 1)
    for M in (planted_labels(600, 600, 12, 0.2, 5).astype(float),
              np.random.default_rng(5).random((600, 600)),
              np.ones((30, 600))):
        pts = normalize_columns(M)
        peak = traced_peak(lambda: _steps(pts.points, pts.weights))
        assert peak < len(pts) ** 2 // 4


def test_large_k_peak_holds_no_k_by_k_gram(monkeypatch):
    # With blocks of 2^12 entries and GEMM blocks of one sub-block, the
    # large-k steps on a uniform 300 x 400 matrix (k = 300 on the transposed
    # path, nearly every pair in the band) peak below the float64 unit
    # columns plus 12 such blocks; normalize_columns' norm pass takes about
    # 4 of them. The k x k Gram matrix alone is 22. The dense A and the
    # residual of the objective, which _solution builds after the steps,
    # are not counted.
    entries = 1 << 12
    for module in (onmf.double, onmf.single, onmf.kmeans):
        monkeypatch.setattr(module, "BLOCK_ENTRIES", entries)
    monkeypatch.setattr(onmf.double, "_GEMM_ROWS", 1)
    m, n = 300, 400
    M = np.random.default_rng(5).random((m, n))
    assert traced_peak(lambda: _large_k(M)) < 8 * m * n + 12 * 8 * entries


def _float_block_cases():
    """Float matrices with fewer zero-weight than positive columns, with
    more (also on the transposed path) and with none; the planted one has
    five all-zero columns, whose scores tie exactly across every tile."""
    rng = np.random.default_rng(31)
    sparse = rng.random((80, 60)) * (rng.random((80, 60)) < 0.1)
    planted = planted_labels(90, 70, 6, 0.05, 3) * rng.random((90, 70))
    planted[:, :5] = 0.0
    return [("fewer-zero", sparse, "<"), ("more-zero", planted, ">"),
            ("more-zero-transposed", planted.T, ">"),
            ("no-zero", np.eye(50) * rng.random(50), "=")]


@pytest.mark.parametrize("M, relation", [case[1:] for case in
                                         _float_block_cases()],
                         ids=[case[0] for case in _float_block_cases()])
def test_gram_block_rows_keep_every_large_k_byte(M, relation):
    # The differential test of the Gram blocks on floats: GEMM blocks and
    # the walk's sub-blocks of 1, 7 and k rows give the bytes of the
    # default blocks. Only an extension score can change with them, in its
    # last bits, so these cases hold no near tie.
    pts = normalize_columns(M if M.shape[0] >= M.shape[1] else M.T)
    positive = int((_steps(pts.points, pts.weights)[0] > 0).sum())
    zero = len(pts) - positive
    assert {"<": 0 < zero < positive, ">": zero > positive,
            "=": zero == 0}[relation]
    want = _solution_bytes(factorize_double_large_k, M)
    for gemm, sub in block_rows(len(pts)):
        with gram_blocks(gemm, sub, len(pts)):
            got = _solution_bytes(factorize_double_large_k, M)
        assert got == want, (gemm, sub)


@settings(max_examples=150, deadline=None)
@given(nonneg_matrices(), st.integers(1, 4))
def test_results_do_not_depend_on_memory_layout(M, k):
    # A Fortran-ordered or strided M gives the bits of its C-ordered copy.
    C = np.array(M, order="C")
    config = KMeansConfig(restarts=2, seed=0)
    for factorize in (lambda X: factorize_single(X, k, config),
                      lambda X: factorize_double(X, k, config),
                      factorize_double_large_k):
        want = _solution_bytes(factorize, C)
        for X in (np.asfortranarray(C), np.repeat(C, 2, axis=1)[:, ::2]):
            assert _solution_bytes(factorize, X) == want


def test_one_entry_per_block_keeps_every_byte(monkeypatch):
    # BLOCK_ENTRIES = 1 takes one row, column or band pair per block in
    # every blocked loop of the double-factor steps, k-means and bcc.
    rng = np.random.default_rng(24)
    g = BipartiteLabeling(planted_labels(30, 40, 4, 0.1, 24))
    M = rng.random((12, 20)) * (rng.random((12, 20)) < 0.6)
    config = KMeansConfig(restarts=2, seed=0)

    def outputs():
        clustering, count = bcc_cluster(g)
        return [clustering.left.tobytes(), clustering.right.tobytes(), count,
                _solution_bytes(factorize_double_large_k, M),
                _solution_bytes(factorize_double_large_k, M.T),
                _solution_bytes(lambda X: factorize_double(X, 5, config), M)]

    want = outputs()
    for module in (onmf.double, onmf.kmeans, onmf.bcc):
        monkeypatch.setattr(module, "BLOCK_ENTRIES", 1)
    assert outputs() == want


def test_solve_frees_the_group_means_before_the_result(monkeypatch):
    # k singleton groups: the group means, k x m in all, are taken a block
    # of groups at a time, and the factor is compact, one (owner, value)
    # pair per coordinate, so the solve holds no k x m array at all.
    monkeypatch.setattr(onmf.double, "BLOCK_ENTRIES", 1 << 10)
    monkeypatch.setattr(onmf.kmeans, "BLOCK_ENTRIES", 1 << 10)
    k, m = 300, 200
    centroids = np.random.default_rng(6).random((k, m))
    peak = traced_peak(lambda: solve_orthogonal_centroids(
        centroids, np.ones(k), np.arange(k)))
    assert peak < 0.25 * 8 * k * m


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
@example((np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, -0.0]),
          np.array([0, 1])))  # no positive weight: an all-zero result
def test_solver_matches_reference(case):
    got = _dense(*solve_orthogonal_centroids(*case))
    want = reference_solve_orthogonal_centroids(*case)
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


@st.composite
def compact_cases(draw):
    """(centroids, q_reduced, sigma, norms, unit, M, group): a solve's
    input, with float centroids or 0/1 ones and their norms, the unit rows
    the 0/1 ones stand for, and an M, float or bool in C or Fortran order,
    with its columns' groups to fit theta on."""
    k = draw(st.sampled_from([0, 1, 2, 3, 5, 9]))
    m = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    binary = draw(st.booleans())
    if binary:
        centroids = rng.random((k, m)) < rng.random()
        counts = np.count_nonzero(centroids, axis=1)
        norms = np.sqrt(counts)
        q = np.where(rng.random(k) < 0.3, 0.0, norms**2)
        unit = centroids / np.where(counts > 0, norms, 1.0)[:, None]
    else:
        centroids = rng.random((k, m)) * (rng.random((k, 1)) < 0.8)
        q = np.where(rng.random(k) < 0.3, 0.0, rng.random(k))
        q[~centroids.any(axis=1)] = 0.0
        norms, unit = None, centroids
    sigma = rng.integers(0, max(k, 1), k)
    n = draw(st.integers(0, 8)) if k else 0
    M = rng.random((m, n)) < 0.5
    if not draw(st.booleans()):
        M = M * rng.random((m, n))
    if draw(st.booleans()):
        M = np.asfortranarray(M)
    return centroids, q, sigma, norms, unit, M, rng.integers(0, max(k, 1), n)


def binary_case(columns, q, sigma):
    """A compact_cases case of 0/1 centroids, each a string of its bits,
    with the given weights and groups, and a bool M of ones."""
    centroids = np.array([[bit == "1" for bit in col] for col in columns])
    counts = np.count_nonzero(centroids, axis=1)
    norms = np.sqrt(counts)
    unit = centroids / np.where(counts > 0, norms, 1.0)[:, None]
    M = np.ones((centroids.shape[1], 3), dtype=bool)
    return (centroids, np.array(q, dtype=np.float64), np.array(sigma), norms,
            unit, M, np.array([0, 1, len(columns) - 1]))


# With norms, one-member groups score one scalar each where their column has
# a 1, and groups of more members take means; a tie goes to the smaller
# group either way.
SOLVE_TIES = [
    # Four one-member groups of two ones and weight 2 each: every coordinate
    # is a tie of two of them, and the smaller group wins, whatever the
    # order of their columns.
    binary_case(["1100", "0110", "0011", "1001"], [2.0] * 4, [3, 1, 0, 2]),
    # One-member group of weight 2 against a group of two members of
    # weight 1 on the same column: the same mean and score, with the
    # one-member group first, then second; coordinates 2 and 3 score 0.
    binary_case(["1100"] * 3, [2.0, 1.0, 1.0], [0, 1, 1]),
    binary_case(["1100"] * 3, [2.0, 1.0, 1.0], [1, 0, 0]),
    # Coordinate 3 scores 0 everywhere. Groups 0 and 1 are empty (column 0
    # has weight 0) and the two-member group 2 comes before the one-member
    # groups 3 and 4, yet the coordinate goes to group 0 with value 0.
    binary_case(["0001", "1000", "1000", "0100", "0010"],
                [0.0, 1.0, 1.0, 1.0, 1.0], [0, 2, 2, 3, 4]),
]


@settings(max_examples=300, deadline=None)
@given(compact_cases(), st.sampled_from([1, 7, onmf.core.BLOCK_ENTRIES]))
@example(SOLVE_TIES[0], 1)
@example(SOLVE_TIES[0], onmf.core.BLOCK_ENTRIES)
@example(SOLVE_TIES[1], 1)
@example(SOLVE_TIES[2], 1)
@example(SOLVE_TIES[3], 7)
def test_compact_solve_and_theta_match_the_dense_reference(case, entries):
    # The solve takes the group means a block of groups at a time and keeps
    # a running best per coordinate; with norms, one-member groups are
    # scored apart. Densified, the factor must be the reference solve's,
    # bit for bit, and theta fitted from the compact factor must have the
    # dense factor's bits; 0/1 centroids with their norms solve as their
    # unit rows.
    centroids, q, sigma, norms, unit, M, group = case
    with mock.patch.object(onmf.double, "BLOCK_ENTRIES", entries), \
            mock.patch.object(onmf.kmeans, "BLOCK_ENTRIES", entries):
        factor = solve_orthogonal_centroids(centroids, q, sigma, norms)
    a = _dense(*factor)
    want = reference_solve_orthogonal_centroids(unit, q, sigma)
    assert (a.shape, a.tobytes()) == (want.shape, want.tobytes())
    owner, value, _ = factor
    assert not owner[value == 0].any()  # every score 0: group 0, as argmax
    assert (_fit_theta(M, group, factor).tobytes()
            == _fit_theta(M, group, a).tobytes())


@st.composite
def theta_cases(draw):
    """(M, a compact factor, group): M bool or float64, C or Fortran, some
    columns of A zero, and rows short or past einsum's 8,192-entry and
    OpenBLAS's 10,000-term thresholds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.one_of(st.integers(0, 40), st.sampled_from([8_193, 20_000])))
    n = draw(st.integers(0, 6))
    k = draw(st.integers(1, 5))
    M = rng.random((m, n)) < 0.6
    if not draw(st.booleans()):
        M = M * rng.random((m, n))
    if draw(st.booleans()):
        M = np.asfortranarray(M)
    value = rng.random(m) * (rng.random(m) < 0.8)
    return M, (rng.integers(0, k, m), value, k), rng.integers(0, k, n)


@settings(max_examples=100, deadline=None)
@given(theta_cases())
def test_theta_bits_follow_the_values_alone(case):
    # Each dot and squared norm is the pairwise sum of one row, so theta
    # has the same bytes with any block size, for a bool M and its float64
    # copy, and for the dense and the compact factor.
    M, factor, group = case
    a = _dense(*factor)
    inputs = [M, M.astype(np.float64)] if M.dtype == bool else [M]
    seen = set()
    for entries in (1, 7, onmf.core.BLOCK_ENTRIES, 100_000):
        with mock.patch.object(onmf.single, "BLOCK_ENTRIES", entries):
            seen |= {_fit_theta(X, group, f).tobytes()
                     for X in inputs for f in (a, factor)}
    assert len(seen) == 1


@settings(max_examples=100, deadline=None)
@given(theta_cases())
def test_theta_matches_the_reference_dots(case):
    # Against one BLAS dot per column. Both sides sum m non-negative
    # products of non-negative floats, in different orders, so with
    # u = eps / 2 each sum is within g_m = m u / (1 - m u) of its exact
    # value relative to it, as is the squared norm, and the division adds
    # u: each theta is within (2 g_m + u)(1 + O(u)) of the exact quotient,
    # relative to it, and the two within twice that, (2m + 1) eps, of each
    # other. (2m + 2) eps covers the O(u^2) terms.
    M, factor, group = case
    a = _dense(*factor)
    got, want = _fit_theta(M, group, factor), reference_theta(M, a, group)
    bound = (2 * len(M) + 2) * np.finfo(np.float64).eps
    assert (np.abs(got - want) <= bound * want).all()
    assert ((got == 0) == (want == 0)).all()


@pytest.mark.parametrize("centroids, q, sigma, expected", SOLVER_TIES)
def test_solver_ties_go_to_smallest_group(centroids, q, sigma, expected):
    a = _dense(*solve_orthogonal_centroids(centroids, q, sigma))
    assert a.tolist() == expected


def test_solver_one_group_is_weighted_mean():
    centroids = np.array([[0.5, 0.1], [0.3, 0.4]])
    qp = np.array([2.0, 1.0])
    a = _dense(*solve_orthogonal_centroids(centroids, qp, np.array([0, 0])))
    mean = qp @ centroids / qp.sum()
    assert np.allclose(a[:, 0], mean)
    assert (a[:, 1:] == 0).all()


def test_solver_coordinate_argmax():
    # coordinate with (q1, mu1) = (2, 0.6) and (q2, mu2) = (1, 0.9):
    # 1 * 0.81 > 2 * 0.36 so group 2 wins the coordinate
    centroids = np.array([[0.6], [0.9]])
    qp = np.array([2.0, 1.0])
    a = _dense(*solve_orthogonal_centroids(centroids, qp, np.array([0, 1])))
    assert a[0, 0] == 0.0
    assert a[0, 1] == pytest.approx(0.9)


def test_solver_zero_coordinate():
    centroids = np.array([[0.0, 0.5], [0.0, 0.2]])
    a = _dense(*solve_orthogonal_centroids(centroids, np.array([1.0, 1.0]),
                                           np.array([0, 1])))
    assert (a[0] == 0).all()


def test_solver_exactly_optimal():
    rng = np.random.default_rng(18)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        centroids = rng.random((k, m))
        qp = np.where(rng.random(k) < 0.2, 0.0, rng.random(k))
        sigma = rng.integers(0, k, k)
        a = _dense(*solve_orthogonal_centroids(centroids, qp, sigma))
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
    with the exact pair-loop weight reduction and grouping. M is taken in C
    order, as the library takes it; the transpose of a wide M is not."""
    return _reference_large_k_steps(np.asarray(M, dtype=np.float64,
                                               order="C"))


def _reference_large_k_steps(M):
    M = check_nonneg(M)
    m, n = M.shape
    if 0 < m < n:
        return reference_transpose_solution(M, _reference_large_k_steps(M.T))
    pts = reference_normalize_columns(M)
    if pts.total_weight() > MAX_TOTAL_WEIGHT:
        raise ValueError(TOO_LARGE)
    qp = _exact_weight_reduction(pts.points, pts.weights)
    sigma = _exact_group_centroids(pts.points, qp)
    a = reference_solve_orthogonal_centroids(pts.points, qp, sigma)
    return reference_solution(M, a, sigma, _fit_theta(M, sigma, a))


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
