from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import onmf.core
import onmf.kmeans
from onmf.core import WeightedPointSet, normalize_columns
from onmf.kmeans import (
    KMeansConfig,
    _gather,
    _nearest,
    _sq_dists,
    _weighted_cost,
    _weighted_means,
    kmeanspp_seed,
    lloyd,
    weighted_kmeans,
)
from onmf.synth import gen_planted_double, gen_planted_single
from conftest import traced_peak
from oracles import (
    _distances_sq,
    brute_force_kmeans,
    reference_kmeanspp_seed,
    reference_lloyd,
    reference_weighted_kmeans,
    reference_weighted_means,
)


def pset(points, weights):
    return WeightedPointSet(points=np.asarray(points, dtype=float),
                            weights=np.asarray(weights, dtype=float))


@pytest.mark.parametrize("bad", [
    {"restarts": 0}, {"max_iters": 0}, {"seed": -1},
], ids=lambda bad: "=".join(map(str, *bad.items())))
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError, match="invalid k-means configuration"):
        KMeansConfig(**bad)


def test_config_has_no_tolerance():
    # Lloyd stops on a repeated assignment, on an exact cost that did not
    # fall or at max_iters; there is no tolerance to set.
    with pytest.raises(TypeError):
        KMeansConfig(rel_tol=0.0)
    assert list(vars(KMeansConfig())) == ["restarts", "max_iters", "seed"]


def test_seeding_all_weight_on_one_point():
    pts = pset([[1.0, 0.0], [0.0, 1.0]], [5.0, 0.0])
    for seed in range(5):
        centroids = kmeanspp_seed(pts, 1, np.random.default_rng(seed))
        assert np.array_equal(centroids[0], [1.0, 0.0])


def test_seeding_zero_total_weight():
    pts = pset([[0.0, 0.0]], [0.0])
    centroids = kmeanspp_seed(pts, 3, np.random.default_rng(0))
    assert (centroids == 0).all()


def test_seeding_covers_distinct_points():
    pts = pset([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    centroids = kmeanspp_seed(pts, 2, np.random.default_rng(0))
    # with k = n distinct positive-weight points the seeding cost is 0
    assert {tuple(c) for c in centroids} == {(1.0, 0.0), (0.0, 1.0)}


def test_lloyd_points_on_centroids():
    pts = pset([[0.0], [2.0]], [1.0, 1.0])
    sol = lloyd(pts, np.array([[0.0], [2.0]]), KMeansConfig())
    assert sol.cost == 0.0


def test_lloyd_center_of_mass():
    pts = pset([[0.0], [2.0]], [1.0, 1.0])
    sol = lloyd(pts, np.array([[0.5]]), KMeansConfig())
    assert sol.centroids[0, 0] == pytest.approx(1.0)
    assert sol.cost == pytest.approx(2.0)


def test_lloyd_three_points_two_clusters():
    # brute force over all 2^3 assignments gives clusters {0,1},{4}, cost 0.5
    pts = pset([[0.0], [1.0], [4.0]], [1.0, 1.0, 1.0])
    opt = brute_force_kmeans(pts, 2)
    assert opt.cost == pytest.approx(0.5)
    sol = weighted_kmeans(pts, 2, KMeansConfig(restarts=20, seed=0))
    assert sol.cost == pytest.approx(0.5)
    groups = [set(np.flatnonzero(sol.assignment == j))
              for j in set(sol.assignment)]
    assert {frozenset(s) for s in groups} == {frozenset({0, 1}),
                                              frozenset({2})}


def test_weighted_kmeans_zero_cost_when_k_covers_points():
    pts = pset([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [2.0, 3.0, 1.0])
    sol = weighted_kmeans(pts, 2, KMeansConfig(restarts=10, seed=0))
    assert sol.cost == pytest.approx(0.0, abs=1e-15)


def test_weighted_kmeans_deterministic():
    rng = np.random.default_rng(4)
    pts = normalize_columns(rng.random((5, 12)))
    cfg = KMeansConfig(restarts=5, seed=99)
    a = weighted_kmeans(pts, 3, cfg)
    b = weighted_kmeans(pts, 3, cfg)
    assert a.cost == b.cost
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)


def test_brute_force_antipodal():
    pts = pset([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    assert brute_force_kmeans(pts, 2).cost == pytest.approx(0.0, abs=1e-15)


def test_brute_force_single_cluster_residual():
    rng = np.random.default_rng(5)
    x = rng.random((3, 2))
    w = rng.random(3)
    pts = pset(x, w)
    mean = w @ x / w.sum()
    expected = float(np.sum(w * np.sum((x - mean) ** 2, axis=1)))
    assert brute_force_kmeans(pts, 1).cost == pytest.approx(expected)


def test_brute_force_too_large():
    pts = pset(np.ones((30, 2)), np.ones(30))
    with pytest.raises(ValueError):
        brute_force_kmeans(pts, 5)


def test_kmeans_matches_brute_force_on_tiny_instances():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        M = rng.random((3, n))
        pts = normalize_columns(M)
        opt = brute_force_kmeans(pts, k)
        sol = weighted_kmeans(pts, k, KMeansConfig(restarts=50, seed=trial))
        assert sol.cost <= opt.cost * (1 + 1e-9) + 1e-12
        assert sol.cost >= opt.cost - 1e-9


def test_lloyd_cost_never_increases():
    # Lloyd with one more iteration from the same seeds never costs more.
    rng = np.random.default_rng(7)
    for trial in range(10):
        pts = normalize_columns(rng.random((4, 15)))
        seeds = kmeanspp_seed(pts, 3, np.random.default_rng(trial))
        costs = [lloyd(pts, seeds, KMeansConfig(max_iters=t)).cost
                 for t in range(1, 21)]
        for prev, cost in zip(costs, costs[1:]):
            assert cost <= prev + 1e-12 * max(1.0, prev)


def test_clamping_negative_coordinates_never_hurts():
    # on non-negative points, lifting negative centroid coordinates to zero
    # never increases the assigned cost
    rng = np.random.default_rng(8)
    for _ in range(50):
        pts = normalize_columns(rng.random((3, 8)))
        centroids = rng.random((2, 3)) - 0.5  # some negative coordinates
        d2 = np.sum((pts.points[:, None, :] - centroids[None]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        cost = float(np.sum(pts.weights * d2[np.arange(8), assign]))
        clamped = np.maximum(centroids, 0.0)
        d2c = np.sum((pts.points[:, None, :] - clamped[None]) ** 2, axis=2)
        cost_clamped = float(np.sum(pts.weights * d2c[np.arange(8), assign]))
        assert cost_clamped <= cost + 1e-12


def test_center_of_mass_identity():
    # sum l ||x - b||^2 = sum l ||x - y||^2 + (sum l) ||y - b||^2
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.random((6, 3))
        l = rng.random(6)
        b = rng.random(3)
        y = l @ x / l.sum()
        lhs = float(np.sum(l * np.sum((x - b) ** 2, axis=1)))
        rhs = float(np.sum(l * np.sum((x - y) ** 2, axis=1))
                    + l.sum() * np.sum((y - b) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def nearest(points, centroids):
    return _nearest(points, np.einsum("nm,nm->n", points, points), centroids,
                    np.empty((len(centroids), len(points))))


def as_bytes(sol):
    return (sol.assignment.tobytes(), sol.centroids.tobytes(),
            np.float64(sol.cost).tobytes())


@st.composite
def kernel_cases(draw):
    """(points, weights, centroids) for the GEMM kernel's differential test.

    Kinds: random; 0/1 with duplicated points (duplicated columns of M);
    0 and -0.0 heavy; and random scaled to about 1e+-150, where the squared
    norms overflow or underflow. Centroids are random, copies of points
    (exact ties), or k-means++ seeds, which end in zero centroids when k
    exceeds the distinct points; a duplicate may be appended.
    """
    kind = draw(st.sampled_from(["random", "binary", "zeros", "huge", "tiny"]))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    cell = {"binary": st.sampled_from([0.0, 1.0]),
            "zeros": st.sampled_from([0.0, -0.0, 1.0, 0.5]),
            }.get(kind, st.floats(-1.0, 1.0))
    grid = st.lists(st.lists(cell, min_size=m, max_size=m),
                    min_size=n, max_size=n)
    points = np.array(draw(grid), dtype=np.float64)
    if kind == "binary":
        points = points[draw(st.lists(st.integers(0, n - 1),
                                      min_size=n, max_size=n))]
    if kind in ("huge", "tiny"):
        exponent = draw(st.sampled_from([140, 150, 154, 155, 160]))
        points *= 10.0 ** (exponent if kind == "huge" else -exponent)
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]),
                                     min_size=n, max_size=n)))
    source = draw(st.sampled_from(["random", "points", "seeding"]))
    if source == "random":
        centroids = np.array(draw(st.lists(st.lists(cell, min_size=m,
                                                    max_size=m),
                                           min_size=k, max_size=k)))
        centroids = centroids * (np.abs(points).max() or 1.0)
    elif source == "points":
        centroids = points[draw(st.lists(st.integers(0, n - 1),
                                         min_size=k, max_size=k))]
    else:
        pts = WeightedPointSet(points=points, weights=weights)
        seed = draw(st.integers(0, 2**16))
        with np.errstate(all="ignore"):
            centroids = kmeanspp_seed(pts, k, np.random.default_rng(seed))
    if draw(st.booleans()):
        centroids = np.vstack([centroids, centroids[draw(
            st.integers(0, len(centroids) - 1))]])
    return points, weights, np.asarray(centroids, dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
@example((np.array([[0.0, 1.0], [-0.0, 0.0], [0.0, -0.0]]), np.ones(3),
          np.zeros((3, 2))))
@example((np.array([[1e200, 3e200], [-2e200, 1e200]]), np.ones(2),
          np.array([[1e200, 1e200], [-1e200, 1e200]])))
@np.errstate(all="ignore")  # the 1e+-150 cases overflow and underflow
def test_gemm_kernel_matches_exact_kernel(case):
    points, weights, centroids = case
    exact = np.argmin(_distances_sq(points, centroids), axis=1)
    assert nearest(points, centroids).tobytes() == exact.tobytes()
    pts = WeightedPointSet(points=points, weights=weights)
    config = KMeansConfig(max_iters=5)
    assert (as_bytes(lloyd(pts, centroids, config))
            == as_bytes(reference_lloyd(pts, centroids, config)))


def garbage(shape):
    """A work buffer full of NaN, so a result that read its old contents
    would show them."""
    return np.full(shape, np.nan)


@settings(max_examples=300, deadline=None)
@given(kernel_cases(), st.integers(1, 14), st.integers(0, 2**16))
@example((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),  # a zero point
          np.array([0.0, 1.0, 1.0]), np.zeros((2, 2))), 5, 0)
@example((np.array([[1.0, -0.0], [1.0, -0.0], [0.0, 1.0]]),  # duplicates
          np.ones(3), np.array([[1.0, 0.0]])), 4, 3)
@np.errstate(all="ignore")  # the 1e+-150 cases overflow and underflow
def test_kmeans_buffers_match_reference(case, k, seed):
    # Seeding, Lloyd and the restart loop, which reuse their work arrays,
    # against the copies that allocate every temporary; k may exceed n.
    points, weights, centroids = case
    pts = WeightedPointSet(points=points, weights=weights)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_kmeanspp_seed(pts, k, ref_rng).tobytes()
    assert kmeanspp_seed(pts, k, rng).tobytes() == want
    assert rng.random() == ref_rng.random()  # the same draws were taken

    config = KMeansConfig(max_iters=5)
    want = as_bytes(reference_lloyd(pts, centroids, config))
    assert as_bytes(lloyd(pts, centroids, config)) == want

    config = KMeansConfig(restarts=3, max_iters=5, seed=seed)
    assert (as_bytes(weighted_kmeans(pts, k, config))
            == as_bytes(reference_weighted_kmeans(pts, k, config)))


@settings(max_examples=300, deadline=None)
@given(kernel_cases(), st.integers(1, 20), st.integers(1, 8),
       st.integers(0, 2**16))
@np.errstate(all="ignore")  # the 1e+-150 cases overflow and underflow
def test_lloyd_early_exit_matches_reference(case, max_iters, k, seed):
    # The reference stops only on a cost that did not fall, so lloyd's stop
    # on an unchanged assignment comes first, and must give the same bytes.
    points, weights, centroids = case
    pts = WeightedPointSet(points=points, weights=weights)
    config = KMeansConfig(max_iters=max_iters)
    assert (as_bytes(lloyd(pts, centroids, config))
            == as_bytes(reference_lloyd(pts, centroids, config)))
    config = KMeansConfig(restarts=2, max_iters=max_iters, seed=seed)
    assert (as_bytes(weighted_kmeans(pts, k, config))
            == as_bytes(reference_weighted_kmeans(pts, k, config)))


def test_lloyd_stops_when_the_assignment_repeats(monkeypatch):
    # Two tight pairs, seeded one centroid per pair: the first assignment
    # is final. The recentered step repeats it and stops, where the cost
    # test alone would take one more step to see the cost stand still.
    calls = []

    def counted(*args):
        calls.append(1)
        return _nearest(*args)

    monkeypatch.setattr(onmf.kmeans, "_nearest", counted)
    pts = pset([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0], [0.01, 0.99]],
               [1.0, 2.0, 1.0, 2.0])
    config = KMeansConfig(max_iters=100)
    sol = lloyd(pts, pts.points[[0, 2]], config)
    assert sol.assignment.tolist() == [0, 0, 1, 1]
    assert len(calls) == 2  # the first assignment, then one iteration
    assert (as_bytes(sol)
            == as_bytes(reference_lloyd(pts, pts.points[[0, 2]], config)))


def test_lloyd_stops_when_the_cost_does_not_fall(monkeypatch):
    # Noiseless planted columns: every restart reaches a cost of about
    # 1e-28 at once, rounding raises it at the first iteration and the
    # cost test stops there, 2 assignments per restart. Without that
    # stop each restart cycles through a few assignments to max_iters.
    calls = []

    def counted(*args):
        calls.append(1)
        return _nearest(*args)

    pts = normalize_columns(gen_planted_double(30, 300, 15, 0.0, 0)
                            .m_observed)
    config = KMeansConfig(seed=0)
    expected = as_bytes(reference_weighted_kmeans(pts, 15, config))
    monkeypatch.setattr(onmf.kmeans, "_nearest", counted)
    sol = weighted_kmeans(pts, 15, config)
    assert len(calls) <= 30
    assert as_bytes(sol) == expected


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@np.errstate(all="ignore")  # the 1e+-150 cases overflow and underflow
def test_kernel_helpers_never_read_stale_buffers(case):
    # A NaN-filled buffer gives the same bytes as a fresh array would. NaN
    # rows of _nearest's distances go to its exact recomputation, so it also
    # gets distinct finite values, which a stale read would turn into a
    # certified wrong answer.
    points, weights, centroids = case
    norms_sq = np.einsum("nm,nm->n", points, points)
    shape = (len(centroids), len(points))
    assignment = _nearest(points, norms_sq, centroids, np.zeros(shape))
    for dist in (garbage(shape), np.arange(float(np.prod(shape))).reshape(shape)):
        assert (_nearest(points, norms_sq, centroids, dist).tobytes()
                == assignment.tobytes())
    pts = WeightedPointSet(points=points, weights=weights)
    want = np.float64(_weighted_cost(pts, centroids, assignment, np.zeros(
        points.shape))).tobytes()
    assert np.float64(_weighted_cost(pts, centroids, assignment, garbage(
        points.shape))).tobytes() == want
    for c in centroids:
        want = np.sum((points - c) ** 2, axis=1).tobytes()
        assert _sq_dists(points, c, garbage(points.shape)).tobytes() == want


@st.composite
def seeding_cases(draw):
    """(points, weights) that stress the seeding's filter: normalized
    columns of a matrix whose columns repeat after rounding, with about 30%
    zero columns, or repeated and then scaled by 1e-150, so the squared
    distances sit near the subnormal range."""
    kind = draw(st.sampled_from(["rounded", "zeros", "tiny"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    m = int(rng.integers(1, 40))
    distinct = int(rng.integers(1, 8))
    n = int(rng.integers(1, 60))
    M = rng.random((m, distinct)).round(1)[:, rng.integers(0, distinct, n)]
    if kind == "zeros":
        M[:, rng.random(n) < 0.3] = 0.0
    pts = normalize_columns(M)
    if kind == "tiny":
        pts = WeightedPointSet(points=pts.points * 1e-150,
                               weights=pts.weights)
    return pts


@settings(max_examples=300, deadline=None)
@given(seeding_cases(), st.integers(1, 12), st.integers(0, 2**16))
@np.errstate(all="ignore")  # the 1e-150 points' squares underflow
def test_seeding_filter_matches_reference(pts, k, seed):
    # k often exceeds the distinct points, which stops the draws early.
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_kmeanspp_seed(pts, k, ref_rng).tobytes()
    assert kmeanspp_seed(pts, k, rng).tobytes() == want
    assert rng.random() == ref_rng.random()


def test_seeding_recomputes_few_rows_exactly(monkeypatch):
    # Every exact recomputation goes through _gather. A filter that
    # certified nothing would gather all n rows for each of k - 1 centroids;
    # here about an eighth of them are gathered, mostly the points that the
    # new centroid is nearer to, whose exact distances d2 must take.
    gathered = []

    def counted(points, idx, work):
        gathered.append(len(idx))
        return _gather(points, idx, work)

    monkeypatch.setattr(onmf.kmeans, "_gather", counted)
    n, k = 2000, 20
    pts = normalize_columns(
        gen_planted_single(100, n, k, 0.5, 3).m_observed)
    for seed in range(3):
        gathered.clear()
        rng, ref_rng = (np.random.default_rng(seed),
                        np.random.default_rng(seed))
        assert (kmeanspp_seed(pts, k, rng).tobytes()
                == reference_kmeanspp_seed(pts, k, ref_rng).tobytes())
        assert 0 < sum(gathered) < n * (k - 1) / 2


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 3, 7, 8, 9, 15, 16, 64, 100, 127, 128, 129, 130,
                        200, 256, 257, 300]) | st.integers(1, 300),
       st.integers(1, 40), st.integers(0, 2**16))
def test_row_subset_sums_match_full_sums(m, n, seed):
    # np.sum over axis 1 adds each row alone, so the sums of rows gathered
    # into the leading rows of a work array equal those rows of the sum of
    # the whole array. The seeding's exact recomputation relies on it, as
    # _nearest's relies on the same property of einsum. Mixed magnitudes
    # make the order of addition show.
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 9, (n, m))
    idx = rng.integers(0, n, int(rng.integers(1, n + 1)))
    full = np.sum(points, axis=1)
    rows = _gather(points, idx, garbage(points.shape))
    assert np.sum(rows, axis=1).tobytes() == full[idx].tobytes()


@pytest.mark.parametrize("k", [0, -1])
def test_weighted_kmeans_rejects_bad_k(k):
    pts = pset([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="k must be >= 1"):
        weighted_kmeans(pts, k, KMeansConfig())


def test_gemm_kernel_near_tie_falls_back_to_exact():
    # The point is 2e-8 from the second centroid and 3e-8 from the first,
    # but the expanded form cancels ||x||^2 = 100 against the rest and
    # rounds the first distance to 0 and the second to about 1.4e-14.
    points = np.array([[10.0]])
    centroids = np.array([[10.0 + 3e-8], [10.0 - 2e-8]])
    s = np.einsum("nm,nm->n", points, points)
    t = np.einsum("km,km->k", centroids, centroids)
    raw = s[:, None] - 2.0 * (points @ centroids.T) + t
    assert np.argmin(raw, axis=1).tolist() == [0]
    assert np.argmin(_distances_sq(points, centroids), axis=1).tolist() == [1]
    assert nearest(points, centroids).tolist() == [1]
    assert nearest(np.repeat(points, 50, axis=0), centroids).tolist() == [1] * 50


def test_gemm_kernel_on_planted_lloyd_runs():
    # Whole Lloyd runs on planted inputs match the exact kernel.
    for seed in range(3):
        pts = normalize_columns(
            gen_planted_single(30, 300, 8, 0.5, seed).m_observed)
        seeds = kmeanspp_seed(pts, 8, np.random.default_rng(seed))
        config = KMeansConfig(max_iters=20)
        assert (as_bytes(lloyd(pts, seeds, config))
                == as_bytes(reference_lloyd(pts, seeds, config)))


def _reference_weighted_means(points, weights, labels, out):
    """The per-label loop _weighted_means replaced, kept as its reference."""
    totals = np.zeros(out.shape[0])
    for j in range(out.shape[0]):
        mask = labels == j
        total = float(weights[mask].sum())
        totals[j] = total
        if total > 0:
            out[j] = weights[mask] @ points[mask] / total
    return totals


@st.composite
def mean_cases(draw):
    """(points, weights, labels, out): labels from -1 to k - 1, with k up to
    twice the point count so singleton, multi-member and empty labels all
    occur; -0.0 and zero, negative or huge/tiny weights and coordinates."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 2 * n + 1))
    scale = draw(st.sampled_from([1.0, 1e150, 1e-150]))
    cell = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0)
    grid = st.lists(st.lists(cell, min_size=m, max_size=m),
                    min_size=n, max_size=n)
    points = np.array(draw(grid), dtype=np.float64).reshape(n, m) * scale
    weight = st.sampled_from([0.0, -0.0, 1.0, 1e150, 1e-150]) | st.floats(-1.0, 4.0)
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)),
                       dtype=np.float64)
    labels = np.array(draw(st.lists(st.integers(-1, k - 1), min_size=n,
                                    max_size=n)), dtype=np.int64)
    out = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                 min_size=k, max_size=k)), dtype=np.float64)
    return points, weights, labels, out


@settings(max_examples=400, deadline=None)
@given(mean_cases())
@example((np.array([[-0.0, 1.0]]), np.array([2.0]),  # w * -0.0 is -0.0
          np.array([0]), np.ones((1, 2))))
@example((np.array([[1.0], [1.0]]), np.array([-0.0, 1.0]),  # a -0.0 total
          np.array([0, 1]), np.ones((3, 1))))
@np.errstate(all="ignore")  # the 1e+-150 cases overflow and underflow
def test_weighted_means_matches_per_label_loop(case):
    # Also against the copy that gathers into fresh arrays, and with a
    # gather buffer shaped like points or of one row, which every cluster
    # of two or more points outgrows.
    points, weights, labels, out = case
    expected_out = out.copy()
    expected = _reference_weighted_means(points, weights, labels, expected_out)
    copy_out = out.copy()
    copied = reference_weighted_means(points, weights, labels, copy_out)
    assert copied.tobytes() == expected.tobytes()
    assert copy_out.tobytes() == expected_out.tobytes()
    for work in (None, garbage(points.shape),
                 garbage((1, points.shape[1]))):
        got_out = out.copy()
        totals = _weighted_means(points, weights, labels, got_out, work)
        assert (totals.dtype, totals.tobytes()) == (expected.dtype,
                                                    expected.tobytes())
        assert got_out.tobytes() == expected_out.tobytes()


@settings(max_examples=200, deadline=None)
@given(mean_cases())
@np.errstate(all="ignore")  # the 1e+-150 cases overflow and underflow
def test_weighted_means_one_point_per_chunk(case):
    # Without a work buffer, one entry per block makes each single-point
    # cluster a chunk of its own.
    points, weights, labels, out = case
    want_out = out.copy()
    want = reference_weighted_means(points, weights, labels, want_out)
    with mock.patch.object(onmf.core, "BLOCK_ENTRIES", 1):
        totals = _weighted_means(points, weights, labels, out)
    assert totals.tobytes() == want.tobytes()
    assert out.tobytes() == want_out.tobytes()


@settings(max_examples=300, deadline=None)
@given(mean_cases(), st.data())
@np.errstate(all="ignore")  # the 1e+-150 cases overflow and underflow
def test_weighted_means_leaves_unmarked_rows_untouched(case, data):
    # The rows recompute marks come out as a full recentering makes them;
    # every other row keeps its NaN sentinel and reports a total of 0.
    points, weights, labels, out = case
    k = len(out)
    recompute = np.array(data.draw(st.lists(st.booleans(), min_size=k,
                                            max_size=k)), dtype=bool)
    full = out.copy()
    totals = _weighted_means(points, weights, labels, full)
    for work in (None, garbage(points.shape),
                 garbage((1, points.shape[1]))):
        got = np.full(out.shape, np.nan)
        got[recompute] = out[recompute]
        got_totals = _weighted_means(points, weights, labels, got, work,
                                     recompute)
        assert got[recompute].tobytes() == full[recompute].tobytes()
        assert (got[~recompute].tobytes()
                == np.full(got[~recompute].shape, np.nan).tobytes())
        assert (got_totals[recompute].tobytes()
                == totals[recompute].tobytes())
        assert not got_totals[~recompute].any()


def test_lloyd_recenters_only_the_clusters_a_point_left_and_joined(
        monkeypatch):
    # The first recentering pulls the centroid at 4 to 5.03, so the point
    # at 2.1 moves from cluster 1 to cluster 0 and nothing else moves: the
    # second recentering redoes rows 0 and 1 and leaves row 2 as it is.
    calls = []

    def spied(points, weights, labels, out, work=None, recompute=None):
        before = out.copy()
        totals = _weighted_means(points, weights, labels, out, work,
                                 recompute)
        calls.append((recompute, before, out.copy()))
        return totals

    monkeypatch.setattr(onmf.kmeans, "_weighted_means", spied)
    pts = pset([[0.0], [1.0], [2.1], [6.0], [7.0], [20.0], [21.0]],
               np.ones(7))
    seeds = np.array([[0.0], [4.0], [20.5]])
    config = KMeansConfig(max_iters=100)
    sol = lloyd(pts, seeds, config)
    assert sol.assignment.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert [c[0] is None for c in calls] == [True, False]
    recompute, before, after = calls[1]
    assert recompute.tolist() == [True, True, False]
    assert (before != after).any(axis=1).tolist() == [True, True, False]
    assert as_bytes(sol) == as_bytes(reference_lloyd(pts, seeds, config))


@pytest.mark.parametrize("centroids, exact_rows", [
    (np.array([[0.0, 0.0], [1.0, 0.0]]), [1, 2, 3]),
    (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), [0, 1, 2, 3]),
], ids=["distinct", "duplicated"])
@np.errstate(all="ignore")  # the NaN and inf rows
def test_gemm_kernel_leaves_nan_inf_and_ties_uncertified(
        centroids, exact_rows):
    # A NaN row, an inf row and a point exactly between two centroids go to
    # the exact recomputation; so does a point whose nearest centroid is
    # repeated. Their exact distances, and only theirs, lead dist.
    points = np.array([[0.1, 0.0], [np.nan, 0.0], [np.inf, 0.0],
                       [0.5, 0.0], [0.9, 0.0]])
    exact = _distances_sq(points, centroids)
    dist = np.empty((len(centroids), len(points)))
    assignment = _nearest(points, np.einsum("nm,nm->n", points, points),
                          centroids, dist)
    assert assignment.tobytes() == np.argmin(exact, axis=1).tobytes()
    lead = dist.reshape(-1)[:len(exact_rows) * len(centroids)]
    assert np.array_equal(lead, exact[exact_rows].reshape(-1), equal_nan=True)


@pytest.mark.parametrize("m", [1, 3, 8, 9])
def test_gemm_kernel_recomputes_in_blocks(m):
    # Every centroid is repeated, so no point is certified; with 8 entries
    # per block the exact recomputation runs over blocks of 8 // m rows (one
    # row when m > 8), the last one short.
    rng = np.random.default_rng(m)
    points = rng.standard_normal((23, m))
    base = np.vstack([points[:4], points[:4] + 0.5])
    centroids = np.vstack([base, base])
    exact = _distances_sq(points, centroids)
    dist = garbage((len(centroids), len(points)))
    with mock.patch.object(onmf.core, "BLOCK_ENTRIES", 8):
        assignment = _nearest(points, np.einsum("nm,nm->n", points, points),
                              centroids, dist)
    assert assignment.tobytes() == np.argmin(exact, axis=1).tobytes()
    assert dist.reshape(-1).tobytes() == exact.tobytes()


def nearest_peak(points, centroids, dist):
    norms_sq = np.einsum("nm,nm->n", points, points)
    return traced_peak(lambda: _nearest(points, norms_sq, centroids, dist))


def test_gemm_kernel_recomputation_memory_does_not_grow_with_k():
    # With k copies of one centroid every point is recomputed exactly. That
    # may cost a few blocks of BLOCK_ENTRIES floats over a call that
    # certifies every point, however large n k is; an (n', k, m) temporary
    # would be 3.2 MB here even at n' = 20 rows.
    n, m, k = 2000, 100, 200
    rng = np.random.default_rng(0)
    points = rng.random((n, m))
    dist = np.empty((k, n))
    certified = nearest_peak(points, rng.random((k, m)), dist)
    # dist still holds the tally's 0/1 matrix: each point had one centroid
    # within the limit, so none was recomputed.
    assert (dist.sum(axis=0) == 1).all()
    unsure = nearest_peak(points, np.repeat(points[:1], k, axis=0), dist)
    assert unsure - certified <= 4 * 8 * onmf.core.BLOCK_ENTRIES


@st.composite
def lloyd_cases(draw):
    """(points set, initial centroids) for Lloyd's differential test.

    m is mostly odd, so every other gathered row of a cluster starts off a
    16-byte boundary; points repeat a few distinct rows, some with zero weight;
    the initial centroids are copies of points (repeated ones leave
    clusters empty), random spots, or random spots with some far away,
    whose clusters stay empty; k reaches n + 3, so single-point clusters
    are common.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    m = draw(st.sampled_from([1, 3, 5, 7, 9, 17, 2, 8]))
    distinct = draw(st.integers(1, n))
    rows = rng.random((distinct, m)).round(draw(st.sampled_from([1, 2, 17])))
    points = rows[rng.integers(0, distinct, n)]
    weights = rng.choice([0.0, 0.5, 1.0, 3.0], n)
    if draw(st.booleans()):
        weights = rng.random(n) * (rng.random(n) < 0.8)
    k = draw(st.integers(1, n + 3))
    source = draw(st.sampled_from(["points", "random", "far"]))
    if source == "points":
        centroids = points[rng.integers(0, n, k)]
    else:
        centroids = rng.random((k, m))
        if source == "far":
            centroids[rng.random(k) < 0.3] += 10.0
    return WeightedPointSet(points=points, weights=weights), centroids


@settings(max_examples=300, deadline=None)
@given(lloyd_cases(), st.integers(1, 20), st.integers(0, 2**16))
def test_lloyd_matches_reference_bytes(case, max_iters, seed):
    # Lloyd recenters only the clusters whose members moved; the reference
    # recenters every cluster from fresh copies and assigns with the exact
    # kernel.
    pts, centroids = case
    config = KMeansConfig(max_iters=max_iters)
    assert (as_bytes(lloyd(pts, centroids, config))
            == as_bytes(reference_lloyd(pts, centroids, config)))
    k = len(centroids)
    config = KMeansConfig(restarts=2, max_iters=max_iters, seed=seed)
    assert (as_bytes(weighted_kmeans(pts, k, config))
            == as_bytes(reference_weighted_kmeans(pts, k, config)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weighted_kmeans_matches_reference_at_sweep_shape(seed):
    # The shape of a sweep --mode double trial: 50 x 500, k = 10.
    pts = normalize_columns(gen_planted_double(50, 500, 10, 0.5, seed)
                            .m_observed)
    config = KMeansConfig(restarts=3, seed=seed)
    assert (as_bytes(weighted_kmeans(pts, 10, config))
            == as_bytes(reference_weighted_kmeans(pts, 10, config)))


# BLOCK_ENTRIES values, each a function of m: blocks of one row (1, m - 1,
# m and, for m > 1, m + 1), and of three rows (3 m).
BLOCK_SIZES = {"1": lambda m: 1, "m-1": lambda m: m - 1, "m": lambda m: m,
               "m+1": lambda m: m + 1, "3m": lambda m: 3 * m}


@settings(max_examples=200, deadline=None)
@given(lloyd_cases(), st.sampled_from(sorted(BLOCK_SIZES)),
       st.integers(1, 12), st.integers(0, 2**16))
@example((WeightedPointSet(points=np.arange(14.0).reshape(7, 2) % 3,
                           weights=np.ones(7)),
          np.zeros((1, 2))), "3m", 5, 0)  # one cluster of 7 rows, blocks of 3
def test_kmeans_in_row_blocks_matches_reference(case, size, max_iters, seed):
    # Seeding, the exact cost and the recentering take the points a block of
    # rows at a time; a cluster of more rows than a block gathers on its own.
    pts, centroids = case
    k = len(centroids)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    config = KMeansConfig(max_iters=max_iters)
    restarts = KMeansConfig(restarts=2, max_iters=max_iters, seed=seed)
    want = (reference_kmeanspp_seed(pts, k, ref_rng).tobytes(),
            as_bytes(reference_lloyd(pts, centroids, config)),
            as_bytes(reference_weighted_kmeans(pts, k, restarts)))
    entries = BLOCK_SIZES[size](pts.points.shape[1])
    with mock.patch.object(onmf.core, "BLOCK_ENTRIES", entries):
        got = (kmeanspp_seed(pts, k, rng).tobytes(),
               as_bytes(lloyd(pts, centroids, config)),
               as_bytes(weighted_kmeans(pts, k, restarts)))
    assert got == want
    assert rng.random() == ref_rng.random()  # the same draws were taken


def test_weighted_kmeans_allocates_no_n_by_m_array():
    # 100 x 2000 with k = 20: n m is six blocks. Seeding and Lloyd keep a
    # block, the (k, n) distances and a few (n,) arrays: 1.25 MB here,
    # against 2.16 MB with an (n, m) work array.
    m, n, k = 100, 2000, 20
    pts = normalize_columns(gen_planted_single(m, n, k, 0.5, 3).m_observed)
    config = KMeansConfig(restarts=10, max_iters=10)
    assert traced_peak(lambda: weighted_kmeans(pts, k, config)) < 8 * n * m


def test_lloyd_takes_its_row_blocks_from_the_gemm_array():
    # The (k, n) GEMM distances are dead once the assignment is made, so
    # the exact cost and the recentering take their row blocks from the
    # same array: 1.00 MB here, against 1.25 MB with a block beside it.
    m, n, k = 100, 2000, 20
    pts = normalize_columns(gen_planted_single(m, n, k, 0.5, 3).m_observed)
    config = KMeansConfig(restarts=10, max_iters=10)
    assert traced_peak(lambda: weighted_kmeans(pts, k, config)) < 1.1e6
