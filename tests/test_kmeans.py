import numpy as np
import pytest

from onmf.core import WeightedPointSet, normalize_columns
from onmf.kmeans import (
    KMeansConfig,
    kmeanspp_seed,
    lloyd,
    weighted_kmeans,
)
from oracles import brute_force_kmeans


def pset(points, weights):
    return WeightedPointSet(points=np.asarray(points, dtype=float),
                            weights=np.asarray(weights, dtype=float))


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
    # lloyd itself asserts monotonicity each iteration; exercise it broadly
    rng = np.random.default_rng(7)
    for trial in range(10):
        pts = normalize_columns(rng.random((4, 15)))
        seeds = kmeanspp_seed(pts, 3, np.random.default_rng(trial))
        lloyd(pts, seeds, KMeansConfig(max_iters=50))


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
