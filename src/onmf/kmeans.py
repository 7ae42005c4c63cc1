"""Weighted k-means: k-means++ seeding, Lloyd iterations, restarts.

This is the subroutine behind all the factorization algorithms. Determinism
rules: nearest-centroid ties break toward the smallest centroid index,
restart ties toward the smallest restart index, and each restart derives its
own generator from the configured seed.

Lloyd's assignment step takes the expanded form ||x||^2 - 2 x.c + ||c||^2
from one matrix product, then recomputes exactly (per coordinate, so zero
distances stay exactly zero) only the points whose two nearest centroids
lie within a proven rounding margin. Its assignment is therefore the argmin
of the exact distances, ties to the smallest index included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onmf.core import WeightedPointSet


@dataclass
class KMeansConfig:
    restarts: int = 10
    max_iters: int = 100
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.restarts < 1 or self.max_iters < 1 or self.seed < 0
                or not 0 <= self.rel_tol < np.inf):
            raise ValueError("invalid k-means configuration")


@dataclass
class KMeansSolution:
    centroids: np.ndarray  # (k, m)
    assignment: np.ndarray  # (n,) of centroid indices
    cost: float


def _distances_sq(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared distances; computed exactly, not via the expanded form,
    # to keep zero distances exactly zero. Builds an (n, k, m) temporary.
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def _nearest(points: np.ndarray, norms_sq: np.ndarray,
             centroids: np.ndarray,
             dist: np.ndarray | None = None) -> np.ndarray:
    """np.argmin(_distances_sq(points, centroids), axis=1), from a GEMM.

    dist is an optional (n, k) float64 work buffer: the GEMM writes the
    expanded distances into it, so a call allocates no (n, k) array, and
    its contents are overwritten. Without it the call allocates one.

    norms_sq holds ||x||^2 for each point. Let S = ||x||^2 + ||c||^2,
    u = eps / 2 and G_m = m u / (1 - m u). Against the true squared distance
    D, the expanded form g = fl(fl(||x||^2 - 2 fl(x.c)) + ||c||^2) errs by at
    most G_m S (the two norms) + 2 G_m S / 2 (the dot product, as
    sum |x_l c_l| <= S / 2) + 2u S + 3u S (the two additions), and the exact
    kernel errs by at most G_{m+2} D <= 2 G_{m+2} S. So |g - exact| <=
    (4m + 9) u S + O(u^2) < 2 (m + 4) eps S, taken below with the largest
    ||c||^2. Products that underflow add at most 2.5 m smallest subnormals;
    the 4 (m + 4) of them below also cover the rounding of the margin. A
    point whose best and second-best g differ by more than twice its margin
    has the same strict argmin under the exact kernel. The rest, NaN and inf
    rows included (the test is ~(gap > 2 margin)), are recomputed exactly a
    few rows at a time, so the temporary stays about n k floats.
    """
    n, m = points.shape
    c_norms_sq = np.einsum("km,km->k", centroids, centroids)
    g = np.matmul(points, centroids.T, out=dist)
    g *= -2.0
    g += norms_sq[:, None]
    g += c_norms_sq
    assignment = np.argmin(g, axis=1)
    rows = np.arange(n)
    best = g[rows, assignment]
    g[rows, assignment] = np.inf
    gap = g.min(axis=1) - best
    f = np.finfo(np.float64)
    margin = (m + 4) * (2 * f.eps * (norms_sq + c_norms_sq.max())
                        + 4 * f.smallest_subnormal)
    unsure = np.flatnonzero(~(gap > 2 * margin))
    step = max(1, n // max(m, 1))
    for lo in range(0, len(unsure), step):
        idx = unsure[lo:lo + step]
        assignment[idx] = np.argmin(_distances_sq(points[idx], centroids),
                                    axis=1)
    return assignment


def _weighted_cost(pts: WeightedPointSet, centroids: np.ndarray,
                   assignment: np.ndarray,
                   work: np.ndarray | None = None) -> float:
    # The differences go into work, an optional (n, m) buffer.
    diff = _gather(centroids, assignment, work)
    np.subtract(pts.points, diff, out=diff)
    return float(np.sum(pts.weights * np.einsum("nm,nm->n", diff, diff)))


def _weighted_means(points: np.ndarray, weights: np.ndarray,
                    labels: np.ndarray, out: np.ndarray,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Recenter each row j of out on the weighted mean of the points labeled j.

    Rows whose points carry no positive total weight (empty clusters
    included) keep their value; labels outside [0, len(out)), such as -1,
    are ignored. Returns the total weight per row.

    One stable sort of the labels turns each row's points into a segment in
    index order. A segment of two or more points takes the gemv w @ P / total
    on its rows, as a per-label mask would select them. The single points
    are done in one array expression: the one-term BLAS product starts from
    +0.0, so it gives +0.0 where w * x is -0.0, and (w * x + 0.0) / w
    reproduces it bit for bit; likewise a one-element sum of -0.0 is +0.0.
    The rows of each gather go into the leading rows of work, an optional
    buffer shaped like points, or into a new array without it.
    """
    k = out.shape[0]
    order = np.argsort(labels, kind="stable")
    # Label j's points are order[bounds[j]:bounds[j + 1]].
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    counts = np.diff(bounds)
    totals = np.zeros(k)

    single = np.flatnonzero(counts == 1)
    if single.size:
        idx = order[bounds[single]]
        w = weights[idx] + 0.0
        totals[single] = w
        pos = w > 0
        w = w[pos, None]
        rows = _gather(points, idx[pos], work)  # (w * x + 0.0) / w in place
        rows *= w
        rows += 0.0
        rows /= w
        out[single[pos]] = rows

    bounds = bounds.tolist()  # Python ints slice faster
    for j in np.flatnonzero(counts > 1).tolist():
        idx = order[bounds[j]:bounds[j + 1]]
        w = weights[idx]
        total = float(w.sum())
        totals[j] = total
        if total > 0:
            out[j] = w @ _gather(points, idx, work) / total
    return totals


def _gather(points: np.ndarray, idx: np.ndarray,
            work: np.ndarray | None) -> np.ndarray:
    """points[idx], written into work[:len(idx)] when work is given.

    take writes straight into the buffer only with mode="clip"; under the
    default "raise" it fills a temporary copy first. Every caller's indices
    are in range, so none is clipped.
    """
    out = None if work is None else work[:len(idx)]
    return np.take(points, idx, axis=0, out=out, mode="clip")


def _sample_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right").clip(0, len(weights) - 1))


def _sq_dists(points: np.ndarray, c: np.ndarray,
              work: np.ndarray | None) -> np.ndarray:
    """np.sum((points - c) ** 2, axis=1), with the (n, m) terms in work."""
    diff = np.subtract(points, c, out=work)
    diff *= diff
    return np.sum(diff, axis=1)


def kmeanspp_seed(pts: WeightedPointSet, k: int,
                  rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on a weighted point set.

    The first centroid is sampled with probability proportional to the point
    weight, later ones proportional to weight times squared distance to the
    nearest chosen centroid. With zero total remaining probability the
    leftover centroids are the zero vector (they can never lower the cost of
    any point, so the convention is harmless).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    centroids = np.zeros((k, pts.points.shape[1]))
    if pts.total_weight() == 0:
        return centroids
    work = np.empty(pts.points.shape)
    first = _sample_index(pts.weights, rng)
    centroids[0] = pts.points[first]
    d2 = _sq_dists(pts.points, centroids[0], work)
    for j in range(1, k):
        probs = pts.weights * d2
        total = float(probs.sum())
        if total <= 0:
            break  # every point already sits on a centroid
        idx = _sample_index(probs, rng)
        centroids[j] = pts.points[idx]
        np.minimum(d2, _sq_dists(pts.points, centroids[j], work), out=d2)
    return centroids


def lloyd(pts: WeightedPointSet, centroids: np.ndarray,
          config: KMeansConfig) -> KMeansSolution:
    """Weighted Lloyd iterations from the given initial centroids.

    Alternates nearest-centroid assignment and weighted-mean recentering
    until the assignment stops changing, the relative cost improvement drops
    below config.rel_tol or config.max_iters is reached. The cost never increases (up to rounding).
    Assignment is a GEMM plus an exact recomputation of the points it cannot
    certify (see _nearest): each point goes to the centroid at the smallest
    exact squared distance, ties to the smallest index, and a point on a
    centroid is at distance exactly zero.
    """
    centroids = np.array(centroids, dtype=np.float64)
    work = np.empty(pts.points.shape)
    dist = np.empty((len(pts), len(centroids)))
    norms_sq = np.einsum("nm,nm->n", pts.points, pts.points)
    assignment = _nearest(pts.points, norms_sq, centroids, dist)
    prev_cost = _weighted_cost(pts, centroids, assignment, work)
    for _ in range(config.max_iters):
        _weighted_means(pts.points, pts.weights, assignment, centroids, work)
        prev_assignment = assignment
        assignment = _nearest(pts.points, norms_sq, centroids, dist)
        cost = _weighted_cost(pts, centroids, assignment, work)
        # An unchanged assignment is a fixed point: every later iteration
        # would recompute these centroids, this assignment and this cost.
        if (np.array_equal(assignment, prev_assignment)
                or prev_cost - cost <= config.rel_tol * prev_cost):
            prev_cost = cost
            break
        prev_cost = cost
    return KMeansSolution(centroids=centroids, assignment=assignment,
                          cost=prev_cost)


def weighted_kmeans(pts: WeightedPointSet, k: int,
                    config: KMeansConfig) -> KMeansSolution:
    """Best-of-restarts k-means++ plus Lloyd; deterministic given the seed."""
    best: KMeansSolution | None = None
    for t in range(config.restarts):
        rng = np.random.default_rng(config.seed + t)
        seeds = kmeanspp_seed(pts, k, rng)
        sol = lloyd(pts, seeds, config)
        if best is None or sol.cost < best.cost:
            best = sol
    assert best is not None
    return best
