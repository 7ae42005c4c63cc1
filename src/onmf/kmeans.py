"""Weighted k-means: k-means++ seeding, Lloyd iterations, restarts.

This is the subroutine behind all the factorization algorithms. Determinism
rules: nearest-centroid ties break toward the smallest centroid index,
restart ties toward the smallest restart index, and each restart derives its
own generator from the configured seed.

Lloyd's assignment step takes the expanded form ||x||^2 - 2 x.c + ||c||^2
from one matrix product, then recomputes exactly (in row blocks, per
coordinate, so zero distances stay exactly zero) only the points whose two
nearest centroids lie within a proven rounding margin. Its assignment is
the argmin of the exact distances, ties to the smallest index included.

Lloyd's recentering sorts the labels once per iteration and, after the
first, recomputes only the clusters whose members changed: a cluster with
the same members gathers the same rows in the same order, so its mean would
come out with the same bits.

k-means++ seeding uses the same certificate. Each new centroid's expanded
distances come from one matrix-vector product, and only the points that
cannot be proven farther from it than from their nearest chosen centroid are
recomputed with the exact kernel. The distances that weight the draws, and
so the seeds, are those of the exact kernel.

Seeding takes the points through one work buffer of core.block_rows(m, n)
rows, and Lloyd through the buffer that also holds its GEMM's (k, n)
distances, a block of rows at a time, so k-means allocates no n x m array.
The blocks change no bit on rows of up to 8,192 entries; past that the
einsum of _weighted_cost and _nearest may give other bits with another
block size (seeding's np.sum does not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onmf.core import WeightedPointSet, block_rows


@dataclass
class KMeansConfig:
    restarts: int = 10
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1 or self.seed < 0:
            raise ValueError("invalid k-means configuration")


@dataclass
class KMeansSolution:
    centroids: np.ndarray  # (k, m)
    assignment: np.ndarray  # (n,) of centroid indices
    cost: float


def _margin(norms_sq: np.ndarray, c_norm_sq: float, m: int) -> np.ndarray:
    """Per-point bound on |expanded - exact| squared distance, m coordinates,
    with room for the rounding of the comparison a caller makes with it.

    norms_sq holds ||x||^2 for each point and c_norm_sq is the largest
    ||c||^2 of the centroids compared. Let S = ||x||^2 + ||c||^2,
    u = eps / 2 and G_m = m u / (1 - m u). Against the true squared distance
    D, the expanded form g = fl(fl(fl(x.(-2c)) + ||x||^2) + ||c||^2) errs by
    at most G_m S (the two norms) + 2 G_m S / 2 (the dot product: scaling c
    by -2 is exact, and sum |x_l c_l| <= S / 2) + 2u S + 3u S (the two
    additions), and the exact kernel (subtract, square, sum) errs by at most
    G_{m+2} D <= 2 G_{m+2} S. So |g - exact| <= (4m + 9) u S + O(u^2), and
    the margin, 2 (m + 4) eps S = (4m + 16) u S, exceeds that by 7u S. That
    covers one rounding of each side of a caller's comparison of sums of g,
    d2 and margins (each side at most about 2 S): fl(best + 2 margin) in
    _nearest, fl(g - margin) and fl(d2 + margin) in _maybe_nearer.

    Products that underflow add at most 2m smallest subnormals (m / 2 each
    in the dot product, the two norms and the squares of the exact kernel;
    a sum or difference with a subnormal result is exact); the 4 (m + 4) of
    them below also cover the rounding of the margin itself. The margin is
    inf where 4 S overflows, and a NaN or inf norm gives a NaN or inf
    margin; neither certifies anything. Everywhere else S <= max / 4, so
    nothing in g, the exact kernel or the comparisons overflows.
    """
    f = np.finfo(np.float64)
    margin = norms_sq + c_norm_sq  # the one (n,) array a call allocates
    margin *= 4.0  # inf where S > max / 4; times eps / 2 it is 2 eps S
    margin *= f.eps / 2
    margin += 4 * f.smallest_subnormal
    margin *= m + 4
    return margin


def _nearest(points: np.ndarray, norms_sq: np.ndarray,
             centroids: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Each point's nearest centroid by exact squared distance, from a GEMM.

    dist is a (k, n) float64 work buffer, a row per centroid: the GEMM
    writes the expanded distances into it, so a call allocates no (k, n)
    array, and its contents are overwritten. In this layout every reduction
    over the centroids runs along whole rows of points.

    norms_sq holds ||x||^2 for each point. A point is certified when exactly
    one centroid's expanded distance is at most fl(best + 2 _margin), where
    best is the smallest: that centroid then has the strictly smallest
    exact distance. One product with a (2, k) tally of ones and indices
    counts those centroids and sums their indices. The rest are recomputed
    exactly: exact ties, and NaN and inf rows, whose threshold is NaN (no
    centroid counts) or inf (every centroid counts; with k = 1 there is
    nothing to decide). Their rows are gathered block_rows(m) rows at a
    time, and _weighted_cost's kernel writes their distances into the
    leading entries of dist, which the tally has already read, as an
    (unsure, k) array: about two blocks of memory whatever k is. Past 8,192
    entries a row, an exact tie may follow the block size (see the top).
    """
    m = points.shape[1]
    k = len(centroids)
    c_norms_sq = np.einsum("km,km->k", centroids, centroids)
    g = np.matmul(centroids * -2.0, points.T, out=dist)
    g += norms_sq
    g += c_norms_sq[:, None]
    limit = _margin(norms_sq, c_norms_sq.max(), m)
    limit *= 2.0
    limit += g.min(axis=0)
    near = np.less_equal(g, limit, out=g)  # 1.0 within the limit, else 0.0
    count, index_sum = np.array([np.ones(k), np.arange(k)]) @ near
    assignment = index_sum.astype(np.intp)
    unsure = np.flatnonzero(count != 1)
    if unsure.size:
        exact = dist.reshape(-1)[:unsure.size * k].reshape(unsure.size, k)
        diff = _block(unsure.size, m)
        step = len(diff)
        for lo in range(0, unsure.size, step):
            rows = points[unsure[lo:lo + step]]
            d = diff[:len(rows)]
            for j in range(k):
                np.subtract(rows, centroids[j], out=d)
                np.einsum("nm,nm->n", d, d, out=exact[lo:lo + step, j])
        assignment[unsure] = np.argmin(exact, axis=1)
    return assignment


def _weighted_cost(pts: WeightedPointSet, centroids: np.ndarray,
                   assignment: np.ndarray, work: np.ndarray) -> float:
    # The differences go into work, a block of rows at a time: the bits of
    # one pass on rows of up to 8,192 entries (see the top of this module).
    per_point = np.empty(len(pts))
    step = len(work)
    for lo in range(0, len(pts), step):
        hi = lo + step
        diff = _gather(centroids, assignment[lo:hi], work)
        np.subtract(pts.points[lo:hi], diff, out=diff)
        np.einsum("nm,nm->n", diff, diff, out=per_point[lo:hi])
    return float(np.sum(pts.weights * per_point))


def _block(n: int, m: int) -> np.ndarray:
    """An empty work buffer of block_rows(m, n) rows of m entries."""
    return np.empty((block_rows(m, n), m))


def _weighted_means(points: np.ndarray, weights: np.ndarray,
                    labels: np.ndarray, out: np.ndarray,
                    work: np.ndarray | None = None,
                    recompute: np.ndarray | None = None) -> np.ndarray:
    """Recenter each row j of out on the weighted mean of the points labeled j.

    Rows whose points carry no positive total weight (empty clusters
    included) keep their value; labels outside [0, len(out)), such as -1,
    are ignored. Returns the total weight per row. recompute, an optional
    boolean mask over the rows of out, limits this to the rows it marks:
    every other row of out is left as it is and reports a total of 0.

    One stable sort of the labels turns each row's points into a segment in
    index order, and the weights are taken once in that order; the segments
    then go to _segment_means.
    """
    order, bounds = _segments(labels, len(out))
    return _segment_means(points, weights[order], order, bounds, out, work,
                          recompute)


def _segment_means(points: np.ndarray, weights: np.ndarray,
                   order: np.ndarray, bounds: np.ndarray, out: np.ndarray,
                   work: np.ndarray | None = None,
                   recompute: np.ndarray | None = None,
                   norms: np.ndarray | None = None) -> np.ndarray:
    """Row j of out becomes the weighted mean of the points in segment j.

    The segment is order[bounds[j]:bounds[j + 1]], as _segments gives it or
    any run of len(out) consecutive segments of it, and weights are the
    points' weights in the order of order. A row whose segment carries no
    positive total weight keeps its value, and so does every row that
    recompute, an optional boolean mask over the rows of out, leaves
    unmarked; those report a total of 0. Returns the total weight per row.

    A segment of two or more points takes the gemv w @ P / total on its
    rows, as a per-label mask would select them. The single points are done
    in one array expression: the one-term BLAS product starts from +0.0, so
    it gives +0.0 where w * x is -0.0, and (w * x + 0.0) / w reproduces it
    bit for bit; likewise a one-element sum of -0.0 is +0.0. The rows of
    each gather go into the leading rows of work, an optional buffer of one
    row of m entries or more, such as _block's. The single points go
    through it a chunk of len(work) rows at a time, or without it through a
    new buffer from _block: the operations are elementwise, so the bits are
    the same. A segment of more rows than work holds, and every segment
    without it, gathers into an array of its own, since its gemv must see
    all its rows at once. That is the one allocation whose size depends on
    the labels: 8 bytes times m times the largest cluster.

    With norms, the points are the rows points / norms, gathered as _gather
    divides them; points are then 0/1 rows, such as bcc's label columns.
    """
    k, m = out.shape
    counts = np.diff(bounds)
    totals = np.zeros(k)
    single, multi = counts == 1, counts > 1
    if recompute is not None:
        single &= recompute
        multi &= recompute

    single = np.flatnonzero(single)
    if single.size:
        at = bounds[single]
        w = weights[at] + 0.0
        totals[single] = w
        pos = w > 0
        idx, single, w = order[at[pos]], single[pos], w[pos, None]
        buf = work if work is not None else _block(len(idx), m)
        step = len(buf)
        for lo in range(0, len(idx), step):
            hi = lo + step
            rows = _gather(points, idx[lo:hi], buf, norms)  # (w x + 0.0) / w
            rows *= w[lo:hi]
            rows += 0.0
            rows /= w[lo:hi]
            out[single[lo:hi]] = rows

    bounds = bounds.tolist()  # Python ints slice faster
    for j in np.flatnonzero(multi).tolist():
        lo, hi = bounds[j], bounds[j + 1]
        w = weights[lo:hi]
        total = float(w.sum())
        totals[j] = total
        if total > 0:
            # One gemv per cluster: in pieces it would add in another order.
            # So a cluster of more rows than work gathers into its own array.
            buf = work if work is not None and hi - lo <= len(work) else None
            out[j] = w @ _gather(points, order[lo:hi], buf, norms) / total
    return totals


def _segments(labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds): label j's indices, in index order, are
    order[bounds[j]:bounds[j + 1]]; labels outside [0, k), such as -1, are
    in no segment."""
    order = np.argsort(labels, kind="stable")
    return order, np.searchsorted(labels[order], np.arange(k + 1))


def _gather(points: np.ndarray, idx: np.ndarray, work: np.ndarray | None,
            norms: np.ndarray | None = None) -> np.ndarray:
    """points[idx], written into work[:len(idx)] when work is given.

    With norms, points holds 0/1 rows of positive norm, such as bcc's label
    columns, and each gathered row is divided by its norm: the bits that
    normalize_columns gives its unit column.

    take writes straight into the buffer only with mode="clip"; under the
    default "raise" it fills a temporary copy first. Every caller's indices
    are in range, so none is clipped.
    """
    out = None if work is None else work[:len(idx)]
    if norms is not None:
        return np.divide(points[idx], norms[idx, None], out=out)
    return np.take(points, idx, axis=0, out=out, mode="clip")


def _sample_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)


def _sq_dists(points: np.ndarray, c: np.ndarray,
              work: np.ndarray | None) -> np.ndarray:
    """np.sum((points - c) ** 2, axis=1), with the (n, m) terms in work."""
    diff = np.subtract(points, c, out=work)
    diff *= diff
    return np.sum(diff, axis=1)


def _maybe_nearer(points: np.ndarray, norms_sq: np.ndarray, c: np.ndarray,
                  c_norm_sq: float, d2: np.ndarray) -> np.ndarray:
    """Indices of the points whose exact squared distance to c may be at
    most d2; every other point is proven farther from c.

    norms_sq holds ||x||^2 for each point and c_norm_sq is ||c||^2. The
    expanded distance g = ||x||^2 - 2 x.c + ||c||^2 comes from one gemv.
    Where g - margin > d2 + margin (see _margin), the exact distance is
    above d2. A point that passes has d2 < g <= about 2 S, so the second
    margin also covers the rounding of the two sides. NaN and inf rows never
    pass.
    """
    g = points @ c
    g *= -2.0
    g += norms_sq
    g += c_norm_sq
    margin = _margin(norms_sq, c_norm_sq, points.shape[1])
    g -= margin
    margin += d2
    return np.flatnonzero(~(g > margin))


def kmeanspp_seed(pts: WeightedPointSet, k: int,
                  rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on a weighted point set.

    The first centroid is sampled with probability proportional to the point
    weight, later ones proportional to weight times squared distance to the
    nearest chosen centroid. With zero total remaining probability the
    leftover centroids are the zero vector (they can never lower the cost of
    any point, so the convention is harmless).

    The squared distances d2 to the nearest chosen centroid are exact
    (_sq_dists), taken a block of rows at a time in one work buffer of
    block_rows(m, n) rows (_block). For each later centroid only the
    points _maybe_nearer returns are gathered, a block at a time, into the
    leading rows of work and recomputed with the same kernel; the rest keep
    d2. The kernel sums each row alone, so d2, and with it every draw and
    centroid, has the bits of np.minimum(d2, _sq_dists(points, c)) over all
    points. No array of n x m entries is allocated.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, m = pts.points.shape
    centroids = np.zeros((k, m))
    if pts.total_weight() == 0:
        return centroids
    work = _block(n, m)
    step = len(work)
    first = _sample_index(pts.weights, rng)
    centroids[0] = pts.points[first]
    d2 = np.empty(n)
    for lo in range(0, n, step):
        block = pts.points[lo:lo + step]
        d2[lo:lo + step] = _sq_dists(block, centroids[0], work[:len(block)])
    norms_sq = np.einsum("nm,nm->n", pts.points, pts.points)
    for j in range(1, k):
        probs = pts.weights * d2
        total = float(probs.sum())
        if total <= 0:
            break  # every point already sits on a centroid
        idx = _sample_index(probs, rng)
        centroids[j] = pts.points[idx]
        c = centroids[j]
        rows = _maybe_nearer(pts.points, norms_sq, c, norms_sq[idx], d2)
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            diff = _gather(pts.points, block, work)
            d2[block] = np.minimum(d2[block], _sq_dists(diff, c, diff))
    return centroids


def lloyd(pts: WeightedPointSet, centroids: np.ndarray,
          config: KMeansConfig) -> KMeansSolution:
    """Weighted Lloyd iterations from the given initial centroids.

    Alternates nearest-centroid assignment and weighted-mean recentering
    until the assignment stops changing, the exact cost does not fall or
    config.max_iters is reached. The cost never increases (up to rounding).
    Assignment is a GEMM plus an exact recomputation of the points it cannot
    certify (see _nearest): each point goes to the centroid at the smallest
    exact squared distance, ties to the smallest index, and a point on a
    centroid is at distance exactly zero. After the first recentering, only
    the centroids that lost or gained a point are recentered again.

    A run allocates one buffer of max(k n, b m) entries, b = block_rows(m,
    n) the rows of a _block. The GEMM writes its (k, n) distances into its
    head; the exact cost and the recentering take the points through all
    of it, as rows of m entries, a block at a time (see _segment_means for
    a cluster larger than that): the distances are dead once _nearest
    returns.
    """
    centroids = np.array(centroids, dtype=np.float64)
    k = len(centroids)
    n, m = pts.points.shape
    buf = np.empty(max(k * n, block_rows(m, n) * m))
    dist = buf[:k * n].reshape(k, n)
    work = buf[:len(buf) // m * m].reshape(-1, m) if m else _block(n, m)
    norms_sq = np.einsum("nm,nm->n", pts.points, pts.points)
    assignment = _nearest(pts.points, norms_sq, centroids, dist)
    prev_cost = _weighted_cost(pts, centroids, assignment, work)
    recompute = None  # the seeds are not means: recenter every row
    for _ in range(config.max_iters):
        _weighted_means(pts.points, pts.weights, assignment, centroids, work,
                        recompute)
        prev_assignment = assignment
        assignment = _nearest(pts.points, norms_sq, centroids, dist)
        cost = _weighted_cost(pts, centroids, assignment, work)
        moved = assignment != prev_assignment
        # An unchanged assignment is a fixed point: every later iteration
        # would recompute these centroids, this assignment and this cost.
        # A cost that did not fall ends the cycles that rounding can start
        # on noiseless inputs.
        stop = not moved.any() or cost >= prev_cost
        prev_cost = cost
        if stop:
            break
        # A centroid whose members stay gathers the same rows in the same
        # order, so recentering it again would give the same bits.
        recompute = np.zeros(k, dtype=bool)
        recompute[prev_assignment[moved]] = True
        recompute[assignment[moved]] = True
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
