"""Double-factor orthogonality: orthogonal columns of A and rows of W.

Pipeline: weighted k-means on the normalized columns (step 1), reduction of
centroid weights for pairs whose angle falls in the ambiguous band
[pi/6, pi/3] (step 2), grouping of the surviving centroids by connected
components of the small-angle graph followed by an exact coordinate-wise
solve for the orthogonal group representatives (step 3). A large-k variant
skips k-means entirely, treating every normalized column as its own
centroid, transposing first when that orientation is cheaper.

Steps 2 and 3 decide on the exact angles of the centroids, as floats: a
float filter on their Gram matrix certifies almost every pair, and the few
it cannot are recomputed in integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from onmf.core import BLOCK_ENTRIES, WeightedPointSet, normalize_columns
from onmf.kmeans import KMeansConfig, KMeansSolution, _weighted_means
from onmf.single import OnmfSolution, _cluster, _solution, _theta_against


class GroupingError(RuntimeError):
    """The grouped centroids violate the angle separation guarantees.

    No step raises it: with exact angle tests the separation is a theorem
    (see group_centroids). It is kept only because the benchmark's
    self-test, perfbench/selftest.py, imports it.
    """


def centroid_weights(pts: WeightedPointSet,
                     sol: KMeansSolution) -> tuple[np.ndarray, np.ndarray]:
    """Total assigned weight per centroid, with recentering.

    Centroids carrying positive weight are replaced by the weighted mean of
    their assigned points (which never increases the k-means cost); the
    recentered centroids then have L2 norm at most 1 and are non-zero.
    """
    centroids = np.array(sol.centroids, dtype=np.float64)
    q = _weighted_means(pts.points, pts.weights, sol.assignment, centroids)
    return centroids, q


# Rows whose computed squared norm lies outside [2^-400, 2^400] have all
# their pairs decided exactly: between these limits nothing in the filter
# overflows and underflow adds a negligible error (see _cos_sq_edges).
_NORM_SQ_RANGE = (2.0**-400, 2.0**400)


def _cos_sq_edges(m: int) -> np.ndarray:
    """Filter edges (1 - t, 1 + t, 3 - t, 3 + t) / 4 for rows of m entries.

    The filter estimates cos^2 of rows x, y by r = fl(fl(fl(G^2) / N_x) / N_y)
    from G = gram[x, y] and N = the Gram diagonal. Each is a sum of m
    products, so with u = eps / 2 and g_m = m u / (1 - m u), in any order of
    summation, |G - x.y| <= g_m sum |x_l y_l| <= g_m |x||y| and
    |N_x - |x|^2| <= g_m |x|^2. Hence G^2 / (|x|^2 |y|^2) is within
    2 g_m + g_m^2 of cos^2 <= 1, and the two norms and the three roundings
    of r scale it by a factor within 2 g_m + 3u + O(u^2) of 1, so
    |r - cos^2| <= 4 g_m + 3u + O(u^2) < (4m + 3) u (1 + 1e-9) for any
    m below 2^40. The edges use t = 16 (m + 1) eps = 32 (m + 1) u, so t / 4
    is at least twice that bound, which also covers the rounding of the
    edges and the subnormal results: for squared norms in _NORM_SQ_RANGE
    they add less than (m + 3) 2^-600 to |r - cos^2|, and nothing overflows.
    Then r <= e0 proves cos^2 < 1/4, e1 < r <= e2 proves 1/4 < cos^2 < 3/4
    and r > e3 proves cos^2 > 3/4; any other r decides nothing.
    """
    t = 16 * (m + 1) * np.finfo(np.float64).eps
    return np.array([1 - t, 1 + t, 3 - t, 3 + t]) / 4


def _exact_row(row: np.ndarray) -> tuple[dict[int, int], int]:
    """The row scaled by a power of two to integers: {index: value} over its
    non-zero entries, and the sum of their squares."""
    idx = np.flatnonzero(row)
    ratios = [v.as_integer_ratio() for v in row[idx].tolist()]
    # Each denominator is a power of two; scale to the largest.
    bits = max((den.bit_length() for _, den in ratios), default=1)
    ints = {i: num << (bits - den.bit_length())
            for i, (num, den) in zip(idx.tolist(), ratios)}
    return ints, sum(v * v for v in ints.values())


def _exact_angle(x: tuple[dict[int, int], int],
                 y: tuple[dict[int, int], int]) -> tuple[bool, bool]:
    """(angle in [pi/6, pi/3], angle below pi/6) for two _exact_row rows.

    With d = x.y and N the squared norms, both scaled by the same powers of
    two, the band is d > 0 and N_x N_y <= 4 d^2 <= 3 N_x N_y, and "below
    pi/6" is d > 0 and 4 d^2 > 3 N_x N_y. A zero row is in neither.
    """
    (a, na), (b, nb) = x, y
    if len(a) > len(b):
        a, b = b, a
    dot = sum(v * b[i] for i, v in a.items() if i in b)
    if dot <= 0:
        return False, False
    four, prod = 4 * dot * dot, na * nb
    return prod <= four <= 3 * prod, four > 3 * prod


def angle_pairs(centroids: np.ndarray, gram: np.ndarray
                ) -> tuple[tuple[np.ndarray, np.ndarray],
                           tuple[np.ndarray, np.ndarray]]:
    """The pairs (j1, j2), j1 < j2, of centroids whose exact angle is in
    [pi/6, pi/3] (band) and below pi/6 (near), each as two index arrays in
    row-major order.

    centroids are finite and non-negative, and gram is centroids @
    centroids.T. The walk takes gram in row blocks of at most BLOCK_ENTRIES
    entries, so it builds no k x k mask. The float filter of _cos_sq_edges
    decides every pair it can; the rest, and every pair of a row outside
    _NORM_SQ_RANGE, are decided by _exact_angle. A zero row is in no pair:
    its estimates are 0/0, NaN, which passes no edge. The indices are int32
    (a k x k gram has k < 2^31), so a pair takes 8 bytes.
    """
    k, m = centroids.shape
    norms_sq = gram.diagonal()
    nonzero = np.max(centroids, axis=1, initial=0.0) > 0
    lo_n, hi_n = _NORM_SQ_RANGE
    odd = nonzero & ~((norms_sq >= lo_n) & (norms_sq <= hi_n))
    any_odd = odd.any()
    e0, e1, e2, e3 = _cos_sq_edges(m)
    exact_rows: dict[int, tuple[dict[int, int], int]] = {}
    band: tuple[list, list] = ([], [])
    near: tuple[list, list] = ([], [])
    step = max(1, BLOCK_ENTRIES // max(k, 1))
    buf = np.empty(min(step, k) * k)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        # r[t, c] estimates cos^2 of centroids lo + t and lo + c.
        r = np.square(gram[lo:hi, lo:],
                      out=buf[:(hi - lo) * (k - lo)].reshape(hi - lo, -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            r /= norms_sq[lo:hi, None]
            r /= norms_sq[lo:]
        if any_odd:  # undecided: goes to the exact test
            r[odd[lo:hi]] = 0.25
            r[:, odd[lo:]] = 0.25
        r[:, :hi - lo][np.tri(hi - lo, dtype=bool)] = 0.0  # j2 <= j1
        in_band = r > e1
        in_band &= r <= e2
        unsure = r > e0
        unsure &= r <= e3
        unsure ^= in_band  # (e0, e1] or (e2, e3]
        found = [np.flatnonzero(in_band), np.flatnonzero(r > e3)]
        unsure = np.flatnonzero(unsure).tolist()
        del in_band
        if unsure:
            exact: tuple[list, list] = ([], [])
            width = k - lo
            for f in unsure:
                j1, j2 = lo + f // width, lo + f % width
                for j in (j1, j2):
                    if j not in exact_rows:
                        exact_rows[j] = _exact_row(centroids[j])
                for hits, hit in zip(exact, _exact_angle(exact_rows[j1],
                                                         exact_rows[j2])):
                    if hit:
                        hits.append(f)
            found = [np.union1d(flat, np.array(hits, dtype=np.int64))
                     for flat, hits in zip(found, exact)]
        for pairs, flat in zip((band, near), found):
            if flat.size:
                t, c = np.divmod(flat, k - lo)
                pairs[0].append((t + lo).astype(np.int32))
                pairs[1].append((c + lo).astype(np.int32))
    return _joined(band), _joined(near)


def _joined(pairs: tuple[list, list]) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.concatenate(p) if p else np.zeros(0, dtype=np.int32)
                 for p in pairs)


def weight_reduction(band: tuple[np.ndarray, np.ndarray],
                     q: np.ndarray) -> np.ndarray:
    """Zero out paired weights of centroids with angle in [pi/6, pi/3].

    band holds the pairs (j1, j2), j1 < j2, whose exact angle is in the
    band, in lexicographic order (angle_pairs). Single pass over them; each
    pair of positive weights decreases both by their minimum, sending at
    least one to zero. One pass suffices because weights never increase.
    """
    qp = np.array(q, dtype=np.float64).tolist()  # Python floats index faster
    # The pairs go through as Python ints a few thousand at a time, so
    # their lists stay near 300 KB however many pairs there are.
    step = BLOCK_ENTRIES // 8
    for lo in range(0, len(band[0]), step):
        for j1, j2 in zip(band[0][lo:lo + step].tolist(),
                          band[1][lo:lo + step].tolist()):
            if qp[j1] <= 0 or qp[j2] <= 0:
                continue
            d = min(qp[j1], qp[j2])
            qp[j1] -= d
            qp[j2] -= d
    return np.array(qp, dtype=np.float64)


def group_centroids(near: tuple[np.ndarray, np.ndarray],
                    q_reduced: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Group the surviving centroids by connected small-angle components.

    near holds the pairs of centroids whose exact angle is below pi/6
    (angle_pairs), and gram the centroids' Gram matrix. Positive-weight
    centroids are joined along the near pairs between them; the connected
    components of that graph are the groups, numbered in order of their
    smallest member.

    After weight_reduction no two positive centroids have an angle in
    [pi/6, pi/3], so within a group every angle is below pi/6 and across
    groups every angle is above pi/3: along a path of angles below pi/6 the
    first and third centroids are less than pi/3 apart (the triangle
    inequality of angles), hence less than pi/6, and by induction so are
    the ends. Two centroids in different groups are not near, so with the
    band empty they are more than pi/3 apart.

    A zero-weight centroid i joins the group of the positive centroid j
    with the largest gram[i, j] / sqrt(gram[j, j]) (the nearest in angle,
    up to rounding), ties toward the smallest index, so a zero centroid goes
    to the first positive one; with no positive-weight centroid at all
    everything maps to group 0.
    """
    k = len(q_reduced)
    sigma = np.zeros(k, dtype=np.int64)
    is_positive = q_reduced > 0
    positive = np.flatnonzero(is_positive)
    if positive.size == 0:
        return sigma
    src, dst = near
    keep = is_positive[src] & is_positive[dst]
    if not keep.all():
        src, dst = src[keep], dst[keep]

    # Connected components by min-label propagation: each step takes the
    # smallest label among a node and its neighbours, then replaces every
    # label by the label of the node it names. Labels never rise, never
    # exceed their node's index and stay inside the component, so the fixed
    # point labels each node with its component's smallest member.
    labels = np.arange(k, dtype=src.dtype)
    while True:
        prev = labels.copy()
        np.minimum.at(labels, src, prev[dst])
        np.minimum.at(labels, dst, prev[src])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    sigma[positive] = np.unique(labels[positive], return_inverse=True)[1]

    # Extend to zero-weight centroids, in row blocks of the Gram matrix. A
    # positive centroid of zero norm scores 0 against every centroid.
    zero = np.flatnonzero(~is_positive)
    scale = np.sqrt(gram.diagonal()[positive])
    scale[scale == 0] = 1.0
    step = max(1, BLOCK_ENTRIES // positive.size)
    for lo in range(0, zero.size, step):
        rows = zero[lo:lo + step]
        scores = gram[np.ix_(rows, positive)]
        scores /= scale
        sigma[rows] = sigma[positive[np.argmax(scores, axis=1)]]
    return sigma


def solve_orthogonal_centroids(centroids: np.ndarray, q_reduced: np.ndarray,
                               sigma: np.ndarray) -> np.ndarray:
    """Exact coordinate-wise solve for orthogonal group representatives.

    Minimizes the reduced-weight squared distance of each centroid to its
    group's representative subject to the representatives being non-negative
    with pairwise disjoint supports. Per coordinate the winning group is the
    one maximizing (group weight) * (group mean)^2, ties toward the smallest
    group index; it receives the group mean, all others zero.

    Returns an (m, k) matrix whose column s is the representative of group s
    (columns for absent groups stay zero). The group means are freed before
    it is allocated.
    """
    k, m = centroids.shape
    n_groups = int(sigma.max()) + 1 if k else 0
    mu = np.zeros((n_groups, m))
    qstar = _weighted_means(centroids, q_reduced,
                            np.where(q_reduced > 0, sigma, -1), mu)
    if n_groups == 0 or not (qstar > 0).any():
        return np.zeros((m, k))
    # The scores of a chunk of coordinates, (coordinates, n_groups) and
    # C-ordered, so the row-wise argmax reads them in place.
    winners = np.empty(m, dtype=np.int64)
    step = max(1, BLOCK_ENTRIES // n_groups)
    buf = np.empty((min(step, m), n_groups))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        scores = np.multiply(mu.T[lo:hi], mu.T[lo:hi], out=buf[:hi - lo])
        scores *= qstar
        # argmax takes the smallest index on ties
        winners[lo:hi] = np.argmax(scores, axis=1)
    cols = np.arange(m)
    values = mu[winners, cols]
    del mu
    a = np.zeros((m, k))
    a[cols, winners] = values
    return a


def _finish(M: np.ndarray, centroids: np.ndarray, q: np.ndarray,
            phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps 2-3 and the scale fit; returns the factors (a, group, theta).

    Reduction and grouping share one Gram matrix, freed before the solve.
    Every centroid row has norm at most 1 (a unit column, or a weighted
    mean of unit points), so no entry of it overflows.
    """
    gram = centroids @ centroids.T
    band, near = angle_pairs(centroids, gram)
    qp = weight_reduction(band, q)
    sigma = group_centroids(near, qp, gram)
    del gram, band, near
    a = solve_orthogonal_centroids(centroids, qp, sigma)
    group = sigma[phi]
    return a, group, _theta_against(M, a, group)


def factorize_double(M, k: int, config: KMeansConfig | None = None) -> OnmfSolution:
    """Factorize with both factors orthogonal, for arbitrary inner dimension."""
    M, pts, sol = _cluster(M, k, config)
    centroids, q = centroid_weights(pts, sol)
    return _solution(M, *_finish(M, centroids, q, sol.assignment))


def factorize_double_large_k(M) -> OnmfSolution:
    """Double-orthogonal factorization with inner dimension min(m, n).

    Skips k-means: every normalized column is its own centroid with its own
    weight. Works on the transpose when 0 < m < n (the objective is
    symmetric under transposition) and transposes the result back. With no
    rows (m = 0) nothing is transposed and the inner dimension is n.
    """
    M = np.asarray(M, dtype=np.float64)
    return _solution(M, *_large_k(M))


def _large_k(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors (a, group, theta) of factorize_double_large_k, no objective.

    normalize_columns makes the one check of M. When 0 < m < n this solves
    M^T ~ A2 @ W2, freeing its unit columns on return, and converts it to
    M ~ W2^T @ A2^T: A2's columns have disjoint supports, so A2^T has at
    most one non-zero per column."""
    if M.ndim == 2 and 0 < M.shape[0] < M.shape[1]:
        a2, group2, theta2 = _large_k(M.T)  # a2 is (n, k)
        group = np.argmax(a2 > 0, axis=1)  # an all-zero row: group 0
        a = np.zeros((len(group2), a2.shape[1]))  # W2^T
        a[np.arange(len(group2)), group2] = theta2
        return a, group, a2[np.arange(len(group)), group]
    pts = normalize_columns(M)
    return _finish(M, pts.points, pts.weights, np.arange(len(pts)))
