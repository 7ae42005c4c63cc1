"""Double-factor orthogonality: orthogonal columns of A and rows of W.

Pipeline: weighted k-means on the normalized columns (step 1), reduction of
centroid weights for pairs whose angle falls in the ambiguous band
[pi/6, pi/3] (step 2), grouping of the surviving centroids into cliques of
the small-angle graph, followed by an exact coordinate-wise solve for the
orthogonal group representatives (step 3). A large-k variant skips k-means
entirely, treating every normalized column as its own centroid,
transposing first when that orientation is cheaper.

Steps 2 and 3 decide on the exact angles of the centroids, as floats, in
one walk of their Gram matrix that computes it a GEMM row block at a time,
so no k x k array is built and no list of pairs is kept: a float filter
certifies almost every pair, and the few it cannot are recomputed in
integer arithmetic. On 0/1 labels, as bcc_cluster passes them, the
large-k steps take a float32 copy of the label columns, whose products are
their exact overlap counts, in place of the unit columns.
"""

from __future__ import annotations

import numpy as np

from onmf.core import (
    CompactW,
    WeightedPointSet,
    block_rows,
    normalize_columns,
)
from onmf.kmeans import (
    KMeansConfig,
    KMeansSolution,
    _block,
    _segment_means,
    _segments,
    _weighted_means,
)
from onmf.single import OnmfSolution, _cluster, _fit_theta, _solution

# The most rows whose 0/1 overlaps a float32 GEMM counts exactly: every
# partial sum is an integer of at most 24 bits. Longer columns are counted
# in float64.
_FLOAT32_COUNT_ROWS = 1 << 24

# About the fewest rows a GEMM block of the Gram matrix takes (see
# _gram_rows). At k = 3000 the walk's sub-blocks, block_rows(k), are 10 rows,
# and 20-row products took 0.53 s against 0.33 s for blocks of 120 to 250
# rows.
_GEMM_ROWS = 128


class GroupingError(RuntimeError):
    """Never raised: group_centroids proves its groups separated. Kept only
    because the benchmark's self-test, perfbench/selftest.py, imports it."""


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


def _cos_sq_edges(m: int) -> np.ndarray:
    """Filter edges (1 - t, 1 + t, 3 - t, 3 + t) / 4 for rows of m entries.

    The filter estimates cos^2 of rows x, y by
    r = fl(fl(fl(G^2) fl(1 / N_x)) fl(1 / N_y)) from G = gram[x, y] and
    N = the Gram diagonal. Each is a sum of m products, so with u = eps / 2
    and g_m = m u / (1 - m u), in any order of summation,
    |G - x.y| <= g_m sum |x_l y_l| <= g_m |x||y| and
    |N_x - |x|^2| <= g_m |x|^2. Hence G^2 / (|x|^2 |y|^2) is within
    2 g_m + g_m^2 of cos^2 <= 1, and the two norms and the five roundings
    of r (the square, two reciprocals, two products) scale it by a factor
    F with |F - 1| <= (1 - g_m)^-2 (1 + u)^5 - 1, so |r - cos^2| <=
    (2 g_m + g_m^2) F + |F - 1| < (4m + 5) u (1 + 2^-10) for any m below
    2^40 (checked in exact rationals). The edges use t = 16 (m + 1) eps =
    32 (m + 1) u, and t / 4 = 8 (m + 1) u exceeds that bound by more than
    2u. The slack covers the rounding of the edges, at most u / 2 (t is
    exact, 1 +- t rounds by at most u, 3 +- t by 2u, and / 4 is exact), and
    the subnormal results: for squared norms in [2^-400, 2^400] the
    reciprocals are normal, nothing overflows, and underflowed products add
    less than 2^-273 to |r - cos^2| (2^-1075 in fl(G^2), times reciprocals
    of at most 2^400 each, and far less from the sums). Then r <= e0 proves
    cos^2 < 1/4, e1 < r <= e2 proves 1/4 < cos^2 < 3/4 and r > e3 proves
    cos^2 > 3/4; any other r decides nothing, and NaN passes no edge.

    The rows _finish passes keep inside those limits: each is zero, or a
    unit column or a weighted mean of unit columns, whose squared norm lies
    between about 1/(2m) and 2m (its rounding included).
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
                 y: tuple[dict[int, int], int]) -> bool:
    """Whether two _exact_row rows are at an angle in [pi/6, pi/3].

    With d = x.y and N the squared norms, both scaled by the same powers of
    two, that is d > 0 and N_x N_y <= 4 d^2 <= 3 N_x N_y. A zero row is in
    no such pair.
    """
    (a, na), (b, nb) = x, y
    if len(a) > len(b):
        a, b = b, a
    dot = sum(v * b[i] for i, v in a.items() if i in b)
    four, prod = 4 * dot * dot, na * nb
    return dot > 0 and prod <= four <= 3 * prod


def _gram_rows(k: int) -> tuple[int, int]:
    """Rows of a sub-block of a k x k Gram matrix, block_rows(k), and of a
    GEMM block: the most whole sub-blocks in _GEMM_ROWS rows, or one."""
    step = block_rows(k)
    return step, step * max(1, _GEMM_ROWS // step)


def weight_reduction(centroids: np.ndarray, q: np.ndarray,
                     norms_sq: np.ndarray, leader: np.ndarray) -> np.ndarray:
    """Zero out paired weights of centroids with angle in [pi/6, pi/3], and
    write each centroid's group leader into leader (k entries, int64).

    centroids are finite and non-negative, and norms_sq holds their squared
    norms, the diagonal of their Gram matrix, summed in any order. Every
    row is either zero with weight 0, or a unit column or a weighted mean
    of unit columns, as in _finish: its squared norm is then between about
    1/(2m) and 2m, well inside the [2^-400, 2^400] that the filter of
    _cos_sq_edges needs. Or the rows are 0/1 label columns as float32 or
    float64, as in _finish: their products are then exact overlap counts,
    the squared norms are column counts, at most m, and every angle is that
    of the unit columns.

    The pairs (j1, j2), j1 < j2, whose exact angle is in the band go in
    row-major order; each pair of positive weights decreases both by their
    minimum, sending at least one to zero. One pass suffices because weights
    never increase, and the rest of a row's pairs is skipped once its own
    weight is zero. The walk computes the upper triangle of the Gram matrix
    a GEMM block of _gram_rows(k)[1] rows at a time, as centroids[lo:hi] @
    centroids[lo:].T, and takes each block in sub-blocks of block_rows(k)
    rows, so it builds no k x k array and no list of pairs: the filter
    decides every pair it can, _exact_angle the rest, and the sub-block's
    band pairs are reduced at once. A zero row is in no
    pair: its estimates are 0 inf = NaN, which passes no edge.

    A pair changes only the weights of rows at or after its j1, so once its
    sub-block is done a row's weight is final. The sub-block then sets
    leader[j], for each column j, to the smallest positive row i < j with
    r > e2, if any (else leader[j] = j). For a positive j that is the
    smallest positive centroid less than pi/6 from j, with no exact test:
    once the reduction is done no two positive centroids are in the band,
    so their cos^2 is below 1/4 or above 3/4, and r is within t/4 of it
    (_cos_sq_edges).
    """
    k, m = centroids.shape
    with np.errstate(divide="ignore"):  # a zero row's is inf
        inv = np.divide(1.0, norms_sq, dtype=np.float64)
    e0, e1, e2, e3 = _cos_sq_edges(m)
    exact_rows: dict[int, tuple[dict[int, int], int]] = {}
    qp = np.array(q, dtype=np.float64).tolist()  # Python floats index faster
    leader[:] = np.arange(k)
    step, gemm = _gram_rows(k)
    # The band pairs go through as Python ints a few thousand at a time, so
    # their lists stay near 300 KB however many pairs a block holds.
    chunk = block_rows(8)
    buf = np.empty(min(step, k) * k)
    for lo in range(0, k, step):
        if lo % gemm == 0:  # the next GEMM block, once the last is freed
            top, gram = lo, None
            gram = centroids[lo:lo + gemm] @ centroids[lo:].T
        hi = min(lo + step, k)
        width = k - lo
        # r[t, c] estimates cos^2 of centroids lo + t and lo + c.
        r = buf[:(hi - lo) * width].reshape(hi - lo, -1)
        np.copyto(r, gram[lo - top:hi - top, lo - top:])
        np.multiply(r, r, out=r)
        with np.errstate(invalid="ignore"):  # 0 inf, NaN, for a zero row
            r *= inv[lo:hi, None]
            r *= inv[lo:]
        r[:, :hi - lo][np.tri(hi - lo, dtype=bool)] = 0.0  # j2 <= j1
        # Only the pairs above e0 may be in the band or near; flat holds
        # them in row-major order, as index t * width + c of r.
        flat = np.flatnonzero(r > e0)
        est = r.ravel()[flat]
        in_band = est > e1
        in_band &= est <= e2
        unsure = est <= e3
        unsure ^= in_band  # (e0, e1] or (e2, e3]
        for f in np.flatnonzero(unsure).tolist():
            t, c = divmod(int(flat[f]), width)
            j1, j2 = lo + t, lo + c
            for j in (j1, j2):
                if j not in exact_rows:
                    exact_rows[j] = _exact_row(centroids[j])
            in_band[f] = _exact_angle(exact_rows[j1], exact_rows[j2])
        band = flat[in_band]
        for s in range(0, band.size, chunk):
            t, c = np.divmod(band[s:s + chunk], width)
            heads = np.flatnonzero(np.diff(t, prepend=-1))  # row starts
            rows = (t[heads] + lo).tolist()
            bounds = heads.tolist() + [len(t)]
            c = (c + lo).tolist()
            for j1, start, end in zip(rows, bounds, bounds[1:]):
                # Row j1's pairs go in order until its weight is zero: it
                # never increases, so no later pair of the row changes one.
                if qp[j1] <= 0:
                    continue
                for j2 in c[start:end]:
                    if qp[j2] > 0:
                        d = min(qp[j1], qp[j2])
                        qp[j1] -= d
                        qp[j2] -= d
                        if qp[j1] <= 0:
                            break
        # Above e2 from a positive row: near, if the column stays positive.
        t, c = np.divmod(flat[est > e2], width)
        near = (np.array(qp[lo:hi]) > 0)[t]
        np.minimum.at(leader, c[near] + lo, t[near] + lo)
    return np.array(qp, dtype=np.float64)


def group_centroids(leader: np.ndarray, q_reduced: np.ndarray,
                    centroids: np.ndarray,
                    norms_sq: np.ndarray) -> np.ndarray:
    """Group the surviving centroids into cliques of small-angle pairs.

    leader and q_reduced are what weight_reduction left, and centroids and
    norms_sq what it took, as in _finish. The groups are the cliques of
    pairs less than pi/6 apart among the positive-weight centroids,
    numbered in order of their smallest member.

    After weight_reduction no two positive centroids are at an angle in
    [pi/6, pi/3], so nearness is transitive among them: if a, b and b, c
    are less than pi/6 apart, a and c are less than pi/3 apart (the
    triangle inequality of angles), hence less than pi/6. So each group is
    a clique, and the leader of each positive member, the smallest positive
    centroid less than pi/6 from it or else itself, is the group's smallest
    member. Two centroids in different groups are neither near nor in the
    band, so they are more than pi/3 apart.

    A zero-weight centroid i joins the group of the positive centroid j
    with the largest score G_ij / sqrt(norms_sq[j]), G_ij = centroids[i] .
    centroids[j] (the nearest in angle, up to rounding), ties toward the
    smallest index, so a zero centroid goes to the first positive one; with
    no positive-weight centroid at all everything maps to group 0. On 0/1
    label rows (see _finish) the score is D / sqrt(c) in float64, with D
    the overlap of i and j and c the count of j. As on unit columns,
    rounding may break an exact tie of angles. The scores come from GEMM
    blocks of _gram_rows(k)[1] rows of the smaller side, zero or positive,
    against all centroids, so their cost follows min(|zero|, |positive|)
    k m; across blocks of positive rows a best score is replaced only by a
    strictly greater one, so ties still go to the smallest index.
    """
    k = len(q_reduced)
    sigma = np.zeros(k, dtype=np.int64)
    is_positive = q_reduced > 0
    positive = np.flatnonzero(is_positive)
    zero = np.flatnonzero(~is_positive)
    if positive.size == 0:
        return sigma
    sigma[positive] = np.unique(leader[positive], return_inverse=True)[1]
    if zero.size == 0:
        return sigma

    # A positive-weight centroid is never zero (see weight_reduction): no
    # scale is 0.
    scale = np.sqrt(norms_sq[positive], dtype=np.float64)
    gemm = _gram_rows(k)[1]
    if zero.size <= positive.size:
        for lo in range(0, zero.size, gemm):
            block = zero[lo:lo + gemm]
            scores = (centroids[block] @ centroids.T)[:, positive] / scale
            sigma[block] = sigma[positive[np.argmax(scores, axis=1)]]
            del scores
        return sigma
    best = np.full(zero.size, -np.inf)
    nearest = np.zeros(zero.size, dtype=np.int64)  # places in positive
    for lo in range(0, positive.size, gemm):
        block = positive[lo:lo + gemm]
        scores = ((centroids[block] @ centroids.T)[:, zero]
                  / scale[lo:lo + gemm, None])
        top = np.argmax(scores, axis=0)
        score = scores[top, np.arange(zero.size)]
        better = score > best
        best[better] = score[better]
        nearest[better] = top[better] + lo
        del scores
    sigma[zero] = sigma[positive[nearest]]
    return sigma


def solve_orthogonal_centroids(centroids: np.ndarray, q_reduced: np.ndarray,
                               sigma: np.ndarray,
                               norms: np.ndarray | None = None) -> CompactW:
    """Exact coordinate-wise solve for orthogonal group representatives.

    Minimizes the reduced-weight squared distance of each centroid to its
    group's representative subject to the representatives being non-negative
    with pairwise disjoint supports. Per coordinate the winning group is the
    one maximizing (group weight) * (group mean)^2, ties toward the smallest
    group index; it receives the group mean, all others zero.

    Returns the (m, k) factor A as its transpose At = CompactW(k, owner,
    value): column s of A is the representative of group s, and row r of A
    holds value[r] in column owner[r] and zeros elsewhere (_dense builds A).
    A positive score needs a non-zero mean, and a coordinate where every
    score is 0 goes to group 0, so every row with value 0 has owner 0. The
    group means are taken block_rows(m) groups at a time, from one sort of
    the labels, and each coordinate keeps the best score so far, replaced
    only by a strictly greater one, so the smallest group still wins a tie.

    With norms, centroids are 0/1 label columns (bool, see _finish), and
    only groups of two or more members take means, gathered from them and
    divided by their norms: the bits of their unit columns. A one-member
    group g, member j of weight q, has the mean c = ((1 / norm_j) q + 0.0)
    / q where column j has a 1 and 0 elsewhere, so it scores one scalar
    s_g = (c c) q. Sorted by (s desc, g asc), the first with a 1 at a
    coordinate is their winner there, found in blocks of block_rows(m)
    bool columns; it beats the means' best by a greater score, or an equal
    one and a smaller group. A coordinate where every score is 0 goes to
    group 0 with value 0, the float rule wherever no score underflows.
    """
    k, m = centroids.shape
    n_groups = int(sigma.max()) + 1 if k else 0
    owner = np.zeros(m, dtype=np.int64)
    value = np.zeros(m)
    live = q_reduced > 0
    sizes = np.bincount(sigma[live], minlength=n_groups)
    means = np.arange(n_groups) if norms is None else np.flatnonzero(sizes > 1)
    rank = np.full(n_groups, -1)
    rank[means] = np.arange(len(means))  # the groups that take means, packed
    order, bounds = _segments(np.where(live, rank[sigma], -1), len(means))
    weights = q_reduced[order]
    best = np.full(m, -np.inf if norms is None else 0.0)  # scores are >= 0
    step = block_rows(m)
    size = min(step, len(means)) * m
    mu_buf, score_buf, work = np.empty(size), np.empty(size), _block(k, m)
    for lo in range(0, len(means), step):
        hi = min(lo + step, len(means))
        mu = mu_buf[:(hi - lo) * m].reshape(hi - lo, m)
        qstar = _segment_means(centroids, weights, order, bounds[lo:hi + 1],
                               mu, work, norms=norms)
        mu[~(qstar > 0)] = 0.0  # rows it left as they were: no mean, 0
        scores = np.multiply(mu, mu, out=score_buf[:mu.size].reshape(mu.shape))
        scores *= qstar[:, None]
        # Only the coordinates this block betters need its argmax, which
        # takes the smallest index on ties.
        better = np.flatnonzero(scores.max(axis=0) > best)
        winners = np.argmax(scores[:, better], axis=0)
        best[better] = scores[winners, better]
        owner[better] = means[winners + lo]
        value[better] = mu[winners, better]
    if norms is None:
        return CompactW(k, owner, value)
    one = np.flatnonzero(live & (sizes[sigma] == 1))
    q, g = q_reduced[one], sigma[one]
    c = (1.0 / norms[one] * q + 0.0) / q  # the mean, as _segment_means'
    s = c * c * q
    by = np.lexsort((g, -s))  # best first, ties to the smaller group
    one, g, c, s = one[by], g[by], c[by], s[by]
    first = np.full(m, -1)  # each coordinate's winner, as a place in one
    for lo in range(0, len(one), step):
        block = centroids.T[:, one[lo:lo + step]]  # (m, b) bool
        hit = np.argmax(block, axis=1)  # the first 1, or 0 if none
        new = block[np.arange(m), hit] & (first < 0)
        first[new] = hit[new] + lo
        if (first >= 0).all():
            break
    r = np.flatnonzero(first >= 0)
    f = first[r]
    wins = (s[f] > best[r]) | ((s[f] == best[r]) & (g[f] < owner[r]))
    owner[r[wins]] = g[f[wins]]
    value[r[wins]] = c[f[wins]]
    return CompactW(k, owner, value)


def _dense(at: CompactW) -> np.ndarray:
    """The C-ordered (m, k) factor A of its compact transpose at: row r
    holds at.theta[r] in column at.group[r], zeros elsewhere."""
    a = np.zeros((at.n, at.k))
    if at.k:
        a[np.arange(at.n), at.group] = at.theta
    return a


def _finish(M: np.ndarray, centroids: np.ndarray, q: np.ndarray,
            phi: np.ndarray, counts: np.ndarray | None = None
            ) -> tuple[CompactW, CompactW]:
    """Steps 2-3 and the scale fit; returns the factors (At, W), At the
    transpose of A as solve_orthogonal_centroids returns it.

    Reduction and grouping share the GEMM operand X, the squared norms of
    its rows and the leaders that the reduction writes, all freed before
    the solve. Each step computes the blocks of X's Gram matrix it reads,
    so no k x k array is built. _fit_theta gathers the columns of A it
    needs from the compact factor, so no (m, k) array is built here.
    Every centroid row has norm at most 1 (a unit column, or a weighted
    mean of unit points), so no entry of it overflows; X is the centroids
    themselves, and the squared norms one row-wise sum. With counts, the
    centroids are instead 0/1 label columns (bool) with counts[j] ones in
    row j, standing for the unit columns centroids / norms, norms =
    sqrt(counts), and X is their float32 copy, whose products are their
    exact overlap counts, the squared norms being counts: the steps decide
    on angles, which are scale-invariant, and the solve divides what it
    gathers by the norms.
    """
    X, norms_sq, norms = centroids, counts, None
    if counts is None:
        norms_sq = np.einsum("ij,ij->i", X, X)
    else:  # integer counts, exact in float32 (see top)
        X = centroids.astype(np.float32 if centroids.shape[1]
                             <= _FLOAT32_COUNT_ROWS else np.float64)
        norms = np.sqrt(counts)
    leader = np.empty(len(q), dtype=np.int64)
    qp = weight_reduction(X, q, norms_sq, leader)
    sigma = group_centroids(leader, qp, X, norms_sq)
    del X, norms_sq, leader
    at = solve_orthogonal_centroids(centroids, qp, sigma, norms)
    group = sigma[phi]
    return at, CompactW(at.k, group, _fit_theta(M, group, at))


def factorize_double(M, k: int, config: KMeansConfig | None = None) -> OnmfSolution:
    """Factorize with both factors orthogonal, for arbitrary inner dimension."""
    M, pts, sol = _cluster(M, k, config)
    centroids, q = centroid_weights(pts, sol)
    del pts  # the unit columns, as large as M: free them before steps 2-3
    at, w = _finish(M, centroids, q, sol.assignment)
    return _solution(M, _dense(at), w)


def factorize_double_large_k(M) -> OnmfSolution:
    """Double-orthogonal factorization with inner dimension min(m, n).

    Skips k-means: every normalized column is its own centroid with its own
    weight. Works on the transpose when 0 < m < n (the objective is
    symmetric under transposition) and transposes the result back. With no
    rows (m = 0) nothing is transposed and the inner dimension is n.
    """
    M = np.asarray(M, dtype=np.float64, order="C")  # bits follow values only
    at, w = _large_k(M)
    return _solution(M, _dense(at), w)


def _large_k(M: np.ndarray) -> tuple[CompactW, CompactW]:
    """The factors (At, W) of factorize_double_large_k, no objective, At
    the transpose of A as solve_orthogonal_centroids returns it.

    normalize_columns makes the one check of M. When 0 < m < n this solves
    M^T ~ A2 @ W2, freeing its unit columns on return, and swaps it to
    M ~ W2^T @ A2^T: At is W2 and W is At2, neither built densely. Each
    zero-theta column of At2 is in group 0 (see solve_orthogonal_centroids),
    where the argmax of A2's zero row puts it.

    M may be bool, as bcc_cluster passes its labels. The steps then take
    its columns, the weights fl(fl(sqrt(c))^2) from the column counts c,
    which are normalize_columns' bits, and a float32 copy of the columns
    whose products are their exact overlap counts (see _finish), with no
    float64 unit columns."""
    if M.ndim == 2 and 0 < M.shape[0] < M.shape[1]:
        at2, w2 = _large_k(M.T)
        return w2, at2
    if M.dtype == bool:
        counts = np.count_nonzero(M, axis=0)
        return _finish(M, M.T, np.sqrt(counts)**2, np.arange(len(counts)),
                       counts)
    pts = normalize_columns(M)
    return _finish(M, pts.points, pts.weights, np.arange(len(pts)))
