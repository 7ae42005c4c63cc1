"""Brute-force oracles, angle helpers and reference copies for the tests.

Each oracle enumerates every feasible solution, so the instance-size guards
keep the enumeration small. They reuse the solver's own recentering, cost and
solution epilogue, so a ratio test compares like with like. The angle helpers
and the large-k constant state the paper's guarantees directly.

The reference_* functions are verbatim copies of library steps as they were
before they wrote into reused buffers, dropped a mask, stopped early or took
a certified fast path: each allocates its temporaries afresh and takes the
slow path. _distances_sq is the (n, k, m) exact distance kernel that k-means
assignment once used, kept here alone, so the differential tests of the
assignment share no code with what they check. The differential tests
require the library's outputs to equal theirs byte for byte; the float
angle tests of reference_weight_reduction and reference_group_centroids
only where no pair is near an edge of the band. exact_cos_sq and angle_separation_violations state the exact angle
tests and the grouping guarantee in rational arithmetic. planted_stat
states the planted noise statistics the synthetic tests check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from onmf.bcc import BipartiteLabeling, Clustering, disagreements
from onmf.core import (
    CompactW,
    _csv_lines,
    WeightedPointSet,
    as_matrix,
    check_nonneg,
    frobenius_norm_sq,
)
from onmf.double import GroupingError
from onmf.kmeans import (
    KMeansConfig,
    KMeansSolution,
    _sample_index,
    _weighted_means,
)
from onmf.single import OnmfSolution, _solution

# sin^2(pi/12) = (1 - cos(pi/6)) / 2, the constant in the double-factor
# approximation guarantees.
SIN_SQ_PI_12 = (2.0 - math.sqrt(3.0)) / 4.0

# cos(pi/6) and cos(pi/3): the float references test the angle band
# [pi/6, pi/3] as the cosines in [COS_WIDE, COS_NARROW], inclusive.
COS_NARROW = math.sqrt(3.0) / 2.0
COS_WIDE = 0.5


def cos_angle(x, y) -> float:
    """Cosine of the angle between two non-zero non-negative vectors.

    Clamped to [0, 1] so that arccos never sees a value slightly above 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angle is undefined for the zero vector")
    c = float(np.dot(x, y) / (nx * ny))
    return min(max(c, 0.0), 1.0)


def angle(x, y) -> float:
    """Angle in [0, pi/2] between two non-zero non-negative vectors."""
    return math.acos(cos_angle(x, y))


def rank_one_fit(S: np.ndarray, max_iters: int = 1000,
                 tol: float = 1e-12) -> tuple[float, np.ndarray, np.ndarray]:
    """Leading singular triple of a non-negative matrix by power iteration.

    Returns (sigma^2, u, v) with u a unit non-negative left singular vector
    and v = S^T u, so u @ v.T is the best rank-1 approximation. For
    non-negative S the leading pair is entrywise non-negative
    (Perron-Frobenius), enforced by taking absolute values of the iterate.
    """
    S = np.asarray(S, dtype=np.float64)
    m, n = S.shape
    if not S.any():
        return 0.0, np.zeros(m), np.zeros(n)
    u = np.full(m, 1.0 / np.sqrt(m))
    prev = 0.0
    sigma_sq = 0.0
    for _ in range(max_iters):
        z = S @ (S.T @ u)
        norm = np.linalg.norm(z)
        if norm == 0:
            break
        u = np.abs(z) / norm
        v = S.T @ u
        sigma_sq = float(v @ v)
        if abs(sigma_sq - prev) <= tol * max(sigma_sq, 1e-300):
            break
        prev = sigma_sq
    return sigma_sq, u, S.T @ u


def _subset_cost(pts: WeightedPointSet, mask: int, cache: dict) -> float:
    # Optimal single-cluster cost for the points in the bitmask, via the
    # center-of-mass identity: sum l_i ||x_i||^2 - ||sum l_i x_i||^2 / L.
    hit = cache.get(mask)
    if hit is not None:
        return hit
    idx = [i for i in range(len(pts)) if mask >> i & 1]
    w = pts.weights[idx]
    x = pts.points[idx]
    total = float(w.sum())
    if total == 0:
        cost = 0.0
    else:
        s = w @ x
        cost = float(np.sum(w * np.einsum("nm,nm->n", x, x)) - s @ s / total)
        cost = max(cost, 0.0)
    cache[mask] = cost
    return cost


def brute_force_kmeans(pts: WeightedPointSet, k: int) -> KMeansSolution:
    """Exact optimum by enumerating every assignment."""
    n, m = pts.points.shape
    if k**n > 10**7:
        raise ValueError("instance too large for brute force")
    cache: dict = {}
    best_cost = np.inf
    best_assign: tuple[int, ...] | None = None
    for assign in itertools.product(range(k), repeat=n):
        masks = [0] * k
        for i, j in enumerate(assign):
            masks[j] |= 1 << i
        cost = sum(_subset_cost(pts, msk, cache) for msk in masks if msk)
        if cost < best_cost:
            best_cost = cost
            best_assign = assign
    assert best_assign is not None
    assignment = np.array(best_assign, dtype=np.int64)
    centroids = np.zeros((k, m))
    _weighted_means(pts.points, pts.weights, assignment, centroids)
    return KMeansSolution(centroids=centroids, assignment=assignment,
                          cost=reference_weighted_cost(pts, centroids,
                                                       assignment))


def brute_force_single(M, k: int) -> OnmfSolution:
    """Exact optimum over all column-to-cluster assignments.

    Per cluster the best contribution is the rank-1 fit of the cluster
    submatrix, so the objective of an assignment is the total squared norm
    minus the sum of leading squared singular values of its clusters.
    """
    M = check_nonneg(M)
    m, n = M.shape
    if k**n > 10**6:
        raise ValueError("instance too large for brute force")
    cache: dict[int, float] = {}

    def cluster_gain(mask: int) -> float:
        hit = cache.get(mask)
        if hit is not None:
            return hit
        idx = [i for i in range(n) if mask >> i & 1]
        sigma_sq, _, _ = rank_one_fit(M[:, idx])
        cache[mask] = sigma_sq
        return sigma_sq

    best_gain = -1.0
    best_assign: tuple[int, ...] | None = None
    for assign in itertools.product(range(k), repeat=n):
        masks = [0] * k
        for i, j in enumerate(assign):
            masks[j] |= 1 << i
        gain = sum(cluster_gain(msk) for msk in masks if msk)
        if gain > best_gain:
            best_gain = gain
            best_assign = assign
    assert best_assign is not None

    group = np.array(best_assign, dtype=np.int64)
    a = np.zeros((m, k))
    for j in range(k):
        idx = np.flatnonzero(group == j)
        if idx.size:
            _, u, _ = rank_one_fit(M[:, idx])
            a[:, j] = u
    return _solution(M, a, CompactW(k, group, reference_theta(M, a, group)))


def brute_force_double(M, k: int) -> float:
    """Exact double-orthogonal optimum for tiny matrices.

    A feasible solution is a family of at most k blocks with pairwise
    disjoint row sets and pairwise disjoint column sets, each fitted by its
    best rank-1 approximation; the objective is the total squared norm minus
    the leading squared singular values of the chosen blocks. Enumerates all
    block families by subset recursion with memoization.
    """
    M = check_nonneg(M)
    m, n = M.shape
    if m > 5 or n > 5:
        raise ValueError("instance too large for brute force")
    total_sq = frobenius_norm_sq(M)

    sigma_cache: dict[tuple[int, int], float] = {}

    def sigma_sq(rmask: int, cmask: int) -> float:
        key = (rmask, cmask)
        hit = sigma_cache.get(key)
        if hit is not None:
            return hit
        rows = [i for i in range(m) if rmask >> i & 1]
        cols = [j for j in range(n) if cmask >> j & 1]
        val, _, _ = rank_one_fit(M[np.ix_(rows, cols)])
        sigma_cache[key] = val
        return val

    best_cache: dict[tuple[int, int, int], float] = {}

    def best(rmask: int, cmask: int, blocks: int) -> float:
        if rmask == 0 or cmask == 0 or blocks == 0:
            return 0.0
        key = (rmask, cmask, blocks)
        hit = best_cache.get(key)
        if hit is not None:
            return hit
        low = rmask & -rmask
        # Option: the lowest remaining row joins no block.
        result = best(rmask ^ low, cmask, blocks)
        # Option: it anchors a block with rows r1 and columns c1.
        rest = rmask ^ low
        r_sub = rest
        while True:
            r1 = r_sub | low
            c_sub = cmask
            while c_sub:
                cand = sigma_sq(r1, c_sub) + best(
                    rmask ^ r1, cmask ^ c_sub, blocks - 1)
                if cand > result:
                    result = cand
                c_sub = (c_sub - 1) & cmask
            if r_sub == 0:
                break
            r_sub = (r_sub - 1) & rest
        best_cache[key] = result
        return result

    gain = best((1 << m) - 1, (1 << n) - 1, min(k, m, n))
    return max(total_sq - gain, 0.0)


def coordinate_enumeration_optimum(centroids, qp, sigma) -> float:
    """Exact optimum of the orthogonal centroid solve, by enumeration.

    Independent oracle: per coordinate, try every owning group (or none);
    for a fixed owner the optimal value is that group's weighted mean.
    """
    k, m = centroids.shape
    groups = sorted({int(sigma[j]) for j in range(k) if qp[j] > 0})
    total = 0.0
    for h in range(m):
        best = None
        for owner in [None] + groups:
            mean = 0.0
            if owner is not None:
                members = [j for j in range(k)
                           if qp[j] > 0 and sigma[j] == owner]
                qs = sum(qp[j] for j in members)
                mean = sum(qp[j] * centroids[j, h] for j in members) / qs
            cost = 0.0
            for j in range(k):
                if qp[j] > 0:
                    target = mean if sigma[j] == owner else 0.0
                    cost += qp[j] * (centroids[j, h] - target) ** 2
            if best is None or cost < best:
                best = cost
        total += best or 0.0
    return total


def _partitions(items: list[int]):
    """All set partitions, as lists of blocks (restricted-growth recursion)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def brute_force_bcc(g: BipartiteLabeling) -> int:
    """Minimum disagreements over all vertex partitions (Bell-number many)."""
    m, n = g.m, g.n
    if m + n > 8:
        raise ValueError("instance too large for brute force")
    best = m * n + 1
    vertices = list(range(m + n))
    for part in _partitions(vertices):
        left = np.zeros(m, dtype=np.int64)
        right = np.zeros(n, dtype=np.int64)
        for cid, block in enumerate(part, start=1):
            for v in block:
                if v < m:
                    left[v] = cid
                else:
                    right[v - m] = cid
        best = min(best, disagreements(g, Clustering(left, right)))
    return best


# Reference copies. Bodies are verbatim, except that they call one another's
# reference copies; docstrings are shortened.


def reference_normalize_columns(M) -> WeightedPointSet:
    """core.normalize_columns with its (m, n) quotient and transposed copy."""
    M = check_nonneg(M)
    norms = np.linalg.norm(M, axis=0)
    weights = norms**2
    safe = np.where(norms > 0, norms, 1.0)
    points = (M / safe).T.copy()
    points[norms == 0] = 0.0
    return WeightedPointSet(points=points, weights=weights)


def planted_stat(m: int, n: int, noise_level: float) -> tuple[float, float]:
    """Mean and standard deviation of the planted squared reconstruction gap.

    The squared Frobenius distance between a planted instance and its
    observation has mean 2mn and standard deviation sqrt(20mn), both times
    the noise level squared.
    """
    if m < 0 or n < 0 or noise_level < 0:
        raise ValueError("arguments must be non-negative")
    s2 = noise_level**2
    return 2.0 * m * n * s2, math.sqrt(20.0 * m * n) * s2


def reference_as_matrix(data) -> np.ndarray:
    """core.as_matrix with a bool mask of every entry's finiteness."""
    M = np.asarray(data, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


def reference_check_nonneg(M: np.ndarray) -> np.ndarray:
    """core.check_nonneg with a bool mask of every entry's sign."""
    M = reference_as_matrix(M)
    if (M < 0).any():
        raise ValueError("matrix has negative entries")
    return M


def reference_write_matrix(M, path) -> None:
    """core.write_matrix with one list of every entry."""
    M = as_matrix(M)
    with open(path, "w", encoding="ascii") as fh:
        # repr() of a float is the shortest string that round-trips exactly.
        for row in M.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def reference_read_matrix(path) -> np.ndarray:
    """core.read_matrix as the line reader alone, one float() per cell."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, cells in _csv_lines(fh, path):
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: ragged row")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    return np.array(rows, dtype=np.float64)


def reference_weighted_cost(pts: WeightedPointSet, centroids: np.ndarray,
                            assignment: np.ndarray) -> float:
    """kmeans._weighted_cost with a fresh gather and difference per call."""
    diff = pts.points - centroids[assignment]
    return float(np.sum(pts.weights * np.einsum("nm,nm->n", diff, diff)))


def reference_weighted_means(points: np.ndarray, weights: np.ndarray,
                             labels: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
    """kmeans._weighted_means recomputing every row, with a fresh copy per
    gather of rows."""
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
        rows = points[idx[pos]]  # a copy: (w * x + 0.0) / w in place
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
            out[j] = w @ points[idx] / total
    return totals


def reference_kmeanspp_seed(pts: WeightedPointSet, k: int,
                            rng: np.random.Generator) -> np.ndarray:
    """kmeans.kmeanspp_seed with two (n, m) temporaries per centroid."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n, m = pts.points.shape
    centroids = np.zeros((k, m))
    if pts.total_weight() == 0:
        return centroids
    first = _sample_index(pts.weights, rng)
    centroids[0] = pts.points[first]
    d2 = np.sum((pts.points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        probs = pts.weights * d2
        total = float(probs.sum())
        if total <= 0:
            break  # every point already sits on a centroid
        idx = _sample_index(probs, rng)
        centroids[j] = pts.points[idx]
        d2 = np.minimum(d2, np.sum((pts.points - centroids[j]) ** 2, axis=1))
    return centroids


def _distances_sq(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared distances; computed exactly, not via the expanded form,
    # to keep zero distances exactly zero. Builds an (n, k, m) temporary.
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def reference_lloyd(pts: WeightedPointSet, centroids: np.ndarray,
                    config: KMeansConfig) -> KMeansSolution:
    """kmeans.lloyd with fresh temporaries in every step, every centroid
    recentered in every iteration, and each assignment the argmin of the
    exact kernel _distances_sq, which the GEMM kernel's certificate and its
    blocked recomputation must reproduce. It stops only when the exact cost
    does not fall or at max_iters: a repeated assignment gives the same cost
    one iteration later, so lloyd's earlier stop on it must give the same
    bytes."""
    centroids = np.array(centroids, dtype=np.float64)
    assignment = np.argmin(_distances_sq(pts.points, centroids), axis=1)
    prev_cost = reference_weighted_cost(pts, centroids, assignment)
    for _ in range(config.max_iters):
        reference_weighted_means(pts.points, pts.weights, assignment,
                                 centroids)
        assignment = np.argmin(_distances_sq(pts.points, centroids), axis=1)
        cost = reference_weighted_cost(pts, centroids, assignment)
        if cost >= prev_cost:
            prev_cost = cost
            break
        prev_cost = cost
    return KMeansSolution(centroids=centroids, assignment=assignment,
                          cost=prev_cost)


def reference_weighted_kmeans(pts: WeightedPointSet, k: int,
                               config: KMeansConfig) -> KMeansSolution:
    """kmeans.weighted_kmeans over the reference seeding and Lloyd."""
    best: KMeansSolution | None = None
    for t in range(config.restarts):
        rng = np.random.default_rng(config.seed + t)
        seeds = reference_kmeanspp_seed(pts, k, rng)
        sol = reference_lloyd(pts, seeds, config)
        if best is None or sol.cost < best.cost:
            best = sol
    assert best is not None
    return best


def reference_cosine_matrix(centroids: np.ndarray) -> np.ndarray:
    """The cosine matrix double._finish once decided angles on, with the unit
    rows alive through a clip copy."""
    norms = np.linalg.norm(centroids, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = centroids / safe[:, None]
    return np.clip(unit @ unit.T, 0.0, 1.0)


def reference_weight_reduction(cos: np.ndarray, q: np.ndarray) -> np.ndarray:
    """double.weight_reduction as it was, on the rounded cosines of
    reference_cosine_matrix: an inclusive test in [cos(pi/3), cos(pi/6)]."""
    qp = np.array(q, dtype=np.float64)
    in_band = (COS_WIDE <= cos) & (cos <= COS_NARROW)
    for j1, j2 in zip(*np.nonzero(np.triu(in_band, 1))):  # row-major = lexicographic
        if qp[j1] <= 0 or qp[j2] <= 0:
            continue
        d = min(qp[j1], qp[j2])
        qp[j1] -= d
        qp[j2] -= d
    return qp


def reference_group_centroids(cos: np.ndarray,
                              q_reduced: np.ndarray) -> np.ndarray:
    """double.group_centroids as it was, on the rounded cosines, with its
    verification pass and the GroupingError that rounding could raise."""
    sigma = np.zeros(len(q_reduced), dtype=np.int64)
    is_positive = q_reduced > 0
    positive = np.flatnonzero(is_positive)
    if positive.size == 0:
        return sigma
    # With every centroid positive the submatrix is cos itself: no copy.
    sub = (cos if positive.size == len(q_reduced)
           else cos[np.ix_(positive, positive)])
    # Mirror the upper triangle so the graph stays symmetric even where the
    # matmul rounded cos[i, j] and cos[j, i] differently.
    near = np.triu(sub > COS_NARROW, 1)
    near |= near.T

    src, dst = np.nonzero(near)
    labels = np.arange(positive.size)
    while True:
        prev = labels.copy()
        np.minimum.at(labels, src, prev[dst])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    comp = np.unique(labels, return_inverse=True)[1]
    sigma[positive] = comp

    same = comp[:, None] == comp[None, :]
    bad = np.triu(np.where(same, ~(sub > COS_NARROW), ~(sub < COS_WIDE)), 1)
    if bad.any():
        a_idx, b_idx = np.argwhere(bad)[0]
        j1, j2 = int(positive[a_idx]), int(positive[b_idx])
        if same[a_idx, b_idx]:
            raise GroupingError(
                f"within-group angle too large for centroids {j1},{j2}")
        raise GroupingError(
            f"cross-group angle too small for centroids {j1},{j2}")

    zero = np.flatnonzero(~is_positive)
    nearest = np.argmax(cos[np.ix_(zero, positive)], axis=1)
    nearest[np.diagonal(cos)[zero] == 0] = 0
    sigma[zero] = sigma[positive[nearest]]
    return sigma


def exact_cos_sq(x, y) -> Fraction | None:
    """The exact squared cosine of two float vectors as a Fraction: 0 when
    the angle is pi/2 or more, None when either vector is zero."""
    x = [Fraction(v) for v in np.asarray(x, dtype=np.float64).tolist()]
    y = [Fraction(v) for v in np.asarray(y, dtype=np.float64).tolist()]
    nx = sum(v * v for v in x)
    ny = sum(v * v for v in y)
    if nx == 0 or ny == 0:
        return None
    dot = sum(a * b for a, b in zip(x, y))
    return dot * dot / (nx * ny) if dot > 0 else Fraction(0)


def in_band(cos_sq: Fraction | None) -> bool:
    """Exact angle in [pi/6, pi/3], from exact_cos_sq."""
    return cos_sq is not None and Fraction(1, 4) <= cos_sq <= Fraction(3, 4)


def is_near(cos_sq: Fraction | None) -> bool:
    """Exact angle below pi/6, from exact_cos_sq."""
    return cos_sq is not None and cos_sq > Fraction(3, 4)


def angle_separation_violations(centroids: np.ndarray, q_reduced: np.ndarray,
                                sigma: np.ndarray) -> list[tuple[int, int]]:
    """The pairs of positive-weight non-zero centroids, in lexicographic
    order, that break the separation grouping guarantees: within a group
    every exact angle is below pi/6, across groups every one is above pi/3.
    A zero centroid of positive weight must be alone in its group."""
    positive = np.flatnonzero(np.asarray(q_reduced) > 0).tolist()
    bad = []
    for j1, j2 in itertools.combinations(positive, 2):
        c2 = exact_cos_sq(centroids[j1], centroids[j2])
        same = sigma[j1] == sigma[j2]
        if c2 is None:
            ok = not same
        else:
            ok = c2 > Fraction(3, 4) if same else c2 < Fraction(1, 4)
        if not ok:
            bad.append((j1, j2))
    return bad


def reference_round_block(Mblk, a, w) -> tuple[np.ndarray, np.ndarray]:
    """bcc.round_block with one frobenius_norm_sq call per column."""
    Mblk = np.asarray(Mblk, dtype=np.float64)
    if not np.isin(Mblk, (0.0, 1.0)).all():
        raise ValueError("block matrix must be binary")
    a = np.asarray(a, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if (a < 0).any() or (w < 0).any():
        raise ValueError("a and w must be non-negative")
    m, n = Mblk.shape
    a_hat = np.zeros(m)
    w_hat = np.zeros(n)
    pos = np.flatnonzero(w > 0)
    if pos.size == 0:
        return a_hat, w_hat
    with np.errstate(over="ignore"):  # a tiny w[i] gives an inf distance
        dists = [frobenius_norm_sq(Mblk[:, i] / w[i] - a) for i in pos]
    i_star = int(pos[int(np.argmin(dists))])  # argmin ties -> smallest index
    a_hat = Mblk[:, i_star].copy()
    support = a_hat > 0
    size = int(support.sum())
    if size == 0:
        w_hat[pos] = 1.0
        return a_hat, w_hat
    overlap = np.count_nonzero((Mblk[:, pos] > 0) & support[:, None], axis=0)
    w_hat[pos[2 * overlap >= size]] = 1.0
    return a_hat, w_hat


def reference_solve_orthogonal_centroids(centroids: np.ndarray,
                                         q_reduced: np.ndarray,
                                         sigma: np.ndarray) -> np.ndarray:
    """double.solve_orthogonal_centroids with (n_groups, m) scores."""
    k, m = centroids.shape
    a = np.zeros((m, k))
    n_groups = int(sigma.max()) + 1 if k else 0
    mu = np.zeros((n_groups, m))
    qstar = reference_weighted_means(centroids, q_reduced,
                                     np.where(q_reduced > 0, sigma, -1), mu)
    if n_groups == 0 or not (qstar > 0).any():
        return a
    scores = qstar[:, None] * mu**2  # (n_groups, m)
    winners = np.argmax(scores, axis=0)  # argmax takes the smallest index on ties
    cols = np.arange(m)
    a[cols, winners] = mu[winners, cols]
    return a


def reference_theta(M: np.ndarray, a: np.ndarray,
                    group: np.ndarray) -> np.ndarray:
    """single._fit_theta on a dense a, one column of M at a time: each dot
    is a BLAS ddot, whose order of summation follows the BLAS thread count
    and kernel, and theta is 0 where the group's column has norm 0."""
    theta = np.zeros(M.shape[1])
    norms_sq = np.einsum("ms,ms->s", a, a)
    for i, s in enumerate(group.tolist()):
        if norms_sq[s] > 0:
            theta[i] = max(float(M[:, i] @ a[:, s]) / norms_sq[s], 0.0)
    return theta


def reference_solution(M: np.ndarray, a: np.ndarray, group: np.ndarray,
                       theta: np.ndarray) -> OnmfSolution:
    """single._solution with the residual and its square as two arrays."""
    w = CompactW(k=a.shape[1], group=group, theta=theta)
    residual = M - np.take(a, w.group, axis=1) * w.theta
    return OnmfSolution(a=a, w=w, objective=frobenius_norm_sq(residual))


def reference_transpose_solution(M: np.ndarray,
                                 sol_t: OnmfSolution) -> OnmfSolution:
    """The wide branch of double._large_k, as double._transpose_solution
    once was: through the materialized W and the objective of sol_t."""
    a2 = sol_t.a  # (n, k)
    group = np.argmax(a2 > 0, axis=1)  # rows without a non-zero get group 0
    theta = a2[np.arange(a2.shape[0]), group]
    return reference_solution(M, sol_t.w.materialize().T, group, theta)
