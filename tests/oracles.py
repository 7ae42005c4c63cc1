"""Brute-force oracles and angle helpers for the tests.

Each oracle enumerates every feasible solution, so the instance-size guards
keep the enumeration small. They reuse the solver's own recentering, cost and
solution epilogue, so a ratio test compares like with like. The angle helpers
and the large-k constant state the paper's guarantees directly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from onmf.bcc import BipartiteLabeling, Clustering, disagreements
from onmf.core import WeightedPointSet, check_nonneg, frobenius_norm_sq
from onmf.kmeans import KMeansSolution, _weighted_cost, _weighted_means
from onmf.single import OnmfSolution, _solution, _theta_against

# sin^2(pi/12) = (1 - cos(pi/6)) / 2, the constant in the double-factor
# approximation guarantees.
SIN_SQ_PI_12 = (2.0 - math.sqrt(3.0)) / 4.0


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
                          cost=_weighted_cost(pts, centroids, assignment))


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
    return _solution(M, a, group, _theta_against(M, a, group))


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
