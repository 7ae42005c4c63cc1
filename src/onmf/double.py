"""Double-factor orthogonality: orthogonal columns of A and rows of W.

Pipeline: weighted k-means on the normalized columns (step 1), reduction of
centroid weights for pairs whose angle falls in the ambiguous band
[pi/6, pi/3] (step 2), grouping of the surviving centroids by connected
components of the small-angle graph followed by an exact coordinate-wise
solve for the orthogonal group representatives (step 3). A large-k variant
skips k-means entirely, treating every normalized column as its own
centroid, transposing first when that orientation is cheaper.
"""

from __future__ import annotations

import numpy as np

from onmf.core import (
    COS_NARROW,
    COS_WIDE,
    WeightedPointSet,
    check_nonneg,
    normalize_columns,
)
from onmf.kmeans import (
    KMeansConfig,
    KMeansSolution,
    _weighted_means,
    weighted_kmeans,
)
from onmf.single import OnmfSolution, _solution, _theta_against


class GroupingError(RuntimeError):
    """The grouped centroids violate the angle separation guarantees.

    Can only happen through floating-point boundary effects on the inclusive
    band test; raised instead of silently mis-grouping.
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


def _cosine_matrix(centroids: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(centroids, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = centroids / safe[:, None]
    return np.clip(unit @ unit.T, 0.0, 1.0)


def weight_reduction(cos: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Zero out paired weights of centroids with angle in [pi/6, pi/3].

    `cos` is the centroids' k x k cosine matrix. Single lexicographic pass
    over pairs (j1, j2) with j1 < j2; each hit decreases both weights by
    their minimum, sending at least one to zero. One pass suffices because
    weights never increase. Band membership is an inclusive cosine test in
    [cos(pi/3), cos(pi/6)].
    """
    qp = np.array(q, dtype=np.float64)
    in_band = (COS_WIDE <= cos) & (cos <= COS_NARROW)
    for j1, j2 in zip(*np.nonzero(np.triu(in_band, 1))):  # row-major = lexicographic
        if qp[j1] <= 0 or qp[j2] <= 0:
            continue
        d = min(qp[j1], qp[j2])
        qp[j1] -= d
        qp[j2] -= d
    return qp


def group_centroids(cos: np.ndarray, q_reduced: np.ndarray) -> np.ndarray:
    """Group the surviving centroids by connected small-angle components.

    `cos` is the centroids' k x k cosine matrix. Positive-weight centroids
    are joined when their angle is below pi/6 (cosine above cos(pi/6)); the
    connected components of that graph are the groups, numbered in order of
    their smallest member. The components come from min-label propagation
    along the graph's edges: every centroid ends labeled with the smallest
    member of its component, and np.unique numbers those labels in ascending
    order. A verification pass asserts the separation the weight reduction
    guarantees: within a group all angles below pi/6, across groups all
    above pi/3. Zero-weight centroids join the group of the angularly
    nearest positive-weight centroid (ties toward the smallest index); with
    no positive-weight centroid at all everything maps to group 0.
    """
    sigma = np.zeros(len(q_reduced), dtype=np.int64)
    is_positive = q_reduced > 0
    positive = np.flatnonzero(is_positive)
    if positive.size == 0:
        return sigma
    sub = cos[np.ix_(positive, positive)]
    # Mirror the upper triangle so the graph stays symmetric even where the
    # matmul rounded cos[i, j] and cos[j, i] differently.
    near = np.triu(sub > COS_NARROW, 1)
    near |= near.T

    # Connected components by min-label propagation: each step takes the
    # smallest label among a node and its neighbours, then replaces every
    # label by the label of the node it names. Labels never rise, never
    # exceed their node's index and stay inside the component, so the fixed
    # point labels each node with its component's smallest member.
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

    # Verification: the post-reduction angle structure must hold. Within a
    # group the angles are reached through chains of small ones whose total
    # stays below pi/3, so with the band empty the direct angle is below
    # pi/6. The first violating pair in lexicographic order is reported.
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

    # Extend to zero-weight centroids by the nearest positive one. A centroid
    # of zero norm has a zero diagonal cosine and goes to positive[0]; its
    # cosines are all 0 unless the norm merely underflowed, so the override
    # is needed only then. (A norm that overflows also leaves a zero row,
    # whose argmax is already 0.)
    zero = np.flatnonzero(~is_positive)
    nearest = np.argmax(cos[np.ix_(zero, positive)], axis=1)
    nearest[np.diagonal(cos)[zero] == 0] = 0
    sigma[zero] = sigma[positive[nearest]]
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
    (columns for absent groups stay zero).
    """
    k, m = centroids.shape
    a = np.zeros((m, k))
    n_groups = int(sigma.max()) + 1 if k else 0
    mu = np.zeros((n_groups, m))
    qstar = _weighted_means(centroids, q_reduced,
                            np.where(q_reduced > 0, sigma, -1), mu)
    if n_groups == 0 or not (qstar > 0).any():
        return a
    scores = qstar[:, None] * mu**2  # (n_groups, m)
    winners = np.argmax(scores, axis=0)  # argmax takes the smallest index on ties
    cols = np.arange(m)
    a[cols, winners] = mu[winners, cols]
    return a


def _finish(M: np.ndarray, centroids: np.ndarray, q: np.ndarray,
            phi: np.ndarray) -> OnmfSolution:
    """Steps 2-3 on prepared centroids/weights, then scale fitting.

    Reduction and grouping share one cosine matrix, freed before the solve.
    """
    cos = _cosine_matrix(centroids)
    qp = weight_reduction(cos, q)
    sigma = group_centroids(cos, qp)
    del cos
    a = solve_orthogonal_centroids(centroids, qp, sigma)
    group = sigma[phi]
    return _solution(M, a, group, _theta_against(M, a, group))


def factorize_double(M, k: int, config: KMeansConfig | None = None) -> OnmfSolution:
    """Factorize with both factors orthogonal, for arbitrary inner dimension."""
    M = check_nonneg(M)
    if k < 1:
        raise ValueError("k must be >= 1")
    if config is None:
        config = KMeansConfig()
    pts = normalize_columns(M)
    sol = weighted_kmeans(pts, k, config)
    centroids, q = centroid_weights(pts, sol)
    return _finish(M, centroids, q, sol.assignment)


def factorize_double_large_k(M) -> OnmfSolution:
    """Double-orthogonal factorization with inner dimension min(m, n).

    Skips k-means: every normalized column is its own centroid with its own
    weight. Works on the transpose when 0 < m < n (the objective is
    symmetric under transposition) and transposes the result back. With no
    rows (m = 0) nothing is transposed and the inner dimension is n.
    """
    M = check_nonneg(M)
    m, n = M.shape
    if 0 < m < n:
        sol_t = factorize_double_large_k(M.T)
        return _transpose_solution(M, sol_t)
    pts = normalize_columns(M)
    return _finish(M, pts.points, pts.weights, np.arange(n))


def _transpose_solution(M: np.ndarray, sol_t: OnmfSolution) -> OnmfSolution:
    """Convert a factorization of M^T into one of M.

    If M^T ~ A2 @ W2 then M ~ W2^T @ A2^T. The columns of A2 have disjoint
    supports, so A2^T has at most one non-zero per column and converts to the
    compact form directly.
    """
    a2 = sol_t.a  # (n, k)
    group = np.argmax(a2 > 0, axis=1)  # rows without a non-zero get group 0
    theta = a2[np.arange(a2.shape[0]), group]
    return _solution(M, sol_t.w.materialize().T, group, theta)
