"""Correlation clustering on complete bipartite graphs.

A labeling is solved by factorizing the binary matrix with both factors
orthogonal (large inner dimension, no k-means needed), rounding every rank-1
block to binary vectors, and translating the non-empty binary blocks into
clusters. The rounding of a single block loses at most a factor 8 in squared
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onmf.core import BLOCK_ENTRIES
from onmf.double import _large_k


@dataclass(frozen=True)
class BipartiteLabeling:
    """Complete bipartite graph with +/- edge labels.

    labels[i, j] is True when the edge between left vertex i and right
    vertex j is labeled "+". Any 2-D 0/1 array is stored as bool (a bool
    array as it is, not copied)."""

    labels: np.ndarray  # (m, n) booleans

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or (labels.dtype != bool
                                and not np.isin(labels, (0, 1)).all()):
            raise ValueError("labels must be a 2-D array of 0/1 values")
        object.__setattr__(self, "labels", labels.astype(bool, copy=False))

    @property
    def m(self) -> int:
        return self.labels.shape[0]

    @property
    def n(self) -> int:
        return self.labels.shape[1]

    def to_matrix(self) -> np.ndarray:
        return self.labels.astype(np.float64)


@dataclass
class Clustering:
    """Cluster id per vertex on each side; id 0 means singleton/unclustered."""

    left: np.ndarray  # (m,) ints >= 0
    right: np.ndarray  # (n,) ints >= 0


def round_block(Mblk, a, w) -> tuple[np.ndarray, np.ndarray]:
    """Round one fractional rank-1 block to binary vectors.

    Picks the column whose rescaled copy is closest to a as the binary left
    vector, then keeps exactly the columns sharing at least half of its
    support. The squared error of the binary block is at most 8 times the
    fractional one. Conventions: columns with zero w are dropped; if every w
    is zero both outputs are zero; if the chosen column is empty the bound is
    vacuous and the right vector is the indicator of positive w.
    """
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
    # Squared distances of the rescaled columns to a, BLOCK_ENTRIES at a
    # time. Each is its own contiguous row, so np.sum over axis 1 adds it
    # just as np.sum adds the column alone.
    dists = np.empty(pos.size)
    step = max(1, BLOCK_ENTRIES // max(m, 1))
    for lo in range(0, pos.size, step):
        cols = pos[lo:lo + step]
        with np.errstate(over="ignore"):  # a tiny w[i] gives an inf distance
            diff = Mblk.T[cols] / w[cols, None]
            diff -= a
            diff *= diff
            dists[lo:lo + step] = np.sum(diff, axis=1)
    i_star = int(pos[int(np.argmin(dists))])  # argmin ties -> smallest index
    a_hat = Mblk[:, i_star].copy()
    support = a_hat > 0
    size = int(support.sum())
    if size == 0:
        w_hat[pos] = 1.0
        return a_hat, w_hat
    overlap = np.count_nonzero((Mblk > 0)[:, pos] & support[:, None], axis=0)
    w_hat[pos[2 * overlap >= size]] = 1.0
    return a_hat, w_hat


def disagreements(g: BipartiteLabeling, clustering: Clustering) -> int:
    """Exact disagreement count of a clustering.

    A "+" edge disagrees when its endpoints are in different clusters or
    either endpoint is unclustered; a "-" edge disagrees when both endpoints
    share a cluster.
    """
    left = np.asarray(clustering.left, dtype=np.int64)
    right = np.asarray(clustering.right, dtype=np.int64)
    if left.shape != (g.m,) or right.shape != (g.n,):
        raise ValueError(
            f"clustering has {left.shape} left and {right.shape} right ids "
            f"for a {g.m}x{g.n} graph")
    same = (left[:, None] == right[None, :]) & (left[:, None] > 0)
    plus = g.labels
    return int(np.count_nonzero(plus & ~same) + np.count_nonzero(~plus & same))


def bcc_cluster(g: BipartiteLabeling) -> tuple[Clustering, int]:
    """Cluster a labeled complete bipartite graph by rounding a factorization.

    Factorizes the binary matrix with both factors orthogonal, rounds every
    block to binary, and turns each non-empty binary block into a cluster.
    Returns the clustering and its exact disagreement count.
    """
    M = g.to_matrix()
    a, group, theta = _large_k(M)  # the factors alone: no objective
    left = np.zeros(g.m, dtype=np.int64)
    right = np.zeros(g.n, dtype=np.int64)
    # Each block's rows and live columns as one slice of an index array
    # sorted stably by block: rows by the one column of a where they are
    # positive (the columns of a have disjoint supports); a row with no
    # positive entry is in no block.
    owner = (np.argmax(a, axis=1) if a.shape[1]
             else np.zeros(g.m, dtype=np.int64))
    rows_by = np.flatnonzero(np.max(a, axis=1, initial=0.0) > 0)
    rows_by = rows_by[np.argsort(owner[rows_by], kind="stable")]
    cols_by = np.flatnonzero(theta > 0)
    cols_by = cols_by[np.argsort(group[cols_by], kind="stable")]
    blocks = np.arange(a.shape[1] + 1)
    row_bounds = np.searchsorted(owner[rows_by], blocks).tolist()
    col_bounds = np.searchsorted(group[cols_by], blocks).tolist()
    next_id = 1
    for s in np.unique(group[cols_by]).tolist():  # ids follow block order
        rows = rows_by[row_bounds[s]:row_bounds[s + 1]]
        if rows.size == 0:
            continue
        cols = cols_by[col_bounds[s]:col_bounds[s + 1]]
        a_hat, w_hat = round_block(M[np.ix_(rows, cols)], a[rows, s],
                                   theta[cols])
        rset = rows[a_hat > 0]
        cset = cols[w_hat > 0]
        if rset.size == 0 or cset.size == 0:
            continue
        left[rset] = next_id
        right[cset] = next_id
        next_id += 1
    clustering = Clustering(left=left, right=right)
    return clustering, disagreements(g, clustering)
