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

from onmf.core import block_rows
from onmf.double import _large_k
from onmf.kmeans import _segments, _sq_dists


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


@dataclass
class Clustering:
    """Cluster id per vertex on each side; id 0 means singleton/unclustered."""

    left: np.ndarray  # (m,) ints >= 0
    right: np.ndarray  # (n,) ints >= 0


def round_block(Mblk, a, w) -> tuple[np.ndarray, np.ndarray]:
    """Round one fractional rank-1 block to binary vectors.

    Mblk holds 0/1 values, bool or float64, and a and w are non-negative
    float64 arrays, as in every block that bcc_cluster passes; nothing here
    checks them, and the outputs are float64 either way. Picks the column
    whose rescaled copy is closest to a as the binary left vector, then
    keeps exactly the columns sharing at least half of its support. The
    squared error of the binary block is at most 8 times the fractional
    one. Conventions: columns with zero w are dropped; if every w is zero
    both outputs are zero; if the chosen column is empty the bound is
    vacuous, and every overlap is 0 of 0, so the right vector is the
    indicator of positive w.
    """
    m, n = Mblk.shape
    a_hat = np.zeros(m)
    w_hat = np.zeros(n)
    pos = np.flatnonzero(w > 0)
    if pos.size == 0:
        return a_hat, w_hat
    # Squared distances of the rescaled columns to a, block_rows(m) at a
    # time. Each is its own contiguous row, so np.sum over axis 1 adds it
    # just as np.sum adds the column alone.
    dists = np.empty(pos.size)
    step = block_rows(m)
    for lo in range(0, pos.size, step):
        cols = pos[lo:lo + step]
        with np.errstate(over="ignore"):  # a tiny w[i] gives an inf distance
            scaled = Mblk.T[cols] / w[cols, None]
            dists[lo:lo + step] = _sq_dists(scaled, a, scaled)
    i_star = int(pos[int(np.argmin(dists))])  # argmin ties -> smallest index
    a_hat = Mblk[:, i_star].astype(np.float64)
    support = a_hat > 0
    ones = Mblk.astype(bool, copy=False)[:, pos]  # a bool Mblk casts free
    overlap = np.count_nonzero(ones & support[:, None], axis=0)
    w_hat[pos[2 * overlap >= np.count_nonzero(support)]] = 1.0
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
    same = left[:, None] == right[None, :]
    same &= left[:, None] > 0
    return int(np.count_nonzero(g.labels != same))


def bcc_cluster(g: BipartiteLabeling) -> tuple[Clustering, int]:
    """Cluster a labeled complete bipartite graph by rounding a factorization.

    Factorizes the binary matrix with both factors orthogonal, rounds every
    block to binary, and turns each non-empty binary block into a cluster.
    Returns the clustering and its exact disagreement count, a Python int
    summed over the clusters as they are rounded. The labels are taken as
    a C-ordered bool array, with no float64 copy of them, whole or by
    block: _large_k works from their column counts and a float32 copy,
    whose GEMM row blocks are their overlap counts, so no k x k array is
    built either, and returns both factors as CompactWs, the transpose At
    of A and W, so no m x k or k x n float64 array is built.
    """
    L = np.asarray(g.labels, dtype=bool, order="C")  # any layout
    at, w = _large_k(L)  # no objective
    left = np.zeros(g.m, dtype=np.int64)
    right = np.zeros(g.n, dtype=np.int64)
    # Block s has the rows of group s of At and the columns of group s of
    # W with positive theta (At's rows, W's too, have disjoint supports);
    # any other row or column is labeled -1, in no block.
    (rows, row_bounds), (cols, col_bounds) = (
        _segments(np.where(f.theta > 0, f.group, -1), f.k) for f in (at, w))
    blocks = np.flatnonzero(np.diff(col_bounds)).tolist()
    row_bounds, col_bounds = row_bounds.tolist(), col_bounds.tolist()
    # Every block walked is a cluster. A column i of group s with theta[i]
    # > 0 has a 1 in a row r with a[r, s] > 0: theta[i] sums L[r, i] a[r, s]
    # over r, or on the wide path averages rows of L of which one, r, has
    # L[r, i] = 1 and so a[r, s] = W2.theta[r] > 0; no product of 1s and
    # unit entries underflows. So the block has rows, and the column
    # round_block picks has a 1 among them and keeps itself.
    # The count starts with every "+" edge disagreeing. A cluster of rows R
    # and columns C, with plus "+" edges among them, takes those back and
    # adds its |R| |C| - plus "-" edges.
    count = int(np.count_nonzero(L))
    for cluster, s in enumerate(blocks, start=1):  # ids follow block order
        r = rows[row_bounds[s]:row_bounds[s + 1]]
        c = cols[col_bounds[s]:col_bounds[s + 1]]
        block = L[np.ix_(r, c)]
        a_hat, w_hat = round_block(block, at.theta[r], w.theta[c])
        in_r, in_c = a_hat > 0, w_hat > 0
        left[r[in_r]] = cluster
        right[c[in_c]] = cluster
        plus = int(np.count_nonzero(block[np.ix_(in_r, in_c)]))
        count += int(in_r.sum()) * int(in_c.sum()) - 2 * plus
    return Clustering(left=left, right=right), count
