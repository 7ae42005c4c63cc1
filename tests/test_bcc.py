import hashlib
import tracemalloc

import numpy as np
import pytest

from onmf.bcc import (
    BipartiteLabeling,
    Clustering,
    bcc_cluster,
    disagreements,
    round_block,
)
from conftest import planted_labels
from onmf.core import frobenius_norm_sq
from oracles import brute_force_bcc, reference_round_block


def labeling(rows):
    return BipartiteLabeling(labels=np.array(rows, dtype=bool))


def test_round_block_exact_all_ones():
    a_hat, w_hat = round_block(np.ones((2, 2)), [1.0, 1.0], [1.0, 1.0])
    assert np.array_equal(a_hat, [1.0, 1.0])
    assert np.array_equal(w_hat, [1.0, 1.0])


def test_round_block_hand_trace():
    Mblk = np.array([[1.0, 1.0], [1.0, 0.0]])
    a_hat, w_hat = round_block(Mblk, [1.0, 0.5], [1.0, 1.0])
    assert np.array_equal(a_hat, [1.0, 1.0])
    assert np.array_equal(w_hat, [1.0, 1.0])
    binary_err = frobenius_norm_sq(Mblk - np.outer(a_hat, w_hat))
    frac_err = frobenius_norm_sq(Mblk - np.outer([1.0, 0.5], [1.0, 1.0]))
    assert binary_err == 1.0
    assert frac_err == 0.5
    assert binary_err <= 8 * frac_err


def test_round_block_zero_w():
    Mblk = np.array([[1.0], [0.0]])
    a_hat, w_hat = round_block(Mblk, [0.3, 0.1], [0.0])
    assert (a_hat == 0).all()
    assert (w_hat == 0).all()


def test_round_block_empty_support_column():
    # chosen column is all-zero: the 8x bound is vacuous, w_hat marks the
    # positive-weight columns
    Mblk = np.array([[0.0, 1.0]])
    a_hat, w_hat = round_block(Mblk, [0.0], [5.0, 0.0])
    assert (a_hat == 0).all()
    assert np.array_equal(w_hat, [1.0, 0.0])


def test_round_block_rejects_bad_inputs():
    with pytest.raises(ValueError):
        round_block(np.array([[0.5]]), [1.0], [1.0])
    with pytest.raises(ValueError):
        round_block(np.array([[1.0]]), [-1.0], [1.0])


def test_round_block_bound_on_random_triples():
    rng = np.random.default_rng(22)
    for _ in range(300):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        Mblk = (rng.random((m, n)) < 0.5).astype(float)
        a = rng.random(m) * np.where(rng.random(m) < 0.2, 0.0, 1.0)
        w = rng.random(n) * np.where(rng.random(n) < 0.2, 0.0, 1.0)
        a_hat, w_hat = round_block(Mblk, a, w)
        assert set(np.unique(a_hat)) <= {0.0, 1.0}
        assert set(np.unique(w_hat)) <= {0.0, 1.0}
        binary_err = frobenius_norm_sq(Mblk - np.outer(a_hat, w_hat))
        frac_err = frobenius_norm_sq(Mblk - np.outer(a, w))
        assert binary_err <= 8 * frac_err + 1e-12
        # Column by column: a positive-weight column is kept exactly when
        # it shares at least half of the chosen support.
        support = a_hat > 0
        if support.any():
            for i in np.flatnonzero(w > 0):
                overlap = int(np.count_nonzero((Mblk[:, i] > 0) & support))
                assert w_hat[i] == (2 * overlap >= support.sum())


@pytest.mark.parametrize("seed", range(16))
def test_round_block_matches_column_loop(seed):
    # Mixed magnitudes make the order of addition show, tiny weights give
    # infinite distances, duplicated columns tie, and the larger blocks take
    # several chunks of rows.
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 300)), int(rng.integers(1, 400))
    Mblk = (rng.random((m, n)) < 0.5).astype(float)
    Mblk[:, n // 2:] = Mblk[:, :n - n // 2]
    a = rng.random(m) * 10.0 ** rng.integers(-8, 9, m) * (rng.random(m) < 0.8)
    w = (rng.random(n) * 10.0 ** rng.integers(-320, 9, n)
         * (rng.random(n) < 0.8))
    got = round_block(Mblk, a, w)
    want = reference_round_block(Mblk, a, w)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.parametrize("seed", range(16))
def test_round_block_ties_follow_the_column_loop(seed):
    # Every column permutes one base column within classes of rows where a
    # is constant, so all distances are equal in exact arithmetic and the
    # rounding of each sum, hence its order of addition, picks the column.
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(20, 300)), int(rng.integers(2, 60))
    classes = rng.integers(0, 4, m)
    a = (rng.random(4) * 10.0 ** rng.integers(-4, 5, 4))[classes]
    base = (rng.random(m) < 0.5).astype(float)
    Mblk = np.repeat(base[:, None], n, axis=1)
    for c in range(4):
        idx = np.flatnonzero(classes == c)
        for j in range(n):
            Mblk[idx, j] = base[rng.permutation(idx)]
    w = np.full(n, 0.5)
    got = round_block(Mblk, a, w)
    want = reference_round_block(Mblk, a, w)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_disagreements_perfect_blocks():
    g = labeling([[1, 1, 0], [0, 0, 1]])
    clustering = Clustering(left=np.array([1, 2]), right=np.array([1, 1, 2]))
    assert disagreements(g, clustering) == 0


def test_disagreements_all_minus_singletons():
    g = labeling(np.zeros((2, 3)))
    clustering = Clustering(left=np.zeros(2, dtype=int),
                            right=np.zeros(3, dtype=int))
    assert disagreements(g, clustering) == 0


def test_disagreements_all_plus_singletons():
    g = labeling(np.ones((2, 2)))
    clustering = Clustering(left=np.zeros(2, dtype=int),
                            right=np.zeros(2, dtype=int))
    assert disagreements(g, clustering) == 4


def test_disagreements_rejects_mismatched_sides():
    # A length-1 side must not broadcast: left=[1] on this graph once
    # counted 0, where left=[1, 0, 0, 0] has 9 disagreements.
    g = labeling(np.ones((4, 3)))
    right = np.ones(3, dtype=int)
    assert disagreements(g, Clustering(left=np.array([1, 0, 0, 0]),
                                       right=right)) == 9
    with pytest.raises(ValueError, match="4x3 graph"):
        disagreements(g, Clustering(left=np.array([1]), right=right))
    with pytest.raises(ValueError, match="4x3 graph"):
        disagreements(g, Clustering(left=np.ones(4, dtype=int),
                                    right=np.ones(4, dtype=int)))


def test_labeling_checks_its_labels():
    # A 2 once passed as "+": disagreements counted 2 for this perfect
    # clustering, and bcc_cluster failed in round_block.
    for bad in ([[2, 0], [0, 2]], [[0.5]], [[np.nan]], [1, 0],
                np.ones((1, 1, 1))):
        with pytest.raises(ValueError,
                           match="labels must be a 2-D array of 0/1 values"):
            BipartiteLabeling(np.array(bad))
    labels = np.eye(3, dtype=bool)
    assert BipartiteLabeling(labels).labels is labels
    # 0/1 labels of any dtype are stored as bool and keep their results.
    planted = planted_labels(40, 90, 4, 0.2, 2)
    want = bcc_cluster(BipartiteLabeling(planted))
    for dtype in (np.int64, np.uint8, np.float64):
        g = BipartiteLabeling(planted.astype(dtype))
        assert g.labels.dtype == bool
        clustering, count = bcc_cluster(g)
        assert count == want[1]
        assert np.array_equal(clustering.left, want[0].left)
        assert np.array_equal(clustering.right, want[0].right)
    ints = BipartiteLabeling(np.array([[1, 0], [0, 1]]))
    assert disagreements(ints, Clustering(np.array([1, 2]),
                                          np.array([1, 2]))) == 0


def test_bcc_identity():
    clustering, count = bcc_cluster(labeling(np.eye(2)))
    assert count == 0
    assert clustering.left[0] == clustering.right[0] != 0
    assert clustering.left[1] == clustering.right[1] != 0
    assert clustering.left[0] != clustering.left[1]


def test_bcc_all_plus_single_cluster():
    clustering, count = bcc_cluster(labeling(np.ones((3, 4))))
    assert count == 0
    assert len(set(clustering.left.tolist())) == 1
    assert set(clustering.left.tolist()) == set(clustering.right.tolist())


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_bcc_no_vertices_on_one_side(shape):
    clustering, count = bcc_cluster(BipartiteLabeling(np.zeros(shape, bool)))
    assert count == 0
    assert clustering.left.shape == (shape[0],)
    assert clustering.right.shape == (shape[1],)
    assert (clustering.right == 0).all() and (clustering.left == 0).all()


def test_bcc_count_matches_disagreements_function():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = labeling(rng.random((m, n)) < 0.5)
        clustering, count = bcc_cluster(g)
        assert count == disagreements(g, clustering)


def test_brute_force_examples():
    assert brute_force_bcc(labeling(np.eye(2))) == 0
    assert brute_force_bcc(labeling(np.ones((3, 3)))) == 0
    # 3x2 mixed labeling: {u0,u2,v0},{u1,v1} leaves only u2-v1 in
    # disagreement, and no perfect clustering exists
    g = labeling([[1, 0], [0, 1], [1, 1]])
    assert brute_force_bcc(g) == 1


def test_brute_force_too_large():
    with pytest.raises(ValueError):
        brute_force_bcc(labeling(np.ones((5, 4))))


def test_bcc_within_120_of_optimum():
    rng = np.random.default_rng(24)
    for _ in range(15):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g = labeling(rng.random((m, n)) < 0.5)
        _, count = bcc_cluster(g)
        assert count <= 120 * brute_force_bcc(g)


# sha256 prefixes of bcc_cluster's count, left ids and right ids, taken
# before the block discovery and the large-k steps were vectorized.
FROZEN_BCC = [
    ("600x600", lambda: planted_labels(600, 600, 12, 0.2, 1),
     "3c1dda94716b9d91"),
    ("40x90-transposed", lambda: planted_labels(40, 90, 4, 0.2, 2),
     "c282bd284ca66cbc"),
    ("all-plus", lambda: np.ones((30, 30), dtype=bool), "f4625e2533d8dd12"),
    ("all-minus", lambda: np.zeros((30, 30), dtype=bool), "1abd205526b9d2ae"),
    ("noiseless-4", lambda: planted_labels(50, 70, 4, 0.0, 3),
     "cef9e1ae2b6e1607"),
    # 300 singleton blocks, against about 20 in the 600x600 case; taken
    # before bcc_cluster walked the blocks by group.
    ("identity-300", lambda: np.eye(300, dtype=bool), "12d8250b1e65a058"),
]


@pytest.mark.parametrize("make, digest", [case[1:] for case in FROZEN_BCC],
                         ids=[case[0] for case in FROZEN_BCC])
def test_bcc_frozen_outputs(make, digest):
    clustering, count = bcc_cluster(BipartiteLabeling(labels=make()))
    data = b"".join([repr(int(count)).encode(),
                     np.asarray(clustering.left, dtype=np.int64).tobytes(),
                     np.asarray(clustering.right, dtype=np.int64).tobytes()])
    assert hashlib.sha256(data).hexdigest()[:16] == digest


@pytest.mark.parametrize("m, n", [(600, 600), (400, 600)])
def test_bcc_peak_memory(m, n):
    # The large-k finish holds at most three k x k float64 arrays at once
    # (for m <= n, the input, the unit columns, and the Gram matrix or the
    # group means of the solve), plus row blocks of bounded size, so with
    # k = min(m, n) the peak stays below 3.5 m x n float64s. Six such
    # arrays were once alive at the same time, and four until the Gram
    # matrix replaced the cosine matrix.
    g = BipartiteLabeling(labels=planted_labels(m, n, 12, 0.2, 5))
    tracemalloc.start()
    try:
        bcc_cluster(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * m * n


def test_bcc_peak_memory_all_plus():
    # Every pair of the 400 equal columns is near: 79,800 pairs, held as
    # int32 (8 bytes a pair, half a k x k float64 array) and not copied by
    # the grouping, whose centroids are all positive. The peak, 4.6 m x n
    # float64s, is then the rounding of the one block, which compares the
    # block before it gathers the live columns, so that copy is bool.
    m = n = 400
    g = BipartiteLabeling(labels=np.ones((m, n), dtype=bool))
    tracemalloc.start()
    try:
        bcc_cluster(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.4 * 8 * m * n
