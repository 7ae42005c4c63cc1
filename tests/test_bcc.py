import contextlib
import hashlib
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import onmf.bcc
import onmf.core
import onmf.double
import onmf.kmeans
import onmf.single
from onmf.bcc import (
    BipartiteLabeling,
    Clustering,
    bcc_cluster,
    disagreements,
    round_block,
)
from conftest import (block_rows, gram_blocks, nonneg_matrices,
                      planted_labels, traced_peak)
from onmf.core import frobenius_norm_sq
from onmf.double import _dense, _large_k
from oracles import brute_force_bcc, reference_round_block


def labeling(rows):
    return BipartiteLabeling(labels=np.array(rows, dtype=bool))


def test_round_block_exact_all_ones():
    a_hat, w_hat = round_block(np.ones((2, 2)), np.ones(2), np.ones(2))
    assert np.array_equal(a_hat, [1.0, 1.0])
    assert np.array_equal(w_hat, [1.0, 1.0])


def test_round_block_hand_trace():
    Mblk = np.array([[1.0, 1.0], [1.0, 0.0]])
    a_hat, w_hat = round_block(Mblk, np.array([1.0, 0.5]), np.ones(2))
    assert np.array_equal(a_hat, [1.0, 1.0])
    assert np.array_equal(w_hat, [1.0, 1.0])
    binary_err = frobenius_norm_sq(Mblk - np.outer(a_hat, w_hat))
    frac_err = frobenius_norm_sq(Mblk - np.outer([1.0, 0.5], [1.0, 1.0]))
    assert binary_err == 1.0
    assert frac_err == 0.5
    assert binary_err <= 8 * frac_err


def test_round_block_zero_w():
    Mblk = np.array([[1.0], [0.0]])
    a_hat, w_hat = round_block(Mblk, np.array([0.3, 0.1]), np.zeros(1))
    assert (a_hat == 0).all()
    assert (w_hat == 0).all()


def test_round_block_empty_support_column():
    # chosen column is all-zero: the 8x bound is vacuous, w_hat marks the
    # positive-weight columns
    Mblk = np.array([[0.0, 1.0]])
    a_hat, w_hat = round_block(Mblk, np.zeros(1), np.array([5.0, 0.0]))
    assert (a_hat == 0).all()
    assert np.array_equal(w_hat, [1.0, 0.0])


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


def random_block(seed, max_m, max_n):
    """(Mblk, a, w) of mixed magnitudes, so the order of addition shows;
    tiny weights give infinite distances and duplicated columns tie."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, max_m)), int(rng.integers(1, max_n))
    Mblk = (rng.random((m, n)) < 0.5).astype(float)
    Mblk[:, n // 2:] = Mblk[:, :n - n // 2]
    a = rng.random(m) * 10.0 ** rng.integers(-8, 9, m) * (rng.random(m) < 0.8)
    w = (rng.random(n) * 10.0 ** rng.integers(-320, 9, n)
         * (rng.random(n) < 0.8))
    return Mblk, a, w


@pytest.mark.parametrize("seed", range(16))
def test_round_block_matches_column_loop(seed):
    # The larger blocks take several chunks of rows.
    Mblk, a, w = random_block(seed, 300, 400)
    got = round_block(Mblk, a, w)
    want = reference_round_block(Mblk, a, w)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.parametrize("seed", range(16))
def test_round_block_one_column_per_chunk(seed, monkeypatch):
    # With one entry per block, every column is a chunk of its own.
    monkeypatch.setattr(onmf.bcc, "BLOCK_ENTRIES", 1)
    Mblk, a, w = random_block(seed, 30, 40)
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


@settings(max_examples=300, deadline=None)
@given(nonneg_matrices(max_side=9, cells=st.sampled_from([0.0, 1.0])),
       st.data())
def test_every_live_block_rounds_to_a_cluster(M, data):
    # bcc_cluster walks the groups that have a column of positive theta and
    # keeps every one as a cluster. That holds because each such column i
    # of group s has a 1 in a row r with a[r, s] > 0, and round_block then
    # gives the block a non-zero a_hat and w_hat.
    if len(M):  # duplicated rows, as nonneg_matrices duplicates columns
        M = M[data.draw(st.lists(st.integers(0, len(M) - 1),
                                 min_size=len(M), max_size=len(M)))]
    M = np.asarray(M, order="C")
    factor, group, theta = _large_k(M)
    a = _dense(*factor)
    live = theta > 0
    for i in np.flatnonzero(live):
        assert ((M[:, i] == 1) & (a[:, group[i]] > 0)).any()
    for s in np.unique(group[live]):
        rows = np.flatnonzero(a[:, s] > 0)
        cols = np.flatnonzero(live & (group == s))
        a_hat, w_hat = round_block(M[np.ix_(rows, cols)], a[rows, s],
                                   theta[cols])
        assert a_hat.any() and w_hat.any()


def large_k_steps(L, entries):
    """_large_k(L)'s factors and, by name, the arguments and result of its
    last weight_reduction, group_centroids and solve_orthogonal_centroids
    calls, with BLOCK_ENTRIES set to entries."""
    seen = {}

    def spy(name, f):
        def spied(*args):
            seen[name] = args, f(*args)
            return seen[name][1]
        return spied

    with contextlib.ExitStack() as stack:
        for name in ("weight_reduction", "group_centroids",
                     "solve_orthogonal_centroids"):
            stack.enter_context(mock.patch.object(
                onmf.double, name, spy(name, getattr(onmf.double, name))))
        for module in (onmf.single, onmf.double, onmf.kmeans):
            stack.enter_context(
                mock.patch.object(module, "BLOCK_ENTRIES", entries))
        factors = _large_k(L)
    return factors, seen


def as_bytes(x):
    """The dtype and bytes of each array in nested tuples of arrays and
    ints, such as a compact factor (owner, value, k)."""
    if isinstance(x, tuple):
        return [as_bytes(y) for y in x]
    if isinstance(x, int):
        return x
    return x.dtype.str, x.tobytes()


def extension_ties(labels, positive, i):
    """The centroids j among positive whose exact extension score
    D_ij / sqrt(c_j) is the largest, D the overlap and c the count of 0/1
    rows, compared as the Fractions D^2 / c."""
    rows = labels.astype(np.int64)
    scores = {j: Fraction(int(rows[i] @ rows[j]) ** 2, int(rows[j].sum()))
              for j in positive.tolist()}
    best = max(scores.values())
    return [j for j, v in scores.items() if v == best]


@settings(max_examples=300, deadline=None)
@given(nonneg_matrices(max_side=12, cells=st.sampled_from([0.0, 1.0])),
       st.sampled_from([1, 7, onmf.core.BLOCK_ENTRIES]), st.data())
def test_large_k_from_labels_decides_as_their_float_copy(M, entries, data):
    # bcc_cluster passes _large_k its bool labels, which take the overlap
    # counts and no unit columns. On the tall, square and wide (transposed)
    # paths, with empty rows and duplicated and empty columns, in C and
    # Fortran order, the steps must decide as on the float64 copy: the same
    # reduced weights, leaders and groups of the positive centroids, and
    # solve. Only the zero-weight extension may differ, and only on an
    # exact tie, which the unit Gram's rounding breaks.
    if len(M):
        M[data.draw(st.lists(st.booleans(), min_size=len(M),
                             max_size=len(M)))] = 0.0
    L = M != 0  # C or Fortran order, as M
    got, seen = large_k_steps(L, entries)
    want, ref = large_k_steps(L.astype(np.float64), entries)
    for name in ("weight_reduction", "solve_orthogonal_centroids"):
        assert as_bytes(seen[name][1]) == as_bytes(ref[name][1])
    labels = seen["weight_reduction"][0][0]
    assert labels.dtype == np.float32  # the GEMM operand: a count copy
    positive = np.flatnonzero(seen["weight_reduction"][1] > 0)
    leader = seen["group_centroids"][0][0]
    ref_leader = ref["group_centroids"][0][0]
    assert leader[positive].tobytes() == ref_leader[positive].tobytes()
    sigma, ref_sigma = seen["group_centroids"][1], ref["group_centroids"][1]
    assert sigma[positive].tobytes() == ref_sigma[positive].tobytes()
    for i in np.flatnonzero(sigma != ref_sigma).tolist():
        tied = set(sigma[extension_ties(labels, positive, i)].tolist())
        assert {sigma[i], ref_sigma[i]} <= tied
    if sigma.tobytes() == ref_sigma.tobytes():
        assert as_bytes(got) == as_bytes(want)


def test_extension_tie_goes_to_the_smaller_index():
    # Column 0 (8 ones) gives its weight to column 1 (12 ones), which gives
    # the rest of its own to column 3, so columns 2 and 3 are the positive
    # ones, in groups 0 and 1. Column 0 meets column 2 (2 ones) in two rows
    # and column 3 (8 ones) in four: D / sqrt(c) is sqrt(2) for both, an
    # exact tie. The counts give two equal scores, so column 0 joins group
    # 0; the unit Gram's rounding sent it to group 1.
    columns = ["011010111011", "111111111111", "000010001000",
               "100111110101"]
    L = np.ascontiguousarray(
        np.array([[c == "1" for c in col] for col in columns]).T)
    (_, group, _), seen = large_k_steps(L, onmf.core.BLOCK_ENTRIES)
    positive = np.flatnonzero(seen["weight_reduction"][1] > 0)
    assert positive.tolist() == [2, 3]
    assert extension_ties(seen["weight_reduction"][0][0], positive,
                          0) == [2, 3]
    assert group.tolist() == [0, 1, 0, 1]


def tie_across_tiles():
    """19 x 19 labels: the columns of the test above as columns 0, 1, 2 and
    10, with a one-row column in each of columns 3 to 9 (rows 12 to 18) and
    columns 11 to 18 empty. Columns 2 to 10 are the 9 positive ones, each
    its own group, and 10 columns have zero weight, so the extension tiles
    the positive side. Column 0 ties exactly between columns 2 and 10, the
    first and last positive ones, which tiles of 1 or 7 rows split."""
    columns = ["011010111011", "111111111111", "000010001000",
               "100111110101"]
    L = np.zeros((19, 19), dtype=bool)
    for j, col in zip((0, 1, 2, 10), columns):
        L[:12, j] = [c == "1" for c in col]
    L[12 + np.arange(7), 3 + np.arange(7)] = True
    return L


def test_extension_tie_across_positive_tiles_goes_to_the_smaller_index():
    # Across tiles a best score is replaced only by a strictly greater one.
    # Column 0 joins column 2's group, the empty columns, whose scores are
    # all 0, the first positive column's, and column 1 (12 ones) column
    # 10's, the largest D / sqrt(c).
    L = tie_across_tiles()
    _, seen = large_k_steps(L, onmf.core.BLOCK_ENTRIES)
    positive = np.flatnonzero(seen["weight_reduction"][1] > 0)
    assert positive.tolist() == list(range(2, 11))
    assert extension_ties(L.T, positive, 0) == [2, 10]
    want = [0, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8] + [0] * 8
    for gemm, sub in block_rows(19):
        with gram_blocks(gemm, sub, 19):
            (_, group, _) = _large_k(L)
        assert group.tolist() == want, (gemm, sub)


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


def test_labeling_has_no_matrix_method():
    # bcc_cluster converts the labels itself.
    assert not hasattr(BipartiteLabeling, "to_matrix")


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


@st.composite
def count_labelings(draw):
    """Planted labelings up to 60 x 60 with 0 to 40% of the labels flipped,
    1 x n and n x 1 among them, and all-plus, all-minus and identity ones."""
    kind = draw(st.sampled_from(["planted", "row", "column", "plus", "minus",
                                 "identity"]))
    m, n = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    if kind == "plus":
        return np.ones((m, n), dtype=bool)
    if kind == "minus":
        return np.zeros((m, n), dtype=bool)
    if kind == "identity":
        return np.eye(n, dtype=bool)
    m = {"row": 1, "column": n, "planted": m}[kind]
    n = 1 if kind == "column" else n
    return planted_labels(m, n, draw(st.integers(1, 12)),
                          draw(st.floats(0.0, 0.4)),
                          draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(count_labelings())
def test_bcc_count_matches_disagreements_function(labels):
    # bcc_cluster sums the count over its clusters as it rounds them;
    # disagreements counts the clustering afresh over every edge.
    g = BipartiteLabeling(labels=labels)
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
    # Taken before the solve scored one-member groups apart and the count
    # was summed over the blocks. Three groups of many members and 541
    # zero-weight columns for the extension; 77 one-member groups; and 6
    # one-member and 6 larger groups.
    ("600x600-3-clusters", lambda: planted_labels(600, 600, 3, 0.05, 0),
     "eef8a0ccbb8d3144"),
    ("120x90-one-member", lambda: planted_labels(120, 90, 12, 0.2, 1),
     "a32f8991e966d34b"),
    ("120x90-mixed", lambda: planted_labels(120, 90, 12, 0.02, 1),
     "d278af7a8c28a097"),
]


def bcc_digest(labels):
    clustering, count = bcc_cluster(BipartiteLabeling(labels=labels))
    data = b"".join([repr(int(count)).encode(),
                     np.asarray(clustering.left, dtype=np.int64).tobytes(),
                     np.asarray(clustering.right, dtype=np.int64).tobytes()])
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("make, digest", [case[1:] for case in FROZEN_BCC],
                         ids=[case[0] for case in FROZEN_BCC])
def test_bcc_frozen_outputs(make, digest):
    assert bcc_digest(make()) == digest


@pytest.mark.parametrize(
    "make", [case[1] for case in FROZEN_BCC] + [tie_across_tiles],
    ids=[case[0] for case in FROZEN_BCC] + ["tie-across-tiles"])
def test_gram_block_rows_keep_every_bcc_byte(make):
    # The differential test of the Gram blocks: GEMM blocks and the walk's
    # sub-blocks of 1, 7 and k rows give the bytes of the default blocks.
    # The cases have fewer zero-weight than positive columns (120x90-one-
    # member), more (40x90-transposed, 600x600-3-clusters, 120x90-mixed and
    # tie-across-tiles, whose exact tie spans two tiles of positive rows),
    # none (600x600, all-plus, noiseless-4, identity-300) and no positive
    # one (all-minus).
    labels = make()
    want = bcc_digest(labels)
    k = min(labels.shape)
    for gemm, sub in block_rows(k):
        with gram_blocks(gemm, sub, k):
            assert bcc_digest(labels) == want, (gemm, sub)


@pytest.mark.parametrize("make, digest", [case[1:] for case in FROZEN_BCC],
                         ids=[case[0] for case in FROZEN_BCC])
def test_bcc_counts_overlaps_in_float64_past_the_float32_limit(make, digest):
    # Past _FLOAT32_COUNT_ROWS summed rows the overlaps are counted in
    # float64. With the limit at 0 every GEMM operand, the copy of the
    # labels whose products are the counts, is float64, and the counts,
    # hence every output byte, stay the same.
    operands = []
    weight_reduction = onmf.double.weight_reduction

    def spied(centroids, q, norms_sq, leader):
        operands.append(centroids.dtype)
        return weight_reduction(centroids, q, norms_sq, leader)

    with mock.patch.object(onmf.double, "_FLOAT32_COUNT_ROWS", 0), \
            mock.patch.object(onmf.double, "weight_reduction", spied):
        assert bcc_digest(make()) == digest
    assert operands == [np.float64]


@pytest.mark.parametrize("m, n", [(600, 600), (400, 600)])
def test_bcc_peak_memory(m, n):
    # The large-k finish holds no float64 unit columns or Gram matrix, and
    # no dense factor. Its largest arrays are the bool labels, their
    # float32 copy or float32 overlap counts, and row blocks of bounded
    # size, so the peak stays below 3.5 m x n float64s. Six
    # such arrays were once alive at the same time, four until the Gram
    # matrix replaced the cosine matrix, three until bcc_cluster gave up
    # its float64 copy of the labels, and two until the steps took the
    # overlap counts in place of the unit columns and their Gram matrix.
    g = BipartiteLabeling(labels=planted_labels(m, n, 12, 0.2, 5))
    tracemalloc.start()
    try:
        bcc_cluster(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * m * n


@pytest.mark.parametrize("m, n", [(600, 600), (400, 600), (600, 400)])
def test_bcc_peak_memory_without_unit_columns(m, n):
    # The steps read the labels' overlap counts from one float32 GEMM and
    # gather unit columns from the labels only inside the solve. With no
    # float64 unit columns or Gram matrix the peak stays below 1.8 m x n
    # float64s; with them it was 2.15 to 2.22.
    g = BipartiteLabeling(labels=planted_labels(m, n, 12, 0.2, 5))
    assert traced_peak(lambda: bcc_cluster(g)) < 1.8 * 8 * m * n


def test_bcc_peak_holds_no_k_by_k_counts(monkeypatch):
    # With blocks of 2^12 entries and GEMM blocks of one sub-block, a
    # 400 x 600 labeling (k = 400 on the transposed path) peaks below the
    # labels' float32 copy plus 8 such blocks of float64s. The k x k
    # float32 overlap counts alone are 20 of them.
    entries = 1 << 12
    for module in (onmf.double, onmf.single, onmf.kmeans, onmf.bcc):
        monkeypatch.setattr(module, "BLOCK_ENTRIES", entries)
    monkeypatch.setattr(onmf.double, "_GEMM_ROWS", 1)
    m, n = 400, 600
    g = BipartiteLabeling(labels=planted_labels(m, n, 12, 0.2, 5))
    assert traced_peak(lambda: bcc_cluster(g)) < 4 * m * n + 8 * 8 * entries


def test_bcc_wide_path_frees_the_transposed_factor():
    # On the wide path _large_k solves the transpose and reads the groups
    # and theta from its factor a2, and a is a2's W2 transposed; both are
    # compact now. When they were dense, with a2, a and the mask a2 > 0 all
    # alive the peak was 1.68 m x n float64s.
    m, n = 400, 600
    g = BipartiteLabeling(labels=planted_labels(m, n, 12, 0.2, 5))
    assert traced_peak(lambda: bcc_cluster(g)) < 1.4 * 8 * m * n


@pytest.mark.parametrize("m, n", [(300, 300), (400, 300), (300, 400)],
                         ids=["square", "tall", "wide"])
def test_bcc_holds_no_float_copy_of_the_labels(m, n):
    # The labels' float32 copy and overlap counts for the Gram GEMM are the
    # largest arrays alive. With the bounded row blocks that stays below
    # two m x n float64 arrays plus a k x k one, k = min(m, n); a float64
    # copy of the labels held through the whole call adds an m x n array
    # and does not fit.
    g = BipartiteLabeling(labels=planted_labels(m, n, 6, 0.05, 0))
    k = min(m, n)
    assert traced_peak(lambda: bcc_cluster(g)) < 8 * (2 * m * n + k * k)


def test_bcc_peak_memory_single_column_groups():
    # At 20% flips weight reduction leaves every one of the 600 columns its
    # own group. The solve takes their means a block of groups at a time,
    # the factor is one (owner, value) pair per row and theta is fitted
    # from blocks of it, so no m x k or k x m float64 array is built. The
    # peak is then the Gram GEMM: the labels' float32 copy and their
    # float32 overlap counts, 2 x 4 m n bytes. The group means and the
    # dense factor took it to 1.17 m x n float64s.
    m = n = 600
    labels = planted_labels(m, n, 12, 0.2, 5)
    _, seen = large_k_steps(labels, onmf.core.BLOCK_ENTRIES)
    assert np.unique(seen["group_centroids"][1]).size == n
    g = BipartiteLabeling(labels=labels)
    assert traced_peak(lambda: bcc_cluster(g)) < 1.1 * 8 * m * n


def test_bcc_peak_memory_all_plus():
    # Every pair of the 400 equal columns is near: 79,800 pairs, which the
    # walk of the Gram takes a row block at a time and keeps no list of.
    # The peak, 4.6 m x n float64s, is then the rounding of the one block,
    # which compares the block before it gathers the live columns, so that
    # copy is bool.
    m = n = 400
    g = BipartiteLabeling(labels=np.ones((m, n), dtype=bool))
    tracemalloc.start()
    try:
        bcc_cluster(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.4 * 8 * m * n
