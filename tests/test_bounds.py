"""The paper's approximation bounds as properties of tiny random inputs.

Each test draws instances small enough for the brute-force oracles in
oracles.py, including the edge shapes: one row or one column, k > n,
all-zero columns and duplicated columns (nonneg_matrices zeroes and
duplicates columns at random). The fixed draws of test_acceptance.py check
the same bounds on ordinary instances.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import nonneg_matrices
from onmf.bcc import BipartiteLabeling, bcc_cluster, round_block
from onmf.core import frobenius_norm_sq, normalize_columns
from onmf.double import factorize_double_large_k
from onmf.kmeans import KMeansConfig, weighted_kmeans
from onmf.single import factorize_single
from oracles import (
    SIN_SQ_PI_12,
    brute_force_bcc,
    brute_force_double,
    brute_force_kmeans,
    brute_force_single,
)

# Ordinary cells, exact zeros and ones, and the smallest subnormal.
CELLS = st.floats(0.0, 4.0) | st.sampled_from([0.0, 1.0, 5e-324])


@settings(max_examples=60, deadline=None)
@given(nonneg_matrices(max_side=4, min_side=1, cells=CELLS),
       st.integers(1, 5), st.integers(0, 2**16))
@example(np.ones((1, 3)), 4, 0)  # one row, k > n
@example(np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]]), 2, 0)
def test_single_factor_chain(M, k, seed):
    # objective <= 2 r_emp OPT, where r_emp is the k-means cost over the
    # k-means optimum (1 when that optimum is 0).
    cfg = KMeansConfig(restarts=10, seed=seed)
    sol = factorize_single(M, k, cfg)
    opt = brute_force_single(M, k).objective
    pts = normalize_columns(M)
    km = weighted_kmeans(pts, k, cfg)
    km_opt = brute_force_kmeans(pts, k).cost
    r_emp = max(km.cost / km_opt if km_opt > 1e-12 else 1.0, 1.0)
    assert sol.objective <= 2 * r_emp * opt + 1e-9


@settings(max_examples=60, deadline=None)
@given(nonneg_matrices(max_side=4, min_side=1, cells=CELLS))
@example(np.array([[1.0, 1.0, 0.0, 1.0]]))  # one row, transposed
@example(np.array([[1.0], [0.0], [3.0]]))  # one column
def test_large_k_bound(M):
    # objective <= OPT / sin^2(pi/12), OPT over min(m, n) blocks.
    obj = factorize_double_large_k(M).objective
    opt = brute_force_double(M, min(M.shape))
    assert obj <= opt / SIN_SQ_PI_12 + 1e-9


@st.composite
def blocks(draw):
    """(Mblk, a, w): a binary block and non-negative fractional vectors,
    with zero entries."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    Mblk = np.array(draw(st.lists(st.booleans(), min_size=m * n,
                                  max_size=m * n)), dtype=float).reshape(m, n)
    a = np.array(draw(st.lists(CELLS, min_size=m, max_size=m)))
    w = np.array(draw(st.lists(CELLS, min_size=n, max_size=n)))
    return Mblk, a, w


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_round_block_bound(block):
    # The binary block's squared error is at most 8 times the fractional.
    Mblk, a, w = block
    a_hat, w_hat = round_block(Mblk, a, w)
    binary_err = frobenius_norm_sq(Mblk - np.outer(a_hat, w_hat))
    frac_err = frobenius_norm_sq(Mblk - np.outer(a, w))
    assert binary_err <= 8 * frac_err + 1e-12


@settings(max_examples=60, deadline=None)
@given(nonneg_matrices(max_side=4, min_side=1,
                       cells=st.sampled_from([0.0, 1.0])))
@example(np.ones((1, 4)))  # one row
@example(np.array([[1.0], [0.0], [1.0]]))  # one column
def test_bcc_within_120(M):
    # disagreements <= 120 OPT; a labeling with a perfect clustering must
    # be clustered perfectly.
    g = BipartiteLabeling(M > 0)
    _, count = bcc_cluster(g)
    assert count <= 120 * brute_force_bcc(g)
