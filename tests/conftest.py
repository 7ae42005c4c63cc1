import contextlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import strategies as st

import onmf
import onmf.core
import onmf.double

# Directory holding the onmf package under test, as an absolute path, so a
# child process finds the same package whatever its working directory.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(onmf.__file__)))


def cli_env(extra=None):
    """Environment for a `python -m onmf.cli` child process."""
    env = dict(os.environ, **(extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, cwd, env_extra=None):
    """Run `python -m onmf.cli` with `args` in `cwd`, capturing its output."""
    return subprocess.run([sys.executable, "-m", "onmf.cli", *args],
                          cwd=cwd, env=cli_env(env_extra),
                          capture_output=True, text=True)


def traced_peak(f):
    """The tracemalloc peak, in bytes, of the call f()."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gram_row_pairs(k):
    """(GEMM, sub-block) row counts for a k x k Gram matrix: 1, 7 and k
    rows each, in all nine pairs."""
    return list(itertools.product((1, 7, k), repeat=2))


@contextlib.contextmanager
def gram_blocks(gemm_rows, sub_rows, k):
    """Patch onmf so that the Gram matrix of k centroids goes in GEMM blocks
    of about gemm_rows rows (whole sub-blocks, at least one) and sub-blocks
    of sub_rows rows; every other blocked loop takes blocks of sub_rows * k
    entries."""
    with mock.patch.object(onmf.double, "_GEMM_ROWS", gemm_rows), \
            mock.patch.object(onmf.core, "BLOCK_ENTRIES", sub_rows * k):
        yield


def planted_labels(m, n, clusters, flip, seed):
    """BCC labels of a planted clustering with a `flip` share flipped."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, clusters, size=m)
    right = rng.integers(0, clusters, size=n)
    return (left[:, None] == right[None, :]) ^ (rng.random((m, n)) < flip)


# -0.0, the smallest subnormal, a subnormal, and a value whose square
# overflows, among ordinary non-negative cells.
NONNEG_CELLS = (st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310, 1e308])
                | st.floats(0.0, 4.0))


# normalize_columns' message for a matrix whose squared Frobenius norm
# exceeds core.MAX_TOTAL_WEIGHT, a quarter of the largest float64.
TOO_LARGE = ("matrix too large: squared Frobenius norm exceeds "
             "4.4942328371557893e+307")


@st.composite
def nonneg_matrices(draw, max_side=6, min_side=0, cells=NONNEG_CELLS):
    """Non-negative matrices of `cells`, min_side to max_side on each side,
    with duplicated and zero columns, in C, Fortran or strided layout."""
    m = draw(st.integers(min_side, max_side))
    n = draw(st.integers(min_side, max_side))
    rows = st.lists(cells, min_size=n, max_size=n)
    M = np.array(draw(st.lists(rows, min_size=m, max_size=m)),
                 dtype=np.float64).reshape(m, n)
    if n:
        M = M[:, draw(st.lists(st.integers(0, n - 1), min_size=n,
                               max_size=n))]
        M[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        M = np.asfortranarray(M)
    elif layout == "strided":
        M = np.repeat(M, 2, axis=1)[:, ::2]
    return M
