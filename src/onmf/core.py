"""Dense matrix plumbing: norms, column normalization, CSV I/O.

Matrices are plain float64 numpy arrays in row-major order. The compact
representation of an orthogonal-rows factor W (at most one non-zero per
column) lives here as well since every algorithm in the package produces it.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

# The largest squared Frobenius norm normalize_columns accepts. The points
# the algorithms compare have norm at most 1, so a squared distance between
# two of them is at most 4, and below this limit a weight times such a
# distance, or a sum of those products, stays finite.
MAX_TOTAL_WEIGHT = float(np.finfo(np.float64).max) / 4

# The most entries of a row-block temporary: the large-k steps work through
# their k x k and k x m arrays, and k-means through its n x m points, this
# many entries at a time, so a temporary stays near 256 KB whatever k or n is.
BLOCK_ENTRIES = 1 << 15


def block_rows(width: int, limit: int | None = None) -> int:
    """Rows of width entries in a block of at most BLOCK_ENTRIES entries:
    at least one, and at most limit if one is given. Every blocked loop of
    the package takes its rows from here, so patching BLOCK_ENTRIES moves
    them all."""
    rows = BLOCK_ENTRIES // max(width, 1)
    return max(1, rows if limit is None else min(limit, rows))


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array and check that all entries are finite."""
    M = np.asarray(data, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    # NaN propagates through min and max, so two reductions see every
    # non-finite entry without a mask the size of M.
    if M.size and not (math.isfinite(M.min()) and math.isfinite(M.max())):
        raise ValueError("matrix contains non-finite entries")
    return M


def check_nonneg(M: np.ndarray) -> np.ndarray:
    """Validate non-negativity; returns the input for chaining."""
    M = as_matrix(M)
    if M.size and M.min() < 0:
        raise ValueError("matrix has negative entries")
    return M


def frobenius_norm_sq(M) -> float:
    """Sum of squared entries."""
    M = np.asarray(M, dtype=np.float64)
    return float(np.sum(M * M))


@dataclass(frozen=True)
class WeightedPointSet:
    """Normalized columns of a non-negative matrix with squared-norm weights.

    points: (n, m) array, one row per column of the source matrix; each row
        has unit L2 norm or is exactly zero.
    weights: (n,) array of squared column norms; zero exactly when the
        corresponding point is zero.
    """

    points: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    def total_weight(self) -> float:
        return float(self.weights.sum())


def normalize_columns(M) -> WeightedPointSet:
    """Split a non-negative matrix into unit columns and squared-norm weights.

    A zero column maps to the zero point with weight zero. A matrix whose
    squared Frobenius norm (the total weight) exceeds MAX_TOTAL_WEIGHT is
    rejected with a ValueError, before the unit columns are allocated.
    """
    M = check_nonneg(M)
    with np.errstate(over="ignore"):  # an overflow ends in the ValueError
        norms = np.linalg.norm(M, axis=0)
        weights = norms**2
        if weights.sum() > MAX_TOTAL_WEIGHT:
            raise ValueError("matrix too large: squared Frobenius norm "
                             f"exceeds {MAX_TOTAL_WEIGHT!r}")
    safe = np.where(norms > 0, norms, 1.0)
    # The quotient goes straight into the C-ordered (n, m) result, with no
    # (m, n) intermediate.
    points = np.divide(M.T, safe[:, None], out=np.empty(M.shape[::-1]))
    points[norms == 0] = 0.0
    return WeightedPointSet(points=points, weights=weights)


@dataclass
class CompactW:
    """An orthogonal-rows factor stored as one (group, scale) pair per
    column: W, or the transpose of an orthogonal-columns factor A.

    The materialized k x n matrix has entry (group[i], i) = theta[i] and
    zeros elsewhere, so its rows have pairwise disjoint supports. Group
    indices are 0-based.
    """

    k: int
    group: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        self.group = np.asarray(self.group, dtype=np.int64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.group.shape != self.theta.shape:
            raise ValueError("group and theta must have the same length")
        if not (self.theta >= 0).all():  # NaN fails >= too
            raise ValueError("theta entries must be non-negative")

    @property
    def n(self) -> int:
        return self.group.shape[0]

    def materialize(self) -> np.ndarray:
        """Expand into the dense k x n matrix."""
        n = self.n
        if n and ((self.group < 0).any() or (self.group >= self.k).any()):
            raise IndexError("group index out of range")
        W = np.zeros((self.k, n))
        W[self.group, np.arange(n)] = self.theta
        return W


@contextlib.contextmanager
def open_output(path):
    """Open an ASCII text output that replaces path's file when the block ends.

    Symlinks are followed. The text goes to a new hidden sibling,
    ``.<name>.<hex>.tmp``, which takes the old file's permission bits; then
    the old file is unlinked and the sibling renamed into its place. If the
    block raises, the sibling is deleted and the old file is left as it was.
    Renaming over a file, like truncating it, can make the filesystem flush
    it (ext4 does, unless mounted with noauto_da_alloc), which costs tens of
    milliseconds; unlinking it first does not.

    A target that exists but is not a regular file (a device, a FIFO, a
    directory) or has other hard links is written in place, and so is any
    target whose sibling cannot be created: there open() raises as it would
    have without the sibling, naming path.
    """
    target = os.path.realpath(path)
    try:
        old = os.stat(target)
    except OSError:
        old = None
    fh = None
    if old is None or (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        with contextlib.suppress(OSError):
            fh = open(tmp, "x", encoding="ascii")
    if fh is None:
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    try:
        with fh:
            yield fh
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
            os.unlink(target)
        os.rename(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_matrix(M, path) -> None:
    """Write a matrix as CSV with exact (round-trip) decimal values."""
    M = as_matrix(M)
    with open_output(path) as fh:
        # repr() of a float is the shortest string that round-trips exactly.
        # One row at a time, so no list of all the entries is ever built.
        for row in M:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _csv_lines(fh, path):
    """Yield (lineno, cells) for each non-blank line of fh, an ASCII CSV
    file opened as text, from where it stands; path names it in messages.

    Each line is stripped of surrounding whitespace and split on commas; the
    cells themselves are left as they are. Line numbers count every line,
    blank ones included, so messages can name ``path:lineno``.
    """
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line.split(",")
    except UnicodeDecodeError as exc:  # decoded in chunks: line unknown
        raise ValueError(f"{path}: not ASCII text") from exc


def read_matrix(path) -> np.ndarray:
    """Read a headerless CSV matrix; rejects ragged rows and non-numeric
    cells.

    numpy's loadtxt parses a regular file in bulk. Its cell parser is the
    one float() uses, less float()'s underscores; but it strips a cell of
    all the whitespace str.strip() removes, which in ASCII also takes the
    separators 0x1c-0x1f, so lines holding those are kept from it. It thus
    accepts no cell that float() rejects and reads the same value from
    every cell both accept; it skips empty lines, and a line of only
    whitespace makes it fail. So a non-empty, all-finite result is the line
    reader's. On a parse failure or an empty or non-finite result the line
    reader reads the file again from the start: it raises with the exact
    message naming path:line, or accepts what loadtxt did not (such as 1_0).
    A pipe or device cannot be read twice, so it goes to the line reader
    alone.

    The file is opened here and handed to loadtxt open: given a path,
    loadtxt would also fetch URLs and read compressed files.
    """
    with open(path, "r", encoding="ascii") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            try:
                with warnings.catch_warnings():
                    # An empty input warns "input contained no data"; it is
                    # rejected below anyway.
                    warnings.simplefilter("ignore", UserWarning)
                    M = np.loadtxt(_lines_without_separators(fh),
                                   delimiter=",", comments=None,
                                   dtype=np.float64, ndmin=2)
                if M.size:
                    return as_matrix(M)  # raises on a non-finite entry
            except ValueError:  # the line reader reports the exact error
                pass
            fh.seek(0)
        rows: list[list[float]] = []
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


def _lines_without_separators(fh):
    """The lines of fh; ValueError at one holding a separator 0x1c-0x1f."""
    for line in fh:
        if any(c in line for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("separator character")
        yield line


