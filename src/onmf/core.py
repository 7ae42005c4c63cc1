"""Dense matrix plumbing: norms, column normalization, CSV I/O.

Matrices are plain float64 numpy arrays in row-major order. The compact
representation of an orthogonal-rows factor W (at most one non-zero per
column) lives here as well since every algorithm in the package produces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# cos(pi/6) and cos(pi/3); the angle band [pi/6, pi/3] used by the
# double-orthogonality weight reduction corresponds to cosines in
# [COS_WIDE, COS_NARROW], inclusive.
COS_NARROW = math.sqrt(3.0) / 2.0
COS_WIDE = 0.5


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array and check that all entries are finite."""
    M = np.asarray(data, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


def check_nonneg(M: np.ndarray) -> np.ndarray:
    """Validate non-negativity; returns the input for chaining."""
    M = as_matrix(M)
    if (M < 0).any():
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

    A zero column maps to the zero point with weight zero.
    """
    M = check_nonneg(M)
    norms = np.linalg.norm(M, axis=0)
    weights = norms**2
    safe = np.where(norms > 0, norms, 1.0)
    # The quotient goes straight into the C-ordered (n, m) result, with no
    # (m, n) intermediate.
    points = np.divide(M.T, safe[:, None], out=np.empty(M.shape[::-1]))
    points[norms == 0] = 0.0
    return WeightedPointSet(points=points, weights=weights)


@dataclass
class CompactW:
    """Orthogonal-rows factor W stored as one (group, scale) pair per column.

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
        if (self.theta < 0).any():
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


def write_matrix(M, path) -> None:
    """Write a matrix as CSV with exact (round-trip) decimal values."""
    M = as_matrix(M)
    with open(path, "w", encoding="ascii") as fh:
        # repr() of a float is the shortest string that round-trips exactly.
        # One row at a time, so no list of all the entries is ever built.
        for row in M:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _csv_lines(path, skip_first: bool = False):
    """Yield (lineno, cells) for each non-blank line of an ASCII CSV file.

    Each line is stripped of surrounding whitespace and split on commas; the
    cells themselves are left as they are. Line numbers count every line,
    blank and skipped ones included, so messages can name ``path:lineno``.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not (skip_first and lineno == 1):
                    yield lineno, line.split(",")
        except UnicodeDecodeError as exc:  # decoded in chunks: line unknown
            raise ValueError(f"{path}: not ASCII text") from exc


def read_matrix(path, header: bool = False) -> np.ndarray:
    """Read a CSV matrix; rejects ragged rows and non-numeric cells."""
    rows: list[list[float]] = []
    for lineno, cells in _csv_lines(path, skip_first=header):
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
