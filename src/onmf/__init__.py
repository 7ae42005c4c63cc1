"""Orthogonal non-negative matrix factorization with hard orthogonality.

Factorizes a non-negative matrix M as M ~ A @ W where the rows of W (and,
in double mode, also the columns of A) are mutually orthogonal. Includes a
seeded synthetic-instance generator, evaluation metrics, and a solver for
correlation clustering on complete bipartite graphs obtained by rounding
the factorization to binary.
"""

from onmf.core import (
    CompactW,
    WeightedPointSet,
    frobenius_norm_sq,
    normalize_columns,
    read_matrix,
    write_matrix,
)
from onmf.synth import PlantedInstance, gen_planted_double, gen_planted_single
from onmf.kmeans import (
    KMeansConfig,
    KMeansSolution,
    kmeanspp_seed,
    lloyd,
    weighted_kmeans,
)
from onmf.single import OnmfSolution, factorize_single
from onmf.double import (
    GroupingError,
    centroid_weights,
    factorize_double,
    factorize_double_large_k,
    group_centroids,
    solve_orthogonal_centroids,
    weight_reduction,
)
from onmf.bcc import (
    BipartiteLabeling,
    Clustering,
    bcc_cluster,
    disagreements,
    round_block,
)
from onmf.metrics import (
    non_orthogonality,
    planted_stat,
    reconstruction_error,
    recovery_error,
    rsfe,
)

__all__ = [
    "BipartiteLabeling",
    "Clustering",
    "CompactW",
    "GroupingError",
    "KMeansConfig",
    "KMeansSolution",
    "OnmfSolution",
    "PlantedInstance",
    "WeightedPointSet",
    "bcc_cluster",
    "centroid_weights",
    "disagreements",
    "factorize_double",
    "factorize_double_large_k",
    "factorize_single",
    "frobenius_norm_sq",
    "gen_planted_double",
    "gen_planted_single",
    "group_centroids",
    "kmeanspp_seed",
    "lloyd",
    "non_orthogonality",
    "normalize_columns",
    "planted_stat",
    "read_matrix",
    "reconstruction_error",
    "recovery_error",
    "round_block",
    "rsfe",
    "solve_orthogonal_centroids",
    "weight_reduction",
    "weighted_kmeans",
    "write_matrix",
]
