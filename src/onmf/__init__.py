"""Orthogonal non-negative matrix factorization with hard orthogonality.

Factorizes a non-negative matrix M as M ~ A @ W where the rows of W (and,
in double mode, also the columns of A) are mutually orthogonal. Includes a
seeded synthetic-instance generator, evaluation metrics, and a solver for
correlation clustering on complete bipartite graphs obtained by rounding
the factorization to binary.
"""

from onmf.core import CompactW, read_matrix, write_matrix
from onmf.synth import PlantedInstance, gen_planted_double, gen_planted_single
from onmf.kmeans import KMeansConfig
from onmf.single import OnmfSolution, factorize_single
from onmf.double import factorize_double, factorize_double_large_k
from onmf.bcc import BipartiteLabeling, Clustering, bcc_cluster, disagreements
from onmf.metrics import non_orthogonality, recovery_error, rsfe

__all__ = [
    "BipartiteLabeling",
    "Clustering",
    "CompactW",
    "KMeansConfig",
    "OnmfSolution",
    "PlantedInstance",
    "bcc_cluster",
    "disagreements",
    "factorize_double",
    "factorize_double_large_k",
    "factorize_single",
    "gen_planted_double",
    "gen_planted_single",
    "non_orthogonality",
    "read_matrix",
    "recovery_error",
    "rsfe",
    "write_matrix",
]
