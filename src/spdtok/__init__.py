"""spdtok: SPD-token transformer for covariance-matrix classification.

Modules:
  spdcore    - LAPACK eigendecomposition, spectral matrix functions, exact gradients
  geometry   - Procrustes Bures-Wasserstein / Log-Euclidean distances, barycenter,
               distortion checks
  embedding  - vech packing and the three geometric token embeddings
  autodiff   - minimal reverse-mode tape on numpy arrays
  network    - transformer classifier with BN-Embed and optional geometric attention
  optim      - Adam
  data       - covariance estimation, bandpass filtering, synthetic SPD datasets, splits
  container  - binary named-tensor container ("SPDT")
  train      - training loop and run reports
  tasks      - frozen benchmark experiment builders
  verify     - property suites behind `spdtok verify`
  bench      - spectral forward/backward timing diagnostics
  cli        - command-line entry point
"""

from .embedding import EmbeddingKind, embed, embed_backward, unvech, vech
from .geometry import bw_barycenter, bw_distance, logeuclidean_distance
from .spdcore import (
    IDENTITY,
    LOG,
    SQRT,
    EigenPair,
    SpectralFn,
    condition_ratio,
    dk_matrix,
    eig_sym,
    spectral_apply,
    spectral_backward,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingKind", "embed", "embed_backward", "unvech", "vech",
    "bw_barycenter", "bw_distance", "logeuclidean_distance",
    "IDENTITY", "LOG", "SQRT", "EigenPair", "SpectralFn",
    "condition_ratio", "dk_matrix", "eig_sym", "spectral_apply",
    "spectral_backward", "__version__",
]
