"""Geometric token embeddings for SPD matrices.

A d x d symmetric matrix is packed into a token of length d(d+1)/2 by reading
the upper triangle (diagonal included) in row-major order:

    index(i, j) = i*d - i*(i-1)/2 + (j - i)   for 0-based i <= j.

The three embeddings differ only in the matrix function applied before
packing: sqrt(C) for the transport-geometry embedding, log(C) for the
tangent-space embedding, and C itself for the flat baseline.

Gradient convention: a gradient G with respect to a symmetric matrix C means
dL = sum_ij G[i,j] E[i,j] for any symmetric perturbation E. The forward
packing reads each off-diagonal element once, so its adjoint distributes each
off-diagonal token gradient g across the two mirrored slots as g/2 + g/2 (no
duplicate scaling). This is the unique choice that passes finite differences;
diagonal slots are unaffected.

Kernels and wrappers: only this module knows the packing order, kept in
`vech_batch` (and its inverse `unvech`). `embed_batch` is the tokeniser kernel
(one stacked eigendecomposition, then `spdcore.spectral_reconstruct`) and
`embed` wraps it on a one-matrix stack. `reconstruct_spd` is the token-to-SPD
map over a (n, D) stack and wraps a single token the same way.
`embed_backward` (the `vech_adjoint`, then `spdcore.spectral_backward`) takes
one matrix or a stack with any leading axes, one stacked call either way.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import spdcore
from .errors import DimMismatch, NonFinite, NotSymmetric
from .spdcore import EXP, LOG, SQRT, sym

SYMMETRY_RTOL = 1e-9


class EmbeddingKind(str, Enum):
    BWSPD = "bwspd"
    LOG_EUCLIDEAN = "logeuclidean"
    EUCLIDEAN = "euclidean"


def token_length(d: int) -> int:
    return d * (d + 1) // 2


def vech_batch(Ms: np.ndarray) -> np.ndarray:
    """Row-major upper triangles of a (..., d, d) stack, shape (..., d(d+1)/2).

    The packing behind vech and every tokeniser, without vech's symmetry check.
    The result is C-contiguous (the fancy index alone puts the stack axis
    innermost), so tokens reach the network in one memory layout.
    """
    i, j = np.triu_indices(Ms.shape[-1])
    return np.ascontiguousarray(Ms[..., i, j])


def vech(M: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle packing of a symmetric matrix; raises
    NotSymmetric when max |M - M^T| exceeds SYMMETRY_RTOL * ||M||_F."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {M.shape}")
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    if asym > SYMMETRY_RTOL * max(np.linalg.norm(M), np.finfo(np.float64).tiny):
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance")
    return vech_batch(M)


def unvech(v: np.ndarray) -> np.ndarray:
    """Inverse of vech over leading axes: (..., D) tokens to (..., d, d) matrices."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    d = int(round((np.sqrt(8.0 * v.shape[-1] + 1.0) - 1.0) / 2.0))
    if token_length(d) != v.shape[-1]:
        raise DimMismatch(f"length {v.shape[-1]} is not a triangular number")
    M = np.zeros(v.shape[:-1] + (d, d))
    i, j = np.triu_indices(d)
    M[..., i, j] = v
    M[..., j, i] = v
    return M


def embed(C: np.ndarray, kind: EmbeddingKind) -> np.ndarray:
    """Token vector of length d(d+1)/2 for one SPD matrix."""
    return embed_batch(np.asarray(C, dtype=np.float64)[None], kind)[0]


def embed_batch(Cs: np.ndarray, kind: EmbeddingKind, *, return_values: bool = False):
    """Tokens for a (batch, d, d) stack with d >= 1; returns (batch, d(d+1)/2).

    sqrt and log tokens floor the eigenvalues at spdcore.CLIP_FLOOR. With
    return_values, returns (tokens, eigenvalues) so callers can inspect
    the spectra without a second decomposition; the flat embedding decomposes
    nothing and gives None.
    """
    kind = EmbeddingKind(kind)
    Cs = np.asarray(Cs, dtype=np.float64)
    if Cs.ndim != 3 or Cs.shape[1] != Cs.shape[2] or Cs.shape[1] == 0:
        raise DimMismatch(f"expected a (batch, d, d) stack with d >= 1, got shape {Cs.shape}")
    values = None
    if kind is EmbeddingKind.EUCLIDEAN:
        Cs = sym(Cs)
    else:
        fn = SQRT if kind is EmbeddingKind.BWSPD else LOG
        V, values = spdcore.eig_sym_batch(Cs)  # symmetrises its input
        Cs = spdcore.spectral_reconstruct(V, values, fn)
    tokens = vech_batch(Cs)
    return (tokens, values) if return_values else tokens


def reconstruct_spd(tokens: np.ndarray, kind: EmbeddingKind) -> np.ndarray:
    """Rebuild the SPD matrices tokens came from (partial inverse of embed).

    Takes a (n, D) stack or one (D,) token. sqrt tokens are unpacked and
    squared; log tokens are unpacked and exponentiated; flat tokens are
    unpacked directly, and those below spdcore.CLIP_FLOOR are clipped onto
    the SPD cone by spdcore.clip_to_cone.
    """
    kind = EmbeddingKind(kind)
    tokens = np.asarray(tokens, dtype=np.float64)
    M = unvech(np.atleast_2d(tokens))
    if kind is EmbeddingKind.BWSPD:
        out = sym(M @ M)
    elif kind is EmbeddingKind.LOG_EUCLIDEAN:
        out = spdcore.spectral_apply_batch(M, EXP, clip=-np.inf)
    else:
        out = spdcore.clip_to_cone(M)
    return out if tokens.ndim > 1 else out[0]


def vech_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of vech under the symmetric-matrix gradient convention, over
    leading axes: (..., D) token gradients to (..., d, d) matrices.

    Diagonal token slots map to the diagonal unchanged; each off-diagonal slot
    contributes g/2 to both mirrored entries, so sum_ij out[i,j] E[i,j] equals
    g . vech(E) for every symmetric E.
    """
    G = unvech(g)
    return 0.5 * (G + np.where(np.eye(G.shape[-1], dtype=bool), G, 0.0))


def embed_backward(C: np.ndarray, kind: EmbeddingKind, upstream: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. C of a scalar loss, given the token gradient, for a
    (..., d, d) stack C and (..., d(d+1)/2) token gradients.

    The vech adjoint turns the token gradient into a symmetric matrix, and the
    spectral backward pass maps it through sqrt/log. The flat embedding
    returns the adjoint directly. Raises NonFinite on a NaN or Inf token
    gradient.
    """
    kind = EmbeddingKind(kind)
    C = np.asarray(C, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if (C.ndim < 2 or C.shape[-1] != C.shape[-2]
            or upstream.shape != C.shape[:-2] + (token_length(C.shape[-1]),)):
        raise DimMismatch(f"expected (..., d, d) matrices and (..., d(d+1)/2) token "
                          f"gradients, got {C.shape} and {upstream.shape}")
    if not np.all(np.isfinite(upstream)):
        raise NonFinite("token gradient contains NaN or Inf")
    G = vech_adjoint(upstream)
    if kind is EmbeddingKind.EUCLIDEAN:
        return G
    fn = SQRT if kind is EmbeddingKind.BWSPD else LOG
    V, values = spdcore.eig_sym_batch(C.reshape((-1,) + C.shape[-2:]))
    eig = spdcore.EigenPair(V.reshape(C.shape), values.reshape(C.shape[:-1]))
    return spdcore.spectral_backward(eig, fn, G)
