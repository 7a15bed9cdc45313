"""Distances, barycenters and distortion diagnostics on the SPD cone.

Three metrics are provided. The transport distance is computed in the
Procrustes form (Bhatia, Jain & Lim, Expo. Math. 37, 2019)

    d_bw(A, B) = min_U ||A^{1/2} - B^{1/2} U||_F,   U orthogonal,

whose minimiser is U = W Z^T for the SVD B^{1/2} A^{1/2} = W S Z^T. It is the
norm of a difference, so unlike the trace bracket
tr A + tr B - 2 tr((A^{1/2} B A^{1/2})^{1/2}) it neither cancels nor goes
negative. The square roots come from spdcore with eigenvalues floored at the
1e-12 clip, so an indefinite input gives the distance to its clip onto the
SPD cone, the convention every sqrt and log token follows. The tangent-space
distance is ||log A - log B||_F and the flat distance is ||A - B||_F.

Kernels and wrappers: `distance_pairs` is the one distance kernel, for every
`DistanceKind` on aligned (n, d, d) stacks, and a row's bits do not depend on
the rest of its stack; `distance`, `bw_distance` and `logeuclidean_distance`
wrap it for one pair. `_bw_from_sqrts` turns square roots into transport
distances for `bw_distance_pairs` (its BW branch), `bw_distances_to` and
`dispersion_report`. `distortion_checks` is the batched distortion-bound
kernel and `distortion_check` its one-pair wrapper.

The barycenter solves the fixed-point equation mu = T(mu), with

    T(mu) = (1/n) sum_i (mu^{1/2} C_i mu^{1/2})^{1/2}

(`barycenter_map`), from the Euclidean mean by the update

    mu <- mu^{-1/2} T(mu)^2 mu^{-1/2}

of Alvarez-Esteban, del Barrio, Cuesta-Albertos & Matran (J. Math. Anal.
Appl. 441, 2016), which has the same fixed point. Chewi, Maunu, Rigollet &
Stromme (COLT 2020) show it is Riemannian gradient descent with step 1 and
converges linearly. mu^{-1/2} comes from the eigendecomposition that gives
mu^{1/2}, so a step costs one decomposition of mu and one of the stack. On
the clustered 5 x 5 batches of 32 that `verify` and the acceptance tests
draw (dispersion 0.02 to 0.2) it meets the 1e-10 residual test after 3 to 6
maps, where the direct iteration mu <- T(mu) needs 21 to 31. The exit test is
on the fixed-point residual ||mu - T(mu)||_F. `bw_barycenter` solves a stack
of independent problems in one loop: each problem leaves it at its own first
passing iterate, and the others go on, on the open rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import spdcore
from .embedding import vech_batch
from .errors import DimMismatch, InvalidSpec, NoConvergence
from .spdcore import LOG, SQRT, SpectralFn, spectral_apply, spectral_apply_batch, sym

DISTORTION_SLACK = 1e-9
_INV_SQRT = SpectralFn("inv_sqrt", lambda x: 1.0 / np.sqrt(x), lambda x: -0.5 / (x * np.sqrt(x)))


class DistanceKind(str, Enum):
    BURES_WASSERSTEIN = "bw"
    LOG_EUCLIDEAN = "logeuclidean"
    FROBENIUS = "frobenius"


def _check_pair(A, B, ndim=2):
    """A and B as float64 arrays of one shape: ndim - 2 stack axes over square matrices."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape or A.ndim != ndim or A.shape[-1] != A.shape[-2]:
        raise DimMismatch(f"incompatible shapes {A.shape} and {B.shape}")
    return A, B


def _bw_from_sqrts(sqAs: np.ndarray, sqBs: np.ndarray) -> np.ndarray:
    """d_bw(A_i, B_i) as the orthogonal-Procrustes residual ||sqrt(A) - sqrt(B) U||_F
    of aligned square-root stacks; either may be one matrix broadcast against
    the other stack."""
    W, _, Zt = np.linalg.svd(np.swapaxes(sqBs, -1, -2) @ sqAs)
    return np.linalg.norm(sqAs - sqBs @ (W @ Zt), axis=(-2, -1))


def bw_distance(A: np.ndarray, B: np.ndarray) -> float:
    return distance(A, B, DistanceKind.BURES_WASSERSTEIN)


def bw_distances_to(Cs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """d_bw(C_i, ref) for a stack of matrices against one reference."""
    return _bw_from_sqrts(spectral_apply(ref, SQRT), spectral_apply_batch(Cs, SQRT))


def bw_distance_pairs(As: np.ndarray, Bs: np.ndarray) -> np.ndarray:
    """Elementwise d_bw(A_i, B_i) for two aligned (n, d, d) stacks."""
    As, Bs = _check_pair(As, Bs, ndim=3)
    return _bw_from_sqrts(spectral_apply_batch(As, SQRT), spectral_apply_batch(Bs, SQRT))


def distance_pairs(As: np.ndarray, Bs: np.ndarray, kind: DistanceKind) -> np.ndarray:
    """Elementwise distance of the given kind for two aligned (n, d, d) stacks.
    A flat row's norm is sqrt(f . f), the dot product np.linalg.norm takes for
    one matrix, so each row has the bits of its pair computed alone."""
    kind = DistanceKind(kind)
    if kind is DistanceKind.BURES_WASSERSTEIN:
        return bw_distance_pairs(As, Bs)
    As, Bs = _check_pair(As, Bs, ndim=3)
    if kind is DistanceKind.LOG_EUCLIDEAN:
        As, Bs = spectral_apply_batch(As, LOG), spectral_apply_batch(Bs, LOG)
    f = (As - Bs).reshape(len(As), -1)
    return np.sqrt((f[:, None, :] @ f[:, :, None])[:, 0, 0])


def logeuclidean_distance(A: np.ndarray, B: np.ndarray) -> float:
    return distance(A, B, DistanceKind.LOG_EUCLIDEAN)


def distance(A: np.ndarray, B: np.ndarray, kind: DistanceKind) -> float:
    """distance_pairs for one pair."""
    A, B = _check_pair(A, B)
    return float(distance_pairs(A[None], B[None], kind)[0])


def _barycenter_maps(V: np.ndarray, values: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """T(mu_p) = (1/n) sum_i (sqrt(mu_p) C_pi sqrt(mu_p))^{1/2} for (P, d, d)
    iterates given by their eigendecomposition and (P, n, d, d) stacks. The
    eigenvalues of sqrt(mu) C sqrt(mu) scale as lambda^2, so they are floored
    at CLIP_FLOOR^2, the value two clipped factors give."""
    sq = spdcore.spectral_reconstruct(V, values, SQRT)[:, None]
    P, n, d, _ = stacks.shape
    roots = spectral_apply_batch((sq @ stacks @ sq).reshape(-1, d, d), SQRT,
                                 spdcore.CLIP_FLOOR ** 2)
    return sym(np.mean(roots.reshape(P, n, d, d), axis=1))


def _next_iterates(V: np.ndarray, values: np.ndarray, mapped: np.ndarray) -> np.ndarray:
    """mu^{-1/2} T(mu)^2 mu^{-1/2} for (P, d, d) iterates given by their
    eigendecomposition and their (P, d, d) images under T, as M^T M with
    M = T(mu) mu^{-1/2}."""
    M = mapped @ spdcore.spectral_reconstruct(V, values, _INV_SQRT)
    return sym(np.swapaxes(M, -1, -2) @ M)


def barycenter_map(mu: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The fixed-point map T: mu -> (1/n) sum_i (sqrt(mu) C_i sqrt(mu))^{1/2}."""
    V, values = spdcore.eig_sym_batch(np.asarray(mu, dtype=np.float64)[None])
    return _barycenter_maps(V, values, np.asarray(stack, dtype=np.float64)[None])[0]


def bw_barycenter(Cs, max_iter: int = 200, tol: float = 1e-10) -> np.ndarray:
    """Barycenters of an (n, d, d) stack, or of each (n, d, d) stack of a
    (P, n, d, d) stack of independent problems: fixed points of T, the map
    `barycenter_map`.

    Each problem starts at its Euclidean mean and returns the first iterate
    whose fixed-point residual ||mu - T(mu)||_F is at most tol * ||mu||_F, bit
    for bit what solving it alone returns; the problems still open go on
    alone. When some problem has not converged after max_iter steps,
    NoConvergence is raised with its last iterate and residual attached: a
    (d, d) iterate and a float for one stack, and for a stack of problems the
    (k, d, d) iterates and (k,) residuals of the k problems the message names.
    The matrices not above the CLIP_FLOOR (their Cholesky test fails) are
    first clipped onto the cone by spdcore.clip_to_cone, so the result is the
    barycenter of the clipped stack.
    """
    stacks = np.asarray(Cs, dtype=np.float64)
    solo = stacks.ndim == 3
    if solo:
        stacks = stacks[None]
    if stacks.ndim != 4 or 0 in stacks.shape[:2] or stacks.shape[2] != stacks.shape[3]:
        raise DimMismatch(f"expected a nonempty (n, d, d) or (P, n, d, d) stack, "
                          f"got {np.shape(Cs)}")
    shape = stacks.shape
    stacks = spdcore.clip_to_cone(stacks.reshape(-1, *shape[2:])).reshape(shape)
    mus = sym(np.mean(stacks, axis=1))
    out = np.empty_like(mus)
    open_ = np.arange(shape[0])
    residuals = np.full(shape[0], np.inf)
    for _ in range(max_iter):
        V, values = spdcore.eig_sym_batch(mus)
        mapped = _barycenter_maps(V, values, stacks)
        # a norm per 2-D slice takes the dot product of a one-problem call, so
        # a problem's exit test does not depend on the others
        residuals = np.array([np.linalg.norm(mu - t) for mu, t in zip(mus, mapped)])
        done = np.array([r <= tol * np.linalg.norm(mu) for r, mu in zip(residuals, mus)])
        out[open_[done]] = mus[done]
        if done.all():
            return out[0] if solo else out
        keep = ~done
        open_, stacks, residuals = open_[keep], stacks[keep], residuals[keep]
        mus = _next_iterates(V[keep], values[keep], mapped[keep])
    which = "" if solo else f" for problems {open_.tolist()}"
    raise NoConvergence(
        f"barycenter fixed point not converged after {max_iter} iterations{which} "
        f"(residual {', '.join(f'{r:.3e}' for r in residuals)})",
        last=mus[0] if solo else mus,
        residual=float(residuals[0]) if solo else residuals,
    )


@dataclass(frozen=True)
class DispersionReport:
    """Cluster tightness relative to the barycenter.

    epsilon is max_i d_bw(C_i, mu) / ||sqrt(mu)||_F; sqrt_mean_gap is
    ||sqrt(mu) - mean_i sqrt(C_i)||_F, the quantity whose second-order decay
    in epsilon justifies flat batch normalisation of sqrt-space tokens. Floats
    for one stack; (P, d, d) and (P,) arrays for a stack of P problems.
    """

    barycenter: np.ndarray
    epsilon: float
    sqrt_mean_gap: float


def dispersion_report(Cs) -> DispersionReport:
    """DispersionReport of an (n, d, d) stack, with float fields, or of each
    stack of a (P, n, d, d) stack of problems, with (P, d, d) barycenters and
    (P,) arrays; the barycenters come from one bw_barycenter call, so each
    problem keeps the bits of its one-stack report."""
    stacks = np.asarray(Cs, dtype=np.float64)
    solo = stacks.ndim == 3
    if solo:
        stacks = stacks[None]
    if stacks.ndim != 4 or stacks.shape[1] < 2:
        raise InvalidSpec(f"need at least two matrices per stack, got shape {np.shape(Cs)}")
    mus = bw_barycenter(stacks)
    sq_mus = spectral_apply_batch(mus, SQRT)
    sq_stacks = spectral_apply_batch(stacks.reshape(-1, *stacks.shape[2:]), SQRT)
    sq_stacks = sq_stacks.reshape(stacks.shape)
    worst = np.max(_bw_from_sqrts(sq_mus[:, None], sq_stacks), axis=1)
    epsilon = np.array([w / np.linalg.norm(s) for w, s in zip(worst, sq_mus)])
    gap = np.array([np.linalg.norm(s - m) for s, m in zip(sq_mus, np.mean(sq_stacks, axis=1))])
    if solo:
        return DispersionReport(barycenter=mus[0], epsilon=float(epsilon[0]),
                                sqrt_mean_gap=float(gap[0]))
    return DispersionReport(barycenter=mus, epsilon=epsilon, sqrt_mean_gap=gap)


@dataclass(frozen=True)
class DistortionCheck:
    """Token-space vs manifold distance comparison: floats and bools for one
    pair (distortion_check), aligned arrays for a stack (distortion_checks)."""

    token_distance: float
    bw: float
    sqrt_diff_fro: float
    lower_ok: bool          # token >= d_bw / sqrt(2 (kappa+1))
    upper_ok: bool          # token <= ||sqrt A - sqrt B||_F
    sandwich_lower_ok: bool    # token >= ||sqrt A - sqrt B||_F / sqrt(2)
    procrustes_ok: bool     # d_bw <= ||sqrt A - sqrt B||_F
    powers_stormer_ok: bool  # ||sqrt A - sqrt B||_F^2 <= ||A - B||_tr
    lipschitz_ok: bool      # ||sqrt A - sqrt B||_F <= ||A - B||_F / (2 sqrt(lambda_min))
    ratio: float            # token_distance / d_bw (1.0 for coincident pairs)

    @property
    def all_ok(self) -> bool:
        return (self.lower_ok & self.upper_ok & self.sandwich_lower_ok
                & self.procrustes_ok & self.powers_stormer_ok & self.lipschitz_ok)


def distortion_checks(As: np.ndarray, Bs: np.ndarray, kappa_bound=None) -> DistortionCheck:
    """Check every distance-preservation bound for aligned (n, d, d) stacks.

    kappa_bound is the caller's promise on lambda_max/lambda_min over both
    spectra of a pair (a scalar or one value per pair) and enters only the
    sqrt(2 (kappa+1)) lower-bound constant; None uses each pair's measured
    ratio. The derivative-based bound uses the actual smallest eigenvalue.
    Every bound is checked with DISTORTION_SLACK of absolute slack.
    """
    Va, la = spdcore.eig_sym_batch(As)
    Vb, lb = spdcore.eig_sym_batch(Bs)
    sqA = spdcore.spectral_reconstruct(Va, la, SQRT)
    sqB = spdcore.spectral_reconstruct(Vb, lb, SQRT)
    n = len(la)
    tok = np.linalg.norm(vech_batch(sqA) - vech_batch(sqB), axis=1)
    dbw = _bw_from_sqrts(sqA, sqB)
    sq_diff = np.linalg.norm((sqA - sqB).reshape(n, -1), axis=1)
    _, diff_vals = spdcore.eig_sym_batch(As - Bs)
    trace_norm = np.sum(np.abs(diff_vals), axis=1)
    fro_diff = np.linalg.norm((As - Bs).reshape(n, -1), axis=1)
    lam_min = np.minimum(la.min(axis=1), lb.min(axis=1))
    if kappa_bound is None:
        kappa_bound = np.maximum(la.max(axis=1), lb.max(axis=1)) / lam_min
    lam_min = np.maximum(lam_min, spdcore.CLIP_FLOOR)
    return DistortionCheck(
        token_distance=tok,
        bw=dbw,
        sqrt_diff_fro=sq_diff,
        lower_ok=tok >= dbw / np.sqrt(2.0 * (kappa_bound + 1.0)) - DISTORTION_SLACK,
        upper_ok=tok <= sq_diff + DISTORTION_SLACK,
        sandwich_lower_ok=tok >= sq_diff / np.sqrt(2.0) - DISTORTION_SLACK,
        procrustes_ok=dbw <= sq_diff + DISTORTION_SLACK,
        powers_stormer_ok=sq_diff ** 2 <= trace_norm + DISTORTION_SLACK,
        lipschitz_ok=sq_diff <= fro_diff / (2.0 * np.sqrt(lam_min)) + DISTORTION_SLACK,
        ratio=np.divide(tok, dbw, out=np.ones_like(tok), where=dbw > DISTORTION_SLACK),
    )


def distortion_check(A: np.ndarray, B: np.ndarray, kappa_bound: float) -> DistortionCheck:
    """distortion_checks for one pair of SPD matrices."""
    A, B = _check_pair(A, B)
    batch = distortion_checks(A[None], B[None], kappa_bound)
    return DistortionCheck(*(getattr(batch, f.name)[0].item() for f in fields(batch)))
