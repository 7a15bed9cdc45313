"""Timing and branch-fraction diagnostics for the spectral backward pass.

For each dimension and spectrum profile (well separated vs clustered), times
the forward matrix function and the gradient computation for sqrt and log,
reports the off-diagonal pair count d(d-1)/2, the fraction of pairs falling
into the log near-degeneracy branch, and the log/sqrt gradient-time ratio.
Each time is one stacked call over all trials, reported per matrix.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InvalidSpec, checked_seed
from .spdcore import (
    CLIP_FLOOR,
    IDENTITY,
    LOG,
    SQRT,
    EigenPair,
    _dk_kernel,
    eig_sym_batch,
    orthogonal_from_normals,
    spectral_apply_batch,
    spectral_backward,
    spectral_reconstruct,
    sym,
)

PROFILES = ("separated", "clustered")


def _profile_spectrum(rng, d, profile):
    if profile == "clustered":
        groups = max(2, d // 4)
        base = np.repeat(np.geomspace(1.0, 100.0, groups), int(np.ceil(d / groups)))[:d]
        return np.sort(base * (1.0 + rng.uniform(0.0, 1e-9, d)))[::-1]
    return np.sort(np.concatenate([[1.0, 100.0],
                                   np.exp(rng.uniform(0, np.log(100.0), d - 2))]))[::-1]


def _ms_per_matrix(call, trials):
    t0 = time.perf_counter()
    call()
    return (time.perf_counter() - t0) / trials * 1e3


def run_bench(dims, trials: int = 20, seed: int = 0) -> dict:
    dims = sorted(set(int(d) for d in dims))
    if trials < 1 or not dims or any(d < 2 for d in dims):
        raise InvalidSpec(f"bench needs trials >= 1 and dims >= 2, got trials {trials} "
                          f"and dims {dims}")
    rng = np.random.default_rng(checked_seed(seed))
    rows = []
    ratios = []
    for d in dims:
        pairs = d * (d - 1) // 2
        for profile in PROFILES:
            # each trial draws its spectrum, then its eigenbasis's normals
            lams, Zs = zip(*((_profile_spectrum(rng, d, profile), rng.standard_normal((d, d)))
                             for _ in range(trials)))
            mats = spectral_reconstruct(orthogonal_from_normals(np.stack(Zs)), np.stack(lams),
                                        IDENTITY)
            upstream = sym(rng.standard_normal((trials, d, d)))
            eig = EigenPair(*eig_sym_batch(mats))
            grad_ms = {}
            for fn in (SQRT, LOG):
                fwd = _ms_per_matrix(lambda: spectral_apply_batch(mats, fn), trials)
                grd = _ms_per_matrix(lambda: spectral_backward(eig, fn, upstream), trials)
                _, hits = _dk_kernel(np.maximum(eig.values, CLIP_FLOOR), fn)
                rows.append(dict(dim=d, profile=profile, fn=fn.name, forward_ms=fwd, grad_ms=grd,
                                 p_branch=int(hits.sum()) / (trials * pairs), pairs=pairs))
                grad_ms[fn.name] = grd
            ratios.append({"dim": d, "profile": profile,
                           "grad_time_ratio_log_over_sqrt": grad_ms["log"] / grad_ms["sqrt"]})
    return {"rows": rows, "ratios": ratios,
            "trials": trials, "seed": seed}


def format_bench_table(result: dict) -> str:
    lines = [f"{'dim':>4} {'profile':>10} {'fn':>6} {'fwd ms':>9} {'grad ms':>9} "
             f"{'p_branch':>9} {'pairs':>6}"]
    for r in result["rows"]:
        lines.append(f"{r['dim']:>4} {r['profile']:>10} {r['fn']:>6} "
                     f"{r['forward_ms']:>9.3f} {r['grad_ms']:>9.3f} "
                     f"{r['p_branch']:>9.4f} {r['pairs']:>6}")
    lines.append("")
    for r in result["ratios"]:
        lines.append(f"dim {r['dim']:>3} {r['profile']:>10}: "
                     f"T_grad(log)/T_grad(sqrt) = {r['grad_time_ratio_log_over_sqrt']:.3f}")
    return "\n".join(lines)
