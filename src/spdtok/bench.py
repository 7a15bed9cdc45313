"""Timing and branch-fraction diagnostics for the spectral backward pass.

For each dimension and spectrum profile (well separated vs clustered), times
the forward matrix function and the gradient computation for sqrt and log,
reports the off-diagonal pair count d(d-1)/2, the fraction of pairs falling
into the log near-degeneracy branch, and the log/sqrt gradient-time ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvalidSpec
from .spdcore import (
    IDENTITY,
    LOG,
    SQRT,
    dk_matrix,
    eig_sym,
    random_orthogonal,
    spectral_apply,
    spectral_backward,
    spectral_reconstruct,
    sym,
)

PROFILES = ("separated", "clustered")


@dataclass(frozen=True)
class BenchRow:
    dim: int
    profile: str
    fn: str
    forward_ms: float
    grad_ms: float
    p_branch: float
    pairs: int


def _profile_spectrum(rng, d, profile):
    if d == 1:
        return np.array([1.0])
    if profile == "clustered":
        groups = max(2, d // 4)
        base = np.repeat(np.geomspace(1.0, 100.0, groups), int(np.ceil(d / groups)))[:d]
        return np.sort(base * (1.0 + rng.uniform(0.0, 1e-9, d)))[::-1]
    return np.sort(np.concatenate([[1.0, 100.0],
                                   np.exp(rng.uniform(0, np.log(100.0), d - 2))]))[::-1]


def _random_with_spectrum(rng, lam):
    return spectral_reconstruct(random_orthogonal(rng, lam.size), lam, IDENTITY)


def run_bench(dims, trials: int = 20, seed: int = 0) -> dict:
    dims = sorted(set(int(d) for d in dims))
    if any(d < 2 for d in dims):
        raise InvalidSpec("bench dims must be >= 2")
    rng = np.random.default_rng(seed)
    rows = []
    ratios = []
    for d in dims:
        for profile in PROFILES:
            mats = [_random_with_spectrum(rng, _profile_spectrum(rng, d, profile))
                    for _ in range(trials)]
            upstream = [sym(rng.standard_normal((d, d))) for _ in range(trials)]
            eigs = [eig_sym(C) for C in mats]
            grad_ms = {}
            for fn in (SQRT, LOG):
                t0 = time.perf_counter()
                for C in mats:
                    spectral_apply(C, fn)
                fwd = (time.perf_counter() - t0) / trials * 1e3
                t0 = time.perf_counter()
                for eig, G in zip(eigs, upstream):
                    spectral_backward(eig, fn, G)
                grd = (time.perf_counter() - t0) / trials * 1e3
                hits = 0
                pairs = 0
                for eig in eigs:
                    dk = dk_matrix(np.maximum(eig.values, 1e-12), fn)
                    hits += dk.taylor_hits
                    pairs += dk.pairs
                rows.append(BenchRow(dim=d, profile=profile, fn=fn.name,
                                     forward_ms=fwd, grad_ms=grd,
                                     p_branch=hits / pairs if pairs else 0.0,
                                     pairs=d * (d - 1) // 2))
                grad_ms[fn.name] = grd
            ratios.append({"dim": d, "profile": profile,
                           "grad_time_ratio_log_over_sqrt": grad_ms["log"] / grad_ms["sqrt"]})
    return {"rows": [asdict(r) for r in rows], "ratios": ratios,
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
