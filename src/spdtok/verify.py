"""Property suites that mechanically check the package's mathematical claims.

Each suite stresses one cluster of results at desk scale: the vech norm
sandwich, token-space distortion bounds (including the Powers-Stormer and
Procrustes inequalities and the derivative-based Lipschitz bound), embedding
injectivity, metric axioms, spectral reconstruction, divided-difference
conditioning (sqrt(kappa) vs kappa), gradient norm bounds, finite-difference
gradient agreement, barycenter fixed-point behaviour, the second-order decay
of the sqrt-space mean gap, eigenvalue-pair counting with the near-degeneracy
branch fraction, and bitwise determinism.

Suites draw their inputs as stacks, one batched call per dimension (`metrics`
checks all three distances on one shared draw). A random SPD stack is drawn
matrix by matrix and built with one stacked QR and one product. The gradient
suites draw their instances one at a time, in a fixed order, keep each one's
raw draws, then build their matrices and make one stacked backward call per
dimension (and embedding, for `gradient_oracle`).
`barycenter` and `bn_embed` solve all of their barycenter problems in one
stacked call. Every suite checks its sizes before its first draw, so one
given nothing to check raises InvalidSpec instead of passing vacuously.

Every suite returns PropertyResult records carrying the measured quantities,
so the JSON summary documents not just pass/fail but the observed margins.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import geometry, spdcore
from .data import SynthSpec, synth_dataset
from .embedding import (EmbeddingKind, embed, embed_backward, embed_batch, reconstruct_spd, vech,
                        vech_batch)
from .errors import InvalidSpec, checked_seed
from .geometry import (
    DistanceKind,
    barycenter_map,
    bw_barycenter,
    bw_distance_pairs,
    dispersion_report,
    distance_pairs,
)
from .network import ModelConfig, SpdTokenTransformer, geometric_bias
from .spdcore import (
    IDENTITY,
    LOG,
    SQRT,
    dk_matrix,
    eig_sym,
    eig_sym_batch,
    orthogonal_from_normals,
    spectral_apply_batch,
    spectral_backward,
    spectral_reconstruct,
    sym,
)
from .stats import loglog_slope


@dataclass
class PropertyResult:
    suite: str
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"[{status}] {self.suite}/{self.name}" + (f" ({extras})" if extras else "")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _spd_draws(rng, d, kappa_max):
    """One SPD matrix's raw draws, d >= 2: its condition ratio <= kappa_max,
    the normals of its eigenbasis, then the rest of its spectrum."""
    kappa = 10 ** rng.uniform(0.0, np.log10(kappa_max))
    Z = rng.standard_normal((d, d))
    return Z, np.concatenate([[1.0, kappa], np.exp(rng.uniform(0, np.log(kappa), d - 2))])


def _spd_from_draws(Zs, lams):
    """The SPD stack of stacked `_spd_draws`: one QR and one product."""
    return spectral_reconstruct(orthogonal_from_normals(Zs), lams, IDENTITY)


def _random_spd_stack(rng, n, d, kappa_max):
    """(n, d, d) SPD stack, d >= 2, each matrix with its own condition ratio
    <= kappa_max; the draws come matrix by matrix, the QR and products in one
    call each."""
    Zs, lams = zip(*(_spd_draws(rng, d, kappa_max) for _ in range(n)))
    return _spd_from_draws(np.stack(Zs), np.stack(lams))


def _random_symmetric(rng, d, *lead):
    return sym(rng.standard_normal((*lead, d, d)))


def _dim_groups(rng, n, lo, hi):
    """n dimensions drawn from [lo, hi) up front, as (d, count) pairs by rising d."""
    dims, counts = np.unique(rng.integers(lo, hi, n), return_counts=True)
    return zip(dims.tolist(), counts.tolist())


def _fro(Ms):
    return np.linalg.norm(Ms, axis=(-2, -1))


def _at_least(least: int, **sizes) -> None:
    """Raise InvalidSpec unless every size is an int of at least `least`; a
    tuple size counts its entries. Suites call it before their first draw, so
    a suite given nothing to check fails typed instead of passing vacuously."""
    for name, size in sizes.items():
        counted = isinstance(size, (tuple, list))
        count = len(size) if counted else size
        if isinstance(count, bool) or not isinstance(count, int) or count < least:
            need = f"needs at least {least} entries" if counted else f"must be an int >= {least}"
            raise InvalidSpec(f"{name} {need}, got {size!r}")


# -- suites ----------------------------------------------------------------------


def suite_norm_equivalence(rng, trials=300) -> list:
    _at_least(1, trials=trials)
    margins = []
    for d, n in _dim_groups(rng, trials, 2, 12):
        M = _random_symmetric(rng, d, n)
        fro = _fro(M)
        tok = np.linalg.norm(vech_batch(M), axis=1)
        margins.append((np.min(tok - fro / np.sqrt(2.0)), np.min(fro - tok)))
    worst_lo, worst_hi = np.min(margins, axis=0)
    ok = worst_lo >= -1e-12 and worst_hi >= -1e-12
    diag = np.diag([1.0, 2.0, 3.0])
    tight_hi = abs(np.linalg.norm(vech(diag)) - np.linalg.norm(diag)) <= 1e-12
    hollow = np.array([[0.0, 2.0], [2.0, 0.0]])
    tight_lo = abs(np.linalg.norm(vech(hollow)) - np.linalg.norm(hollow) / np.sqrt(2.0)) <= 1e-12
    return [
        PropertyResult("norm_equivalence", "sandwich", bool(ok),
                       {"trials": trials, "worst_lower_margin": float(worst_lo),
                        "worst_upper_margin": float(worst_hi)}),
        PropertyResult("norm_equivalence", "tight_cases", tight_hi and tight_lo, {}),
    ]


def distortion_sweep(rng, d, n_pairs, kappa_max=100.0) -> dict:
    """Vectorised distortion-bound check over random pairs at one dimension,
    with each pair's measured condition ratio as the kappa bound."""
    As = _random_spd_stack(rng, n_pairs, d, kappa_max)
    Bs = _random_spd_stack(rng, n_pairs, d, kappa_max)
    chk = geometry.distortion_checks(As, Bs)
    bounds = {"lower": chk.lower_ok, "sandwich_upper": chk.upper_ok,
              "sandwich_lower": chk.sandwich_lower_ok, "procrustes": chk.procrustes_ok,
              "powers_stormer": chk.powers_stormer_ok, "lipschitz": chk.lipschitz_ok}
    violations = {name: int(np.sum(~ok)) for name, ok in bounds.items()}
    return {"violations": violations, "n_pairs": n_pairs, "dim": d,
            "max_ratio": float(np.max(chk.token_distance / np.maximum(chk.bw, 1e-30)))}


def suite_distortion(rng, dims=(2, 5, 8, 22), n_pairs=1000, kappa_max=100.0) -> list:
    _at_least(1, dims=dims, n_pairs=n_pairs)
    _at_least(2, smallest_dim=min(dims))
    results = []
    for d in dims:
        sweep = distortion_sweep(rng, d, n_pairs, kappa_max)
        total = sum(sweep["violations"].values())
        results.append(PropertyResult(
            "distortion", f"random_pairs_d{d}", total == 0,
            {"n_pairs": n_pairs, **sweep["violations"]}))
    # commuting pairs: transport distance equals the sqrt-space Frobenius gap;
    # each pair shares the eigenbasis of one random symmetric matrix
    worst = 0.0
    for d, n in _dim_groups(rng, 50, 2, 9):
        Q, _ = eig_sym_batch(_random_symmetric(rng, d, n))
        A = spectral_reconstruct(Q, rng.uniform(0.5, 4.0, (n, d)), IDENTITY)
        B = spectral_reconstruct(Q, rng.uniform(0.5, 4.0, (n, d)), IDENTITY)
        sqrt_gap = _fro(spectral_apply_batch(A, SQRT) - spectral_apply_batch(B, SQRT))
        worst = max(worst, float(np.max(np.abs(bw_distance_pairs(A, B) - sqrt_gap))))
    results.append(PropertyResult("distortion", "commuting_identity", worst <= 1e-8,
                                  {"worst_gap": worst}))
    chk = geometry.distortion_check(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]), kappa_bound=4.0)
    results.append(PropertyResult("distortion", "tightness_cases",
                                  abs(chk.ratio - 1.0) <= 1e-9, {"diag_ratio": chk.ratio}))
    return results


def suite_injectivity(rng, trials=100) -> list:
    _at_least(1, trials=trials)
    worst = 0.0
    for d, n in _dim_groups(rng, trials, 2, 9):
        A = _random_spd_stack(rng, n, d, 100.0)
        B = reconstruct_spd(embed_batch(A, EmbeddingKind.BWSPD), EmbeddingKind.BWSPD)
        worst = max(worst, float(np.max(_fro(A - B) / np.maximum(_fro(A), 1e-30))))
    return [PropertyResult("injectivity", "token_round_trip", worst <= 1e-8,
                           {"trials": trials, "worst_rel_gap": worst})]


def suite_metrics(rng, triples=1000) -> list:
    _at_least(10, triples=triples)  # triples // 10 pairs are drawn
    # one draw for every kind: pairs at d = 4 (symmetry, identity), triples at d = 3
    A, B = (_random_spd_stack(rng, triples // 10, 4, 100.0) for _ in range(2))
    # sqrt(tr A) = ||sqrt(A)||_F, the size of the roots the distance compares
    scale = np.maximum(1.0, np.sqrt(np.trace(A, axis1=1, axis2=2)))
    X, Y, Z = (_random_spd_stack(rng, triples, 3, 100.0) for _ in range(3))
    results = []
    for kind in DistanceKind:
        d_ab, d_ba = distance_pairs(np.concatenate([A, B]), np.concatenate([B, A]), kind).reshape(2, -1)
        sym_worst = float(np.max(np.abs(d_ab - d_ba), initial=0.0))
        self_worst = float(np.max(distance_pairs(A, A, kind) / scale, initial=0.0))
        d_xz, d_xy, d_yz = distance_pairs(np.concatenate([X, X, Y]), np.concatenate([Z, Y, Z]),
                                          kind).reshape(3, -1)
        tri_viol = int(np.sum(d_xz > d_xy + d_yz + 1e-9))
        results.append(PropertyResult(
            "metrics", f"axioms_{kind.value}",
            bool(sym_worst <= 1e-7 and self_worst <= 1e-7 and tri_viol == 0),
            {"symmetry_worst": sym_worst, "scaled_self_worst": self_worst,
             "triangle_violations": tri_viol, "triples": triples}))
    return results


def suite_reconstruction(rng, trials=40) -> list:
    _at_least(1, trials=trials)
    worst_sqrt = 0.0
    worst_log = 0.0
    for d, n in _dim_groups(rng, trials, 2, 12):
        C = _random_spd_stack(rng, n, d, 1e4)
        S = spectral_apply_batch(C, SQRT)
        worst_sqrt = max(worst_sqrt, float(np.max(_fro(S @ S - C) / _fro(C))))
        back = spectral_apply_batch(spectral_apply_batch(C, LOG), spdcore.EXP, clip=-np.inf)
        worst_log = max(worst_log, float(np.max(_fro(back - C) / _fro(C))))
    return [
        PropertyResult("reconstruction", "sqrt_squares_back", worst_sqrt <= 1e-8,
                       {"worst_rel": worst_sqrt}),
        PropertyResult("reconstruction", "exp_inverts_log", worst_log <= 1e-8,
                       {"worst_rel": worst_log}),
    ]


def check_dk_matrix(lam: np.ndarray, entries: np.ndarray, fn_name: str) -> dict:
    """Range/ratio law check for a divided-difference matrix.

    Returns the measured entry-range ratio and whether every entry is finite,
    inside the theoretical bounds, and the ratio matches sqrt(kappa) (sqrt) or
    kappa (log) to 1e-6 relative.
    """
    lam = np.asarray(lam, dtype=np.float64)
    kappa = float(lam.max() / lam.min())
    finite = bool(np.all(np.isfinite(entries)))
    mags = np.abs(entries)
    ratio = float(mags.max() / mags.min()) if finite and mags.min() > 0 else float("inf")
    if fn_name == "sqrt":
        lo, hi = 1.0 / (2.0 * np.sqrt(lam.max())), 1.0 / (2.0 * np.sqrt(lam.min()))
        want = np.sqrt(kappa)
    elif fn_name == "log":
        lo, hi = 1.0 / lam.max(), 1.0 / lam.min()
        want = kappa
    else:
        lo, hi, want = 1.0, 1.0, 1.0
    in_bounds = finite and bool(np.all(mags >= lo * (1 - 1e-9)) and np.all(mags <= hi * (1 + 1e-9)))
    ratio_ok = finite and abs(ratio - want) <= 1e-6 * want
    return {"ok": finite and in_bounds and ratio_ok, "finite": finite,
            "in_bounds": in_bounds, "ratio": ratio, "expected_ratio": want,
            "kappa": kappa}


def _spectrum(rng, d, kappa, clustered=False):
    if d == 2:
        return np.array([kappa, 1.0])
    if clustered:
        half = d // 2
        base = np.concatenate([np.full(half, kappa), np.full(d - half, 1.0)])
        jitter = 1.0 + rng.uniform(0.0, 1e-9, d)
        return np.sort(base * jitter)[::-1]
    return np.sort(np.concatenate([[1.0, kappa], np.exp(rng.uniform(0, np.log(kappa), d - 2))]))[::-1]


def suite_conditioning(rng, dims=(2, 5, 13, 22), kappas=(10.0, 100.0, 1e4)) -> list:
    _at_least(1, dims=dims, kappas=kappas)
    _at_least(2, smallest_dim=min(dims))
    if min(kappas) < 1.0:
        raise InvalidSpec(f"kappas must be at least 1, got {kappas!r}")
    results = []
    all_ok = True
    worst_rel = 0.0
    for d in dims:
        for kappa in kappas:
            for clustered in (False, True):
                lam = _spectrum(rng, d, kappa, clustered)
                for fn in (SQRT, LOG):
                    chk = check_dk_matrix(lam, dk_matrix(lam, fn).entries, fn.name)
                    all_ok = all_ok and chk["ok"]
                    worst_rel = max(worst_rel,
                                    abs(chk["ratio"] - chk["expected_ratio"]) / chk["expected_ratio"])
    results.append(PropertyResult("conditioning", "range_ratio_law", all_ok,
                                  {"worst_rel_error": worst_rel,
                                   "dims": list(dims), "kappas": list(kappas)}))
    # 2x2 exactness at 1e-9 and the kappa=100 ratio pair (10, 100)
    lam2 = np.array([100.0, 1.0])
    sqrt_ratio = dk_matrix(lam2, SQRT).entry_range_ratio
    log_ratio = dk_matrix(lam2, LOG).entry_range_ratio
    results.append(PropertyResult(
        "conditioning", "kappa100_pair",
        abs(sqrt_ratio - 10.0) <= 1e-9 * 10.0 and abs(log_ratio - 100.0) <= 1e-9 * 100.0,
        {"sqrt_ratio": float(sqrt_ratio), "log_ratio": float(log_ratio)}))
    ident = dk_matrix(np.array([3.0, 1.0, 0.5]), IDENTITY)
    results.append(PropertyResult("conditioning", "identity_all_ones",
                                  bool(np.all(ident.entries == 1.0)), {}))
    lam_dup = np.array([2.0, 2.0, 1.0])
    chk = check_dk_matrix(lam_dup, dk_matrix(lam_dup, LOG).entries, "log")
    results.append(PropertyResult("conditioning", "degenerate_spectrum_log", chk["ok"],
                                  {"ratio": chk["ratio"]}))
    return results


def suite_gradient_bounds(rng, trials=100) -> list:
    _at_least(1, trials=trials)
    groups = {}  # d -> [(Z, lam, G)], drawn in one fixed order
    for _ in range(trials):
        d = int(rng.integers(2, 12))
        Z, lam = _spd_draws(rng, d, 1e4)
        G = _random_symmetric(rng, d)
        groups.setdefault(d, []).append((Z, lam, G / np.linalg.norm(G)))
    excess = []
    for group in groups.values():
        Zs, lams, Gs = (np.stack(x) for x in zip(*group))
        eig = spdcore.EigenPair(*eig_sym_batch(_spd_from_draws(Zs, lams)))
        lam_min = np.maximum(eig.values.min(axis=1), spdcore.CLIP_FLOOR)
        for fn in (SQRT, LOG):
            grads = spectral_backward(eig, fn, Gs)
            excess += [np.linalg.norm(g) / spdcore.gradient_norm_bound(fn, float(lo))
                       for g, lo in zip(grads, lam_min)]
    return [PropertyResult("gradient_bounds", "unit_upstream_norm",
                           all(e <= 1.05 for e in excess),
                           {"trials": trials, "worst_norm_over_bound": max(excess, default=0.0)})]


def suite_gradient_oracle(rng, dims=(2, 3, 5, 8, 22), per_dim=40) -> list:
    """Directional finite differences for the spectral and embedding backward passes."""
    _at_least(1, dims=dims, per_dim=per_dim)
    _at_least(2, smallest_dim=min(dims))
    kinds = (EmbeddingKind.BWSPD, EmbeddingKind.LOG_EUCLIDEAN)
    groups = {}  # (d, kind) -> [(Z, lam, w, E)], drawn in one fixed order
    for d in dims:
        for _ in range(per_dim):
            Z, lam = _spd_draws(rng, d, 1e4)
            kind = kinds[int(rng.integers(0, 2))]
            w = rng.standard_normal(d * (d + 1) // 2)
            E = _random_symmetric(rng, d)
            groups.setdefault((d, kind), []).append((Z, lam, w, E / np.linalg.norm(E)))
    errs = []
    for (_, kind), group in groups.items():
        Zs, lams, Ws, Es = (np.stack(x) for x in zip(*group))
        Cs = _spd_from_draws(Zs, lams)
        grads = embed_backward(Cs, kind, Ws)
        hs = np.array([1e-5 * np.linalg.norm(C) for C in Cs])
        hi, lo = (embed_batch(Cs + sign * hs[:, None, None] * Es, kind) for sign in (1.0, -1.0))
        for w, g, E, h, t_hi, t_lo in zip(Ws, grads, Es, hs, hi, lo):
            want = (float(w @ t_hi) - float(w @ t_lo)) / (2.0 * h)
            got = float(np.sum(g * E))
            errs.append((abs(got - want), max(1e-4, 1e-2 * abs(got))))
    failures = sum(err > tol for err, tol in errs)
    worst = max((err / tol for err, tol in errs), default=0.0)
    return [PropertyResult("gradient_oracle", "token_to_matrix_fd", failures == 0,
                           {"instances": len(errs), "failures": failures,
                            "worst_err_over_tol": worst})]


@contextmanager
def _frozen_relu(masks: list):
    """Patch `ad.relu` for the block: with `masks` empty, each call records its
    mask x > 0 and runs the real op; with `masks` filled, the calls replay the
    recorded masks in order. A finite-difference stencil evaluated under the
    masks of its base point measures the derivative of the branch the tape
    differentiated, even when the step crosses a ReLU kink."""
    real = ad.relu
    recording = not masks
    replay = iter(list(masks))

    def relu(a):
        a = ad.as_tensor(a)
        if recording:
            masks.append(a.data > 0)
            return real(a)
        return ad.Tensor(a.data * next(replay))

    ad.relu = relu
    try:
        yield
    finally:
        ad.relu = real


# finite-difference stencils per stacked forward of the micro model: 16 model
# replicas take about 0.5 MB, where all 102 of a default check took 3.3 MB
STENCIL_STACK = 16


def micro_model_gradient_check(rng, n_params=50, seq_len=1, attention="standard",
                               use_bn_embed=True) -> dict:
    """Finite differences on a tiny transformer over `seq_len` sqrt tokens per
    trial, including the sqrt-token path through trial 0's first token, with
    every stencil evaluated under the ReLU masks of the base point. Geometric
    attention reads `geometric_bias` of the base tokens, a constant of the
    tape, so the input stencil holds it fixed too.

    The ±h stencils of the n_params picked entries and the two input-path
    stencils run as slices of stacked copies of the model, at most
    STENCIL_STACK per forward: ceil((2 n_params + 2) / STENCIL_STACK)
    forwards besides the one taped pass, on tokens that require grad, which
    gives the parameter and the token gradients together. A slice keeps the
    bits of its one-model forward (see `network`), so every loss, and the
    result, is the one a forward per stencil gives."""
    d = 4
    D = d * (d + 1) // 2
    model = SpdTokenTransformer(ModelConfig(d_token=D, n_classes=3, d_model=16, layers=2,
                                            heads=2, d_ff=24, dropout=0.0, seq_len=seq_len,
                                            attention=attention, use_bn_embed=use_bn_embed),
                                seed=5)
    Cs = _random_spd_stack(rng, 6 * seq_len, d, 100.0)
    tokens = embed_batch(Cs, EmbeddingKind.BWSPD).reshape(6, seq_len, D)
    labels = rng.integers(0, 3, 6)
    bias = geometric_bias(tokens, EmbeddingKind.BWSPD) if attention == "geometric" else None

    masks = []
    model.zero_grad()
    tok_t = ad.Tensor(tokens, requires_grad=True)
    with _frozen_relu(masks):
        loss = ad.cross_entropy(model.forward(tok_t, training=True, attn_bias=bias), labels)
    loss.backward()
    names = list(model.params)
    steps, grads = [], []
    stencils = []  # (parameter name, entry, value, tokens); name None moves only the tokens
    for _ in range(n_params):
        name = names[int(rng.integers(0, len(names)))]
        p = model.params[name]
        idx = np.unravel_index(int(rng.integers(0, p.data.size)), p.data.shape)
        old = p.data[idx]
        h = 1e-5 * max(1.0, abs(old))
        steps.append(h)
        grads.append(p.grad[idx] if p.grad is not None else 0.0)
        stencils += [(name, idx, old + h, tokens), (name, idx, old - h, tokens)]
    # input-gradient path: token gradient -> matrix gradient via the adjoint
    grad_C0 = embed_backward(Cs[0], EmbeddingKind.BWSPD, tok_t.grad[0, 0])
    E = _random_symmetric(rng, d)
    E /= np.linalg.norm(E)
    h = 1e-5 * np.linalg.norm(Cs[0])
    for sign in (1.0, -1.0):
        toks = tokens.copy()
        toks[0, 0] = embed(Cs[0] + sign * h * E, EmbeddingKind.BWSPD)
        stencils.append((None, None, None, toks))

    losses = []
    stack = None
    for start in range(0, len(stencils), STENCIL_STACK):
        chunk = stencils[start:start + STENCIL_STACK]
        if stack is None or stack.stack != (len(chunk),):
            stack = SpdTokenTransformer.stacked([model] * len(chunk))
        moved = [(s, name, idx, value) for s, (name, idx, value, _) in enumerate(chunk)
                 if name is not None]
        for s, name, idx, value in moved:
            stack.params[name].data[(s,) + idx] = value
        with _frozen_relu(masks):
            logits = stack.forward(np.stack([toks for *_, toks in chunk]), training=True,
                                   attn_bias=bias)
        losses += ad.cross_entropy(logits, labels).data.tolist()
        for s, name, idx, _ in moved:  # back to the base point for the next chunk
            stack.params[name].data[(s,) + idx] = model.params[name].data[idx]

    failures = 0
    worst = 0.0
    for j, (step, got) in enumerate(zip(steps, grads)):
        num = (losses[2 * j] - losses[2 * j + 1]) / (2.0 * step)
        tol = max(1e-4, 1e-2 * abs(got))
        err = abs(got - num)
        worst = max(worst, err / tol)
        failures += err > tol
    want = (losses[-2] - losses[-1]) / (2.0 * h)
    got = float(np.sum(grad_C0 * E))
    input_ok = abs(got - want) <= max(1e-4, 1e-2 * abs(got))
    return {"param_checks": n_params, "param_failures": int(failures),
            "worst_err_over_tol": float(worst), "input_path_ok": bool(input_ok)}


def suite_micro_model(rng, n_params=50) -> list:
    _at_least(1, n_params=n_params)
    res = micro_model_gradient_check(rng, n_params)
    ok = res["param_failures"] == 0 and res["input_path_ok"]
    return [PropertyResult("gradient_oracle", "micro_model_fd", ok, res)]


def suite_barycenter(rng, batches=5, n=32, eps=0.2, d=5, tol=1e-10) -> list:
    _at_least(1, batches=batches, n=n)
    results = []
    A = _random_spd_stack(rng, 1, 4, 50.0)[0]
    mu = bw_barycenter(A[None])
    results.append(PropertyResult("barycenter", "singleton_identity",
                                  np.linalg.norm(mu - A) <= 1e-9 * np.linalg.norm(A), {}))
    mu = bw_barycenter(np.stack([A, A, A]))
    results.append(PropertyResult("barycenter", "duplicate_identity",
                                  np.linalg.norm(mu - A) <= 1e-9 * np.linalg.norm(A), {}))
    stacks = np.stack([synth_dataset(SynthSpec(n_classes=1, dim=d, trials_per_class=n,
                                                separation=0.0, dispersion=eps,
                                                seed=700 + b)).matrices for b in range(batches)])
    resids = [np.linalg.norm(mu - barycenter_map(mu, S)) / np.linalg.norm(mu)
              for mu, S in zip(bw_barycenter(stacks, tol=tol), stacks)]
    worst_resid = max(resids)
    ok = all(r <= tol for r in resids)
    results.append(PropertyResult("barycenter", "clustered_residual", ok,
                                  {"batches": batches, "n": n, "dispersion": eps,
                                   "worst_rel_residual": worst_resid}))
    return results


def bn_embed_slope(rng, eps_levels=(0.02, 0.05, 0.1, 0.15, 0.2), batches_per_eps=20,
                   n=32, d=5) -> dict:
    """Log-log slope of the sqrt-space mean gap against dispersion.

    Batches are perturbation-paired across dispersion levels (same seed ->
    same directions), isolating the second-order term.
    """
    _at_least(1, batches_per_eps=batches_per_eps)
    _at_least(2, eps_levels=eps_levels, n=n)
    rep = dispersion_report(np.stack([
        synth_dataset(SynthSpec(n_classes=1, dim=d, trials_per_class=n, separation=0.0,
                                dispersion=eps, seed=3000 + b)).matrices
        for eps in eps_levels for b in range(batches_per_eps)]))
    levels = len(eps_levels)
    gaps = [float(np.mean(g)) for g in rep.sqrt_mean_gap.reshape(levels, -1)]
    measured_eps = [float(np.mean(e)) for e in rep.epsilon.reshape(levels, -1)]
    slope = loglog_slope(eps_levels, gaps)
    return {"slope": slope, "eps_levels": list(eps_levels), "mean_gaps": gaps,
            "measured_eps": measured_eps}


def suite_bn_embed(rng, **kw) -> list:
    res = bn_embed_slope(rng, **kw)
    ok = 1.7 <= res["slope"] <= 2.3
    return [PropertyResult("bn_embed", "second_order_gap_slope", ok, res)]


def suite_pair_counts(rng) -> list:
    results = []
    for d, want in ((8, 28), (22, 231)):
        lam = _spectrum(rng, d, 100.0)
        dk = dk_matrix(lam, LOG)
        results.append(PropertyResult("pair_counts", f"offdiag_pairs_d{d}",
                                      dk.pairs == want, {"pairs": dk.pairs, "expected": want}))
    lam_sep = _spectrum(rng, 8, 100.0, clustered=False)
    lam_clu = _spectrum(rng, 8, 100.0, clustered=True)
    p_sep = dk_matrix(lam_sep, LOG).branch_fraction
    p_clu = dk_matrix(lam_clu, LOG).branch_fraction
    results.append(PropertyResult("pair_counts", "branch_fraction_clustered",
                                  p_clu > p_sep, {"p_separated": p_sep, "p_clustered": p_clu}))
    return results


def suite_determinism(rng) -> list:
    C = _random_spd_stack(rng, 1, 22, 1000.0)[0]
    e1 = eig_sym(C.copy())
    e2 = eig_sym(C.copy())
    eig_ok = np.array_equal(e1.vectors, e2.vectors) and np.array_equal(e1.values, e2.values)
    from .train import DataConfig, ExperimentConfig, run_single, tokenize

    data = DataConfig(source="synth", embedding="logeuclidean",
                      synth=dict(n_classes=2, dim=4, trials_per_class=12,
                                 separation=1.0, dispersion=0.05, seed=17))
    exp = ExperimentConfig(data=data, model=dict(d_model=16, layers=1, heads=2, d_ff=16,
                                                 dropout=0.1),
                           epochs=2, batch_size=8, seeds=(7,))
    tds = tokenize(data)
    m1 = run_single(exp, tds, 7).to_metrics_dict()
    m2 = run_single(exp, tds, 7).to_metrics_dict()
    train_ok = json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    return [
        PropertyResult("determinism", "eig_bit_identical", bool(eig_ok), {}),
        PropertyResult("determinism", "training_run_bit_identical", bool(train_ok), {}),
    ]


SUITES = {
    "norm_equivalence": suite_norm_equivalence,
    "distortion": suite_distortion,
    "injectivity": suite_injectivity,
    "metrics": suite_metrics,
    "reconstruction": suite_reconstruction,
    "conditioning": suite_conditioning,
    "gradient_bounds": suite_gradient_bounds,
    "gradient_oracle": suite_gradient_oracle,
    "micro_model": suite_micro_model,
    "barycenter": suite_barycenter,
    "bn_embed": suite_bn_embed,
    "pair_counts": suite_pair_counts,
    "determinism": suite_determinism,
}


def run_verification(name_filter: str | None = None, seed: int = 0):
    """Run matching suites; returns (results, all_passed)."""
    checked_seed(seed)
    selected = {k: v for k, v in SUITES.items()
                if name_filter is None or name_filter in k}
    if not selected:
        raise InvalidSpec(f"no suite matches filter {name_filter!r}; "
                          f"available: {', '.join(SUITES)}")
    results = []
    for name, fn in selected.items():
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        results.extend(fn(rng))
    return results, all(r.passed for r in results)


def _plain(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def results_to_json(results) -> dict:
    return {
        "all_passed": all(r.passed for r in results),
        "properties": [_plain(asdict(r)) for r in results],
    }
