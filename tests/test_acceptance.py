"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria with stated runtime budgets are timed. The learning criteria (6-8)
train real models over the five acceptance seeds and take a few minutes
combined; everything else runs in seconds. Run with `pytest -s
tests/test_acceptance.py` to watch the per-criterion lines.
"""

import time

import numpy as np

from spdtok.bench import run_bench
from spdtok.data import SynthSpec, nearest_anchor_accuracy, synth_dataset
from spdtok.geometry import bw_barycenter, bw_distance
from spdtok.spdcore import LOG, SQRT, dk_matrix, spectral_apply, spectral_apply_batch, sym
from spdtok.tasks import (
    ACCEPTANCE_SEEDS,
    band_mixture_experiment,
    bn_dimension_experiment,
    geometry_gap_experiment,
    learning_sanity_experiment,
)
from spdtok.train import train_experiment
from spdtok.verify import (
    bn_embed_slope,
    check_dk_matrix,
    distortion_sweep,
    micro_model_gradient_check,
    suite_gradient_oracle,
)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status}: {name} -- {detail}", flush=True)
    return ok


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    token_results = suite_gradient_oracle(rng, dims=(2, 3, 5, 8, 22), per_dim=40)
    micro = micro_model_gradient_check(np.random.default_rng(102), n_params=50)
    # T = 3 runs through Q/K, the softmax, the head split and, in geometric
    # mode, the bias; the input path goes through one band's token
    micro_t3 = [micro_model_gradient_check(np.random.default_rng(103), n_params=50, seq_len=3,
                                           attention=attention, use_bn_embed=bn)
                for attention in ("standard", "geometric") for bn in (True, False)]
    wall = time.perf_counter() - t0
    instances = token_results[0].measured["instances"]
    ok = (token_results[0].passed and instances >= 200
          and all(m["param_failures"] == 0 and m["input_path_ok"] for m in [micro, *micro_t3])
          and wall < 120.0)
    t3_params = sum(m["param_checks"] for m in micro_t3)
    assert _report(1, "end-to-end finite-difference gradient agreement", ok,
                   f"{instances} token-path instances + {micro['param_checks']} "
                   f"micro-model parameters at T = 1 + {t3_params} at T = 3 (both attention "
                   f"modes, BN on and off), tolerance max(1e-4, 1e-2|g|), {wall:.1f}s")


def test_criterion_02_conditioning_law():
    rng = np.random.default_rng(202)
    ok = True
    worst_2x2 = 0.0
    for kappa in (10.0, 100.0, 1e4):
        lam = np.array([kappa, 1.0])
        sq = dk_matrix(lam, SQRT).entry_range_ratio
        lg = dk_matrix(lam, LOG).entry_range_ratio
        worst_2x2 = max(worst_2x2,
                        abs(sq - np.sqrt(kappa)) / np.sqrt(kappa),
                        abs(lg - kappa) / kappa)
        ok = ok and abs(sq - np.sqrt(kappa)) <= 1e-9 * np.sqrt(kappa)
        ok = ok and abs(lg - kappa) <= 1e-9 * kappa
    worst_rand = 0.0
    for d in (5, 13, 22):
        for kappa in (10.0, 100.0, 1e4):
            for _ in range(5):
                lam = np.concatenate([[1.0, kappa],
                                      np.exp(rng.uniform(0, np.log(kappa), d - 2))])
                for fn, want in ((SQRT, np.sqrt(kappa)), (LOG, kappa)):
                    chk = check_dk_matrix(lam, dk_matrix(lam, fn).entries, fn.name)
                    rel = abs(chk["ratio"] - want) / want
                    worst_rand = max(worst_rand, rel)
                    ok = ok and rel <= 1e-6
    lam100 = np.array([100.0, 1.0])
    pair = (dk_matrix(lam100, SQRT).entry_range_ratio,
            dk_matrix(lam100, LOG).entry_range_ratio)
    ok = ok and abs(pair[0] - 10.0) <= 1e-9 * 10 and abs(pair[1] - 100.0) <= 1e-9 * 100
    assert _report(2, "divided-difference conditioning sqrt(k) vs k", ok,
                   f"2x2 worst rel {worst_2x2:.2e} (tol 1e-9), random d<=22 worst rel "
                   f"{worst_rand:.2e} (tol 1e-6), kappa=100 ratio pair "
                   f"({pair[0]:.6f}, {pair[1]:.6f})")


def test_criterion_03_distortion_bounds():
    rng = np.random.default_rng(303)
    total_violations = 0
    per_dim = {}
    for d in (2, 5, 8, 22):
        sweep = distortion_sweep(rng, d, n_pairs=1000, kappa_max=100.0)
        n_viol = sum(sweep["violations"].values())
        per_dim[d] = n_viol
        total_violations += n_viol
    worst_commuting = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        Q, R = np.linalg.qr(rng.standard_normal((d, d)))
        Q = Q * np.sign(np.diag(R))
        A = sym((Q * rng.uniform(0.5, 4.0, d)) @ Q.T)
        B = sym((Q * rng.uniform(0.5, 4.0, d)) @ Q.T)
        gap = abs(bw_distance(A, B)
                  - np.linalg.norm(spectral_apply(A, SQRT) - spectral_apply(B, SQRT)))
        worst_commuting = max(worst_commuting, gap)
    ok = total_violations == 0 and worst_commuting <= 1e-8
    assert _report(3, "distortion/Procrustes/Powers-Stormer bounds", ok,
                   f"4000 random pairs (kappa<=100) violations {per_dim}, commuting "
                   f"identity worst gap {worst_commuting:.2e} (tol 1e-8)")


def test_criterion_04_barycenter():
    rng = np.random.default_rng(404)
    tol = 1e-10
    worst_resid = 0.0
    for b in range(5):
        ds = synth_dataset(SynthSpec(n_classes=1, dim=5, trials_per_class=32,
                                     separation=0.0, dispersion=0.2, seed=9000 + b))
        mu = bw_barycenter(ds.matrices, tol=tol)
        sq = spectral_apply(mu, SQRT)
        inner = sq[None] @ ds.matrices @ sq[None]
        mapped = sym(np.mean(spectral_apply_batch(sym(inner), SQRT), axis=0))
        worst_resid = max(worst_resid, np.linalg.norm(mu - mapped) / np.linalg.norm(mu))
    A = synth_dataset(SynthSpec(n_classes=1, dim=4, trials_per_class=1, separation=0.0,
                                dispersion=0.0, seed=1)).matrices[0]
    singleton = np.linalg.norm(bw_barycenter(A[None]) - A) / np.linalg.norm(A)
    duplicates = np.linalg.norm(bw_barycenter(np.stack([A, A])) - A) / np.linalg.norm(A)
    ok = worst_resid <= tol and singleton <= 1e-9 and duplicates <= 1e-9
    assert _report(4, "barycenter fixed-point residual", ok,
                   f"clustered batches (n=32, eps=0.2) worst residual {worst_resid:.2e} "
                   f"(tol 1e-10), singleton {singleton:.2e}, duplicates {duplicates:.2e}")


def test_criterion_05_bn_embed_second_order():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    res = bn_embed_slope(rng, eps_levels=(0.02, 0.05, 0.1, 0.15, 0.2),
                         batches_per_eps=20, n=32, d=5)
    wall = time.perf_counter() - t0
    ok = 1.7 <= res["slope"] <= 2.3 and wall < 60.0
    assert _report(5, "sqrt-space mean gap is second order in dispersion", ok,
                   f"log-log slope {res['slope']:.3f} in [1.7, 2.3], "
                   f"20 batches x 5 levels, {wall:.1f}s")


def test_criterion_06_learning_sanity():
    exp = learning_sanity_experiment()
    ds = synth_dataset(SynthSpec.from_dict(exp.data.synth))
    oracle = nearest_anchor_accuracy(ds)
    summary, _ = train_experiment(exp)
    mean = summary["final_test_accuracy_mean"]
    ok = mean >= 0.95 and oracle == 1.0
    assert _report(6, "tangent-space transformer on the 4-class d=22 task", ok,
                   f"mean final test accuracy {mean:.4f} (need >= 0.95) over "
                   f"{len(ACCEPTANCE_SEEDS)} seeds; nearest-anchor oracle {oracle:.4f}")


def test_criterion_07_bn_dimension_dependence():
    gaps = {}
    means = {}
    for d in (56, 8):
        with_bn, _ = train_experiment(bn_dimension_experiment(d, use_bn_embed=True))
        without_bn, _ = train_experiment(bn_dimension_experiment(d, use_bn_embed=False))
        gaps[d] = with_bn["final_test_accuracy_mean"] - without_bn["final_test_accuracy_mean"]
        means[d] = (with_bn["final_test_accuracy_mean"], without_bn["final_test_accuracy_mean"])
    ok = gaps[56] >= 0.10 and abs(gaps[8]) <= 0.05
    assert _report(7, "embedding-space batch norm matters only at high token dim", ok,
                   f"D_token=1596: with {means[56][0]:.3f} vs without {means[56][1]:.3f} "
                   f"(gap {100*gaps[56]:+.1f}pp, need >= +10); "
                   f"D_token=36: gap {100*gaps[8]:+.1f}pp (need |gap| <= 5)")


def test_criterion_08_multiband():
    multi, _ = train_experiment(band_mixture_experiment(multiband=True))
    single, _ = train_experiment(band_mixture_experiment(multiband=False))
    m3 = multi["final_test_accuracy_mean"]
    m1 = single["final_test_accuracy_mean"]
    v3 = multi["final_test_accuracy_std"] ** 2
    v1 = single["final_test_accuracy_std"] ** 2
    ok = m3 >= m1 and v3 <= v1
    assert _report(8, "multi-band tokens beat the broadband token with less variance", ok,
                   f"T=3 mean {m3:.3f} vs T=1 mean {m1:.3f}; seed variance "
                   f"{v3:.2e} vs {v1:.2e}")


def test_criterion_09_reproducibility(tmp_path):
    exp = learning_sanity_experiment(seeds=(42,))
    exp.epochs = 3
    exp.data.synth["trials_per_class"] = 20
    exp.model = dict(d_model=32, layers=2, heads=4, d_ff=32)
    train_experiment(exp, str(tmp_path / "a"))
    train_experiment(exp, str(tmp_path / "b"))
    blob_a = (tmp_path / "a" / "seed42" / "metrics.json").read_bytes()
    blob_b = (tmp_path / "b" / "seed42" / "metrics.json").read_bytes()
    ok = blob_a == blob_b and len(blob_a) > 0
    assert _report(9, "identical config and seed give identical metrics bytes", ok,
                   f"{len(blob_a)} bytes compared (timing lives only in epochs.csv)")


def test_criterion_10_pair_count_diagnostics():
    result = run_bench(dims=(8, 22), trials=8, seed=0)
    pairs = {r["dim"]: r["pairs"] for r in result["rows"]}
    p_branch = {(r["dim"], r["profile"]): r["p_branch"]
                for r in result["rows"] if r["fn"] == "log"}
    ok = (pairs[8] == 28 and pairs[22] == 231
          and p_branch[(8, "clustered")] > p_branch[(8, "separated")]
          and p_branch[(22, "clustered")] > p_branch[(22, "separated")])
    assert _report(10, "pair counts and branch fraction diagnostics", ok,
                   f"pairs d=8: {pairs[8]} (want 28), d=22: {pairs[22]} (want 231); "
                   f"p_branch clustered {p_branch[(8, 'clustered')]:.3f}/"
                   f"{p_branch[(22, 'clustered')]:.3f} > separated "
                   f"{p_branch[(8, 'separated')]:.3f}/{p_branch[(22, 'separated')]:.3f}")


def test_supplementary_geometry_gap():
    # companion to criterion 6: when class structure lives in small eigenvalues
    # and anchors are Frobenius-equalised, the flat embedding trails the
    # tangent-space embedding by at least 5 points mean
    log_summary, _ = train_experiment(geometry_gap_experiment("logeuclidean"))
    euc_summary, _ = train_experiment(geometry_gap_experiment("euclidean"))
    gap = log_summary["final_test_accuracy_mean"] - euc_summary["final_test_accuracy_mean"]
    ok = gap >= 0.05
    assert _report(0, "geometry advantage over the flat embedding", ok,
                   f"tangent {log_summary['final_test_accuracy_mean']:.3f} vs flat "
                   f"{euc_summary['final_test_accuracy_mean']:.3f} "
                   f"(gap {100*gap:+.1f}pp, need >= +5)")
