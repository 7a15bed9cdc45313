import json
import zlib

import numpy as np
import pytest

from spdtok import autodiff as ad
from spdtok import verify
from spdtok.bench import run_bench
from spdtok.embedding import unvech
from spdtok.errors import InvalidSpec
from spdtok.geometry import DistanceKind
from spdtok.spdcore import LOG, dk_matrix
from spdtok.verify import (
    SUITES,
    bn_embed_slope,
    check_dk_matrix,
    distortion_sweep,
    micro_model_gradient_check,
    results_to_json,
    run_verification,
)

from conftest import stdout_at_blas_threads


def test_full_verification_passes_within_budget():
    import time

    t0 = time.perf_counter()
    results, ok = run_verification()
    wall = time.perf_counter() - t0
    failed = [r.line() for r in results if not r.passed]
    assert ok, failed
    assert wall < 600.0


def test_filter_selects_suites():
    results, ok = run_verification(name_filter="pair_counts")
    assert ok
    assert {r.suite for r in results} == {"pair_counts"}


def test_unknown_filter_rejected():
    with pytest.raises(InvalidSpec):
        run_verification(name_filter="definitely_not_a_suite")


def test_results_serialise():
    results, _ = run_verification(name_filter="injectivity")
    blob = json.dumps(results_to_json(results))
    parsed = json.loads(blob)
    assert parsed["all_passed"] is True
    assert all("measured" in p for p in parsed["properties"])


def test_every_suite_is_registered_and_passes_quickly():
    # cheap representative suites only; the heavy ones run in the acceptance module
    for name in ("norm_equivalence", "conditioning", "pair_counts", "reconstruction"):
        results, ok = run_verification(name_filter=name)
        assert ok, [r.line() for r in results if not r.passed]
    assert set(SUITES) >= {"distortion", "gradient_oracle", "barycenter", "bn_embed",
                           "metrics", "determinism", "micro_model", "injectivity",
                           "gradient_bounds"}


def test_deterministic_given_seed():
    a, _ = run_verification(name_filter="pair_counts", seed=3)
    b, _ = run_verification(name_filter="pair_counts", seed=3)
    assert json.dumps(results_to_json(a), sort_keys=True) == \
        json.dumps(results_to_json(b), sort_keys=True)


def test_json_bytes_independent_of_blas_threads(tmp_path):
    blobs = []
    for threads in ("1", "2"):
        path = tmp_path / f"verify_{threads}.json"
        stdout_at_blas_threads(["-m", "spdtok.cli", "verify", "--seed", "0",
                                "--json", str(path)], threads)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_mutation_naive_log_dk_fails_conditioning_check():
    # a divided-difference implementation without the near-degeneracy branch
    # produces NaN on repeated eigenvalues; the conditioning check must reject it
    lam = np.array([2.0, 2.0, 1.0])

    def naive_dk(values):
        li = values[:, None]
        lj = values[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            K = (np.log(li) - np.log(lj)) / (li - lj)
        np.fill_diagonal(K, 1.0 / values)
        return K

    bad = check_dk_matrix(lam, naive_dk(lam), "log")
    assert not bad["ok"]
    good = check_dk_matrix(lam, dk_matrix(lam, LOG).entries, "log")
    assert good["ok"]


def counted_qr(monkeypatch):
    """The shapes np.linalg.qr is called on from here on."""
    shapes = []
    real = np.linalg.qr

    def qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return shapes


def test_one_qr_per_random_spd_stack(monkeypatch):
    shapes = counted_qr(monkeypatch)
    verify._random_spd_stack(np.random.default_rng(0), 7, 5, 100.0)
    assert shapes == [(7, 5, 5)]
    shapes.clear()
    verify.suite_distortion(np.random.default_rng(0), dims=(2, 5), n_pairs=10)
    assert shapes == [(10, 2, 2), (10, 2, 2), (10, 5, 5), (10, 5, 5)]


def test_gradient_suites_and_bench_make_one_qr_per_group(monkeypatch):
    shapes = counted_qr(monkeypatch)
    verify.suite_gradient_bounds(np.random.default_rng(0), trials=30)
    dims = [s[-1] for s in shapes]
    assert len(dims) == len(set(dims)) and sum(s[0] for s in shapes) == 30
    shapes.clear()
    verify.suite_gradient_oracle(np.random.default_rng(0), dims=(2, 3), per_dim=6)
    assert len(shapes) <= 4 and sum(s[0] for s in shapes) == 12
    shapes.clear()
    run_bench((2, 3), trials=4)
    assert shapes == [(4, 2, 2)] * 2 + [(4, 3, 3)] * 2


def test_distortion_sweep_counts_injected_violation():
    rng = np.random.default_rng(0)
    sweep = distortion_sweep(rng, d=5, n_pairs=50)
    assert sum(sweep["violations"].values()) == 0
    assert sweep["n_pairs"] == 50


def test_micro_model_gradient_check_contract():
    rng = np.random.default_rng(11)
    res = micro_model_gradient_check(rng, n_params=10)
    assert res["param_checks"] == 10
    assert res["param_failures"] == 0
    assert res["input_path_ok"]


@pytest.mark.parametrize("seed,pass_index", [(1, 25), (5, 76), (7, 32)])
def test_micro_model_oracle_sound_across_relu_kinks(seed, pass_index):
    # at these rngs a ReLU input sits within the finite-difference step of zero
    rng = np.random.default_rng([seed, pass_index, zlib.crc32(b"micro_model")])
    res = micro_model_gradient_check(rng)
    assert res["param_checks"] == 50
    assert res["param_failures"] == 0
    assert res["input_path_ok"]


def test_mutation_maskless_relu_backward_fails_micro_model(monkeypatch):
    def maskless_relu(a):
        a = ad.as_tensor(a)
        return ad.Tensor(a.data * (a.data > 0), parents=(a,), backward=lambda g: (g,))

    monkeypatch.setattr(ad, "relu", maskless_relu)
    res = micro_model_gradient_check(np.random.default_rng(11))
    assert res["param_failures"] > 0
    assert not res["input_path_ok"]


@pytest.mark.parametrize("attention", ["standard", "geometric"])
@pytest.mark.parametrize("use_bn_embed", [True, False])
def test_micro_model_gradient_check_at_three_tokens(attention, use_bn_embed):
    res = micro_model_gradient_check(np.random.default_rng(11), n_params=20, seq_len=3,
                                     attention=attention, use_bn_embed=use_bn_embed)
    assert res["param_checks"] == 20
    assert res["param_failures"] == 0
    assert res["input_path_ok"]


def rowsumless_softmax(a, axis=-1):
    a = ad.as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    return ad.Tensor(y, parents=(a,), backward=lambda g: (y * g,))


def untransposing_bmm(a, b, transpose_b=False):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    bd = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    return ad.Tensor(a.data @ bd, parents=(a, b), backward=lambda g: (
        g @ np.swapaxes(bd, -1, -2), np.swapaxes(a.data, -1, -2) @ g))


@pytest.mark.parametrize("op, mutant", [("softmax", rowsumless_softmax),
                                        ("bmm", untransposing_bmm)])
def test_mutated_attention_backward_fails_only_at_three_tokens(monkeypatch, op, mutant):
    # at T = 1 attention skips the softmax and both bmm, so only T = 3 sees them
    monkeypatch.setattr(ad, op, mutant)
    one = micro_model_gradient_check(np.random.default_rng(11), n_params=20)
    assert one["param_failures"] == 0 and one["input_path_ok"]
    for attention in ("standard", "geometric"):
        three = micro_model_gradient_check(np.random.default_rng(11), n_params=20, seq_len=3,
                                           attention=attention)
        assert three["param_failures"] > 0, attention


def test_mutation_squared_frobenius_fails_metrics(monkeypatch):
    # squared distances keep symmetry and identity but break the triangle inequality
    real = verify.distance_pairs

    def squared_frobenius(As, Bs, kind):
        out = real(As, Bs, kind)
        return out ** 2 if DistanceKind(kind) is DistanceKind.FROBENIUS else out

    monkeypatch.setattr(verify, "distance_pairs", squared_frobenius)
    results = {r.name: r for r in verify.suite_metrics(np.random.default_rng(0))}
    assert not results["axioms_frobenius"].passed
    assert results["axioms_frobenius"].measured["triangle_violations"] > 0
    assert results["axioms_bw"].passed and results["axioms_logeuclidean"].passed


def test_mutation_unsquared_reconstruction_fails_injectivity(monkeypatch):
    # sqrt tokens unpacked without squaring rebuild sqrt(C), not C
    monkeypatch.setattr(verify, "reconstruct_spd", lambda tokens, kind: unvech(tokens))
    (res,) = verify.suite_injectivity(np.random.default_rng(0))
    assert not res.passed


def test_bn_embed_slope_small():
    rng = np.random.default_rng(0)
    res = bn_embed_slope(rng, eps_levels=(0.05, 0.1, 0.2), batches_per_eps=3, n=12, d=4)
    assert 1.5 <= res["slope"] <= 2.5


class _NoDraws:
    """A generator stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"drew ({name}) before checking the suite's sizes")


BAD_SIZES = [
    ("norm_equivalence", dict(trials=0)),
    ("distortion", dict(dims=())),
    ("distortion", dict(n_pairs=0)),
    ("distortion", dict(dims=(1, 5))),
    ("injectivity", dict(trials=0)),
    ("metrics", dict(triples=5)),
    ("reconstruction", dict(trials=0)),
    ("conditioning", dict(dims=())),
    ("conditioning", dict(kappas=())),
    ("conditioning", dict(dims=(2, 1))),
    ("conditioning", dict(kappas=(10.0, 0.5))),
    ("gradient_bounds", dict(trials=0)),
    ("gradient_oracle", dict(dims=())),
    ("gradient_oracle", dict(per_dim=0)),
    ("gradient_oracle", dict(dims=(1,))),
    ("norm_equivalence", dict(trials=2.5)),
    ("micro_model", dict(n_params=0)),
    ("barycenter", dict(batches=0)),
    ("bn_embed", dict(batches_per_eps=0)),
]


@pytest.mark.parametrize("name, sizes", BAD_SIZES,
                         ids=[f"{n}-{k}={v}" for n, kw in BAD_SIZES for k, v in kw.items()])
def test_suite_given_nothing_to_check_fails_typed(name, sizes):
    with pytest.raises(InvalidSpec):
        SUITES[name](_NoDraws(), **sizes)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_rejected(seed):
    with pytest.raises(InvalidSpec, match="seed"):
        run_verification(name_filter="pair_counts", seed=seed)
