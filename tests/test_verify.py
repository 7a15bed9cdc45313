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


def one_forward_per_stencil(rng, n_params=50, seq_len=1, attention="standard",
                            use_bn_embed=True) -> dict:
    """The micro-model check as it ran before its stencils were stacked: one
    forward of the model per stencil, the entry moved and put back in place."""
    from spdtok.embedding import EmbeddingKind, embed, embed_backward, embed_batch
    from spdtok.network import ModelConfig, SpdTokenTransformer, geometric_bias

    d = 4
    D = d * (d + 1) // 2
    model = SpdTokenTransformer(ModelConfig(d_token=D, n_classes=3, d_model=16, layers=2,
                                            heads=2, d_ff=24, dropout=0.0, seq_len=seq_len,
                                            attention=attention, use_bn_embed=use_bn_embed),
                                seed=5)
    Cs = verify._random_spd_stack(rng, 6 * seq_len, d, 100.0)
    tokens = embed_batch(Cs, EmbeddingKind.BWSPD).reshape(6, seq_len, D)
    labels = rng.integers(0, 3, 6)
    bias = geometric_bias(tokens, EmbeddingKind.BWSPD) if attention == "geometric" else None
    masks = []

    def loss_value(toks=tokens):
        with verify._frozen_relu(masks):
            logits = model.forward(toks, training=True, attn_bias=bias)
            return float(ad.cross_entropy(logits, labels).data)

    model.zero_grad()
    with verify._frozen_relu(masks):
        loss = ad.cross_entropy(model.forward(tokens, training=True, attn_bias=bias), labels)
    loss.backward()
    names = list(model.params)
    failures, worst = 0, 0.0
    for _ in range(n_params):
        name = names[int(rng.integers(0, len(names)))]
        p = model.params[name]
        idx = np.unravel_index(int(rng.integers(0, p.data.size)), p.data.shape)
        old = p.data[idx]
        h = 1e-5 * max(1.0, abs(old))
        p.data[idx] = old + h
        hi = loss_value()
        p.data[idx] = old - h
        lo = loss_value()
        p.data[idx] = old
        num = (hi - lo) / (2.0 * h)
        got = p.grad[idx] if p.grad is not None else 0.0
        tol = max(1e-4, 1e-2 * abs(got))
        err = abs(got - num)
        worst = max(worst, err / tol)
        failures += err > tol
    tok_t = ad.Tensor(tokens, requires_grad=True)
    ad.cross_entropy(model.forward(tok_t, training=True, attn_bias=bias), labels).backward()
    grad_C0 = embed_backward(Cs[0], EmbeddingKind.BWSPD, tok_t.grad[0, 0])
    E = verify._random_symmetric(rng, d)
    E /= np.linalg.norm(E)
    h = 1e-5 * np.linalg.norm(Cs[0])

    def loss_of_first(Cmat):
        toks = tokens.copy()
        toks[0, 0] = embed(Cmat, EmbeddingKind.BWSPD)
        return loss_value(toks)

    want = (loss_of_first(Cs[0] + h * E) - loss_of_first(Cs[0] - h * E)) / (2.0 * h)
    got = float(np.sum(grad_C0 * E))
    input_ok = abs(got - want) <= max(1e-4, 1e-2 * abs(got))
    return {"param_checks": n_params, "param_failures": int(failures),
            "worst_err_over_tol": float(worst), "input_path_ok": bool(input_ok)}


MICRO_VARIANTS = [dict(), dict(seq_len=3), dict(seq_len=3, attention="geometric"),
                  dict(seq_len=3, use_bn_embed=False),
                  dict(seq_len=3, attention="geometric", use_bn_embed=False)]


@pytest.mark.parametrize("variant", MICRO_VARIANTS,
                         ids=["t1", "t3", "t3_geometric", "t3_no_bn", "t3_geometric_no_bn"])
@pytest.mark.parametrize("seed", [11, 4])
def test_stacked_stencils_give_the_one_forward_result(variant, seed):
    got = micro_model_gradient_check(np.random.default_rng(seed), n_params=20, **variant)
    want = one_forward_per_stencil(np.random.default_rng(seed), n_params=20, **variant)
    assert got == want
    assert got["worst_err_over_tol"].hex() == want["worst_err_over_tol"].hex()


@pytest.mark.parametrize("n_params", [50, 20, 7, 1])
def test_stencils_take_stacked_forwards(monkeypatch, n_params):
    from spdtok.network import SpdTokenTransformer

    real = SpdTokenTransformer.forward
    stacks = []

    def counting(model, *args, **kwargs):
        stacks.append(model.stack)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(SpdTokenTransformer, "forward", counting)
    micro_model_gradient_check(np.random.default_rng(11), n_params=n_params)
    stencils = 2 * n_params + 2
    forwards = -(-stencils // verify.STENCIL_STACK)
    assert verify.STENCIL_STACK == 16
    assert len(stacks) == 1 + forwards
    assert stacks[0] == ()
    assert sum(s[0] for s in stacks[1:]) == stencils
    assert all(s[0] <= 16 for s in stacks[1:])


@pytest.mark.parametrize("seq_len,attention", [(1, "standard"), (3, "geometric")])
def test_check_leaves_one_backwards_gradients(monkeypatch, seq_len, attention):
    # the base point is taped once: p.grad holds one backward's gradient
    from spdtok.network import SpdTokenTransformer

    built, tapes = [], []
    real_init, real_forward = SpdTokenTransformer.__init__, SpdTokenTransformer.forward

    def recording_init(model, *args, **kwargs):
        real_init(model, *args, **kwargs)
        built.append(model)

    def recording_forward(model, tokens, **kwargs):
        if model.stack == ():
            tapes.append((tokens, kwargs))
        return real_forward(model, tokens, **kwargs)

    real_loss = ad.cross_entropy
    labels = []

    def recording_loss(logits, y):
        labels.append(y)
        return real_loss(logits, y)

    monkeypatch.setattr(SpdTokenTransformer, "__init__", recording_init)
    monkeypatch.setattr(SpdTokenTransformer, "forward", recording_forward)
    monkeypatch.setattr(ad, "cross_entropy", recording_loss)
    micro_model_gradient_check(np.random.default_rng(3), n_params=5, seq_len=seq_len,
                               attention=attention)
    model = built[0]

    def grads():
        return {name: None if p.grad is None else p.grad.tobytes()
                for name, p in model.params.items()}

    left = grads()
    tokens, kwargs = tapes[0]
    model.zero_grad()
    real_loss(real_forward(model, ad.as_tensor(tokens).data, **kwargs), labels[0]).backward()
    assert any(g is not None for g in left.values())
    assert grads() == left


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
