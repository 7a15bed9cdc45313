import numpy as np
import pytest

from spdtok import autodiff as ad
from spdtok import network
from spdtok.autodiff import Tensor
from spdtok.embedding import EmbeddingKind, embed, embed_backward, embed_batch
from spdtok.errors import DegenerateBatch, InvalidSpec, NonFinite, ShapeMismatch
from spdtok.geometry import bw_distance
from spdtok.network import (
    ModelConfig,
    SpdTokenTransformer,
    geometric_bias,
)
from spdtok.optim import Adam, adam_step
from spdtok.tasks import SCALED_MODEL

from conftest import random_spd, stdout_at_blas_threads


def micro_model(**overrides):
    cfg = dict(d_token=10, n_classes=3, d_model=16, layers=2, heads=2, d_ff=24,
               dropout=0.0, seq_len=1)
    cfg.update(overrides)
    return SpdTokenTransformer(ModelConfig(**cfg), seed=7)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            ModelConfig(d_token=10, n_classes=2, d_model=10, heads=3)
        with pytest.raises(InvalidSpec):
            ModelConfig(d_token=10, n_classes=2, dropout=1.0)
        with pytest.raises(InvalidSpec):
            ModelConfig(d_token=10, n_classes=2, attention="fancy")

    def test_round_trip(self):
        cfg = ModelConfig(d_token=55, n_classes=4, seq_len=3)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_published_parameter_counts(self):
        # golden: projection + encoder + head for the default config on 22
        # channels, 4 classes; positional table and embedding-norm affine are
        # counted separately in 'total'
        m = SpdTokenTransformer(ModelConfig(d_token=253, n_classes=4), seed=0)
        counts = m.parameter_counts()
        assert counts["core"] == 827_908
        assert counts["total"] == 828_292
        assert abs(counts["core"] - 827_908) <= 0.01 * 827_908
        small = SpdTokenTransformer(ModelConfig(d_token=36, n_classes=5, **SCALED_MODEL), seed=0)
        assert small.parameter_counts()["core"] == 136_581
        assert small.parameter_counts()["total"] == 136_773


class TestForward:
    def test_shapes_and_finite(self, rng):
        m = micro_model()
        logits = m.forward(rng.standard_normal((4, 1, 10)))
        assert logits.data.shape == (4, 3)
        assert np.all(np.isfinite(logits.data))

    def test_2d_tokens_treated_as_single_token(self, rng):
        m = micro_model()
        toks = rng.standard_normal((4, 10))
        a = m.forward(toks)
        b = m.forward(toks[:, None, :])
        assert np.array_equal(a.data, b.data)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            micro_model().forward(rng.standard_normal((4, 1, 11)))

    def test_zero_head_gives_uniform_softmax(self, rng):
        m = micro_model()
        m.params["head.W"].data[:] = 0.0
        m.params["head.b"].data[:] = 0.0
        logits = m.forward(rng.standard_normal((6, 1, 10)))
        assert np.allclose(logits.data, 0.0)
        loss = ad.cross_entropy(logits, rng.integers(0, 3, 6))
        assert np.isclose(loss.data, np.log(3.0), atol=1e-12)

    def test_single_token_attention_is_identity_mix(self, rng):
        # with T = 1 the attention weight matrix is [[1]], so the context equals
        # the value projection; verify by hand-computing one block's attention
        m = micro_model(layers=1)
        toks = rng.standard_normal((3, 1, 10))
        p = {k: t.data for k, t in m.params.items()}
        h = toks @ p["proj.W"] + p["proj.b"] + p["pos"]
        mean = h.mean(axis=(0, 1)); var = h.var(axis=(0, 1))
        hn = p["bn.gamma"] * (h - mean) / np.sqrt(var + network.BN_EPS) + p["bn.beta"]
        v = hn @ p["enc0.attn.Wv"] + p["enc0.attn.bv"]
        ctx_expected = v @ p["enc0.attn.Wo"] + p["enc0.attn.bo"]
        attn = m._attention(Tensor(hn), 0, None, m.params)
        assert np.allclose(attn.data, ctx_expected, atol=1e-10)

    def test_permutation_equivariance(self, rng):
        # permuting the T=3 tokens together with the positional rows leaves the
        # pooled logits unchanged
        m = micro_model(seq_len=3)
        toks = rng.standard_normal((5, 3, 10))
        base = m.forward(toks).data
        perm = np.array([2, 0, 1])
        m.params["pos"].data = m.params["pos"].data[perm]
        permuted = m.forward(toks[:, perm, :]).data
        assert np.allclose(base, permuted, atol=1e-10)

    def test_identical_tokens_attend_uniformly(self, rng):
        # two identical tokens with equal positional rows give 0.5/0.5 weights;
        # verified by recomputing the first block's scores independently
        m = micro_model(seq_len=2, use_bn_embed=False)
        m.params["pos"].data[:] = 0.0
        tok = rng.standard_normal(10)
        toks = np.tile(tok, (4, 2, 1))
        p = {k: t.data for k, t in m.params.items()}
        h = toks @ p["proj.W"] + p["proj.b"]
        dk = m.config.d_model // m.config.heads
        q = (h @ p["enc0.attn.Wq"] + p["enc0.attn.bq"]).reshape(4, 2, 2, dk).transpose(0, 2, 1, 3)
        k = (h @ p["enc0.attn.Wk"] + p["enc0.attn.bk"]).reshape(4, 2, 2, dk).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        assert np.allclose(weights, 0.5, atol=1e-12)

    def test_nonfinite_reports_block(self, rng):
        m = micro_model()
        m.params["enc1.ffn.W2"].data[0, 0] = np.nan
        with pytest.raises(NonFinite, match="block 1"):
            m.forward(rng.standard_normal((2, 1, 10)))

    def test_degenerate_batch(self, rng):
        m = micro_model()
        with pytest.raises(DegenerateBatch):
            m.forward(rng.standard_normal((1, 1, 10)), training=True)

    def test_seeded_init_deterministic(self):
        a = micro_model().state_arrays()
        b = micro_model().state_arrays()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_checkpoint_state_round_trip(self, rng):
        m = micro_model()
        m.running_mean[:] = rng.standard_normal(16)
        state = m.state_arrays()
        other = micro_model()
        other.params["proj.W"].data[:] = 0.0
        other.load_state_arrays(state)
        toks = rng.standard_normal((3, 1, 10))
        assert np.array_equal(m.forward(toks).data, other.forward(toks).data)

    @pytest.mark.parametrize("missing", ["bn.running_mean", "bn.running_var"])
    def test_checkpoint_without_running_statistic(self, missing):
        state = micro_model().state_arrays()
        state["proj.W"] += 1.0
        del state[missing]
        m = micro_model()
        with pytest.raises(ShapeMismatch):
            m.load_state_arrays(state)
        assert np.array_equal(m.params["proj.W"].data, micro_model().params["proj.W"].data)


class TestBnEmbed:
    def test_running_stats_match_scalar_ema(self, rng):
        m = micro_model()
        mom = network.BN_MOMENTUM
        exp_mean = np.zeros(16)
        exp_var = np.ones(16)
        for _ in range(5):
            toks = rng.standard_normal((8, 1, 10))
            m.forward(toks, training=True)
            h = toks @ m.params["proj.W"].data + m.params["proj.b"].data + m.params["pos"].data
            exp_mean = (1 - mom) * exp_mean + mom * h.mean(axis=(0, 1))
            exp_var = (1 - mom) * exp_var + mom * h.var(axis=(0, 1))
        assert np.allclose(m.running_mean, exp_mean, atol=1e-12)
        assert np.allclose(m.running_var, exp_var, atol=1e-12)

    def test_eval_is_pure_function_of_state(self, rng):
        m = micro_model()
        toks = rng.standard_normal((4, 1, 10))
        a = m.forward(toks).data
        b = m.forward(toks).data
        assert np.array_equal(a, b)
        m.forward(rng.standard_normal((4, 1, 10)), training=True)
        c = m.forward(toks).data
        assert not np.array_equal(a, c)  # running stats moved


class TestGeometricAttention:
    def test_alpha_zero_matches_standard_bitwise(self, rng):
        d = 4
        Cs = np.stack([random_spd(rng, d) for _ in range(6)])
        toks = np.stack([embed(C, EmbeddingKind.BWSPD) for C in Cs])[:, None, :]
        std = SpdTokenTransformer(ModelConfig(d_token=10, n_classes=3, d_model=16,
                                              layers=2, heads=2, d_ff=24, dropout=0.0), seed=3)
        geo = SpdTokenTransformer(ModelConfig(d_token=10, n_classes=3, d_model=16,
                                              layers=2, heads=2, d_ff=24, dropout=0.0,
                                              attention="geometric", geo_alpha=0.0), seed=3)
        assert np.array_equal(std.forward(toks).data, geo.forward(toks).data)

    def test_bias_matches_pairwise_bw(self, rng):
        d = 4
        Cs = np.stack([random_spd(rng, d) for _ in range(3 * 2)]).reshape(2, 3, d, d)
        toks = np.stack([
            np.stack([embed(Cs[b, t], EmbeddingKind.BWSPD) for t in range(3)])
            for b in range(2)
        ])
        bias = geometric_bias(toks, EmbeddingKind.BWSPD)
        assert bias.shape == (2, 3, 3)
        assert np.allclose(np.diagonal(bias, axis1=1, axis2=2), 0.0, atol=1e-7)
        for b in range(2):
            for s in range(3):
                for t in range(s + 1, 3):
                    want = bw_distance(Cs[b, s], Cs[b, t])
                    assert abs(bias[b, s, t] - want) <= 1e-7
                    assert bias[b, s, t] == bias[b, t, s]

    def test_weight_rows_sum_to_one(self, rng):
        d = 3
        Cs = np.stack([random_spd(rng, d) for _ in range(4 * 2)]).reshape(4, 2, d, d)
        toks = np.stack([
            np.stack([embed(Cs[b, t], EmbeddingKind.BWSPD) for t in range(2)])
            for b in range(4)
        ])
        m = SpdTokenTransformer(ModelConfig(d_token=6, n_classes=2, d_model=8, layers=1,
                                            heads=2, d_ff=8, dropout=0.0, seq_len=2,
                                            attention="geometric", geo_alpha=0.5), seed=1)
        logits = m.forward(toks, attn_bias=geometric_bias(toks, EmbeddingKind.BWSPD))
        assert np.all(np.isfinite(logits.data))

    def test_several_tokens_without_bias_refused(self, rng):
        m = micro_model(attention="geometric", seq_len=3)
        for training in (False, True):
            with pytest.raises(InvalidSpec, match="attn_bias"):
                m.forward(rng.standard_normal((4, 3, 10)), training=training)


class TestSingleTokenAttention:
    @staticmethod
    def train_step(m, toks, labels, attn_bias=None):
        m.zero_grad()
        ad.cross_entropy(m.forward(toks, training=True, attn_bias=attn_bias), labels).backward()

    @pytest.mark.parametrize("attention", ["standard", "geometric"])
    def test_t1_attention_is_value_output_projection(self, rng, monkeypatch, attention):
        def forbidden(*args, **kwargs):
            raise AssertionError("attention scores computed for a single token")

        monkeypatch.setattr(ad, "softmax", forbidden)
        monkeypatch.setattr(ad, "bmm", forbidden)
        monkeypatch.setattr(network, "reconstruct_spd", forbidden)
        m = micro_model(attention=attention)
        self.train_step(m, rng.standard_normal((6, 1, 10)), rng.integers(0, 3, 6))
        for i in range(m.config.layers):
            for name in ("Wq", "bq", "Wk", "bk"):
                assert m.params[f"enc{i}.attn.{name}"].grad is None, (i, name)
            for name in ("Wv", "bv", "Wo", "bo"):
                assert m.params[f"enc{i}.attn.{name}"].grad is not None, (i, name)
        assert np.array_equal(geometric_bias(rng.standard_normal((5, 1, 10)),
                                             EmbeddingKind.BWSPD), np.zeros((5, 1, 1)))

    @pytest.mark.parametrize("attention", ["standard", "geometric"])
    def test_t3_attention_computes_scores(self, rng, monkeypatch, attention):
        calls = {"softmax": 0, "bmm": 0}

        def counted(name):
            real = getattr(ad, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ad, name, counted(name))
        Cs = np.stack([random_spd(rng, 4) for _ in range(6 * 3)])
        toks = np.stack([embed(C, EmbeddingKind.BWSPD) for C in Cs]).reshape(6, 3, 10)
        m = micro_model(attention=attention, seq_len=3)
        bias = geometric_bias(toks, EmbeddingKind.BWSPD) if attention == "geometric" else None
        self.train_step(m, toks, rng.integers(0, 3, 6), bias)
        layers = m.config.layers
        assert calls == {"softmax": layers, "bmm": 2 * layers}
        for i in range(layers):
            for name in ("Wq", "bq", "Wk", "bk"):
                assert m.params[f"enc{i}.attn.{name}"].grad is not None, (i, name)


class TestEvalMode:
    @pytest.mark.parametrize("seq_len", [1, 3])
    def test_plain_array_builds_no_tape(self, rng, seq_len):
        m = micro_model(seq_len=seq_len)
        logits = m.forward(rng.standard_normal((5, seq_len, 10)))
        assert not logits.requires_grad
        assert logits._parents == () and logits._backward is None
        assert all(t.grad is None for t in m.params.values())

    def test_input_gradient_without_parameter_gradients(self, rng):
        m = micro_model()
        toks = Tensor(rng.standard_normal((5, 1, 10)), requires_grad=True)
        ad.cross_entropy(m.forward(toks), rng.integers(0, 3, 5)).backward()
        assert toks.grad is not None and np.any(toks.grad != 0.0)
        assert all(t.grad is None for t in m.params.values())

    def test_logits_independent_of_token_layout(self, rng):
        # the same (n, D) token values, C-contiguous and with the stack axis
        # innermost (strides (8, 8 n), as vech_batch once returned), give the
        # same logits bit for bit
        for seed in range(40):
            cfg = ModelConfig(d_token=10, n_classes=3, d_model=16, layers=2, heads=2,
                              d_ff=24, dropout=0.0)
            m = SpdTokenTransformer(cfg, seed=seed)
            flat = rng.standard_normal((int(rng.integers(2, 40)), 10))
            strided = np.asfortranarray(flat)
            a = m.forward(flat[:, None, :]).data
            b = m.forward(strided[:, None, :]).data
            assert a.tobytes() == b.tobytes(), seed


class TestRowInvariance:
    """Eval-mode logits of a row are the same bits whatever rows share its
    forward pass; `train._evaluate` runs all three splits in one pass on this."""

    PARTS = [(400,), (280, 60, 60), (7, 143, 250)]

    @staticmethod
    def logits_in_parts(model, tokens, bias, sizes):
        out, start = [], 0
        for n in sizes:
            sl = slice(start, start + n)
            out.append(model.forward(tokens[sl], attn_bias=None if bias is None else bias[sl]).data)
            start += n
        return np.concatenate(out).tobytes()

    def check(self, model, tokens, bias=None):
        model.running_mean = np.random.default_rng(3).normal(0.0, 0.1, model.config.d_model)
        model.running_var = np.random.default_rng(4).uniform(0.5, 2.0, model.config.d_model)
        whole, *parts = [self.logits_in_parts(model, tokens, bias, s) for s in self.PARTS]
        assert all(p == whole for p in parts)

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_single_token_default_model(self, rng, n_classes):
        tokens = embed_batch(np.stack([random_spd(rng, 22) for _ in range(400)]),
                             EmbeddingKind.LOG_EUCLIDEAN)[:, None, :]
        self.check(SpdTokenTransformer(ModelConfig(d_token=253, n_classes=n_classes), seed=11),
                   tokens)

    @pytest.mark.parametrize("attention", ["standard", "geometric"])
    def test_three_tokens_scaled_model(self, rng, attention):
        mats = np.stack([random_spd(rng, 8) for _ in range(1200)])
        tokens = embed_batch(mats, EmbeddingKind.LOG_EUCLIDEAN).reshape(400, 3, 36)
        model = SpdTokenTransformer(ModelConfig(d_token=36, n_classes=2, seq_len=3,
                                                attention=attention, **SCALED_MODEL), seed=11)
        bias = geometric_bias(tokens, "logeuclidean") if attention == "geometric" else None
        self.check(model, tokens, bias)

    def test_feed_forward_width_36(self, rng):
        # d_ff 36 is wider than MIN_COLS and no multiple of KERNEL_COLS; the
        # whole forward's products have 1200 rows
        tokens = embed_batch(np.stack([random_spd(rng, 4) for _ in range(1200)]),
                             EmbeddingKind.LOG_EUCLIDEAN).reshape(400, 3, 10)
        self.check(SpdTokenTransformer(ModelConfig(d_token=10, n_classes=3, d_model=64,
                                                   layers=2, heads=4, d_ff=36, seq_len=3),
                                       seed=11), tokens)

    @pytest.mark.parametrize("case", ["default_253", "scaled_t3_36", "bn_embed_1596"])
    def test_one_row_matches_its_row_in_a_batch(self, rng, case):
        # a one-row product must not take numpy's matrix-vector route
        if case == "default_253":
            mats = np.stack([random_spd(rng, 22) for _ in range(400)])
            tokens = embed_batch(mats, EmbeddingKind.LOG_EUCLIDEAN)[:, None, :]
            config = ModelConfig(d_token=253, n_classes=4)
        elif case == "scaled_t3_36":
            mats = np.stack([random_spd(rng, 8) for _ in range(1200)])
            tokens = embed_batch(mats, EmbeddingKind.LOG_EUCLIDEAN).reshape(400, 3, 36)
            config = ModelConfig(d_token=36, n_classes=2, seq_len=3, **SCALED_MODEL)
        else:
            mats = np.stack([random_spd(rng, 56) for _ in range(400)])
            tokens = embed_batch(mats, EmbeddingKind.BWSPD)[:, None, :]
            config = ModelConfig(d_token=1596, n_classes=4, use_bn_embed=True)
        model = SpdTokenTransformer(config, seed=11)
        model.running_mean = np.random.default_rng(3).normal(0.0, 0.1, config.d_model)
        model.running_var = np.random.default_rng(4).uniform(0.5, 2.0, config.d_model)
        whole = model.forward(tokens).data
        for i in (0, 1, 200, 399):
            assert model.forward(tokens[i:i + 1]).data.tobytes() == whole[i:i + 1].tobytes()


class TestAdam:
    def test_matches_scalar_reference(self, rng):
        # independent scalar reference implementing the textbook update
        theta = 0.7
        m = v = 0.0
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        state = {"m": np.zeros(1), "v": np.zeros(1), "t": 0}
        arr = np.array([0.7])
        grads = rng.standard_normal(50)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            arr = adam_step(arr, np.array([g]), state, lr)
            assert abs(arr[0] - theta) <= 1e-12

    def test_class_matches_functional(self, rng):
        p = Tensor(rng.standard_normal(4), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-2)
        state = {"m": np.zeros(4), "v": np.zeros(4), "t": 0}
        mirror = p.data.copy()
        for _ in range(20):
            g = rng.standard_normal(4)
            p.grad = g.copy()
            opt.step()
            mirror = adam_step(mirror, g, state, lr=1e-2)
            assert np.allclose(p.data, mirror, atol=1e-15)
            p.zero_grad()

    def test_step_updates_parameters_in_place(self, rng):
        p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        before, start = p.data, p.data.copy()
        opt = Adam({"p": p}, lr=1e-2)
        p.grad = rng.standard_normal((3, 4))
        opt.step()
        assert np.shares_memory(p.data, before)
        assert np.all(before != start)

    def test_tensor_without_grad_is_left_alone(self, rng):
        live = Tensor(rng.standard_normal(5), requires_grad=True)
        idle = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        opt = Adam({"live": live, "idle": idle}, lr=1e-2)
        idle_before = idle.data.copy()
        for _ in range(3):
            live.grad = rng.standard_normal(5)
            opt.step()
        assert idle.data.tobytes() == idle_before.tobytes()
        assert opt.state["idle"]["t"] == 0 and opt.state["live"]["t"] == 3
        assert not np.any(opt.state["idle"]["m"]) and not np.any(opt.state["idle"]["v"])
        # its count starts at 1 on its first gradient, as a fresh optimiser's would
        g = rng.standard_normal((2, 3))
        idle.grad = g
        opt.step()
        want = adam_step(idle_before, g, {"m": np.zeros((2, 3)), "v": np.zeros((2, 3)), "t": 0},
                         lr=1e-2)
        assert idle.data.tobytes() == want.tobytes()

    def test_minimises_quadratic(self):
        # convex oracle: f(x) = (x - 3)^2 reaches |x - 3| < 1e-3 within 500 steps
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=5e-2)
        for _ in range(500):
            p.grad = 2.0 * (p.data - 3.0)
            opt.step()
        assert abs(p.data[0] - 3.0) < 1e-3


class TestEndToEndGradients:
    def test_parameter_gradients_micro_model(self, rng):
        m = micro_model()
        toks = rng.standard_normal((6, 1, 10))
        labels = rng.integers(0, 3, 6)

        def loss_value():
            return float(ad.cross_entropy(m.forward(toks, training=True), labels).data)

        m.zero_grad()
        loss = ad.cross_entropy(m.forward(toks, training=True), labels)
        loss.backward()
        checked = 0
        names = list(m.params)
        for name in names:
            p = m.params[name]
            flat_idx = rng.integers(0, p.data.size, size=min(2, p.data.size))
            for fi in np.unique(flat_idx):
                idx = np.unravel_index(fi, p.data.shape)
                old = p.data[idx]
                h = 1e-5 * max(1.0, abs(old))
                p.data[idx] = old + h
                hi = loss_value()
                p.data[idx] = old - h
                lo = loss_value()
                p.data[idx] = old
                num = (hi - lo) / (2 * h)
                # at T = 1 Q/K are off the tape: no grad, and exactly 0 by
                # finite differences
                got = p.grad[idx] if p.grad is not None else 0.0
                assert abs(got - num) <= max(1e-4, 1e-2 * abs(got)), name
                checked += 1
        assert checked >= 50

    def test_input_gradient_through_bwspd_embedding(self, rng):
        # end-to-end: C -> sqrt-token -> model -> loss, gradient vs finite
        # differences along random symmetric directions
        d = 4
        m = micro_model()
        C = random_spd(rng, d, kappa=10)
        others = rng.standard_normal((3, 1, 10))
        labels = np.array([0, 1, 2, 1])

        def loss_of(Cmat):
            tok = embed(Cmat, EmbeddingKind.BWSPD)[None, None, :]
            toks = np.concatenate([tok, others], axis=0)
            return float(ad.cross_entropy(m.forward(toks), labels).data)

        tok_t = Tensor(embed(C, EmbeddingKind.BWSPD)[None, None, :], requires_grad=True)
        toks = ad.add(tok_t, Tensor(np.zeros((1, 1, 10))))
        all_toks = Tensor(np.concatenate([toks.data, others], axis=0))
        # route the first row through the tape so its gradient is exposed
        full = ad.add(Tensor(np.concatenate([np.zeros((1, 1, 10)), others], axis=0)),
                      _pad_first_row(toks, 3))
        loss = ad.cross_entropy(m.forward(full), labels)
        loss.backward()
        token_grad = tok_t.grad.ravel()
        grad_C = embed_backward(C, EmbeddingKind.BWSPD, token_grad)
        h = 1e-5 * np.linalg.norm(C)
        for _ in range(6):
            E = rng.standard_normal((d, d))
            E = 0.5 * (E + E.T)
            E /= np.linalg.norm(E)
            num = (loss_of(C + h * E) - loss_of(C - h * E)) / (2 * h)
            got = float(np.sum(grad_C * E))
            assert abs(got - num) <= max(1e-4, 1e-2 * abs(got))


def _pad_first_row(t, extra_rows):
    import spdtok.autodiff as ad

    def backward(g):
        return (g[:1],)

    padded = np.concatenate([t.data, np.zeros((extra_rows,) + t.data.shape[1:])], axis=0)
    return ad.Tensor(padded, parents=(t,), backward=backward)


# (d_token, seq_len, n_classes, model overrides) of every frozen task in
# `spdtok.tasks`: learning sanity (d = 22 log tokens, default model), BN
# dimension at d = 8 and 56 with and without BN, geometry gap, band mixture
# with three band tokens and with one
FROZEN_MODELS = [(253, 1, 4, {}), (36, 1, 4, dict(use_bn_embed=True)),
                 (36, 1, 4, dict(use_bn_embed=False)), (1596, 1, 4, dict(use_bn_embed=True)),
                 (1596, 1, 4, dict(use_bn_embed=False)), (36, 1, 4, SCALED_MODEL),
                 (36, 3, 2, SCALED_MODEL), (36, 1, 2, SCALED_MODEL)]

STACKED_BITS_CHILD = """
import numpy as np
from spdtok.network import ModelConfig, SpdTokenTransformer
from spdtok.tasks import SCALED_MODEL
rng = np.random.default_rng(9)
for D, T, C, over in {models}:
    cfg = ModelConfig(d_token=D, n_classes=C, seq_len=T, **dict(over, dropout=0.0))
    models = [SpdTokenTransformer(cfg, seed=s) for s in range(5)]
    for m in models:
        m.running_mean = rng.normal(0.0, 0.1, cfg.d_model)
        m.running_var = rng.uniform(0.5, 2.0, cfg.d_model)
    stack = SpdTokenTransformer.stacked(models)
    tokens = rng.standard_normal((5, 8, T, D))
    same = [stack.forward(tokens[0]).data[s].tobytes() == m.forward(tokens[0]).data.tobytes()
            for s, m in enumerate(models)]
    for training in (False, True):
        out = stack.forward(tokens, training=training).data
        same += [out[s].tobytes() == m.forward(tokens[s], training=training).data.tobytes()
                 for s, m in enumerate(models)]
    same += [stack.running_mean[s].tobytes() == m.running_mean.tobytes()
             and stack.running_var[s].tobytes() == m.running_var.tobytes()
             for s, m in enumerate(models)]
    print(D, T, C, all(same))
"""


class TestStackedModel:
    def test_slices_are_the_models(self):
        models = [micro_model(seq_len=3) for _ in range(2)] + [micro_model(seq_len=3)]
        models[1].params["proj.W"].data += 1.0
        models[2].running_mean = np.full(16, 0.5)
        stack = SpdTokenTransformer.stacked(models)
        assert stack.stack == (3,) and models[0].stack == ()
        for name, t in stack.params.items():
            assert t.requires_grad and t.data.shape == (3,) + models[0].params[name].data.shape
            assert all(np.array_equal(t.data[s], m.params[name].data) for s, m in enumerate(models))
        assert stack.running_mean.shape == stack.running_var.shape == (3, 16)
        assert np.array_equal(stack.running_mean[2], models[2].running_mean)
        assert stack.parameter_counts() == models[0].parameter_counts()
        # copies: training the stack leaves its models alone
        stack.params["proj.W"].data[0] = 0.0
        assert np.any(models[0].params["proj.W"].data != 0.0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_slices_keep_the_bits_of_every_frozen_model(self, threads):
        # eval mode and train mode without dropout, per-slice and shared
        # tokens; train mode updates each slice's running statistics
        child = STACKED_BITS_CHILD.format(models=FROZEN_MODELS)
        lines = stdout_at_blas_threads(["-c", child], threads).split("\n")
        assert lines[:-1] == [f"{D} {T} {C} True" for D, T, C, _ in FROZEN_MODELS]

    @pytest.mark.parametrize("attention", ["standard", "geometric"])
    def test_per_slice_bias_and_shared_bias(self, rng, attention):
        models = [micro_model(seq_len=3, attention=attention) for _ in range(3)]
        for s, m in enumerate(models):
            m.params["enc0.attn.Wq"].data *= 1.0 + s
        stack = SpdTokenTransformer.stacked(models)
        tokens = embed_batch(np.stack([random_spd(rng, 4) for _ in range(36)]),
                             EmbeddingKind.BWSPD).reshape(3, 4, 3, 10)
        bias = np.stack([geometric_bias(t, "bwspd") for t in tokens])
        out = stack.forward(tokens, attn_bias=bias).data
        shared = stack.forward(tokens[0], attn_bias=bias[0]).data
        assert out.shape == (3, 4, 3)
        for s, m in enumerate(models):
            assert out[s].tobytes() == m.forward(tokens[s], attn_bias=bias[s]).data.tobytes()
            assert shared[s].tobytes() == m.forward(tokens[0], attn_bias=bias[0]).data.tobytes()

    def test_shared_tokens_get_the_summed_gradient(self, rng):
        models = [micro_model() for _ in range(3)]
        stack = SpdTokenTransformer.stacked(models)
        labels = rng.integers(0, 3, 6)
        x = Tensor(rng.standard_normal((6, 1, 10)), requires_grad=True)
        losses = ad.cross_entropy(stack.forward(x, training=True), labels)
        ad.linear(losses, Tensor(np.ones((3, 1)))).backward()
        want = 0.0
        for m in models:
            one = Tensor(x.data, requires_grad=True)
            ad.cross_entropy(m.forward(one, training=True), labels).backward()
            want = want + one.grad
        assert np.allclose(x.grad, want, rtol=1e-13, atol=1e-16)

    def test_tokens_of_another_stack_refused(self, rng):
        stack = SpdTokenTransformer.stacked([micro_model()] * 3)
        with pytest.raises(ShapeMismatch):
            stack.forward(rng.standard_normal((2, 4, 1, 10)))
        with pytest.raises(ShapeMismatch):
            micro_model().forward(rng.standard_normal((3, 4, 1, 10)))

    @pytest.mark.parametrize("models", ["none", "configs", "stacked"])
    def test_bad_stack_refused(self, models):
        pick = {"none": [], "configs": [micro_model(), micro_model(d_ff=8)],
                "stacked": [SpdTokenTransformer.stacked([micro_model()] * 2)]}
        with pytest.raises(InvalidSpec):
            SpdTokenTransformer.stacked(pick[models])
