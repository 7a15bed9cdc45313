"""Transformer classifier over geometric tokens.

Pipeline (identical for every embedding): linear projection of the token to
d_model, additive learnable positional table, optional embedding-space batch
normalisation, a stack of post-norm encoder blocks (multi-head self-attention,
feed-forward, residuals, layer norm), global average pooling over the token
axis, and a linear head.

The optional geometric attention mode mixes the scaled dot-product score with
a transport-distance score computed between the SPD matrices reconstructed
from the tokens:

    score = (1 - alpha) * q.k / sqrt(d_k) + alpha * (-d_bw(C_i, C_j))

The distance term depends only on the input tokens, never on parameters, so
it enters the graph as a constant bias; alpha = 0 reproduces the standard
path bit for bit. Only the tokens' own embedding reads the matrices back
correctly, so `forward` takes the bias as `attn_bias`; a training run reads it
from its token dataset (`train.TokenDataset.attention_bias`).

With a single token (T = 1) softmax over one key is exactly 1 in both modes,
so attention is exactly the value-output projection Wo(Wv h + bv) + bo. The
block computes only that: Q/K are never applied and get no gradient (their
`grad` stays None, so Adam skips them), yet they stay in the parameter dict,
so checkpoints and parameter counts do not depend on T.

Stacked models: `SpdTokenTransformer.stacked(models)` builds one model whose
parameters and BN running statistics are the `(S, ...)` stacks of S models of
one configuration. Its forward takes shared `(batch, T, D)` or per-slice
`(S, batch, T, D)` tokens (and a shared or per-slice bias) and returns
`(S, batch, C)` logits; train mode updates each slice's running statistics
from its own batch. Every op works slice by slice on the tape's stack axis
(see `autodiff`), so slice s keeps the bits of models[s].forward on the same
tokens, in eval mode and in train mode without dropout. Dropout draws one mask
over the whole stack, so a slice's draws are not its model's own.

Eval mode (`training=False`) reads the parameters' values through constant
tensors, so it gives no parameter gradients: on a plain array it builds no
graph at all, and an input that requires grad still gets its gradient while
every parameter's `grad` is left as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .embedding import reconstruct_spd
from .errors import ConfigFields, DegenerateBatch, InvalidSpec, NonFinite, ShapeMismatch
from . import geometry

ATTENTION_MODES = ("standard", "geometric")
# the embedding-space batch norm's running-statistics momentum and variance floor
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


@dataclass
class ModelConfig(ConfigFields):
    d_token: int
    n_classes: int
    d_model: int = 128
    layers: int = 6
    heads: int = 8
    d_ff: int = 256
    dropout: float = 0.1
    seq_len: int = 1
    use_bn_embed: bool = True
    attention: str = "standard"
    geo_alpha: float = 0.5

    RULES = {
        "d_token": "[1, inf)", "n_classes": "[2, inf)", "d_model": "[1, inf)",
        "layers": "[1, inf)", "heads": "[1, inf)", "d_ff": "[1, inf)", "dropout": "[0, 1)",
        "seq_len": "[1, inf)", "attention": ATTENTION_MODES, "geo_alpha": "[0, 1]",
    }

    def cross_check(self):
        if self.d_model % self.heads != 0:
            raise InvalidSpec(f"d_model {self.d_model} not divisible by heads {self.heads}")


def _glorot(rng, fan_in, fan_out):
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, (fan_in, fan_out))


class SpdTokenTransformer:
    """The shared classifier; parameters live in an ordered name -> Tensor dict."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        p = {}
        p["proj.W"] = _glorot(rng, c.d_token, c.d_model)
        p["proj.b"] = np.zeros(c.d_model)
        p["pos"] = rng.normal(0.0, 0.02, (c.seq_len, c.d_model))
        if c.use_bn_embed:
            p["bn.gamma"] = np.ones(c.d_model)
            p["bn.beta"] = np.zeros(c.d_model)
        for i in range(c.layers):
            for name in ("q", "k", "v", "o"):
                p[f"enc{i}.attn.W{name}"] = _glorot(rng, c.d_model, c.d_model)
                p[f"enc{i}.attn.b{name}"] = np.zeros(c.d_model)
            p[f"enc{i}.ln1.gamma"] = np.ones(c.d_model)
            p[f"enc{i}.ln1.beta"] = np.zeros(c.d_model)
            p[f"enc{i}.ffn.W1"] = _glorot(rng, c.d_model, c.d_ff)
            p[f"enc{i}.ffn.b1"] = np.zeros(c.d_ff)
            p[f"enc{i}.ffn.W2"] = _glorot(rng, c.d_ff, c.d_model)
            p[f"enc{i}.ffn.b2"] = np.zeros(c.d_model)
            p[f"enc{i}.ln2.gamma"] = np.ones(c.d_model)
            p[f"enc{i}.ln2.beta"] = np.zeros(c.d_model)
        p["head.W"] = _glorot(rng, c.d_model, c.n_classes)
        p["head.b"] = np.zeros(c.n_classes)
        self.params = {name: Tensor(v, requires_grad=True) for name, v in p.items()}
        self.running_mean = np.zeros(c.d_model)
        self.running_var = np.ones(c.d_model)
        self.stack = ()  # (S,) for a stacked model

    @classmethod
    def stacked(cls, models) -> "SpdTokenTransformer":
        """One model holding S = len(models) unstacked models of one
        configuration as slices: every parameter and running statistic is
        the (S, ...) stack of theirs, copied. `stacked([m] * S)` gives S
        copies of m."""
        models = list(models)
        if not models or any(m.stack or m.config != models[0].config for m in models):
            raise InvalidSpec("stacked() needs one or more unstacked models of one config")
        out = cls.__new__(cls)
        out.config = models[0].config
        out.params = {name: Tensor(np.array([m.params[name].data for m in models]),
                                   requires_grad=True) for name in models[0].params}
        out.running_mean = np.array([m.running_mean for m in models])
        out.running_var = np.array([m.running_var for m in models])
        out.stack = (len(models),)
        return out

    # -- parameter bookkeeping -------------------------------------------------

    def parameter_counts(self) -> dict:
        """Per-component trainable sizes.

        'core' counts projection + encoder + head, the convention used for the
        published totals; 'total' additionally counts the positional table and
        the embedding-norm affine parameters. A stacked model counts one slice.
        """
        sizes = {name: t.data.size // math.prod(self.stack) for name, t in self.params.items()}
        proj = sum(v for k, v in sizes.items() if k.startswith("proj."))
        pos = sizes.get("pos", 0)
        bn = sum(v for k, v in sizes.items() if k.startswith("bn."))
        enc = sum(v for k, v in sizes.items() if k.startswith("enc"))
        head = sum(v for k, v in sizes.items() if k.startswith("head."))
        return {
            "projection": proj,
            "positional": pos,
            "bn_embed": bn,
            "encoder": enc,
            "head": head,
            "core": proj + enc + head,
            "total": sum(sizes.values()),
        }

    def state_arrays(self) -> dict:
        """Everything a checkpoint needs: parameters plus running statistics."""
        out = {name: t.data.copy() for name, t in self.params.items()}
        out["bn.running_mean"] = self.running_mean.copy()
        out["bn.running_var"] = self.running_var.copy()
        return out

    def load_state_arrays(self, arrays: dict):
        for name, own in self.state_arrays().items():
            if name not in arrays:
                raise ShapeMismatch(f"checkpoint missing {name}")
            if arrays[name].shape != own.shape:
                raise ShapeMismatch(f"checkpoint shape {arrays[name].shape} for {name}")
        for name, t in self.params.items():
            t.data = arrays[name].copy()
        self.running_mean = arrays["bn.running_mean"].copy()
        self.running_var = arrays["bn.running_var"].copy()

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    # -- forward ---------------------------------------------------------------

    def forward(self, tokens, training: bool = False, attn_bias=None,
                dropout_rng: np.random.Generator | None = None) -> Tensor:
        """Logits for a (batch, T, d_token) array (a (batch, d_token) array is
        treated as T = 1). Geometric attention at T > 1 needs `attn_bias`,
        the (batch, T, T) transport distances of `geometric_bias`. A stacked
        model also takes (S, batch, T, d_token) tokens and an (S, batch, T, T)
        bias, and returns (S, batch, n_classes) logits."""
        c = self.config
        stack = self.stack
        x = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
        if x.data.ndim == 2:
            x = ad.reshape(x, (x.data.shape[0], 1, x.data.shape[1]))
        if stack and x.data.ndim == 3:
            x = _shared_across(x, stack)
        if (x.data.ndim != len(stack) + 3 or x.data.shape[:len(stack)] != stack
                or x.data.shape[-2] != c.seq_len or x.data.shape[-1] != c.d_token):
            raise ShapeMismatch(f"tokens shape {x.data.shape}, expected "
                                f"{stack}(batch, {c.seq_len}, {c.d_token})")
        if training and c.dropout > 0.0 and dropout_rng is None:
            raise InvalidSpec("training with dropout needs a dropout_rng")
        batch = x.data.shape[-3]

        if c.attention == "geometric" and c.seq_len > 1 and attn_bias is None:
            raise InvalidSpec("geometric attention over several tokens needs attn_bias")

        # eval mode reads parameter values through constants: no parameter gets
        # a gradient, and on a plain array no node or closure is kept
        p = self.params if training else {n: Tensor(t.data) for n, t in self.params.items()}
        h = ad.linear(x, p["proj.W"], p["proj.b"])
        pos = p["pos"] if not stack else ad.reshape(p["pos"], stack + (1,) + p["pos"].shape[1:])
        h = ad.add(h, pos)
        if c.use_bn_embed:
            if training:
                if batch * c.seq_len < 2:
                    raise DegenerateBatch("need batch * T >= 2 in train mode")
                h, batch_mean, batch_var = ad.batch_norm_train(h, p["bn.gamma"], p["bn.beta"], BN_EPS)
                m = BN_MOMENTUM
                self.running_mean = (1.0 - m) * self.running_mean + m * batch_mean
                self.running_var = (1.0 - m) * self.running_var + m * batch_var
            else:
                h = ad.batch_norm_eval(h, p["bn.gamma"], p["bn.beta"],
                                       self.running_mean, self.running_var, BN_EPS)
        if training and c.dropout > 0.0:
            h = ad.dropout(h, c.dropout, dropout_rng)

        for i in range(c.layers):
            attn = self._attention(h, i, attn_bias, p)
            if training and c.dropout > 0.0:
                attn = ad.dropout(attn, c.dropout, dropout_rng)
            h = ad.layer_norm(ad.add(h, attn), p[f"enc{i}.ln1.gamma"], p[f"enc{i}.ln1.beta"])
            ff = ad.linear(ad.relu(ad.linear(h, p[f"enc{i}.ffn.W1"], p[f"enc{i}.ffn.b1"])),
                           p[f"enc{i}.ffn.W2"], p[f"enc{i}.ffn.b2"])
            if training and c.dropout > 0.0:
                ff = ad.dropout(ff, c.dropout, dropout_rng)
            h = ad.layer_norm(ad.add(h, ff), p[f"enc{i}.ln2.gamma"], p[f"enc{i}.ln2.beta"])
            if not np.all(np.isfinite(h.data)):
                raise NonFinite(f"non-finite activations after encoder block {i}")

        pooled = ad.mean_over_axis(h, axis=-2)
        logits = ad.linear(pooled, p["head.W"], p["head.b"])
        if not np.all(np.isfinite(logits.data)):
            raise NonFinite("non-finite logits")
        return logits

    def _attention(self, h: Tensor, i: int, attn_bias, p) -> Tensor:
        """Block i's self-attention on h, with weights from `p` (the live
        parameters, or forward's constant eval-mode views of them)."""
        c = self.config
        *lead, T, _ = h.data.shape
        lead = tuple(lead)
        if T == 1:  # softmax over one key is exactly 1 (see the module docstring)
            v = ad.linear(h, p[f"enc{i}.attn.Wv"], p[f"enc{i}.attn.bv"])
            return ad.linear(v, p[f"enc{i}.attn.Wo"], p[f"enc{i}.attn.bo"])
        dk = c.d_model // c.heads
        n = len(lead)
        swap = tuple(range(n)) + (n + 1, n, n + 2)  # (..., T, heads, dk) <-> (..., heads, T, dk)

        def heads(t):
            return ad.transpose(ad.reshape(t, lead + (T, c.heads, dk)), swap)

        q = heads(ad.linear(h, p[f"enc{i}.attn.Wq"], p[f"enc{i}.attn.bq"]))
        k = heads(ad.linear(h, p[f"enc{i}.attn.Wk"], p[f"enc{i}.attn.bk"]))
        v = heads(ad.linear(h, p[f"enc{i}.attn.Wv"], p[f"enc{i}.attn.bv"]))
        dot = ad.bmm(q, k, transpose_b=True)
        if c.attention == "geometric":
            scores = ad.scale(dot, (1.0 - c.geo_alpha) / math.sqrt(dk))
            bias = Tensor(-c.geo_alpha * attn_bias[..., None, :, :])
            scores = ad.add(scores, bias)
        else:
            scores = ad.scale(dot, 1.0 / math.sqrt(dk))
        weights = ad.softmax(scores, axis=-1)
        ctx = ad.bmm(weights, v)
        ctx = ad.reshape(ad.transpose(ctx, swap), lead + (T, c.d_model))
        return ad.linear(ctx, p[f"enc{i}.attn.Wo"], p[f"enc{i}.attn.bo"])


def _shared_across(x: Tensor, stack: tuple) -> Tensor:
    """x read by every slice of a stack: a broadcast view whose gradient is
    the sum of the slices'."""
    return Tensor(np.broadcast_to(x.data, stack + x.data.shape), parents=(x,),
                  backward=lambda g: (g.sum(axis=0),))


def geometric_bias(tokens: np.ndarray, kind) -> np.ndarray:
    """(batch, T, T) matrix of transport distances between the SPD matrices
    reconstructed from each sample's tokens; zero on the diagonal, so all
    zero at T = 1, where no matrix is reconstructed."""
    tokens = np.asarray(tokens, dtype=np.float64)
    batch, T, D = tokens.shape
    if T == 1:
        return np.zeros((batch, 1, 1))
    Cs = reconstruct_spd(tokens.reshape(batch * T, D), kind)
    Cs = Cs.reshape(batch, T, *Cs.shape[-2:])
    a, b = np.triu_indices(T, 1)  # every pair, one stacked call
    dist = geometry.bw_distance_pairs(np.concatenate(Cs[:, a]), np.concatenate(Cs[:, b]))
    bias = np.zeros((batch, T, T))
    bias[:, a, b] = bias[:, b, a] = dist.reshape(batch, len(a))
    return bias

