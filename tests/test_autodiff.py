import cProfile
import os
import pstats

import numpy as np
import pytest

from spdtok import autodiff as ad
from spdtok.autodiff import Tensor
from spdtok.errors import GraphCycle, InvalidSpec, LabelOutOfRange, ShapeMismatch

from conftest import stdout_at_blas_threads


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        hi = f()
        x[idx] = old - h
        lo = f()
        x[idx] = old
        g[idx] = (hi - lo) / (2.0 * h)
        it.iternext()
    return g


def scalar_loss(t, w):
    # fixed linear functional so losses are differentiable and cheap
    flat = ad.reshape(t, (t.data.size,))
    return ad.linear(flat, Tensor(w.reshape(-1, 1)))


class TestBasics:
    def test_linear_grad_is_xt_upstream(self, rng):
        x = Tensor(rng.standard_normal((7, 3)))
        W = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        up = rng.standard_normal((7, 4))
        out = ad.linear(x, W)
        loss = ad.linear(ad.reshape(out, (28,)), Tensor(up.reshape(-1, 1)))
        loss.backward()
        assert np.allclose(W.grad, x.data.T @ up, atol=1e-12)

    def test_add_broadcast(self, rng):
        a = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = rng.standard_normal(60)
        loss = scalar_loss(ad.add(a, b), w)
        loss.backward()
        na = numeric_grad(lambda: float((a.data + b.data).ravel() @ w), a.data)
        nb = numeric_grad(lambda: float((a.data + b.data).ravel() @ w), b.data)
        assert np.allclose(a.grad, na, atol=1e-6)
        assert np.allclose(b.grad, nb, atol=1e-6)

    def test_grad_accumulates_on_reuse(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        y = ad.add(x, x)
        loss = ad.linear(y, Tensor(np.ones((5, 1))))
        loss.backward()
        assert np.allclose(x.grad, 2.0 * np.ones(5))

    def test_backward_needs_scalar(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            ad.add(x, x).backward()

    def test_cycle_detection(self, rng):
        x = Tensor(rng.standard_normal(1), requires_grad=True)
        y = ad.scale(x, 2.0)
        object.__setattr__(x, "_parents", (y,))  # force a cycle
        x._backward = lambda g: (g,)
        with pytest.raises(GraphCycle):
            y.backward()


class _CountingTranspose(np.ndarray):
    """An ndarray that counts its transposes (`.T` or `swapaxes`), the operand
    of the input gradient `g @ W.T`."""
    reads = 0

    @property
    def T(self):
        type(self).reads += 1
        return super().T

    def swapaxes(self, *axes):
        type(self).reads += 1
        return super().swapaxes(*axes)


class TestLinear:
    @pytest.mark.parametrize("T", [1, 3])
    def test_stacked_input_is_one_flat_gemm(self, rng, T):
        B, m, k = 5, 7, 4
        x = Tensor(rng.standard_normal((B, T, m)), requires_grad=True)
        W = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(k), requires_grad=True)
        up = rng.standard_normal((B, T, k))
        out = ad.linear(x, W, b)
        # the scalar loss hands `out` exactly `up` as its upstream gradient
        scalar_loss(out, up.ravel()).backward()
        x2, g2 = x.data.reshape(-1, m), up.reshape(-1, k)
        assert np.array_equal(out.data, (x2 @ W.data).reshape(B, T, k) + b.data)
        assert np.array_equal(x.grad, (g2 @ W.data.T).reshape(B, T, m))
        assert np.array_equal(W.grad, x2.T @ g2)
        assert np.array_equal(b.grad, g2.sum(axis=0))

    def test_3d_input_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True)
        W = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        build = lambda: ad.linear(x, W, b)
        w = rng.standard_normal(24)
        scalar_loss(build(), w).backward()
        for leaf in (x, W, b):
            num = numeric_grad(lambda: float(build().data.ravel() @ w), leaf.data)
            assert np.allclose(leaf.grad, num, atol=1e-6)

    @pytest.mark.parametrize("input_needs_grad", [False, True])
    def test_input_gradient_only_when_needed(self, rng, input_needs_grad):
        x = Tensor(rng.standard_normal((6, 1, 5)), requires_grad=input_needs_grad)
        W = Tensor(np.zeros((5, 3)), requires_grad=True)
        # set after construction: Tensor() converts a subclass to a plain ndarray
        W.data = rng.standard_normal((5, 3)).view(_CountingTranspose)
        _CountingTranspose.reads = 0
        scalar_loss(ad.linear(x, W), rng.standard_normal(18)).backward()
        assert W.grad is not None
        assert _CountingTranspose.reads == int(input_needs_grad)
        assert (x.grad is not None) == input_needs_grad

    @pytest.mark.parametrize("m, k", [(64, 36), (128, 36), (253, 12), (36, 100), (10, 2)])
    def test_row_bits_independent_of_row_count(self, rng, m, k):
        # an output width above MIN_COLS that is no multiple of KERNEL_COLS
        # gives a plain product row bits that depend on the row count
        x, W = rng.standard_normal((512, m)), rng.standard_normal((m, k))
        whole = ad.linear(x, W).data
        for n in (1, 2, 7, 39, 255):
            assert ad.linear(x[:n], W).data.tobytes() == whole[:n].tobytes(), n

    def test_bits_independent_of_blas_threads(self):
        # a d = 56 projection: both inner dimensions (1596 forward, 400 rows for
        # gW) are longer than OpenBLAS's K block, which one thread and two split
        # differently
        child = (
            "import hashlib, numpy as np\n"
            "from spdtok import autodiff as ad\n"
            "rng = np.random.default_rng(3)\n"
            "x = rng.standard_normal((400, 1, 1596))\n"
            "W = ad.Tensor(rng.standard_normal((1596, 128)), requires_grad=True)\n"
            "out = ad.linear(x, W)\n"
            "w = ad.Tensor(rng.standard_normal((51200, 1)))\n"
            "ad.linear(ad.reshape(out, (51200,)), w).backward()\n"
            "print(hashlib.sha256(out.data.tobytes() + W.grad.tobytes()).hexdigest())\n"
        )
        digests = [stdout_at_blas_threads(["-c", child], t) for t in ("1", "2")]
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("m", [1596, 253, 300, 10, 36])
    def test_input_gradient_bits_independent_of_blas_threads(self, m):
        # the input gradient g2 @ W.T is m columns wide; OpenBLAS's kernel
        # width is 8, and at 253, 300 and 1596 the bits of a plain product
        # depend on the thread count
        child = (
            "import hashlib, numpy as np\n"
            "from spdtok import autodiff as ad\n"
            "rng = np.random.default_rng(5)\n"
            f"x = ad.Tensor(rng.standard_normal((400, {m})), requires_grad=True)\n"
            f"W = ad.Tensor(rng.standard_normal(({m}, 128)))\n"
            "w = ad.Tensor(rng.standard_normal((51200, 1)))\n"
            "ad.linear(ad.reshape(ad.linear(x, W), (51200,)), w).backward()\n"
            "print(hashlib.sha256(x.grad.tobytes()).hexdigest())\n"
        )
        digests = [stdout_at_blas_threads(["-c", child], t) for t in ("1", "2")]
        assert digests[0] == digests[1]


class TestOpsAgainstFiniteDifferences:
    @pytest.mark.parametrize("op_name", ["mul", "relu", "softmax", "bmm", "bmm_t",
                                         "mean", "reshape_transpose"])
    def test_op(self, rng, op_name):
        if op_name == "mul":
            a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            build = lambda: ad.mul(a, b)
            leaves = [a, b]
        elif op_name == "relu":
            a = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
            build = lambda: ad.relu(a)
            leaves = [a]
        elif op_name == "softmax":
            a = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            build = lambda: ad.softmax(a)
            leaves = [a]
        elif op_name == "bmm":
            a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
            build = lambda: ad.bmm(a, b)
            leaves = [a, b]
        elif op_name == "bmm_t":
            a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
            build = lambda: ad.bmm(a, b, transpose_b=True)
            leaves = [a, b]
        elif op_name == "mean":
            a = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
            build = lambda: ad.mean_over_axis(a, axis=1)
            leaves = [a]
        else:
            a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            build = lambda: ad.reshape(ad.transpose(a, (0, 2, 1)), (2, 12))
            leaves = [a]
        w = rng.standard_normal(build().data.size)
        loss = scalar_loss(build(), w)
        loss.backward()
        for leaf in leaves:
            num = numeric_grad(lambda: float(build().data.ravel() @ w), leaf.data)
            assert np.allclose(leaf.grad, num, atol=1e-5), op_name

    def test_layer_norm_8dim(self, rng):
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 8), requires_grad=True)
        beta = Tensor(rng.standard_normal(8), requires_grad=True)
        w = rng.standard_normal(24)
        build = lambda: ad.layer_norm(x, gamma, beta)
        loss = scalar_loss(build(), w)
        loss.backward()
        for leaf in (x, gamma, beta):
            num = numeric_grad(lambda: float(build().data.ravel() @ w), leaf.data)
            assert np.allclose(leaf.grad, num, atol=1e-5)

    def test_batch_norm_train_grad(self, rng):
        x = Tensor(rng.standard_normal((6, 2, 4)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        w = rng.standard_normal(48)
        build = lambda: ad.batch_norm_train(x, gamma, beta)[0]
        loss = scalar_loss(build(), w)
        loss.backward()
        for leaf in (x, gamma, beta):
            num = numeric_grad(lambda: float(build().data.ravel() @ w), leaf.data)
            assert np.allclose(leaf.grad, num, atol=1e-5)


class TestNormalisationSemantics:
    def test_layer_norm_rows_standardised(self, rng):
        x = Tensor(rng.standard_normal((5, 16)) * 3 + 1)
        out = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.max(np.abs(out.data.mean(axis=-1))) <= 1e-6
        assert np.max(np.abs(out.data.var(axis=-1) - 1.0)) <= 1e-4

    def test_layer_norm_matches_two_pass_formula_bitwise(self, rng):
        # the two-pass form centres x once for np.var and again for xhat;
        # centring once must keep the output and every gradient's bytes
        for shape in [(5, 16), (7, 3, 128), (2, 1, 253)]:
            x = Tensor(rng.standard_normal(shape) * 3 + 1, requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, shape[-1]), requires_grad=True)
            beta = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
            g = rng.standard_normal(shape)
            out = ad.layer_norm(x, gamma, beta)
            grads = out._backward(g)

            mean = x.data.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + 1e-5)
            xhat = (x.data - mean) * inv
            dxhat = g * gamma.data
            gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            axes = tuple(range(g.ndim - 1))
            want = [gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)]
            assert out.data.tobytes() == (gamma.data * xhat + beta.data).tobytes()
            assert [a.tobytes() for a in grads] == [b.tobytes() for b in want]

    def test_batch_norm_train_matches_two_pass_formula_bitwise(self, rng):
        # as for layer_norm: centring once keeps the output, the batch
        # statistics and every gradient's bytes
        for shape in [(64, 16), (7, 3, 128), (40, 1, 56)]:
            x = Tensor(rng.standard_normal(shape) * 3 + 1, requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, shape[-1]), requires_grad=True)
            beta = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
            g = rng.standard_normal(shape)
            out, got_mean, got_var = ad.batch_norm_train(x, gamma, beta)
            grads = out._backward(g)

            axes = tuple(range(len(shape) - 1))
            mean, var = x.data.mean(axis=axes), x.data.var(axis=axes)
            inv = 1.0 / np.sqrt(var + 1e-5)
            xhat = (x.data - mean) * inv
            dxhat = g * gamma.data
            gx = inv * (dxhat - dxhat.mean(axis=axes) - xhat * (dxhat * xhat).mean(axis=axes))
            want = [gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)]
            assert out.data.tobytes() == (gamma.data * xhat + beta.data).tobytes()
            assert (got_mean.tobytes(), got_var.tobytes()) == (mean.tobytes(), var.tobytes())
            assert [a.tobytes() for a in grads] == [b.tobytes() for b in want]

    def test_softmax_rows_sum_to_one(self, rng):
        out = ad.softmax(Tensor(rng.standard_normal((4, 2, 9)) * 10))
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) <= 1e-6

    def test_batch_norm_train_standardises_features(self, rng):
        x = Tensor(rng.standard_normal((32, 3, 8)) * 5 + 2)
        out, mean, var = ad.batch_norm_train(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.max(np.abs(out.data.mean(axis=(0, 1)))) <= 1e-6
        assert np.max(np.abs(out.data.var(axis=(0, 1)) - 1.0)) <= 1e-4
        assert np.allclose(mean, x.data.mean(axis=(0, 1)))

    def test_batch_norm_identical_rows_zero(self):
        row = np.arange(4.0)
        x = Tensor(np.tile(row, (6, 1, 1)))
        out, _, var = ad.batch_norm_train(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.max(np.abs(out.data)) <= 1e-6
        assert np.allclose(var, 0.0)

    def test_batch_norm_plus_minus_one(self):
        x = Tensor(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        out, _, _ = ad.batch_norm_train(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-5)
        assert np.allclose(out.data, x.data, atol=1e-4)

    def test_batch_norm_eval_is_fixed_affine(self, rng):
        x = rng.standard_normal((4, 5))
        rm, rv = rng.standard_normal(5), rng.uniform(0.5, 2.0, 5)
        gamma, beta = Tensor(rng.uniform(0.5, 1.5, 5)), Tensor(rng.standard_normal(5))
        out = ad.batch_norm_eval(Tensor(x), gamma, beta, rm, rv, eps=1e-5)
        want = gamma.data * (x - rm) / np.sqrt(rv + 1e-5) + beta.data
        assert np.allclose(out.data, want, atol=1e-12)


class TestDropout:
    def test_disabled_is_identity(self, rng):
        x = Tensor(rng.standard_normal((3, 3)))
        assert ad.dropout(x, 0.0, rng) is x

    def test_inverted_scaling(self, rng):
        x = Tensor(np.ones((2000, 10)))
        out = ad.dropout(x, 0.25, np.random.default_rng(0))
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.05


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.cross_entropy(Tensor(np.zeros((6, 4))), np.zeros(6, dtype=int))
        assert np.isclose(loss.data, np.log(4.0), atol=1e-12)

    def test_confident_correct_logit(self):
        # closed-form softmax at z on the true label of 4 classes:
        # loss = log(1 + 3 e^{-z}), monotonically decreasing to 0
        def loss_at(z):
            logits = np.zeros((1, 4))
            logits[0, 2] = z
            return float(ad.cross_entropy(Tensor(logits), np.array([2])).data)

        assert np.isclose(loss_at(10.0), np.log1p(3.0 * np.exp(-10.0)), rtol=1e-12)
        assert loss_at(1.0) > loss_at(5.0) > loss_at(10.0)
        assert loss_at(10.0) < 2e-4

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        labels = rng.integers(0, 3, 5)
        loss = ad.cross_entropy(logits, labels)
        loss.backward()
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(5), labels] -= 1.0
        assert np.allclose(logits.grad, probs / 5.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        labels = rng.integers(0, 6, 4)
        loss = ad.cross_entropy(logits, labels)
        loss.backward()
        num = numeric_grad(lambda: float(ad.cross_entropy(Tensor(logits.data), labels).data),
                           logits.data)
        assert np.allclose(logits.grad, num, atol=1e-6)


def numpy_python_calls(fn):
    """{name: calls} of numpy's Python-level functions that fn() runs. cProfile
    also sees those an ndarray method reaches (x.mean() runs numpy's `_mean`),
    which a monkeypatch of the numpy namespace misses."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    counts = {}
    for (path, _, name), (_, calls, *_) in pstats.Stats(prof).stats.items():
        if f"{os.sep}numpy{os.sep}" in path:
            counts[name] = counts.get(name, 0) + calls
    return counts


def np_pad_form(a, b, cols):
    """`_matmul_cols` as np.pad builds its padded weight."""
    return ad._matmul(a, np.pad(b, ((0, 0), (0, cols - b.shape[1]))))[:, :b.shape[1]]


class TestNoNumpyWrappersOnTheTape:
    @pytest.mark.parametrize("m, k", [(128, 2), (64, 3), (253, 128)])
    def test_linear_never_calls_np_pad(self, rng, m, k):
        # a 2- or 3-column head pads W, a 253-input layer pads W.T in backward
        x = Tensor(rng.standard_normal((64, 1, m)), requires_grad=True)
        W = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        w = rng.standard_normal(64 * k)
        counts = numpy_python_calls(lambda: scalar_loss(ad.linear(x, W), w).backward())
        assert counts.get("pad", 0) == 0
        assert x.grad is not None and W.grad is not None

    # (rows, inner) @ (inner, width) of the frozen and micro models: narrow
    # heads padded to MIN_COLS, and input gradients against W.T whose width
    # (253, 1596, 36 tokens; 10 in the micro model) pads to KERNEL_COLS
    @pytest.mark.parametrize("rows", [1, 32, 64])
    @pytest.mark.parametrize("inner, width, transposed", [
        (128, 2, False), (64, 2, False), (16, 3, False),
        (128, 253, True), (128, 1596, True), (128, 36, True), (64, 36, True), (16, 10, True)])
    def test_padded_product_keeps_the_np_pad_bits(self, rng, rows, inner, width, transposed):
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((width, inner)).T if transposed else rng.standard_normal((inner, width))
        cols = (ad.MIN_COLS if width <= ad.MIN_COLS
                else -(-width // ad.KERNEL_COLS) * ad.KERNEL_COLS)
        assert ad._matmul_cols(a, b, cols).tobytes() == np_pad_form(a, b, cols).tobytes()

    def test_tape_means_never_call_np_mean(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 16)), requires_grad=True)
        gamma, beta = Tensor(np.ones(16), requires_grad=True), Tensor(np.zeros(16), requires_grad=True)

        def step():
            h, _, _ = ad.batch_norm_train(x, gamma, beta)
            h = ad.layer_norm(h, gamma, beta)
            logits = ad.linear(ad.mean_over_axis(h, axis=1), Tensor(rng.standard_normal((16, 4))))
            ad.cross_entropy(logits, np.arange(8) % 4).backward()

        counts = numpy_python_calls(step)
        assert counts.get("_mean", 0) == 0 and counts.get("mean", 0) == 0
        assert x.grad is not None and gamma.grad is not None

    # the mean sites of the frozen models: layer norm over d_model, batch norm
    # over (batch, T) per token entry, pooling over T, the loss over the batch
    @pytest.mark.parametrize("shape, axis, keepdims", [
        ((64, 1, 128), -1, True), ((32, 3, 64), -1, True), ((1, 1, 128), -1, True),
        ((64, 1, 253), (0, 1), False), ((32, 1, 1596), (0, 1), False),
        ((32, 3, 36), (0, 1), False), ((2, 1, 36), (0, 1), False),
        ((64, 1, 128), 1, False), ((32, 3, 64), 1, False), ((64,), None, False), ((5,), None, False)])
    def test_mean_keeps_the_np_mean_bits(self, rng, shape, axis, keepdims):
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        got, want = ad._mean(a, axis, keepdims=keepdims), np.mean(a, axis=axis, keepdims=keepdims)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


S = 5  # slices of the stacked-op tests


def slice_grads(build, leaves, up):
    """(output, leaf gradients) of build(*leaves) under the upstream gradient
    `up`: the scalar loss hands the output exactly `up`."""
    leaves = [Tensor(a, requires_grad=True) for a in leaves]
    out = build(*leaves)
    out = out[0] if isinstance(out, tuple) else out
    scalar_loss(out, up.ravel()).backward()
    return out.data, [t.grad for t in leaves]


def assert_slices_keep_bits(build, stacked_leaves, up, shared=()):
    """build on the stacked leaves gives, slice by slice, the output and the
    leaf gradients of build on each slice alone; `shared` indexes leaves that
    every slice reads whole."""
    out, grads = slice_grads(build, stacked_leaves, up)
    for s in range(S):
        one = [a if i in shared else a[s] for i, a in enumerate(stacked_leaves)]
        out_s, grads_s = slice_grads(build, one, up[s])
        assert out[s].tobytes() == out_s.tobytes(), s
        for i, (g, g_s) in enumerate(zip(grads, grads_s)):
            if i not in shared:
                assert g[s].tobytes() == g_s.tobytes(), (s, i)


class TestStackAxis:
    """Slice s of a stacked op, forward and backward, has the bits of the
    unstacked op on slice s."""

    # one-row products, a two-class head (padded to MIN_COLS), widths no
    # multiple of KERNEL_COLS (36, 253) and inner dimensions past one K_BLOCK
    @pytest.mark.parametrize("rows, m, k", [
        ((1,), 16, 2), ((7, 1), 36, 36), ((32, 1), 253, 128), ((4, 3), 16, 24),
        ((12, 1), 300, 4), ((1, 1), 1596, 64)])
    def test_linear(self, rng, rows, m, k):
        x = rng.standard_normal((S,) + rows + (m,))
        W, b = rng.standard_normal((S, m, k)), rng.standard_normal((S, k))
        assert_slices_keep_bits(ad.linear, [x, W, b], rng.standard_normal((S,) + rows + (k,)))

    def test_linear_without_bias(self, rng):
        x, W = rng.standard_normal((S, 6, 2, 10)), rng.standard_normal((S, 10, 3))
        assert_slices_keep_bits(ad.linear, [x, W], rng.standard_normal((S, 6, 2, 3)))

    @pytest.mark.parametrize("shape", [(8, 1, 16), (6, 3, 36), (1, 1, 128)])
    def test_layer_norm(self, rng, shape):
        x = rng.standard_normal((S,) + shape) * 3.0 + 1.0
        gamma, beta = rng.uniform(0.5, 1.5, (S, shape[-1])), rng.standard_normal((S, shape[-1]))
        assert_slices_keep_bits(ad.layer_norm, [x, gamma, beta], rng.standard_normal(x.shape))

    @pytest.mark.parametrize("shape", [(32, 1, 16), (6, 3, 36), (2, 1, 128)])
    def test_batch_norm_train(self, rng, shape):
        x = rng.standard_normal((S,) + shape) * 3.0 + 1.0
        gamma, beta = rng.uniform(0.5, 1.5, (S, shape[-1])), rng.standard_normal((S, shape[-1]))
        assert_slices_keep_bits(ad.batch_norm_train, [x, gamma, beta],
                                rng.standard_normal(x.shape))
        _, mean, var = ad.batch_norm_train(Tensor(x), Tensor(gamma), Tensor(beta))
        assert mean.shape == var.shape == (S, shape[-1])
        for s in range(S):
            _, mean_s, var_s = ad.batch_norm_train(Tensor(x[s]), Tensor(gamma[s]), Tensor(beta[s]))
            assert mean[s].tobytes() == mean_s.tobytes() and var[s].tobytes() == var_s.tobytes()

    def test_batch_norm_eval(self, rng):
        x = rng.standard_normal((S, 6, 3, 16))
        gamma, beta = rng.uniform(0.5, 1.5, (S, 16)), rng.standard_normal((S, 16))
        rm, rv = rng.standard_normal((S, 16)), rng.uniform(0.5, 2.0, (S, 16))
        out, grads = slice_grads(lambda x, g, b: ad.batch_norm_eval(x, g, b, rm, rv),
                                 [x, gamma, beta], up := rng.standard_normal(x.shape))
        for s in range(S):
            out_s, grads_s = slice_grads(lambda x, g, b: ad.batch_norm_eval(x, g, b, rm[s], rv[s]),
                                         [x[s], gamma[s], beta[s]], up[s])
            assert out[s].tobytes() == out_s.tobytes()
            assert all(g[s].tobytes() == g_s.tobytes() for g, g_s in zip(grads, grads_s))

    @pytest.mark.parametrize("per_slice_labels", [False, True])
    def test_cross_entropy(self, rng, per_slice_labels):
        logits = rng.standard_normal((S, 11, 3)) * 4.0
        labels = rng.integers(0, 3, (S, 11) if per_slice_labels else 11)
        loss, (grad,) = slice_grads(lambda z: ad.cross_entropy(z, labels), [logits], np.ones(S))
        assert loss.shape == (S,)
        for s in range(S):
            y = labels[s] if per_slice_labels else labels
            loss_s, (grad_s,) = slice_grads(lambda z: ad.cross_entropy(z, y), [logits[s]],
                                            np.ones(1))
            assert loss[s].tobytes() == loss_s.tobytes()
            assert grad[s].tobytes() == grad_s.tobytes()

    def test_padded_stacked_product_keeps_the_np_pad_bits(self, rng):
        # a transposed stacked weight is Fortran-ordered in every slice, and
        # is padded in that order, as np.pad pads one transposed slice
        a = rng.standard_normal((S, 32, 128))
        b = rng.standard_normal((S, 253, 128)).swapaxes(-1, -2)
        got = ad._matmul_cols(a, b, 256)
        for s in range(S):
            assert got[s].tobytes() == np_pad_form(a[s], b[s], 256).tobytes()


class TestOperandErrors:
    """Malformed operands of the stack-aware ops fail typed."""

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([True, False])])
    def test_cross_entropy_non_integer_labels(self, labels):
        with pytest.raises(LabelOutOfRange):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), labels)

    def test_cross_entropy_empty_batch(self):
        with pytest.raises(ShapeMismatch):
            ad.cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("shape", [(3,), (), (2, 2, 2, 3)])
    def test_cross_entropy_logits_without_class_axis(self, shape):
        with pytest.raises(ShapeMismatch):
            ad.cross_entropy(Tensor(np.zeros(shape)), np.zeros(shape[:-1] or (1,), dtype=int))

    def test_cross_entropy_labels_of_another_stack(self):
        with pytest.raises(ShapeMismatch):
            ad.cross_entropy(Tensor(np.zeros((5, 2, 3))), np.zeros((4, 2), dtype=int))

    def test_linear_one_dimensional_weight(self, rng):
        with pytest.raises(ShapeMismatch):
            ad.linear(Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal(3)))

    @pytest.mark.parametrize("x_shape, W_shape, b_shape", [
        ((4, 6, 3), (5, 3, 2), None), ((5, 6, 3), (5, 3, 2), (4, 2)),
        ((6, 3), (3, 2), (5, 2)), ((5, 6, 3), (2, 5, 3, 2), None)])
    def test_linear_operands_of_another_stack(self, rng, x_shape, W_shape, b_shape):
        b = None if b_shape is None else Tensor(rng.standard_normal(b_shape))
        with pytest.raises(ShapeMismatch):
            ad.linear(Tensor(rng.standard_normal(x_shape)), Tensor(rng.standard_normal(W_shape)), b)

    @pytest.mark.parametrize("op", ["layer_norm", "batch_norm_train", "batch_norm_eval"])
    @pytest.mark.parametrize("gamma_shape, beta_shape, x_shape", [
        ((7,), (6,), (4, 1, 6)), ((6,), (7,), (4, 1, 6)), ((7,), (7,), (4, 1, 6)),
        ((5, 6), (5, 6), (4, 2, 1, 6)), ((5, 6), (4, 6), (5, 2, 1, 6))])
    def test_normalisation_parameters_off_the_feature_axis(self, rng, op, gamma_shape,
                                                           beta_shape, x_shape):
        x = Tensor(rng.standard_normal(x_shape))
        gamma, beta = Tensor(np.ones(gamma_shape)), Tensor(np.zeros(beta_shape))
        with pytest.raises(ShapeMismatch):
            if op == "batch_norm_eval":
                ad.batch_norm_eval(x, gamma, beta, np.zeros(gamma_shape), np.ones(gamma_shape))
            else:
                getattr(ad, op)(x, gamma, beta)

    def test_batch_norm_eval_statistics_of_another_stack(self, rng):
        x = Tensor(rng.standard_normal((5, 4, 1, 6)))
        gamma, beta = Tensor(np.ones((5, 6))), Tensor(np.zeros((5, 6)))
        with pytest.raises(ShapeMismatch):
            ad.batch_norm_eval(x, gamma, beta, np.zeros((4, 6)), np.ones((4, 6)))


@pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan")])
def test_dropout_outside_unit_interval_refused(rng, p):
    with pytest.raises(InvalidSpec):
        ad.dropout(Tensor(np.ones((3, 4))), p, rng)
