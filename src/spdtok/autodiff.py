"""Minimal reverse-mode autodiff on numpy arrays.

A Tensor wraps an ndarray plus an optional gradient; operations build a DAG
by remembering their parents and a closure that maps the upstream gradient to
parent gradients. Tensor.backward() runs the closures in reverse topological
order, accumulating additively. Ops that fuse a whole layer (softmax,
layer_norm, batch_norm, cross_entropy) carry closed-form backward rules so
the graph stays small and fast.

Only what the transformer needs is implemented; there is no broadcasting
matmul beyond stacked batches times shared 2-D weights (or a stack of
weights, one per slice; see "Stack axis" below), and no in-place ops on a
tensor's data once it is built.

`linear` flattens every leading axis of its (..., m) input into one (-1, m)
matrix, multiplies it by the (m, k) weight in a single 2-D GEMM and reshapes
the result back to (..., k); its backward pass does the same for the input
gradient (skipped when the input needs none) and forms the weight gradient
as x2.T @ g2 on the flattened views. Each of these products sums its inner
dimension in fixed blocks of K_BLOCK (one GEMM when it is no longer): OpenBLAS
cuts a longer inner dimension into different blocks with one thread than with
several, so a d = 56 projection (1596 inputs) would otherwise change its bits
with the BLAS thread count. An output of MIN_COLS columns or fewer is formed
against weights padded with zero columns to MIN_COLS, a wider one to the next
multiple of KERNEL_COLS, and a one-row product with a zero row under it, so
that a row's result does not depend on how many rows share the product (a
36-column feed-forward layer otherwise would). The input gradient's W.T is
padded to a multiple of KERNEL_COLS too, whose bits otherwise (at 253, 300
or 1596 columns) depend on the BLAS thread count. A padded weight is a zero
block in the weight's memory order with the weight copied into its leading
columns: np.pad builds the same array through tens of microseconds of
Python, once per narrow product.

Every mean on the tape (layer and batch normalisation, forward and
backward, `mean_over_axis` and `cross_entropy`) is `_mean`: np.mean's
reduce-then-divide, with its bits, without its Python layer.

Stack axis: `linear`, `layer_norm`, `batch_norm_train`, `batch_norm_eval` and
`cross_entropy` also take S independent problems at once. Their weights and
affine parameters carry a leading axis, `(S, m, k)` and `(S, D)`, and their
activations a matching one, `(S, batch, T, .)`. The parameters' rank says
which case it is, and a 2-D weight or a 1-D affine parameter is the unstacked
case of the same code. Every product, its K_BLOCK blocking, padding and
one-row rule works per slice on the last two axes (numpy runs one GEMM per
slice), every reduction runs within a slice, never across the stack axis, and
reads the slice in the layout the unstacked op reads (numpy sums a strided
axis in another order). So slice s of a stacked op, forward and backward, has
the bits of the unstacked op on slice s alone. `cross_entropy` on `(S, n, k)`
logits gives the S per-slice losses; labels are shared `(n,)` or per slice
`(S, n)`.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphCycle, InvalidSpec, LabelOutOfRange, ShapeMismatch


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ShapeMismatch("backward() needs a scalar loss")
        order = _toposort(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _toposort(root):
    """Reverse topological order via iterative DFS; detects cycles defensively."""
    WHITE, GRAY, BLACK = 0, 1, 2
    state = {}
    order = []
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            state[id(node)] = BLACK
            order.append(node)
            continue
        mark = state.get(id(node), WHITE)
        if mark == BLACK:
            continue
        if mark == GRAY:
            raise GraphCycle("autodiff graph contains a cycle")
        state[id(node)] = GRAY
        stack.append((node, True))
        for parent in node._parents:
            if state.get(id(parent), WHITE) == WHITE:
                stack.append((parent, False))
            elif state.get(id(parent)) == GRAY:
                raise GraphCycle("autodiff graph contains a cycle")
    order.reverse()
    return order


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out_data, parents=(a, b), backward=backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return Tensor(out_data, parents=(a, b), backward=backward)


def scale(a, s: float):
    a = as_tensor(a)
    s = float(s)

    def backward(g):
        return (g * s,)

    return Tensor(a.data * s, parents=(a,), backward=backward)


# inner-dimension block of `_matmul`, below the 384-long K block of OpenBLAS's
# AVX-512 double GEMM, so BLAS never splits it further
K_BLOCK = 256


def _matmul(a, b):
    """a @ b over the last two axes (per slice of a leading stack axis),
    summing the inner dimension block by block in order.

    numpy sends a one-row product to a matrix-vector routine whose sums differ
    from GEMM's, so one row goes through GEMM with a zero row under it."""
    if a.shape[-2] == 1:
        return _matmul(np.concatenate([a, np.zeros_like(a)], axis=-2), b)[..., :1, :]
    out = a[..., :K_BLOCK] @ b[..., :K_BLOCK, :]
    for s in range(K_BLOCK, a.shape[-1], K_BLOCK):
        out += a[..., s:s + K_BLOCK] @ b[..., s:s + K_BLOCK, :]
    return out


# output widths `linear` hands OpenBLAS: with fewer than MIN_COLS columns (a
# two-class head), or more but not a multiple of KERNEL_COLS (OpenBLAS's
# kernel width), a row's bits depend on how many rows share the product, so W
# is padded with zero columns and the product cut back. A narrow head is padded
# to MIN_COLS only: padding it to KERNEL_COLS would change its bits.
MIN_COLS = 4
KERNEL_COLS = 8


def _matmul_cols(a, b, cols):
    """_matmul(a, b) against b padded with zero columns to `cols`, cut back to
    b's width. The padded b is a zero block in the memory order of b's slices
    (Fortran for a transposed weight, as np.pad would make it) with b copied
    into its leading columns."""
    k = b.shape[-1]
    if cols == k:
        return _matmul(a, b)
    if not b.flags.c_contiguous and b.strides[-2] == b.itemsize:
        padded = np.zeros(b.shape[:-2] + (cols, b.shape[-2])).swapaxes(-1, -2)
    else:
        padded = np.zeros(b.shape[:-1] + (cols,))
    padded[..., :k] = b
    return _matmul(a, padded)[..., :k].copy()


def _stack_of(op, x, param, rank):
    """The leading stack shape, () or (S,), of an op whose parameter `param`
    has `rank` axes unstacked; x must carry the same leading axis."""
    stack = param.shape[:-rank] if param.ndim > rank else ()
    if param.ndim < rank or len(stack) > 1:
        raise ShapeMismatch(f"{op}: parameter of shape {param.shape}")
    if x.shape[:len(stack)] != stack or x.ndim < len(stack) + 1:
        raise ShapeMismatch(f"{op}: input {x.shape} for a stack of {stack}")
    return stack


def _per_slice(a, stack, ndim):
    """A (*stack, D) parameter array shaped to broadcast against an ndim-axis
    (*stack, ..., D) activation, slice against slice; unstacked, `a` itself."""
    if not stack:
        return a
    return a.reshape(stack + (1,) * (ndim - len(stack) - 1) + a.shape[-1:])


def linear(x, W, b=None):
    """x @ W (+ b) where x is (*S, ..., m) and W is (*S, m, k), as one
    (*S, -1, m) @ (*S, m, k) product; the input gradient is formed only when x
    requires one."""
    x, W = as_tensor(x), as_tensor(W)
    stack = _stack_of("linear", x.data, W.data, 2)
    m, k = W.data.shape[-2:]
    if x.data.shape[-1] != m:
        raise ShapeMismatch(f"linear: {x.data.shape} @ {W.data.shape}")
    shape = x.data.shape
    x2 = x.data.reshape(stack + (-1, m))
    cols = MIN_COLS if k <= MIN_COLS else -(-k // KERNEL_COLS) * KERNEL_COLS
    out_data = _matmul_cols(x2, W.data, cols)
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != stack + (k,):
            raise ShapeMismatch(f"linear: bias {b.data.shape} for weight {W.data.shape}")
        out_data += b.data[..., None, :]  # the GEMM output is fresh, so add in place
    out_data = out_data.reshape(shape[:-1] + (k,))

    def backward(g):
        g2 = g.reshape(stack + (-1, k))
        gx = (_matmul_cols(g2, W.data.swapaxes(-1, -2), -(-m // KERNEL_COLS) * KERNEL_COLS)
              .reshape(shape) if x.requires_grad else None)
        gW = _matmul(x2.swapaxes(-1, -2), g2)
        if b is None:
            return gx, gW
        gb = g2.sum(axis=-2)
        return gx, gW, gb

    parents = (x, W) if b is None else (x, W, b)
    return Tensor(out_data, parents=parents, backward=backward)


def bmm(a, b, transpose_b=False):
    """Stacked matmul with identical leading dims: (..., n, m) @ (..., m, k)."""
    a, b = as_tensor(a), as_tensor(b)
    bd = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    if a.data.shape[:-2] != b.data.shape[:-2] or a.data.shape[-1] != bd.shape[-2]:
        raise ShapeMismatch(f"bmm: {a.data.shape} @ {b.data.shape} (transpose_b={transpose_b})")
    out_data = a.data @ bd

    def backward(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        if transpose_b:
            gb = np.swapaxes(gb, -1, -2)
        return ga, gb

    return Tensor(out_data, parents=(a, b), backward=backward)


def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return Tensor(a.data.reshape(shape), parents=(a,), backward=backward)


def transpose(a, axes):
    a = as_tensor(a)
    inverse = np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return Tensor(a.data.transpose(axes), parents=(a,), backward=backward)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return Tensor(a.data * mask, parents=(a,), backward=backward)


def _mean(a, axis, keepdims=False):
    """np.mean(a, axis, keepdims=keepdims) of a float64 array, bit for bit:
    np.add.reduce, then a true divide by the count, without numpy's Python
    layer (which costs more than the sum on the tape's small arrays)."""
    total = np.add.reduce(a, axis=axis, keepdims=keepdims)
    total /= a.size // max(total.size, 1)  # in place on an array, like np.mean
    return total


def mean_over_axis(a, axis):
    a = as_tensor(a)
    n = a.data.shape[axis]
    out_data = _mean(a.data, axis)

    def backward(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return Tensor(out_data, parents=(a,), backward=backward)


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, parents=(a,), backward=backward)


def _affine_stack(op, x, gamma, beta):
    """The stack shape of a normalisation's (*S, D) gamma and beta against its
    (*S, ..., D) input."""
    stack = _stack_of(op, x.data, gamma.data, 1)
    if gamma.data.shape != stack + x.data.shape[-1:] or beta.data.shape != gamma.data.shape:
        raise ShapeMismatch(f"{op}: gamma {gamma.data.shape} and beta {beta.data.shape} "
                            f"for input {x.data.shape}")
    return stack


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalise the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    stack = _affine_stack("layer_norm", x, gamma, beta)
    gain = _per_slice(gamma.data, stack, x.data.ndim)
    # centred once: the same operations, in the same order, as np.var's own
    xhat = x.data - _mean(x.data, -1, keepdims=True)
    inv = 1.0 / np.sqrt(_mean(xhat * xhat, -1, keepdims=True) + eps)
    xhat *= inv
    out_data = gain * xhat + _per_slice(beta.data, stack, x.data.ndim)

    def backward(g):
        dxhat = g * gain
        m1 = _mean(dxhat, -1, keepdims=True)
        m2 = _mean(dxhat * xhat, -1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(len(stack), g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return Tensor(out_data, parents=(x, gamma, beta), backward=backward)


def batch_norm_train(x, gamma, beta, eps=1e-5):
    """Per-feature normalisation over every axis except the last (and the
    stack axis).

    Returns (out, batch_mean, batch_var), both shaped like gamma; the caller
    owns the running-stat update. Variance is the biased estimator, both here
    and in the stats handed back.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    stack = _affine_stack("batch_norm_train", x, gamma, beta)
    axes = tuple(range(len(stack), x.data.ndim - 1))
    gain = _per_slice(gamma.data, stack, x.data.ndim)
    mean = _mean(x.data, axes, keepdims=True)
    # centred once: the same operations, in the same order, as np.var's own
    xhat = x.data - mean
    var = _mean(xhat * xhat, axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = gain * xhat + _per_slice(beta.data, stack, x.data.ndim)

    def backward(g):
        dxhat = g * gain
        m1 = _mean(dxhat, axes, keepdims=True)
        m2 = _mean(dxhat * xhat, axes, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    out = Tensor(out_data, parents=(x, gamma, beta), backward=backward)
    return out, mean.reshape(gamma.data.shape), var.reshape(gamma.data.shape)


def batch_norm_eval(x, gamma, beta, running_mean, running_var, eps=1e-5):
    """Fixed affine map using running statistics (shaped like gamma)."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    stack = _affine_stack("batch_norm_eval", x, gamma, beta)
    if np.shape(running_mean) != gamma.data.shape or np.shape(running_var) != gamma.data.shape:
        raise ShapeMismatch(f"batch_norm_eval: running statistics {np.shape(running_mean)} "
                            f"and {np.shape(running_var)} for gamma {gamma.data.shape}")
    inv = 1.0 / np.sqrt(running_var + eps)
    shift = Tensor(_per_slice(-running_mean * inv, stack, x.data.ndim))
    scale_const = Tensor(_per_slice(inv, stack, x.data.ndim))
    if stack:
        gamma = reshape(gamma, _per_slice(gamma.data, stack, x.data.ndim).shape)
        beta = reshape(beta, gamma.data.shape)
    xhat = add(mul(x, scale_const), shift)
    return add(mul(xhat, gamma), beta)


def dropout(x, p: float, rng: np.random.Generator):
    """Inverted dropout; scales kept activations by 1/(1-p) at train time.
    p must lie in [0, 1)."""
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise InvalidSpec(f"dropout probability {p} outside [0, 1)")
    if p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def backward(g):
        return (g * mask,)

    return Tensor(x.data * mask, parents=(x,), backward=backward)


def cross_entropy(logits, labels):
    """Mean negative log-softmax at the label, with max-shift stability.

    (n, k) logits give one loss; (S, n, k) logits give the S per-slice losses,
    against shared (n,) or per-slice (S, n) integer labels."""
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim not in (2, 3):
        raise ShapeMismatch(f"cross_entropy: logits of shape {logits.data.shape}, "
                            "expected (n, k) or (S, n, k)")
    *stack, n, k = logits.data.shape
    if labels.shape not in ((n,), logits.data.shape[:-1]):
        raise ShapeMismatch(f"labels shape {labels.shape} for {n} rows")
    if n == 0:
        raise ShapeMismatch("cross_entropy over an empty batch")
    if labels.dtype.kind not in "iu":
        raise LabelOutOfRange(f"labels must be integer class indices, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise LabelOutOfRange(f"labels must lie in [0, {k})")
    # the label entries, (i, labels[i]) or per slice (s, i, labels[(s,) i]):
    # an (S, n) index array picks a C-contiguous (S, n) block, whose mean over
    # n sums like the unstacked (n,) pick (a view strided across S would not)
    pick = (np.arange(n), labels)
    if stack:
        pick = (np.arange(stack[0])[:, None],) + pick
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logprobs = shifted - logsumexp
    loss = -_mean(logprobs[pick], -1)

    def backward(g):
        probs = np.exp(logprobs)
        probs[pick] -= 1.0
        return (g[..., None, None] * probs / n,)

    return Tensor(loss, parents=(logits,), backward=backward)
