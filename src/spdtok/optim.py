"""Adam optimizer over named parameter tensors.

`Adam.state[name]` holds that tensor's step count `t` and its two moment
estimates, kept unnormalised (Kingma & Ba 2015, end of section 2, with the
(1 - beta) factors moved out of the averages):

    m = beta1 * m + g        (= Adam's first moment  / (1 - beta1))
    v = beta2 * v + g * g    (= Adam's second moment / (1 - beta2))

so (1 - beta1), sqrt(1 - beta2) and both bias corrections fold into one
scalar step size and one scalar epsilon per step. A tensor whose `grad` is
None on a step is skipped, and its count does not advance, as in PyTorch.
"""

from __future__ import annotations

import math

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults; no run sets others


class Adam:
    def __init__(self, params: dict, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.state = {k: {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0}
                      for k, p in params.items()}
        # one work array for every tensor's update, sized to the largest
        self._scratch = np.empty(max((p.data.size for p in params.values()), default=0))

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        for k, p in self.params.items():
            if p.grad is not None:
                adam_step(p.data, p.grad, self.state[k], self.lr, self._scratch)


def adam_step(theta, grad, state, lr=1e-3, scratch=None):
    """One Adam update of the array `theta`, in place; returns `theta`.

    `state` is {m, v, t}, the unnormalised moments and step count of the
    module docstring, also updated in place. `scratch` is a work array of at
    least theta.size values (a fresh one when None). Adam.step applies this to
    each tensor; tests drive it against a textbook scalar reference.
    """
    state["t"] += 1
    t = state["t"]
    # theta -= lr * m_hat / (sqrt(v_hat) + eps), with m_hat = (1 - beta1) m / (1 - beta1^t)
    # and v_hat = (1 - beta2) v / (1 - beta2^t), multiplied through by
    # sqrt((1 - beta2^t) / (1 - beta2))
    root = math.sqrt((1.0 - BETA2 ** t) / (1.0 - BETA2))
    step_size = lr * (1.0 - BETA1) / (1.0 - BETA1 ** t) * root
    eps_t = EPS * root
    m, v = state["m"], state["v"]
    buf = (np.empty(theta.size) if scratch is None else scratch[:theta.size]).reshape(theta.shape)
    m *= BETA1
    m += grad
    v *= BETA2
    np.multiply(grad, grad, out=buf)
    v += buf
    np.sqrt(v, out=buf)
    buf += eps_t
    np.divide(m, buf, out=buf)
    buf *= step_size
    theta -= buf
    return theta
