"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.state = {k: {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0}
                      for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        for k, p in self.params.items():
            if p.grad is None:
                continue
            state = self.state[k]
            state["t"] = self.t - 1  # adam_step advances it to this step's count
            p.data = adam_step(p.data, p.grad, state, self.lr, self.beta1, self.beta2, self.eps)


def adam_step(theta, grad, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One functional Adam update on plain arrays.

    state is a dict {m, v, t} mutated in place; returns the updated theta.
    Adam.step applies it to each tensor; tests drive it against a scalar
    reference implementation.
    """
    state["t"] += 1
    t = state["t"]
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * grad
    state["v"] = beta2 * state["v"] + (1.0 - beta2) * grad * grad
    m_hat = state["m"] / (1.0 - beta1 ** t)
    v_hat = state["v"] / (1.0 - beta2 ** t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps)
