import numpy as np
import pytest

from spdtok.spdcore import random_orthogonal


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_spd(rng, d, kappa=None, scale=1.0):
    """Random SPD matrix; with kappa given, the spectrum spans exactly [1, kappa]."""
    Q = random_orthogonal(rng, d)
    if kappa is None:
        lam = np.exp(rng.uniform(0.0, 2.0, d))
    elif d == 1:
        lam = np.array([1.0])
    else:
        interior = np.exp(rng.uniform(0.0, np.log(float(kappa)), d - 2))
        lam = np.concatenate([[1.0, float(kappa)], interior])
    C = (Q * (lam * scale)) @ Q.T
    return 0.5 * (C + C.T)


def random_symmetric(rng, d, scale=1.0):
    M = rng.standard_normal((d, d)) * scale
    return 0.5 * (M + M.T)
