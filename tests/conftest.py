import os
import subprocess
import sys

import numpy as np
import pytest

import spdtok
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


def stdout_at_blas_threads(argv, threads: str) -> str:
    """stdout of `python *argv` in a child interpreter whose BLAS runs
    `threads` threads (BLAS reads the count once, when it loads) and which
    imports this package."""
    src = os.path.dirname(os.path.dirname(spdtok.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc.stdout
