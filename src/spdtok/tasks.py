"""Frozen benchmark task definitions used by the acceptance suite.

Each builder returns a ready ExperimentConfig. The constructions are designed
so that a specific effect is present by design and checkable against an
oracle:

  learning_sanity      well-separated 4-class clusters (nearest-anchor oracle
                       scores 100%); the tangent-space transformer must reach
                       95% mean final test accuracy
  bn_dimension         class information sits in a few small tail eigenvalues
                       under a large shared spectral bulk, so the token
                       offset-to-signal ratio grows with sqrt(channels):
                       embedding-space normalisation is decisive at d=56
                       (D_token=1596) and immaterial at d=8 (D_token=36)
  geometry_gap         tail eigenvalues differ by little in raw scale but by
                       log(6) after the matrix logarithm, with anchors
                       Frobenius-equalised; the flat embedding loses badly
  band_mixture         the mu/beta spatial patterns swap between classes, so
                       per-band tokens separate cleanly while the broadband
                       covariance carries only a small leak
"""

from __future__ import annotations

import numpy as np

from .train import DataConfig, ExperimentConfig

ACCEPTANCE_SEEDS = (42, 123, 456, 789, 1024)

SCALED_MODEL = dict(d_model=64, layers=4, heads=4, d_ff=128)
TAIL_SLOTS = 4


def tail_spectra(d: int, n_classes: int, common_lo: float, common_hi: float,
                 t_small: float, t_big: float) -> tuple:
    """Per-class spectra: a shared bulk plus TAIL_SLOTS small tail eigenvalues,
    of which class k boosts slot k mod TAIL_SLOTS."""
    common = np.geomspace(common_hi, common_lo, d - TAIL_SLOTS)
    out = []
    for k in range(n_classes):
        t = np.full(TAIL_SLOTS, t_small)
        t[k % TAIL_SLOTS] = t_big
        out.append(tuple(np.concatenate([common, t])))
    return tuple(out)


def learning_sanity_experiment(embedding: str = "logeuclidean",
                               seeds=ACCEPTANCE_SEEDS) -> ExperimentConfig:
    """4-class, 22-channel clustered task; default model, 50 epochs."""
    synth = dict(n_classes=4, dim=22, trials_per_class=100, separation=2.0,
                 dispersion=0.05, seed=2024)
    data = DataConfig(source="synth", embedding=embedding, synth=synth)
    return ExperimentConfig(data=data, model={}, lr=1e-3, batch_size=64,
                            epochs=50, seeds=seeds)


def bn_dimension_experiment(d: int, use_bn_embed: bool,
                            seeds=ACCEPTANCE_SEEDS) -> ExperimentConfig:
    """Shared-bulk tail task at channel count d with sqrt tokens."""
    synth = dict(n_classes=4, dim=d, trials_per_class=40, separation=0.0,
                 dispersion=0.01, seed=777, shared_basis=True,
                 spectra=tail_spectra(d, 4, common_lo=4.0, common_hi=16.0,
                                      t_small=0.05, t_big=2.0))
    data = DataConfig(source="synth", embedding="bwspd", synth=synth)
    return ExperimentConfig(data=data, model=dict(use_bn_embed=use_bn_embed),
                            lr=1e-3, batch_size=32, epochs=40, seeds=seeds)


def geometry_gap_experiment(embedding: str, seeds=ACCEPTANCE_SEEDS) -> ExperimentConfig:
    """Small-eigenvalue class structure with Frobenius-equalised anchors."""
    synth = dict(n_classes=4, dim=8, trials_per_class=60, separation=0.0,
                 dispersion=0.03, seed=888, shared_basis=True,
                 spectra=tail_spectra(8, 4, common_lo=4.0, common_hi=16.0,
                                      t_small=0.02, t_big=0.12),
                 frobenius_equalize=True)
    data = DataConfig(source="synth", embedding=embedding, synth=synth)
    return ExperimentConfig(data=data, model=dict(SCALED_MODEL), lr=1e-3,
                            batch_size=32, epochs=40, seeds=seeds)


def band_mixture_experiment(multiband: bool, seeds=ACCEPTANCE_SEEDS) -> ExperimentConfig:
    """Two-class banded mixture; T=3 tokens vs a single broadband token."""
    bm = dict(channels=8, samples=2048, sample_rate_hz=256.0, trials_per_class=100,
              broadband_leak=0.2, noise_scale=0.3, seed=55)
    data = DataConfig(source="band_mixture", embedding="logeuclidean",
                      multiband=multiband, band_mixture=bm)
    return ExperimentConfig(data=data, model=dict(SCALED_MODEL), lr=1e-3,
                            batch_size=32, epochs=40, seeds=seeds)
