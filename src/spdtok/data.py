"""Covariance estimation, band filtering, synthetic datasets, and splits.

Covariance of a multichannel segment X (channels x samples) is the sample
estimator after channel-wise de-meaning, X~ X~^T / (T - 1), plus a ridge
epsilon*I that keeps the result strictly positive definite.

Band filtering is zero-phase frequency-domain masking: real FFT per channel,
zero every bin outside [lo, hi], inverse FFT. Inside the band the filter is
exactly the identity, there is no phase distortion and no ringing order to
tune. A band's covariance never forms the filtered signal: by Parseval it is
the in-band cross-power of the one spectrum, 2 Re(Z Z^H) / (n (n - 1)) plus
the ridge, where Z holds the in-band bins. No band reaches the DC or Nyquist
bin (0 < lo < hi < fs/2), so the filtered signal has zero mean and every
in-band bin counts twice. `bandpass` stays as the time-domain reference.
Both covariance estimators take (..., channels, samples) stacks, and each
row of a stacked call has the bits of the call on that segment alone.

The band mixture never forms a band's white source in the time domain. For
white N(0, 1) noise x of length n, the rfft bin X_k = sum_t x_t e^(-2 pi i k t / n)
with 0 < k < n/2 has real and imaginary parts that are Gaussian with variance
sum_t cos^2 = sum_t sin^2 = n/2, and by the orthogonality of the Fourier basis
all of them are uncorrelated, hence independent. No band holds the DC or
Nyquist bin, so drawing a band's bins directly as independent N(0, n/2) pairs
gives the source's in-band spectrum the same law as filtering white noise;
only the sampled values differ. The mixture comes in blocks of as many whole
trials of one class as fit BLOCK_VALUES raw samples, drawn in the same trial
order as one batch, so a consumer can key and reduce each block and drop it.

The synthetic SPD generator samples in sqrt-space: class anchors mu_k are
drawn with a controlled spectrum, rescaled so every anchor pair is at least
`separation` apart in transport distance (the distance is 1-homogeneous in
sqrt-space scale, so a global rescale is enough), and each trial is
(sqrt(mu_k) + delta)^2 with ||delta||_F = dispersion * ||sqrt(mu_k)||_F * u,
u ~ U(0.5, 1). A squared draw is only positive semidefinite, so the draws
below the 1e-12 eigenvalue floor are clipped onto the SPD cone
(`spdcore.clip_to_cone`); every other draw keeps its bits, and the tokeniser
decomposes it once. Anchors closer than `ANCHOR_COINCIDE_RTOL` times the
largest sqrt-anchor norm cannot be separated and are refused. Because the
draw order does not depend on the dispersion value, datasets generated from
the same seed are perturbation-paired across dispersion levels, which the
second-order batch-normalisation check exploits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, asdict

import numpy as np

from . import geometry
from .errors import BandOutOfRange, ConfigFields, DimMismatch, InvalidSpec, TooFewSamples
from .spdcore import (IDENTITY, SQRT, clip_to_cone, random_orthogonal, spectral_apply_batch,
                      spectral_reconstruct, sym)

DEFAULT_RIDGE = 1e-6
SPLIT_RATIOS = (0.70, 0.15, 0.15)
# anchors closer than this times the largest sqrt-anchor norm count as one:
# their distance is rounding, and rescaling it to `separation` would blow up
ANCHOR_COINCIDE_RTOL = 1e-9
# raw samples (2 MiB) per block of whole trials: the band mixture is drawn,
# and a segment source's keys and covariances are taken, a block at a time
BLOCK_VALUES = 2 ** 18


# -- covariance and filtering ---------------------------------------------------


def estimate_covariance(X: np.ndarray) -> np.ndarray:
    """Sample covariance of a (channels, samples) segment plus DEFAULT_RIDGE * I.

    X may be a (..., channels, samples) stack; each row of the result has the
    bits of the call on that segment alone.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2:
        raise DimMismatch(f"expected (..., channels, samples), got {X.shape}")
    n_ch, n_s = X.shape[-2:]
    if n_s < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n_s}")
    centered = X - X.mean(axis=-1, keepdims=True)
    C = centered @ np.swapaxes(centered, -1, -2) / (n_s - 1) + DEFAULT_RIDGE * np.eye(n_ch)
    return sym(C)


@dataclass(frozen=True)
class BandSpec:
    name: str
    lo_hz: float
    hi_hz: float
    sample_rate_hz: float

    def __post_init__(self):
        nyquist = self.sample_rate_hz / 2.0
        if not (0.0 < self.lo_hz < self.hi_hz < nyquist):
            raise BandOutOfRange(
                f"band {self.name}: need 0 < {self.lo_hz} < {self.hi_hz} < {nyquist}")

    def to_dict(self):
        return asdict(self)


def analysis_bands(sample_rate_hz: float):
    """The three analysis bands used for multi-band tokenisation."""
    return [
        BandSpec("mu", 4.0, 8.0, sample_rate_hz),
        BandSpec("beta", 8.0, 13.0, sample_rate_hz),
        BandSpec("gamma", 13.0, 30.0, sample_rate_hz),
    ]


def _band_mask(n: int, band: BandSpec) -> np.ndarray:
    """Which rfft bins of n samples the band passes: lo <= f <= hi."""
    freqs = np.fft.rfftfreq(n, d=1.0 / band.sample_rate_hz)
    return (freqs >= band.lo_hz) & (freqs <= band.hi_hz)


def bandpass(X: np.ndarray, band: BandSpec) -> np.ndarray:
    """Zero-phase FFT mask along the last axis; bins with lo <= f <= hi pass."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[-1]
    spectrum = np.fft.rfft(X, axis=-1)
    spectrum *= _band_mask(n, band)
    return np.fft.irfft(spectrum, n=n, axis=-1)


def _band_bins(n: int, band: BandSpec) -> slice:
    """The band's pass bins as a slice of the rfft spectrum viewed as
    interleaved (re, im) float64 pairs; the bins are contiguous."""
    idx = np.flatnonzero(_band_mask(n, band))
    if idx.size == 0:
        return slice(0, 0)
    return slice(2 * idx[0], 2 * idx[-1] + 2)


def band_covariances(X: np.ndarray, bands) -> np.ndarray:
    """`estimate_covariance(bandpass(X, band))` for every band, from one FFT.

    X is (..., channels, samples); the result is (..., len(bands), channels,
    channels). With the in-band bins of each row laid out as (re, im) pairs,
    Re(Z Z^H) is one real product W W^T; see the module docstring.
    """
    # C order, so the spectrum's last axis can be viewed as float pairs
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim < 2:
        raise DimMismatch(f"expected (..., channels, samples), got {X.shape}")
    n_ch, n_s = X.shape[-2:]
    if n_s < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n_s}")
    pairs = np.fft.rfft(X, axis=-1).view(np.float64)
    ridge = DEFAULT_RIDGE * np.eye(n_ch)
    out = np.empty(X.shape[:-2] + (len(bands), n_ch, n_ch))
    for b, band in enumerate(bands):
        W = pairs[..., _band_bins(n_s, band)]
        C = W @ np.swapaxes(W, -1, -2) * (2.0 / (n_s * (n_s - 1))) + ridge
        out[..., b, :, :] = sym(C)
    return out


# -- segment batches --------------------------------------------------------------


@dataclass
class SegmentBatch:
    """Raw multichannel trials: data is (trials, channels, samples)."""

    data: np.ndarray
    labels: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.data.ndim != 3 or self.data.shape[2] < 2:
            raise InvalidSpec(f"data shape {self.data.shape}")
        if self.labels.shape != (self.data.shape[0],):
            raise InvalidSpec("labels length mismatch")
        if self.labels.min(initial=0) < 0:
            raise InvalidSpec("negative label")

    @property
    def n_trials(self):
        return self.data.shape[0]

    def blocks(self):
        """The batch as views of `trials_per_block` consecutive trials."""
        per_block = trials_per_block(*self.data.shape[1:])
        for start in range(0, self.n_trials, per_block):
            rows = slice(start, start + per_block)
            yield SegmentBatch(self.data[rows], self.labels[rows], self.sample_rate_hz)


# -- synthetic SPD datasets --------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec(ConfigFields):
    n_classes: int
    dim: int
    trials_per_class: int
    separation: float
    dispersion: float
    seed: int
    eig_lo: float = 0.5
    eig_hi: float = 2.0
    scale: float = 1.0
    shared_basis: bool = False
    spectra: tuple[tuple[float, ...], ...] = ()  # optional per-class eigenvalue tuples
    frobenius_equalize: bool = False

    RULES = {
        "n_classes": "[1, inf)", "dim": "[1, inf)", "trials_per_class": "[1, inf)",
        "separation": "[0, inf)", "dispersion": "[0, inf)", "seed": "[0, inf)",
        "eig_lo": "(0, inf)", "eig_hi": "(0, inf)", "scale": "(0, inf)", "spectra": "(0, inf)",
    }

    def cross_check(self):
        if self.eig_lo > self.eig_hi:
            raise InvalidSpec(f"eigenvalue range must satisfy eig_lo <= eig_hi, "
                              f"got {self.eig_lo} > {self.eig_hi}")
        if self.spectra and (len(self.spectra) != self.n_classes
                             or any(len(lam) != self.dim for lam in self.spectra)):
            raise InvalidSpec(f"spectra must list one spectrum of {self.dim} values "
                              f"per class ({self.n_classes})")


@dataclass
class SpdDataset:
    matrices: np.ndarray  # (n, d, d)
    labels: np.ndarray   # (n,)
    anchors: np.ndarray  # (n_classes, d, d)
    spec: SynthSpec


def synth_dataset(spec: SynthSpec) -> SpdDataset:
    """Seed-deterministic clustered SPD dataset; see the module docstring."""
    rng = np.random.default_rng(spec.seed)
    d, k = spec.dim, spec.n_classes

    shared_q = random_orthogonal(rng, d) if spec.shared_basis else None
    sqrt_anchors = []
    for c in range(k):
        Q = shared_q if shared_q is not None else random_orthogonal(rng, d)
        if spec.spectra:
            # explicit spectra keep their slot order: with a shared basis the
            # pairing of eigenvalue to eigenvector carries the class signal
            lam = np.asarray(spec.spectra[c], dtype=np.float64) * spec.scale
        else:
            lam = np.sort(np.exp(rng.uniform(np.log(spec.eig_lo), np.log(spec.eig_hi), d)))[::-1]
            lam = lam * spec.scale
        sqrt_anchors.append(spectral_reconstruct(Q, lam, SQRT, clip=0.0))
    sqrt_anchors = np.stack(sqrt_anchors)

    if spec.frobenius_equalize:
        norms = np.linalg.norm(sqrt_anchors.reshape(k, -1), axis=1)
        sqrt_anchors *= (norms.mean() / norms)[:, None, None]

    anchors = sym(sqrt_anchors @ sqrt_anchors)
    if k > 1 and spec.separation > 0:
        dists = [geometry.bw_distance(anchors[a], anchors[b])
                 for a in range(k) for b in range(a + 1, k)]
        m = min(dists)
        scale = np.linalg.norm(sqrt_anchors, axis=(1, 2)).max()
        if m <= ANCHOR_COINCIDE_RTOL * scale:
            raise InvalidSpec(f"anchors coincide (smallest distance {m:.3e}, largest sqrt-anchor "
                              f"norm {scale:.3e}); cannot enforce separation")
        if m < spec.separation:
            gamma = 1.02 * spec.separation / m
            sqrt_anchors *= gamma
            anchors = sym(sqrt_anchors @ sqrt_anchors)

    n = k * spec.trials_per_class
    mats = np.empty((n, d, d))
    labels = np.empty(n, dtype=np.int64)
    idx = 0
    for c in range(k):
        base = sqrt_anchors[c]
        base_norm = np.linalg.norm(base)
        for _ in range(spec.trials_per_class):
            direction = rng.standard_normal((d, d))
            direction = sym(direction)
            direction /= np.linalg.norm(direction)
            magnitude = spec.dispersion * base_norm * rng.uniform(0.5, 1.0)
            S = base + magnitude * direction
            mats[idx] = sym(S @ S)
            labels[idx] = c
            idx += 1
    # squared symmetric matrices are only PSD: clip the ones below the floor
    mats = clip_to_cone(mats)
    return SpdDataset(matrices=mats, labels=labels, anchors=anchors, spec=spec)


def nearest_anchor_accuracy(ds: SpdDataset) -> float:
    """Accuracy of classifying each trial to its transport-nearest anchor."""
    dists = np.stack([geometry.bw_distances_to(ds.matrices, anchor)
                      for anchor in ds.anchors], axis=1)
    return float(np.mean(np.argmin(dists, axis=1) == ds.labels))


# -- banded time-series mixtures ----------------------------------------------------


@dataclass(frozen=True)
class BandMixtureSpec(ConfigFields):
    """Two-class time-series task whose class signature is split across bands.

    The mu- and beta-band spatial patterns are swapped between the classes, so
    broadband covariance carries only a `broadband_leak`-sized residue of the
    class signal while each band alone separates them cleanly.
    """

    channels: int = 8
    samples: int = 1024
    sample_rate_hz: float = 256.0
    trials_per_class: int = 60
    broadband_leak: float = 0.15
    noise_scale: float = 0.3
    seed: int = 0

    RULES = {
        "channels": "[1, inf)", "samples": "[2, inf)", "trials_per_class": "[1, inf)",
        "broadband_leak": "[0, inf)", "noise_scale": "[0, inf)", "seed": "[0, inf)",
    }

    def cross_check(self):
        try:
            analysis_bands(self.sample_rate_hz)
        except BandOutOfRange as err:
            raise InvalidSpec(f"BandMixtureSpec.sample_rate_hz={self.sample_rate_hz!r}: "
                              f"analysis {err}") from None


def _spatial_pattern(rng, d):
    return spectral_reconstruct(random_orthogonal(rng, d), np.geomspace(1.0, 6.0, d), IDENTITY)


def _in_band_white(rng, d: int, n: int, sel: slice) -> np.ndarray:
    """The bins `sel` (a `_band_bins` slice) of rfft(white N(0, 1) noise of
    shape (d, n)), drawn directly: independent N(0, n/2) parts, since no
    band holds the DC or Nyquist bin (see the module docstring)."""
    return np.sqrt(n / 2.0) * rng.standard_normal((d, sel.stop - sel.start))


def trials_per_block(channels: int, samples: int) -> int:
    """How many whole (channels, samples) trials fit BLOCK_VALUES raw samples;
    at least one."""
    return max(1, BLOCK_VALUES // (channels * samples))


def band_mixture_blocks(spec: BandMixtureSpec):
    """The band mixture as SegmentBatch blocks of `trials_per_block` trials,
    class 0's trials first; a block never holds two classes.

    Each trial mixes one white source per band, kept to the band's bins and
    scaled to unit broadband power, plus white noise. A band's source only
    ever enters through its in-band bins, so those are drawn directly
    (`_in_band_white`), mixed on one spectrum, and a trial takes one inverse
    FFT; a trial's draws are band 0, 1 and 2, then the time-domain noise, in
    trial order whatever the block size."""
    rng = np.random.default_rng(spec.seed)
    d, n_s = spec.channels, spec.samples
    bands = analysis_bands(spec.sample_rate_hz)
    P = _spatial_pattern(rng, d)
    Qp = _spatial_pattern(rng, d)
    R = _spatial_pattern(rng, d)
    leak = spec.broadband_leak
    patterns = {
        0: [P, Qp, R],
        1: [Qp, (1.0 + leak) * P, R],
    }
    gains = np.array([1.0 / np.sqrt((band.hi_hz - band.lo_hz) / (spec.sample_rate_hz / 2.0))
                      for band in bands])
    mixers = {cls: gains[:, None, None] * spectral_apply_batch(np.stack(patterns[cls]), SQRT)
              for cls in (0, 1)}
    bins = [_band_bins(n_s, band) for band in bands]
    per_block = trials_per_block(d, n_s)
    for cls in (0, 1):
        for start in range(0, spec.trials_per_class, per_block):
            data = np.empty((min(per_block, spec.trials_per_class - start), d, n_s))
            for trial in data:
                spectrum = np.zeros((d, n_s // 2 + 1), dtype=np.complex128)
                mixed = spectrum.view(np.float64)
                for mixer, sel in zip(mixers[cls], bins):
                    mixed[:, sel] += mixer @ _in_band_white(rng, d, n_s, sel)
                trial[...] = np.fft.irfft(spectrum, n=n_s, axis=-1)
                trial += spec.noise_scale * rng.standard_normal((d, n_s))
            yield SegmentBatch(data=data, labels=np.full(len(data), cls),
                               sample_rate_hz=spec.sample_rate_hz)


def synth_band_mixture(spec: BandMixtureSpec) -> SegmentBatch:
    """Every block of `band_mixture_blocks` in one batch."""
    blocks = list(band_mixture_blocks(spec))
    return SegmentBatch(data=np.concatenate([b.data for b in blocks]),
                        labels=np.concatenate([b.labels for b in blocks]),
                        sample_rate_hz=spec.sample_rate_hz)


# -- deterministic splits --------------------------------------------------------


def trial_key(arr: np.ndarray) -> bytes:
    """sha256 of the trial's shape and its float64 values in C order; a
    C-contiguous float64 trial is hashed in place, without a copy."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr)
    return h.digest()


def split_indices(keys, seed: int, ratios=SPLIT_RATIOS):
    """Deterministic train/val/test split keyed on content hashes.

    Each trial is ranked by sha256(seed || key); the ranking is a pure
    function of trial content, so permuting the input permutes the returned
    indices consistently (identical trials are interchangeable).
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or len(ratios) != 3:
        raise InvalidSpec(f"ratios must be three numbers summing to 1, got {ratios}")
    n = len(keys)
    seed_bytes = int(seed).to_bytes(8, "little", signed=True)
    digests = [hashlib.sha256(seed_bytes + bytes(k)).digest() for k in keys]
    order = sorted(range(n), key=lambda i: (digests[i], i))
    n_train = int(np.floor(ratios[0] * n))
    n_val = int(np.floor(ratios[1] * n))
    train = np.array(sorted(order[:n_train]), dtype=np.int64)
    val = np.array(sorted(order[n_train:n_train + n_val]), dtype=np.int64)
    test = np.array(sorted(order[n_train + n_val:]), dtype=np.int64)
    return train, val, test
