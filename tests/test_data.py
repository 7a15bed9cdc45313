import hashlib
import tracemalloc

import numpy as np
import pytest

from spdtok.data import (
    BLOCK_VALUES,
    DEFAULT_RIDGE,
    BandMixtureSpec,
    BandSpec,
    SegmentBatch,
    SynthSpec,
    _band_bins,
    _in_band_white,
    _spatial_pattern,
    band_covariances,
    band_mixture_blocks,
    bandpass,
    estimate_covariance,
    nearest_anchor_accuracy,
    analysis_bands,
    split_indices,
    synth_band_mixture,
    synth_dataset,
    trial_key,
    trials_per_block,
)
from spdtok.embedding import EmbeddingKind, embed, embed_batch
from spdtok.errors import BandOutOfRange, DimMismatch, InvalidSpec, TooFewSamples
from spdtok.geometry import bw_distance, dispersion_report
from spdtok import spdcore
from spdtok.spdcore import SQRT, eig_sym, spectral_apply_batch

from conftest import stdout_at_blas_threads


class TestEstimateCovariance:
    def test_constant_channels_give_ridge_identity(self):
        X = np.ones((3, 50)) * np.array([[1.0], [2.0], [-4.0]])
        C = estimate_covariance(X)
        assert np.allclose(C, 1e-6 * np.eye(3), atol=1e-18)

    def test_hand_computed_two_samples(self):
        # de-meaned rows are [1, -1]; divisor T-1 = 1 -> all entries 2
        X = np.array([[1.0, -1.0], [1.0, -1.0]])
        C = estimate_covariance(X)
        assert np.allclose(C, np.array([[2.0, 2.0], [2.0, 2.0]]) + 1e-6 * np.eye(2))

    def test_white_noise_concentrates(self, rng):
        X = rng.standard_normal((8, 100_000))
        C = estimate_covariance(X)
        off = C - np.diag(np.diag(C))
        assert np.max(np.abs(off)) < 0.05
        assert np.all(np.diag(C) > 0.9) and np.all(np.diag(C) < 1.1)

    def test_spd_invariants(self, rng):
        X = rng.standard_normal((5, 40))
        C = estimate_covariance(X)
        assert np.array_equal(C, C.T)
        assert eig_sym(C).values.min() >= 1e-6 - 1e-12

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            estimate_covariance(np.ones((3, 1)))
        with pytest.raises(DimMismatch):
            estimate_covariance(np.ones(8))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_stack_rows_equal_one_segment_calls(self, threads):
        # every row of a stacked call has the bits of the 2-D call on its
        # segment, whatever the BLAS thread count
        child = (
            "import numpy as np\n"
            "from spdtok.data import estimate_covariance\n"
            "rng = np.random.default_rng(5)\n"
            "for shape in [(16, 8, 2048), (5, 22, 1000), (3, 56, 260), (4, 8, 256),\n"
            "              (2, 3, 5, 40)]:\n"
            "    X = rng.standard_normal(shape)\n"
            "    got = estimate_covariance(X)\n"
            "    assert got.shape == shape[:-1] + shape[-2:-1]\n"
            "    for i in np.ndindex(shape[:-2]):\n"
            "        assert got[i].tobytes() == estimate_covariance(X[i]).tobytes(), (shape, i)\n"
            "print('ok')\n"
        )
        assert stdout_at_blas_threads(["-c", child], threads) == "ok\n"


class TestBandpass:
    def test_in_band_sinusoid_preserved(self):
        fs, n = 250.0, 1000
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * 10.0 * t)[None, :]
        band = BandSpec("beta", 8.0, 13.0, fs)
        y = bandpass(x, band)
        assert np.sqrt(np.mean(y**2)) >= 0.99 * np.sqrt(np.mean(x**2))

    def test_out_of_band_sinusoid_killed(self):
        fs, n = 250.0, 1000
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * 10.0 * t)[None, :]
        band = BandSpec("gamma", 13.0, 30.0, fs)
        y = bandpass(x, band)
        assert np.sqrt(np.mean(y**2)) <= 1e-3 * np.sqrt(np.mean(x**2))

    def test_zero_in_zero_out(self):
        band = BandSpec("mu", 4.0, 8.0, 250.0)
        assert np.array_equal(bandpass(np.zeros((2, 64)), band), np.zeros((2, 64)))

    def test_band_validation(self):
        with pytest.raises(BandOutOfRange):
            BandSpec("bad", 0.0, 8.0, 250.0)
        with pytest.raises(BandOutOfRange):
            BandSpec("bad", 10.0, 8.0, 250.0)
        with pytest.raises(BandOutOfRange):
            BandSpec("bad", 10.0, 130.0, 250.0)

    def test_paper_band_edges(self):
        mu, beta, gamma = analysis_bands(250.0)
        assert (mu.lo_hz, mu.hi_hz) == (4.0, 8.0)
        assert (beta.lo_hz, beta.hi_hz) == (8.0, 13.0)
        assert (gamma.lo_hz, gamma.hi_hz) == (13.0, 30.0)


def filtered_covariances(X, bands):
    """The time-domain reference for band_covariances: filter, then estimate."""
    return np.stack([estimate_covariance(bandpass(X, b)) for b in bands])


def assert_relative_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


class TestBandCovariances:
    @pytest.mark.parametrize("n", [2048, 2047, 64, 63])
    def test_matches_filter_then_covariance(self, rng, n):
        X = 3.0 * rng.standard_normal((8, n)) + 1.5
        bands = analysis_bands(256.0)
        got = band_covariances(X, bands)
        for g, w in zip(got, filtered_covariances(X, bands), strict=True):
            assert_relative_close(g, w)

    def test_band_without_bins_is_the_ridge(self, rng):
        # 64 samples at 256 Hz put bins 4 Hz apart: none lies in [4.5, 7.5]
        X = rng.standard_normal((3, 64))
        band = BandSpec("between_bins", 4.5, 7.5, 256.0)
        got = band_covariances(X, [band])
        assert np.array_equal(got, [DEFAULT_RIDGE * np.eye(3)])
        assert np.array_equal(got, filtered_covariances(X, [band]))

    def test_constant_channel_is_ridge_only(self, rng):
        # at 2048 samples the FFT of a constant row is exactly zero off the DC
        # bin, and the mean of 2048 copies of -2.5 is exact
        X = rng.standard_normal((4, 2048))
        X[1] = -2.5
        bands = analysis_bands(256.0)
        got = band_covariances(X, bands)
        ridge_row = DEFAULT_RIDGE * np.eye(4)[1]
        for C in [*got, estimate_covariance(X)]:
            assert np.array_equal(C[1], ridge_row) and np.array_equal(C[:, 1], ridge_row)
        for g, w in zip(got, filtered_covariances(X, bands), strict=True):
            assert_relative_close(g, w)

    def test_stack_rows_equal_one_segment_calls(self, rng):
        X = rng.standard_normal((2, 3, 8, 2048))
        bands = analysis_bands(256.0)
        got = band_covariances(X, bands)
        assert got.shape == (2, 3, 3, 8, 8)
        for i in np.ndindex(2, 3):
            assert got[i].tobytes() == band_covariances(X[i], bands).tobytes()

    def test_memory_layout_does_not_matter(self, rng):
        X = rng.standard_normal((512, 8))
        bands = analysis_bands(256.0)
        got = band_covariances(X.T, bands)
        assert got.tobytes() == band_covariances(np.ascontiguousarray(X.T), bands).tobytes()

    def test_bits_independent_of_blas_threads(self):
        # 8192 samples give the gamma band 545 bins, an inner dimension of 1090
        # (re, im) pairs: longer than OpenBLAS's K block
        child = (
            "import hashlib, numpy as np\n"
            "from spdtok.data import analysis_bands, band_covariances\n"
            "X = np.random.default_rng(7).standard_normal((8, 8192))\n"
            "C = band_covariances(X, analysis_bands(256.0))\n"
            "print(hashlib.sha256(C.tobytes()).hexdigest())\n"
        )
        digests = [stdout_at_blas_threads(["-c", child], t) for t in ("1", "2")]
        assert digests[0] == digests[1]

    def test_input_shape_checks(self):
        bands = analysis_bands(256.0)
        with pytest.raises(DimMismatch):
            band_covariances(np.ones(64), bands)
        with pytest.raises(TooFewSamples):
            band_covariances(np.ones((3, 1)), bands)


def band_tokens(X, bands, kind):
    """One token per band, the way train.tokenize builds multi-band sequences."""
    return embed_batch(band_covariances(X, bands), kind)


class TestMultibandTokens:
    def test_three_bands_give_three_tokens(self, rng):
        X = rng.standard_normal((6, 512))
        toks = band_tokens(X, analysis_bands(256.0), EmbeddingKind.LOG_EUCLIDEAN)
        assert toks.shape == (3, 21)

    def test_single_band_matches_manual_pipeline(self, rng):
        X = rng.standard_normal((4, 256))
        band = BandSpec("beta", 8.0, 13.0, 256.0)
        toks = band_tokens(X, [band], EmbeddingKind.BWSPD)
        manual = embed(estimate_covariance(bandpass(X, band)), EmbeddingKind.BWSPD)
        assert np.allclose(toks[0], manual, atol=1e-12)

    def test_near_identity_band_matches_unfiltered(self, rng):
        # a band spanning every nonzero non-Nyquist bin only removes DC, which
        # the covariance estimator removes anyway
        fs, n = 256.0, 512
        X = rng.standard_normal((4, n))
        wide = BandSpec("wide", fs / n, fs / 2 - fs / n, fs)
        # strip Nyquist-bin content so the excluded top bin carries no energy
        spectrum = np.fft.rfft(X, axis=-1)
        spectrum[:, -1] = 0.0
        X = np.fft.irfft(spectrum, n=n, axis=-1)
        toks = band_tokens(X, [wide], EmbeddingKind.EUCLIDEAN)
        direct = embed(estimate_covariance(X), EmbeddingKind.EUCLIDEAN)
        assert np.linalg.norm(toks[0] - direct) <= 1e-9 * np.linalg.norm(direct)

    def test_band_energy_dominates_matching_band(self, rng):
        # 10 Hz sinusoid + weak noise: the beta-band covariance trace dominates
        fs, n = 256.0, 1024
        t = np.arange(n) / fs
        carrier = np.sin(2 * np.pi * 10.0 * t)
        X = np.outer(rng.uniform(0.5, 1.5, 6), carrier) + 0.05 * rng.standard_normal((6, n))
        traces = [np.trace(estimate_covariance(bandpass(X, b))) for b in analysis_bands(fs)]
        assert traces[1] > 5 * traces[0]
        assert traces[1] > 5 * traces[2]


class TestSynthDataset:
    def test_zero_dispersion_reproduces_anchors(self):
        ds = synth_dataset(SynthSpec(n_classes=3, dim=4, trials_per_class=5,
                                     separation=1.0, dispersion=0.0, seed=9))
        for C, label in zip(ds.matrices, ds.labels):
            anchor = ds.anchors[label]
            assert np.linalg.norm(C - anchor) <= 1e-10 * np.linalg.norm(anchor)

    def test_separation_enforced(self):
        ds = synth_dataset(SynthSpec(n_classes=4, dim=6, trials_per_class=2,
                                     separation=3.0, dispersion=0.02, seed=3))
        k = ds.anchors.shape[0]
        for a in range(k):
            for b in range(a + 1, k):
                assert bw_distance(ds.anchors[a], ds.anchors[b]) >= 3.0 - 1e-9

    def test_nearest_anchor_oracle_scores_100(self):
        ds = synth_dataset(SynthSpec(n_classes=2, dim=4, trials_per_class=100,
                                     separation=2.0, dispersion=0.05, seed=11))
        assert nearest_anchor_accuracy(ds) == 1.0

    def test_seed_determinism(self):
        spec = SynthSpec(n_classes=2, dim=5, trials_per_class=7,
                         separation=1.5, dispersion=0.1, seed=21)
        a = synth_dataset(spec)
        b = synth_dataset(spec)
        assert np.array_equal(a.matrices, b.matrices)
        assert np.array_equal(a.labels, b.labels)

    def test_dispersion_estimator_consistency(self):
        for eps in (0.05, 0.1, 0.2):
            ds = synth_dataset(SynthSpec(n_classes=1, dim=5, trials_per_class=24,
                                         separation=0.0, dispersion=eps, seed=5))
            rep = dispersion_report(ds.matrices)
            assert abs(rep.epsilon - eps) <= 0.3 * eps

    def test_dispersion_pairing_across_levels(self):
        # same seed, different dispersion: perturbation directions are shared,
        # so sample sqrt-offsets scale exactly with the dispersion value
        spec_lo = SynthSpec(n_classes=1, dim=4, trials_per_class=6,
                            separation=0.0, dispersion=0.05, seed=2)
        spec_hi = SynthSpec(n_classes=1, dim=4, trials_per_class=6,
                            separation=0.0, dispersion=0.1, seed=2)
        lo = synth_dataset(spec_lo)
        hi = synth_dataset(spec_hi)
        from spdtok.spdcore import SQRT, spectral_apply_batch
        anchor_sqrt = spectral_apply_batch(lo.anchors, SQRT)[0]
        off_lo = spectral_apply_batch(lo.matrices, SQRT) - anchor_sqrt
        off_hi = spectral_apply_batch(hi.matrices, SQRT) - anchor_sqrt
        assert np.allclose(2.0 * off_lo, off_hi, atol=1e-8)

    def test_frobenius_equalize(self):
        ds = synth_dataset(SynthSpec(n_classes=3, dim=5, trials_per_class=1,
                                     separation=0.0, dispersion=0.0, seed=4,
                                     frobenius_equalize=True))
        from spdtok.spdcore import SQRT, spectral_apply_batch
        norms = np.linalg.norm(spectral_apply_batch(ds.anchors, SQRT).reshape(3, -1), axis=1)
        assert np.allclose(norms, norms[0], rtol=1e-10)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(n_classes=0, dim=3, trials_per_class=1, separation=1, dispersion=0, seed=0)
        with pytest.raises(InvalidSpec):
            SynthSpec(n_classes=1, dim=3, trials_per_class=1, separation=-1, dispersion=0, seed=0)

    @pytest.mark.parametrize("fields", [
        dict(dim=3, eig_lo=0.5, eig_hi=0.5),  # every anchor 0.5 I, apart by rounding
        dict(dim=3, shared_basis=True, spectra=((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))),
        dict(dim=1, eig_lo=0.5, eig_hi=0.5),  # exactly equal 1 x 1 anchors
    ])
    def test_coinciding_anchors_refused(self, fields):
        # separating anchors that are equal up to rounding would rescale them
        # by about 1e15; the spec is refused instead
        spec = SynthSpec(n_classes=2, trials_per_class=2, separation=1.5,
                         dispersion=0.1, seed=0, **fields)
        with pytest.raises(InvalidSpec, match="anchors coincide"):
            synth_dataset(spec)

    def test_draws_above_the_floor_are_not_decomposed(self, monkeypatch):
        # the draws are far above the floor, so the cone clip keeps them as
        # drawn and only the tokeniser decomposes them
        calls = []
        eig = spdcore.eig_sym_batch
        monkeypatch.setattr(spdcore, "eig_sym_batch", lambda Cs: calls.append(len(Cs)) or eig(Cs))
        ds = synth_dataset(SynthSpec(n_classes=1, dim=6, trials_per_class=20,
                                     separation=0.0, dispersion=0.2, seed=8))
        assert calls == []
        assert np.array_equal(ds.matrices, np.swapaxes(ds.matrices, 1, 2))
        assert np.all(np.linalg.eigvalsh(ds.matrices)[:, 0] > 1e-3)

    def test_spec_round_trip(self):
        spec = SynthSpec(n_classes=2, dim=3, trials_per_class=4, separation=1.0,
                         dispersion=0.1, seed=7, spectra=((1.0, 2.0, 3.0), (2.0, 2.0, 2.0)))
        assert SynthSpec.from_dict(spec.to_dict()) == spec


class TestBandMixture:
    def test_shapes_and_determinism(self):
        spec = BandMixtureSpec(trials_per_class=4, samples=256, seed=1)
        a = synth_band_mixture(spec)
        b = synth_band_mixture(spec)
        assert a.data.shape == (8, 8, 256)
        assert np.array_equal(a.data, b.data)
        assert set(a.labels.tolist()) == {0, 1}

    def test_band_covariances_separate_classes(self):
        # the mu/beta spatial patterns swap between classes: within those bands
        # the class means differ clearly, while the broadband covariance hides
        # most of the signal
        spec = BandMixtureSpec(trials_per_class=12, samples=2048, seed=3)
        batch = synth_band_mixture(spec)

        def ratio(covs):
            mean0 = covs[batch.labels == 0].mean(axis=0)
            mean1 = covs[batch.labels == 1].mean(axis=0)
            within = np.concatenate([covs[batch.labels == 0] - mean0,
                                     covs[batch.labels == 1] - mean1])
            spread = np.mean(np.linalg.norm(within.reshape(len(within), -1), axis=1))
            return np.linalg.norm(mean0 - mean1) / spread

        covs = band_covariances(batch.data, analysis_bands(spec.sample_rate_hz))
        mu_ratio = ratio(covs[:, 0])
        beta_ratio = ratio(covs[:, 1])
        broad_ratio = ratio(np.stack([estimate_covariance(x) for x in batch.data]))
        assert mu_ratio > 1.2 and beta_ratio > 1.2
        assert broad_ratio < 0.8
        assert broad_ratio < 0.5 * min(mu_ratio, beta_ratio)

    @pytest.mark.parametrize("spec", [
        BandMixtureSpec(trials_per_class=3, samples=2048, seed=55, broadband_leak=0.2),
        BandMixtureSpec(channels=4, trials_per_class=2, samples=1023, seed=3),
    ])
    def test_matches_time_domain_mixture(self, spec):
        want_data, want_labels = time_domain_band_mixture(spec)
        got = synth_band_mixture(spec)
        assert np.array_equal(got.labels, want_labels)
        assert np.max(np.abs(got.data - want_data)) <= 1e-12 * np.max(np.abs(want_data))

    @pytest.mark.parametrize("n", [256, 255])
    @pytest.mark.parametrize("band", [0, 2])
    @pytest.mark.parametrize("source", ["drawn", "rfft"])
    def test_in_band_draw_has_the_law_of_white_noise_bins(self, n, band, source):
        # For white N(0, 1) noise of length n, the rfft bins with 0 < k < n/2
        # have independent real and imaginary parts, each N(0, n/2). The
        # direct draw and the rfft of white noise must both show that law:
        # with N samples of known zero mean, a normalised variance has
        # standard error sqrt(2/N), a correlation and a mean 1/sqrt(N); every
        # entry must lie within 5 of them.
        N = 4000
        rng = np.random.default_rng(20261019)
        sel = _band_bins(n, analysis_bands(256.0)[band])
        if source == "drawn":
            Z = _in_band_white(rng, N, n, sel)
        else:
            Z = np.fft.rfft(rng.standard_normal((N, n)), axis=-1).view(np.float64)[:, sel]
        Z = Z / np.sqrt(n / 2.0)
        assert Z.shape == (N, sel.stop - sel.start)
        R = Z.T @ Z / N
        off = R[~np.eye(len(R), dtype=bool)]
        assert np.max(np.abs(np.diag(R) - 1.0)) <= 5 * np.sqrt(2.0 / N)
        assert np.max(np.abs(off)) <= 5 / np.sqrt(N)
        assert np.max(np.abs(Z.mean(axis=0))) <= 5 / np.sqrt(N)


def time_domain_band_mixture(spec):
    """The mixture built in the time domain from the same draws: each band's
    source is the inverse FFT of its drawn in-band bins, which `bandpass`
    passes unchanged, and is rescaled, mixed and summed; then the noise."""
    rng = np.random.default_rng(spec.seed)
    d, n = spec.channels, spec.samples
    bands = analysis_bands(spec.sample_rate_hz)
    P, Qp, R = (_spatial_pattern(rng, d) for _ in range(3))
    leak = spec.broadband_leak
    patterns = {0: [P, Qp, R], 1: [Qp, (1.0 + leak) * P, R]}
    mixers = {cls: spectral_apply_batch(np.stack(patterns[cls]), SQRT) for cls in (0, 1)}
    freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate_hz)
    data, labels = [], []
    for cls in (0, 1):
        for _ in range(spec.trials_per_class):
            x = np.zeros((d, n))
            for b, band in enumerate(bands):
                k = np.flatnonzero((freqs >= band.lo_hz) & (freqs <= band.hi_hz))
                parts = np.sqrt(n / 2.0) * rng.standard_normal((d, 2 * k.size))
                spectrum = np.zeros((d, n // 2 + 1), dtype=np.complex128)
                spectrum[:, k] = parts[:, 0::2] + 1j * parts[:, 1::2]
                source = np.fft.irfft(spectrum, n=n, axis=-1)
                scale = np.max(np.abs(source))
                assert np.max(np.abs(bandpass(source, band) - source)) <= 1e-12 * scale
                source /= np.sqrt((band.hi_hz - band.lo_hz) / (spec.sample_rate_hz / 2.0))
                x += mixers[cls][b] @ source
            x += spec.noise_scale * rng.standard_normal((d, n))
            data.append(x)
            labels.append(cls)
    return np.stack(data), np.array(labels)


class TestBandMixtureBlocks:
    @pytest.mark.parametrize("spec", [
        BandMixtureSpec(trials_per_class=37, samples=2048, seed=4),
        BandMixtureSpec(channels=3, trials_per_class=5, samples=30000, seed=2),
        BandMixtureSpec(channels=3, trials_per_class=2, samples=100000, seed=2),  # 1 per block
        BandMixtureSpec(channels=4, trials_per_class=9, samples=512, seed=6),
    ])
    def test_blocks_hold_whole_trials_of_one_class(self, spec):
        blocks = list(band_mixture_blocks(spec))
        per_block = trials_per_block(spec.channels, spec.samples)
        assert per_block == max(1, BLOCK_VALUES // (spec.channels * spec.samples))
        for cls in (0, 1):
            sizes = [b.n_trials for b in blocks if b.labels[0] == cls]
            assert sum(sizes) == spec.trials_per_class
            assert all(n == per_block for n in sizes[:-1]) and 1 <= sizes[-1] <= per_block
        for b in blocks:
            assert b.data.shape[1:] == (spec.channels, spec.samples)
            assert np.all(b.labels == b.labels[0])
            assert b.sample_rate_hz == spec.sample_rate_hz

    def test_batch_is_the_join_of_the_blocks(self):
        spec = BandMixtureSpec(trials_per_class=37, samples=2048, seed=4)
        assert trials_per_block(spec.channels, spec.samples) == 16
        batch = synth_band_mixture(spec)
        blocks = list(band_mixture_blocks(spec))
        assert len(blocks) == 6
        assert batch.data.tobytes() == np.concatenate([b.data for b in blocks]).tobytes()
        assert np.array_equal(batch.labels, np.concatenate([b.labels for b in blocks]))
        assert batch.labels.dtype == np.int64

    def test_segment_batch_blocks_are_views_in_order(self, rng):
        batch = SegmentBatch(rng.standard_normal((9, 2, 2 ** 15)), np.arange(9) % 2, 128.0)
        blocks = list(batch.blocks())
        assert [b.n_trials for b in blocks] == [4, 4, 1]
        assert all(np.shares_memory(b.data, batch.data) for b in blocks)
        assert np.array_equal(np.concatenate([b.data for b in blocks]), batch.data)
        assert np.array_equal(np.concatenate([b.labels for b in blocks]), batch.labels)


def old_trial_key(arr):
    """The key as first written: sha256 of the shape, then of `tobytes()`."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.digest()


class TestTrialKey:
    @pytest.mark.parametrize("make", [
        lambda x: x,
        np.asfortranarray,
        lambda x: x[:, ::3],
        lambda x: x[::-1, 1:],
        lambda x: x.astype(np.float32),
        lambda x: np.round(100 * x).astype(np.int64),
        lambda x: x[:0],
        lambda x: x[0, 0],
    ])
    def test_digest_keeps_the_old_formula(self, rng, make):
        arr = make(rng.standard_normal((6, 40)))
        assert trial_key(arr) == old_trial_key(arr)

    def test_c_contiguous_trial_is_not_copied(self, rng):
        arr = rng.standard_normal((8, 2 ** 15))  # 2 MiB
        tracemalloc.start()
        try:
            trial_key(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes // 16


class TestSplits:
    def test_disjoint_cover_and_ratio(self, rng):
        keys = [trial_key(rng.standard_normal((3, 3))) for _ in range(100)]
        train, val, test = split_indices(keys, seed=42)
        joined = np.concatenate([train, val, test])
        assert sorted(joined.tolist()) == list(range(100))
        assert len(train) == 70 and len(val) == 15 and len(test) == 15

    def test_order_invariance(self, rng):
        items = [rng.standard_normal((4, 4)) for _ in range(60)]
        keys = [trial_key(x) for x in items]
        train, val, test = split_indices(keys, seed=7)
        perm = rng.permutation(60)
        keys_p = [keys[i] for i in perm]
        train_p, val_p, test_p = split_indices(keys_p, seed=7)
        # membership must follow the trials, not their positions
        train_set = {bytes(keys[i]) for i in train}
        train_set_p = {bytes(keys_p[i]) for i in train_p}
        assert train_set == train_set_p

    def test_seed_changes_split(self, rng):
        keys = [trial_key(rng.standard_normal((2, 2))) for _ in range(50)]
        a = split_indices(keys, seed=1)[0]
        b = split_indices(keys, seed=2)[0]
        assert not np.array_equal(a, b)

    def test_bad_ratios(self):
        with pytest.raises(InvalidSpec):
            split_indices([b"x"], seed=0, ratios=(0.5, 0.2, 0.2))
