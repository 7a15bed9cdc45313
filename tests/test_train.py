import dataclasses
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdtok import autodiff as ad
from spdtok.container import write_matrix_container
from spdtok.data import (
    BandMixtureSpec,
    SynthSpec,
    _band_bins,
    _in_band_white,
    _spatial_pattern,
    analysis_bands,
    band_covariances,
    bandpass,
    estimate_covariance,
    synth_band_mixture,
    trial_key,
)
from spdtok.embedding import EmbeddingKind, embed, embed_batch
from spdtok.errors import InvalidSpec
from spdtok.network import ModelConfig, geometric_bias
from spdtok.spdcore import SQRT, spectral_apply_batch
from spdtok.tasks import band_mixture_experiment
from spdtok.train import (
    TOKEN_FIXED,
    DataConfig,
    ExperimentConfig,
    run_single,
    tokenize,
    tokenize_matrices,
    train_experiment,
)

from conftest import random_spd

SYNTH = dict(n_classes=2, dim=4, trials_per_class=15, separation=1.5,
             dispersion=0.05, seed=31)

NAN, INF = float("nan"), float("inf")
# config field path -> (valid values, bad values). Model and data sizes come
# from {0, 1, 2, 3} (64 samples at most), so that every config that builds
# trains a tiny model on a tiny task. The fields of OPTIONAL_FIELDS are left at
# their defaults in some configs.
CONFIG_FIELDS = {
    ("lr",): ([1e-3, 0.5, 1], [0, -1, NAN, INF, "0.001", True, None]),
    ("batch_size",): ([1, 2, 3, 64], [0, -1, 2.0, "8", True, None]),
    ("epochs",): ([1], [0, -1, 1.5, "1", True, None]),
    ("seeds",): ([[0], [1, 2], (3,), [2**64]], [[], [-1], 5, "1", [1.0], [True], [[1]], None]),
    ("model", "d_model"): ([1, 2, 3], [0, -2, 2.0, "2", True, None]),
    ("model", "layers"): ([1, 2], [0, 1.0, "1", False]),
    ("model", "heads"): ([1, 2], [0, -1, 1.5, "1", True]),
    ("model", "d_ff"): ([1, 2, 3], [0, 2.5, "2", None]),
    ("model", "dropout"): ([0, 0.5, 0.99], [1, 1.0, -0.1, "0.1", NAN, True, None]),
    ("model", "use_bn_embed"): ([True, False], [1, 0, "yes", None]),
    ("model", "attention"): (["standard", "geometric"], ["fancy", "", 1, None]),
    ("model", "geo_alpha"): ([0, 0.5, 1], [-0.1, 1.5, "x", NAN, True]),
    ("model", "d_token"): ([], [1, 3]),  # fixed by the tokens
    ("data", "source"): (["synth", "band_mixture"], ["nope", None, 1]),
    ("data", "embedding"): (["logeuclidean", "bwspd", "euclidean"], ["riemann", 1, None]),
    ("data", "multiband"): ([False, True], [1, "true", None]),
    ("data", "split_seed"): ([0, -1, 2**63 - 1, -2**63], [2**63, 1.0, "0", True, None]),
    ("data", "ratios"): ([[0.7, 0.15, 0.15], (1, 0, 0), [0, 0, 1]],
                         [[0.5, 0.5], [1.2, -0.1, -0.1], [0.5, 0.5, 0.5], [NAN, 0.5, 0.5],
                          "x", 1]),
    ("data", "container_path"): ([None], [1, [""]]),
    ("data", "synth", "n_classes"): ([1, 2, 3], [0, -1, 2.0, "2", True]),
    ("data", "synth", "dim"): ([1, 2, 3], [0, -1, 2.0, "22", None]),
    ("data", "synth", "trials_per_class"): ([1, 2, 3], [0, 1.5, "3"]),
    ("data", "synth", "separation"): ([0, 0.0, 1.5], [-1, NAN, INF, "1"]),
    ("data", "synth", "dispersion"): ([0, 0.05], [-0.1, NAN, "0"]),
    ("data", "synth", "seed"): ([0, 13, 2**70], [-1, 1.0, "13", True, None]),
    ("data", "synth", "eig_lo"): ([0.5, 2], [0, -1, NAN]),
    ("data", "synth", "eig_hi"): ([2.0, 0.5], [0, INF]),
    ("data", "synth", "scale"): ([1, 0.5], [0, -1, "1"]),
    ("data", "synth", "shared_basis"): ([False, True], [0, "no"]),
    ("data", "synth", "spectra"): ([[], [[1, 2], [2, 1]], [[1.0], [2.0]]],
                                   [[[1, -1], [1, 1]], [[0, 1], [1, 1]], [[1, "2"], [1, 1]],
                                    [[NAN, 1], [1, 1]], "x", 3]),
    ("data", "synth", "frobenius_equalize"): ([False, True], [1, None]),
    ("data", "band_mixture", "channels"): ([1, 2, 3], [0, -1, 8.0, "8", True]),
    ("data", "band_mixture", "samples"): ([2, 3, 64], [0, 1, 64.0, "64"]),
    ("data", "band_mixture", "sample_rate_hz"): ([64, 256.0, 61],
                                                 [40, 60, 0, -1, NAN, INF, "256", True]),
    ("data", "band_mixture", "trials_per_class"): ([1, 2, 3], [0, 1.5, None]),
    ("data", "band_mixture", "broadband_leak"): ([0, 0.2], [-0.1, NAN, "0.2"]),
    ("data", "band_mixture", "noise_scale"): ([0, 0.3], [-1, INF, None]),
    ("data", "band_mixture", "seed"): ([0, 55], [-1, 1.0, "5"]),
}

OPTIONAL_FIELDS = {("model", name) for name in ("dropout", "use_bn_embed", "attention",
                                                "geo_alpha")} | {("data", "synth", "spectra")}


@st.composite
def config_dicts(draw):
    """(config dict, path of the one field given a bad value or None): every
    field valid or left at its default, then in half of them one field bad."""
    cfg = {"model": {}, "data": {"synth": {}, "band_mixture": {}}}

    def put(path, value):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    for path, (valid, _) in CONFIG_FIELDS.items():
        if valid and (path not in OPTIONAL_FIELDS or draw(st.booleans())):
            put(path, draw(st.sampled_from(valid)))
    bad = draw(st.sampled_from(list(CONFIG_FIELDS))) if draw(st.booleans()) else None
    if bad is not None:
        put(bad, draw(st.sampled_from(CONFIG_FIELDS[bad][1])))
    return cfg, bad


def small_exp(**kw):
    defaults = dict(
        data=DataConfig(source="synth", embedding="logeuclidean", synth=SYNTH),
        model=dict(d_model=16, layers=1, heads=2, d_ff=16, dropout=0.1),
        epochs=2, batch_size=8, seeds=(5,),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigs:
    def test_data_config_validation(self):
        with pytest.raises(InvalidSpec):
            DataConfig(source="nope")
        with pytest.raises(InvalidSpec):
            DataConfig(source="synth")
        with pytest.raises(InvalidSpec):
            DataConfig(source="synth", synth=SYNTH, multiband=True)

    def test_experiment_round_trip(self):
        exp = small_exp()
        back = ExperimentConfig.from_dict(exp.to_dict())
        assert back.to_dict() == exp.to_dict()

    def test_json_file_round_trip(self, tmp_path):
        exp = small_exp()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp.to_dict()))
        assert ExperimentConfig.from_json_file(path).to_dict() == exp.to_dict()

    def test_field_table_names_every_config_field(self):
        # every field of every config class has a row, except the ones the
        # tokens fix, whose rows hold only refused values
        def paths(cls, *prefix, nested=()):
            return {(*prefix, f.name) for f in dataclasses.fields(cls) if f.name not in nested}

        want = (paths(ExperimentConfig, nested=("data", "model"))
                | paths(ModelConfig, "model", nested=tuple(TOKEN_FIXED))
                | paths(DataConfig, "data", nested=("synth", "band_mixture"))
                | paths(SynthSpec, "data", "synth")
                | paths(BandMixtureSpec, "data", "band_mixture"))
        fixed = {path for path, (valid, _) in CONFIG_FIELDS.items() if not valid}
        assert set(CONFIG_FIELDS) - fixed == want
        assert fixed <= {("model", name) for name in TOKEN_FIXED}

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(config_dicts())
    def test_config_is_refused_typed_or_trains(self, drawn):
        # a config with a bad field is an InvalidSpec; one that builds trains
        # an epoch with no exception. Only the synth draw may still refuse it,
        # when its class anchors coincide and cannot be separated.
        cfg, bad = drawn
        try:
            exp = ExperimentConfig.from_dict(cfg)
        except InvalidSpec:
            return
        unused = {"synth": "band_mixture", "band_mixture": "synth"}[exp.data.source]
        assert bad is None or bad[:2] == ("data", unused), f"built with a bad {bad}"
        try:
            tds = tokenize(exp.data)
        except InvalidSpec as err:
            assert "anchors coincide" in str(err)
            return
        run_single(exp, tds, exp.seeds[0])


class TestTokenize:
    def test_matrices_match_embed_batch(self, rng):
        Cs = np.stack([random_spd(rng, 5) for _ in range(6)])
        for kind in EmbeddingKind:
            toks, diag = tokenize_matrices(Cs, kind)
            assert np.allclose(toks, embed_batch(Cs, kind), atol=1e-10)
            assert diag["pairs"] == 6 * 10
            # one-matrix stack: the same bytes as the single-matrix tokeniser
            one, _ = tokenize_matrices(Cs[:1], kind)
            assert one[0].tobytes() == embed(Cs[0], kind).tobytes()

    def test_synth_source(self):
        tds = tokenize(DataConfig(source="synth", embedding="bwspd", synth=SYNTH))
        assert tds.tokens.shape == (30, 1, 10)
        assert tds.n_classes == 2
        assert len(tds.keys) == 30
        assert tds.branch["pairs"] == 30 * 6

    def test_multiband_source_matches_manual(self):
        spec = BandMixtureSpec(trials_per_class=3, samples=512, seed=2)
        tds = tokenize(DataConfig(source="band_mixture", embedding="logeuclidean",
                                  multiband=True, band_mixture=spec.to_dict()))
        assert tds.tokens.shape == (6, 3, 36)
        batch = synth_band_mixture(spec)
        covs = np.stack([estimate_covariance(bandpass(batch.data[0], b))
                         for b in analysis_bands(spec.sample_rate_hz)])
        manual = embed_batch(covs, EmbeddingKind.LOG_EUCLIDEAN)
        assert np.allclose(tds.tokens[0], manual, atol=1e-9)

    def test_container_source(self, rng, tmp_path):
        mats = np.stack([random_spd(rng, 4) for _ in range(8)])
        labels = rng.integers(0, 2, 8).astype(np.float64)
        path = tmp_path / "data.spdt"
        write_matrix_container(path, {"matrices": mats, "labels": labels})
        tds = tokenize(DataConfig(source="container", embedding="euclidean",
                                  container_path=str(path)))
        assert tds.tokens.shape == (8, 1, 10)
        assert np.array_equal(tds.labels, labels.astype(np.int64))

    def test_container_matrices_reject_multiband(self, rng, tmp_path):
        mats = np.stack([random_spd(rng, 4) for _ in range(12)])
        path = tmp_path / "mats.spdt"
        write_matrix_container(path, {"matrices": mats, "labels": np.zeros(12)})
        with pytest.raises(InvalidSpec, match="segments"):
            tokenize(DataConfig(source="container", container_path=str(path), multiband=True))

    @pytest.mark.parametrize("bad", [1.7, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("content", ["matrices", "segments"])
    def test_container_labels_must_be_class_indices(self, rng, tmp_path, content, bad):
        labels = np.array([0.0, bad, 1.0, 0.0])
        if content == "matrices":
            entries = {"matrices": np.stack([random_spd(rng, 3) for _ in range(4)])}
        else:
            entries = {"segments": rng.standard_normal((4, 3, 256)),
                       "sample_rate": np.float64(256.0)}
        path = tmp_path / "bad_labels.spdt"
        write_matrix_container(path, {**entries, "labels": labels})
        with pytest.raises(InvalidSpec, match="labels"):
            tokenize(DataConfig(source="container", container_path=str(path)))

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.zeros((4, 1)), np.zeros(5)])
    def test_container_labels_must_be_one_per_matrix(self, rng, tmp_path, labels):
        mats = np.stack([random_spd(rng, 3) for _ in range(4)])
        path = tmp_path / "mislabelled.spdt"
        write_matrix_container(path, {"matrices": mats, "labels": labels})
        with pytest.raises(InvalidSpec, match="labels"):
            tokenize(DataConfig(source="container", container_path=str(path)))

    @pytest.mark.parametrize("shape", [(5, 3), (5, 3, 4), (5, 2, 3, 3)])
    def test_container_matrices_must_be_square_stack(self, rng, tmp_path, shape):
        path = tmp_path / "not_a_stack.spdt"
        write_matrix_container(path, {"matrices": rng.standard_normal(shape),
                                      "labels": np.array([0.0, 1.0, 0.0, 1.0, 1.0])})
        with pytest.raises(InvalidSpec, match="stack"):
            tokenize(DataConfig(source="container", container_path=str(path)))

    @pytest.mark.parametrize("drop, missing", [("labels", "labels"),
                                               ("segments", "segments"),
                                               ("sample_rate", "sample_rate"),
                                               ("all", "labels")])
    def test_container_missing_entry_is_typed(self, rng, tmp_path, drop, missing):
        entries = {"segments": rng.standard_normal((4, 3, 256)),
                   "labels": np.array([0.0, 1.0, 0.0, 1.0]),
                   "sample_rate": np.float64(256.0)}
        entries = {} if drop == "all" else {k: v for k, v in entries.items() if k != drop}
        path = tmp_path / "partial.spdt"
        write_matrix_container(path, entries)
        with pytest.raises(InvalidSpec, match=missing):
            tokenize(DataConfig(source="container", container_path=str(path)))

    def test_container_sample_rate_must_be_one_number(self, rng, tmp_path):
        path = tmp_path / "two_rates.spdt"
        write_matrix_container(path, {"segments": rng.standard_normal((4, 3, 256)),
                                      "labels": np.array([0.0, 1.0, 0.0, 1.0]),
                                      "sample_rate": np.array([256.0, 128.0])})
        with pytest.raises(InvalidSpec, match="sample_rate"):
            tokenize(DataConfig(source="container", container_path=str(path)))

    @pytest.mark.parametrize("content", ["matrices", "segments"])
    def test_container_without_trials_is_typed(self, tmp_path, content):
        if content == "matrices":
            entries = {"matrices": np.zeros((0, 3, 3))}
        else:
            entries = {"segments": np.zeros((0, 3, 256)), "sample_rate": np.float64(256.0)}
        path = tmp_path / "empty.spdt"
        write_matrix_container(path, {**entries, "labels": np.zeros(0)})
        with pytest.raises(InvalidSpec, match="no trials"):
            tokenize(DataConfig(source="container", container_path=str(path)))

    def test_container_22_channels_gives_253_tokens(self, rng, tmp_path):
        mats = np.stack([random_spd(rng, 22) for _ in range(4)])
        labels = np.array([0, 1, 0, 1], dtype=np.float64)
        path = tmp_path / "c22.spdt"
        write_matrix_container(path, {"matrices": mats, "labels": labels})
        tds = tokenize(DataConfig(source="container", embedding="bwspd",
                                  container_path=str(path)))
        assert tds.tokens.shape == (4, 1, 253)

    def test_container_with_segments(self, rng, tmp_path):
        segs = rng.standard_normal((5, 4, 256))
        labels = np.array([0, 1, 0, 1, 1], dtype=np.float64)
        path = tmp_path / "segs.spdt"
        write_matrix_container(path, {"segments": segs, "labels": labels,
                                      "sample_rate": np.float64(256.0)})
        tds = tokenize(DataConfig(source="container", embedding="logeuclidean",
                                  container_path=str(path), multiband=True))
        assert tds.tokens.shape == (5, 3, 10)

    @pytest.mark.parametrize("multiband", [False, True])
    @pytest.mark.parametrize("shape", [(5, 4, 256), (9, 4, 2 ** 14)])  # 1 and 3 blocks
    def test_segment_tokens_are_embed_batch_trial_major(self, rng, tmp_path, multiband, shape):
        # one stack of per-trial covariances, trial-major and band-minor
        segs = rng.standard_normal(shape)
        n, d = shape[:2]
        labels = np.arange(n) % 2
        path = tmp_path / "segs.spdt"
        write_matrix_container(path, {"segments": segs, "labels": labels.astype(np.float64),
                                      "sample_rate": np.float64(256.0)})
        tds = tokenize(DataConfig(source="container", embedding="bwspd",
                                  container_path=str(path), multiband=multiband))
        if multiband:
            bands = analysis_bands(256.0)
            covs = np.concatenate([band_covariances(x, bands) for x in segs])
        else:
            covs = np.stack([estimate_covariance(x) for x in segs])
        want = embed_batch(covs, EmbeddingKind.BWSPD).reshape(n, 3 if multiband else 1, -1)
        assert tds.tokens.tobytes() == want.tobytes()
        assert tds.keys == [trial_key(x) for x in segs]
        assert np.array_equal(tds.labels, labels)


def per_trial_data_stage(spec: BandMixtureSpec, multiband: bool):
    """The band-mixture data stage as it was before trial blocks: the whole
    (n, d, samples) segment array drawn trial by trial, then every trial keyed
    and its covariances taken alone. Returns (keys, labels, (n, T, d, d))."""
    rng = np.random.default_rng(spec.seed)
    d, n_s = spec.channels, spec.samples
    bands = analysis_bands(spec.sample_rate_hz)
    P, Qp, R = (_spatial_pattern(rng, d) for _ in range(3))
    patterns = {0: [P, Qp, R], 1: [Qp, (1.0 + spec.broadband_leak) * P, R]}
    gains = np.array([1.0 / np.sqrt((band.hi_hz - band.lo_hz) / (spec.sample_rate_hz / 2.0))
                      for band in bands])
    mixers = {cls: gains[:, None, None] * spectral_apply_batch(np.stack(patterns[cls]), SQRT)
              for cls in (0, 1)}
    bins = [_band_bins(n_s, band) for band in bands]
    n = 2 * spec.trials_per_class
    data = np.empty((n, d, n_s))
    labels = np.empty(n, dtype=np.int64)
    idx = 0
    for cls in (0, 1):
        for _ in range(spec.trials_per_class):
            spectrum = np.zeros((d, n_s // 2 + 1), dtype=np.complex128)
            mixed = spectrum.view(np.float64)
            for mixer, sel in zip(mixers[cls], bins):
                mixed[:, sel] += mixer @ _in_band_white(rng, d, n_s, sel)
            data[idx] = np.fft.irfft(spectrum, n=n_s, axis=-1)
            data[idx] += spec.noise_scale * rng.standard_normal((d, n_s))
            labels[idx] = cls
            idx += 1
    if multiband:
        covs = np.stack([band_covariances(x, bands) for x in data])
    else:
        covs = np.stack([estimate_covariance(x) for x in data])[:, None]
    return [trial_key(x) for x in data], labels, covs


class TestTrialBlocks:
    @pytest.mark.parametrize("multiband", [True, False])
    @pytest.mark.parametrize("trials_per_class", [7, 37])  # 16 trials per block
    def test_tokens_equal_the_per_trial_stage(self, multiband, trials_per_class):
        spec = BandMixtureSpec(trials_per_class=trials_per_class, samples=2048, seed=9)
        tds = tokenize(DataConfig(source="band_mixture", embedding="logeuclidean",
                                  multiband=multiband, band_mixture=spec.to_dict()))
        keys, labels, covs = per_trial_data_stage(spec, multiband)
        n, T, d, _ = covs.shape
        tokens, branch = tokenize_matrices(covs.reshape(n * T, d, d),
                                           EmbeddingKind.LOG_EUCLIDEAN)
        assert tds.keys == keys
        assert tds.labels.dtype == np.int64 and np.array_equal(tds.labels, labels)
        assert tds.tokens.tobytes() == tokens.reshape(n, T, -1).tobytes()
        assert tds.branch == branch

    def test_data_stage_holds_under_half_the_segment_array(self):
        data_cfg = band_mixture_experiment(True).data
        spec = BandMixtureSpec.from_dict(data_cfg.band_mixture)
        segment_bytes = 2 * spec.trials_per_class * spec.channels * spec.samples * 8
        tracemalloc.start()
        try:
            tds = tokenize(data_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tds.tokens.shape == (200, 3, 36)
        assert peak < segment_bytes / 2, (peak, segment_bytes)


class TestRunSingle:
    def test_one_epoch_one_row(self):
        exp = small_exp(epochs=1)
        tds = tokenize(exp.data)
        rep = run_single(exp, tds, 5)
        assert len(rep.epochs) == 1
        assert rep.final_test_accuracy == rep.epochs[-1]["test_acc"]

    def test_run_dir_contents(self, tmp_path):
        exp = small_exp()
        tds = tokenize(exp.data)
        out = tmp_path / "run"
        rep = run_single(exp, tds, 5, str(out))
        assert sorted(os.listdir(out)) == [
            "checkpoint.spdt", "checkpoint_best.spdt", "epochs.csv", "metrics.json"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seed"] == 5
        assert len(metrics["epochs"]) == 2
        assert "wall_clock_s" not in metrics["epochs"][0]
        assert "eval_clock_s" not in metrics["epochs"][0]
        csv_lines = (out / "epochs.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3
        assert csv_lines[0].split(",")[-2:] == ["wall_clock_s", "eval_clock_s"]
        assert all(float(v) > 0.0 for line in csv_lines[1:] for v in line.split(",")[-2:])

    def test_geometric_bias_follows_data_embedding(self, monkeypatch):
        from spdtok import train

        used = []
        real = train._evaluate

        def recording(model, tokens, labels, attn_bias, splits):
            used.append(attn_bias)
            return real(model, tokens, labels, attn_bias, splits)

        monkeypatch.setattr(train, "_evaluate", recording)
        spec = BandMixtureSpec(channels=3, trials_per_class=8, samples=256, seed=4)
        for kind in EmbeddingKind:
            exp = small_exp(data=DataConfig(source="band_mixture", embedding=kind.value,
                                            multiband=True, band_mixture=spec.to_dict()),
                            model=dict(d_model=16, layers=1, heads=2, d_ff=16,
                                       attention="geometric"), epochs=1)
            tds = tokenize(exp.data)
            used.clear()
            run_single(exp, tds, 5)
            assert used[0] is tds.attention_bias, kind
            want = geometric_bias(tds.tokens, tds.embedding)
            assert used[0].shape == (16, 3, 3) and used[0].tobytes() == want.tobytes(), kind

    def test_step_tape_is_dead_before_the_next_forward(self, monkeypatch):
        from spdtok.network import SpdTokenTransformer

        real = SpdTokenTransformer.forward
        logits, alive = [], []

        def recording(model, *args, **kwargs):
            if kwargs.get("training"):
                alive.append([ref() is not None for ref in logits])
            out = real(model, *args, **kwargs)
            if kwargs.get("training"):
                logits.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(SpdTokenTransformer, "forward", recording)
        exp = small_exp(epochs=2)
        run_single(exp, tokenize(exp.data), 5)
        assert len(alive) == 2 * 3  # 21 training rows, batches of 8
        assert all(not any(seen) for seen in alive)

    def test_metrics_json_bytes_reproducible(self, tmp_path):
        exp = small_exp()
        tds = tokenize(exp.data)
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_single(exp, tds, 5, str(a))
        run_single(exp, tds, 5, str(b))
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    def test_checkpoint_restores_model(self, tmp_path):
        from spdtok.container import load_checkpoint
        from spdtok.network import ModelConfig, SpdTokenTransformer

        exp = small_exp()
        tds = tokenize(exp.data)
        out = tmp_path / "run"
        run_single(exp, tds, 5, str(out))
        header, arrays = load_checkpoint(out / "checkpoint.spdt")
        cfg = ModelConfig.from_dict(header["config"]["model"])
        model = SpdTokenTransformer(cfg, seed=0)
        model.load_state_arrays(arrays)
        logits = model.forward(tds.tokens[:4])
        assert np.all(np.isfinite(logits.data))


def evaluate_split(model, tokens, labels, attn_bias, batch):
    """Reference: one split alone, `batch` rows per forward pass."""
    total_loss, correct = 0.0, 0
    for start in range(0, len(labels), batch):
        sl = slice(start, start + batch)
        bias = attn_bias[sl] if attn_bias is not None else None
        logits = model.forward(tokens[sl], training=False, attn_bias=bias)
        total_loss += float(ad.cross_entropy(logits, labels[sl]).data) * len(labels[sl])
        correct += int(np.sum(np.argmax(logits.data, axis=1) == labels[sl]))
    return total_loss / len(labels), correct / len(labels)


class TestEvaluate:
    def test_one_call_per_epoch(self, monkeypatch):
        from spdtok import train

        calls = []
        real = train._evaluate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(train, "_evaluate", counting)
        exp = small_exp(epochs=3)
        run_single(exp, tokenize(exp.data), 5)
        assert len(calls) == 3

    @pytest.mark.parametrize("attention", ["standard", "geometric"])
    def test_splits_match_separate_evaluations_bitwise(self, monkeypatch, attention):
        from spdtok import train
        from spdtok.network import SpdTokenTransformer

        monkeypatch.setattr(train, "EVAL_BATCH", 16)
        spec = BandMixtureSpec(channels=4, trials_per_class=40, samples=256, seed=3)
        tds = tokenize(DataConfig(source="band_mixture", embedding="bwspd", multiband=True,
                                  band_mixture=spec.to_dict()))
        bias = tds.attention_bias if attention == "geometric" else None
        model = SpdTokenTransformer(ModelConfig(d_token=10, n_classes=2, seq_len=3, d_model=16,
                                                layers=1, heads=2, d_ff=16, attention=attention),
                                    seed=9)
        rng = np.random.default_rng(0)
        order = rng.permutation(80)
        # the first split spans four EVAL_BATCH chunks; none is a multiple of 16
        splits = (np.sort(order[:53]), np.sort(order[53:64]), np.sort(order[64:]))
        got = train._evaluate(model, tds.tokens, tds.labels, bias, splits)
        want = [evaluate_split(model, tds.tokens[idx], tds.labels[idx],
                               bias[idx] if bias is not None else None, 16) for idx in splits]
        assert got == want


class TestTrainExperiment:
    def test_geometric_bias_computed_once(self, monkeypatch):
        from spdtok import network, train

        calls = []
        real = network.geometric_bias

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "geometric_bias", counting)
        monkeypatch.setattr(train, "geometric_bias", counting)
        spec = BandMixtureSpec(channels=4, trials_per_class=10, samples=256, seed=3)
        exp = ExperimentConfig(
            data=DataConfig(source="band_mixture", embedding="bwspd", multiband=True,
                            band_mixture=spec.to_dict()),
            model=dict(d_model=16, layers=1, heads=2, d_ff=16, attention="geometric"),
            epochs=3, batch_size=8, seeds=(5,))
        train_experiment(exp)
        assert len(calls) == 1

    def test_summary_and_dirs(self, tmp_path):
        exp = small_exp(seeds=(5, 6))
        out = tmp_path / "exp"
        summary, reports = train_experiment(exp, str(out))
        assert len(reports) == 2
        assert set(summary["per_seed"]) == {"5", "6"}
        assert (out / "seed5" / "metrics.json").is_file()
        assert (out / "seed6" / "epochs.csv").is_file()
        assert (out / "summary.json").is_file()
        assert 0.0 <= summary["final_test_accuracy_mean"] <= 1.0
