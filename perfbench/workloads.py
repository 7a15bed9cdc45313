"""The benchmark's workloads, their timed passes and their correctness checks.

A workload is a frozen ``spdtok.tasks`` builder (or the ``spdtok.verify``
suites) at one fixed size. One *pass* runs it once end to end through the
package's public entry points; a run repeats passes until its time is spent
and reports medians over them. The workload seed replaces the frozen task's
synth, split and model seeds, so the same seed always gives the same inputs.

Stage times come from three light probes that wrap ``train.tokenize_matrices``,
``train._evaluate`` and ``train.write_run_dir`` for the whole run; everything
else is timed around the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zlib

import numpy as np

from spdtok import container, tasks, train, verify
from spdtok.data import analysis_bands
from spdtok.network import ModelConfig, SpdTokenTransformer
from spdtok.optim import Adam

# Reference tokens use np.linalg.eigh and the package's documented 1e-12
# eigenvalue clip; a token entry may differ from them by TOKEN_TOL times the
# token's largest magnitude (at least 1).
TOKEN_TOL = 1e-9
CLIP = 1e-12
TOKEN_SAMPLE = 8
REF_FN = {"logeuclidean": np.log, "bwspd": np.sqrt}

TINY_MODEL = dict(d_model=16, layers=1, heads=2, d_ff=16)

# verify suites at the benchmark's fixed size (keyword overrides per suite)
VERIFY_SIZES = {
    "full": {"distortion": dict(n_pairs=30), "metrics": dict(triples=30),
             "bn_embed": dict(batches_per_eps=1), "gradient_oracle": dict(per_dim=3),
             "barycenter": dict(batches=1), "reconstruction": dict(trials=20),
             "gradient_bounds": dict(trials=50), "injectivity": dict(trials=50)},
    "tiny": {"norm_equivalence": dict(trials=20), "distortion": dict(dims=(2, 5), n_pairs=10),
             "injectivity": dict(trials=10), "metrics": dict(triples=10),
             "reconstruction": dict(trials=5), "conditioning": dict(dims=(2, 5)),
             "gradient_bounds": dict(trials=10), "gradient_oracle": dict(dims=(2, 3), per_dim=2),
             "micro_model": dict(n_params=10), "barycenter": dict(batches=1),
             "bn_embed": dict(batches_per_eps=2)},
}


def _train_t1(size):
    exp = tasks.learning_sanity_experiment(seeds=(0,))
    exp.epochs = 16
    if size == "tiny":
        exp.data.synth.update(dim=6, trials_per_class=8)
        exp.model, exp.epochs = dict(TINY_MODEL), 2
    return exp


def _spd_d56(size):
    exp = tasks.bn_dimension_experiment(8 if size == "tiny" else 56, True, seeds=(0,))
    exp.epochs = 2
    if size == "tiny":
        exp.data.synth["trials_per_class"] = 6
        exp.model = dict(TINY_MODEL, use_bn_embed=True)
    return exp


def _multiband_t3(size):
    exp = tasks.band_mixture_experiment(True, seeds=(0,))
    exp.epochs = 4
    if size == "tiny":
        exp.data.band_mixture.update(channels=4, samples=256, trials_per_class=6)
        exp.model, exp.epochs = dict(TINY_MODEL), 2
    return exp


# name -> (builder, the frozen task's data seed); README.md says why each is here
TRAINING = {
    "train_t1": (_train_t1, 2024),
    "spd_d56": (_spd_d56, 777),
    "multiband_t3": (_multiband_t3, 55),
}
DEFAULT_SEEDS = {name: spec[1] for name, spec in TRAINING.items()} | {"verify": 0}


def build(name: str, seed: int, size: str = "full"):
    """The workload's ExperimentConfig with its seeds replaced by `seed`."""
    exp = TRAINING[name][0](size)
    spec = exp.data.synth if exp.data.source == "synth" else exp.data.band_mixture
    spec["seed"] = seed
    exp.data.split_seed = seed
    exp.seeds = (seed,)
    return exp


def model_config(exp) -> ModelConfig:
    """The model run_single will build, derived from the config alone."""
    if exp.data.source == "synth":
        d, n_classes, seq_len = exp.data.synth["dim"], exp.data.synth["n_classes"], 1
    else:
        bm = exp.data.band_mixture
        d, n_classes = bm["channels"], 2
        seq_len = len(analysis_bands(bm["sample_rate_hz"])) if exp.data.multiband else 1
    return ModelConfig(d_token=d * (d + 1) // 2, n_classes=n_classes, seq_len=seq_len,
                       **exp.model)


def setup(name: str, seed: int, size: str = "full"):
    """Everything before data work: config, then model and Adam."""
    if name == "verify":
        return dict(VERIFY_SIZES[size])
    exp = build(name, seed, size)
    model = SpdTokenTransformer(model_config(exp), seed=seed)
    return exp, model, Adam(model.params, lr=exp.lr)


# -- stage probes ----------------------------------------------------------------


class StageProbes:
    """Times the tokenise, evaluate and checkpoint stages inside run_single.

    Also keeps what the correctness checks need: a fixed sample of the
    matrices handed to tokenize_matrices, and the model and best state that
    write_run_dir saved.
    """

    def __init__(self):
        self.reset()
        self._originals = {}

    def reset(self):
        self.tokenize_s = 0.0
        self.eval_s = []
        self.checkpoint_s = 0.0
        self.sample = None
        self.saved = None

    def install(self):
        for attr in ("tokenize_matrices", "_evaluate", "write_run_dir"):
            if not callable(getattr(train, attr, None)):
                raise RuntimeError(f"spdtok.train.{attr} is gone; update the stage probes")
            self._originals[attr] = getattr(train, attr)
        tokenize, evaluate, write = (self._originals[a] for a in
                                     ("tokenize_matrices", "_evaluate", "write_run_dir"))

        def probe_tokenize(Cs, kind, *args, **kwargs):
            t0 = time.perf_counter()
            tokens, diag = tokenize(Cs, kind, *args, **kwargs)
            self.tokenize_s += time.perf_counter() - t0
            idx = np.linspace(0, len(Cs) - 1, min(TOKEN_SAMPLE, len(Cs))).astype(int)
            kind_name = str(getattr(kind, "value", kind))
            self.sample = (idx, np.array(Cs[idx], dtype=np.float64), kind_name)
            return tokens, diag

        def probe_evaluate(*args, **kwargs):
            t0 = time.perf_counter()
            out = evaluate(*args, **kwargs)
            self.eval_s.append(time.perf_counter() - t0)
            return out

        def probe_write(out_dir, report, model, best_state):
            t0 = time.perf_counter()
            write(out_dir, report, model, best_state)
            self.checkpoint_s += time.perf_counter() - t0
            self.saved = (out_dir, model, best_state)

        train.tokenize_matrices = probe_tokenize
        train._evaluate = probe_evaluate
        train.write_run_dir = probe_write

    def uninstall(self):
        for attr, fn in self._originals.items():
            setattr(train, attr, fn)


# -- checks ----------------------------------------------------------------------


def reference_tokens(Cs: np.ndarray, kind: str) -> np.ndarray:
    """triu(f(C)) through np.linalg.eigh, independent of spdtok's solver."""
    w, V = np.linalg.eigh(0.5 * (Cs + np.swapaxes(Cs, 1, 2)))
    M = (V * REF_FN[kind](np.maximum(w, CLIP))[:, None, :]) @ np.swapaxes(V, 1, 2)
    M = 0.5 * (M + np.swapaxes(M, 1, 2))
    i, j = np.triu_indices(Cs.shape[-1])
    return M[:, i, j]


def token_error(tokens: np.ndarray, sample) -> float:
    idx, Cs, kind = sample
    flat = tokens.reshape(-1, tokens.shape[-1])
    ref = reference_tokens(Cs, kind)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    return float(np.max(np.max(np.abs(flat[idx] - ref), axis=1) / scale))


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def checkpoint_round_trips(saved) -> bool:
    out_dir, model, best_state = saved
    ok = True
    for fname, state in (("checkpoint.spdt", model.state_arrays()),
                         ("checkpoint_best.spdt", best_state)):
        _, arrays = container.load_checkpoint(os.path.join(out_dir, fname))
        ok = ok and list(arrays) == list(state) and all(
            _bits_equal(arrays[k], state[k]) for k in state)
    return ok


def file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# -- passes ----------------------------------------------------------------------


class TrainingRun:
    """Repeated passes of one training workload with a fixed seed."""

    def __init__(self, name, seed, size, work_dir):
        self.seed = seed
        self.exp = build(name, seed, size)
        mc = model_config(self.exp)
        self.expected_shape = (mc.seq_len, mc.d_token)
        self.work_dir = work_dir
        self.probes = StageProbes()
        self.metrics_sha = []
        self.last_tokens = None

    def __enter__(self):
        self.probes.install()
        return self

    def __exit__(self, *exc):
        self.probes.uninstall()
        return False

    def run_pass(self, index: int, span=None) -> tuple:
        """One end-to-end pass; returns (stage samples, check results).

        `span(name, fn, *args)` runs each stage when the pass is traced.
        """
        span = span or (lambda name, fn, *a: fn(*a))
        p = self.probes
        p.reset()
        out_dir = os.path.join(self.work_dir, f"pass{index}")
        t0 = time.perf_counter()
        tds = span("stage.tokenize_all", train.tokenize, self.exp.data)
        t1 = time.perf_counter()
        report = span("stage.run_single", train.run_single, self.exp, tds, self.seed, out_dir)
        t2 = time.perf_counter()

        epochs = [row["wall_clock_s"] for row in report.epochs]
        n_train = report.config["split_sizes"][0]
        per_epoch = max(1, len(p.eval_s) // len(epochs))
        stages = {
            "wall_s": [t2 - t0],
            "data_s": [(t1 - t0) - p.tokenize_s],
            "tokenize_s": [p.tokenize_s],
            "train_epoch_s": epochs,
            "train_samples_per_s": [n_train / w for w in epochs],
            "eval_s": [sum(p.eval_s[i:i + per_epoch])
                       for i in range(0, len(p.eval_s), per_epoch)],
            "checkpoint_s": [p.checkpoint_s],
        }

        sha = file_sha256(os.path.join(out_dir, "metrics.json"))
        self.metrics_sha.append(sha)
        losses = [row[k] for row in report.epochs for k in ("train_loss", "val_loss", "test_loss")]
        err = token_error(tds.tokens, p.sample)
        checks = {
            "token_max_rel_err": err,
            "tokens_match_eigh": err <= TOKEN_TOL,
            "token_shape": tuple(tds.tokens.shape[1:]) == self.expected_shape,
            "losses_finite": bool(np.all(np.isfinite(losses))),
            "checkpoint_round_trip": checkpoint_round_trips(p.saved),
            "metrics_sha256": sha,
            "metrics_json_stable": sha == self.metrics_sha[0],
        }
        self.last_tokens = tds
        shutil.rmtree(out_dir, ignore_errors=True)
        return stages, checks

    def rerun_check(self) -> dict:
        """With one pass, a second run_single on its tokens must write the same metrics.json.

        With more, the passes have already been compared with each other.
        """
        if len(self.metrics_sha) > 1:
            return {}
        out_dir = os.path.join(self.work_dir, "rerun")
        train.run_single(self.exp, self.last_tokens, self.seed, out_dir)
        sha = file_sha256(os.path.join(out_dir, "metrics.json"))
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"metrics_json_rerun_equal": sha == self.metrics_sha[0]}


class VerifyRun:
    """Repeated passes of every spdtok.verify suite at one fixed size.

    The suites draw random dimensions and spectra, so the cost of one pass
    depends on its inputs. With `vary_inputs`, pass i draws from
    (seed, i, suite): a run's median then covers many inputs instead of one,
    and runs of different seeds agree. Traced runs keep the inputs of pass 0
    in every pass, so their counts repeat exactly.
    """

    def __init__(self, seed, size, vary_inputs=True):
        self.seed = seed
        self.sizes = VERIFY_SIZES[size]
        self.vary_inputs = vary_inputs
        self.first_sha = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def _suites(self, index, span) -> tuple:
        inputs = index if self.vary_inputs else 0
        results = []
        stages = {}
        start = time.perf_counter()
        for suite, fn in verify.SUITES.items():
            rng = np.random.default_rng([self.seed, inputs, zlib.crc32(suite.encode())])
            t0 = time.perf_counter()
            results.extend(span(f"verify.{suite}", fn, rng, **self.sizes.get(suite, {})))
            stages[f"suite.{suite}_s"] = [time.perf_counter() - t0]
        stages = {"wall_s": [time.perf_counter() - start], **stages}
        blob = json.dumps(verify.results_to_json(results), sort_keys=True).encode()
        return results, stages, hashlib.sha256(blob).hexdigest()

    def run_pass(self, index: int, span=None) -> tuple:
        """Every suite once; returns (stage samples, check results)."""
        span = span or (lambda name, fn, *a, **kw: fn(*a, **kw))
        results, stages, sha = self._suites(index, span)
        if index == 0:
            self.first_sha = sha
        failed = [f"{r.suite}/{r.name}" for r in results if not r.passed]
        checks = {"properties": len(results), "failed_properties": failed,
                  "all_properties_pass": not failed, "results_sha256": sha}
        if not self.vary_inputs:
            checks["results_stable"] = sha == self.first_sha
        return stages, checks

    def rerun_check(self) -> dict:
        """Pass 0's inputs, run again untimed, must give the same results."""
        _, _, sha = self._suites(0, lambda name, fn, *a, **kw: fn(*a, **kw))
        return {"results_rerun_equal": sha == self.first_sha}


def make_run(name, seed, size, work_dir, vary_inputs=True):
    if name == "verify":
        return VerifyRun(seed, size, vary_inputs)
    return TrainingRun(name, seed, size, work_dir)


def check_passed(checks: dict) -> bool:
    return all(v for v in checks.values() if isinstance(v, bool))
