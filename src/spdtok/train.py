"""Experiment configuration, tokenisation, and the training loop.

A run is fully determined by (config, seed): model init, batch shuffling and
dropout all draw from generators derived from the seed, and every file the
run writes except the timing columns of epochs.csv is a pure function of
the two. metrics.json deliberately contains no timing, so two runs with the
same config and seed produce byte-identical metrics files.

Every data source reduces to its trial keys, int64 labels and one
(n, T, d, d) covariance stack, which `tokenize` embeds trial-major and
band-minor with one `tokenize_matrices` call. Segments are keyed and reduced
to covariances one block of whole trials at a time (`data.BLOCK_VALUES`), so
a source's full segment array is never built. A training step's tape is
dropped once Adam has stepped, before the next step's forward. The
geometric-attention bias is the token dataset's `attention_bias`, read back
with the tokens' own embedding once for every seed and ablation variant on
them. `run_seeds` is the one seed loop of `train_experiment` and of the
ablations. Every JSON file a command writes goes through `write_json`.

Each epoch ends with one `_evaluate` call: a single eval forward over the
train, val and test rows, EVAL_BATCH rows at a time, after which each split's
loss and accuracy are taken over its own rows.

Per run directory:
    metrics.json         config echo, per-epoch curves, final metrics
    epochs.csv           per-epoch losses/accuracies plus wall-clock seconds of
                         the training loop and of the evaluation
    checkpoint.spdt      parameters after the last epoch
    checkpoint_best.spdt parameters at the best validation epoch
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .container import read_matrix_container, save_checkpoint
from .data import (
    SPLIT_RATIOS,
    BandMixtureSpec,
    SegmentBatch,
    SynthSpec,
    analysis_bands,
    band_covariances,
    band_mixture_blocks,
    estimate_covariance,
    split_indices,
    synth_dataset,
    trial_key,
)
from .embedding import EmbeddingKind, embed_batch
from .errors import ConfigFields, InvalidSpec
from .network import ModelConfig, SpdTokenTransformer, geometric_bias
from .optim import Adam
from .spdcore import CLIP_FLOOR, near_degenerate
from .stats import mean_std

DEFAULT_SEEDS = (42, 123, 456, 789, 1024)
EVAL_BATCH = 512
# epochs.csv timing columns: the epoch's training loop, then its evaluation of
# the three splits; metrics.json leaves both out
CLOCK_COLUMNS = ("wall_clock_s", "eval_clock_s")


@dataclass
class DataConfig(ConfigFields):
    source: str  # "synth" | "band_mixture" | "container"
    embedding: str = EmbeddingKind.LOG_EUCLIDEAN.value
    multiband: bool = False
    synth: dict | None = None
    band_mixture: dict | None = None
    container_path: str | None = None
    split_seed: int = 0
    ratios: tuple[float, ...] = SPLIT_RATIOS

    RULES = {
        "source": ("synth", "band_mixture", "container"),
        "embedding": tuple(k.value for k in EmbeddingKind),
        "split_seed": "[-9223372036854775808, 9223372036854775808)",  # int64, see split_indices
        "ratios": "[0, 1]", "len(ratios)": "[3, 3]",
    }

    def cross_check(self):
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise InvalidSpec(f"ratios must sum to 1, got {self.ratios}")
        if self.source == "container" and not self.container_path:
            raise InvalidSpec("container source needs container_path")
        if self.multiband and self.source == "synth":
            raise InvalidSpec("multiband tokenisation needs a time-series source")
        if self.source != "container":  # the spec is checked now, before any data work
            spec = getattr(self, self.source)
            if not spec:
                raise InvalidSpec(f"{self.source} source needs its spec")
            spec = (SynthSpec if self.source == "synth" else BandMixtureSpec).from_dict(spec)
            if self.source == "synth" and spec.n_classes < 2:
                raise InvalidSpec("a synth source needs n_classes >= 2 for the model to classify")


# the ModelConfig fields run_single fills in from the tokens, as placeholders
TOKEN_FIXED = dict(d_token=1, n_classes=2, seq_len=1)


@dataclass
class ExperimentConfig(ConfigFields):
    data: DataConfig
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 50
    seeds: tuple[int, ...] = DEFAULT_SEEDS

    RULES = {
        "lr": "(0, inf)", "batch_size": "[1, inf)", "epochs": "[1, inf)",
        "seeds": "[0, inf)", "len(seeds)": "[1, inf)",
    }

    def cross_check(self):
        fixed = sorted(TOKEN_FIXED.keys() & self.model.keys())
        if fixed:
            raise InvalidSpec(f"model overrides {fixed}: the tokens fix them")
        ModelConfig.from_dict({**self.model, **TOKEN_FIXED})

    @classmethod
    def from_json_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                d = json.load(f)
        except ValueError as err:  # not JSON, or not UTF-8
            raise InvalidSpec(f"{path} is not a JSON config: {err}") from err
        return cls.from_dict(d)


def write_json(path, obj):
    """`obj` as sorted, two-space-indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


@dataclass
class TokenDataset:
    tokens: np.ndarray   # (n, T, D)
    labels: np.ndarray   # (n,)
    keys: list           # stable per-trial content hashes
    n_classes: int
    embedding: str       # the EmbeddingKind value the tokens were made with
    branch: dict         # tokenize_matrices's branch diagnostics

    @functools.cached_property
    def attention_bias(self) -> np.ndarray:
        """(n, T, T) geometric-attention bias, read back with the tokens' own embedding."""
        return geometric_bias(self.tokens, self.embedding)


def tokenize_matrices(Cs: np.ndarray, kind: EmbeddingKind):
    """Tokens plus branch diagnostics for a stack of SPD matrices.

    The diagnostics count the eigenvalue pairs of the token spectra that fall
    within the log backward pass's near-degeneracy tolerance, aggregated over
    all embedded matrices; they reuse the tokeniser's eigenvalues.
    """
    kind = EmbeddingKind(kind)
    tokens, values = embed_batch(Cs, kind, return_values=True)
    n, d, _ = np.shape(Cs)
    pairs = n * d * (d - 1) // 2
    hits = 0
    if kind is EmbeddingKind.LOG_EUCLIDEAN:
        hits = int(np.count_nonzero(near_degenerate(np.maximum(values, CLIP_FLOOR))))
    return tokens, {"taylor_hits": hits, "pairs": pairs,
                    "branch_fraction": hits / pairs if pairs else 0.0}


def _entry(packed: dict, name: str) -> np.ndarray:
    if name not in packed:
        raise InvalidSpec(f"container has no {name!r} entry")
    return packed[name]


def _class_labels(raw) -> np.ndarray:
    """A container's labels as int64 class indices; InvalidSpec unless they
    are a non-empty 1-D array of non-negative integers (a cast alone would
    train 1.7 as class 1)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1:
        raise InvalidSpec(f"container labels must be 1-D, got shape {raw.shape}")
    if raw.size == 0:
        raise InvalidSpec("container holds no trials")
    if not np.all(np.isfinite(raw) & (raw >= 0) & (raw == np.floor(raw))):
        raise InvalidSpec("container labels must be non-negative integers")
    return raw.astype(np.int64)


def _trials(data_cfg: DataConfig):
    """(trial keys, labels, (n, T, d, d) covariances) of the source.

    Segments come a `SegmentBatch.blocks` block at a time (the band mixture
    is drawn that way), and each block's keys and covariances are taken
    before the next one, so the source's full segment array is never built.
    """
    if data_cfg.source == "synth":
        ds = synth_dataset(SynthSpec.from_dict(data_cfg.synth))
        return [trial_key(m) for m in ds.matrices], ds.labels, ds.matrices[:, None]
    if data_cfg.source == "band_mixture":
        blocks = band_mixture_blocks(BandMixtureSpec.from_dict(data_cfg.band_mixture))
    else:
        packed = read_matrix_container(data_cfg.container_path)
        labels = _class_labels(_entry(packed, "labels"))
        if "matrices" in packed:
            if data_cfg.multiband:
                raise InvalidSpec("multi-band tokens need segments; this container holds matrices")
            mats = packed["matrices"]
            if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
                raise InvalidSpec(f"container matrices must be an (n, d, d) stack, "
                                  f"got shape {mats.shape}")
            if labels.shape != mats.shape[:1]:
                raise InvalidSpec(f"container has {len(labels)} labels for matrices "
                                  f"of shape {mats.shape}")
            return [trial_key(m) for m in mats], labels, mats[:, None]
        segments = _entry(packed, "segments")
        rate = _entry(packed, "sample_rate")
        if rate.size != 1:
            raise InvalidSpec(f"container sample_rate must be one number, got shape {rate.shape}")
        blocks = SegmentBatch(segments, labels, float(rate.item())).blocks()

    keys, labels, covs = [], [], []
    for block in blocks:
        keys += [trial_key(x) for x in block.data]
        labels.append(block.labels)
        if data_cfg.multiband:
            covs.append(band_covariances(block.data, analysis_bands(block.sample_rate_hz)))
        else:
            covs.append(estimate_covariance(block.data)[:, None])
    return keys, np.concatenate(labels), np.concatenate(covs)


def tokenize(data_cfg: DataConfig) -> TokenDataset:
    kind = EmbeddingKind(data_cfg.embedding)
    keys, labels, covs = _trials(data_cfg)
    n, T, d, _ = covs.shape
    tokens, branch = tokenize_matrices(covs.reshape(n * T, d, d), kind)
    return TokenDataset(tokens.reshape(n, T, -1), labels, keys,
                        int(labels.max()) + 1, kind.value, branch)


@dataclass
class RunReport:
    seed: int
    config: dict
    epochs: list          # row dicts, appended as training progresses
    final_test_accuracy: float
    best_val_epoch: int
    branch: dict

    def to_metrics_dict(self):
        """Everything except wall-clock timing (kept out for byte-stable files)."""
        rows = [{k: v for k, v in row.items() if k not in CLOCK_COLUMNS} for row in self.epochs]
        return {
            "seed": self.seed,
            "config": self.config,
            "epochs": rows,
            "final_test_accuracy": self.final_test_accuracy,
            "best_val_epoch": self.best_val_epoch,
            "branch_diagnostics": self.branch,
        }


def _evaluate(model, tokens, labels, attn_bias, splits):
    """[(mean loss, accuracy)] in eval mode for each index array in `splits`;
    `attn_bias` holds the precomputed geometric-attention bias of all rows of
    `tokens`, or is None.

    The splits' rows go through one forward pass, EVAL_BATCH rows at a time.
    Each split's loss is then summed over its own EVAL_BATCH-row chunks, so
    the result equals evaluating each split alone: eval-mode logits of a row
    do not depend on the rows that share its batch.
    """
    rows = np.concatenate(splits)
    logits = np.empty((len(rows), model.config.n_classes))
    for start in range(0, len(rows), EVAL_BATCH):
        sel = rows[start:start + EVAL_BATCH]
        bias = attn_bias[sel] if attn_bias is not None else None
        logits[start:start + len(sel)] = model.forward(tokens[sel], training=False,
                                                       attn_bias=bias).data
    results = []
    offset = 0
    for idx in splits:
        total_loss = 0.0
        correct = 0
        for start in range(0, len(idx), EVAL_BATCH):
            y = labels[idx[start:start + EVAL_BATCH]]
            chunk = logits[offset + start:offset + start + len(y)]
            total_loss += float(ad.cross_entropy(chunk, y).data) * len(y)
            correct += int(np.sum(np.argmax(chunk, axis=1) == y))
        n = len(idx)
        offset += n
        results.append((total_loss / n if n else 0.0, correct / n if n else 0.0))
    return results


def run_single(exp: ExperimentConfig, token_ds: TokenDataset, seed: int,
               out_dir: str | None = None) -> RunReport:
    """Train one model on pre-tokenised data with a fixed split and seed."""
    tokens, labels = token_ds.tokens, token_ds.labels
    n, T, D = tokens.shape
    train_idx, val_idx, test_idx = split_indices(token_ds.keys, exp.data.split_seed,
                                                 exp.data.ratios)
    model_cfg = ModelConfig(d_token=D, n_classes=token_ds.n_classes, seq_len=T, **exp.model)
    attn_bias = token_ds.attention_bias if model_cfg.attention == "geometric" else None
    model = SpdTokenTransformer(model_cfg, seed=seed)
    opt = Adam(model.params, lr=exp.lr)
    shuffle_rng = np.random.default_rng([seed, 1])
    dropout_rng = np.random.default_rng([seed, 2])

    config_echo = {
        "experiment": exp.to_dict(),
        "model": model_cfg.to_dict(),
        "n_trials": int(n),
        "split_sizes": [int(len(train_idx)), int(len(val_idx)), int(len(test_idx))],
    }
    rows = []
    best_val = -1.0
    best_epoch = 0
    for epoch in range(exp.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(train_idx)
        for start in range(0, len(order), exp.batch_size):
            sel = order[start:start + exp.batch_size]
            if len(sel) < 2 and model_cfg.use_bn_embed:
                continue  # a singleton batch has no batch statistics
            bias = attn_bias[sel] if attn_bias is not None else None
            logits = model.forward(tokens[sel], training=True,
                                   dropout_rng=dropout_rng, attn_bias=bias)
            loss = ad.cross_entropy(logits, labels[sel])
            opt.zero_grad()
            loss.backward()
            opt.step()
            # the tape hangs off these two: drop it before the next forward
            del logits, loss
        t1 = time.perf_counter()
        (train_loss, train_acc), (val_loss, val_acc), (test_loss, test_acc) = _evaluate(
            model, tokens, labels, attn_bias, (train_idx, val_idx, test_idx))
        t2 = time.perf_counter()
        rows.append({
            "epoch": epoch,
            "train_loss": train_loss, "train_acc": train_acc,
            "val_loss": val_loss, "val_acc": val_acc,
            "test_loss": test_loss, "test_acc": test_acc,
            "wall_clock_s": t1 - t0, "eval_clock_s": t2 - t1,
        })
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_state = model.state_arrays()

    report = RunReport(
        seed=seed,
        config=config_echo,
        epochs=rows,
        final_test_accuracy=rows[-1]["test_acc"],
        best_val_epoch=best_epoch,
        branch=token_ds.branch,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_run_dir(out_dir, report, model, best_state)
    return report


def write_run_dir(out_dir: str, report: RunReport, model, best_state):
    write_json(os.path.join(out_dir, "metrics.json"), report.to_metrics_dict())
    cols = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc",
            "test_loss", "test_acc", *CLOCK_COLUMNS]
    with open(os.path.join(out_dir, "epochs.csv"), "w", encoding="utf-8") as f:
        f.write(",".join(cols) + "\n")
        for row in report.epochs:
            f.write(",".join(repr(row[c]) if c != "epoch" else str(row[c]) for c in cols) + "\n")
    header = {"config": report.config, "seed": report.seed, "kind": "spdtok-checkpoint"}
    save_checkpoint(os.path.join(out_dir, "checkpoint.spdt"), header, model.state_arrays())
    save_checkpoint(os.path.join(out_dir, "checkpoint_best.spdt"), header, best_state)


def run_seeds(exp: ExperimentConfig, token_ds: TokenDataset, out_root: str | None = None):
    """run_single for every seed of `exp`; seed N writes out_root/seed<N>, and
    an empty or None out_root writes nothing."""
    return [run_single(exp, token_ds, seed,
                       os.path.join(out_root, f"seed{seed}") if out_root else None)
            for seed in exp.seeds]


def train_experiment(exp: ExperimentConfig, out_root: str | None = None):
    """Run every seed; returns (summary dict, list of RunReports)."""
    token_ds = tokenize(exp.data)
    reports = run_seeds(exp, token_ds, out_root)
    finals = [r.final_test_accuracy for r in reports]
    mean, std = mean_std(finals)
    epoch_s = [row["wall_clock_s"] + row["eval_clock_s"] for r in reports for row in r.epochs]
    summary = {
        "final_test_accuracy_mean": mean,
        "final_test_accuracy_std": std,
        "per_seed": {str(r.seed): r.final_test_accuracy for r in reports},
        "time_per_epoch_s": float(np.mean(epoch_s)),
        "branch_diagnostics": token_ds.branch,
    }
    if out_root:
        os.makedirs(out_root, exist_ok=True)
        write_json(os.path.join(out_root, "summary.json"), summary)
    return summary, reports
