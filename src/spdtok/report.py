"""Aggregation of finished training runs into tables and plot-ready CSV."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import InvalidSpec, MissingRun
from .stats import mean_std


# the metrics.json keys a report reads, and the curve columns of an epoch row
RUN_KEYS = ("seed", "config", "epochs", "final_test_accuracy")
CURVE_COLUMNS = ("train_loss", "train_acc", "val_loss", "val_acc", "test_loss", "test_acc")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_values(metrics: dict, path: str) -> None:
    """InvalidSpec naming the file and field unless the final test accuracy
    is a finite number and every epoch row is an object holding a number
    under `epoch` and under each curve column."""
    acc = metrics["final_test_accuracy"]
    if not (_is_number(acc) and math.isfinite(acc)):
        raise InvalidSpec(f"{path}: final_test_accuracy must be a finite number, got {acc!r}")
    if not isinstance(metrics["epochs"], list):
        raise InvalidSpec(f"{path}: epochs must be a list of rows")
    for i, row in enumerate(metrics["epochs"]):
        if not isinstance(row, dict):
            raise InvalidSpec(f"{path}: epochs[{i}] is not an object")
        for col in ("epoch",) + CURVE_COLUMNS:
            if not _is_number(row.get(col)):
                raise InvalidSpec(f"{path}: epochs[{i}].{col} must be a number, "
                                  f"got {row.get(col)!r}")


def load_run(run_dir: str) -> dict:
    """A run's metrics.json, with `epoch_clock_s`: each epoch's seconds, its
    training loop and its evaluation, from epochs.csv. InvalidSpec when
    either file is malformed or a value the report reads is not a number."""
    metrics_path = os.path.join(run_dir, "metrics.json")
    epochs_path = os.path.join(run_dir, "epochs.csv")
    if not os.path.isfile(metrics_path):
        raise MissingRun(f"{run_dir} has no metrics.json")
    try:
        with open(metrics_path, "r", encoding="utf-8") as f:
            metrics = json.load(f)
    except ValueError as err:  # not JSON, or not UTF-8
        raise InvalidSpec(f"{metrics_path} is not JSON: {err}") from None
    if not isinstance(metrics, dict) or not all(k in metrics for k in RUN_KEYS):
        raise InvalidSpec(f"{metrics_path} is not a run's metrics: an object "
                          f"with the keys {', '.join(RUN_KEYS)}")
    _check_values(metrics, metrics_path)
    epoch_s = []
    if os.path.isfile(epochs_path):
        with open(epochs_path, newline="", encoding="utf-8") as f:
            try:
                for row in csv.DictReader(f):
                    # an epochs.csv without the eval_clock_s column timed the loop only
                    epoch_s.append(float(row["wall_clock_s"])
                                   + float(row.get("eval_clock_s") or 0.0))
            except (KeyError, TypeError, ValueError, csv.Error) as err:
                raise InvalidSpec(f"{epochs_path}: missing or non-numeric clock: {err!r}") from None
    metrics["epoch_clock_s"] = epoch_s
    metrics["run_dir"] = run_dir
    return metrics


def _diff_paths(a, b, prefix=""):
    paths = []
    keys = set(a) | set(b)
    for k in sorted(keys):
        p = f"{prefix}.{k}" if prefix else str(k)
        if k not in a or k not in b:
            paths.append(p)
        elif isinstance(a[k], dict) and isinstance(b[k], dict):
            paths.extend(_diff_paths(a[k], b[k], p))
        elif a[k] != b[k]:
            paths.append(p)
    return paths


def consolidate(run_dirs) -> dict:
    """Merge runs of one experiment (same config, different seeds); the time
    per epoch counts each epoch's evaluation.

    Refuses to merge runs whose configs differ, listing the differing keys.
    """
    if not run_dirs:
        raise MissingRun("no run directories given")
    runs = [load_run(d) for d in run_dirs]
    base = runs[0]["config"]
    for other in runs[1:]:
        diffs = _diff_paths(base, other["config"])
        if diffs:
            raise InvalidSpec(
                "refusing to merge runs with incompatible configs; differing keys: "
                + ", ".join(diffs))
    finals = [r["final_test_accuracy"] for r in runs]
    mean, std = mean_std(finals)
    epoch_s = [t for r in runs for t in r["epoch_clock_s"]]
    return {
        "runs": runs,
        "summary": {
            "n_runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "final_test_accuracy_mean": mean,
            "final_test_accuracy_std": std,
            "time_per_epoch_s": float(np.mean(epoch_s)) if epoch_s else None,
        },
    }


def markdown_table(consolidated: dict) -> str:
    s = consolidated["summary"]
    time_str = f"{s['time_per_epoch_s']:.3f}s" if s["time_per_epoch_s"] is not None else "n/a"
    lines = [
        "| runs | seeds | final test acc (mean +/- std) | time/epoch |",
        "|---|---|---|---|",
        f"| {s['n_runs']} | {', '.join(str(x) for x in s['seeds'])} "
        f"| {100 * s['final_test_accuracy_mean']:.2f} +/- {100 * s['final_test_accuracy_std']:.2f} "
        f"| {time_str} |",
    ]
    return "\n".join(lines)


def curves_csv(consolidated: dict) -> str:
    out = [",".join(("seed", "epoch") + CURVE_COLUMNS)]
    for run in consolidated["runs"]:
        for row in run["epochs"]:
            cells = [str(run["seed"]), str(row["epoch"])]
            cells += [repr(row[c]) for c in CURVE_COLUMNS]
            out.append(",".join(cells))
    return "\n".join(out) + "\n"
