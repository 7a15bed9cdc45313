"""Golden sha256 manifest of `metrics.json` for every frozen experiment, and
of `spdtok verify --seed 0 --json`.

Each `spdtok.tasks` builder is trained for 2 epochs at seed 42 and its
`metrics.json` hashed. Two ablation sweeps run at the same epochs and seed,
and their `ablation_<axis>.json` and every variant's `metrics.json` are
hashed under `ablate/`: `attention` on the multi-band task (the only frozen
run with geometric attention) and `embedding` on the geometry-gap task; they
pin `ablate`'s path through tokenising and the seed loop. The file
`spdtok verify --seed 0 --json` writes is hashed too. The `configs/*.json` experiments are not trained
again: `test_golden.py` checks each one equal to the builder named in its
`CONFIG_TWINS`. The hashes are bit-level facts about one platform, so the
manifest also records a platform fingerprint, and `test_golden.py` compares
hashes only where it matches.

The test never writes the manifest. To see which hashes a change moves,
without writing anything (exit status 1 if any moved):

    PYTHONPATH=src python tests/golden.py --diff

After a change that is meant to move the numerics, re-bless it explicitly
and commit the diff:

    PYTHONPATH=src python tests/golden.py --bless
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "docs", "golden_metrics.json")
SEED = 42
EPOCHS = 2


def fingerprint() -> dict:
    """numpy version, BLAS/LAPACK builds, machine and the SIMD features numpy found."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    features = getattr(umath, "__cpu_features__", {})
    return {
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip(),
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version', '')}".strip(),
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in features.items() if on),
    }


def experiments() -> dict:
    """name -> ExperimentConfig for every task builder."""
    from spdtok import tasks

    runs = {}
    for emb in ("logeuclidean", "bwspd", "euclidean"):
        runs[f"tasks/learning_sanity_{emb}"] = tasks.learning_sanity_experiment(emb)
        runs[f"tasks/geometry_gap_{emb}"] = tasks.geometry_gap_experiment(emb)
    for d in (8, 56):
        for bn in (True, False):
            runs[f"tasks/bn_dimension_{d}_{bn}"] = tasks.bn_dimension_experiment(d, bn)
    for multiband in (True, False):
        runs[f"tasks/band_mixture_{multiband}"] = tasks.band_mixture_experiment(multiband)
    return runs


def ablations() -> dict:
    """axis -> the ExperimentConfig its golden ablation sweeps."""
    from spdtok import tasks

    return {"attention": tasks.band_mixture_experiment(True),
            "embedding": tasks.geometry_gap_experiment("logeuclidean")}


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def metrics_hashes() -> dict:
    """name -> sha256 of the metrics.json of a seed-42, 2-epoch run, and
    `ablate/<path>` -> sha256 of each JSON file the golden ablations write."""
    from spdtok.ablate import run_ablation
    from spdtok.train import run_single, tokenize

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, exp in experiments().items():
            exp.epochs = EPOCHS
            exp.seeds = (SEED,)
            run_dir = os.path.join(tmp, name.replace("/", "_"))
            run_single(exp, tokenize(exp.data), SEED, run_dir)
            out[name] = _sha256(os.path.join(run_dir, "metrics.json"))
        root = os.path.join(tmp, "ablate")
        for axis, exp in ablations().items():
            exp.epochs = EPOCHS
            exp.seeds = (SEED,)
            run_ablation(exp, axis, root)
        for path in glob.glob(os.path.join(root, "**", "*.json"), recursive=True):
            out["ablate/" + os.path.relpath(path, root).replace(os.sep, "/")] = _sha256(path)
    return out


def verify_hash() -> str:
    """sha256 of the file `spdtok verify --seed 0 --json` writes."""
    from spdtok.cli import main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "verify.json")
        main(["verify", "--seed", "0", "--json", path])
        return _sha256(path)


def load_manifest() -> dict:
    with open(MANIFEST, "r", encoding="utf-8") as f:
        return json.load(f)


def bless():
    manifest = {"seed": SEED, "epochs": EPOCHS, "fingerprint": fingerprint(),
                "metrics_sha256": metrics_hashes(), "verify_seed0_sha256": verify_hash()}
    with open(MANIFEST, "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"wrote {len(manifest['metrics_sha256'])} metrics hashes and the verify hash "
          f"to {MANIFEST}")


def diff() -> int:
    """Print `name old → new` for every hash that differs from the manifest
    (a name on one side only shows `-` on the other); 1 if any moved."""
    manifest = load_manifest()
    if manifest["fingerprint"] != fingerprint():
        print("note: this platform differs from the blessed one", file=sys.stderr)
    old = {**manifest["metrics_sha256"],
           "verify --seed 0": manifest.get("verify_seed0_sha256", "-")}
    new = {**metrics_hashes(), "verify --seed 0": verify_hash()}
    moved = sorted(k for k in set(old) | set(new) if old.get(k) != new.get(k))
    for name in moved:
        print(f"{name} {old.get(name, '-')} → {new.get(name, '-')}")
    return 1 if moved else 0


if __name__ == "__main__":
    commands = {"--bless": bless, "--diff": diff}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --bless | --diff")
    sys.exit(commands[sys.argv[1]]())
