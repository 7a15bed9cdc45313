import glob
import json
import os

import pytest

from conftest import stdout_at_blas_threads
from golden import ROOT, fingerprint, load_manifest, metrics_hashes
from spdtok import tasks
from spdtok.train import ExperimentConfig

# configs/<name>.json -> the task builder it reproduces; the manifest hashes
# the builder's run, so each file need only equal its twin
CONFIG_TWINS = {
    "learning_sanity": lambda: tasks.learning_sanity_experiment("logeuclidean"),
    "geometry_gap_logeuclidean": lambda: tasks.geometry_gap_experiment("logeuclidean"),
    "band_mixture_multiband": lambda: tasks.band_mixture_experiment(True),
}


def config_mismatches(paths) -> list:
    """Names of the config files with no builder twin or a different experiment."""
    def canonical(exp):
        return json.dumps(exp.to_dict(), sort_keys=True)

    bad = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        twin = CONFIG_TWINS.get(name)
        if twin is None or canonical(ExperimentConfig.from_json_file(path)) != canonical(twin()):
            bad.append(name)
    return bad


def test_every_config_equals_its_builder():
    paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
    assert paths
    assert config_mismatches(paths) == []


def test_config_without_builder_twin_fails(tmp_path):
    bwspd = json.dumps(tasks.learning_sanity_experiment("bwspd").to_dict())
    (tmp_path / "stray.json").write_text(bwspd)
    (tmp_path / "learning_sanity.json").write_text(bwspd)
    paths = [str(tmp_path / "stray.json"), str(tmp_path / "learning_sanity.json")]
    assert config_mismatches(paths) == ["stray", "learning_sanity"]


def skip_unless_blessed_platform(manifest):
    here = fingerprint()
    moved = sorted(k for k in set(here) | set(manifest["fingerprint"])
                   if here.get(k) != manifest["fingerprint"].get(k))
    if moved:
        pytest.skip(f"platform differs from the blessed one in {', '.join(moved)}; "
                    f"hashes are only comparable on the blessed platform")


def test_metrics_json_matches_golden_manifest():
    manifest = load_manifest()
    skip_unless_blessed_platform(manifest)
    got = metrics_hashes()
    assert sorted(got) == sorted(manifest["metrics_sha256"])
    changed = [name for name in got if got[name] != manifest["metrics_sha256"][name]]
    assert not changed, f"metrics.json moved for {changed}; re-bless only if intended"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_diff_passes_at_blas_threads(threads):
    # `golden.py --diff` exits 1, listing the moved hashes, if any moved
    skip_unless_blessed_platform(load_manifest())
    stdout_at_blas_threads([os.path.join(ROOT, "tests", "golden.py"), "--diff"], threads)


def test_diff_reports_a_moved_verify_hash(monkeypatch, capsys):
    import golden

    manifest = load_manifest()
    monkeypatch.setattr(golden, "metrics_hashes", lambda: dict(manifest["metrics_sha256"]))
    monkeypatch.setattr(golden, "verify_hash", lambda: "0" * 64)
    assert golden.diff() == 1
    assert capsys.readouterr().out == \
        f"verify --seed 0 {manifest['verify_seed0_sha256']} → {'0' * 64}\n"
