import pytest

from golden import fingerprint, load_manifest, metrics_hashes


def test_metrics_json_matches_golden_manifest():
    manifest = load_manifest()
    here = fingerprint()
    moved = sorted(k for k in set(here) | set(manifest["fingerprint"])
                   if here.get(k) != manifest["fingerprint"].get(k))
    if moved:
        pytest.skip(f"platform differs from the blessed one in {', '.join(moved)}; "
                    f"hashes are only comparable on the blessed platform")
    got = metrics_hashes()
    assert sorted(got) == sorted(manifest["metrics_sha256"])
    changed = [name for name in got if got[name] != manifest["metrics_sha256"][name]]
    assert not changed, f"metrics.json moved for {changed}; re-bless only if intended"
