#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of spdtok).

    python3 perfbench/selftest.py

Checks, at the tiny size so it finishes in about a minute:
  * every workload, untraced and traced, prints exactly the metric names and
    units that BENCHMARK.json lists, with a correct result and no failures;
  * a deliberately corrupted token is caught and counted in error_rate;
  * without the package source next to it, run.py exits non-zero and prints
    no result line.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS pins before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result_line(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metric_names(bench) -> list:
    failures = []
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = _result_line(["--workload", workload, "--size", "tiny", "--seconds", "1",
                                "--trace", str(trace)])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            tag = f"{workload} trace={trace}"
            before = len(failures)
            if got != want[trace]:
                missing, extra = set(want[trace]) - set(got), set(got) - set(want[trace])
                failures.append(f"{tag}: metric names/units differ; missing={sorted(missing)} "
                                f"extra={sorted(extra)}")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}")
            bad = [k for k, v in res["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                failures.append(f"{tag}: non-numeric values for {bad}")
            print(f"{'ok  ' if len(failures) == before else 'FAIL'} {tag}", flush=True)
    return failures


def check_corrupt_token_counted() -> list:
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    from spdtok import train

    original = train.tokenize_matrices

    def corrupting(Cs, kind, *args, **kwargs):
        tokens, diag = original(Cs, kind, *args, **kwargs)
        tokens = np.array(tokens)
        tokens[0, 0] += 1e-3
        return tokens, diag

    train.tokenize_matrices = corrupting
    try:
        result, report = run.measure("train_t1", 1, 0.1, False, "tiny")
    finally:
        train.tokenize_matrices = original
    if result["correct"] or result["failed"] < 1 or report["error_rate"] <= 0:
        return [f"corrupted token not counted: failed={result['failed']} "
                f"error_rate={report['error_rate']}"]
    if report["checks"][0]["tokens_match_eigh"]:
        return ["corrupted token passed the eigh reference check"]
    print("ok   corrupted token counted in error_rate", flush=True)
    return []


def check_refuses_without_source(bench_text) -> list:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        (bare / "BENCHMARK.json").write_text(bench_text, encoding="utf-8")
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                               "--workload", "verify", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], capture_output=True, text=True, timeout=180,
                              cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"run.py without src/ exited {proc.returncode} with output {proc.stdout!r}"]
    print("ok   refuses to run without the package source", flush=True)
    return []


def main() -> int:
    bench_text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    bench = json.loads(bench_text)
    failures = (check_metric_names(bench) + check_corrupt_token_counted()
                + check_refuses_without_source(bench_text))
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
