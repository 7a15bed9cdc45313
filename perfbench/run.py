#!/usr/bin/env python3
"""spdtok benchmark: one workload per process, end-to-end or per-layer.

    python3 perfbench/run.py --workload train_t1 --seed 7 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is the full report (stage medians and tails, checks, facts of the run).
See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin BLAS threads before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("train_t1", "spd_d56", "multiband_t3", "verify")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
STAGE_UNITS = {"wall_s": "s", "data_s": "s", "tokenize_s": "s", "train_epoch_s": "s",
               "train_samples_per_s": "1/s", "eval_s": "s", "checkpoint_s": "s"}


def summarize(values, higher_is_better=False) -> dict:
    """Median, plus the most extreme percentile on the bad side that still has
    at least ten samples beyond it (nearest rank), and the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None,
           "tail_pct": None, "tail": None}
    rank = 11 if higher_is_better else n - 10  # 1-based rank of the tail value
    if n >= 11:
        out["tail_pct"] = round(100.0 * rank / n, 2)
        out["tail"] = xs[rank - 1]
    return out


def blas_threads():
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_facts(workload, seed, size) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    return {"workload": workload, "seed": seed, "size": size,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_runtime": blas_threads()}


def measure_setup(workload, seed, size) -> list:
    """Set-up time of fresh interpreters, each importing spdtok and building the model."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(workload, seed, seconds, trace, size) -> tuple:
    """Run passes for `seconds`; returns (result line, report)."""
    import workloads

    if trace:
        import tracer

    work_dir = OUT / f"run-{os.getpid()}-{workload}"
    facts = run_facts(workload, seed, size)
    setup = measure_setup(workload, seed, size)
    passes = []  # (traced?, stage samples) per pass
    layer_rows, checks, errors, spans = [], [], [], []
    peak_rss_mb = 0.0
    try:
        with workloads.make_run(workload, seed, size, str(work_dir),
                                vary_inputs=not trace) as run:
            start = time.perf_counter()
            index = 0
            while True:
                traced = trace and index % 2 == 1
                gc.collect()
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.Tracer() as tr:
                            samples, chk = tr.span("workload.pass", run.run_pass, index, tr.span)
                        last_summary = tr.summary()
                        layer_rows.append(tracer.per_layer_values(last_summary))
                        spans.append({"pass": index, "spans": tr.spans, "counts": tr.counts})
                    else:
                        samples, chk = run.run_pass(index)
                    checks.append(chk)
                except Exception:  # a failed pass is counted, reported, and ends the run
                    errors.append(traceback.format_exc())
                    checks.append({"completed": False})
                    break
                passes.append((traced, samples))
                if index == 0:
                    # peak RSS of set-up plus one pass, before repeats or a rerun add to it
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                index += 1
                last = time.perf_counter() - t0
                need_traced = trace and not layer_rows
                if not need_traced and time.perf_counter() - start + last > seconds:
                    break
            if not errors:
                checks[0].update(run.rerun_check())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Pass 0 is a warm-up (first calls, cold caches) whenever an untraced pass
    # comes after it; otherwise it is all there is.
    if any(not traced for traced, _ in passes[1:]):
        passes = passes[1:]
    stages = {False: {}, True: {}}  # traced? -> stage -> samples
    for traced, samples in passes:
        for name, values in samples.items():
            stages[traced].setdefault(name, []).extend(values)

    failed = sum(not workloads.check_passed(c) for c in checks)
    attempted = len(checks)
    peak_rss_mb = peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced_walls = stages[False].get("wall_s", [])
    traced_walls = stages[True].get("wall_s", [])

    def stage_table(samples):
        return {k: dict(summarize(v, STAGE_UNITS.get(k) == "1/s"), unit=STAGE_UNITS.get(k, "s"))
                for k, v in samples.items()}

    report = {
        "facts": facts,
        "passes": attempted,
        "error_rate": failed / attempted,
        "setup_s": summarize(setup),
        "stages": stage_table(stages[False]),
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "errors": errors,
    }
    if trace:
        units = tracer.per_layer_units()
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rows)
                          if layer_rows else 0, "unit": unit}
                   for name, unit in units.items() if name != "trace.overhead_s"}
        overhead = (statistics.median(traced_walls) - statistics.median(untraced_walls)
                    if traced_walls and untraced_walls else 0.0)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
        report["traced_stages"] = stage_table(stages[True])
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        OUT.mkdir(parents=True, exist_ok=True)
        with open(trace_file, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "passes": spans}, f)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        if layer_rows:
            self_s = {k: v["self_s"] for k, v in last_summary["spans"].items()}
            report["self_s"] = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(untraced_walls) if untraced_walls else 0.0,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def run_all(args) -> int:
    """Every workload in its own fresh process, with a table of what each printed."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        status |= not result["correct"]
        print(f"== {name} (seed {report['facts']['seed']}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"error_rate={report['error_rate']:.3g}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:34s} {v['value']:>14.6g} {v['unit']}")
        for stage, s in report["stages"].items():
            if s["median"] is None:
                continue
            tail = (f"p{s['tail_pct']:g}={s['tail']:.6g}" if s["tail"] is not None
                    else "tail n/a")
            print(f"  stage {stage:28s} median={s['median']:.6g} {s['unit']} {tail} n={s['n']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the frozen task's seed)")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not (SRC / "spdtok" / "__init__.py").is_file():
        print(f"error: no spdtok package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    result, report = measure(args.workload, seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
