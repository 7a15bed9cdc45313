"""Command-line entry point.

Subcommands:
    verify [--filter NAME] [--seed N] [--json PATH]
    train  --config FILE [--out DIR]
    ablate --config FILE --axis NAME [--out DIR]
    bench  --dims 2,8,22,56 --trials N [--json PATH]
    report DIR... [--out DIR]

The SPDTOK_SEED environment variable (single int or comma list) overrides the
config's seed list for train and ablate.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .ablate import AXES, format_ablation_table, run_ablation
from .bench import format_bench_table, run_bench
from .errors import InvalidSpec, SpdTokError
from .report import consolidate, curves_csv, markdown_table
from .train import ExperimentConfig, train_experiment, write_json
from .verify import results_to_json, run_verification


def _load_experiment(path) -> ExperimentConfig:
    exp = ExperimentConfig.from_json_file(path)
    env_seeds = os.environ.get("SPDTOK_SEED", "").replace(",", " ").split()
    if not env_seeds:
        return exp
    try:  # replace runs the config's checks on the new seeds
        return replace(exp, seeds=tuple(int(tok) for tok in env_seeds))
    except (ValueError, InvalidSpec) as err:
        raise InvalidSpec(f"SPDTOK_SEED: {err}") from None


def cmd_verify(args) -> int:
    results, ok = run_verification(args.filter, seed=args.seed)
    for r in results:
        print(r.line())
    n_pass = sum(r.passed for r in results)
    print(f"\n{n_pass}/{len(results)} properties passed")
    if args.json:
        write_json(args.json, results_to_json(results))
        print(f"wrote {args.json}")
    return 0 if ok else 1


def cmd_train(args) -> int:
    exp = _load_experiment(args.config)
    summary, reports = train_experiment(exp, args.out)
    for rep in reports:
        print(f"seed {rep.seed}: final test accuracy {rep.final_test_accuracy:.4f} "
              f"(best val epoch {rep.best_val_epoch})")
    print(f"mean final test accuracy: {summary['final_test_accuracy_mean']:.4f} "
          f"+/- {summary['final_test_accuracy_std']:.4f} over {len(reports)} seed(s)")
    print(f"time/epoch: {summary['time_per_epoch_s']:.3f}s")
    if args.out:
        print(f"run artifacts under {args.out}")
    return 0


def cmd_ablate(args) -> int:
    exp = _load_experiment(args.config)
    table = run_ablation(exp, args.axis, args.out)
    print(format_ablation_table(table))
    if args.out:
        print(f"tables under {args.out}")
    return 0


def cmd_bench(args) -> int:
    try:
        dims = [int(tok) for tok in args.dims.replace(",", " ").split()]
    except ValueError:
        raise InvalidSpec(f"--dims takes comma-separated integers, got {args.dims!r}") from None
    result = run_bench(dims, trials=args.trials, seed=args.seed)
    print(format_bench_table(result))
    if args.json:
        write_json(args.json, result)
        print(f"wrote {args.json}")
    return 0


def cmd_report(args) -> int:
    merged = consolidate(args.run_dirs)
    print(markdown_table(merged))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.md"), "w", encoding="utf-8") as f:
            f.write(markdown_table(merged) + "\n")
        with open(os.path.join(args.out, "curves.csv"), "w", encoding="utf-8") as f:
            f.write(curves_csv(merged))
        print(f"wrote {args.out}/report.md and {args.out}/curves.csv")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="spdtok", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--filter", default=None, help="substring selecting suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="write a machine-readable summary")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train", help="train over the configured seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="directory for per-seed run dirs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="run one ablation axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=AXES)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("bench", help="time spectral forward/backward passes")
    p.add_argument("--dims", default="2,8,22,56")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("report", help="consolidate finished run directories")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpdTokError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
