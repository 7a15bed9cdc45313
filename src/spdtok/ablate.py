"""Ablation sweeps: one axis varied, everything else held fixed.

Each axis yields a list of variants run over the same seeds; the table
reports mean +/- std of final test accuracy per variant and a paired t-test
p-value against the first variant (pairing by seed). Token datasets are
cached per distinct data configuration so model-only axes tokenise once; each
variant's seeds run through `train.run_seeds`, as `spdtok train`'s do.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from .errors import InvalidSpec
from .stats import mean_std, paired_t_test
from .train import ExperimentConfig, run_seeds, tokenize, write_json

AXES = ("embedding", "bn_embed", "depth", "heads", "attention", "bands")


def _variants(exp: ExperimentConfig, axis: str):
    if axis == "embedding":
        order = ["logeuclidean", "bwspd", "euclidean"]
        return [(k, replace_data(exp, embedding=k)) for k in order]
    if axis == "bn_embed":
        return [("with_bn", with_model(exp, use_bn_embed=True)),
                ("without_bn", with_model(exp, use_bn_embed=False))]
    if axis == "depth":
        return [(f"depth{L}", with_model(exp, layers=L)) for L in (2, 4, 6, 8)]
    if axis == "heads":
        return [(f"heads{H}", with_model(exp, heads=H)) for H in (4, 8, 16)]
    if axis == "attention":
        if not exp.data.multiband:
            raise InvalidSpec("attention axis needs multi-token data (multiband); at T = 1 "
                              "geometric and standard attention are the same model")
        return [("standard", with_model(exp, attention="standard")),
                ("geometric", with_model(exp, attention="geometric"))]
    if axis == "bands":
        if exp.data.source == "synth":
            raise InvalidSpec("bands axis needs a time-series data source")
        return [("multiband_T3", replace_data(exp, multiband=True)),
                ("single_T1", replace_data(exp, multiband=False))]
    raise InvalidSpec(f"unknown ablation axis {axis!r}; axes: {', '.join(AXES)}")


def replace_data(exp: ExperimentConfig, **kw) -> ExperimentConfig:
    return replace(exp, data=replace(exp.data, **kw))


def with_model(exp: ExperimentConfig, **kw) -> ExperimentConfig:
    return replace(exp, model={**exp.model, **kw})


def run_ablation(exp: ExperimentConfig, axis: str, out_root: str | None = None) -> dict:
    variants = _variants(exp, axis)
    token_cache = {}
    rows = []
    for name, variant in variants:
        data_key = json.dumps(variant.data.to_dict(), sort_keys=True)
        if data_key not in token_cache:
            token_cache[data_key] = tokenize(variant.data)
        reports = run_seeds(variant, token_cache[data_key],
                            os.path.join(out_root, axis, name) if out_root else None)
        finals = [r.final_test_accuracy for r in reports]
        mean, std = mean_std(finals)
        rows.append({"variant": name, "mean": mean, "std": std,
                     "per_seed": {str(r.seed): r.final_test_accuracy for r in reports},
                     "finals": finals})
    baseline = rows[0]["finals"]
    for row in rows:
        if row is rows[0] or len(baseline) < 2:
            row["p_vs_first"] = None
        else:
            row["p_vs_first"] = paired_t_test(row["finals"], baseline).pvalue
    table = {"axis": axis, "seeds": list(variants[0][1].seeds),
             "rows": [{k: v for k, v in r.items() if k != "finals"} for r in rows]}
    if out_root:
        os.makedirs(out_root, exist_ok=True)
        write_json(os.path.join(out_root, f"ablation_{axis}.json"), table)
        with open(os.path.join(out_root, f"ablation_{axis}.csv"), "w", encoding="utf-8") as f:
            f.write("variant,mean,std,p_vs_first\n")
            for r in table["rows"]:
                p = "" if r["p_vs_first"] is None else repr(r["p_vs_first"])
                f.write(f"{r['variant']},{r['mean']!r},{r['std']!r},{p}\n")
    return table


def format_ablation_table(table: dict) -> str:
    lines = [f"axis: {table['axis']} (seeds {table['seeds']})",
             f"{'variant':>14} {'mean':>8} {'std':>8} {'p vs first':>11}"]
    for r in table["rows"]:
        p = "-" if r["p_vs_first"] is None else f"{r['p_vs_first']:.4f}"
        lines.append(f"{r['variant']:>14} {100 * r['mean']:>7.2f}% {100 * r['std']:>7.2f}% {p:>11}")
    return "\n".join(lines)
