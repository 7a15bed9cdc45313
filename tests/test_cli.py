import json

import numpy as np
import pytest

from spdtok.ablate import format_ablation_table, run_ablation
from spdtok.cli import main
from spdtok.container import write_matrix_container
from spdtok.errors import InvalidSpec, MissingRun
from spdtok.report import consolidate, curves_csv, load_run, markdown_table
from spdtok.train import DataConfig, ExperimentConfig, train_experiment

SYNTH = dict(n_classes=2, dim=4, trials_per_class=12, separation=1.5,
             dispersion=0.05, seed=13)


def tiny_exp(seeds=(3, 4)):
    return ExperimentConfig(
        data=DataConfig(source="synth", embedding="logeuclidean", synth=SYNTH),
        model=dict(d_model=16, layers=1, heads=2, d_ff=16, dropout=0.0),
        epochs=2, batch_size=8, seeds=seeds,
    )


def _bad_configs() -> dict:
    """Malformed experiment configs, each of which `spdtok train` must refuse
    with `error:` and exit status 2 before tokenising."""
    good = tiny_exp(seeds=(3,)).to_dict()

    def top(**kw):
        return {**good, **kw}

    def data(**kw):
        return top(data={**good["data"], **kw})

    def model(**kw):
        return top(model={**good["model"], **kw})

    def synth(**kw):
        return data(synth={**SYNTH, **kw})

    def mixture(**kw):
        return data(source="band_mixture", band_mixture={"trials_per_class": 4, **kw})

    return {
        "empty_object": {},
        "list": [],
        "unknown_top_key": top(epoch=3),
        "synth_missing_fields": data(synth={"dim": 4}),
        "band_mixture_misspelt": data(source="band_mixture",
                                      band_mixture={"trial_per_class": 4}),
        "unknown_model_key": model(depth=2),
        "unknown_embedding": data(embedding="riemann"),
        "zero_batch_size": top(batch_size=0),
        "zero_heads": model(heads=0),
        "zero_d_model": model(d_model=0),
        "zero_d_ff": model(d_ff=0),
        "negative_seed": top(seeds=[-1]),
        "seeds_not_a_list": top(seeds=5),
        "fractional_epochs": top(epochs=1.5),
        "epochs_string": top(epochs="3"),
        "epochs_true": top(epochs=True),
        "negative_lr": top(lr=-1),
        "nan_lr": top(lr=float("nan")),
        "dropout_string": model(dropout="0.1"),
        "geo_alpha_string": model(geo_alpha="x"),
        "unknown_token_kind": model(attention="geometric", token_kind="foo"),
        "negative_bn_eps": model(bn_eps=-1),
        "geometric_token_kind_unlike_data": model(attention="geometric", token_kind="bwspd"),
        "two_ratios": data(ratios=[0.5, 0.5]),
        "synth_dim_string": synth(dim="22"),
        "synth_negative_seed": synth(seed=-1),
        "mixture_no_trials": mixture(trials_per_class=0),
        "mixture_negative_seed": mixture(seed=-1),
        "mixture_float_channels": mixture(channels=8.0),
        "mixture_no_channels": mixture(channels=0),
        "mixture_rate_below_bands": mixture(sample_rate_hz=40),
    }


BAD_CONFIGS = _bad_configs()


class TestAblate:
    def test_embedding_axis_variants(self, tmp_path):
        table = run_ablation(tiny_exp(), "embedding", str(tmp_path))
        names = [r["variant"] for r in table["rows"]]
        assert names == ["logeuclidean", "bwspd", "euclidean"]
        assert table["rows"][0]["p_vs_first"] is None
        for row in table["rows"][1:]:
            assert 0.0 <= row["p_vs_first"] <= 1.0
        assert (tmp_path / "ablation_embedding.csv").is_file()
        assert (tmp_path / "ablation_embedding.json").is_file()
        assert "variant" in format_ablation_table(table)

    def test_variant_runs_equal_train_experiment_bytes(self, tmp_path):
        from spdtok.ablate import replace_data

        exp = tiny_exp()
        run_ablation(exp, "embedding", str(tmp_path / "abl"))
        for kind in ("logeuclidean", "bwspd"):
            train_experiment(replace_data(exp, embedding=kind), str(tmp_path / kind))
            for seed in exp.seeds:
                got = tmp_path / "abl" / "embedding" / kind / f"seed{seed}" / "metrics.json"
                want = tmp_path / kind / f"seed{seed}" / "metrics.json"
                assert got.read_bytes() == want.read_bytes()

    def test_bn_axis(self):
        table = run_ablation(tiny_exp(seeds=(3,)), "bn_embed")
        names = [r["variant"] for r in table["rows"]]
        assert names == ["with_bn", "without_bn"]
        # a single seed cannot support a paired test
        assert all(r["p_vs_first"] is None for r in table["rows"])

    def test_depth_and_heads_axes(self):
        table = run_ablation(tiny_exp(seeds=(3,)), "depth")
        assert [r["variant"] for r in table["rows"]] == ["depth2", "depth4", "depth6", "depth8"]
        table = run_ablation(tiny_exp(seeds=(3,)), "heads")
        assert [r["variant"] for r in table["rows"]] == ["heads4", "heads8", "heads16"]

    def test_bands_axis_needs_time_series(self):
        with pytest.raises(InvalidSpec):
            run_ablation(tiny_exp(), "bands")

    def test_bands_axis_needs_segments(self, tmp_path):
        path = tmp_path / "mats.spdt"
        write_matrix_container(path, {"matrices": np.stack([np.eye(3)] * 8),
                                      "labels": np.arange(8) % 2.0})
        exp = ExperimentConfig(data=DataConfig(source="container", container_path=str(path)),
                               model=dict(d_model=16, layers=1, heads=2, d_ff=16),
                               epochs=1, batch_size=8, seeds=(3,))
        with pytest.raises(InvalidSpec, match="segments"):
            run_ablation(exp, "bands")

    def test_bands_axis_runs(self):
        exp = ExperimentConfig(
            data=DataConfig(source="band_mixture", embedding="logeuclidean",
                            band_mixture=dict(trials_per_class=8, samples=256, seed=1)),
            model=dict(d_model=16, layers=1, heads=2, d_ff=16, dropout=0.0),
            epochs=1, batch_size=8, seeds=(3,),
        )
        table = run_ablation(exp, "bands")
        assert [r["variant"] for r in table["rows"]] == ["multiband_T3", "single_T1"]

    def test_attention_axis_runs(self):
        exp = ExperimentConfig(
            data=DataConfig(source="band_mixture", embedding="bwspd", multiband=True,
                            band_mixture=dict(trials_per_class=8, samples=256, seed=1)),
            model=dict(d_model=16, layers=1, heads=2, d_ff=16, dropout=0.0),
            epochs=1, batch_size=8, seeds=(3,),
        )
        table = run_ablation(exp, "attention")
        assert [r["variant"] for r in table["rows"]] == ["standard", "geometric"]

    def test_attention_axis_needs_multiple_tokens(self):
        with pytest.raises(InvalidSpec, match="attention axis"):
            run_ablation(tiny_exp(seeds=(3,)), "attention")

    def test_unknown_axis(self):
        with pytest.raises(InvalidSpec):
            run_ablation(tiny_exp(), "width")


class TestReport:
    def make_runs(self, tmp_path, seeds=(3, 4, 5, 6, 7)):
        out = tmp_path / "exp"
        train_experiment(tiny_exp(seeds=seeds), str(out))
        return [str(out / f"seed{s}") for s in seeds]

    def test_single_run_table(self, tmp_path):
        dirs = self.make_runs(tmp_path, seeds=(3,))
        merged = consolidate(dirs)
        assert merged["summary"]["n_runs"] == 1
        md = markdown_table(merged)
        assert md.count("\n") == 2  # header, separator, one row

    def test_std_matches_scalar_oracle(self, tmp_path):
        dirs = self.make_runs(tmp_path)
        merged = consolidate(dirs)
        finals = [load_run(d)["final_test_accuracy"] for d in dirs]
        mean = sum(finals) / len(finals)
        var = sum((x - mean) ** 2 for x in finals) / (len(finals) - 1)
        assert np.isclose(merged["summary"]["final_test_accuracy_std"], np.sqrt(var), atol=1e-12)
        assert np.isclose(merged["summary"]["final_test_accuracy_mean"], mean, atol=1e-12)

    def test_curves_csv_rows(self, tmp_path):
        dirs = self.make_runs(tmp_path, seeds=(3, 4))
        text = curves_csv(consolidate(dirs))
        lines = text.strip().splitlines()
        assert lines[0].startswith("seed,epoch,")
        assert len(lines) == 1 + 2 * 2  # two runs x two epochs

    def test_refuses_mixed_configs(self, tmp_path):
        dirs = self.make_runs(tmp_path, seeds=(3,))
        other_exp = tiny_exp(seeds=(3,))
        other_exp.model["layers"] = 2
        out2 = tmp_path / "exp2"
        train_experiment(other_exp, str(out2))
        with pytest.raises(InvalidSpec, match="layers"):
            consolidate(dirs + [str(out2 / "seed3")])

    def test_missing_run(self, tmp_path):
        with pytest.raises(MissingRun):
            consolidate([str(tmp_path / "nope")])

    @staticmethod
    def fixture_run(path, seed, epochs_csv):
        """A two-epoch run directory with the given epochs.csv text."""
        path.mkdir()
        rows = [{"epoch": e, "train_loss": 1.0, "train_acc": 0.5, "val_loss": 1.0,
                 "val_acc": 0.5, "test_loss": 1.0, "test_acc": 0.5} for e in (1, 2)]
        (path / "metrics.json").write_text(json.dumps(
            {"config": {"epochs": 2}, "seed": seed, "final_test_accuracy": 0.5, "epochs": rows}))
        (path / "epochs.csv").write_text(epochs_csv)
        return str(path)

    def test_corrupt_run_dir_is_typed(self, tmp_path, capsys):
        corrupt = {
            "not_json": ("metrics.json", "{not json"),
            "json_list": ("metrics.json", "[1, 2]"),
            "no_config": ("metrics.json", '{"seed": 1, "epochs": [], "final_test_accuracy": 0.5}'),
            "no_clock": ("epochs.csv", "epoch,eval_clock_s\n1,0.5\n"),
            "clock_not_numeric": ("epochs.csv", "epoch,wall_clock_s,eval_clock_s\n1,fast,0.5\n"),
        }
        for case, (name, text) in corrupt.items():
            run = self.fixture_run(tmp_path / case, 1, "epoch,wall_clock_s\n1,1.0\n")
            (tmp_path / case / name).write_text(text)
            assert main(["report", run]) == 2, case
            assert capsys.readouterr().err.startswith("error: "), case

    BAD_VALUES = {
        "accuracy_not_numeric": {"final_test_accuracy": "high"},
        "accuracy_nan": {"final_test_accuracy": float("nan")},
        "accuracy_bool": {"final_test_accuracy": True},
        "accuracy_null": {"final_test_accuracy": None},
        "epochs_not_a_list": {"epochs": 3},
        "row_not_an_object": {"epochs": [[1, 1.0]]},
        "row_without_curves": {"epochs": [{"epoch": 1}]},
        "row_epoch_not_numeric": {"epochs": [{"epoch": "one", "train_loss": 1.0, "train_acc": 0.5,
                                              "val_loss": 1.0, "val_acc": 0.5, "test_loss": 1.0,
                                              "test_acc": 0.5}]},
        "row_loss_not_numeric": {"epochs": [{"epoch": 1, "train_loss": "1.0", "train_acc": 0.5,
                                             "val_loss": 1.0, "val_acc": 0.5, "test_loss": 1.0,
                                             "test_acc": 0.5}]},
    }

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_values_are_typed(self, tmp_path, capsys, case):
        run = self.fixture_run(tmp_path / "run", 1, "epoch,wall_clock_s\n1,1.0\n")
        metrics_path = tmp_path / "run" / "metrics.json"
        metrics = json.loads(metrics_path.read_text())
        metrics.update(self.BAD_VALUES[case])
        metrics_path.write_text(json.dumps(metrics))
        field = next(iter(self.BAD_VALUES[case]))
        with pytest.raises(InvalidSpec, match=f"metrics.json: {field}"):
            load_run(run)
        assert main(["report", run, "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_time_per_epoch_counts_the_evaluation(self, tmp_path):
        runs = [self.fixture_run(tmp_path / "a", 1,
                                 "epoch,wall_clock_s,eval_clock_s\n1,1.0,0.5\n2,2.0,0.5\n"),
                # written before the evaluation was timed: the loop alone
                self.fixture_run(tmp_path / "b", 2, "epoch,wall_clock_s\n1,3.0\n2,3.0\n")]
        assert load_run(runs[0])["epoch_clock_s"] == [1.5, 2.5]
        assert load_run(runs[1])["epoch_clock_s"] == [3.0, 3.0]
        merged = consolidate(runs)
        assert merged["summary"]["time_per_epoch_s"] == 2.5
        assert markdown_table(merged).endswith("| 2.500s |")

    def test_summary_time_per_epoch_counts_the_evaluation(self):
        summary, reports = train_experiment(tiny_exp(seeds=(3,)))
        rows = reports[0].epochs
        want = np.mean([row["wall_clock_s"] + row["eval_clock_s"] for row in rows])
        assert summary["time_per_epoch_s"] == float(want)


class TestCliMain:
    def test_verify_filter(self, capsys):
        rc = main(["verify", "--filter", "pair_counts"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pair_counts/offdiag_pairs_d8" in out

    def test_verify_writes_json(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        rc = main(["verify", "--filter", "injectivity", "--json", str(path)])
        assert rc == 0
        parsed = json.loads(path.read_text())
        assert parsed["all_passed"] is True

    def test_train_and_report_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(tiny_exp(seeds=(3, 4)).to_dict()))
        out = tmp_path / "runs"
        rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert "mean final test accuracy" in capsys.readouterr().out
        rc = main(["report", str(out / "seed3"), str(out / "seed4"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert (tmp_path / "rep" / "report.md").is_file()
        assert (tmp_path / "rep" / "curves.csv").is_file()

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(tiny_exp(seeds=(3, 4)).to_dict()))
        monkeypatch.setenv("SPDTOK_SEED", "9")
        rc = main(["train", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed 9" in out and "seed 3" not in out

    def test_ablate_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(tiny_exp(seeds=(3,)).to_dict()))
        rc = main(["ablate", "--config", str(cfg_path), "--axis", "bn_embed",
                   "--out", str(tmp_path / "abl")])
        assert rc == 0
        assert (tmp_path / "abl" / "ablation_bn_embed.csv").is_file()

    def test_bench_command(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        rc = main(["bench", "--dims", "2,8", "--trials", "3", "--json", str(path)])
        assert rc == 0
        parsed = json.loads(path.read_text())
        dims = {r["dim"] for r in parsed["rows"]}
        assert dims == {2, 8}

    @pytest.mark.parametrize("dims, trials", [("2,8", "0"), ("1,8", "3")])
    def test_bench_rejects_empty_groups(self, capsys, dims, trials):
        assert main(["bench", "--dims", dims, "--trials", trials]) == 2
        assert "bench needs trials >= 1 and dims >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--filter", "pair_counts", "--seed", "-1"],
        ["bench", "--dims", "2", "--trials", "1", "--seed", "-1"],
        ["bench", "--dims", "a"],
        ["bench", "--dims", ","],
    ], ids=["verify-seed", "bench-seed", "bench-dims-not-int", "bench-dims-empty"])
    def test_bad_argument_is_typed(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "missing")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [*BAD_CONFIGS, "not_json"])
    def test_bad_config_is_typed_before_data_work(self, tmp_path, capsys, monkeypatch, case):
        from spdtok import train

        def no_data_work(*args, **kwargs):
            raise AssertionError("tokenised a config that should have been refused")

        monkeypatch.setattr(train, "tokenize", no_data_work)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text("{not json" if case == "not_json" else json.dumps(BAD_CONFIGS[case]))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_env_seed_is_typed(self, tmp_path, capsys, monkeypatch, value):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(tiny_exp(seeds=(3,)).to_dict()))
        monkeypatch.setenv("SPDTOK_SEED", value)
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SPDTOK_SEED")

    def test_cross_process_reproducibility(self, tmp_path):
        import os
        import subprocess
        import sys

        import spdtok

        # the child imports the same spdtok as this process, installed or not
        src = os.path.dirname(os.path.dirname(spdtok.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(tiny_exp(seeds=(11,)).to_dict()))
        for sub in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "spdtok.cli", "train",
                 "--config", str(cfg_path), "--out", str(tmp_path / sub)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        blob_a = (tmp_path / "a" / "seed11" / "metrics.json").read_bytes()
        blob_b = (tmp_path / "b" / "seed11" / "metrics.json").read_bytes()
        assert blob_a == blob_b

    def test_verify_nonzero_exit_on_failure(self, capsys, monkeypatch):
        import spdtok.verify as verify
        from spdtok.verify import PropertyResult

        def failing_suite(rng):
            return [PropertyResult("alwaysfail", "forced", False, {"why": "injected"})]

        monkeypatch.setitem(verify.SUITES, "alwaysfail", failing_suite)
        rc = main(["verify", "--filter", "alwaysfail"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] alwaysfail/forced" in out
