"""End-to-end tests of the command line interface and its exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from sdalab import adapt as adapt_mod
from sdalab import bank, data, nn, runner, sweep
from sdalab.cli import main
from sdalab.config import load_config

from dataset_csv import read_dataset_csv

FAST_SETS = ["--set", "pretrain.epochs=6", "--set", "adapt.epochs=2"]


def run_cli(args):
    return main(list(args))


class TestArgHandling:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_axis_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--axis", "nope"]) == 2
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path):
        code = run_cli(["adapt", "--set", "bogus.key=1", "--out", str(tmp_path)])
        assert code == 2

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("pretrain.epochs = 6\nadapt.epochs = 2\ndataset.kind = moons\n")
        code = run_cli(["gen-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        groups = read_dataset_csv(tmp_path / "dataset_seed0.csv")
        assert set(groups) == {
            ("source", "train"), ("source", "test"),
            ("target", "train"), ("target", "test"),
        }
        assert groups[("source", "train")].labels.max() == 1  # moons has two classes


class TestCommands:
    def test_gen_data_round_trip(self, tmp_path):
        assert run_cli(["gen-data", "--out", str(tmp_path), "--seed", "2"]) == 0
        groups = read_dataset_csv(tmp_path / "dataset_seed2.csv")
        n = sum(len(ds) for (dom, _), ds in groups.items() if dom == "source")
        assert n == 1200

    def test_pretrain_outputs(self, tmp_path):
        code = run_cli(["pretrain", "--out", str(tmp_path)] + FAST_SETS)
        assert code == 0
        model = nn.MlpModel.load(tmp_path / "model_seed0.json")
        assert model.layer_dims == [2, 10, 10, 3]
        doc = json.loads((tmp_path / "pretrain_seed0.json").read_text())
        assert set(doc) == {"seed", "source_test", "target_test"}
        assert doc["source_test"] > 0.5

    def test_adapt_outputs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli(["adapt", "--out", str(out)] + FAST_SETS) == 0
        metrics_a = (out_a / "metrics_seed0.json").read_bytes()
        metrics_b = (out_b / "metrics_seed0.json").read_bytes()
        assert metrics_a == metrics_b
        assert (out_a / "run_seed0.jsonl").read_bytes() == (out_b / "run_seed0.jsonl").read_bytes()
        rows = [json.loads(line) for line in (out_a / "run_seed0.jsonl").open()]
        assert len(rows) == 2

    def test_sweep_outputs(self, tmp_path):
        code = run_cli(
            ["sweep", "--axis", "k", "--out", str(tmp_path), "--set", "run.seeds=[0]"]
            + FAST_SETS
        )
        assert code == 0
        result = sweep.read_records_jsonl(tmp_path / "records_k.jsonl")
        assert len(result.records) == 4
        csv_text = (tmp_path / "aggregate_k.csv").read_text()
        assert csv_text.startswith("axis,cell,seed_count,mean,std,metric")
        table = (tmp_path / "aggregate_k.txt").read_text()
        assert table.splitlines()[0].split() == [
            "axis", "cell", "seeds", "mean", "std", "metric",
        ]

    def test_sweep_reports_progress_on_stderr(self, tmp_path, capsys):
        code = run_cli(
            ["sweep", "--axis", "k", "--out", str(tmp_path), "--set", "run.seeds=[0]"]
            + FAST_SETS
        )
        assert code == 0
        out, err = capsys.readouterr()
        records = sweep.read_records_jsonl(tmp_path / "records_k.jsonl").records
        assert err.splitlines() == [
            f"[{i}/4] {r['cell']} {r['seed']} {r['value']:.4f}" for i, r in enumerate(records, 1)
        ]
        table = (tmp_path / "aggregate_k.txt").read_text()
        written = ("records_k.jsonl", "aggregate_k.csv", "aggregate_k.txt")
        assert out == table + f"wrote {', '.join(str(tmp_path / name) for name in written)}\n"

    def test_report_recomputes_aggregate(self, tmp_path):
        records = tmp_path / "records.jsonl"
        result = sweep.SweepResult(
            "method",
            records=[
                {"axis": "method", "cell": "rf:baseline", "seed": 0,
                 "value": 0.9, "metric": "test_acc"},
                {"axis": "method", "cell": "rf:baseline", "seed": 1,
                 "value": 0.92, "metric": "test_acc"},
            ],
        )
        sweep.write_records_jsonl(records, result)
        assert run_cli(["report", "--records", str(records)]) == 0
        csv_lines = (tmp_path / "records_aggregate.csv").read_text().strip().split("\n")
        _, cell, count, mean, std, metric = csv_lines[1].split(",")
        assert cell == "rf:baseline" and count == "2" and metric == "test_acc"
        assert abs(float(mean) - 0.91) < 5e-5
        assert abs(float(std) - 0.0141) < 5e-5

    def test_stream_outputs(self, tmp_path):
        code = run_cli(
            ["stream", "--out", str(tmp_path), "--cap", "200",
             "--checkpoints", "0.5", "1.0"] + FAST_SETS
        )
        assert code == 0
        records = json.loads((tmp_path / "stream_seed0.json").read_text())
        assert [r["fraction"] for r in records] == [0.5, 1.0]
        assert all(r["occupancy"] <= 200 for r in records)

    def test_stream_and_plot_augment_fixmatch(self, tmp_path, monkeypatch):
        sets = ["--set", "adapt.algorithm=fixmatch_lite"] + FAST_SETS
        want = load_config(None, sets[1::2]).adapt_config().augment
        assert want == adapt_mod.AugmenterSpec(0.03, 0.15, (0.9, 1.1))
        seen = []
        real_adapt = adapt_mod.adapt

        def spy(model, split, train, acfg, *args, **kwargs):
            seen.append(acfg.augment)
            return real_adapt(model, split, train, acfg, *args, **kwargs)

        monkeypatch.setattr(adapt_mod, "adapt", spy)
        assert run_cli(["adapt", "--out", str(tmp_path)] + sets) == 0
        code = run_cli(
            ["stream", "--out", str(tmp_path), "--cap", "100000", "--checkpoints", "1.0"]
            + sets
        )
        assert code == 0
        assert run_cli(["plot", "--out", str(tmp_path), "--resolution", "8"] + sets) == 0
        # adapt, one stream checkpoint, and the baseline and rld plot panels
        assert seen == [want] * 4
        offline = json.loads((tmp_path / "metrics_seed0.json").read_text())
        records = json.loads((tmp_path / "stream_seed0.json").read_text())
        assert records[-1]["test_acc"] == offline["final"]["target_test_value_adapted"]

    def test_stream_rejects_colliding_checkpoints_before_pretraining(
        self, tmp_path, monkeypatch, capsys
    ):
        stages = []
        for name in ("pretrain", "make_feedback"):
            monkeypatch.setattr(runner, name, lambda *a, name=name, **k: stages.append(name))
        code = run_cli(
            ["stream", "--out", str(tmp_path), "--checkpoints", "0.0001", "0.0002"]
            + FAST_SETS
        )
        assert code == 2
        assert "collide at stream length 960" in capsys.readouterr().err
        assert stages == []

    def test_stream_rejects_binary(self, tmp_path):
        code = run_cli(
            ["stream", "--out", str(tmp_path), "--set", "dataset.kind=binary"]
            + FAST_SETS
        )
        assert code == 2

    def test_plot_writes_three_svgs(self, tmp_path):
        code = run_cli(
            ["plot", "--out", str(tmp_path), "--resolution", "16"] + FAST_SETS
        )
        assert code == 0
        for name in ("source", "baseline", "rld"):
            text = (tmp_path / f"{name}_seed0.svg").read_text()
            assert text.startswith("<svg ")
            assert "<circle" in text

    @pytest.mark.parametrize(
        "command", [["stream"], ["plot", "--resolution", "8"], ["adapt"]], ids=lambda c: c[0]
    )
    def test_each_command_builds_each_stage_once(self, tmp_path, monkeypatch, command):
        calls = []
        for module, name in ((data, "make_blobs_pair"), (adapt_mod, "train_supervised")):
            real = getattr(module, name)

            def spy(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        assert run_cli(command + ["--out", str(tmp_path)] + FAST_SETS) == 0
        # one dataset and one source model, whatever the command adapts
        assert sorted(calls) == ["make_blobs_pair", "train_supervised"], calls


class TestExitCodes:
    def test_shortage_is_4(self, tmp_path):
        code = run_cli(
            ["adapt", "--out", str(tmp_path), "--set", "feedback.per_class_count=500",
             "--set", "feedback.fallback=error"] + FAST_SETS
        )
        assert code == 4

    def test_numeric_failure_is_3(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow warnings precede the failure
            code = run_cli(
                ["adapt", "--out", str(tmp_path),
                 "--set", "adapt.learning_rate=1e308"] + FAST_SETS
            )
        assert code == 3

    def test_invalid_value_is_2(self, tmp_path):
        code = run_cli(
            ["adapt", "--out", str(tmp_path), "--set", "rld.p=2.0",
             "--set", "rld.enabled=true"] + FAST_SETS
        )
        assert code == 2

    def test_binary_rld_runs_with_every_strategy(self, tmp_path):
        binary_rld = ["--set", "dataset.kind=binary", "--set", "rld.enabled=true",
                      "--set", "adapt.k=3"] + FAST_SETS
        # no strategy set: the default, cosine_distant
        for strategy in [None] + [s for s in bank.STRATEGIES if s != "cosine_distant"]:
            out = tmp_path / str(strategy)
            sets = [] if strategy is None else ["--set", f"rld.strategy={strategy}"]
            assert run_cli(["adapt", "--out", str(out)] + binary_rld + sets) == 0
            rows = (out / "run_seed0.jsonl").read_text().splitlines()
            assert len(rows) == 2
            assert len(json.loads(rows[0])["bank"]["sizes"]) == 4  # one pair per finding


    @pytest.mark.parametrize("override", [
        "model.hidden=[0,10]",
        "model.hidden=[-3]",
        "pretrain.batch_size=0",
        "pretrain.epochs=-1",
        "augment.weak_frac=-1",
        "augment.scale_lo=2",
    ])
    def test_bad_model_and_pretrain_values_exit_2_up_front(self, tmp_path, monkeypatch, override):
        def no_pretrain(*args, **kwargs):
            raise AssertionError("pretraining started before the config was rejected")

        monkeypatch.setattr(runner, "pretrain", no_pretrain)
        code = run_cli(
            ["adapt", "--out", str(tmp_path), "--set", "adapt.algorithm=fixmatch_lite"]
            + FAST_SETS + ["--set", override]
        )
        assert code == 2

    @pytest.mark.parametrize("overrides", [
        ["dataset.kind=binary", "feedback.fp_count=-5"],
        ["dataset.kind=binary", "feedback.fp_count=0", "feedback.fn_count=0"],
        ["dataset.kind=binary", "adapt.algorithm=fixmatch_lite"],
        ["rld.enabled=true", "adapt.k=3", "rld.kmeans_clusters=-2"],
        ["split.ratio=1.5"],
        ["dataset.kind=binary", "feedback.policy=rf"],
        ["dataset.kind=binary", "feedback.per_class_count=10"],
    ])
    def test_late_failures_exit_2_up_front(self, tmp_path, monkeypatch, capsys, overrides):
        def no_stage(*args, **kwargs):
            raise AssertionError("a pipeline stage ran before the config was rejected")

        monkeypatch.setattr(runner, "make_data", no_stage)
        monkeypatch.setattr(runner, "pretrain", no_stage)
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert run_cli(["adapt", "--out", str(tmp_path)] + FAST_SETS + sets) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("ratio", ["0.999", "0.001"])
    def test_split_ratio_that_empties_a_side_exits_2_before_pretraining(
        self, tmp_path, monkeypatch, capsys, ratio
    ):
        # 0.999 leaves a class no test sample, 0.001 no train sample
        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretraining started before the split was rejected")

        monkeypatch.setattr(adapt_mod, "train_supervised", no_pretraining)
        code = run_cli(["adapt", "--out", str(tmp_path), "--set", f"split.ratio={ratio}"] + FAST_SETS)
        assert code == 2
        assert "split ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["plot", "--resolution", "1"],
        ["plot", "--resolution", "1", "--set", "rld.strategy=kmeans_center"],
        ["stream", "--cap", "0"],
        ["stream", "--cap", "100"],  # below one unlabelled batch, 7*16
        ["stream", "--checkpoints", "0.7", "0.5"],
        ["stream", "--checkpoints", "0.5", "1.5"],
    ])
    def test_bad_flags_exit_2_before_any_stage(self, tmp_path, monkeypatch, capsys, args):
        def no_stage(*args, **kwargs):
            raise AssertionError("a pipeline stage ran before the flags were rejected")

        monkeypatch.setattr(runner, "make_data", no_stage)
        monkeypatch.setattr(runner, "pretrain", no_stage)
        assert run_cli(args + ["--out", str(tmp_path)] + FAST_SETS) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-m", "sdalab", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: sdalab")
