"""End-to-end tests of the command line interface and its exit codes."""

import json
import warnings

import pytest

from sdalab import adapt as adapt_mod
from sdalab import data, nn, runner, sweep
from sdalab.cli import main
from sdalab.config import load_config

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
        groups = data.read_dataset_csv(tmp_path / "dataset_seed0.csv")
        assert set(groups) == {
            ("source", "train"), ("source", "test"),
            ("target", "train"), ("target", "test"),
        }
        assert groups[("source", "train")].labels.max() == 1  # moons has two classes


class TestCommands:
    def test_gen_data_round_trip(self, tmp_path):
        assert run_cli(["gen-data", "--out", str(tmp_path), "--seed", "2"]) == 0
        groups = data.read_dataset_csv(tmp_path / "dataset_seed2.csv")
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
        cfg = load_config(None, sets[1::2])
        want = adapt_mod.AugmenterSpec.from_points(
            runner.make_data(cfg, 0).target_train.points, *cfg.augment_fracs()
        )
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

    def test_binary_rld_needs_class_aware_random_up_front(self, tmp_path, monkeypatch, capsys):
        def no_pretrain(*args, **kwargs):
            raise AssertionError("pretraining started before the config was rejected")

        monkeypatch.setattr(runner, "pretrain", no_pretrain)
        code = run_cli(
            ["adapt", "--out", str(tmp_path), "--set", "dataset.kind=binary",
             "--set", "rld.enabled=true", "--set", "adapt.k=3"] + FAST_SETS
        )
        assert code == 2
        assert "--set rld.strategy=class_aware_random" in capsys.readouterr().err
