"""Tests for ablation sweeps: cell grids, aggregation, serialization."""

import csv
import math

import numpy as np
import pytest

from sdalab import sweep
from sdalab.config import ExperimentConfig
from sdalab.errors import ConfigError, ShortageError

FAST = {"pretrain.epochs": 6, "adapt.epochs": 2}


def base_cfg(**extra):
    flat = dict(FAST)
    flat.update(extra)
    return ExperimentConfig(flat)


class TestAxisCells:
    def test_method_axis(self):
        cells = sweep.axis_cells("method", base_cfg())
        assert [c for c, _ in cells] == [
            "rf:baseline", "rf:rld", "nbf:baseline", "nbf:rld",
        ]
        by_name = dict(cells)
        assert by_name["rf:baseline"]["adapt.k"] == 0
        assert by_name["nbf:rld"]["rld.enabled"] is True
        assert by_name["nbf:rld"]["adapt.k"] == 3  # default when base has k=0

    def test_method_axis_respects_base_k(self):
        cells = dict(sweep.axis_cells("method", base_cfg(**{"rld.enabled": True, "adapt.k": 4})))
        assert cells["rf:rld"]["adapt.k"] == 4

    def test_k_axis(self):
        cells = sweep.axis_cells("k", base_cfg())
        assert [c for c, _ in cells] == ["1", "2", "3", "4"]
        assert all(ov["rld.enabled"] for _, ov in cells)

    def test_p_axis(self):
        cells = sweep.axis_cells("p", base_cfg())
        assert [c for c, _ in cells] == ["0.2", "0.4", "0.6", "0.8"]

    def test_ratio_axis_compositions(self):
        base = base_cfg()
        cells = sweep.axis_cells("ratio", base)
        assert [c for c, _ in cells] == ["112:0:16", "112:48:16", "64:48:16"]
        comps = []
        for _, ov in cells:
            acfg = base.with_overrides(ov).adapt_config()
            k = acfg.rld.k if acfg.rld is not None else 0
            comps.append((acfg.batch.b, acfg.batch.mu * acfg.batch.b, k * acfg.batch.b))
        assert comps == [(16, 112, 0), (16, 112, 48), (16, 64, 48)]

    def test_strategy_axis(self):
        cells = sweep.axis_cells("strategy", base_cfg())
        assert sorted(c for c, _ in cells) == [
            "class_aware_random", "cosine_distant", "kmeans_center", "unconditioned_random",
        ]

    def test_pfnf_axis(self):
        cells = sweep.axis_cells("pfnf", base_cfg())
        assert [c for c, _ in cells] == ["100:0", "75:25", "50:50", "25:75", "0:100"]
        by_name = dict(cells)
        assert by_name["100:0"]["feedback.pf_count"] == 4
        assert by_name["100:0"]["feedback.nf_count"] == 0
        assert by_name["25:75"] == {
            "feedback.policy": "mixed", "feedback.pf_count": 1, "feedback.nf_count": 3,
        }

    def test_amount_axis(self):
        cells = sweep.axis_cells("amount", base_cfg())
        assert [c for c, _ in cells] == ["1", "3", "5", "10", "15"]

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            sweep.axis_cells("width", base_cfg())


class TestRunSweep:
    def test_method_axis_record_count(self):
        # 10 seeds x {rf,nbf} x {baseline,rld} -> 40 records
        result = sweep.run_sweep(base_cfg(**{"run.seeds": 10}), "method")
        assert len(result.records) == 40
        assert not result.failures
        per_cell = {}
        for rec in result.records:
            per_cell.setdefault(rec["cell"], []).append(rec["seed"])
        assert all(sorted(seeds) == list(range(10)) for seeds in per_cell.values())

    def test_record_fields(self):
        result = sweep.run_sweep(base_cfg(**{"run.seeds": [0]}), "k")
        rec = result.records[0]
        assert set(rec) == {
            "axis", "cell", "config_hash", "seed", "metric",
            "value", "source_model_value", "flags",
        }
        assert rec["metric"] == "test_acc"

    def test_aggregate_matches_recompute(self):
        result = sweep.run_sweep(base_cfg(**{"run.seeds": 3}), "method")
        rows = result.aggregate_rows()
        assert [r["cell"] for r in rows] == [
            "rf:baseline", "rf:rld", "nbf:baseline", "nbf:rld",
        ]
        for row in rows:
            values = [r["value"] for r in result.records if r["cell"] == row["cell"]]
            assert row["seed_count"] == 3
            assert abs(row["mean"] - np.mean(values)) < 1e-12
            assert abs(row["std"] - np.std(values, ddof=1)) < 1e-12

    def test_failure_recorded_not_fatal(self, monkeypatch):
        real = sweep.run_single

        def flaky(cfg, seed, cache=None):
            if cfg.flat["feedback.policy"] == "nbf" and cfg.flat["adapt.k"] > 0:
                raise ShortageError("synthetic shortage")
            return real(cfg, seed, cache)

        monkeypatch.setattr(sweep, "run_single", flaky)
        result = sweep.run_sweep(base_cfg(**{"run.seeds": 2}), "method")
        assert len(result.records) == 6  # three healthy cells x two seeds
        assert len(result.failures) == 2
        assert all(f["cell"] == "nbf:rld" for f in result.failures)
        assert "synthetic shortage" in result.failures[0]["error"]
        rows = result.aggregate_rows()
        failed = [r for r in rows if r["cell"] == "nbf:rld"]
        assert failed[0]["metric"] == "failed"
        assert failed[0]["seed_count"] == 0
        assert math.isnan(failed[0]["mean"])

    def test_mean_std_example(self):
        result = sweep.SweepResult(
            "method",
            records=[
                {"cell": "rf:baseline", "value": 0.9, "metric": "test_acc"},
                {"cell": "rf:baseline", "value": 0.92, "metric": "test_acc"},
            ],
        )
        row = result.aggregate_rows()[0]
        assert abs(row["mean"] - 0.91) < 5e-5
        assert abs(row["std"] - 0.0141) < 5e-5


class TestSerialization:
    def test_records_round_trip(self, tmp_path):
        result = sweep.run_sweep(base_cfg(**{"run.seeds": [0]}), "method")
        result.failures.append({"cell": "nbf:rld", "seed": 1, "error": "boom"})
        path = tmp_path / "records.jsonl"
        sweep.write_records_jsonl(path, result)
        back = sweep.read_records_jsonl(path)
        assert back.axis == "method"
        assert back.records == result.records
        assert len(back.failures) == 1
        assert back.failures[0]["error"] == "boom"

    def test_aggregate_csv_format(self, tmp_path):
        result = sweep.run_sweep(base_cfg(**{"run.seeds": 2}), "k")
        rows = result.aggregate_rows()
        path = tmp_path / "agg.csv"
        sweep.write_aggregate_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "axis,cell,seed_count,mean,std,metric"
        parsed = list(csv.DictReader(path.open()))
        assert len(parsed) == len(rows)
        for got, row in zip(parsed, rows):
            # repr round-trips floats exactly
            assert float(got["mean"]) == row["mean"]
            assert float(got["std"]) == row["std"]
            assert int(got["seed_count"]) == row["seed_count"]

    def test_format_table(self):
        rows = [
            {"axis": "k", "cell": "1", "seed_count": 2, "mean": 0.5,
             "std": 0.01, "metric": "test_acc"},
            {"axis": "k", "cell": "2", "seed_count": 2, "mean": 0.625,
             "std": 0.02, "metric": "test_acc"},
        ]
        text = sweep.format_table(rows)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].split() == ["axis", "cell", "seeds", "mean", "std", "metric"]
        assert "0.6250" in lines[2]
