"""Tests for the single-run pipeline: staging, caching, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from sdalab import adapt, metrics, runner
from sdalab.config import ExperimentConfig

FAST = {
    "pretrain.epochs": 6,
    "adapt.epochs": 2,
}


def fast_cfg(**extra):
    flat = dict(FAST)
    flat.update(extra)
    return ExperimentConfig(flat)


class TestStages:
    def test_data_split_sizes(self):
        d = runner.make_data(fast_cfg(), 0)
        n = len(d.source_train.labels) + len(d.source_test.labels)
        assert n == 3 * 400
        assert len(d.source_train.labels) == int(0.8 * n)
        assert len(d.target_train.labels) == int(0.8 * n)

    def test_data_deterministic_across_caches(self):
        a = runner.make_data(fast_cfg(), 3)
        b = runner.make_data(fast_cfg(), 3)
        assert np.array_equal(a.target_train.points, b.target_train.points)
        c = runner.make_data(fast_cfg(), 4)
        assert not np.array_equal(a.target_train.points, c.target_train.points)

    def test_pretrain_returns_defensive_copy(self):
        cache = runner.StageCache()
        cfg = fast_cfg()
        a = runner.pretrain(cfg, 0, cache)
        a.model.weights[0] += 99.0
        b = runner.pretrain(cfg, 0, cache)
        assert not np.allclose(a.model.weights[0], b.model.weights[0])

    def test_cache_shared_across_adapt_variants(self):
        cache = runner.StageCache()
        base = fast_cfg()
        rld = fast_cfg(**{"rld.enabled": True, "adapt.k": 3})
        da = runner.make_data(base, 0, cache)
        db = runner.make_data(rld, 0, cache)
        assert da is db  # same data stage hash -> one cache entry
        runner.pretrain(base, 0, cache)
        runner.pretrain(rld, 0, cache)
        assert len(cache.pretrained) == 1
        fa = runner.make_feedback(base, 0, cache)
        fb = runner.make_feedback(rld, 0, cache)
        assert fa is fb

    def test_feedback_stage_changes_split(self):
        cache = runner.StageCache()
        nbf = runner.make_feedback(fast_cfg(), 0, cache)
        rf = runner.make_feedback(fast_cfg(**{"feedback.policy": "rf"}), 0, cache)
        assert len(cache.pretrained) == 1  # pretrain still shared
        assert sorted(nbf.labeled_indices().tolist()) != sorted(rf.labeled_indices().tolist())


class TestRunSingle:
    def test_metrics_json_byte_identical(self):
        cfg = fast_cfg()
        r1 = runner.run_single(cfg, 0)
        r2 = runner.run_single(cfg, 0)
        assert r1.metrics_json() == r2.metrics_json()
        assert r1.metrics_json().encode() == r2.metrics_json().encode()

    def test_wall_clock_excluded(self):
        r = runner.run_single(fast_cfg(), 0)
        r.wall_clock = 123.456
        assert "123.456" not in r.metrics_json()
        assert "wall_clock" not in r.metrics_json()

    def test_row_schema(self):
        cfg = fast_cfg(**{"rld.enabled": True, "adapt.k": 2})
        r = runner.run_single(cfg, 0)
        assert len(r.rows) == 2
        for i, row in enumerate(r.rows):
            assert row["epoch"] == i
            assert set(row) == {
                "epoch", "l_sup", "l_unsup", "l_rld", "mask_rate", "bank", "test_acc",
            }
            assert set(row["bank"]) == {"sizes", "fallbacks"}
            assert len(row["bank"]["sizes"]) == 3

    def test_final_fields(self):
        r = runner.run_single(fast_cfg(), 1)
        assert set(r.final) == {
            "source_test_acc",
            "target_test_acc_source_model",
            "target_test_value_adapted",
            "metric",
        }
        assert r.final["metric"] == "test_acc"
        assert 0.0 <= r.final["target_test_value_adapted"] <= 1.0

    def test_binary_mode_metric(self):
        cfg = fast_cfg(**{
            "dataset.kind": "binary",
            "dataset.num_findings": 3,
            "feedback.fp_count": 5,
            "feedback.fn_count": 5,
        })
        r = runner.run_single(cfg, 0)
        assert r.final["metric"] == "mean_auroc"
        assert 0.0 <= r.final["target_test_value_adapted"] <= 1.0
        assert len(r.rows) == 2

    @pytest.mark.parametrize("extra", [
        {},
        {"adapt.algorithm": "fixmatch_lite"},
        {"dataset.kind": "binary"},
        {"dataset.kind": "binary", "rld.enabled": True, "adapt.k": 3},
    ], ids=["pseudo_label", "fixmatch_lite", "binary", "binary_rld"])
    def test_adapted_value_is_the_last_epoch_score(self, extra):
        r = runner.run_single(fast_cfg(**extra), 0)
        assert r.final["target_test_value_adapted"].hex() == r.rows[-1]["test_acc"].hex()

    @pytest.mark.parametrize("kind", ["blobs", "binary"])
    def test_zero_epochs_value_is_the_source_model_score(self, kind):
        r = runner.run_single(fast_cfg(**{"dataset.kind": kind, "adapt.epochs": 0}), 0)
        assert r.rows == []
        final = r.final
        assert final["target_test_value_adapted"].hex() == final["target_test_acc_source_model"].hex()

    def test_each_model_is_scored_once(self, monkeypatch):
        # pretraining scores the source model on both test sets, and the
        # loop scores the model after each of its 2 epochs; nothing else
        calls = []
        top1 = metrics.top1_accuracy
        monkeypatch.setattr(metrics, "top1_accuracy", lambda *a: calls.append(1) or top1(*a))
        runner.run_single(fast_cfg(), 0)
        assert len(calls) == 2 + 2

    def test_fixmatch_adapt_config_alone_gives_run_single_rows(self):
        # cfg.adapt_config() is the run's whole AdaptConfig, augmenter included
        cfg = fast_cfg(**{"adapt.algorithm": "fixmatch_lite"})
        cache = runner.StageCache()
        record = runner.run_single(cfg, 0, cache)
        d = runner.make_data(cfg, 0, cache)
        pre, split = runner.pretrain(cfg, 0, cache), runner.make_feedback(cfg, 0, cache)
        acfg = cfg.adapt_config()

        def rows(acfg):
            return adapt.adapt(
                pre.model, split, d.target_train, acfg, runner.adapt_seed(cfg, 0),
                test_set=d.target_test,
            )[1]

        assert rows(acfg) == record.rows
        assert rows(dataclasses.replace(acfg, augment=None)) != record.rows

    def test_binary_adapt_config_alone_gives_run_single_rows(self):
        # binary mode's twin: pre.thresholds, cfg.adapt_config() and the
        # adapt seed are all run_single hands adapt.adapt
        cfg = fast_cfg(**{"dataset.kind": "binary", "rld.enabled": True, "adapt.k": 3})
        cache = runner.StageCache()
        record = runner.run_single(cfg, 0, cache)
        d = runner.make_data(cfg, 0, cache)
        pre, splits = runner.pretrain(cfg, 0, cache), runner.make_feedback(cfg, 0, cache)

        def score(model):
            return metrics.mean_auroc(model, d.target_test)

        adapted, rows = adapt.adapt(
            pre.model, splits, d.target_train, cfg.adapt_config(), runner.adapt_seed(cfg, 0),
            test_set=d.target_test, thresholds=pre.thresholds,
        )
        assert rows == record.rows
        assert record.final["metric"] == "mean_auroc"
        assert score(adapted).hex() == record.final["target_test_value_adapted"].hex()

    @pytest.mark.parametrize("kind", ["blobs", "binary"])
    def test_one_adapt_call_for_either_head(self, monkeypatch, kind):
        # both heads reach the loop through adapt.adapt, once a run; the
        # binary-named alias is never called, so a tracer that sums calls
        # over both names counts each run once
        calls = []
        original = adapt.adapt

        def spy(*args, **kwargs):
            calls.append(kwargs["thresholds"])
            return original(*args, **kwargs)

        def no_alias(*args, **kwargs):
            raise AssertionError("run_single called adapt.adapt_binary")

        monkeypatch.setattr(adapt, "adapt", spy)
        monkeypatch.setattr(adapt, "adapt_binary", no_alias)
        cfg = fast_cfg(**{"dataset.kind": kind})
        runner.run_single(cfg, 0)
        assert len(calls) == 1
        assert (calls[0] is None) == (kind == "blobs")

    def test_seed_changes_outcome(self):
        a = runner.run_single(fast_cfg(), 0)
        b = runner.run_single(fast_cfg(), 1)
        assert a.metrics_json() != b.metrics_json()


class TestRunLog:
    def test_jsonl_round_trip(self, tmp_path):
        r = runner.run_single(fast_cfg(), 0)
        path = tmp_path / "run.jsonl"
        runner.write_run_log(path, r.rows)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(r.rows)
        parsed = [json.loads(line) for line in lines]
        assert parsed == r.rows

    def test_log_bytes_stable(self, tmp_path):
        cfg = fast_cfg()
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        runner.write_run_log(pa, runner.run_single(cfg, 0).rows)
        runner.write_run_log(pb, runner.run_single(cfg, 0).rows)
        assert pa.read_bytes() == pb.read_bytes()
