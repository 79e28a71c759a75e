"""Tests for streaming adaptation with a bounded FIFO memory."""

import math

import numpy as np
import pytest

from sdalab import adapt as adapt_mod
from sdalab import metrics, runner, stream
from sdalab.config import ExperimentConfig
from sdalab.errors import ConfigError
from sdalab.feedback import TargetSplit

FAST = {"pretrain.epochs": 6, "adapt.epochs": 2}


@pytest.fixture(scope="module")
def pipeline():
    cfg = ExperimentConfig(dict(FAST))
    cache = runner.StageCache()
    d = runner.make_data(cfg, 0, cache)
    pre = runner.pretrain(cfg, 0, cache)
    split = runner.make_feedback(cfg, 0, cache)
    return cfg, d, pre, split


class TestStreamConfig:
    def test_cap_positive(self):
        with pytest.raises(ConfigError):
            stream.StreamConfig(memory_cap=0)

    def test_fraction_validation(self):
        for bad in [(), (0.4, 0.4), (0.7, 0.5), (0.5, 1.2), (0.0, 1.0)]:
            with pytest.raises(ConfigError):
                stream.StreamConfig(memory_cap=200, checkpoints=bad)
        cfg = stream.StreamConfig(memory_cap=200, checkpoints=[0.5, 1])
        assert cfg.checkpoints == (0.5, 1.0)

    def test_default_checkpoints(self):
        assert stream.StreamConfig(memory_cap=200).checkpoints == (0.1, 0.4, 0.7, 1.0)

    def test_positions_ignore_float_artifacts(self):
        # 0.07, 0.14 and 0.55 of moons' 800-row target stream each come out
        # a hair above a whole number; a bare ceil moved them one item late
        scfg = stream.StreamConfig(memory_cap=200, checkpoints=(0.07, 0.14, 0.55))
        assert stream.checkpoint_positions(scfg, 800) == {56: 0.07, 112: 0.14, 440: 0.55}


class TestRunStream:
    def test_cap_below_one_batch_rejected(self, pipeline):
        cfg, d, pre, split = pipeline
        scfg = stream.StreamConfig(memory_cap=100)  # < mu*b = 112
        with pytest.raises(ConfigError, match="memory_cap"):
            stream.run_stream(pre.model, d.target_train, split, scfg,
                              cfg.adapt_config(), 0)

    def test_colliding_checkpoints_rejected(self, pipeline):
        cfg, d, pre, split = pipeline
        scfg = stream.StreamConfig(memory_cap=5000, checkpoints=(0.0001, 0.0002))
        with pytest.raises(ConfigError, match="collide"):
            stream.run_stream(pre.model, d.target_train, split, scfg,
                              cfg.adapt_config(), 0)

    def test_triggers_and_occupancy(self, pipeline):
        cfg, d, pre, split = pipeline
        cap = 112
        scfg = stream.StreamConfig(memory_cap=cap)
        records, _ = stream.run_stream(
            pre.model, d.target_train, split, scfg, cfg.adapt_config(), 0,
            test_set=d.target_test,
        )
        n = len(d.target_train)
        assert [r["fraction"] for r in records] == [0.1, 0.4, 0.7, 1.0]
        assert [r["items_seen"] for r in records] == [
            math.ceil(f * n) for f in (0.1, 0.4, 0.7, 1.0)
        ]
        for r in records:
            assert r["occupancy"] <= cap
            assert r["skipped"] == (r["labeled_count"] == 0)
            if not r["skipped"]:
                assert "fallbacks" in r
                assert 0.0 <= r["test_acc"] <= 1.0
        # with a binding cap the tail checkpoints sit exactly at the cap
        assert records[-1]["occupancy"] == cap
        # all feedback has streamed in by the end
        assert records[-1]["labeled_count"] == len(split.labeled)

    @pytest.mark.parametrize("cap", [112, 150])
    def test_memory_holds_the_last_cap_unlabeled_items(self, pipeline, monkeypatch, cap):
        cfg, d, pre, split = pipeline
        pools = []
        real_adapt = adapt_mod.adapt

        def spy(model, ckpt_split, *args, **kwargs):
            pools.append(ckpt_split.unlabeled)
            return real_adapt(model, ckpt_split, *args, **kwargs)

        monkeypatch.setattr(adapt_mod, "adapt", spy)
        scfg = stream.StreamConfig(memory_cap=cap, checkpoints=(0.5, 1.0))
        records, _ = stream.run_stream(
            pre.model, d.target_train, split, scfg, cfg.adapt_config(), 0
        )
        n = len(d.target_train)
        order = np.random.default_rng(np.random.SeedSequence([0, 1])).permutation(n)
        labeled = {i for i, _ in split.labeled}
        assert len(pools) == len(records) == 2
        for pool, record in zip(pools, records):
            # the cap binds at both checkpoints; oldest first, evicted first
            seen = [int(i) for i in order[: record["items_seen"]] if int(i) not in labeled]
            assert len(seen) > cap
            assert pool == seen[-cap:]
            assert record["occupancy"] == cap

    def test_labeled_counts_monotone(self, pipeline):
        cfg, d, pre, split = pipeline
        scfg = stream.StreamConfig(memory_cap=5000, checkpoints=(0.25, 0.5, 0.75, 1.0))
        records, _ = stream.run_stream(
            pre.model, d.target_train, split, scfg, cfg.adapt_config(), 0)
        counts = [r["labeled_count"] for r in records]
        assert counts == sorted(counts)

    def test_skipped_checkpoint_uses_untouched_model(self, pipeline):
        cfg, d, pre, split = pipeline
        n = len(d.target_train)
        order = np.random.default_rng(np.random.SeedSequence([0, 1])).permutation(n)
        last = int(order[-1])
        lone = TargetSplit(
            [(last, int(d.target_train.labels[last]))],
            [i for i in range(n) if i != last],
        )
        scfg = stream.StreamConfig(memory_cap=5000, checkpoints=(0.5, 1.0))
        records, _ = stream.run_stream(
            pre.model, d.target_train, lone, scfg, cfg.adapt_config(), 0,
            test_set=d.target_test,
        )
        assert records[0]["skipped"] is True
        assert records[0]["labeled_count"] == 0
        assert records[0]["test_acc"] == pre.target_test_acc
        assert records[1]["skipped"] is False
        assert records[1]["labeled_count"] == 1

    def test_non_binding_cap_matches_offline(self, pipeline):
        cfg, d, pre, split = pipeline
        n = len(d.target_train)
        scfg = stream.StreamConfig(memory_cap=n, checkpoints=(0.5, 1.0))
        records, streamed = stream.run_stream(
            pre.model, d.target_train, split, scfg, cfg.adapt_config(), 7,
            test_set=d.target_test,
        )
        offline, rows = adapt_mod.adapt(
            pre.model, split, d.target_train, cfg.adapt_config(), 7,
            test_set=d.target_test,
        )
        assert records[-1]["occupancy"] == len(split.unlabeled)
        assert records[-1]["test_acc"] == rows[-1]["test_acc"]
        for ws, wo in zip(streamed.weights, offline.weights):
            assert np.array_equal(ws, wo)
        for bs, bo in zip(streamed.biases, offline.biases):
            assert np.array_equal(bs, bo)

    def test_non_binding_cap_matches_offline_fixmatch(self, pipeline):
        cfg, d, pre, split = pipeline
        fcfg = cfg.with_overrides({"adapt.algorithm": adapt_mod.FIXMATCH_LITE})
        acfg = fcfg.adapt_config()
        assert acfg.augment is not None
        scfg = stream.StreamConfig(memory_cap=len(d.target_train), checkpoints=(0.5, 1.0))
        records, streamed = stream.run_stream(
            pre.model, d.target_train, split, scfg, acfg, 7, test_set=d.target_test
        )
        offline, rows = adapt_mod.adapt(
            pre.model, split, d.target_train, acfg, 7, test_set=d.target_test
        )
        assert records[-1]["test_acc"] == rows[-1]["test_acc"]
        for ws, wo in zip(streamed.weights, offline.weights):
            assert np.array_equal(ws, wo)
        for bs, bo in zip(streamed.biases, offline.biases):
            assert np.array_equal(bs, bo)

    def test_each_checkpoint_evaluated_once(self, pipeline, monkeypatch):
        cfg, d, pre, split = pipeline
        n = len(d.target_train)
        order = np.random.default_rng(np.random.SeedSequence([0, 1])).permutation(n)
        lone = TargetSplit(  # no feedback before the last item: the first checkpoint skips
            [(int(order[-1]), int(d.target_train.labels[order[-1]]))],
            [int(i) for i in order[:-1]],
        )
        evaluated = []
        top1 = metrics.top1_accuracy

        def counting(model, points, labels, buffers=None):
            evaluated.append(model)
            return top1(model, points, labels, buffers)

        monkeypatch.setattr(metrics, "top1_accuracy", counting)
        for fb in (split, lone):
            evaluated.clear()
            scfg = stream.StreamConfig(memory_cap=150, checkpoints=(0.5, 1.0))
            records, last = stream.run_stream(
                pre.model, d.target_train, fb, scfg, cfg.adapt_config(), 3,
                test_set=d.target_test,
            )
            assert len(evaluated) == len(records) == 2 and evaluated[-1] is last
            assert records[0]["skipped"] is (fb is lone)
            records, _ = stream.run_stream(
                pre.model, d.target_train, fb, scfg, cfg.adapt_config(), 3
            )
            assert len(evaluated) == 2 and all("test_acc" not in r for r in records)

    def test_stream_deterministic(self, pipeline):
        cfg, d, pre, split = pipeline
        scfg = stream.StreamConfig(memory_cap=150, checkpoints=(0.3, 1.0))
        r1, m1 = stream.run_stream(pre.model, d.target_train, split, scfg,
                                   cfg.adapt_config(), 3, test_set=d.target_test)
        r2, m2 = stream.run_stream(pre.model, d.target_train, split, scfg,
                                   cfg.adapt_config(), 3, test_set=d.target_test)
        assert r1 == r2
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
