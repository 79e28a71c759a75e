"""Tests of the benchmark's tracer: every binding is wrapped and restored, and
the counts it measures equal the counts the configs determine.

    python3 -m pytest perfbench/test_tracer.py
"""

import csv
import gzip
import inspect
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from sdalab import adapt, runner, sweep  # noqa: E402
from sdalab.config import ExperimentConfig  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SMALL = {"pretrain.epochs": 3, "adapt.epochs": 2, "run.seeds": [0, 1]}
BINARY_RLD = {
    **SMALL, "dataset.kind": "binary", "rld.enabled": True, "adapt.k": 3,
    "rld.strategy": "class_aware_random",
}


def _public_sdalab_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        parts = obj.__module__.split(".")
        if parts[0] == "sdalab" and parts[-1] in tracer_mod.LAYERS:
            yield name, obj


def _expected_steps(cfg: ExperimentConfig, seed: int) -> int:
    """Sum of epochs x steps_per_epoch for one run, from its feedback split."""
    d = runner.make_data(cfg, seed)
    split = runner.make_feedback(cfg, seed)
    batch = cfg.adapt_config().batch
    if cfg.flat["dataset.kind"] == "binary":
        labeled = {i for s in split for i, _ in s.labeled}
        n_steps = adapt.steps_per_epoch(
            sum(len(s.labeled) for s in split), len(d.target_train) - len(labeled), batch
        )
    else:
        n_steps = adapt.steps_per_epoch(len(split.labeled), len(split.unlabeled), batch)
    return cfg.flat["adapt.epochs"] * n_steps


def test_every_binding_is_wrapped_then_restored():
    t = tracer_mod.Tracer()
    before = {name: dict(vars(m)) for name, m in t.modules.items()}
    with t:
        for module in t.modules.values():
            for name, fn in _public_sdalab_functions(module):
                assert hasattr(fn, "__wrapped__"), f"{module.__name__}.{name} is not traced"
        # a name imported with `from ... import` shares the original's wrapper
        assert sweep.run_single is runner.run_single
        assert sweep.run_single.__wrapped__ is before["runner"]["run_single"]
        assert hasattr(ExperimentConfig.config_hash, "__wrapped__")
        assert hasattr(runner.StageCache.get_or, "__wrapped__")
    for name, module in t.modules.items():
        assert dict(vars(module)) == before[name]
    assert not hasattr(ExperimentConfig.config_hash, "__wrapped__")


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    base = ExperimentConfig(SMALL)
    binary = ExperimentConfig(BINARY_RLD)
    cells = sweep.axis_cells("method", base)
    expected_steps = sum(
        _expected_steps(base.with_overrides(ov), seed) for _, ov in cells for seed in base.seeds()
    ) + sum(_expected_steps(binary, seed) for seed in binary.seeds())
    rld_runs = sum(1 for _, ov in cells if ov["rld.enabled"]) * len(base.seeds())
    rld_runs += len(binary.seeds())
    walls = []
    with tracer_mod.Tracer() as t:
        result = sweep.run_sweep(base, "method", runner.StageCache(),
                                 observer=lambda cell, seed, rec: walls.append(rec.wall_clock))
        for seed in binary.seeds():
            walls.append(runner.run_single(binary, seed).wall_clock)
    attempted = len(cells) * len(base.seeds()) + len(binary.seeds())
    assert not result.failures
    spans = tmp_path_factory.mktemp("spans") / "spans.csv.gz"
    written = t.write_spans(spans)
    return {
        "tracer": t, "metrics": t.layer_metrics(walls), "attempted": attempted,
        "expected_steps": expected_steps, "rld_epochs": rld_runs * SMALL["adapt.epochs"],
        "spans": spans, "written": written,
    }


def test_counts_match_the_configs(traced_sweep):
    m = traced_sweep["metrics"]
    assert m["adapt.steps"] == traced_sweep["expected_steps"]
    assert m["bank.build_calls"] == traced_sweep["rld_epochs"]
    assert m["runner.runs"] == traced_sweep["attempted"]
    # each run_single trains one model: steps plus pretraining batches
    assert m["nn.sgd_calls"] > m["adapt.steps"]
    assert m["adapt.loop_calls"] == traced_sweep["attempted"]
    assert 0.0 < m["runner.cache_hit_ratio"] < 1.0


def test_self_times_add_up_to_the_traced_time(traced_sweep):
    t = traced_sweep["tracer"]
    roots = [i for i in range(len(t.span_id)) if t.span_parent[i] == 0]
    covered = sum(t.span_end[i] - t.span_start[i] for i in roots)
    assert sum(t.self_time) == pytest.approx(covered, rel=1e-6)
    assert all(s >= -1e-6 for s in t.self_time)


def test_spans_file_holds_every_span_with_its_run(traced_sweep):
    with gzip.open(traced_sweep["spans"], "rt") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == traced_sweep["written"] == len(traced_sweep["tracer"].span_id)
    by_id = {row["span_id"]: row for row in rows}
    run_roots = [row for row in rows if row["name"] == "runner.run_single"]
    assert len(run_roots) == traced_sweep["attempted"]
    assert len({row["run_id"] for row in run_roots}) == len(run_roots)
    for row in rows:
        if row["parent_id"] != "0":
            parent = by_id[row["parent_id"]]
            assert float(parent["start_s"]) <= float(row["start_s"])
            assert float(row["end_s"]) <= float(parent["end_s"])
            if parent["run_id"] != "0":
                assert row["run_id"] == parent["run_id"]


def test_stream_replay_counts_checkpoints_and_opens_a_run():
    cfg = ExperimentConfig(SMALL)
    with tracer_mod.Tracer() as t:
        outcome = workloads._stream_replay(cfg, 0, runner.StageCache(), "stream", t)
    assert outcome.check() is None
    assert t.layer_metrics([])["stream.checkpoints"] == 4
    assert set(t.span_run) == {1}
    assert t.layer_metrics([])["bank.build_calls"] == 0
