"""The benchmark's workloads: the library calls behind `sdalab sweep`,
`sdalab adapt` and `sdalab stream`, made in-process on inputs drawn from the
workload seed.

Building a workload (`build`) makes its configs; that is part of set-up.
`Workload.run` makes the calls with a fresh StageCache, as a CLI user starts
with one, and returns one Outcome per adaptation run: a sweep cell x seed, a
`run_single` or a stream replay. The sdalab modules are looked up by module
attribute at call time, so a Tracer installed before `run` sees every call.

Each run is timed on its own, and a fixed reference loop is timed after
every run (and, by child.py, before the first): how long it takes says how
fast the machine is at that moment, which on a shared host swings by a factor of two within
minutes (see run.py and README.md).
"""

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from sdalab import runner, stream, sweep
from sdalab.config import ExperimentConfig, stage_seed
from sdalab.errors import SdalabError

WORKLOADS = ("method", "strategy", "engines")

# Run seeds per workload seed, sized so that one repetition takes 6 to 14 s
# on a 2-core machine. method: 1 seed x 2 datasets x 4 cells; strategy:
# 1 seed x 4 strategies plus one binary run; engines: 10 seeds x 4 runs, as
# its accuracies vary most from seed to seed (fixmatch_lite, the stream).
SEEDS_PER_WORKLOAD = {"method": 1, "strategy": 1, "engines": 10}

# The stream replay's memory holds fewer samples than the unlabelled pool
# (about 950 on blobs), so the cap binds and evicts; 300 is above one
# unlabelled batch (mu * B = 112), the smallest cap run_stream accepts.
STREAM_CAP = 300

JSON_SEPARATORS = (",", ":")

# The reference loop: small matrix products, tanh, argmax and a keyed Python
# sort, the mix an sdalab run spends its time on, in 20-50 ms. It touches no
# sdalab code, so no change to sdalab changes its work.
_REF_X = np.random.default_rng(0).random((64, 2))
_REF_W1 = np.random.default_rng(1).random((2, 10))
_REF_W2 = np.random.default_rng(2).random((10, 10))


def reference_loop() -> float:
    """Seconds a fixed amount of reference work takes now."""
    t0 = time.perf_counter()
    for _ in range(2000):
        h = np.tanh(np.tanh(_REF_X @ _REF_W1) @ _REF_W2)
        sorted(h.argmax(axis=1)[:16].tolist(), key=lambda v: -v)
    return time.perf_counter() - t0


def _speed_sample(tracer) -> float:
    """reference_loop() in an untraced run. A traced run skips it: nothing
    corrects traced times, and the loop would count as its caller's self time."""
    return reference_loop() if tracer is None else 0.0


@dataclass
class Outcome:
    """One adaptation run as the output check sees it."""

    label: str
    digest: Optional[str] = None  # sha256 of the run's byte-stable output
    value: float = math.nan  # adapted target metric: test_acc or mean_auroc
    wall: Optional[float] = None  # RunRecord.wall_clock, when there is a record
    error: Optional[str] = None
    seconds: float = 0.0  # the run's wall time, stage set-up on a cache miss included
    reference_s: float = 0.0  # reference_loop() right after the run

    def check(self) -> Optional[str]:
        """Why the run does not count as correct, or None when it does."""
        if self.error is not None:
            return self.error
        if not (math.isfinite(self.value) and 0.0 <= self.value <= 1.0):
            return f"adapted value {self.value!r} is not finite in [0, 1]"
        return None


@dataclass
class Workload:
    run_seeds: list
    attempted: int
    run: Callable  # run(tracer or None) -> list of Outcome


def run_seeds(workload: str, seed: int, count: int) -> list:
    """Distinct sdalab run seeds, the same for the same (workload, seed)."""
    return random.Random(f"{workload}/{seed}").sample(range(1_000_000), count)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record_outcome(label: str, record: runner.RunRecord) -> Outcome:
    return Outcome(
        label,
        digest=_digest(record.metrics_json()),
        value=record.final["target_test_value_adapted"],
        wall=record.wall_clock,
    )


def _sweep(base: ExperimentConfig, axis: str, label: str, tracer) -> list:
    outcomes = []
    mark = [time.perf_counter()]

    def observe(cell, seed, record):
        # the sweep calls this right after each run: the time since the last
        # call, less the reference loop, is the run's, sweep bookkeeping included
        outcome = _record_outcome(f"{label}/{cell}/seed{seed}", record)
        outcome.seconds = time.perf_counter() - mark[0]
        outcome.reference_s = _speed_sample(tracer)
        outcomes.append(outcome)
        mark[0] = time.perf_counter()

    result = sweep.run_sweep(base, axis, runner.StageCache(), observer=observe)
    for failure in result.failures:
        # a cell whose config fails loses every seed of the sweep
        seeds = base.seeds() if failure["seed"] is None else [failure["seed"]]
        for seed in seeds:
            outcomes.append(
                Outcome(f"{label}/{failure['cell']}/seed{seed}", error=failure["error"])
            )
    return outcomes


def _single(cfg: ExperimentConfig, seed: int, cache: runner.StageCache, label: str,
            tracer) -> Outcome:
    """What `sdalab adapt` computes, without the files."""
    label = f"{label}/seed{seed}"
    t0 = time.perf_counter()
    try:
        outcome = _record_outcome(label, runner.run_single(cfg, seed, cache))
    except SdalabError as exc:
        outcome = Outcome(label, error=f"{type(exc).__name__}: {exc}")
    outcome.seconds = time.perf_counter() - t0
    outcome.reference_s = _speed_sample(tracer)
    return outcome


def _stream_replay(cfg, seed, cache, label, tracer) -> Outcome:
    """What `sdalab stream --cap STREAM_CAP` computes, without the file."""
    label = f"{label}/seed{seed}"
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.open_run()
    try:
        d = runner.make_data(cfg, seed, cache)
        pre = runner.pretrain(cfg, seed, cache)
        split = runner.make_feedback(cfg, seed, cache)
        records, _ = stream.run_stream(
            pre.model, d.target_train, split,
            stream.StreamConfig(memory_cap=STREAM_CAP), cfg.adapt_config(),
            stage_seed(cfg.stage_hash("adapt"), seed, "adapt"), test_set=d.target_test,
        )
        doc = json.dumps(records, sort_keys=True, separators=JSON_SEPARATORS)
        outcome = Outcome(label, digest=_digest(doc), value=records[-1]["test_acc"])
        for rec in records:
            if not (math.isfinite(rec["test_acc"]) and 0.0 <= rec["test_acc"] <= 1.0):
                outcome.error = f"checkpoint {rec['fraction']} test_acc {rec['test_acc']!r}"
    except SdalabError as exc:
        outcome = Outcome(label, error=f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.close_run()
    outcome.seconds = time.perf_counter() - t0
    outcome.reference_s = _speed_sample(tracer)
    return outcome


def _method(seeds):
    bases = [
        ExperimentConfig({"dataset.kind": kind, "run.seeds": seeds})
        for kind in ("blobs", "moons")
    ]

    def run(tracer):
        outcomes = []
        for base in bases:
            outcomes += _sweep(base, "method", f"method/{base.flat['dataset.kind']}", tracer)
        return outcomes

    return run, 2 * 4 * len(seeds)


def _strategy(seeds):
    base = ExperimentConfig({"run.seeds": seeds})
    binary = ExperimentConfig({
        "dataset.kind": "binary", "rld.enabled": True, "adapt.k": 3,
        "rld.strategy": "class_aware_random",
    })

    def run(tracer):
        outcomes = _sweep(base, "strategy", "strategy/blobs", tracer)
        cache = runner.StageCache()
        for seed in seeds:
            outcomes.append(_single(binary, seed, cache, "strategy/binary/rld", tracer))
        return outcomes

    return run, 5 * len(seeds)


def _engines(seeds):
    pseudo_label = ExperimentConfig({})
    fixmatch = ExperimentConfig({"adapt.algorithm": "fixmatch_lite"})
    binary = ExperimentConfig({"dataset.kind": "binary"})

    def run(tracer):
        outcomes = []
        cache = runner.StageCache()
        for seed in seeds:
            for cfg, label in ((pseudo_label, "pseudo_label"), (fixmatch, "fixmatch_lite"),
                               (binary, "binary")):
                outcomes.append(_single(cfg, seed, cache, f"engines/{label}", tracer))
            outcomes.append(_stream_replay(pseudo_label, seed, cache, "engines/stream", tracer))
        return outcomes

    return run, 4 * len(seeds)


_FACTORIES = {"method": _method, "strategy": _strategy, "engines": _engines}


def build(name: str, seed: int) -> Workload:
    seeds = run_seeds(name, seed, SEEDS_PER_WORKLOAD[name])
    run, attempted = _FACTORIES[name](seeds)
    return Workload(seeds, attempted, run)


def timed_run(workload: Workload, tracer=None) -> tuple:
    """(outcomes, wall seconds, CPU seconds) of one repetition."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    outcomes = workload.run(tracer)
    return outcomes, time.perf_counter() - t0, time.process_time() - cpu0
