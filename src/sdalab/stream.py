"""Streaming adaptation: bounded FIFO memory of recent unlabeled samples.

The target training set arrives as a single shuffled stream. Labeled
feedback items accumulate in an unbounded store at their natural stream
positions; unlabeled items enter a FIFO memory capped at `memory_cap`.
At each checkpoint fraction the model restarts from the pretrained weights
and adapts on the current memory contents plus all feedback seen so far,
so the final checkpoint with a non-binding cap reproduces the offline run.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import adapt as adapt_mod
from . import nn
from .data import LabeledSet
from .errors import ConfigError
from .feedback import TargetSplit

DEFAULT_CHECKPOINTS = (0.1, 0.4, 0.7, 1.0)


@dataclass
class StreamConfig:
    memory_cap: int
    checkpoints: tuple = DEFAULT_CHECKPOINTS

    def __post_init__(self):
        if self.memory_cap < 1:
            raise ConfigError(f"memory_cap must be >= 1, got {self.memory_cap}")
        self.checkpoints = tuple(float(f) for f in self.checkpoints)
        if not self.checkpoints:
            raise ConfigError("need at least one checkpoint fraction")
        last = 0.0
        for f in self.checkpoints:
            if not last < f <= 1.0:
                raise ConfigError(
                    f"checkpoint fractions must be strictly increasing in (0,1], got {self.checkpoints}"
                )
            last = f


def check_memory_fits(stream_cfg: StreamConfig, adapt_cfg: adapt_mod.AdaptConfig) -> None:
    """Reject a memory too small to hold one unlabelled batch."""
    if adapt_cfg.batch.mu > 0 and stream_cfg.memory_cap < adapt_cfg.batch.mu * adapt_cfg.batch.b:
        raise ConfigError(
            f"memory_cap {stream_cfg.memory_cap} is smaller than one unlabeled "
            f"batch ({adapt_cfg.batch.mu}*{adapt_cfg.batch.b})"
        )


def checkpoint_positions(stream_cfg: StreamConfig, n: int) -> dict:
    """{stream position: fraction} of each checkpoint on a stream of n
    items; rejects fractions that land on one position."""
    triggers = {int(math.ceil(f * n)): f for f in stream_cfg.checkpoints}
    if len(triggers) < len(stream_cfg.checkpoints):
        raise ConfigError(
            f"checkpoint fractions collide at stream length {n}: {stream_cfg.checkpoints}"
        )
    return triggers


def run_stream(
    model: nn.MlpModel,
    train: LabeledSet,
    split: TargetSplit,
    stream_cfg: StreamConfig,
    adapt_cfg: adapt_mod.AdaptConfig,
    seed: int,
    test_set: LabeledSet = None,
) -> tuple:
    """Stream the target training set; adapt at each checkpoint.

    Returns (checkpoint record list, model from the last checkpoint).
    """
    check_memory_fits(stream_cfg, adapt_cfg)
    n = len(train)
    label_of = dict(split.labeled)
    order = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(n)
    triggers = checkpoint_positions(stream_cfg, n)

    memory = deque(maxlen=stream_cfg.memory_cap)  # FIFO: a full deque drops its oldest
    labeled_store = []
    records = []
    last_model = model.copy()
    for pos, idx in enumerate(order, start=1):
        idx = int(idx)
        if idx in label_of:
            labeled_store.append((idx, label_of[idx]))
        else:
            memory.append(idx)
        if pos not in triggers:
            continue
        record = {
            "fraction": triggers[pos],
            "items_seen": pos,
            "occupancy": len(memory),
            "labeled_count": len(labeled_store),
        }
        record["skipped"] = not labeled_store
        if labeled_store:
            ckpt_split = TargetSplit(list(labeled_store), list(memory))
            last_model, rows = adapt_mod.adapt(model, ckpt_split, train, adapt_cfg, seed)
            record["fallbacks"] = int(sum(r["bank"]["fallbacks"] for r in rows))
        # with no feedback streamed in yet, the untouched model is evaluated
        if test_set is not None:
            record["test_acc"] = adapt_mod.SOFTMAX_RULE.score(last_model, test_set)
        records.append(record)
    return records, last_model
