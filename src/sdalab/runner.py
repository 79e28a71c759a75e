"""Single-run pipeline: data -> pretrain -> feedback -> adapt -> record.

Each stage draws its randomness from a seed derived from (stage hash, run
seed), so runs that share a stage configuration share that stage's outputs
exactly. A StageCache exploits this across sweep cells: two cells that differ
only in the adaptation settings reuse the same datasets, pretrained model,
and feedback split.

What a stage does per output head lives in the head's one object, its rule
in adapt.RULES, looked up from the model's or the config's head.
"""

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from . import adapt as adapt_mod
from . import data, nn
from .config import ExperimentConfig, stage_seed


def stable_json(doc) -> str:
    """doc as the byte-stable JSON of every output file: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class DataBundle:
    source_train: data.LabeledSet
    source_test: data.LabeledSet
    target_train: data.LabeledSet
    target_test: data.LabeledSet


@dataclass
class PretrainBundle:
    model: nn.MlpModel
    source_test_acc: float
    target_test_acc: float
    thresholds: list = None  # binary head only
    degenerate_flags: list = None


@dataclass
class RunRecord:
    config_hash: str
    seed: int
    rows: list  # one dict per epoch, run-log schema
    final: dict  # final metrics, stable key order via sorted dump
    flags: dict  # shortage / fallback bookkeeping
    wall_clock: float = 0.0

    def metrics_json(self) -> str:
        """Byte-stable metrics document; wall-clock is deliberately excluded."""
        doc = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "final": self.final,
            "flags": self.flags,
        }
        return stable_json(doc)


class StageCache:
    """Keyed by (stage hash, seed); safe because stages are pure in those."""

    def __init__(self):
        self.datasets = {}
        self.pretrained = {}
        self.feedback = {}

    def get_or(self, store: dict, key, build):
        if key not in store:
            store[key] = build()
        return store[key]


def make_data(cfg: ExperimentConfig, seed: int, cache: StageCache = None) -> DataBundle:
    cache = cache or StageCache()
    key = (cfg.stage_hash("data"), seed)
    return cache.get_or(cache.datasets, key, lambda: _build_data(cfg, seed))


def _build_data(cfg: ExperimentConfig, seed: int) -> DataBundle:
    stage = cfg.stage_hash("data")
    source, target = data.make_pair(cfg.dataset_spec(), stage_seed(stage, seed, "generate"))
    ratio = cfg.flat["split.ratio"]
    src_tr, src_te = data.split_train_test(source, ratio, stage_seed(stage, seed, "split-source"))
    tgt_tr, tgt_te = data.split_train_test(target, ratio, stage_seed(stage, seed, "split-target"))
    return DataBundle(src_tr, src_te, tgt_tr, tgt_te)


def pretrain(cfg: ExperimentConfig, seed: int, cache: StageCache = None) -> PretrainBundle:
    cache = cache or StageCache()
    key = (cfg.stage_hash("pretrain"), seed)
    bundle = cache.get_or(
        cache.pretrained, key, lambda: _build_pretrained(cfg, seed, cache)
    )
    # hand out a copy so downstream training can never corrupt the cache
    return replace(bundle, model=bundle.model.copy())


def _build_pretrained(cfg: ExperimentConfig, seed: int, cache: StageCache) -> PretrainBundle:
    d = make_data(cfg, seed, cache)
    rng = np.random.default_rng(stage_seed(cfg.stage_hash("pretrain"), seed, "train"))
    model = nn.MlpModel.init(cfg.model_dims(), cfg.head(), rng)
    rule = adapt_mod.RULES[model.head]
    adapt_mod.train_supervised(
        model, d.source_train.points, rule.labels_of(d.source_train), cfg.pretrain_sgd(),
        cfg.flat["pretrain.epochs"], cfg.flat["pretrain.batch_size"], rng,
    )
    src_value, tgt_value = rule.score(model, d.source_test), rule.score(model, d.target_test)
    return PretrainBundle(model, src_value, tgt_value, *rule.operating_points(model, d.source_test))


def make_feedback(cfg: ExperimentConfig, seed: int, cache: StageCache = None):
    """TargetSplit (or per-finding list in binary mode) from the frozen model."""
    cache = cache or StageCache()
    key = (cfg.stage_hash("feedback"), seed)
    return cache.get_or(cache.feedback, key, lambda: _build_feedback(cfg, seed, cache))


def _build_feedback(cfg: ExperimentConfig, seed: int, cache: StageCache):
    d = make_data(cfg, seed, cache)
    pre = pretrain(cfg, seed, cache)
    fb_seed = stage_seed(cfg.stage_hash("feedback"), seed, "select")
    rule = adapt_mod.RULES[cfg.head()]
    return rule.feedback(d.target_train, pre.model, pre.thresholds, cfg.feedback_spec(), fb_seed)


def adapt_seed(cfg: ExperimentConfig, seed: int) -> int:
    """The seed of the run's adaptation stage."""
    return stage_seed(cfg.stage_hash("adapt"), seed, "adapt")


def run_single(cfg: ExperimentConfig, seed: int, cache: StageCache = None) -> RunRecord:
    """Full pipeline for one (config, seed); deterministic given both."""
    cache = cache or StageCache()
    t0 = time.perf_counter()
    d = make_data(cfg, seed, cache)
    pre = pretrain(cfg, seed, cache)
    split = make_feedback(cfg, seed, cache)
    _, rows = adapt_mod.adapt(
        pre.model, split, d.target_train, cfg.adapt_config(), adapt_seed(cfg, seed),
        d.target_test, thresholds=pre.thresholds,
    )
    rule = adapt_mod.RULES[cfg.head()]
    final = {
        "source_test_acc": pre.source_test_acc,
        "target_test_acc_source_model": pre.target_test_acc,
        # the loop scores the model on the target test set after each epoch;
        # with no epoch the adapted model is the source model
        "target_test_value_adapted": rows[-1]["test_acc"] if rows else pre.target_test_acc,
        "metric": rule.metric,
    }
    flags = {
        "shortages": rule.shortages(split),
        "bank_fallbacks": int(sum(r["bank"]["fallbacks"] for r in rows)),
    }
    record = RunRecord(cfg.config_hash(), seed, rows, final, flags)
    record.wall_clock = time.perf_counter() - t0
    return record


def write_run_log(path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(stable_json(row) + "\n")
