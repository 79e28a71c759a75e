"""Single-run pipeline: data -> pretrain -> feedback -> adapt -> record.

Each stage draws its randomness from a seed derived from (stage hash, run
seed), so runs that share a stage configuration share that stage's outputs
exactly. A StageCache exploits this across sweep cells: two cells that differ
only in the adaptation settings reuse the same datasets, pretrained model,
and feedback split.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from . import adapt as adapt_mod
from . import data, feedback, metrics, nn
from .config import ExperimentConfig, stage_seed

JSON_SEPARATORS = (",", ":")


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
        return json.dumps(doc, sort_keys=True, separators=JSON_SEPARATORS)


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
    spec = cfg.dataset_spec()
    kind = cfg.flat["dataset.kind"]
    data_seed = stage_seed(cfg.stage_hash("data"), seed, "generate")
    if kind == "blobs":
        source, target = data.make_blobs_pair(spec, data_seed)
    elif kind == "moons":
        source, target = data.make_moons_pair(spec, data_seed)
    else:
        source, target = data.make_binary_pair(spec, data_seed)
    ratio = cfg.flat["split.ratio"]
    src_tr, src_te = data.split_train_test(
        source, ratio, stage_seed(cfg.stage_hash("data"), seed, "split-source")
    )
    tgt_tr, tgt_te = data.split_train_test(
        target, ratio, stage_seed(cfg.stage_hash("data"), seed, "split-target")
    )
    return DataBundle(src_tr, src_te, tgt_tr, tgt_te)


def mean_auroc(model: nn.MlpModel, dataset: data.LabeledSet) -> float:
    """Average AUROC across findings; the binary-mode headline metric."""
    probs = nn.forward(model, dataset.points).probs
    scores = [
        metrics.auroc(probs[:, j], dataset.findings[:, j])
        for j in range(dataset.findings.shape[1])
    ]
    return float(np.mean(scores))


def pretrain(cfg: ExperimentConfig, seed: int, cache: StageCache = None) -> PretrainBundle:
    cache = cache or StageCache()
    key = (cfg.stage_hash("pretrain"), seed)
    bundle = cache.get_or(
        cache.pretrained, key, lambda: _build_pretrained(cfg, seed, cache)
    )
    # hand out a copy so downstream training can never corrupt the cache
    return PretrainBundle(
        bundle.model.copy(),
        bundle.source_test_acc,
        bundle.target_test_acc,
        bundle.thresholds,
        bundle.degenerate_flags,
    )


def _build_pretrained(cfg: ExperimentConfig, seed: int, cache: StageCache) -> PretrainBundle:
    d = make_data(cfg, seed, cache)
    rng = np.random.default_rng(stage_seed(cfg.stage_hash("pretrain"), seed, "train"))
    model = nn.MlpModel.init(cfg.model_dims(), cfg.head(), rng)
    if cfg.head() == nn.SIGMOID:
        labels = d.source_train.findings
    else:
        labels = d.source_train.labels
    adapt_mod.train_supervised(
        model,
        d.source_train.points,
        labels,
        cfg.pretrain_sgd(),
        cfg.flat["pretrain.epochs"],
        cfg.flat["pretrain.batch_size"],
        rng,
    )
    if cfg.head() == nn.SIGMOID:
        # operating points chosen on held-out source data, then frozen
        thresholds, flags = metrics.source_thresholds(
            model, d.source_test.points, d.source_test.findings
        )
        return PretrainBundle(
            model,
            mean_auroc(model, d.source_test),
            mean_auroc(model, d.target_test),
            list(thresholds),
            list(flags),
        )
    src_acc = metrics.top1_accuracy(model, d.source_test.points, d.source_test.labels)
    tgt_acc = metrics.top1_accuracy(model, d.target_test.points, d.target_test.labels)
    return PretrainBundle(model, src_acc, tgt_acc)


def make_feedback(cfg: ExperimentConfig, seed: int, cache: StageCache = None):
    """TargetSplit (or per-finding list in binary mode) from the frozen model."""
    cache = cache or StageCache()
    key = (cfg.stage_hash("feedback"), seed)
    return cache.get_or(cache.feedback, key, lambda: _build_feedback(cfg, seed, cache))


def _build_feedback(cfg: ExperimentConfig, seed: int, cache: StageCache):
    d = make_data(cfg, seed, cache)
    pre = pretrain(cfg, seed, cache)
    fb_seed = stage_seed(cfg.stage_hash("feedback"), seed, "select")
    if cfg.head() == nn.SIGMOID:
        return feedback.simulate_feedback_binary(
            d.target_train, pre.model, cfg.feedback_spec(), pre.thresholds, fb_seed
        )
    return feedback.simulate_feedback(d.target_train, pre.model, cfg.feedback_spec(), fb_seed)


def build_adapt_config(cfg: ExperimentConfig, d: DataBundle) -> adapt_mod.AdaptConfig:
    """The run's AdaptConfig; fixmatch_lite's augmenter scales with the target
    training points, so it can only be built once the data exist."""
    augment = None
    if cfg.flat["adapt.algorithm"] == adapt_mod.FIXMATCH_LITE:
        weak, strong, scale = cfg.augment_fracs()
        augment = adapt_mod.AugmenterSpec.from_points(
            d.target_train.points, weak_frac=weak, strong_frac=strong, scale=scale
        )
    return cfg.adapt_config(augment=augment)


def run_single(cfg: ExperimentConfig, seed: int, cache: StageCache = None) -> RunRecord:
    """Full pipeline for one (config, seed); deterministic given both."""
    cache = cache or StageCache()
    t0 = time.perf_counter()
    d = make_data(cfg, seed, cache)
    pre = pretrain(cfg, seed, cache)
    split = make_feedback(cfg, seed, cache)
    adapt_seed = stage_seed(cfg.stage_hash("adapt"), seed, "adapt")
    acfg = build_adapt_config(cfg, d)

    if cfg.head() == nn.SIGMOID:
        test_eval = lambda m: mean_auroc(m, d.target_test)
        adapted, rows = adapt_mod.adapt_binary(
            pre.model, split, d.target_train, pre.thresholds, acfg, adapt_seed,
            test_eval=test_eval,
        )
        final_metric = {"metric": "mean_auroc", "test_value": test_eval(adapted)}
        shortages = {}
        for j, s in enumerate(split):
            for key, missing in s.provenance.get("shortage", {}).items():
                shortages[f"finding{j}:{key}"] = missing
    else:
        adapted, rows = adapt_mod.adapt(
            pre.model, split, d.target_train, acfg, adapt_seed, test_set=d.target_test
        )
        final_metric = {
            "metric": "test_acc",
            "test_value": metrics.top1_accuracy(
                adapted, d.target_test.points, d.target_test.labels
            ),
        }
        shortages = dict(split.provenance.get("shortage", {}))

    final = {
        "source_test_acc": pre.source_test_acc,
        "target_test_acc_source_model": pre.target_test_acc,
        "target_test_value_adapted": final_metric["test_value"],
        "metric": final_metric["metric"],
    }
    flags = {
        "shortages": shortages,
        "bank_fallbacks": int(sum(r["bank"]["fallbacks"] for r in rows)),
    }
    record = RunRecord(cfg.config_hash(), seed, rows, final, flags)
    record.wall_clock = time.perf_counter() - t0
    return record


def write_run_log(path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=JSON_SEPARATORS) + "\n")
