"""Experiment configuration: flat dotted-key text files, overrides, hashing.

Config files are line-oriented: `dotted.key = value` with `#` comments.
Values are parsed as JSON where possible (numbers, booleans, lists), else
taken as bare strings. The same syntax drives `--set key=value` overrides.
The full schema with defaults lives in DEFAULTS below and in the README.
"""

import hashlib
import json
from dataclasses import dataclass, field

from . import adapt as adapt_mod
from . import bank as bank_mod
from . import data, feedback, nn
from .errors import ConfigError

# Every recognized key with its default. Dataset geometry and shifts are
# frozen here once calibrated; runtime knobs (epochs, rates, counts) are the
# intended override surface.
DEFAULTS = {
    "dataset.kind": "blobs",  # blobs | moons | binary
    "dataset.num_findings": 4,  # binary mode only
    "split.ratio": 0.8,
    # model.hidden, adapt.momentum/weight_decay, and rld.strategy are jointly
    # calibrated: narrower nets miss the moons fit, wider ones (or momentum
    # 0.9) produce distortion the defending anchors cannot pull back.
    "model.hidden": [10, 10],
    "pretrain.epochs": 60,
    "pretrain.learning_rate": 0.05,
    "pretrain.momentum": 0.9,
    "pretrain.batch_size": 64,
    "feedback.policy": "nbf",  # rf | nbf | pbf | mixed | entropy | nbf_ce
    "feedback.per_class_count": 3,
    "feedback.pf_count": 0,  # mixed policy: correct-feedback per class
    "feedback.nf_count": 0,  # mixed policy: error-feedback per class
    "feedback.fp_count": 40,  # binary mode: false-positive feedback total
    "feedback.fn_count": 40,  # binary mode: false-negative feedback total
    # fill_from_correct: the frozen blob geometry leaves one class nearly
    # error-free on many seeds, so pure-error selection cannot always fill
    # its quota; shortfalls are padded from correctly classified samples.
    "feedback.fallback": "fill_from_correct",
    "adapt.algorithm": "pseudo_label",  # pseudo_label | fixmatch_lite
    "adapt.confidence_threshold": 0.95,
    "adapt.epochs": 30,
    "adapt.learning_rate": 0.01,
    "adapt.momentum": 0.82,
    "adapt.weight_decay": 0.015,
    "adapt.batch_b": 16,
    "adapt.batch_mu": 7,
    "adapt.k": 0,  # defending samples per labeled datum; > 0 needs rld.enabled
    "rld.enabled": False,
    "rld.p": 0.4,
    "rld.strategy": "cosine_distant",
    "rld.kmeans_clusters": 0,  # 0 -> default (equals k)
    "rld.fallback": "duplicate_labeled",  # duplicate_labeled | skip_with_flag
    "augment.weak_frac": 0.03,
    "augment.strong_frac": 0.15,
    "augment.scale_lo": 0.9,
    "augment.scale_hi": 1.1,
    "run.seeds": [0],
    "output.dir": "runs",
}

# Keys that do not change what a run computes; excluded from every hash.
NON_SEMANTIC_KEYS = ("run.seeds", "output.dir")

_STAGE_PREFIXES = {
    "data": ("dataset.", "split."),
    "pretrain": ("dataset.", "split.", "model.", "pretrain."),
    "feedback": ("dataset.", "split.", "model.", "pretrain.", "feedback."),
}


def parse_value(text: str):
    text = text.strip()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a flat dict; `#` starts a comment."""
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        flat[key] = parse_value(value)
    return flat


def apply_overrides(flat: dict, overrides) -> dict:
    """Apply `key=value` strings on top of a flat dict (last one wins)."""
    merged = dict(flat)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = parse_value(value)
    return merged


def _coerce(key: str, value, default):
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key} expects true/false, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{key} expects an integer, got {value!r}")
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"{key} expects a number, got {value!r}")
    if isinstance(default, list):
        if isinstance(value, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            return list(value)
        if isinstance(value, int) and not isinstance(value, bool):
            # shorthand: run.seeds = 10 means seeds 0..9
            return list(range(value))
        raise ConfigError(f"{key} expects a list of integers, got {value!r}")
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} expects a string, got {value!r}")


@dataclass
class ExperimentConfig:
    """Validated flat config plus typed views onto the domain objects."""

    flat: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted(set(self.flat) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged = dict(DEFAULTS)
        for key, value in self.flat.items():
            merged[key] = _coerce(key, value, DEFAULTS[key])
        self.flat = merged
        self._validate()

    def _validate(self):
        kind = self.flat["dataset.kind"]
        if kind not in ("blobs", "moons", "binary"):
            raise ConfigError(f"unknown dataset.kind {kind!r}")
        if self.flat["adapt.k"] > 0 and not self.flat["rld.enabled"]:
            raise ConfigError("adapt.k > 0 requires rld.enabled = true")
        if (
            kind == "binary"
            and self.flat["rld.enabled"]
            and self.flat["adapt.k"] > 0
            and self.flat["rld.strategy"] != bank_mod.CLASS_AWARE_RANDOM
        ):
            raise ConfigError(
                f"binary mode supports class_aware_random retrieval only, got "
                f"rld.strategy={self.flat['rld.strategy']}; use --set "
                f"rld.strategy={bank_mod.CLASS_AWARE_RANDOM}"
            )
        if not self.flat["run.seeds"]:
            raise ConfigError("run.seeds must not be empty")
        # Constructing the typed views exercises every domain-level invariant.
        self.dataset_spec()
        self.feedback_spec()
        self.adapt_config()
        self.pretrain_sgd()

    # -- typed views ------------------------------------------------------

    def dataset_spec(self):
        kind = self.flat["dataset.kind"]
        if kind == "blobs":
            return data.BlobsSpec()
        if kind == "moons":
            return data.MoonsSpec()
        return data.BinarySpec(num_findings=self.flat["dataset.num_findings"])

    def num_classes(self) -> int:
        kind = self.flat["dataset.kind"]
        if kind == "blobs":
            return data.BlobsSpec().num_classes
        if kind == "moons":
            return 2
        return self.flat["dataset.num_findings"]  # sigmoid outputs

    def head(self) -> str:
        return nn.SIGMOID if self.flat["dataset.kind"] == "binary" else nn.SOFTMAX

    def model_dims(self) -> list:
        return [2] + list(self.flat["model.hidden"]) + [self.num_classes()]

    def pretrain_sgd(self) -> nn.SgdConfig:
        return nn.SgdConfig(
            self.flat["pretrain.learning_rate"], momentum=self.flat["pretrain.momentum"]
        )

    def feedback_spec(self) -> feedback.FeedbackSpec:
        policy = self.flat["feedback.policy"]
        mixed = None
        if policy == feedback.MIXED:
            mixed = (self.flat["feedback.pf_count"], self.flat["feedback.nf_count"])
        return feedback.FeedbackSpec(
            policy=policy,
            per_class_count=self.flat["feedback.per_class_count"],
            mixed_counts=mixed,
            binary_mode_counts=(self.flat["feedback.fp_count"], self.flat["feedback.fn_count"]),
            fallback_on_shortage=self.flat["feedback.fallback"],
        )

    def rld_config(self):
        if not self.flat["rld.enabled"]:
            return None
        clusters = self.flat["rld.kmeans_clusters"]
        return bank_mod.RldConfig(
            p=self.flat["rld.p"],
            k=max(self.flat["adapt.k"], 1),
            strategy=self.flat["rld.strategy"],
            kmeans_clusters=clusters if clusters > 0 else None,
            empty_class_fallback=self.flat["rld.fallback"],
        )

    def adapt_config(self, augment=None) -> adapt_mod.AdaptConfig:
        # Noise stds scale with the data (fractions of RMS radius), so the
        # augmenter spec is supplied by the runner once points exist.
        return adapt_mod.AdaptConfig(
            algorithm=self.flat["adapt.algorithm"],
            confidence_threshold=self.flat["adapt.confidence_threshold"],
            epochs=self.flat["adapt.epochs"],
            sgd=nn.SgdConfig(
                self.flat["adapt.learning_rate"],
                momentum=self.flat["adapt.momentum"],
                weight_decay=self.flat["adapt.weight_decay"],
            ),
            batch=adapt_mod.BatchSpec(
                b=self.flat["adapt.batch_b"],
                mu=self.flat["adapt.batch_mu"],
                k=self.flat["adapt.k"],
            ),
            rld=self.rld_config(),
            augment=augment,
        )

    def augment_fracs(self) -> tuple:
        return (
            self.flat["augment.weak_frac"],
            self.flat["augment.strong_frac"],
            (self.flat["augment.scale_lo"], self.flat["augment.scale_hi"]),
        )

    def seeds(self) -> list:
        return list(self.flat["run.seeds"])

    def output_dir(self) -> str:
        return self.flat["output.dir"]

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        merged = dict(self.flat)
        merged.update(overrides)
        return ExperimentConfig(merged)

    # -- hashing and per-stage seed derivation ----------------------------

    def _semantic_items(self, prefixes=None) -> dict:
        out = {}
        for key, value in self.flat.items():
            if key in NON_SEMANTIC_KEYS:
                continue
            if prefixes is not None and not key.startswith(prefixes):
                continue
            out[key] = value
        return out

    def config_hash(self) -> str:
        return _hash_dict(self._semantic_items())

    def stage_hash(self, stage: str) -> str:
        if stage == "adapt":
            return self.config_hash()
        if stage not in _STAGE_PREFIXES:
            raise ConfigError(f"unknown stage {stage!r}")
        return _hash_dict(self._semantic_items(_STAGE_PREFIXES[stage]))


def _hash_dict(items: dict) -> str:
    canon = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def stage_seed(stage_hash: str, seed: int, tag: str = "") -> int:
    """Independent 64-bit substream seed for one pipeline stage of one run."""
    digest = hashlib.sha256(f"{stage_hash}:{tag}:{seed}".encode()).hexdigest()
    return int(digest[:16], 16)


def load_config(path=None, overrides=None) -> ExperimentConfig:
    flat = {}
    if path is not None:
        with open(path) as fh:
            flat = parse_config_text(fh.read())
    flat = apply_overrides(flat, overrides)
    return ExperimentConfig(flat)
