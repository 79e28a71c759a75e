"""Feedback simulation: carve the labeled pool X_lb out of the target train set.

Policies model who gets to annotate what. Negatively biased feedback (NBF)
labels only samples the source model got wrong; positively biased feedback
(PBF) only samples it got right; RF labels uniformly at random. Mixed blends
the two pools at fixed per-class counts, Entropy takes the most uncertain
samples, and the confident-error variant (NBF-CE) takes the errors the model
is most sure about. The binary mode hands out per-finding feedback from the
false-positive and false-negative pools.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import nn
from .data import LabeledSet
from .errors import ConfigError, ShortageError

RF = "rf"
NBF = "nbf"
PBF = "pbf"
MIXED = "mixed"
ENTROPY = "entropy"
NBF_CE = "nbf_ce"
POLICIES = (RF, NBF, PBF, MIXED, ENTROPY, NBF_CE)

FALLBACK_ERROR = "error"
FALLBACK_FILL = "fill_from_correct"


@dataclass
class FeedbackSpec:
    policy: str = NBF
    per_class_count: int = 3
    mixed_counts: Optional[tuple] = None
    binary_mode_counts: Optional[tuple] = None
    fallback_on_shortage: str = FALLBACK_ERROR

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown feedback policy {self.policy!r}")
        if self.policy == MIXED:
            if self.mixed_counts is None:
                raise ConfigError("mixed policy needs (pf_per_class, nf_per_class)")
            pf, nf = self.mixed_counts
            if pf < 0 or nf < 0 or pf + nf < 1:
                raise ConfigError(f"bad mixed counts {self.mixed_counts}")
        elif self.per_class_count < 1:
            raise ConfigError(f"per_class_count must be >= 1, got {self.per_class_count}")
        if self.binary_mode_counts is not None:
            fp, fn = self.binary_mode_counts
            if fp < 0 or fn < 0 or fp + fn < 1:
                raise ConfigError(
                    f"bad binary feedback counts (fp, fn) = {self.binary_mode_counts}: "
                    "each must be >= 0 and their sum >= 1"
                )
        if self.fallback_on_shortage not in (FALLBACK_ERROR, FALLBACK_FILL):
            raise ConfigError(f"unknown shortage fallback {self.fallback_on_shortage!r}")


@dataclass
class TargetSplit:
    """Partition of the target training indices into labeled and unlabeled.
    A binary-mode split holds one finding's labelled cells and no unlabeled
    list: the adaptation pools every sample with no cell in any finding."""

    labeled: list  # [(index, ground-truth label), ...]
    unlabeled: list  # [index, ...]
    provenance: dict = field(default_factory=dict)  # {"shortage": {class or pool: missing}}

    def __post_init__(self):
        overlap = set(i for i, _ in self.labeled) & set(self.unlabeled)
        if overlap:
            raise ConfigError(f"labeled/unlabeled overlap at indices {sorted(overlap)[:5]}")

    def labeled_indices(self) -> np.ndarray:
        return np.array([i for i, _ in self.labeled], dtype=np.int64)

    def labeled_labels(self) -> np.ndarray:
        return np.array([y for _, y in self.labeled], dtype=np.int64)


def prediction_entropy(probs: np.ndarray) -> np.ndarray:
    p = np.maximum(probs, nn.PROB_EPS)
    return -np.sum(probs * np.log(p), axis=1)


def _draw(pool: np.ndarray, m: int, rng: np.random.Generator) -> list:
    """m distinct indices from pool, uniform, deterministic given rng state."""
    chosen = rng.choice(len(pool), size=m, replace=False)
    return sorted(int(pool[j]) for j in chosen)


def _top(pool: np.ndarray, score: np.ndarray, m: int) -> list:
    """The m indices of pool with the highest score, ties by ascending
    index, in ascending order."""
    order = np.lexsort((pool, -score))
    return sorted(int(i) for i in pool[order[:m]])


def _take_with_fallback(primary, secondary, m, cls, fallback, rng, shortage):
    """Fill m picks from primary, spilling into secondary when allowed."""
    if len(primary) >= m:
        return _draw(primary, m, rng)
    if fallback == FALLBACK_ERROR:
        raise ShortageError(
            f"class {cls}: requested {m} eligible samples, only {len(primary)} available"
        )
    missing = m - len(primary)
    if len(secondary) < missing:
        raise ShortageError(
            f"class {cls}: shortage of {missing} cannot be filled "
            f"(complementary pool has {len(secondary)})"
        )
    shortage[str(cls)] = missing
    picks = sorted(int(i) for i in primary)
    picks += _draw(secondary, missing, rng)
    return sorted(picks)


def simulate_feedback(
    train: LabeledSet, source_model: nn.MlpModel, spec: FeedbackSpec, seed
) -> TargetSplit:
    """Select the labeled pool per the policy; everything else stays unlabeled."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    probs = nn.forward(source_model, train.points).probs
    preds = nn.argmax_rows(probs)
    conf = probs[np.arange(len(train)), preds]
    correct = preds == train.labels
    shortage: dict = {}
    labeled = []
    for cls in range(train.num_classes):
        members = np.flatnonzero(train.labels == cls)
        wrong_pool = members[~correct[members]]
        right_pool = members[correct[members]]
        if spec.policy in (RF, ENTROPY) and len(members) < spec.per_class_count:
            raise ShortageError(
                f"class {cls}: only {len(members)} samples for "
                f"{spec.per_class_count} requested"
            )
        if spec.policy == RF:
            picks = _draw(members, spec.per_class_count, rng)
        elif spec.policy == NBF_CE and len(wrong_pool) >= spec.per_class_count:
            # the most confident errors; a class with too few errors falls
            # back as NBF does
            picks = _top(wrong_pool, conf[wrong_pool], spec.per_class_count)
        elif spec.policy in (NBF, NBF_CE):
            picks = _take_with_fallback(
                wrong_pool, right_pool, spec.per_class_count, cls,
                spec.fallback_on_shortage, rng, shortage,
            )
        elif spec.policy == PBF:
            picks = _take_with_fallback(
                right_pool, wrong_pool, spec.per_class_count, cls,
                spec.fallback_on_shortage, rng, shortage,
            )
        elif spec.policy == MIXED:
            pf, nf = spec.mixed_counts
            picks = _take_with_fallback(
                right_pool, wrong_pool, pf, f"{cls}:pf",
                spec.fallback_on_shortage, rng, shortage,
            ) if pf else []
            remaining_wrong = np.setdiff1d(wrong_pool, picks)
            remaining_right = np.setdiff1d(right_pool, picks)
            if nf:
                picks = picks + _take_with_fallback(
                    remaining_wrong, remaining_right, nf, f"{cls}:nf",
                    spec.fallback_on_shortage, rng, shortage,
                )
        elif spec.policy == ENTROPY:
            picks = _top(members, prediction_entropy(probs[members]), spec.per_class_count)
        else:
            raise ConfigError(f"unhandled policy {spec.policy}")
        labeled.extend((int(i), int(cls)) for i in picks)
    labeled.sort()
    labeled_set = set(i for i, _ in labeled)
    unlabeled = [int(i) for i in range(len(train)) if i not in labeled_set]
    return TargetSplit(labeled, unlabeled, provenance={"shortage": shortage})


def simulate_feedback_binary(
    train: LabeledSet,
    source_model: nn.MlpModel,
    spec: FeedbackSpec,
    thresholds,
    seed,
) -> list:
    """Per-finding splits drawn from the false-positive and false-negative pools.

    Returns one TargetSplit per finding, its labelled cells only; a sample
    can carry feedback for one finding and none for another.
    """
    if spec.binary_mode_counts is None:
        raise ConfigError("binary mode requires binary_mode_counts = (fp, fn)")
    if train.findings is None:
        raise ConfigError("binary feedback needs a dataset with findings")
    fp_count, fn_count = spec.binary_mode_counts
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    preds = nn.predict(source_model, train.points, thresholds=thresholds)
    splits = []
    for j in range(train.findings.shape[1]):
        truth = train.findings[:, j]
        fp_pool = np.flatnonzero((preds[:, j] == 1) & (truth == 0))
        fn_pool = np.flatnonzero((preds[:, j] == 0) & (truth == 1))
        shortage: dict = {}
        picks = []
        for name, pool, m in (("fp", fp_pool, fp_count), ("fn", fn_pool, fn_count)):
            if len(pool) < m:
                if spec.fallback_on_shortage == FALLBACK_ERROR:
                    raise ShortageError(
                        f"finding {j}: requested {m} {name} samples, only {len(pool)}"
                    )
                shortage[name] = m - len(pool)
                picks += sorted(int(i) for i in pool)
            else:
                picks += _draw(pool, m, rng)
        labeled = [(int(i), int(truth[i])) for i in sorted(set(picks))]
        splits.append(TargetSplit(labeled, [], provenance={"shortage": shortage}))
    return splits
