"""Semi-supervised adaptation engines and the epoch loop.

Two engines share one code path. The pseudo-labeling engine trains each
unlabeled sample against its own argmax prediction (detached). The
FixMatch-lite engine derives the pseudo label from a weakly augmented view,
keeps it only when the weak-view confidence clears a threshold, and applies
the loss to a strongly augmented view; the unlabeled loss is normalized by
the full mu*B count so masked samples contribute zero.

Defending samples enter as a third loss term and nothing else: with k=0 the
engine is the baseline, bit for bit, because retrieval randomness lives on
its own RNG substream.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bank as bank_mod
from . import nn
from .data import LabeledSet, rms_radius
from .errors import ConfigError, NumericError
from .feedback import TargetSplit

PSEUDO_LABEL = "pseudo_label"
FIXMATCH_LITE = "fixmatch_lite"
ALGORITHMS = (PSEUDO_LABEL, FIXMATCH_LITE)


@dataclass
class AugmenterSpec:
    weak_noise_std: float = 0.0
    strong_noise_std: float = 0.0
    strong_scale_range: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.weak_noise_std < 0 or self.strong_noise_std < self.weak_noise_std:
            raise ConfigError(
                f"need 0 <= weak ({self.weak_noise_std}) <= strong ({self.strong_noise_std})"
            )
        lo, hi = self.strong_scale_range
        if not (0.0 < lo <= 1.0 <= hi):
            raise ConfigError(f"scale range must satisfy 0 < lo <= 1 <= hi, got {lo}, {hi}")

    @classmethod
    def from_points(cls, points, weak_frac=0.03, strong_frac=0.15, scale=(0.9, 1.1)):
        radius = rms_radius(np.asarray(points))
        return cls(weak_frac * radius, strong_frac * radius, tuple(scale))


class Augmenter:
    """2-D analogue of weak/strong image augmentation, centered on the data."""

    def __init__(self, spec: AugmenterSpec, centroid):
        self.spec = spec
        self.centroid = np.asarray(centroid, dtype=np.float64)

    def weak(self, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.spec.weak_noise_std == 0.0:
            return points
        return points + rng.normal(scale=self.spec.weak_noise_std, size=points.shape)

    def strong(self, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = points
        if self.spec.strong_noise_std > 0.0:
            out = out + rng.normal(scale=self.spec.strong_noise_std, size=points.shape)
        lo, hi = self.spec.strong_scale_range
        if not (lo == 1.0 and hi == 1.0):
            scales = rng.uniform(lo, hi, size=(len(points), 1))
            out = self.centroid + (out - self.centroid) * scales
        return out


@dataclass
class BatchSpec:
    b: int = 16
    mu: int = 7
    k: int = 0

    def __post_init__(self):
        if self.b < 1:
            raise ConfigError(f"labeled batch size must be >= 1, got {self.b}")
        if self.mu < 0 or self.k < 0:
            raise ConfigError("mu and k must be >= 0")


@dataclass
class AdaptConfig:
    algorithm: str = PSEUDO_LABEL
    confidence_threshold: float = 0.95
    epochs: int = 30
    sgd: nn.SgdConfig = field(default_factory=lambda: nn.SgdConfig(0.01, momentum=0.9))
    batch: BatchSpec = field(default_factory=BatchSpec)
    rld: Optional[bank_mod.RldConfig] = None
    augment: Optional[AugmenterSpec] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError(f"tau must be in [0,1], got {self.confidence_threshold}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch.k > 0 and self.rld is None:
            raise ConfigError("batch.k > 0 requires an rld config")


@dataclass
class MiniBatch:
    labeled_points: np.ndarray
    labeled_labels: np.ndarray
    unlabeled_points: np.ndarray
    defending_points: np.ndarray
    defending_labels: np.ndarray
    fallback_events: int = 0


@dataclass
class LossBreakdown:
    l_sup: float
    l_unsup: float
    l_rld: float
    l_total: float
    unsup_mask_rate: float


class CyclingSampler:
    """Epoch-shuffled without-replacement cycling over a fixed index pool."""

    def __init__(self, pool, rng: np.random.Generator):
        self.pool = np.asarray(pool, dtype=np.int64)
        if len(self.pool) == 0:
            raise ConfigError("cannot sample from an empty pool")
        self.rng = rng
        self.order = rng.permutation(self.pool)
        self.pos = 0

    def take(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            if self.pos == len(self.order):
                self.order = self.rng.permutation(self.pool)
                self.pos = 0
            grab = min(n - filled, len(self.order) - self.pos)
            out[filled : filled + grab] = self.order[self.pos : self.pos + grab]
            self.pos += grab
            filled += grab
        return out


def build_minibatch(
    split: TargetSplit,
    train: LabeledSet,
    bank: Optional[bank_mod.CandidateBank],
    spec: BatchSpec,
    rld_cfg: Optional[bank_mod.RldConfig],
    labeled_sampler: CyclingSampler,
    unlabeled_sampler: Optional[CyclingSampler],
    retrieval_rng: np.random.Generator,
    model: Optional[nn.MlpModel] = None,
    epoch: Optional[int] = None,
) -> MiniBatch:
    label_of = dict(split.labeled)
    lb_idx = labeled_sampler.take(spec.b)
    lb_points = train.points[lb_idx]
    lb_labels = np.array([label_of[int(i)] for i in lb_idx], dtype=np.int64)
    if spec.mu > 0:
        ulb_idx = unlabeled_sampler.take(spec.mu * spec.b)
        ulb_points = train.points[ulb_idx]
    else:
        ulb_points = np.zeros((0, 2))
    if spec.k > 0:
        if bank is None:
            raise ConfigError("k > 0 requires a candidate bank")
        def_pts, def_lab, fallbacks = bank_mod.retrieve_defending(
            bank, lb_points, lb_labels, rld_cfg, retrieval_rng, model=model, epoch=epoch
        )
    else:
        def_pts, def_lab, fallbacks = np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 0
    return MiniBatch(lb_points, lb_labels, ulb_points, def_pts, def_lab, fallbacks)


def _accumulate(total: Optional[nn.GradientSet], part: nn.GradientSet) -> nn.GradientSet:
    if total is None:
        return part
    total.add_(part)
    return total


def step_pseudo_label(model: nn.MlpModel, batch: MiniBatch, cfg: AdaptConfig) -> tuple:
    """One loss/gradient evaluation: targets are the model's own argmax, detached."""
    trace = nn.forward(model, batch.labeled_points)
    l_sup, dprobs, _ = nn.loss_ce(trace.probs, batch.labeled_labels)
    grads = nn.backward(model, trace, dprobs)

    l_unsup = 0.0
    mask_rate = 0.0
    if len(batch.unlabeled_points):
        trace_u = nn.forward(model, batch.unlabeled_points)
        pseudo = nn.argmax_rows(trace_u.probs)
        l_unsup, dprobs_u, _ = nn.loss_ce(trace_u.probs, pseudo)
        grads = _accumulate(grads, nn.backward(model, trace_u, dprobs_u))
        mask_rate = 1.0

    l_rld = 0.0
    if len(batch.defending_points):
        l_rld, dprobs_d, trace_d = bank_mod.rld_loss(
            model, batch.defending_points, batch.defending_labels
        )
        grads = _accumulate(grads, nn.backward(model, trace_d, dprobs_d))

    total = l_sup + l_unsup + l_rld
    return LossBreakdown(l_sup, l_unsup, l_rld, total, mask_rate), grads


def step_fixmatch_lite(
    model: nn.MlpModel,
    batch: MiniBatch,
    cfg: AdaptConfig,
    augmenter: Augmenter,
    rng: np.random.Generator,
) -> tuple:
    """Weak view proposes the pseudo label, strong view takes the loss."""
    trace = nn.forward(model, batch.labeled_points)
    l_sup, dprobs, _ = nn.loss_ce(trace.probs, batch.labeled_labels)
    grads = nn.backward(model, trace, dprobs)

    l_unsup = 0.0
    mask_rate = 0.0
    n_unlabeled = len(batch.unlabeled_points)
    if n_unlabeled:
        weak = augmenter.weak(batch.unlabeled_points, rng)
        strong = augmenter.strong(batch.unlabeled_points, rng)
        weak_probs = nn.forward(model, weak).probs  # detached: probs only
        pseudo = nn.argmax_rows(weak_probs)
        conf = weak_probs[np.arange(n_unlabeled), pseudo]
        mask = conf >= cfg.confidence_threshold
        n_pass = int(mask.sum())
        mask_rate = n_pass / n_unlabeled
        if n_pass:
            trace_s = nn.forward(model, strong)
            mean_loss, dprobs_s, _ = nn.loss_ce(trace_s.probs, pseudo, mask=mask)
            scale = n_pass / n_unlabeled  # renormalize mean-over-passing to mu*B
            l_unsup = mean_loss * scale
            dprobs_s = dprobs_s * scale
            grads = _accumulate(grads, nn.backward(model, trace_s, dprobs_s))

    l_rld = 0.0
    if len(batch.defending_points):
        l_rld, dprobs_d, trace_d = bank_mod.rld_loss(
            model, batch.defending_points, batch.defending_labels
        )
        grads = _accumulate(grads, nn.backward(model, trace_d, dprobs_d))

    total = l_sup + l_unsup + l_rld
    return LossBreakdown(l_sup, l_unsup, l_rld, total, mask_rate), grads


def steps_per_epoch(n_labeled: int, n_unlabeled: int, spec: BatchSpec) -> int:
    if spec.mu > 0:
        return max(1, -(-n_unlabeled // (spec.mu * spec.b)))
    return max(1, -(-n_labeled // spec.b))


def adapt(
    model: nn.MlpModel,
    split: TargetSplit,
    train: LabeledSet,
    cfg: AdaptConfig,
    seed,
    test_set: Optional[LabeledSet] = None,
    observer: Optional[Callable] = None,
) -> tuple:
    """Run the adaptation loop; returns (adapted copy, per-epoch records).

    RNG discipline: three independent substreams (batch order, augmentation,
    retrieval) spawn from the seed, so enabling defending samples cannot
    perturb the baseline's draws.
    """
    model = model.copy()
    batch_ss, augment_ss, retrieval_ss = np.random.SeedSequence(seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    augment_rng = np.random.default_rng(augment_ss)
    retrieval_rng = np.random.default_rng(retrieval_ss)

    # Canonical pool order regardless of how the split lists its indices, so
    # streaming replays reproduce offline runs.
    labeled_pairs = sorted(split.labeled)
    split = TargetSplit(labeled_pairs, sorted(split.unlabeled), split.provenance)
    labeled_idx = split.labeled_indices()
    unlabeled_idx = split.unlabeled_indices()
    if cfg.batch.mu > 0 and len(unlabeled_idx) == 0:
        raise ConfigError("mu > 0 but the unlabeled pool is empty")

    num_classes = model.output_dim
    augmenter = Augmenter(
        cfg.augment if cfg.augment is not None else AugmenterSpec(),
        train.points.mean(axis=0),
    )
    state = nn.SgdState.zeros_like(model)
    records = []
    n_steps = steps_per_epoch(len(labeled_idx), len(unlabeled_idx), cfg.batch)

    for epoch in range(cfg.epochs):
        labeled_sampler = CyclingSampler(labeled_idx, batch_rng)
        unlabeled_sampler = (
            CyclingSampler(unlabeled_idx, batch_rng) if cfg.batch.mu > 0 else None
        )
        cur_bank = None
        if cfg.batch.k > 0:
            cur_bank = bank_mod.generate_bank(
                model,
                train.points[unlabeled_idx],
                unlabeled_idx,
                cfg.rld.p,
                num_classes,
                epoch_stamp=epoch,
            )
        sums = {"l_sup": 0.0, "l_unsup": 0.0, "l_rld": 0.0, "mask_rate": 0.0}
        fallbacks = 0
        for step in range(n_steps):
            batch = build_minibatch(
                split, train, cur_bank, cfg.batch, cfg.rld,
                labeled_sampler, unlabeled_sampler, retrieval_rng,
                model=model, epoch=epoch,
            )
            if observer is not None:
                observer(epoch, step, batch)
            if cfg.algorithm == PSEUDO_LABEL:
                losses, grads = step_pseudo_label(model, batch, cfg)
            else:
                losses, grads = step_fixmatch_lite(model, batch, cfg, augmenter, augment_rng)
            if not math.isfinite(losses.l_total):
                raise NumericError(
                    f"non-finite loss {losses.l_total} at epoch {epoch} step {step}"
                )
            nn.sgd_step(model, grads, cfg.sgd, state)
            sums["l_sup"] += losses.l_sup
            sums["l_unsup"] += losses.l_unsup
            sums["l_rld"] += losses.l_rld
            sums["mask_rate"] += losses.unsup_mask_rate
            fallbacks += batch.fallback_events
        record = {
            "epoch": epoch,
            "l_sup": sums["l_sup"] / n_steps,
            "l_unsup": sums["l_unsup"] / n_steps,
            "l_rld": sums["l_rld"] / n_steps,
            "mask_rate": sums["mask_rate"] / n_steps,
            "bank": {
                "sizes": cur_bank.sizes() if cur_bank is not None else [],
                "fallbacks": fallbacks,
            },
        }
        if test_set is not None:
            preds = nn.predict(model, test_set.points)
            record["test_acc"] = float(np.mean(preds == test_set.labels))
        records.append(record)
    return model, records


def train_supervised(
    model: nn.MlpModel,
    points: np.ndarray,
    labels,
    sgd_cfg: nn.SgdConfig,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> nn.MlpModel:
    """Plain shuffled minibatch CE training; used for source pretraining."""
    labels = np.asarray(labels)
    state = nn.SgdState.zeros_like(model)
    for _ in range(epochs):
        order = rng.permutation(len(points))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            trace = nn.forward(model, points[idx])
            if model.head == nn.SOFTMAX:
                _, dprobs, _ = nn.loss_ce(trace.probs, labels[idx])
            else:
                _, dprobs = nn.loss_bce(trace.probs, labels[idx].astype(float))
            nn.sgd_step(model, nn.backward(model, trace, dprobs), sgd_cfg, state)
    return model


def _binary_defending(banks, picked, k, rng, num_findings, epoch) -> tuple:
    """k class-aware random draws per picked (sample, finding, value) cell
    from that finding's bank; returns (points, targets, mask, fallbacks),
    with a target and mask row per point that select the cell's finding."""
    d_rows, used = [], []
    fallbacks = 0
    for cell in picked:
        _, j, value = cell
        b = banks[j]
        if b.epoch_stamp != epoch:
            raise ConfigError("stale binary candidate bank")
        size = b.class_size(value)
        if size == 0:
            fallbacks += 1
            continue
        draws = rng.choice(size, size=k, replace=size < k)
        d_rows.append(b.class_rows(value)[draws])
        used.append(cell)
    if not d_rows:
        return np.zeros((0, 2)), np.zeros((0, num_findings)), np.zeros((0, num_findings)), fallbacks
    # generate_bank_binary's banks share one pool of points
    points = banks[0].points[np.concatenate(d_rows)]
    targets, mask = _finding_cells(np.repeat(used, k, axis=0), num_findings)
    return points, targets, mask, fallbacks


def _finding_cells(cells, num_findings) -> tuple:
    """(targets, mask), one row per (sample, finding, value) cell: the row
    holds the value at its finding's column, and the mask 1 there, 0 elsewhere."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    at = (np.arange(len(cells)), cells[:, 1])
    targets = np.zeros((len(cells), num_findings))
    mask = np.zeros((len(cells), num_findings))
    targets[at] = cells[:, 2]
    mask[at] = 1.0
    return targets, mask


def adapt_binary(
    model: nn.MlpModel,
    splits: list,
    train: LabeledSet,
    thresholds,
    cfg: AdaptConfig,
    seed,
    test_eval: Optional[Callable] = None,
) -> tuple:
    """Multi-output adaptation from per-finding feedback.

    Labeled units are (sample, finding, value) cells; the supervised and
    defending losses touch only their own finding's output via masked BCE.
    The unlabeled loss trains every finding of an unlabeled sample toward its
    own thresholded prediction (the binary analogue of the argmax target).
    Only class-aware random retrieval is supported here.
    """
    if train.findings is None:
        raise ConfigError("binary adaptation needs a dataset with findings")
    if cfg.algorithm != PSEUDO_LABEL:
        raise ConfigError("binary mode supports the pseudo-label engine only")
    if cfg.batch.k > 0 and cfg.rld is not None and cfg.rld.strategy != bank_mod.CLASS_AWARE_RANDOM:
        raise ConfigError("binary mode supports class_aware_random retrieval only")
    model = model.copy()
    num_findings = train.findings.shape[1]
    thresholds = np.asarray(thresholds, dtype=float)
    batch_ss, _, retrieval_ss = np.random.SeedSequence(seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    retrieval_rng = np.random.default_rng(retrieval_ss)

    # Flatten per-finding feedback into (sample, finding, value) cells.
    cells = []
    for j, split in enumerate(splits):
        for idx, value in sorted(split.labeled):
            cells.append((int(idx), j, int(value)))
    cells.sort()
    if not cells:
        raise ConfigError("no feedback cells to adapt on")
    labeled_samples = sorted({c[0] for c in cells})
    unlabeled_idx = np.array(
        sorted(set(range(len(train))) - set(labeled_samples)), dtype=np.int64
    )
    if cfg.batch.mu > 0 and len(unlabeled_idx) == 0:
        raise ConfigError("mu > 0 but the unlabeled pool is empty")

    state = nn.SgdState.zeros_like(model)
    records = []
    n_steps = steps_per_epoch(len(cells), len(unlabeled_idx), cfg.batch)
    for epoch in range(cfg.epochs):
        cell_sampler = CyclingSampler(np.arange(len(cells)), batch_rng)
        unlabeled_sampler = (
            CyclingSampler(unlabeled_idx, batch_rng) if cfg.batch.mu > 0 else None
        )
        banks = None
        if cfg.batch.k > 0:
            banks = bank_mod.generate_bank_binary(
                model, train.points[unlabeled_idx], unlabeled_idx,
                cfg.rld.p, thresholds, epoch_stamp=epoch,
            )
        sums = {"l_sup": 0.0, "l_unsup": 0.0, "l_rld": 0.0}
        fallbacks = 0
        for step in range(n_steps):
            picked = [cells[int(i)] for i in cell_sampler.take(cfg.batch.b)]
            lb_points = train.points[[c[0] for c in picked]]
            lb_targets, lb_mask = _finding_cells(picked, num_findings)
            trace = nn.forward(model, lb_points)
            l_sup, dprobs, _ = nn.loss_bce_masked(trace.probs, lb_targets, lb_mask)
            grads = nn.backward(model, trace, dprobs)

            l_unsup = 0.0
            if cfg.batch.mu > 0:
                u_idx = unlabeled_sampler.take(cfg.batch.mu * cfg.batch.b)
                trace_u = nn.forward(model, train.points[u_idx])
                pseudo = (trace_u.probs >= thresholds[None, :]).astype(float)
                l_unsup, dprobs_u = nn.loss_bce(trace_u.probs, pseudo)
                grads = _accumulate(grads, nn.backward(model, trace_u, dprobs_u))

            l_rld = 0.0
            if cfg.batch.k > 0:
                d_points, d_targets, d_mask, missing = _binary_defending(
                    banks, picked, cfg.batch.k, retrieval_rng, num_findings, epoch
                )
                fallbacks += missing
                if len(d_points):
                    trace_d = nn.forward(model, d_points)
                    l_rld, dprobs_d, _ = nn.loss_bce_masked(trace_d.probs, d_targets, d_mask)
                    grads = _accumulate(grads, nn.backward(model, trace_d, dprobs_d))

            total = l_sup + l_unsup + l_rld
            if not math.isfinite(total):
                raise NumericError(f"non-finite loss {total} at epoch {epoch} step {step}")
            nn.sgd_step(model, grads, cfg.sgd, state)
            sums["l_sup"] += l_sup
            sums["l_unsup"] += l_unsup
            sums["l_rld"] += l_rld
        record = {
            "epoch": epoch,
            "l_sup": sums["l_sup"] / n_steps,
            "l_unsup": sums["l_unsup"] / n_steps,
            "l_rld": sums["l_rld"] / n_steps,
            "mask_rate": 1.0 if cfg.batch.mu > 0 else 0.0,
            "bank": {
                "sizes": [b.sizes() for b in banks] if banks is not None else [],
                "fallbacks": fallbacks,
            },
        }
        if test_eval is not None:
            record["test_acc"] = float(test_eval(model))
        records.append(record)
    return model, records
