"""Semi-supervised adaptation: one epoch loop, one step, both output heads.

The loop runs on labelled units, an array of (sample index, label) rows.
For a softmax head a unit's label is its class; for a sigmoid head over F
findings, per-finding feedback becomes one unit per (sample, finding, value)
cell with label 2*finding + value. A small per-head rule turns labels and
predictions into loss targets, and builds the epoch's candidate bank (the
per-finding banks of a sigmoid head are read as one bank of 2F classes), so
batch assembly, retrieval and the step are shared by both heads.

Each epoch starts by drawing every step's batch indices and building the
candidate bank. Retrieval then runs once for the whole epoch, unless the
strategy reads the model (cosine_distant), which retrieves at each step.

Each step sums three terms. The supervised term fits the labelled units.
The unlabelled term depends on the algorithm: pseudo-labelling trains each
unlabelled point against its own detached target (the argmax, or the
thresholded prediction of every finding); FixMatch-lite (softmax only)
derives the pseudo label from a weakly augmented view, keeps it only when
the weak-view confidence clears a threshold, and applies the loss to a
strongly augmented view, normalised by the full mu*B count so masked
samples contribute zero. The defending term is the supervised loss on the
retrieved (point, label) pairs: without an rld config the engine is the
baseline, bit for bit, because retrieval randomness lives on its own RNG
substream.

The three terms share one forward pass over their rows stacked (labelled,
unlabelled, defending), one loss pass and one backward pass. The loss pass
gives every scored row one target (label, pseudo label or masked FixMatch
target, defending label), sums each term over its own contiguous rows,
divides by the term's own count and writes one upstream gradient for all
three. FixMatch-lite's weak view rides in the forward pass for its
probabilities only: its rows get no target, so zero upstream gradient,
which detaches them.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bank as bank_mod
from . import nn
from .data import LabeledSet, rms_radius
from .errors import ConfigError, NumericError, ShapeError
from .feedback import TargetSplit

PSEUDO_LABEL = "pseudo_label"
FIXMATCH_LITE = "fixmatch_lite"
ALGORITHMS = (PSEUDO_LABEL, FIXMATCH_LITE)


@dataclass
class AugmenterSpec:
    """Jitter sigmas as fractions of the data's RMS radius, and the strong
    view's scale range; the Augmenter turns the fractions into sigmas."""

    weak_frac: float = 0.0
    strong_frac: float = 0.0
    strong_scale_range: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.weak_frac < 0 or self.strong_frac < self.weak_frac:
            raise ConfigError(
                f"need 0 <= weak ({self.weak_frac}) <= strong ({self.strong_frac})"
            )
        lo, hi = self.strong_scale_range
        if not (0.0 < lo <= 1.0 <= hi):
            raise ConfigError(f"scale range must satisfy 0 < lo <= 1 <= hi, got {lo}, {hi}")


class Augmenter:
    """2-D analogue of weak/strong image augmentation, centered on the data
    and scaled by its RMS radius."""

    def __init__(self, spec: AugmenterSpec, points):
        points = np.asarray(points, dtype=np.float64)
        radius = rms_radius(points)
        self.spec = spec
        self.weak_std = spec.weak_frac * radius
        self.strong_std = spec.strong_frac * radius
        self.centroid = points.mean(axis=0)

    def weak(self, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.weak_std == 0.0:
            return points
        return points + rng.normal(scale=self.weak_std, size=points.shape)

    def strong(self, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = points
        if self.strong_std > 0.0:
            out = out + rng.normal(scale=self.strong_std, size=points.shape)
        lo, hi = self.spec.strong_scale_range
        if not (lo == 1.0 and hi == 1.0):
            scales = rng.uniform(lo, hi, size=(len(points), 1))
            out = self.centroid + (out - self.centroid) * scales
        return out


@dataclass
class BatchSpec:
    b: int = 16
    mu: int = 7

    def __post_init__(self):
        if self.b < 1:
            raise ConfigError(f"labeled batch size must be >= 1, got {self.b}")
        if self.mu < 0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")


@dataclass
class AdaptConfig:
    """One adaptation's settings. rld, when given, adds the defending term:
    each labeled unit retrieves rld.k pairs from the epoch's bank."""

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


class SoftmaxRule:
    """Softmax head: a label is a class; an unlabelled target is the argmax."""

    def loss(self, probs, terms, labels, defending_labels, fixmatch=None) -> tuple:
        """(losses, dprobs, counts) of the labelled, unlabelled and defending
        terms, in one cross-entropy pass over their rows of probs. fixmatch,
        if given, is the strong view's (pseudo labels, passing mask)."""
        pseudo, passing = fixmatch or (nn.argmax_rows(probs[slice(*terms[1])]), None)
        targets = np.concatenate([labels, pseudo, defending_labels])
        mask = None
        if passing is not None:
            mask = np.ones(len(targets))
            mask[len(labels) : len(labels) + len(pseudo)] = passing
        return nn.loss_ce(probs, targets, terms, mask)

    def bank(self, model, points, indices, p, epoch) -> bank_mod.CandidateBank:
        return bank_mod.generate_bank(
            model, points, indices, p, model.output_dim, epoch_stamp=epoch
        )

    def sizes(self, bank: bank_mod.CandidateBank) -> list:
        return bank.sizes()


@dataclass
class SigmoidRule:
    """Sigmoid head over len(thresholds) findings: label 2*finding + value
    names one cell, trained by BCE masked to that finding; an unlabelled
    point's targets are its own thresholded predictions."""

    thresholds: np.ndarray

    def targets(self, labels) -> tuple:
        """(targets, mask), one row per label: the row holds the value at its
        finding's column, and the mask 1 there, 0 elsewhere."""
        labels = np.asarray(labels, dtype=np.int64)
        at = (np.arange(len(labels)), labels // 2)
        targets = np.zeros((len(labels), len(self.thresholds)))
        mask = np.zeros((len(labels), len(self.thresholds)))
        targets[at] = labels % 2
        mask[at] = 1.0
        return targets, mask

    def loss(self, probs, terms, labels, defending_labels) -> tuple:
        """As SoftmaxRule.loss without fixmatch (binary mode runs
        pseudo-labelling only), in one BCE pass."""
        targets, mask = self.targets(np.concatenate([labels, defending_labels]))
        n = len(labels)
        unlabeled = probs[slice(*terms[1])]
        targets = np.concatenate([targets[:n], unlabeled >= self.thresholds, targets[n:]])
        mask = np.concatenate([mask[:n], np.ones(unlabeled.shape), mask[n:]])
        return nn.loss_bce(probs, targets, terms, mask)

    def bank(self, model, points, indices, p, epoch) -> bank_mod.CandidateBank:
        return bank_mod.CandidateBank.concat(
            bank_mod.generate_bank_binary(
                model, points, indices, p, self.thresholds, epoch_stamp=epoch
            )
        )

    def sizes(self, bank: bank_mod.CandidateBank) -> list:
        """Nested per finding: [[negatives, positives], ...]."""
        return np.reshape(bank.sizes(), (-1, 2)).tolist()


SOFTMAX_RULE = SoftmaxRule()


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
    train: LabeledSet,
    picked: np.ndarray,
    unlabeled: np.ndarray,
    defending: Optional[tuple] = None,
) -> MiniBatch:
    """One batch from its draws: picked holds the labelled units (rows of
    (sample index, label)), unlabeled the unlabelled sample indices, and
    defending the (points, labels, fallback_events) retrieved for those
    units, None for no defending pairs."""
    if defending is None:
        defending = (np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 0)
    return MiniBatch(
        train.points[picked[:, 0]], picked[:, 1], train.points[unlabeled], *defending
    )


def _draw_epoch(units, unlabeled_idx, spec: BatchSpec, n_steps: int, rng) -> tuple:
    """Every step's draws for one epoch: labelled units shaped (steps, b, 2)
    and unlabelled sample indices shaped (steps, mu*b). Both samplers start
    the epoch afresh and draw from rng step by step, labelled first."""
    labeled_sampler = CyclingSampler(np.arange(len(units)), rng)
    unlabeled_sampler = CyclingSampler(unlabeled_idx, rng) if spec.mu > 0 else None
    picked = np.empty((n_steps, spec.b), dtype=np.int64)
    unlabeled = np.empty((n_steps, spec.mu * spec.b), dtype=np.int64)
    for i in range(n_steps):
        picked[i] = labeled_sampler.take(spec.b)
        if unlabeled_sampler is not None:
            unlabeled[i] = unlabeled_sampler.take(spec.mu * spec.b)
    return units[picked], unlabeled


def _epoch_defending(bank, points, labels, cfg, rng, model, epoch) -> Callable:
    """Step i's defending (points, labels, fallback_events), as a function
    of i, for an epoch whose labelled points and labels are shaped (steps, b,
    ...). A strategy that reads the model retrieves when step i asks, from
    the model as trained so far. The others read only the epoch's frozen bank
    and the rng, so they retrieve for the whole epoch in one call, up front."""
    if cfg.strategy in bank_mod.MODEL_FREE:
        return bank_mod._retrieve_split(bank, points, labels, cfg, rng, epoch=epoch).__getitem__
    return lambda i: bank_mod.retrieve_defending(
        bank, points[i], labels[i], cfg, rng, model=model, epoch=epoch
    )


def step(
    model: nn.MlpModel,
    batch: MiniBatch,
    cfg: AdaptConfig,
    rule=SOFTMAX_RULE,
    augmenter: Optional[Augmenter] = None,
    rng: Optional[np.random.Generator] = None,
    buffers: Optional[nn.StepBuffers] = None,
) -> tuple:
    """One loss/gradient evaluation: supervised, unlabelled and defending
    terms; fixmatch_lite draws its augmented views from rng, weak first.
    The passes run in ``buffers`` if given (see the nn module docstring).

    One forward pass runs every row, stacked: labelled, then unlabelled
    (for fixmatch_lite the weak view, then the strong view), then
    defending. One loss pass over the same probabilities scores the three
    terms: one target per scored row (the label, the pseudo label or the
    strong view's masked FixMatch target, the defending label), each term's
    loss summed over its own contiguous rows and divided by its own count,
    and one d(loss)/d(probs) for them all. The weak view's rows get no
    target, so zero upstream gradient, which detaches them; one backward
    pass gives the summed gradient.
    """
    if cfg.algorithm == FIXMATCH_LITE and isinstance(rule, SigmoidRule):
        raise ConfigError("binary mode supports the pseudo-label engine only")
    n_labeled = len(batch.labeled_points)
    n_unlabeled = len(batch.unlabeled_points)
    fixmatch = cfg.algorithm == FIXMATCH_LITE and n_unlabeled > 0
    unlabeled = [batch.unlabeled_points]
    if fixmatch:
        # weak view proposes the pseudo label, strong view takes the loss;
        # weak draws from rng first
        unlabeled = [
            augmenter.weak(batch.unlabeled_points, rng),
            augmenter.strong(batch.unlabeled_points, rng),
        ]
    trace = nn.forward(
        model, np.concatenate([batch.labeled_points, *unlabeled, batch.defending_points]), buffers
    )
    probs = trace.probs
    defending_at = n_labeled + n_unlabeled * len(unlabeled)
    unlabeled_at = defending_at - n_unlabeled  # the strong view's rows under fixmatch
    # each term is a mean over its own rows: the defending term's count is
    # the actual pair count, k*B under duplicate_labeled, maybe fewer under
    # skip_with_flag
    terms = ((0, n_labeled), (unlabeled_at, defending_at), (defending_at, len(probs)))
    labels = (batch.labeled_labels, batch.defending_labels)

    if fixmatch:
        weak_probs = probs[n_labeled:unlabeled_at]
        pseudo = nn.argmax_rows(weak_probs)
        passing = weak_probs[np.arange(n_unlabeled), pseudo] >= cfg.confidence_threshold
        (l_sup, mean_loss, l_rld), dprobs, counts = rule.loss(
            probs, terms, *labels, fixmatch=(pseudo, passing)
        )
        # renormalize mean-over-passing to mu*B
        mask_rate = counts[1] / n_unlabeled
        l_unsup = mean_loss * mask_rate
        dprobs[unlabeled_at:defending_at] *= mask_rate
    else:
        # pseudo targets are detached: computed from probs, never differentiated
        (l_sup, l_unsup, l_rld), dprobs, _ = rule.loss(probs, terms, *labels)
        mask_rate = 1.0 if n_unlabeled else 0.0

    grads = nn.backward(model, trace, dprobs, buffers)
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
    """Adapt a softmax model; returns (adapted copy, per-epoch records).

    Pools are put in canonical order regardless of how the split lists its
    indices, so streaming replays reproduce offline runs.
    """
    units = np.array(sorted(split.labeled), dtype=np.int64).reshape(-1, 2)
    unlabeled_idx = np.array(sorted(split.unlabeled), dtype=np.int64)
    evaluate = None
    if test_set is not None:
        evaluate = lambda m: np.mean(nn.predict(m, test_set.points) == test_set.labels)
    return _adapt_units(
        model, units, unlabeled_idx, train, cfg, seed, SOFTMAX_RULE, evaluate, observer
    )


def adapt_binary(
    model: nn.MlpModel,
    splits: list,
    train: LabeledSet,
    thresholds,
    cfg: AdaptConfig,
    seed,
    test_eval: Optional[Callable] = None,
) -> tuple:
    """Adapt a sigmoid model from per-finding feedback (one TargetSplit per
    finding); returns (adapted copy, per-epoch records) whose bank sizes are
    nested per finding. Each (sample, finding, value) cell is one unit; a
    sample with any feedback leaves the unlabelled pool."""
    if train.findings is None:
        raise ConfigError("binary adaptation needs a dataset with findings")
    if cfg.algorithm != PSEUDO_LABEL:
        raise ConfigError("binary mode supports the pseudo-label engine only")
    # sorted as (sample, finding, value) cells: 2*finding + value keeps their order
    units = sorted(
        (int(idx), 2 * j + int(value)) for j, split in enumerate(splits) for idx, value in split.labeled
    )
    if not units:
        raise ConfigError("no feedback cells to adapt on")
    units = np.array(units, dtype=np.int64)
    unlabeled_idx = np.setdiff1d(np.arange(len(train)), units[:, 0])
    rule = SigmoidRule(np.asarray(thresholds, dtype=float))
    return _adapt_units(model, units, unlabeled_idx, train, cfg, seed, rule, test_eval)


_LOGGED = ("l_sup", "l_unsup", "l_rld", "mask_rate")  # each record holds their step means


def _adapt_units(
    model, units, unlabeled_idx, train, cfg, seed, rule, evaluate=None, observer=None
) -> tuple:
    """The epoch loop over labelled units (rows of (sample index, label)).

    RNG discipline: three independent substreams (batch order, augmentation,
    retrieval) spawn from the seed, so enabling defending samples cannot
    perturb the baseline's draws. Each epoch draws every step's batch
    indices at its start, in the order step-by-step drawing takes, then
    builds its bank. Retrieval runs once per epoch unless the strategy reads
    the model; then each step retrieves from the model as trained so far.
    """
    model = model.copy()
    batch_ss, augment_ss, retrieval_ss = np.random.SeedSequence(seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    augment_rng = np.random.default_rng(augment_ss)
    retrieval_rng = np.random.default_rng(retrieval_ss)
    if cfg.batch.mu > 0 and len(unlabeled_idx) == 0:
        raise ConfigError("mu > 0 but the unlabeled pool is empty")

    augmenter = Augmenter(cfg.augment or AugmenterSpec(), train.points)
    state, buffers = nn.SgdState.zeros_like(model), nn.StepBuffers(model)
    records = []
    n_steps = steps_per_epoch(len(units), len(unlabeled_idx), cfg.batch)

    for epoch in range(cfg.epochs):
        picked, unlabeled = _draw_epoch(units, unlabeled_idx, cfg.batch, n_steps, batch_rng)
        cur_bank = defending = None
        if cfg.rld is not None:
            cur_bank = rule.bank(
                model, train.points[unlabeled_idx], unlabeled_idx, cfg.rld.p, epoch
            )
            defending = _epoch_defending(
                cur_bank, train.points[picked[..., 0]], picked[..., 1], cfg.rld,
                retrieval_rng, model, epoch,
            )
        sums = np.zeros(len(_LOGGED))  # float64 adds, bit-equal to Python's
        fallbacks = 0
        for i in range(n_steps):
            batch = build_minibatch(
                train, picked[i], unlabeled[i], defending(i) if defending else None
            )
            if observer is not None:
                observer(epoch, i, batch)
            losses, grads = step(model, batch, cfg, rule, augmenter, augment_rng, buffers)
            if not math.isfinite(losses.l_total):
                raise NumericError(
                    f"non-finite loss {losses.l_total} at epoch {epoch} step {i}"
                )
            nn.sgd_step(model, grads, cfg.sgd, state)
            sums += (losses.l_sup, losses.l_unsup, losses.l_rld, losses.unsup_mask_rate)
            fallbacks += batch.fallback_events
        record = dict(zip(_LOGGED, (sums / n_steps).tolist()), epoch=epoch, bank={
            "sizes": rule.sizes(cur_bank) if cur_bank is not None else [],
            "fallbacks": fallbacks,
        })
        if evaluate is not None:
            record["test_acc"] = float(evaluate(model))
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
    """Plain shuffled minibatch CE (BCE for a sigmoid head) training; used
    for source pretraining. The labels are checked once, as the loss checks
    them, and each step takes the loss's gradient only. Each epoch gathers
    its shuffled rows once and slices them per step."""
    softmax = model.head == nn.SOFTMAX
    targets = np.asarray(labels, dtype=np.int64 if softmax else np.float64)
    expect = (len(targets),) if softmax else (len(targets), model.output_dim)
    if targets.shape != expect:
        raise ShapeError(f"targets shape {targets.shape}, expected {expect}")
    targets = nn._checked_targets(targets, model.output_dim if softmax else None)
    state, buffers = nn.SgdState.zeros_like(model), nn.StepBuffers(model)
    for _ in range(epochs):
        order = rng.permutation(len(points))
        epoch_points, epoch_targets = points[order], targets[order]
        for start in range(0, len(order), batch_size):
            stop = start + batch_size
            trace = nn.forward(model, epoch_points[start:stop], buffers)
            dprobs = nn._term_gradient(model, trace.probs, epoch_targets[start:stop])
            nn.sgd_step(model, nn.backward(model, trace, dprobs, buffers), sgd_cfg, state)
    return model
