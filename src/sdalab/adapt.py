"""Semi-supervised adaptation: one epoch loop, one step, both output heads.

The loop runs on labelled units, an array of (sample index, label) rows.
For a softmax head a unit's label is its class; for a sigmoid head over F
findings, per-finding feedback becomes one unit per (sample, finding, value)
cell with label 2*finding + value. The model's head picks a small rule that
derives units and pool from the feedback, turns labels and predictions into
loss targets, builds the epoch's bank (a sigmoid head's per-finding banks
read as one of 2F classes) and scores, so one loop serves both heads.

Each epoch starts by laying out everything the model does not decide, for
every step at once (build_minibatch): the batch indices, drawn in the
order step-by-step drawing takes; the candidate bank and, unless the
strategy reads the model (cosine_distant), the defending pairs of the
whole epoch; each step's stacked input rows, from one gather; and each
step's loss targets and mask, checked once, with the term bounds and the
counts that do not depend on the model. A step then computes only what
the current model decides: the cosine_distant picks (written into the
step's defending rows), FixMatch-lite's augmented views (written over
their rows), the pseudo labels or FixMatch's mask (written into the
targets), and the passes.

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

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bank as bank_mod
from . import metrics, nn
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

    head = nn.SOFTMAX

    @staticmethod
    def units(split: TargetSplit, train) -> tuple:
        """(units, pool) of one split, each in canonical order however the
        split lists it, so streaming replays reproduce offline runs."""
        units = np.array(sorted(split.labeled), dtype=np.int64).reshape(-1, 2)
        return units, np.array(sorted(split.unlabeled), dtype=np.int64)

    @staticmethod
    def score(model, labeled) -> float:
        return metrics.top1_accuracy(model, labeled.points, labeled.labels)

    def epoch_targets(self, labels, pseudo, n_outputs) -> tuple:
        """(targets, mask) of an epoch's scored rows, labels shaped (steps,
        rows): the classes, checked once, and no mask. The rows at pseudo
        (a slice) take pseudo labels, written by pseudo_targets each step."""
        nn._checked_targets(labels.reshape(-1), n_outputs)
        return labels, None

    @staticmethod
    def pseudo_targets(probs, out) -> None:
        nn.argmax_rows(probs, out)

    @staticmethod
    def loss(probs, rows, targets, bounds, counts, mask, work) -> tuple:
        """(losses, dprobs) of the terms in one cross-entropy pass, written
        into work (nn._LossArrays for len(probs) rows)."""
        return nn._ce_terms(probs, rows, targets, bounds, counts, mask, work)

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
    head = nn.SIGMOID

    @staticmethod
    def units(splits: list, train) -> tuple:
        """(units, pool) of per-finding splits: one (sample, 2*finding + value)
        unit per cell, in sorted order; the pool is every sample with no cell."""
        if train.findings is None:
            raise ConfigError("binary adaptation needs a dataset with findings")
        cells = ((int(i), 2 * j + int(v)) for j, split in enumerate(splits) for i, v in split.labeled)
        units = np.array(sorted(cells), dtype=np.int64).reshape(-1, 2)
        if not len(units):
            raise ConfigError("no feedback cells to adapt on")
        return units, np.setdiff1d(np.arange(len(train)), units[:, 0])

    @staticmethod
    def score(model, labeled) -> float:
        return metrics.mean_auroc(model, labeled)

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

    def epoch_targets(self, labels, pseudo, n_outputs=None) -> tuple:
        """As SoftmaxRule.epoch_targets: which target cells are 1, and the
        mask, every cell of a pseudo-labelled row unmasked."""
        targets, mask = (a.reshape(*labels.shape, -1) for a in self.targets(labels.reshape(-1)))
        mask[:, pseudo] = 1.0
        return nn._checked_targets(targets), mask

    def pseudo_targets(self, probs, out) -> None:
        np.greater_equal(probs, self.thresholds, out=out)

    @staticmethod
    def loss(probs, rows, targets, bounds, counts, mask, work) -> tuple:
        """As SoftmaxRule.loss in one BCE pass; every row is scored, as
        binary mode runs pseudo-labelling only."""
        return nn._bce_terms(probs, targets, bounds, counts, mask, work)

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


def _views(cfg: AdaptConfig, u: int) -> int:
    """How many times a step's u unlabelled points enter its forward pass:
    twice under fixmatch_lite (the weak view and the strong view), else once."""
    return 2 if cfg.algorithm == FIXMATCH_LITE and u else 1


class _Epoch:
    """Every step of one epoch, laid out once (module docstring).

    Row i of inputs holds step i's forward input, stacked: b labelled rows,
    u unlabelled rows, then defending[i] defending rows; under fixmatch_lite
    the unlabelled rows come twice, as the weak view's slot and then the
    strong view's, each holding the raw points until the step writes its
    view there. Row i of labels, targets and mask (when there is a mask) holds
    the step's scored rows, all but the weak view's, in the same order: the
    labelled ones, u pseudo-labelled ones (labels holds a placeholder
    there) and the defending ones; rows holds where each sits in the forward
    input. Steps with fewer defending rows than the most leave their tails
    unused, so each step's rows are a contiguous prefix of its row.
    """

    def __init__(self, inputs, labels, b, u, defending, fallbacks, cfg, rule, n_outputs):
        self.inputs, self.labels, self.b, self.u, self.rule = inputs, labels, b, u, rule
        self.defending, self.fallbacks = defending, fallbacks
        self.views = _views(cfg, u)
        self.head = b + self.views * u  # where the defending rows start
        self.rows = np.arange(labels.shape[1])
        self.rows[b:] += self.head - b - u
        self.targets, self.mask = rule.epoch_targets(labels, slice(b, b + u), n_outputs)
        if self.views == 2:
            self.mask = np.ones(labels.shape)

    def put_defending(self, i, points) -> None:
        """Step i's defending points, retrieved as the step runs, into the
        slot laid out for them (their labels are there already)."""
        d = self.defending[i]
        if len(points) != d:
            raise ShapeError(f"step {i} retrieved {len(points)} defending points for {d} rows")
        self.inputs[i, self.head : self.head + d] = points

    def batch(self, i) -> "MiniBatch":
        """Step i as a MiniBatch of views, its unlabelled points copied under
        fixmatch_lite, where the step writes its views over their slots."""
        b, u, d = self.b, self.u, self.defending[i]
        unlabeled = self.inputs[i, b : b + u]
        return MiniBatch(
            self.inputs[i, :b], self.labels[i, :b],
            unlabeled.copy() if self.views == 2 else unlabeled,
            self.inputs[i, self.head : self.head + d], self.labels[i, b + u : b + u + d],
            self.fallbacks[i],
        )


def build_minibatch(
    train: LabeledSet,
    picked: np.ndarray,
    unlabeled: np.ndarray,
    defending: Optional[tuple],
    cfg: AdaptConfig,
    rule,
    n_outputs: int,
) -> _Epoch:
    """Every step of one epoch, laid out from its draws: picked holds each
    step's labelled units (steps, b, 2), unlabeled its unlabelled sample
    indices (steps, mu*b), and defending the epoch's defending rows as
    bank._retrieve_split gives them, None for no defending pairs. One
    gather from train.points fills the labelled and unlabelled rows of
    every step; the defending points go into their slots, unless they are
    retrieved step by step (points None)."""
    steps, u = unlabeled.shape
    points, d_labels, counts, fallbacks = defending or (
        None, np.zeros(0, dtype=np.int64), [0] * steps, [0] * steps
    )
    room = max(counts)  # the most defending rows of any step
    blank = np.zeros((steps, room), dtype=np.int64)
    inputs = train.points[
        np.concatenate([picked[..., 0], *[unlabeled] * _views(cfg, u), blank], axis=1)
    ]
    labels = np.concatenate([picked[..., 1], np.zeros((steps, u), dtype=np.int64), blank], axis=1)
    if room:
        used = np.arange(room) < np.array(counts)[:, None]
        labels[:, -room:][used] = d_labels
        if points is not None:
            inputs[:, -room:][used] = points
    return _Epoch(inputs, labels, picked.shape[1], u, counts, fallbacks, cfg, rule, n_outputs)


def _draw_epoch(units, unlabeled_idx, spec: BatchSpec, n_steps: int, rng) -> tuple:
    """Every step's draws for one epoch: labelled units shaped (steps, b, 2)
    and unlabelled sample indices shaped (steps, mu*b).

    Each pool is read without replacement through one permutation after
    another, drawn afresh each epoch: a pool of size P draws its first
    permutation as the epoch starts and its j-th (j >= 1) in the step that
    first reads element j*P, the labelled pool first within a step. The rng
    is called in that order, as step-by-step cycling samplers would call it.
    Each permutation shuffles its own copy of the pool in place, which is
    what rng.permutation does, with the same draws. A pool's copies are the
    rows of one (permutations, P) tile, and each run of its permutations
    with no draw from the other pool between them is one rng.permuted call
    over those rows, which draws what shuffling row after row draws.
    """
    pools = [(np.arange(len(units)), spec.b)]
    if spec.mu > 0:
        pools.append((unlabeled_idx, spec.mu * spec.b))
    schedule, orders = [], []  # schedule: (step, pool, permutation), step -1 as the epoch starts
    for p, (pool, per_step) in enumerate(pools):
        size = len(pool)
        if size == 0:
            raise ConfigError("cannot sample from an empty pool")
        needed = -(-n_steps * per_step // size)
        schedule += [(j * size // per_step if j else -1, p, j) for j in range(needed)]
        orders.append(np.tile(pool, (needed, 1)))
    for p, run in itertools.groupby(sorted(schedule), key=lambda event: event[1]):
        rows = [j for _, _, j in run]  # consecutive permutations of pool p
        block = orders[p][rows[0] : rows[-1] + 1]
        rng.permuted(block, axis=1, out=block)
    draws = [
        order.reshape(-1)[: n_steps * per_step].reshape(n_steps, per_step)
        for order, (_, per_step) in zip(orders, pools)
    ]
    if spec.mu == 0:
        draws.append(np.empty((n_steps, 0), dtype=np.int64))
    return units[draws[0]], draws[1]


def _step(model, epoch: _Epoch, i, cfg, augmenter, rng, work: nn.StepBuffers) -> tuple:
    """Step i of epoch (module docstring): one forward pass over its rows,
    stacked labelled, unlabelled (for fixmatch_lite the weak view, then the
    strong view), defending; one loss pass that scores each term over its
    own contiguous rows and divides by its own count; one backward pass.
    The weak view's rows get no target, so zero upstream gradient, which
    detaches them. Only what the model decides is computed here: the views,
    the pseudo labels (or FixMatch's mask) and the losses."""
    b, u, d, rule = epoch.b, epoch.u, epoch.defending[i], epoch.rule
    defending_at = epoch.head
    unlabeled_at = defending_at - u  # the strong view's rows under fixmatch
    scored = b + u + d
    inputs, targets = epoch.inputs[i, : defending_at + d], epoch.targets[i, :scored]
    mask = None if epoch.mask is None else epoch.mask[i, :scored]
    fixmatch = epoch.views == 2
    if fixmatch:
        # weak view proposes the pseudo label, strong view takes the loss;
        # weak draws from rng first
        weak, strong = slice(b, unlabeled_at), slice(unlabeled_at, defending_at)
        inputs[weak] = augmenter.weak(inputs[weak], rng)
        inputs[strong] = augmenter.strong(inputs[strong], rng)
    trace = nn.forward(model, inputs, work)
    probs = trace.probs
    # each term is a mean over its own rows (the unlabelled term's over its
    # target cells): the defending term's count is the actual pair count,
    # k*B under duplicate_labeled, maybe fewer under skip_with_flag
    counts = [b, targets[b : b + u].size, d]
    if fixmatch:
        weak_probs = probs[b:unlabeled_at]
        pseudo = nn.argmax_rows(weak_probs, targets[b : b + u])
        passing = weak_probs[np.arange(u), pseudo] >= cfg.confidence_threshold
        mask[b : b + u] = passing
        counts[1] = int(np.count_nonzero(passing))
    else:
        # pseudo targets are detached: computed from probs, never differentiated
        rule.pseudo_targets(probs[unlabeled_at:defending_at], targets[b : b + u])
    bounds = ((0, b), (b, b + u), (b + u, scored))
    (l_sup, l_unsup, l_rld), dprobs = rule.loss(
        probs, epoch.rows[:scored], targets, bounds, counts, mask, work.rows(len(probs)).loss
    )
    mask_rate = 1.0 if u else 0.0
    if fixmatch:
        # renormalize mean-over-passing to mu*B
        mask_rate = counts[1] / u
        l_unsup *= mask_rate
        dprobs[unlabeled_at:defending_at] *= mask_rate
    grads = nn.backward(model, trace, dprobs, work)
    total = l_sup + l_unsup + l_rld
    return LossBreakdown(l_sup, l_unsup, l_rld, total, mask_rate), grads


def steps_per_epoch(n_labeled: int, n_unlabeled: int, spec: BatchSpec) -> int:
    if spec.mu > 0:
        return max(1, -(-n_unlabeled // (spec.mu * spec.b)))
    return max(1, -(-n_labeled // spec.b))


_LOGGED = ("l_sup", "l_unsup", "l_rld", "mask_rate")  # each record holds their step means


def adapt(
    model: nn.MlpModel,
    feedback,
    train: LabeledSet,
    cfg: AdaptConfig,
    seed,
    test_set: Optional[LabeledSet] = None,
    observer: Optional[Callable] = None,
    thresholds=None,
) -> tuple:
    """Adapt a model from its feedback; returns (adapted copy, per-epoch
    records). The model's head picks the rule: a softmax model takes one
    TargetSplit; a sigmoid model takes one per finding and the findings'
    frozen thresholds, and its records nest bank sizes per finding. With
    test_set, each record scores the model on it (accuracy or mean AUROC).

    RNG discipline: three independent substreams (batch order, augmentation,
    retrieval) spawn from the seed, so enabling defending samples cannot
    perturb the baseline's draws. Each epoch draws every step's batch
    indices at its start, in the order step-by-step drawing takes, then
    builds its bank. Retrieval runs once per epoch unless the strategy reads
    the model; then each step retrieves from the model as trained so far.
    """
    rule = SOFTMAX_RULE if thresholds is None else SigmoidRule(np.asarray(thresholds, dtype=float))
    if model.head != rule.head:
        need = "needs" if thresholds is None else "takes no"
        raise ConfigError(f"a {model.head} model {need} thresholds")
    if rule.head == nn.SIGMOID and cfg.algorithm != PSEUDO_LABEL:
        raise ConfigError("binary mode supports the pseudo-label engine only")
    units, unlabeled_idx = rule.units(feedback, train)
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
            labeled = train.points[picked[..., 0]], picked[..., 1]
            defending = bank_mod._retrieve_split(
                cur_bank, *labeled, cfg.rld, retrieval_rng, epoch=epoch
            )
        batches = build_minibatch(
            train, picked, unlabeled, defending, cfg, rule, model.output_dim
        )
        l_sup = l_unsup = l_rld = mask_rate = 0.0  # the step sums: float64 adds
        for i in range(n_steps):
            if defending is not None and defending[0] is None:
                # the strategy reads the model: retrieve from it as trained so far
                batches.put_defending(i, bank_mod.retrieve_defending(
                    cur_bank, labeled[0][i], labeled[1][i], cfg.rld, retrieval_rng,
                    model=model, epoch=epoch,
                )[0])
            if observer is not None:
                observer(epoch, i, batches.batch(i))
            losses, grads = _step(model, batches, i, cfg, augmenter, augment_rng, buffers)
            if not math.isfinite(losses.l_total):
                raise NumericError(
                    f"non-finite loss {losses.l_total} at epoch {epoch} step {i}"
                )
            nn.sgd_step(model, grads, cfg.sgd, state)
            l_sup += losses.l_sup
            l_unsup += losses.l_unsup
            l_rld += losses.l_rld
            mask_rate += losses.unsup_mask_rate
        fallbacks = sum(batches.fallbacks)
        means = (s / n_steps for s in (l_sup, l_unsup, l_rld, mask_rate))
        record = dict(zip(_LOGGED, means), epoch=epoch, bank={
            "sizes": rule.sizes(cur_bank) if cur_bank is not None else [],
            "fallbacks": fallbacks,
        })
        if test_set is not None:
            record["test_acc"] = float(rule.score(model, test_set))
        records.append(record)
    return model, records


def adapt_binary(model, splits, train, thresholds, cfg, seed, test_set=None) -> tuple:
    """adapt with thresholds, kept under the name by which the benchmark's
    tracer finds and counts binary adaptation loops; the package never calls it."""
    return adapt(model, splits, train, cfg, seed, test_set, thresholds=thresholds)


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
            dprobs = nn._term_gradient(model, trace.probs, epoch_targets[start:stop], buffers)
            nn.sgd_step(model, nn.backward(model, trace, dprobs, buffers), sgd_cfg, state)
    return model
