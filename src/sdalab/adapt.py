"""Semi-supervised adaptation: one epoch loop, one step, both output heads.

The loop runs on labelled units, an array of (sample index, label) rows.
For a softmax head a unit's label is its class; for a sigmoid head over F
findings, per-finding feedback becomes one unit per (sample, finding, value)
cell with label 2*finding + value. The model's head picks a small rule that
derives units and pool from the feedback, turns labels and predictions into
loss targets, builds the epoch's bank (a sigmoid head's per-finding banks
read as one of 2F classes) and scores, so one loop serves both heads. It is
the head's one object: the runner's stages read their per-head steps there.

Each epoch starts by laying out everything the model does not decide, for
every step at once (build_minibatch): the batch indices, drawn in the
order step-by-step drawing takes; the candidate bank and the epoch's one
retrieval plan (bank.RetrievalPlan), whatever the strategy, with every
step's defending labels and counts; each step's stacked input rows, from
one gather; and each step's loss targets and mask, checked once, with the
term bounds and the counts that do not depend on the model. A step then
writes its defending points into its rows (the plan's step: one take, after
the cosine_distant features, dot products and picks, which read the model)
and computes only what the current model decides: FixMatch-lite's
augmented views (written over their rows), the pseudo labels or
FixMatch's mask (written into the targets), and the passes. The
plan of all this is made once per run and reused every epoch: the draws'
schedule and permutation tiles (_Draws), the layout arrays that every
epoch is laid out in, the views each step reads (_Epoch), and the
StepBuffers that the passes and each epoch's score run on, and the
arrays that the cosine_distant picks write, which each epoch's retrieval
plan hands on to the next.

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
from . import feedback as feedback_mod
from . import metrics, nn
from .data import LabeledSet, rms_radius
from .errors import ConfigError, NumericError, ShapeError

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
    """Softmax head: a label is a class, scored by top-1 accuracy; the
    feedback is one TargetSplit; an unlabelled target is the argmax."""

    head = nn.SOFTMAX
    metric = "test_acc"
    per_cell = False  # the loss scores one cell per row, its target's

    @staticmethod
    def labels_of(labeled):
        return labeled.labels

    @staticmethod
    def operating_points(model, source_test) -> tuple:
        return None, None  # no thresholds, so no degenerate flags

    @staticmethod
    def feedback(train, model, thresholds, spec, seed) -> feedback_mod.TargetSplit:
        return feedback_mod.simulate_feedback(train, model, spec, seed)

    @staticmethod
    def shortages(split) -> dict:
        return dict(split.provenance.get("shortage", {}))

    @staticmethod
    def units(split: feedback_mod.TargetSplit, train) -> tuple:
        """(units, pool) of one split, each in canonical order however the
        split lists it, so streaming replays reproduce offline runs."""
        units = np.array(sorted(split.labeled), dtype=np.int64).reshape(-1, 2)
        return units, np.array(sorted(split.unlabeled), dtype=np.int64)

    @staticmethod
    def score(model, labeled, buffers=None) -> float:
        return metrics.top1_accuracy(model, labeled.points, labeled.labels, buffers)

    def epoch_targets(self, labels, pseudo, n_outputs) -> tuple:
        """(targets, mask) of an epoch's scored rows, labels shaped (steps,
        rows): the classes, checked once, and no mask. The rows at pseudo
        (a slice) take pseudo labels, written by pseudo_targets each step."""
        nn._checked_targets(labels.reshape(-1), n_outputs)
        return labels, None

    @staticmethod
    def pseudo_targets(probs, out) -> None:
        nn.argmax_rows(probs, out)

    def bank(self, model, points, indices, p, epoch) -> bank_mod.CandidateBank:
        return bank_mod.generate_bank(
            model, points, indices, p, model.output_dim, epoch_stamp=epoch
        )

    def sizes(self, bank: bank_mod.CandidateBank) -> list:
        return bank.sizes()


@dataclass
class SigmoidRule:
    """Sigmoid head over len(thresholds) findings, scored by mean AUROC: the
    feedback is one TargetSplit per finding, at operating points chosen on
    held-out source data and then frozen; label 2*finding + value names one
    cell, trained by BCE masked to that finding; an unlabelled point's
    targets are its own thresholded predictions."""

    thresholds: np.ndarray
    head = nn.SIGMOID
    metric = "mean_auroc"
    per_cell = True  # the loss scores every cell of every row: no weak view here

    @staticmethod
    def labels_of(labeled):
        return labeled.findings

    @staticmethod
    def operating_points(model, source_test) -> tuple:
        return metrics.source_thresholds(model, source_test.points, source_test.findings)

    @staticmethod
    def feedback(train, model, thresholds, spec, seed) -> list:
        return feedback_mod.simulate_feedback_binary(train, model, spec, thresholds, seed)

    @staticmethod
    def shortages(splits) -> dict:
        return {f"finding{j}:{key}": missing for j, s in enumerate(splits)
                for key, missing in s.provenance.get("shortage", {}).items()}

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
    def score(model, labeled, buffers=None) -> float:
        return metrics.mean_auroc(model, labeled, buffers)

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
# the runner's stages call static members, which look each stage up in its module
RULES = {nn.SOFTMAX: SoftmaxRule, nn.SIGMOID: SigmoidRule}


def _views(cfg: AdaptConfig, u: int) -> int:
    """How many times a step's u unlabelled points enter its forward pass:
    twice under fixmatch_lite (the weak view and the strong view), else once."""
    return 2 if cfg.algorithm == FIXMATCH_LITE and u else 1


class _Epoch:
    """Every step of one epoch, laid out once (module docstring). One run
    lays out every epoch in the arrays of its first (build_minibatch's
    into), so the views each step reads are cut once per run (cut), and
    the loss plan once per defending count.

    Row i of inputs holds step i's forward input, stacked: b labelled rows,
    u unlabelled rows, then defending[i] defending rows; under fixmatch_lite
    the unlabelled rows come twice, as the weak view's slot and then the
    strong view's, each holding the raw points until the step writes its
    view there. Row i of labels, targets and mask (when there is a mask) holds
    the step's scored rows, all but the weak view's, in the same order: the
    labelled ones, u pseudo-labelled ones (labels holds a placeholder
    there) and the defending ones; row_cells holds the flat index of each
    one's first probability (its forward row * n_outputs), None where the
    loss scores every cell (rule.per_cell). Steps with fewer defending rows
    than room leave their tails unused, so each step's rows are a
    contiguous prefix of its row. index holds the rows of train.points that inputs
    gathers, 0 in every defending slot, whose points the retrieval plan's
    step writes (defending_slot).
    """

    def __init__(self, steps, b, u, room, dim, cfg, rule, n_outputs):
        self.b, self.u, self.room, self.rule, self.n_outputs = b, u, room, rule, n_outputs
        self.views = _views(cfg, u)
        self.head = b + self.views * u  # where the defending rows start
        self.index = np.zeros((steps, self.head + room), dtype=np.int64)
        self.inputs = np.empty((*self.index.shape, dim))
        self.labels = np.zeros((steps, b + u + room), dtype=np.int64)
        rows = np.arange(b + u + room)
        rows[b:] += self.head - b - u
        self.row_cells = None if rule.per_cell else rows * n_outputs
        self.unlabeled_rows = np.arange(u)
        self.targets = self.mask = None
        self.cuts, self.plans = {}, {}

    def fill(self, points, picked, unlabeled, plan) -> None:
        """Lay out an epoch's draws (build_minibatch) in place."""
        b, u, steps = self.b, self.u, len(self.index)
        d_labels, counts, fallbacks = (
            (np.zeros(0, dtype=np.int64), [0] * steps, [0] * steps) if plan is None
            else (plan.labels, plan.counts, plan.fallbacks)
        )
        self.defending, self.fallbacks = counts, fallbacks
        index, labels = self.index, self.labels
        index[:, :b] = picked[..., 0]
        for view in range(self.views):
            index[:, b + view * u : b + (view + 1) * u] = unlabeled
        points.take(index, axis=0, out=self.inputs)
        labels[:, :b] = picked[..., 1]
        if self.room:
            tail = labels[:, b + u :]
            tail.fill(0)
            tail[np.arange(self.room) < np.array(counts)[:, None]] = d_labels
        targets, mask = self.rule.epoch_targets(labels, slice(b, b + u), self.n_outputs)
        if self.targets is None:
            self.targets, self.mask = targets, np.ones(labels.shape) if self.views == 2 else mask
        elif targets is not self.targets:  # a rule that makes new arrays each epoch
            self.targets[...] = targets
            self.mask[...] = mask

    def cut(self, i) -> tuple:
        """Step i's views, made at first use for its defending count d: d,
        its forward input, its targets, its mask (or None), its unlabelled
        rows' targets and their count, and its loss plan, which every step
        with d defending rows shares."""
        d = self.defending[i]
        found = self.cuts.get((i, d))
        if found is None:
            b, u = self.b, self.u
            scored = b + u + d
            targets = self.targets[i, :scored]
            plan = self.plans.get(d)
            if plan is None:
                cells = None if self.row_cells is None else self.row_cells[:scored]
                plan = self.plans[d] = nn._LossPlan(
                    self.head + d, self.n_outputs, ((0, b), (b, b + u), (b + u, scored)), cells
                )
            found = self.cuts[i, d] = (
                d, self.inputs[i, : self.head + d], targets,
                None if self.mask is None else self.mask[i, :scored],
                targets[b : b + u], targets[b : b + u].size, plan,
            )
        return found

    def defending_slot(self, i) -> np.ndarray:
        """The rows laid out for step i's defending points, which the
        retrieval plan's step writes as the step runs (their labels are
        there already)."""
        return self.inputs[i, self.head : self.head + self.defending[i]]

    def batch(self, i) -> "MiniBatch":
        """Step i as a MiniBatch of copies, which later epochs, laid out in
        the same arrays, and fixmatch_lite's views leave alone."""
        b, u, d = self.b, self.u, self.defending[i]
        return MiniBatch(
            self.inputs[i, :b].copy(), self.labels[i, :b].copy(),
            self.inputs[i, b : b + u].copy(),
            self.inputs[i, self.head : self.head + d].copy(),
            self.labels[i, b + u : b + u + d].copy(), self.fallbacks[i],
        )


def build_minibatch(
    train: LabeledSet,
    picked: np.ndarray,
    unlabeled: np.ndarray,
    plan,
    cfg: AdaptConfig,
    rule,
    n_outputs: int,
    into: Optional[_Epoch] = None,
) -> _Epoch:
    """Every step of one epoch, laid out from its draws: picked holds each
    step's labelled units (steps, b, 2), unlabeled its unlabelled sample
    indices (steps, mu*b), and plan the epoch's bank.RetrievalPlan, None
    for no defending pairs. One gather from train.points fills the
    labelled and unlabelled rows of every step, and the plan's defending
    labels go into their slots; its steps write their points into
    defending_slot as the steps run. The layout goes into the arrays of
    into, an earlier epoch of the same run (the same draws' shapes, cfg and
    rule), where its defending slots hold every step's rows; else into new
    ones, with room for cfg.rld.k rows per labelled unit."""
    steps, u = unlabeled.shape
    counts = [0] if plan is None else plan.counts
    if into is None or max(counts) > into.room:
        room = max(max(counts), cfg.rld.k * picked.shape[1] if cfg.rld is not None else 0)
        into = _Epoch(steps, picked.shape[1], u, room, train.points.shape[1], cfg, rule, n_outputs)
    into.fill(train.points, picked, unlabeled, plan)
    return into


class _Draws:
    """Every step's draws of an epoch, planned once per run and drawn each
    epoch (draw): labelled units and unlabelled sample indices.

    Each pool is read without replacement through one permutation after
    another, drawn afresh each epoch: a pool of size P draws its first
    permutation as the epoch starts and its j-th (j >= 1) in the step that
    first reads element j*P, the labelled pool first within a step. The rng
    is called in that order, as step-by-step cycling samplers would call it.
    Each permutation shuffles its own copy of the pool in place, which is
    what rng.permutation does, with the same draws. A pool's copies are the
    rows of one (permutations, P) tile, refilled from the pool each epoch,
    and each run of its permutations with no draw from the other pool
    between them is one rng.permuted call over those rows (a block), which
    draws what shuffling row after row draws.
    """

    def __init__(self, units, unlabeled_idx, spec: BatchSpec, n_steps: int):
        pools = [(np.arange(len(units)), spec.b)]
        if spec.mu > 0:
            pools.append((unlabeled_idx, spec.mu * spec.b))
        schedule, self.tiles = [], []  # schedule: (step, pool, permutation), step -1 as the epoch starts
        for p, (pool, per_step) in enumerate(pools):
            size = len(pool)
            if size == 0:
                raise ConfigError("cannot sample from an empty pool")
            needed = -(-n_steps * per_step // size)
            schedule += [(j * size // per_step if j else -1, p, j) for j in range(needed)]
            self.tiles.append((np.empty((needed, size), pool.dtype), pool))
        self.blocks = []  # in the order the rng shuffles them
        for p, run in itertools.groupby(sorted(schedule), key=lambda event: event[1]):
            rows = [j for _, _, j in run]  # consecutive permutations of pool p
            self.blocks.append(self.tiles[p][0][rows[0] : rows[-1] + 1])
        self.draws = [
            tile.reshape(-1)[: n_steps * per_step].reshape(n_steps, per_step)
            for (tile, _), (_, per_step) in zip(self.tiles, pools)
        ]
        if spec.mu == 0:
            self.draws.append(np.empty((n_steps, 0), dtype=np.int64))
        self.units = units

    def draw(self, rng) -> tuple:
        """One epoch's draws: labelled units shaped (steps, b, 2), a new
        array, and unlabelled sample indices shaped (steps, mu*b), a view of
        the plan that the next draw rewrites."""
        for tile, pool in self.tiles:
            tile[:] = pool
        for block in self.blocks:
            rng.permuted(block, axis=1, out=block)
        return self.units[self.draws[0]], self.draws[1]


def _step(model, epoch: _Epoch, i, cfg, augmenter, rng, work: nn.StepBuffers) -> tuple:
    """Step i of epoch (module docstring): one forward pass over its rows,
    stacked labelled, unlabelled (for fixmatch_lite the weak view, then the
    strong view), defending; one loss pass that scores each term over its
    own contiguous rows and divides by its own count; one backward pass.
    The weak view's rows get no target, so zero upstream gradient, which
    detaches them. Only what the model decides is computed here: the views,
    the pseudo labels (or FixMatch's mask) and the losses."""
    b, u, rule = epoch.b, epoch.u, epoch.rule
    d, inputs, targets, mask, pseudo, n_pseudo, plan = epoch.cut(i)
    defending_at = epoch.head
    unlabeled_at = defending_at - u  # the strong view's rows under fixmatch
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
    counts = [b, n_pseudo, d]
    if fixmatch:
        weak_probs = probs[b:unlabeled_at]
        labels = nn.argmax_rows(weak_probs, pseudo)
        passing = weak_probs[epoch.unlabeled_rows, labels] >= cfg.confidence_threshold
        mask[b : b + u] = passing
        counts[1] = int(np.count_nonzero(passing))
    else:
        # pseudo targets are detached: computed from probs, never differentiated
        rule.pseudo_targets(probs[unlabeled_at:defending_at], pseudo)
    (l_sup, l_unsup, l_rld), dprobs = nn._terms(probs, targets, counts, mask, plan)
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
    builds its bank and lays out its one retrieval plan, for every strategy:
    a model-free strategy draws every step's rows there, from the retrieval
    substream in the order of one draw per step. Each step then takes its
    defending rows from the plan (bank.retrieve_step), cosine_distant's
    after picking them from the model as trained so far.
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
    records, batches, plan = [], None, None
    n_steps = steps_per_epoch(len(units), len(unlabeled_idx), cfg.batch)
    # the epoch plan: the draws' here, the layout's in batches from the first epoch on
    draws = _Draws(units, unlabeled_idx, cfg.batch, n_steps) if cfg.epochs else None

    for epoch in range(cfg.epochs):
        picked, unlabeled = draws.draw(batch_rng)
        cur_bank = None
        if cfg.rld is not None:
            cur_bank = rule.bank(
                model, train.points[unlabeled_idx], unlabeled_idx, cfg.rld.p, epoch
            )
            plan = bank_mod.RetrievalPlan(
                cur_bank, train.points[picked[..., 0]], picked[..., 1], cfg.rld, retrieval_rng,
                epoch, plan,
            )
        batches = build_minibatch(
            train, picked, unlabeled, plan, cfg, rule, model.output_dim, batches
        )
        l_sup = l_unsup = l_rld = mask_rate = 0.0  # the step sums: float64 adds
        for i in range(n_steps):
            if plan is not None:
                bank_mod.retrieve_step(plan, i, model, batches.defending_slot(i))
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
            record["test_acc"] = float(rule.score(model, test_set, buffers))
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
    its shuffled rows once, into arrays whose step slices are cut once per
    run, and the steps of one row count share one loss plan."""
    softmax = model.head == nn.SOFTMAX
    targets = np.asarray(labels, dtype=np.int64 if softmax else np.float64)
    expect = (len(targets),) if softmax else (len(targets), model.output_dim)
    if targets.shape != expect:
        raise ShapeError(f"targets shape {targets.shape}, expected {expect}")
    targets = nn._checked_targets(targets, model.output_dim if softmax else None)
    state, buffers = nn.SgdState.zeros_like(model), nn.StepBuffers(model)
    epoch_points, epoch_targets = np.empty_like(points), np.empty_like(targets)
    starts, width = range(0, len(points), batch_size), model.output_dim
    rows = [min(batch_size, len(points) - start) for start in starts]
    plans = {n: nn._LossPlan(n, width, ((0, n),), np.arange(n) * width if softmax else None)
             for n in set(rows)}
    steps = [(epoch_points[start : start + n], epoch_targets[start : start + n], plans[n])
             for start, n in zip(starts, rows)]
    for _ in range(epochs):
        order = rng.permutation(len(points))
        points.take(order, axis=0, out=epoch_points)
        targets.take(order, axis=0, out=epoch_targets)
        for step_points, step_targets, plan in steps:
            trace = nn.forward(model, step_points, buffers)
            dprobs = nn._term_gradient(trace.probs, step_targets, plan)
            nn.sgd_step(model, nn.backward(model, trace, dprobs, buffers), sgd_cfg, state)
    return model
