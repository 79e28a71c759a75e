"""Tests for augmentation, batch assembly, engine steps, and the adapt loop."""

import itertools
import math
from dataclasses import astuple, replace
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
import pytest

from sdalab import adapt, bank, data, feedback, metrics, nn, runner
from sdalab.config import ExperimentConfig
from sdalab.data import LabeledSet
from sdalab.errors import ConfigError, NumericError, ShapeError
from test_nn import (
    max_rel_error, numeric_gradients, verbatim_loss_bce, verbatim_loss_bce_masked,
    verbatim_loss_ce,
)


def make_split(train, per_class=3, seed=0):
    """RF split without needing a trained model."""
    rng = np.random.default_rng(seed)
    labeled = []
    for cls in range(train.num_classes):
        members = np.flatnonzero(train.labels == cls)
        picks = rng.choice(members, size=per_class, replace=False)
        labeled += [(int(i), int(cls)) for i in picks]
    labeled.sort()
    chosen = {i for i, _ in labeled}
    unlabeled = [i for i in range(len(train)) if i not in chosen]
    return feedback.TargetSplit(labeled, unlabeled, provenance={"policy": "rf"})


def units_of(split):
    """The split's (sample index, label) rows, as the adapt loop holds them."""
    return np.array(split.labeled, dtype=np.int64)


def draw_batch(train, split, spec, rng, cur_bank=None, rld_cfg=None, retrieval_rng=None):
    """An epoch's first batch as the adapt loop assembles it: the step's
    draws from rng, the epoch's retrieval plan for its units, and the epoch
    laid out by build_minibatch, read back as step 0's MiniBatch once the
    plan's step 0 has written its defending points."""
    picked, unlabeled = adapt._Draws(units_of(split), np.array(split.unlabeled), spec, 1).draw(rng)
    plan = None
    if rld_cfg is not None:
        plan = bank.RetrievalPlan(
            cur_bank, train.points[picked[..., 0]], picked[..., 1], rld_cfg, retrieval_rng
        )
    cfg = adapt.AdaptConfig(batch=spec)
    n_outputs = int(train.labels.max()) + 1
    epoch = adapt.build_minibatch(
        train, picked, unlabeled, plan, cfg, adapt.SOFTMAX_RULE, n_outputs
    )
    if plan is not None:
        bank.retrieve_step(plan, 0, None, epoch.defending_slot(0))
    return epoch.batch(0)


def one_step(model, batch, cfg, rule=adapt.SOFTMAX_RULE, augmenter=None, rng=None):
    """The epoch loop's step on one batch: the batch laid out as a one-step
    epoch by adapt.build_minibatch, as the loop lays out its epochs, its
    defending points written into their slot as a plan's step writes them,
    then adapt._step; fixmatch_lite draws its views from rng, weak first.
    Returns (losses, gradients)."""
    b, u, d = (len(batch.labeled_points), len(batch.unlabeled_points),
               len(batch.defending_points))
    train = LabeledSet(np.concatenate([batch.labeled_points, batch.unlabeled_points]),
                       np.zeros(b + u), data.TARGET)
    picked = np.stack([np.arange(b), batch.labeled_labels], axis=1).astype(np.int64)
    # what build_minibatch reads of a retrieval plan
    plan = SimpleNamespace(labels=np.asarray(batch.defending_labels, dtype=np.int64),
                           counts=[d], fallbacks=[batch.fallback_events])
    epoch = adapt.build_minibatch(
        train, picked[None], np.arange(b, b + u)[None], plan, cfg, rule, model.output_dim
    )
    epoch.defending_slot(0)[...] = batch.defending_points
    return adapt._step(model, epoch, 0, cfg, augmenter, rng, nn.StepBuffers(model))


class CyclingSampler:
    """Epoch-shuffled without-replacement cycling over a fixed index pool:
    the sampler the epoch loop drew its batches with before it drew a whole
    epoch at once, kept verbatim as the oracle for adapt._Draws."""

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


@pytest.fixture(scope="module")
def toy():
    _, target = data.make_pair(data.BlobsSpec(samples_per_class=60), seed=3)
    split = make_split(target, per_class=3, seed=1)
    model = nn.MlpModel.init([2, 16, 16, 3], nn.SOFTMAX, np.random.default_rng(0))
    return target, split, model


# centroid (0, 0) and RMS radius 1: each fraction is the sigma itself
UNIT_RADIUS = np.array([[1.0, 0.0], [-1.0, 0.0]])


class TestAugmenter:
    def test_zero_weak_noise_is_identity(self):
        aug = adapt.Augmenter(adapt.AugmenterSpec(0.0, 0.5), UNIT_RADIUS)
        pts = np.random.default_rng(0).normal(size=(10, 2))
        out = aug.weak(pts, np.random.default_rng(1))
        assert out is pts

    def test_degenerate_strong_is_identity(self):
        aug = adapt.Augmenter(adapt.AugmenterSpec(0.0, 0.0, (1.0, 1.0)), UNIT_RADIUS)
        pts = np.random.default_rng(0).normal(size=(10, 2))
        assert aug.strong(pts, np.random.default_rng(1)) is pts

    def test_weak_noise_variance_monte_carlo(self):
        sigma = 0.3
        aug = adapt.Augmenter(adapt.AugmenterSpec(sigma, sigma), UNIT_RADIUS)
        pts = np.zeros((100_000, 2))
        delta = aug.weak(pts, np.random.default_rng(2)) - pts
        assert abs(delta.var() - sigma**2) < 0.05 * sigma**2

    def test_strong_scale_moves_along_centroid_ray(self):
        aug = adapt.Augmenter(  # centroid (1, 1)
            adapt.AugmenterSpec(0.0, 0.0, (0.9, 1.1)), UNIT_RADIUS + 1.0
        )
        pts = np.array([[3.0, 2.0], [0.0, 5.0], [-2.0, 0.5]])
        out = aug.strong(pts, np.random.default_rng(3))
        centered_in = pts - 1.0
        centered_out = out - 1.0
        scales = centered_out / centered_in
        for row in scales:
            assert row[0] == pytest.approx(row[1], abs=1e-12)
            assert 0.9 <= row[0] <= 1.1

    def test_sigmas_scale_with_rms_radius(self):
        pts = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]) + 5.0
        aug = adapt.Augmenter(adapt.AugmenterSpec(0.1, 0.2), pts)
        assert aug.weak_std == pytest.approx(0.1 * math.sqrt(2.0))
        assert aug.strong_std == pytest.approx(0.2 * math.sqrt(2.0))
        assert np.array_equal(aug.centroid, [5.0, 5.0])

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            adapt.AugmenterSpec(0.5, 0.1)
        with pytest.raises(ConfigError):
            adapt.AugmenterSpec(0.0, 0.0, (1.2, 1.4))


class TestCyclingSampler:
    def test_one_epoch_covers_pool_exactly_once(self):
        pool = np.arange(10, 30)
        sampler = CyclingSampler(pool, np.random.default_rng(0))
        seen = np.concatenate([sampler.take(7), sampler.take(7), sampler.take(6)])
        assert sorted(seen.tolist()) == pool.tolist()

    def test_cycles_reshuffle(self):
        pool = np.arange(5)
        sampler = CyclingSampler(pool, np.random.default_rng(1))
        first = sampler.take(5)
        second = sampler.take(5)
        assert sorted(first.tolist()) == sorted(second.tolist()) == pool.tolist()

    def test_take_spanning_boundary_keeps_counts(self):
        sampler = CyclingSampler(np.arange(6), np.random.default_rng(2))
        batch = sampler.take(10)
        assert len(batch) == 10
        counts = np.bincount(batch, minlength=6)
        assert counts.min() >= 1 and counts.max() <= 2

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            CyclingSampler([], np.random.default_rng(0))


# (labelled units, unlabelled pool, mu) at b = 16: pools smaller than a batch,
# exact multiples of it and of mu*b, pools that wrap mid-step, and mu = 0
DRAW_CASES = [
    (labeled, pool, mu)
    for labeled in (1, 3, 9, 15, 16, 17, 32, 45, 48)
    for pool in (1, 5, 16, 112, 113, 224, 950)
    for mu in (0, 1, 7)
]


class TestDrawEpoch:
    @pytest.mark.parametrize("labeled, pool, mu", DRAW_CASES)
    def test_matches_cycling_samplers(self, labeled, pool, mu):
        # the samplers are made afresh each epoch and draw step by step,
        # labelled first; the epoch draw must pick the same units and
        # leave the rng where they leave it
        spec = adapt.BatchSpec(b=16, mu=mu)
        units = np.stack([np.arange(labeled) * 3 + 1, np.arange(labeled) % 4], axis=1)
        unlabeled_idx = np.arange(pool) * 2
        n_steps = adapt.steps_per_epoch(labeled, pool, spec)
        seed = labeled * 1000 + pool * 10 + mu
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = adapt._Draws(units, unlabeled_idx, spec, n_steps)
        for _ in range(3):
            picked, unlabeled = draws.draw(rng)
            labeled_sampler = CyclingSampler(np.arange(labeled), ref_rng)
            unlabeled_sampler = CyclingSampler(unlabeled_idx, ref_rng) if mu else None
            assert picked.shape == (n_steps, 16, 2) and unlabeled.shape == (n_steps, mu * 16)
            for i in range(n_steps):
                assert np.array_equal(picked[i], units[labeled_sampler.take(16)])
                if mu:
                    assert np.array_equal(unlabeled[i], unlabeled_sampler.take(mu * 16))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_empty_pool_rejected(self):
        spec = adapt.BatchSpec(b=4, mu=1)
        with pytest.raises(ConfigError, match="empty pool"):
            adapt._Draws(np.zeros((0, 2), dtype=np.int64), np.arange(5), spec, 1)


def verbatim_draw_epoch(units, unlabeled_idx, spec, n_steps, rng):
    """adapt's epoch draw as it was before its plan was made once per run,
    kept verbatim as the oracle for the run's plan, adapt._Draws."""
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
        order = np.empty((needed, size), pool.dtype)
        order[:] = pool
        orders.append(order)
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


class TestEpochPlan:
    """A run makes its draw plan once and draws every epoch from it."""

    # (labelled units, unlabelled pool, mu): the default labelled pool of 9
    # units, smaller than one step's b = 16, with the default mu and mu = 0
    @pytest.mark.parametrize("labeled, pool, mu", [
        (9, 950, 7), (9, 950, 0), (9, 5, 1), (16, 112, 7), (45, 113, 1), (17, 1, 0), (48, 224, 7),
    ])
    def test_three_epochs_match_the_verbatim_draw(self, labeled, pool, mu):
        spec = adapt.BatchSpec(b=16, mu=mu)
        units = np.stack([np.arange(labeled) * 3 + 1, np.arange(labeled) % 4], axis=1)
        unlabeled_idx = np.arange(pool) * 2
        n_steps = adapt.steps_per_epoch(labeled, pool, spec)
        draws = adapt._Draws(units, unlabeled_idx, spec, n_steps)
        seed = labeled * 1000 + pool * 10 + mu
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            picked, unlabeled = draws.draw(rng)
            want_picked, want_unlabeled = verbatim_draw_epoch(
                units, unlabeled_idx, spec, n_steps, ref_rng
            )
            assert np.array_equal(picked, want_picked)
            assert np.array_equal(unlabeled, want_unlabeled)
            assert picked.dtype == want_picked.dtype and unlabeled.dtype == want_unlabeled.dtype
            assert unlabeled.shape == (n_steps, mu * 16)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBuildMinibatch:
    def test_rld_composition_16_64_48(self, toy):
        train, split, model = toy
        spec = adapt.BatchSpec(b=16, mu=4)
        rld_cfg = bank.RldConfig(p=0.4, k=3)
        b = bank.generate_bank(
            model, train.points[np.array(split.unlabeled)],
            np.array(split.unlabeled), 0.4, 3,
        )
        mb = draw_batch(
            train, split, spec, np.random.default_rng(0), b, rld_cfg, np.random.default_rng(1)
        )
        assert len(mb.labeled_points) == 16
        assert len(mb.unlabeled_points) == 64
        assert len(mb.defending_points) == 48

    def test_baseline_composition_16_112_0(self, toy):
        train, split, model = toy
        spec = adapt.BatchSpec(b=16, mu=7)
        mb = draw_batch(train, split, spec, np.random.default_rng(0))
        assert len(mb.labeled_points) == 16
        assert len(mb.unlabeled_points) == 112
        assert len(mb.defending_points) == 0

    def test_defending_labels_match_paired_ground_truth(self, toy):
        train, split, model = toy
        spec = adapt.BatchSpec(b=9, mu=1)
        rld_cfg = bank.RldConfig(p=1.0, k=2)
        b = bank.generate_bank(
            model, train.points[np.array(split.unlabeled)],
            np.array(split.unlabeled), 1.0, 3,
        )
        mb = draw_batch(
            train, split, spec, np.random.default_rng(2), b, rld_cfg, np.random.default_rng(3)
        )
        if mb.fallback_events == 0:
            np.testing.assert_array_equal(
                mb.defending_labels, np.repeat(mb.labeled_labels, 2)
            )

    def test_labeled_labels_are_ground_truth(self, toy):
        train, split, model = toy
        mb = draw_batch(train, split, adapt.BatchSpec(b=9, mu=0), np.random.default_rng(4))
        label_of = dict(split.labeled)
        # points in the batch correspond to labeled-pool indices with their labels
        for p, y in zip(mb.labeled_points, mb.labeled_labels):
            matches = [i for i, lab in split.labeled if np.allclose(train.points[i], p)]
            assert any(label_of[i] == y for i in matches)

    def test_step_retrieval_fills_its_slot_or_raises(self, toy):
        # the defending points arrive as the step runs, written by the
        # epoch plan's step into the slot laid out for them; a slot of the
        # wrong length must not pass, a single row (which would broadcast
        # an assignment over the slot) included
        train, split, model = toy
        unlabeled_idx = np.array(split.unlabeled)
        cur_bank = bank.generate_bank(model, train.points[unlabeled_idx], unlabeled_idx, 1.0, 3)
        rld_cfg = bank.RldConfig(p=1.0, k=2, strategy=bank.COSINE_DISTANT)
        picked, unlabeled = adapt._Draws(
            units_of(split), unlabeled_idx, adapt.BatchSpec(b=4, mu=1), 2
        ).draw(np.random.default_rng(5))
        labeled = train.points[picked[..., 0]], picked[..., 1]
        plan = bank.RetrievalPlan(cur_bank, *labeled, rld_cfg, np.random.default_rng(6))
        epoch = adapt.build_minibatch(
            train, picked, unlabeled, plan, adapt.AdaptConfig(), adapt.SOFTMAX_RULE, 3
        )
        points, labels, _ = bank.retrieve_defending(
            cur_bank, labeled[0][1], labeled[1][1], rld_cfg, None, model=model
        )
        slot = epoch.defending_slot(1)
        assert len(slot) == len(points)
        for wrong in (slot[:1], slot[:-1], np.empty((len(slot) + 1, 2))):
            with pytest.raises(ValueError, match="output array does not match"):
                bank.retrieve_step(plan, 1, model, wrong)
        bank.retrieve_step(plan, 1, model, slot)
        mb = epoch.batch(1)
        assert np.array_equal(mb.defending_points, points)
        assert np.array_equal(mb.defending_labels, labels)


def saturated_model():
    """Passthrough network whose huge logits make softmax outputs exactly one-hot."""
    w1 = np.eye(2) * 1.0
    b1 = np.full(2, 50.0)  # keeps ReLU active over the cloud
    w2 = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    b2 = np.zeros(2)
    return nn.MlpModel([2, 2, 2], [w1, w2], [b1, b2])


def toy_augmenter(points):
    return adapt.Augmenter(adapt.AugmenterSpec(0.03, 0.15, (0.9, 1.1)), points)


def step_rows(batch, cfg, augmenter, seed):
    """The rows one step stacks, in its order, with the views drawn from
    default_rng(seed) as the step draws them: (rows, (start, stop) of the
    labelled, weak or unlabelled, strong or empty, and defending slices)."""
    unlabeled = [batch.unlabeled_points]
    if cfg.algorithm == adapt.FIXMATCH_LITE and len(batch.unlabeled_points):
        rng = np.random.default_rng(seed)
        weak = augmenter.weak(batch.unlabeled_points, rng)
        unlabeled = [weak, augmenter.strong(batch.unlabeled_points, rng)]
    parts = [batch.labeled_points, *unlabeled, batch.defending_points]
    if len(parts) == 3:
        parts.insert(2, np.zeros((0, 2)))
    stops = np.cumsum([len(p) for p in parts])
    return np.concatenate(parts), list(zip([0, *stops[:-1]], stops))


# The step as it was before it scored its terms in one loss pass, verbatim
# apart from module prefixes: each term takes its own loss call, through the
# rules' supervised and unlabelled losses (inlined below as
# verbatim_supervised and verbatim_unlabeled) on the verbatim loss functions
# of tests/test_nn.py. The one-pass step must give its losses and gradients
# bit for bit.
def verbatim_supervised(rule, probs, labels):
    if isinstance(rule, adapt.SigmoidRule):
        loss, dprobs, _ = verbatim_loss_bce_masked(probs, *rule.targets(labels))
    else:
        loss, dprobs, _ = verbatim_loss_ce(probs, labels)
    return loss, dprobs


def verbatim_unlabeled(rule, probs):
    if isinstance(rule, adapt.SigmoidRule):
        return verbatim_loss_bce(probs, (probs >= rule.thresholds[None, :]).astype(float))
    return verbatim_supervised(rule, probs, nn.argmax_rows(probs))


def verbatim_step(model, batch, cfg, rule=adapt.SOFTMAX_RULE, augmenter=None, rng=None):
    n_labeled = len(batch.labeled_points)
    n_unlabeled = len(batch.unlabeled_points)
    fixmatch = cfg.algorithm == adapt.FIXMATCH_LITE and n_unlabeled > 0
    unlabeled = [batch.unlabeled_points]
    if fixmatch:
        unlabeled = [
            augmenter.weak(batch.unlabeled_points, rng),
            augmenter.strong(batch.unlabeled_points, rng),
        ]
    trace = nn.forward(
        model, np.concatenate([batch.labeled_points, *unlabeled, batch.defending_points])
    )
    probs = trace.probs
    l_sup, dprobs_l = verbatim_supervised(rule, probs[:n_labeled], batch.labeled_labels)
    dprobs = [dprobs_l]
    defending_at = n_labeled + n_unlabeled * len(unlabeled)

    l_unsup = 0.0
    mask_rate = 0.0
    if fixmatch:
        weak_probs = probs[n_labeled : n_labeled + n_unlabeled]
        pseudo = nn.argmax_rows(weak_probs)
        conf = weak_probs[np.arange(n_unlabeled), pseudo]
        mask = conf >= cfg.confidence_threshold
        n_pass = int(mask.sum())
        mask_rate = n_pass / n_unlabeled
        strong_probs = probs[n_labeled + n_unlabeled : defending_at]
        mean_loss, dprobs_s, _ = verbatim_loss_ce(strong_probs, pseudo, mask=mask)
        l_unsup = mean_loss * mask_rate
        dprobs += [np.zeros_like(weak_probs), dprobs_s * mask_rate]
    elif n_unlabeled:
        l_unsup, dprobs_u = verbatim_unlabeled(rule, probs[n_labeled:defending_at])
        dprobs.append(dprobs_u)
        mask_rate = 1.0

    l_rld = 0.0
    if len(batch.defending_points):
        l_rld, dprobs_d = verbatim_supervised(rule, probs[defending_at:], batch.defending_labels)
        dprobs.append(dprobs_d)

    grads = nn.backward(model, trace, np.concatenate(dprobs))
    total = l_sup + l_unsup + l_rld
    return adapt.LossBreakdown(l_sup, l_unsup, l_rld, total, mask_rate), grads


def check_summed_loss_gradient(
    model, batch, cfg, rule=adapt.SOFTMAX_RULE, augmenter=None, seed=0
):
    """Central differences of the step's summed loss, with the pseudo labels
    and the FixMatch mask frozen at the unperturbed model, against the
    step's one backward pass; the summed loss at the unperturbed model must
    be the step's l_total bit for bit. Returns the step's losses."""
    losses, grads = one_step(model, batch, cfg, rule, augmenter, np.random.default_rng(seed))
    rows, (lab, unl, strong, dfd) = step_rows(batch, cfg, augmenter, seed)
    frozen_u = nn.forward(model, rows).probs[slice(*unl)]
    fixmatch = cfg.algorithm == adapt.FIXMATCH_LITE
    sigmoid = isinstance(rule, adapt.SigmoidRule)
    if sigmoid:
        targets = (frozen_u >= rule.thresholds[None, :]).astype(float)
    else:
        pseudo = nn.argmax_rows(frozen_u)
        mask = frozen_u[np.arange(len(frozen_u)), pseudo] >= cfg.confidence_threshold

    def loss_fn(m):
        p = nn.forward(m, rows).probs
        l_sup = verbatim_supervised(rule, p[slice(*lab)], batch.labeled_labels)[0]
        l_unsup = 0.0
        if fixmatch:
            mean, _, _ = verbatim_loss_ce(p[slice(*strong)], pseudo, mask=mask)
            l_unsup = mean * (int(mask.sum()) / len(mask))
        elif len(frozen_u) and sigmoid:
            l_unsup = verbatim_loss_bce(p[slice(*unl)], targets)[0]
        elif len(frozen_u):
            l_unsup = verbatim_loss_ce(p[slice(*unl)], pseudo)[0]
        l_rld = 0.0
        if dfd[1] > dfd[0]:
            l_rld = verbatim_supervised(rule, p[slice(*dfd)], batch.defending_labels)[0]
        return l_sup + l_unsup + l_rld

    assert loss_fn(model) == losses.l_total
    num_w, num_b = numeric_gradients(model, loss_fn)
    assert max_rel_error(grads.weights, num_w) < 1e-4
    assert max_rel_error(grads.biases, num_b) < 1e-4
    return losses


def batch_with_defending(toy, model, b, mu, k):
    """An epoch's first batch with k defending pairs per labelled unit,
    retrieved from a bank that model builds."""
    train, split, _ = toy
    cur_bank = bank.generate_bank(
        model, train.points[np.array(split.unlabeled)], np.array(split.unlabeled), 0.5, 3
    )
    return draw_batch(
        train, split, adapt.BatchSpec(b=b, mu=mu), np.random.default_rng(3),
        cur_bank, bank.RldConfig(p=0.5, k=k), np.random.default_rng(4),
    )


class TestStepPseudoLabel:
    def test_pure_supervised_when_mu_and_k_zero(self, toy):
        train, split, model = toy
        mb = adapt.MiniBatch(
            train.points[:4], train.labels[:4], np.zeros((0, 2)),
            np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
        )
        losses, grads = one_step(model, mb, adapt.AdaptConfig())
        assert losses.l_unsup == 0.0 and losses.l_rld == 0.0
        assert losses.l_total == losses.l_sup
        assert losses.unsup_mask_rate == 0.0

    def test_confident_model_zero_unsup_loss(self):
        model = saturated_model()
        pts = np.array([[1.0, -1.0], [-2.0, 2.0], [3.0, -0.5]])
        mb = adapt.MiniBatch(
            pts[:1], np.array([0]), pts, np.zeros((0, 2)), np.zeros(0, dtype=np.int64)
        )
        losses, _ = one_step(model, mb, adapt.AdaptConfig())
        assert losses.l_unsup == 0.0

    def test_decomposition_holds(self, toy):
        train, split, model = toy
        b = bank.generate_bank(
            model, train.points[np.array(split.unlabeled)],
            np.array(split.unlabeled), 0.5, 3,
        )
        mb = draw_batch(
            train, split, adapt.BatchSpec(b=8, mu=2), np.random.default_rng(1),
            b, bank.RldConfig(p=0.5, k=2), np.random.default_rng(2),
        )
        losses, _ = one_step(model, mb, adapt.AdaptConfig())
        assert abs(losses.l_total - (losses.l_sup + losses.l_unsup + losses.l_rld)) < 1e-9
        assert losses.l_rld > 0.0

    def test_gradient_matches_finite_differences(self, toy):
        model = nn.MlpModel.init([2, 6, 3], nn.SOFTMAX, np.random.default_rng(7))
        mb = batch_with_defending(toy, model, b=4, mu=2, k=2)
        losses = check_summed_loss_gradient(model, mb, adapt.AdaptConfig())
        assert losses.l_unsup > 0.0 and losses.l_rld > 0.0

    def test_sigmoid_rule_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        model = nn.MlpModel.init([2, 6, 2], nn.SIGMOID, rng)
        mb = adapt.MiniBatch(
            rng.normal(size=(5, 2)), rng.integers(0, 4, size=5), rng.normal(size=(9, 2)),
            rng.normal(size=(10, 2)), rng.integers(0, 4, size=10),
        )
        rule = adapt.SigmoidRule(np.array([0.5, 0.45]))
        losses = check_summed_loss_gradient(model, mb, adapt.AdaptConfig(), rule)
        assert losses.l_unsup > 0.0 and losses.l_rld > 0.0

    def test_targets_are_detached(self, toy):
        # Supplying the pseudo labels from a frozen snapshot changes nothing:
        # the engine's gradient treats them as constants. The reference is
        # the step's arithmetic verbatim: one pass over the stacked rows.
        train, split, model = toy
        mb = draw_batch(train, split, adapt.BatchSpec(b=4, mu=3), np.random.default_rng(5))
        _, grads = one_step(model, mb, adapt.AdaptConfig())
        rows = np.concatenate([mb.labeled_points, mb.unlabeled_points])
        n = len(mb.labeled_points)
        pseudo = nn.argmax_rows(nn.forward(model.copy(), rows).probs[n:])
        trace = nn.forward(model, rows)
        _, dp_l, _ = verbatim_loss_ce(trace.probs[:n], mb.labeled_labels)
        _, dp_u, _ = verbatim_loss_ce(trace.probs[n:], pseudo)
        manual = nn.backward(model, trace, np.concatenate([dp_l, dp_u]))
        assert np.array_equal(grads.flat, manual.flat)


class TestStepFixmatchLite:
    def make_batch(self, toy, mu=4, b=4):
        train, split, model = toy
        return draw_batch(train, split, adapt.BatchSpec(b=b, mu=mu), np.random.default_rng(8))

    def augmenter(self, train):
        return toy_augmenter(train.points)

    def test_tau_one_blocks_everything(self, toy):
        train, split, model = toy
        mb = self.make_batch(toy)
        cfg = adapt.AdaptConfig(algorithm=adapt.FIXMATCH_LITE, confidence_threshold=1.0)
        losses, _ = one_step(
            model, mb, cfg, augmenter=self.augmenter(train), rng=np.random.default_rng(0)
        )
        assert losses.l_unsup == 0.0
        assert losses.unsup_mask_rate == 0.0

    def test_tau_zero_passes_everything(self, toy):
        train, split, model = toy
        mb = self.make_batch(toy)
        cfg = adapt.AdaptConfig(algorithm=adapt.FIXMATCH_LITE, confidence_threshold=0.0)
        losses, _ = one_step(
            model, mb, cfg, augmenter=self.augmenter(train), rng=np.random.default_rng(0)
        )
        assert losses.unsup_mask_rate == 1.0
        assert losses.l_unsup > 0.0

    def test_mask_rate_monotone_in_tau(self, toy):
        train, split, model = toy
        mb = self.make_batch(toy, mu=8)
        rates = []
        for tau in (0.0, 0.34, 0.4, 0.6, 0.9, 1.0):
            cfg = adapt.AdaptConfig(algorithm=adapt.FIXMATCH_LITE, confidence_threshold=tau)
            losses, _ = one_step(
                model, mb, cfg, augmenter=self.augmenter(train), rng=np.random.default_rng(42)
            )
            rates.append(losses.unsup_mask_rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_masked_loss_matches_subset_recomputation(self, toy):
        train, split, model = toy
        mb = self.make_batch(toy, mu=6)
        tau = 0.4
        cfg = adapt.AdaptConfig(algorithm=adapt.FIXMATCH_LITE, confidence_threshold=tau)
        aug = self.augmenter(train)
        losses, _ = one_step(model, mb, cfg, augmenter=aug, rng=np.random.default_rng(7))
        # Recreate the same augmented views with the same rng sequence.
        rng = np.random.default_rng(7)
        weak = aug.weak(mb.unlabeled_points, rng)
        strong = aug.strong(mb.unlabeled_points, rng)
        weak_probs = nn.forward(model, weak).probs
        pseudo = nn.argmax_rows(weak_probs)
        conf = weak_probs[np.arange(len(weak)), pseudo]
        passing = conf >= tau
        strong_probs = nn.forward(model, strong).probs
        total = 0.0
        for i in np.flatnonzero(passing):
            total += -math.log(max(strong_probs[i, pseudo[i]], nn.PROB_EPS))
        expected = total / len(weak)  # normalizer is mu*B, not the passing count
        assert losses.l_unsup == pytest.approx(expected, abs=1e-12)
        assert losses.unsup_mask_rate == pytest.approx(passing.mean())

    def gradient_case(self, toy, tau_of_conf):
        """A batch with defending rows, and tau from the weak-view
        confidences the step will see."""
        train = toy[0]
        model = nn.MlpModel.init([2, 5, 3], nn.SOFTMAX, np.random.default_rng(11))
        mb = batch_with_defending(toy, model, b=3, mu=3, k=1)
        aug = self.augmenter(train)
        cfg = adapt.AdaptConfig(algorithm=adapt.FIXMATCH_LITE)
        rows, (_, weak, _, _) = step_rows(mb, cfg, aug, 13)
        conf = nn.forward(model, rows).probs[slice(*weak)].max(axis=1)
        cfg.confidence_threshold = tau_of_conf(conf)
        return model, mb, cfg, aug

    def test_gradient_matches_finite_differences(self, toy):
        model, mb, cfg, aug = self.gradient_case(toy, np.median)
        losses = check_summed_loss_gradient(model, mb, cfg, augmenter=aug, seed=13)
        assert 0.0 < losses.unsup_mask_rate < 1.0 and losses.l_rld > 0.0

    def test_all_masked_gradient_matches_finite_differences(self, toy):
        model, mb, cfg, aug = self.gradient_case(toy, lambda conf: 1.0)
        losses = check_summed_loss_gradient(model, mb, cfg, augmenter=aug, seed=13)
        assert losses.unsup_mask_rate == 0.0 and losses.l_unsup == 0.0


class TestStepPasses:
    """One forward and one backward pass per step, over the stacked rows."""

    @pytest.mark.parametrize("algorithm", adapt.ALGORITHMS)
    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("mu", [0, 3])
    def test_one_forward_one_backward(self, monkeypatch, algorithm, head, k, mu):
        rng = np.random.default_rng(5)
        b, outputs = 4, 3 if head == nn.SOFTMAX else 2
        model = nn.MlpModel.init([2, 6, outputs], head, rng)
        rule = adapt.SOFTMAX_RULE
        if head == nn.SIGMOID:
            rule = adapt.SigmoidRule(np.full(2, 0.5))
        n_labels = outputs if head == nn.SOFTMAX else 2 * outputs
        batch = adapt.MiniBatch(
            rng.normal(size=(b, 2)), rng.integers(0, n_labels, size=b),
            rng.normal(size=(mu * b, 2)),
            rng.normal(size=(k * b, 2)), rng.integers(0, n_labels, size=k * b),
        )
        cfg = adapt.AdaptConfig(algorithm=algorithm, confidence_threshold=0.5)
        aug = toy_augmenter(rng.normal(size=(50, 2)))
        if rejected_before_any_pass(monkeypatch, model, batch, cfg, rule):
            return
        calls = {"forward": [], "backward": []}
        forward, backward = nn.forward, nn.backward

        def counting_forward(m, inputs, buffers=None):
            calls["forward"].append(np.array(inputs))
            return forward(m, inputs, buffers)

        def counting_backward(m, trace, dprobs, buffers=None):
            calls["backward"].append(np.array(dprobs))
            return backward(m, trace, dprobs, buffers)

        monkeypatch.setattr(nn, "forward", counting_forward)
        monkeypatch.setattr(nn, "backward", counting_backward)
        one_step(model, batch, cfg, rule, aug, np.random.default_rng(9))
        assert len(calls["forward"]) == 1 and len(calls["backward"]) == 1
        monkeypatch.undo()

        rows, (_, unl, strong, _) = step_rows(batch, cfg, aug, 9)
        assert np.array_equal(calls["forward"][0], rows)
        (dprobs,) = calls["backward"]
        assert dprobs.shape == (len(rows), outputs)
        if algorithm == adapt.FIXMATCH_LITE and mu:
            assert strong[1] > strong[0]
            assert not dprobs[slice(*unl)].any()  # the weak view is detached


def random_step_case(head, k, mu, seed=5, outputs=None, labels_below=None):
    """(model, rule, batch, augmenter): a random batch of 4 labelled, mu*4
    unlabelled and k*4 defending rows; labels are drawn below labels_below
    (default: every label the head has)."""
    rng = np.random.default_rng(seed)
    b = 4
    outputs = outputs or (3 if head == nn.SOFTMAX else 2)
    model = nn.MlpModel.init([2, 6, outputs], head, rng)
    rule = adapt.SOFTMAX_RULE
    if head == nn.SIGMOID:
        rule = adapt.SigmoidRule(np.full(outputs, 0.5))
    n_labels = labels_below or (outputs if head == nn.SOFTMAX else 2 * outputs)
    batch = adapt.MiniBatch(
        rng.normal(size=(b, 2)), rng.integers(0, n_labels, size=b),
        rng.normal(size=(mu * b, 2)),
        rng.normal(size=(k * b, 2)), rng.integers(0, n_labels, size=k * b),
    )
    return model, rule, batch, toy_augmenter(rng.normal(size=(50, 2)))


def rejected_before_any_pass(monkeypatch, model, batch, cfg, rule):
    """For a sigmoid rule under fixmatch_lite, which binary mode does not
    run: check that adapt.adapt, given the batch's labelled cells as its
    feedback, raises ConfigError before any forward, loss or backward
    pass, and return True. False for any other pair."""
    if not (isinstance(rule, adapt.SigmoidRule) and cfg.algorithm == adapt.FIXMATCH_LITE):
        return False

    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran before the rejection")

    for name in ("forward", "backward", "loss_ce", "loss_bce", "_terms"):
        monkeypatch.setattr(nn, name, no_pass)
    points = np.concatenate([batch.labeled_points, batch.unlabeled_points])
    findings = np.zeros((len(points), len(rule.thresholds)), dtype=np.int64)
    train = LabeledSet(points, np.zeros(len(points)), data.TARGET, findings)
    cells = [(i, int(y)) for i, y in enumerate(batch.labeled_labels)]
    splits = [
        feedback.TargetSplit([(i, y % 2) for i, y in cells if y // 2 == j], [])
        for j in range(len(rule.thresholds))
    ]
    with pytest.raises(ConfigError, match="pseudo-label engine only"):
        adapt.adapt(model, splits, train, cfg, 9, thresholds=rule.thresholds)
    monkeypatch.undo()
    return True


def assert_same_step(monkeypatch, model, batch, cfg, rule, aug, seed=9):
    """one_step and verbatim_step give the same bits: every loss, the
    mask rate, the upstream gradient and the parameter gradient."""
    upstream = []
    backward = nn.backward

    def capturing_backward(m, trace, dprobs, buffers=None):
        upstream.append(np.array(dprobs))
        return backward(m, trace, dprobs, buffers)

    monkeypatch.setattr(nn, "backward", capturing_backward)
    got, got_grads = one_step(model, batch, cfg, rule, aug, np.random.default_rng(seed))
    want, want_grads = verbatim_step(model, batch, cfg, rule, aug, np.random.default_rng(seed))
    monkeypatch.undo()
    got_fields, want_fields = astuple(got), astuple(want)
    assert all(type(v) is float for v in got_fields)
    assert [v.hex() for v in got_fields] == [float(v).hex() for v in want_fields]
    assert upstream[0].tobytes() == upstream[1].tobytes()
    assert got_grads.flat.tobytes() == want_grads.flat.tobytes()
    return got


class TestOneLossPass:
    """The step scores its terms in one loss pass; it must give the bits of
    the step that made one loss call per term (verbatim_step)."""

    @pytest.mark.parametrize("algorithm", adapt.ALGORITHMS)
    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("mu", [0, 3])
    def test_matches_verbatim_step(self, monkeypatch, algorithm, head, k, mu):
        model, rule, batch, aug = random_step_case(head, k, mu)
        cfg = adapt.AdaptConfig(algorithm=algorithm, confidence_threshold=0.5)
        if rejected_before_any_pass(monkeypatch, model, batch, cfg, rule):
            return
        losses = assert_same_step(monkeypatch, model, batch, cfg, rule, aug)
        assert (losses.l_unsup > 0.0) == bool(mu) and (losses.l_rld > 0.0) == bool(k)

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("tau, mask_rate", [(1.0, 0.0), (0.0, 1.0)])
    def test_fixmatch_all_or_none_masked(self, monkeypatch, head, k, tau, mask_rate):
        model, rule, batch, aug = random_step_case(head, k, mu=3, seed=6)
        cfg = adapt.AdaptConfig(algorithm=adapt.FIXMATCH_LITE, confidence_threshold=tau)
        if rejected_before_any_pass(monkeypatch, model, batch, cfg, rule):
            return
        losses = assert_same_step(monkeypatch, model, batch, cfg, rule, aug)
        assert losses.unsup_mask_rate == mask_rate
        assert (losses.l_unsup == 0.0) == (mask_rate == 0.0)

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_fixmatch_partial_masks(self, monkeypatch, head):
        for seed in range(40):
            model, rule, batch, aug = random_step_case(head, k=seed % 3, mu=1 + seed % 7, seed=seed)
            weak = aug.weak(batch.unlabeled_points, np.random.default_rng(seed))
            # tau at one of the weak view's confidences, above the lowest
            conf = np.unique(nn.forward(model, weak).probs.max(axis=1))
            tau = conf[np.random.default_rng(seed).integers(1, len(conf))]
            cfg = adapt.AdaptConfig(algorithm=adapt.FIXMATCH_LITE, confidence_threshold=tau)
            if rejected_before_any_pass(monkeypatch, model, batch, cfg, rule):
                return
            losses = assert_same_step(monkeypatch, model, batch, cfg, rule, aug, seed=seed)
            assert 0.0 < losses.unsup_mask_rate < 1.0

    @pytest.mark.parametrize("algorithm", adapt.ALGORITHMS)
    def test_skip_with_flag_leaves_no_defending_rows(self, monkeypatch, toy, algorithm):
        train, split, model = toy
        silenced = model.copy()
        silenced.biases[-1][2] = -30.0  # nothing is pseudo-labelled 2: its bank class is empty
        unlabeled = np.array(split.unlabeled)
        cur_bank = bank.generate_bank(silenced, train.points[unlabeled], unlabeled, 0.5, 3)
        assert cur_bank.class_size(2) == 0
        labeled = np.flatnonzero(train.labels == 2)[:4]
        cfg_rld = bank.RldConfig(p=0.5, k=2, empty_class_fallback=bank.SKIP_WITH_FLAG)
        defending = bank.retrieve_defending(
            cur_bank, train.points[labeled], train.labels[labeled], cfg_rld,
            np.random.default_rng(0),
        )
        assert defending[0].shape == (0, 2) and defending[2] == 4
        batch = adapt.MiniBatch(
            train.points[labeled], train.labels[labeled], train.points[unlabeled[:12]],
            *defending,
        )
        cfg = adapt.AdaptConfig(algorithm=algorithm, confidence_threshold=0.5)
        losses = assert_same_step(
            monkeypatch, silenced, batch, cfg, adapt.SOFTMAX_RULE, toy_augmenter(train.points)
        )
        assert losses.l_rld == 0.0 and losses.l_total == losses.l_sup + losses.l_unsup

    def test_sigmoid_batch_without_one_finding(self, monkeypatch):
        # labels below 4 name findings 0 and 1 only; finding 2 is never labelled
        model, rule, batch, aug = random_step_case(
            nn.SIGMOID, k=2, mu=3, seed=7, outputs=3, labels_below=4
        )
        assert batch.labeled_labels.max() < 4 and batch.defending_labels.max() < 4
        losses = assert_same_step(monkeypatch, model, batch, adapt.AdaptConfig(), rule, aug)
        assert losses.l_sup > 0.0 and losses.l_unsup > 0.0 and losses.l_rld > 0.0

    @pytest.mark.parametrize("algorithm", adapt.ALGORITHMS)
    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("mu", [0, 3])
    def test_one_loss_evaluation(self, monkeypatch, algorithm, head, k, mu):
        model, rule, batch, aug = random_step_case(head, k, mu)
        cfg = adapt.AdaptConfig(algorithm=algorithm, confidence_threshold=0.5)
        if rejected_before_any_pass(monkeypatch, model, batch, cfg, rule):
            return
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("forward", "backward", "loss_ce", "loss_bce", "_terms"):
            monkeypatch.setattr(nn, name, counting(name, getattr(nn, name)))
        one_step(model, batch, cfg, rule, aug, np.random.default_rng(9))
        monkeypatch.undo()
        # the step's targets are checked as the batch is laid out, so its one
        # loss pass goes to the unchecked core of loss_ce and loss_bce, on a
        # plan that scores one cell a row under softmax and every cell under
        # sigmoid
        names = [name for name, _ in calls]
        assert names.count("forward") == 1 and names.count("backward") == 1
        losses = [(name, args) for name, args in calls if "loss" in name or "terms" in name]
        assert [name for name, _ in losses] == ["_terms"]
        probs, plan = losses[0][1][0], losses[0][1][4]
        if head == nn.SOFTMAX:
            assert plan.row_cells is not None and plan.grads.shape == (len(plan.row_cells),)
        else:
            assert plan.row_cells is None and plan.grads.shape == probs.shape


class TestAdaptLoop:
    def small_cfg(self, **kw):
        defaults = dict(
            algorithm=adapt.PSEUDO_LABEL,
            epochs=2,
            sgd=nn.SgdConfig(0.01, momentum=0.9),
            batch=adapt.BatchSpec(b=4, mu=2),
        )
        defaults.update(kw)
        return adapt.AdaptConfig(**defaults)

    def test_zero_epochs_returns_unchanged_copy(self, toy):
        train, split, model = toy
        out, records = adapt.adapt(model, split, train, self.small_cfg(epochs=0), seed=0)
        assert records == []
        assert out is not model
        for a, b_ in zip(out.weights, model.weights):
            np.testing.assert_array_equal(a, b_)

    def test_scoring_on_the_step_buffers_moves_nothing(self, toy, monkeypatch):
        # a fixmatch_lite step is 16 + 2 * 112 = 240 rows, so a 240-row test
        # set is scored in the very plan the steps run on; the records and
        # the final model must be those of scoring on fresh arrays
        train, split, model = toy
        test_set = LabeledSet(np.concatenate([train.points, train.points[:60]]),
                              np.concatenate([train.labels, train.labels[:60]]), data.TARGET)
        assert len(test_set.points) == 240
        cfg = adapt.AdaptConfig(
            algorithm=adapt.FIXMATCH_LITE, confidence_threshold=0.6, epochs=3,
            augment=adapt.AugmenterSpec(0.03, 0.15, (0.9, 1.1)),
        )
        forward, passes = nn.forward, []

        def spy(m, inputs, buffers=None):
            passes.append((len(inputs), buffers))
            return forward(m, inputs, buffers)

        monkeypatch.setattr(nn, "forward", spy)
        shared = adapt.adapt(model, split, train, cfg, seed=4, test_set=test_set)
        steps = [b for n, b in passes if n == 240 and b is not None]
        assert len({id(b) for b in steps}) == 1 and len(steps) > cfg.epochs  # steps and scores
        monkeypatch.setattr(adapt.SoftmaxRule, "score", staticmethod(
            lambda m, labeled, buffers=None: metrics.top1_accuracy(m, labeled.points, labeled.labels)
        ))
        fresh = adapt.adapt(model, split, train, cfg, seed=4, test_set=test_set)
        assert shared[1] == fresh[1]
        assert shared[0].params.tobytes() == fresh[0].params.tobytes()

    def test_identical_seed_identical_records(self, toy):
        train, split, model = toy
        cfg = self.small_cfg()
        out1, rec1 = adapt.adapt(model, split, train, cfg, seed=5, test_set=train)
        out2, rec2 = adapt.adapt(model, split, train, cfg, seed=5, test_set=train)
        assert rec1 == rec2
        for a, b_ in zip(out1.weights, out2.weights):
            assert a.tobytes() == b_.tobytes()

    def test_batch_composition_every_step(self, toy):
        train, split, model = toy
        seen = []
        cfg = self.small_cfg(
            batch=adapt.BatchSpec(b=8, mu=2), rld=bank.RldConfig(p=0.4, k=2)
        )
        adapt.adapt(
            model, split, train, cfg, seed=1,
            observer=lambda e, s, mb: seen.append(
                (len(mb.labeled_points), len(mb.unlabeled_points), len(mb.defending_points))
            ),
        )
        n_steps = adapt.steps_per_epoch(9, len(split.unlabeled), cfg.batch)
        assert len(seen) == 2 * n_steps
        assert set(seen) == {(8, 16, 16)}

    def test_rld_k_sets_the_pairs_per_unit(self, toy):
        # k lives in the rld config only: each labelled unit gets rld.k pairs
        train, split, model = toy
        for k in (2, 3):
            seen = []
            cfg = self.small_cfg(batch=adapt.BatchSpec(b=4, mu=1), rld=bank.RldConfig(k=k))
            adapt.adapt(
                model, split, train, cfg, seed=0,
                observer=lambda e, s, mb: seen.append(len(mb.defending_points)),
            )
            assert set(seen) == {4 * k}

    def test_k_zero_matches_missing_rld_config(self, toy):
        # rld enabled at adapt.k = 0 gives no rld config: the baseline's run
        train, split, model = toy
        flat = {"adapt.epochs": 2, "adapt.batch_b": 8, "adapt.batch_mu": 3}
        cfg_base = ExperimentConfig(flat).adapt_config()
        cfg_k0 = ExperimentConfig({**flat, "rld.enabled": True, "rld.p": 0.3}).adapt_config()
        assert cfg_k0.rld is None and cfg_k0 == cfg_base
        out1, rec1 = adapt.adapt(model, split, train, cfg_base, seed=9, test_set=train)
        out2, rec2 = adapt.adapt(model, split, train, cfg_k0, seed=9, test_set=train)
        assert rec1 == rec2
        for a, b_ in zip(out1.weights + out1.biases, out2.weights + out2.biases):
            assert np.max(np.abs(a - b_)) == 0.0

    def test_bank_regenerates_once_per_epoch(self, toy):
        train, split, model = toy
        stamps = []
        cfg = self.small_cfg(
            epochs=3,
            batch=adapt.BatchSpec(b=4, mu=2),
            rld=bank.RldConfig(p=0.4, k=1),
        )
        orig = bank.generate_bank

        def spy(*args, **kw):
            b = orig(*args, **kw)
            stamps.append(b.epoch_stamp)
            return b

        import sdalab.adapt as adapt_module

        adapt_module.bank_mod.generate_bank, saved = spy, orig
        try:
            adapt.adapt(model, split, train, cfg, seed=2)
        finally:
            adapt_module.bank_mod.generate_bank = saved
        assert stamps == [0, 1, 2]

    def test_records_follow_schema(self, toy):
        train, split, model = toy
        cfg = self.small_cfg(
            batch=adapt.BatchSpec(b=4, mu=2), rld=bank.RldConfig(p=0.4, k=1)
        )
        _, records = adapt.adapt(model, split, train, cfg, seed=3, test_set=train)
        for i, rec in enumerate(records):
            assert rec["epoch"] == i
            for key in ("l_sup", "l_unsup", "l_rld", "mask_rate", "test_acc"):
                assert isinstance(rec[key], float)
            assert len(rec["bank"]["sizes"]) == 3
            assert isinstance(rec["bank"]["fallbacks"], int)

    def test_non_finite_loss_aborts_with_location(self, toy):
        train, split, model = toy
        broken = model.copy()
        broken.weights[0][0, 0] = np.nan
        with pytest.raises(NumericError, match="epoch 0 step 0"):
            adapt.adapt(broken, split, train, self.small_cfg(), seed=0)

    def test_improves_target_accuracy(self):
        # End-to-end sanity: source-trained model + RF feedback + pseudo-label
        # adaptation should lift target accuracy.
        source, target = data.make_pair(data.BlobsSpec(samples_per_class=150), seed=11)
        t_train, t_test = data.split_train_test(target, 0.8, seed=11)
        model = nn.MlpModel.init([2, 32, 32, 3], nn.SOFTMAX, np.random.default_rng(11))
        adapt.train_supervised(
            model, source.points, source.labels, nn.SgdConfig(0.05, momentum=0.9),
            epochs=20, batch_size=64, rng=np.random.default_rng(12),
        )
        before = float(np.mean(nn.predict(model, t_test.points) == t_test.labels))
        split = make_split(t_train, per_class=3, seed=13)
        cfg = adapt.AdaptConfig(
            algorithm=adapt.PSEUDO_LABEL, epochs=10,
            sgd=nn.SgdConfig(0.01, momentum=0.9), batch=adapt.BatchSpec(b=16, mu=7),
        )
        adapted, _ = adapt.adapt(model, split, t_train, cfg, seed=14, test_set=t_test)
        after = float(np.mean(nn.predict(adapted, t_test.points) == t_test.labels))
        assert after >= before


def reference_binary_defending(banks, picked, k, rng, num_findings, epoch):
    """The per-draw loop adapt_binary used to run inline, kept verbatim."""
    d_points, d_mask, d_targets = [], [], []
    fallbacks = 0
    for _, j, value in picked:
        b = banks[j]
        if b.epoch_stamp != epoch:
            raise ConfigError("stale binary candidate bank")
        size = b.class_size(value)
        if size == 0:
            fallbacks += 1
            continue
        draws = rng.choice(size, size=k, replace=size < k)
        for d in draws:
            d_points.append(b.points[b.class_rows(value)[int(d)]])
            row_mask = np.zeros(num_findings)
            row_tgt = np.zeros(num_findings)
            row_mask[j] = 1.0
            row_tgt[j] = value
            d_mask.append(row_mask)
            d_targets.append(row_tgt)
    if not d_points:
        return None, None, None, fallbacks
    return np.stack(d_points), np.stack(d_targets), np.stack(d_mask), fallbacks


# The binary engine as it was before binary mode ran on the shared loop: its
# loop and banks verbatim apart from module prefixes and names, its step
# ported to the step's arithmetic (one forward pass over the stacked
# labelled, unlabelled and defending rows, one backward pass) with a loss
# call per term on the verbatim loss functions. The shared
# engine must reproduce it bit for bit wherever both draw the same
# defending samples: always under skip_with_flag, and under
# duplicate_labeled while no labelled cell's bank class is empty (the old
# engine skipped such a cell).


def ref_gathered_defending(banks, picked, k, rng, num_findings, epoch) -> tuple:
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
    targets, mask = ref_finding_cells(np.repeat(used, k, axis=0), num_findings)
    return points, targets, mask, fallbacks


def ref_finding_cells(cells, num_findings) -> tuple:
    """(targets, mask), one row per (sample, finding, value) cell: the row
    holds the value at its finding's column, and the mask 1 there, 0 elsewhere."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    at = (np.arange(len(cells)), cells[:, 1])
    targets = np.zeros((len(cells), num_findings))
    mask = np.zeros((len(cells), num_findings))
    targets[at] = cells[:, 2]
    mask[at] = 1.0
    return targets, mask


def ref_adapt_binary(
    model: nn.MlpModel,
    splits: list,
    train: LabeledSet,
    thresholds,
    cfg: adapt.AdaptConfig,
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
    if cfg.algorithm != adapt.PSEUDO_LABEL:
        raise ConfigError("binary mode supports the pseudo-label engine only")
    if cfg.rld is not None and cfg.rld.strategy != bank.CLASS_AWARE_RANDOM:
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
    n_steps = adapt.steps_per_epoch(len(cells), len(unlabeled_idx), cfg.batch)
    for epoch in range(cfg.epochs):
        cell_sampler = CyclingSampler(np.arange(len(cells)), batch_rng)
        unlabeled_sampler = (
            CyclingSampler(unlabeled_idx, batch_rng) if cfg.batch.mu > 0 else None
        )
        banks = None
        if cfg.rld is not None:
            banks = bank.generate_bank_binary(
                model, train.points[unlabeled_idx], unlabeled_idx,
                cfg.rld.p, thresholds, epoch_stamp=epoch,
            )
        sums = {"l_sup": 0.0, "l_unsup": 0.0, "l_rld": 0.0}
        fallbacks = 0
        for step in range(n_steps):
            picked = [cells[int(i)] for i in cell_sampler.take(cfg.batch.b)]
            lb_points = train.points[[c[0] for c in picked]]
            lb_targets, lb_mask = ref_finding_cells(picked, num_findings)
            u_points = np.zeros((0, 2))
            if cfg.batch.mu > 0:
                u_idx = unlabeled_sampler.take(cfg.batch.mu * cfg.batch.b)
                u_points = train.points[u_idx]
            d_points = np.zeros((0, 2))
            if cfg.rld is not None:
                d_points, d_targets, d_mask, missing = ref_gathered_defending(
                    banks, picked, cfg.rld.k, retrieval_rng, num_findings, epoch
                )
                fallbacks += missing

            # one forward over labelled, unlabelled and defending rows, one
            # backward on their stacked upstream gradients
            trace = nn.forward(model, np.concatenate([lb_points, u_points, d_points]))
            n_lb, n_u = len(lb_points), len(u_points)
            l_sup, dprobs, _ = verbatim_loss_bce_masked(trace.probs[:n_lb], lb_targets, lb_mask)
            dprobs = [dprobs]

            l_unsup = 0.0
            if n_u:
                probs_u = trace.probs[n_lb : n_lb + n_u]
                pseudo = (probs_u >= thresholds[None, :]).astype(float)
                l_unsup, dprobs_u = verbatim_loss_bce(probs_u, pseudo)
                dprobs.append(dprobs_u)

            l_rld = 0.0
            if len(d_points):
                l_rld, dprobs_d, _ = verbatim_loss_bce_masked(
                    trace.probs[n_lb + n_u :], d_targets, d_mask
                )
                dprobs.append(dprobs_d)
            grads = nn.backward(model, trace, np.concatenate(dprobs))

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


@pytest.fixture(scope="module")
def binary_toy():
    spec = data.BinarySpec(
        blobs=data.BlobsSpec(samples_per_class=150), num_findings=2,
        prevalences=(0.45, 0.55),
    )
    _, target = data.make_pair(spec, seed=31)
    c = target.points.mean(axis=0)
    model = nn.MlpModel(
        [2, 2, 2], [np.eye(2), np.eye(2)],
        [np.full(2, 10.0), np.array([-(10.0 + c[0]), -(10.0 + c[1])])],
        head=nn.SIGMOID,
    )
    spec_fb = feedback.FeedbackSpec(
        binary_mode_counts=(10, 10), fallback_on_shortage=feedback.FALLBACK_FILL
    )
    splits = feedback.simulate_feedback_binary(
        target, model, spec_fb, [0.5, 0.5], seed=1
    )
    return target, model, splits


class TestAdaptBinary:
    def test_runs_and_records(self, binary_toy):
        target, model, splits = binary_toy
        cfg = adapt.AdaptConfig(
            epochs=2, sgd=nn.SgdConfig(0.01, momentum=0.9),
            batch=adapt.BatchSpec(b=8, mu=2), rld=bank.RldConfig(p=0.4, k=2),
        )
        out, records = adapt.adapt(model, splits, target, cfg, seed=0, thresholds=[0.5, 0.5])
        assert len(records) == 2
        assert records[0]["l_sup"] > 0.0
        assert records[0]["l_rld"] > 0.0
        assert len(records[0]["bank"]["sizes"]) == 2  # one bank per finding

    def test_defending_draws_match_verbatim_loop(self):
        # the per-finding banks read as one bank of 2F classes, retrieved from
        # with skip_with_flag, give what the per-draw loop gave
        rng = np.random.default_rng(61)
        for case in range(30):
            num_findings = int(rng.integers(1, 5))
            model = nn.MlpModel.init([2, 6, num_findings], nn.SIGMOID, rng)
            n = int(rng.integers(4, 80))
            indices = rng.permutation(500)[:n]
            # thresholds near 0 or 1 leave one value of a finding without entries
            thresholds = rng.choice([0.0, 0.5, 1.01], size=num_findings)
            banks = bank.generate_bank_binary(
                model, rng.normal(scale=2.0, size=(n, 2)), indices,
                float(rng.uniform(0.1, 1.0)), thresholds, epoch_stamp=case,
            )
            picked = [
                (int(i), int(j), int(v)) for i, j, v in zip(
                    rng.integers(0, 500, size=16), rng.integers(0, num_findings, size=16),
                    rng.integers(0, 2, size=16),
                )
            ]
            k = int(rng.integers(1, 6))
            merged = bank.CandidateBank.concat(banks)
            labels = [2 * j + v for _, j, v in picked]
            cfg = bank.RldConfig(k=k, empty_class_fallback=bank.SKIP_WITH_FLAG)
            rng_fast, rng_ref = np.random.default_rng(case), np.random.default_rng(case)
            points, got_labels, fallbacks = bank.retrieve_defending(
                merged, np.zeros((16, 2)), labels, cfg, rng_fast, epoch=case
            )
            want = reference_binary_defending(banks, picked, k, rng_ref, num_findings, case)
            assert fallbacks == want[3]
            if want[0] is None:
                assert points.shape == (0, 2)
            else:
                targets, mask = adapt.SigmoidRule(thresholds).targets(got_labels)
                for g, w in zip((points, targets, mask), want[:3]):
                    assert np.array_equal(g, w)
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
        with pytest.raises(ConfigError, match="stale"):
            bank.retrieve_defending(merged, np.zeros((16, 2)), labels, cfg, rng_fast, epoch=case + 1)

    def test_labeled_cells_match_verbatim_loop(self):
        rng = np.random.default_rng(62)
        for case in range(30):
            num_findings = int(rng.integers(1, 6))
            b = int(rng.integers(0, 20))
            picked = [
                (int(i), int(j), int(v)) for i, j, v in zip(
                    rng.integers(0, 50, size=b), rng.integers(0, num_findings, size=b),
                    rng.integers(0, 2, size=b),
                )
            ]
            # the loop adapt_binary used to fill the labelled half with, verbatim
            lb_mask = np.zeros((b, num_findings))
            lb_targets = np.zeros((b, num_findings))
            for row, (_, j, value) in enumerate(picked):
                lb_mask[row, j] = 1.0
                lb_targets[row, j] = value
            rule = adapt.SigmoidRule(np.full(num_findings, 0.5))
            targets, mask = rule.targets([2 * j + v for _, j, v in picked])
            assert targets.dtype == lb_targets.dtype and np.array_equal(targets, lb_targets)
            assert mask.dtype == lb_mask.dtype and np.array_equal(mask, lb_mask)

    def test_determinism(self, binary_toy):
        target, model, splits = binary_toy
        cfg = adapt.AdaptConfig(
            epochs=2, sgd=nn.SgdConfig(0.01, momentum=0.9),
            batch=adapt.BatchSpec(b=8, mu=2),
        )
        a, _ = adapt.adapt(model, splits, target, cfg, seed=4, thresholds=[0.5, 0.5])
        b_, _ = adapt.adapt(model, splits, target, cfg, seed=4, thresholds=[0.5, 0.5])
        for wa, wb in zip(a.weights, b_.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_requires_findings(self, toy, binary_toy):
        train, split, _ = toy
        _, model, splits = binary_toy
        cfg = adapt.AdaptConfig(epochs=1, batch=adapt.BatchSpec(b=4, mu=0))
        with pytest.raises(ConfigError, match="findings"):
            adapt.adapt(model, splits, train, cfg, seed=0, thresholds=[0.5, 0.5])

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("mu", [0, 2])
    # at (0, 1.01) every point is positive for finding 0 and negative for
    # finding 1, so half the bank classes are empty from the first epoch on
    @pytest.mark.parametrize("thresholds", [(0.5, 0.5), (0.0, 1.01)])
    def test_matches_separate_engine(self, binary_toy, k, mu, thresholds):
        # the separate engine skipped a cell whose bank class is empty
        target, model, splits = binary_toy
        rld = bank.RldConfig(p=0.4, k=k, empty_class_fallback=bank.SKIP_WITH_FLAG) if k else None
        cfg = adapt.AdaptConfig(
            epochs=3, sgd=nn.SgdConfig(0.01, momentum=0.9, weight_decay=0.015),
            batch=adapt.BatchSpec(b=8, mu=mu), rld=rld,
        )
        got, got_rows = adapt.adapt(
            model, splits, target, cfg, seed=6, test_set=target, thresholds=thresholds
        )
        want, want_rows = ref_adapt_binary(
            model, splits, target, thresholds, cfg, seed=6,
            test_eval=lambda m: metrics.mean_auroc(m, target),
        )
        assert np.array_equal(got.params, want.params)
        assert got_rows == want_rows
        if k and thresholds == (0.0, 1.01):
            assert got_rows[0]["bank"]["fallbacks"] > 0

    @pytest.mark.parametrize("strategy", bank.STRATEGIES)
    def test_every_strategy_and_fallback_runs_deterministically(self, binary_toy, strategy):
        target, model, splits = binary_toy
        thresholds = [0.5, 1.01]  # finding 1 has no positive candidates
        adapted = []
        for fallback in (bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG):
            cfg = adapt.AdaptConfig(
                epochs=1, sgd=nn.SgdConfig(0.01, momentum=0.9),
                batch=adapt.BatchSpec(b=8, mu=0),
                rld=bank.RldConfig(p=0.4, k=2, strategy=strategy, empty_class_fallback=fallback),
            )
            a, rows_a = adapt.adapt(model, splits, target, cfg, seed=3, thresholds=thresholds)
            b_, rows_b = adapt.adapt(model, splits, target, cfg, seed=3, thresholds=thresholds)
            assert np.array_equal(a.params, b_.params)
            assert rows_a == rows_b
            assert not np.array_equal(a.params, model.params)
            assert rows_a[0]["l_rld"] > 0.0
            assert rows_a[0]["bank"]["sizes"][1][1] == 0
            # unconditioned draws ignore the labelled cell's class, so never fall back
            assert (rows_a[0]["bank"]["fallbacks"] > 0) == (strategy != bank.UNCONDITIONED_RANDOM)
            adapted.append(a.params)
        # the fallback decides what a cell whose class is empty trains on
        assert np.array_equal(*adapted) == (strategy == bank.UNCONDITIONED_RANDOM)

    @pytest.mark.parametrize(
        "strategy", [bank.CLASS_AWARE_RANDOM, bank.KMEANS_CENTER, bank.COSINE_DISTANT]
    )
    def test_duplicate_labeled_repeats_the_cell(self, binary_toy, strategy):
        target, model, _ = binary_toy
        rule = adapt.SigmoidRule(np.array([0.5, 1.01]))
        unlabeled = np.arange(40, len(target))
        merged = rule.bank(model, target.points[unlabeled], unlabeled, 0.4, epoch=0)
        assert merged.num_classes == 4 and merged.class_size(3) == 0  # finding 1, value 1
        points, labels = target.points[:3], np.array([3, 0, 3])
        cfg = bank.RldConfig(k=4, strategy=strategy, empty_class_fallback=bank.DUPLICATE_LABELED)
        d_points, d_labels, fallbacks = bank.retrieve_defending(
            merged, points, labels, cfg, np.random.default_rng(0), model=model, epoch=0
        )
        assert fallbacks == 2
        assert np.array_equal(d_labels, np.repeat(labels, 4))
        assert np.array_equal(d_points[:4], np.repeat(points[:1], 4, axis=0))
        assert np.array_equal(d_points[8:], np.repeat(points[2:], 4, axis=0))
        targets, mask = rule.targets(d_labels[8:])
        assert np.array_equal(targets, np.tile([0.0, 1.0], (4, 1)))
        assert np.array_equal(mask, np.tile([0.0, 1.0], (4, 1)))


class TestEntryPointHeads:
    """The model's head picks the rule: a sigmoid model without thresholds
    and a softmax model with them are rejected before any bank is built and
    before any pass."""

    @staticmethod
    def forbid_work(monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a bank or a pass ran before the rejection")

        for name in ("forward", "backward", "_terms"):
            monkeypatch.setattr(nn, name, no_work)
        for name in ("generate_bank", "generate_bank_binary"):
            monkeypatch.setattr(bank, name, no_work)

    def test_adapt_rejects_a_sigmoid_model(self, monkeypatch, toy):
        train, split, _ = toy
        model = nn.MlpModel.init([2, 6, 3], nn.SIGMOID, np.random.default_rng(0))
        cfg = adapt.AdaptConfig(epochs=1, rld=bank.RldConfig(p=0.5, k=2))
        self.forbid_work(monkeypatch)
        with pytest.raises(ConfigError, match="a sigmoid model needs thresholds"):
            adapt.adapt(model, split, train, cfg, seed=0)

    def test_adapt_binary_rejects_a_softmax_model(self, monkeypatch, binary_toy):
        target, _, splits = binary_toy
        model = nn.MlpModel.init([2, 6, 2], nn.SOFTMAX, np.random.default_rng(0))
        cfg = adapt.AdaptConfig(epochs=1, rld=bank.RldConfig(p=0.5, k=2))
        self.forbid_work(monkeypatch)
        with pytest.raises(ConfigError, match="a softmax model takes no thresholds"):
            adapt.adapt_binary(model, splits, target, [0.5, 0.5], cfg, seed=0)

    def test_adapt_rejects_thresholds_on_a_softmax_model(self, monkeypatch, toy):
        train, split, model = toy
        cfg = adapt.AdaptConfig(epochs=1, rld=bank.RldConfig(p=0.5, k=2))
        self.forbid_work(monkeypatch)
        with pytest.raises(ConfigError, match="a softmax model takes no thresholds"):
            adapt.adapt(model, split, train, cfg, seed=0, thresholds=[0.5, 0.5, 0.5])


class TestRuleUnits:
    """The rules derive the loop's units and pool from the feedback."""

    def test_softmax_units_are_the_split_in_canonical_order(self, toy):
        train, split, _ = toy
        units, pool = adapt.SOFTMAX_RULE.units(split, train)
        assert np.array_equal(units, units_of(split))
        assert np.array_equal(pool, np.array(split.unlabeled))
        shuffled = feedback.TargetSplit(split.labeled[::-1], split.unlabeled[::-1])
        got = adapt.SOFTMAX_RULE.units(shuffled, train)
        assert all(np.array_equal(g, w) for g, w in zip(got, (units, pool)))

    def test_sigmoid_pool_is_every_sample_with_no_cell(self, binary_toy):
        target, _, splits = binary_toy
        assert all(split.unlabeled == [] for split in splits)
        units, pool = adapt.SigmoidRule(np.array([0.5, 0.5])).units(splits, target)
        assert np.array_equal(units, binary_units(splits))
        with_cell = {i for split in splits for i, _ in split.labeled}
        assert pool.dtype == np.int64
        assert pool.tolist() == [i for i in range(len(target)) if i not in with_cell]

    def test_sigmoid_rule_rejects_feedback_with_no_cell(self, binary_toy):
        target, _, splits = binary_toy
        empty = [feedback.TargetSplit([], []) for _ in splits]
        with pytest.raises(ConfigError, match="no feedback cells"):
            adapt.SigmoidRule(np.array([0.5, 0.5])).units(empty, target)

    def test_adapt_binary_is_adapt_with_thresholds(self, binary_toy):
        target, model, splits = binary_toy
        cfg = adapt.AdaptConfig(epochs=2, batch=adapt.BatchSpec(b=8, mu=2),
                                rld=bank.RldConfig(p=0.4, k=2))
        got = adapt.adapt_binary(model, splits, target, [0.5, 0.5], cfg, 7, test_set=target)
        want = adapt.adapt(model, splits, target, cfg, 7, target, thresholds=[0.5, 0.5])
        assert np.array_equal(got[0].params, want[0].params)
        assert got[1] == want[1] and "test_acc" in got[1][0]



# The loop as it ran before an epoch's batches were drawn up front: each step
# drew its batch from the samplers and retrieved its defending pairs itself.
# Kept verbatim (names prefixed ref_) as the oracle for the epoch loop.


def ref_build_minibatch(
    train: LabeledSet,
    units: np.ndarray,
    cand_bank: Optional[bank.CandidateBank],
    spec: adapt.BatchSpec,
    rld_cfg: Optional[bank.RldConfig],
    labeled_sampler: CyclingSampler,
    unlabeled_sampler: Optional[CyclingSampler],
    retrieval_rng: np.random.Generator,
    model: Optional[nn.MlpModel] = None,
    epoch: Optional[int] = None,
) -> adapt.MiniBatch:
    """One batch: b labelled units (labeled_sampler draws rows of the
    (sample index, label) array units), mu*b unlabelled points and k
    defending pairs per labelled unit."""
    picked = units[labeled_sampler.take(spec.b)]
    lb_points = train.points[picked[:, 0]]
    lb_labels = picked[:, 1]
    if spec.mu > 0:
        ulb_points = train.points[unlabeled_sampler.take(spec.mu * spec.b)]
    else:
        ulb_points = np.zeros((0, 2))
    if rld_cfg is not None:
        if cand_bank is None:
            raise ConfigError("k > 0 requires a candidate bank")
        def_pts, def_lab, fallbacks = bank.retrieve_defending(
            cand_bank, lb_points, lb_labels, rld_cfg, retrieval_rng, model=model, epoch=epoch
        )
    else:
        def_pts, def_lab, fallbacks = np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 0
    return adapt.MiniBatch(lb_points, lb_labels, ulb_points, def_pts, def_lab, fallbacks)


def ref_adapt_units(
    model, units, unlabeled_idx, train, cfg, seed, rule, evaluate=None, observer=None
) -> tuple:
    """The epoch loop over labelled units (rows of (sample index, label)).

    RNG discipline: three independent substreams (batch order, augmentation,
    retrieval) spawn from the seed, so enabling defending samples cannot
    perturb the baseline's draws.
    """
    model = model.copy()
    batch_ss, augment_ss, retrieval_ss = np.random.SeedSequence(seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    augment_rng = np.random.default_rng(augment_ss)
    retrieval_rng = np.random.default_rng(retrieval_ss)
    if cfg.batch.mu > 0 and len(unlabeled_idx) == 0:
        raise ConfigError("mu > 0 but the unlabeled pool is empty")

    augmenter = adapt.Augmenter(cfg.augment or adapt.AugmenterSpec(), train.points)
    state = nn.SgdState.zeros_like(model)
    records = []
    n_steps = adapt.steps_per_epoch(len(units), len(unlabeled_idx), cfg.batch)

    for epoch in range(cfg.epochs):
        labeled_sampler = CyclingSampler(np.arange(len(units)), batch_rng)
        unlabeled_sampler = (
            CyclingSampler(unlabeled_idx, batch_rng) if cfg.batch.mu > 0 else None
        )
        cur_bank = None
        if cfg.rld is not None:
            cur_bank = rule.bank(
                model, train.points[unlabeled_idx], unlabeled_idx, cfg.rld.p, epoch
            )
        sums = np.zeros(len(adapt._LOGGED))  # float64 adds, bit-equal to Python's
        fallbacks = 0
        for i in range(n_steps):
            batch = ref_build_minibatch(
                train, units, cur_bank, cfg.batch, cfg.rld,
                labeled_sampler, unlabeled_sampler, retrieval_rng,
                model=model, epoch=epoch,
            )
            if observer is not None:
                observer(epoch, i, batch)
            losses, grads = one_step(model, batch, cfg, rule, augmenter, augment_rng)
            if not math.isfinite(losses.l_total):
                raise NumericError(
                    f"non-finite loss {losses.l_total} at epoch {epoch} step {i}"
                )
            nn.sgd_step(model, grads, cfg.sgd, state)
            sums += (losses.l_sup, losses.l_unsup, losses.l_rld, losses.unsup_mask_rate)
            fallbacks += batch.fallback_events
        record = dict(zip(adapt._LOGGED, (sums / n_steps).tolist()), epoch=epoch, bank={
            "sizes": rule.sizes(cur_bank) if cur_bank is not None else [],
            "fallbacks": fallbacks,
        })
        if evaluate is not None:
            record["test_acc"] = float(evaluate(model))
        records.append(record)
    return model, records


def binary_units(splits) -> np.ndarray:
    """A sigmoid head's units: one (sample, 2*finding + value) row per cell."""
    cells = (
        (int(idx), 2 * j + int(value))
        for j, split in enumerate(splits) for idx, value in split.labeled
    )
    return np.array(sorted(cells), dtype=np.int64)


def assert_same_loop(model, fb, train, cfg, seed, thresholds=None) -> list:
    """Run adapt.adapt on the feedback fb, and the step-by-step oracle on the
    units and pool that the head's rule derives from the same feedback;
    every step's batch, the records and the final parameters must be equal.
    Returns the batches."""
    rule = adapt.SOFTMAX_RULE if thresholds is None else adapt.SigmoidRule(np.asarray(thresholds))
    got, want = [], []
    out, records = adapt.adapt(
        model, fb, train, cfg, seed, thresholds=thresholds,
        observer=lambda e, i, mb: got.append((e, i, mb)),
    )
    ref_out, ref_records = ref_adapt_units(
        model, *rule.units(fb, train), train, cfg, seed, rule,
        observer=lambda e, i, mb: want.append((e, i, mb)),
    )
    assert [(e, i) for e, i, _ in got] == [(e, i) for e, i, _ in want]
    for (_, _, a), (_, _, b_) in zip(got, want):
        for name in ("labeled_points", "labeled_labels", "unlabeled_points",
                     "defending_points", "defending_labels"):
            assert np.array_equal(getattr(a, name), getattr(b_, name)), name
        assert a.fallback_events == b_.fallback_events
        assert type(a.fallback_events) is int
    assert records == ref_records
    assert np.array_equal(out.params, ref_out.params)
    return [mb for _, _, mb in got]


EPOCH_CASES = [
    (strategy, fallback, None)
    for strategy in (bank.CLASS_AWARE_RANDOM, bank.UNCONDITIONED_RANDOM, bank.COSINE_DISTANT)
    for fallback in (bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG)
] + [
    # one cluster (k > clusters), clusters = k, and more clusters than any class holds
    (bank.KMEANS_CENTER, fallback, clusters)
    for fallback in (bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG)
    for clusters in (1, 3, 40)
]


class TestEpochRetrieval:
    @pytest.mark.parametrize("strategy,fallback,clusters", EPOCH_CASES)
    def test_matches_step_by_step_loop(self, toy, strategy, fallback, clusters):
        train, split, model = toy
        fitted = adapt.train_supervised(
            model.copy(), train.points, train.labels, nn.SgdConfig(0.05, momentum=0.9),
            epochs=5, batch_size=32, rng=np.random.default_rng(0),
        )
        silenced = fitted.copy()
        silenced.biases[-1][2] = -30.0  # nothing is pseudo-labelled 2: its bank class is empty
        cfg = adapt.AdaptConfig(
            epochs=2, sgd=nn.SgdConfig(0.01, momentum=0.9),
            batch=adapt.BatchSpec(b=8, mu=2),
            rld=bank.RldConfig(
                p=0.1, k=3, strategy=strategy, kmeans_clusters=clusters,
                empty_class_fallback=fallback,
            ),
        )
        unlabeled_idx = np.array(split.unlabeled, dtype=np.int64)
        for m in (fitted, silenced):
            batches = assert_same_loop(m, split, train, cfg, 4)
            fallbacks = sum(mb.fallback_events for mb in batches)
            assert (fallbacks > 0) == (m is silenced and strategy != bank.UNCONDITIONED_RANDOM)
        if clusters == 40:
            sizes = adapt.SOFTMAX_RULE.bank(
                fitted, train.points[unlabeled_idx], unlabeled_idx, 0.1, 0
            ).sizes()
            assert 0 < min(sizes) and max(sizes) < clusters

    @pytest.mark.parametrize("strategy", [bank.CLASS_AWARE_RANDOM, bank.COSINE_DISTANT, None])
    def test_fixmatch_matches_step_by_step_loop(self, toy, strategy):
        # the views are written over the raw points in the epoch's layout;
        # under skip_with_flag the silenced class leaves steps uneven
        train, split, model = toy
        silenced = model.copy()
        silenced.biases[-1][2] = -30.0
        rld = None
        if strategy is not None:
            rld = bank.RldConfig(p=0.3, k=2, strategy=strategy,
                                 empty_class_fallback=bank.SKIP_WITH_FLAG)
        cfg = adapt.AdaptConfig(
            algorithm=adapt.FIXMATCH_LITE, confidence_threshold=0.6, epochs=2,
            sgd=nn.SgdConfig(0.01, momentum=0.9), batch=adapt.BatchSpec(b=8, mu=2), rld=rld,
            augment=adapt.AugmenterSpec(0.03, 0.15, (0.9, 1.1)),
        )
        batches = assert_same_loop(silenced, split, train, cfg, 5)
        if strategy is not None:
            assert len({len(mb.defending_points) for mb in batches}) > 1

    @pytest.mark.parametrize("strategy", bank.STRATEGIES)
    @pytest.mark.parametrize("fallback", [bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG])
    def test_binary_matches_step_by_step_loop(self, binary_toy, strategy, fallback):
        target, model, splits = binary_toy
        cfg = adapt.AdaptConfig(
            epochs=2, sgd=nn.SgdConfig(0.01, momentum=0.9),
            batch=adapt.BatchSpec(b=8, mu=1),
            rld=bank.RldConfig(p=0.4, k=2, strategy=strategy, empty_class_fallback=fallback),
        )
        # threshold 1.01 leaves finding 1's positives empty
        assert_same_loop(model, splits, target, cfg, 6, thresholds=[0.5, 1.01])

    @pytest.mark.parametrize("strategy", bank.STRATEGIES)
    def test_one_retrieval_per_epoch_unless_the_model_is_read(self, toy, monkeypatch, strategy):
        # every strategy lays out one plan an epoch, over every step's 8
        # labelled points, and retrieves through one bank.retrieve_step call
        # a step, both looked up in the bank module; none calls
        # retrieve_defending
        train, split, model = toy
        calls, plans, steps = [], [], []
        original, original_plan, original_step = (
            bank.retrieve_defending, bank.RetrievalPlan, bank.retrieve_step)

        def spy(*args, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        def plan_spy(cur_bank, points, labels, *args):
            plans.append(labels.shape)
            return original_plan(cur_bank, points, labels, *args)

        def step_spy(plan, i, model, out):
            steps.append((i, len(out)))
            return original_step(plan, i, model, out)

        monkeypatch.setattr(bank, "retrieve_defending", spy)
        monkeypatch.setattr(bank, "RetrievalPlan", plan_spy)
        monkeypatch.setattr(bank, "retrieve_step", step_spy)
        cfg = adapt.AdaptConfig(
            epochs=3, batch=adapt.BatchSpec(b=8, mu=2),
            rld=bank.RldConfig(p=0.4, k=2, strategy=strategy),
        )
        adapt.adapt(model, split, train, cfg, seed=0)
        n_steps = adapt.steps_per_epoch(len(split.labeled), len(split.unlabeled), cfg.batch)
        assert calls == [] and plans == [(n_steps, 8)] * 3
        # k rows for each of the 8 labelled points at every step
        assert steps == [(i, 2 * 8) for i in range(n_steps)] * 3


def retrieve_by_calls(patch) -> None:
    """Make adapt's cosine_distant steps take their rows from one
    bank.retrieve_defending call each, on the labelled points and labels
    that the epoch's plan was laid out from, in place of the plan's steps.
    The calls run on the bank module's own plan and step."""
    epochs = []
    plan_class, step = bank.RetrievalPlan, bank.retrieve_step

    def laid_out(cur_bank, points, labels, cfg, rng, epoch=None):
        epochs.append((cur_bank, points, labels, cfg, epoch))
        return plan_class(cur_bank, points, labels, cfg, rng, epoch)

    def one_call(plan, i, model, out):
        cur_bank, points, labels, cfg, epoch = epochs[-1]
        with pytest.MonkeyPatch.context() as own:
            own.setattr(bank, "RetrievalPlan", plan_class)
            own.setattr(bank, "retrieve_step", step)
            rows = bank.retrieve_defending(
                cur_bank, points[i], labels[i], cfg, None, model, epoch)[0]
        assert rows.shape == out.shape
        out[...] = rows

    patch.setattr(bank, "RetrievalPlan", laid_out)
    patch.setattr(bank, "retrieve_step", one_call)


COSINE_RUNS = {
    # the default widths
    "blobs": dict(hidden=[10, 10]),
    # widths where a class slice of the bank's feature pass has bits of its own
    "blobs_h16": dict(hidden=[16, 16]),
    "binary": dict(),
    "fixmatch_lite": dict(
        hidden=[10, 10], algorithm=adapt.FIXMATCH_LITE, confidence_threshold=0.6,
        augment=adapt.AugmenterSpec(0.03, 0.15, (0.9, 1.1)),
    ),
    # one or two entries a class, and none in class 2 at first: picks wrap
    # past a class's size, and points of class 2 are skipped
    "skip_tiny_bank": dict(hidden=[10, 10], p=0.01, skip=True),
}


class TestCosinePlanRun:
    @pytest.mark.parametrize("case", list(COSINE_RUNS))
    def test_matches_one_retrieval_call_per_step(self, toy, binary_toy, monkeypatch, case):
        spec = dict(COSINE_RUNS[case])
        train, fb, model = toy
        thresholds = None
        if case == "binary":
            (train, model, fb), thresholds = binary_toy, [0.5, 1.01]
        else:
            model = nn.MlpModel.init([2, *spec.pop("hidden"), 3], nn.SOFTMAX,
                                     np.random.default_rng(7))
            model = adapt.train_supervised(
                model, train.points, train.labels, nn.SgdConfig(0.05, momentum=0.9),
                epochs=5, batch_size=32, rng=np.random.default_rng(0),
            )
        if spec.pop("skip", False):
            model.biases[-1][2] = -30.0  # nothing is pseudo-labelled 2
        rld = bank.RldConfig(
            p=spec.pop("p", 0.4), k=3, strategy=bank.COSINE_DISTANT,
            empty_class_fallback=bank.SKIP_WITH_FLAG if case == "skip_tiny_bank"
            else bank.DUPLICATE_LABELED,
        )
        cfg = adapt.AdaptConfig(
            epochs=3, sgd=nn.SgdConfig(0.01, momentum=0.9), batch=adapt.BatchSpec(b=8, mu=2),
            rld=rld, **spec,
        )
        out, records = adapt.adapt(model, fb, train, cfg, 4, test_set=train, thresholds=thresholds)
        with monkeypatch.context() as patch:
            retrieve_by_calls(patch)
            ref_out, ref_records = adapt.adapt(
                model, fb, train, cfg, 4, test_set=train, thresholds=thresholds
            )
        assert records == ref_records
        assert np.array_equal(out.params, ref_out.params)
        if case == "skip_tiny_bank":
            assert max(max(r["bank"]["sizes"]) for r in records) < rld.k
            assert records[0]["bank"]["fallbacks"] > 0  # training revives class 2 later


# numpy's Python-level functions whose C code the training path calls
# directly (nn module docstring)
WRAPPERS = ("dot", "einsum", "argmax", "tile", "zeros_like")


def wrapper_calls(monkeypatch, run) -> dict:
    """How often run() calls each of numpy's WRAPPERS."""
    counts = dict.fromkeys(WRAPPERS, 0)
    with monkeypatch.context() as patch:
        for name in WRAPPERS:
            def counted(*args, _name=name, _real=getattr(np, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            patch.setattr(np, name, counted)
        run()
    return counts


WRAPPER_CASES = {
    "pseudo_label": {},
    "fixmatch_lite": dict(
        algorithm=adapt.FIXMATCH_LITE, confidence_threshold=0.6,
        augment=adapt.AugmenterSpec(0.03, 0.15, (0.9, 1.1)),
    ),
    "binary": dict(rld=bank.RldConfig(p=0.4, k=2)),
    "rld_cosine_distant": dict(rld=bank.RldConfig(p=0.4, k=2, strategy=bank.COSINE_DISTANT)),
    # finding 1 has no positive candidates at thresholds [0.5, 1.01], so
    # steps skip a varying number of cells
    "binary_cosine_distant_skip_with_flag": dict(rld=bank.RldConfig(
        p=0.4, k=2, strategy=bank.COSINE_DISTANT, empty_class_fallback=bank.SKIP_WITH_FLAG,
    )),
    "rld_kmeans_center": dict(
        rld=bank.RldConfig(p=0.4, k=3, strategy=bank.KMEANS_CENTER, kmeans_clusters=3)
    ),
}


class TestNoWrappersPerEpoch:
    """No step and no epoch calls one of numpy's WRAPPERS: a run of 2 epochs
    calls each as often as a run of 1. Calls made once per run may stay."""

    @pytest.mark.parametrize("case", list(WRAPPER_CASES))
    def test_adapt(self, toy, binary_toy, monkeypatch, case):
        train, fb, model = toy
        thresholds = None
        if case.startswith("binary"):
            (train, model, fb), thresholds = binary_toy, [0.5, 0.5]
            if case.endswith("skip_with_flag"):
                thresholds = [0.5, 1.01]
        cfg = adapt.AdaptConfig(
            sgd=nn.SgdConfig(0.01, momentum=0.9), batch=adapt.BatchSpec(b=8, mu=2),
            **WRAPPER_CASES[case],
        )
        counts = [
            wrapper_calls(monkeypatch, lambda: adapt.adapt(
                model, fb, train, replace(cfg, epochs=epochs), seed=0, test_set=train,
                thresholds=thresholds,
            ))
            for epochs in (1, 2)
        ]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_train_supervised(self, toy, binary_toy, monkeypatch, head):
        train, _, model = toy
        labels = train.labels
        if head == nn.SIGMOID:
            train, model, _ = binary_toy
            labels = train.findings
        counts = [
            wrapper_calls(monkeypatch, lambda: adapt.train_supervised(
                model.copy(), train.points, labels, nn.SgdConfig(0.05, momentum=0.9),
                epochs=epochs, batch_size=32, rng=np.random.default_rng(0),
            ))
            for epochs in (1, 2)
        ]
        assert counts[0] == counts[1]


def plans_made(monkeypatch, run) -> int:
    """How many nn._LossPlan objects run() makes."""
    made = []

    class Counted(nn._LossPlan):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(nn, "_LossPlan", Counted)
        run()
    return len(made)


PLAN_CASES = {
    "pseudo_label": {},
    "fixmatch_lite": WRAPPER_CASES["fixmatch_lite"],
    "rld_cosine_distant": WRAPPER_CASES["rld_cosine_distant"],
    "binary": dict(rld=bank.RldConfig(p=0.4, k=2)),
    # finding 1 has no positive candidates at these thresholds, so steps
    # skip a varying number of cells
    "binary_skip_with_flag": dict(
        rld=bank.RldConfig(p=0.4, k=2, empty_class_fallback=bank.SKIP_WITH_FLAG)
    ),
}


class TestLossPlansPerRun:
    """A training loop makes its loss plans once per run: adaptation one per
    distinct defending count of its steps, pretraining one per batch row
    count, however many epochs it runs."""

    @pytest.mark.parametrize("case", list(PLAN_CASES))
    def test_adapt(self, toy, binary_toy, monkeypatch, case):
        train, fb, model = toy
        thresholds = None
        if case.startswith("binary"):
            (train, model, fb), thresholds = binary_toy, [0.5, 0.5]
            if case == "binary_skip_with_flag":
                thresholds = [0.5, 1.01]
        cfg = adapt.AdaptConfig(
            sgd=nn.SgdConfig(0.01, momentum=0.9), batch=adapt.BatchSpec(b=8, mu=2),
            **PLAN_CASES[case],
        )
        made, counts = [], []
        for epochs in (1, 3):
            seen = set()
            made.append(plans_made(monkeypatch, lambda: adapt.adapt(
                model, fb, train, replace(cfg, epochs=epochs), seed=0, test_set=train,
                thresholds=thresholds,
                observer=lambda epoch, i, batch: seen.add(len(batch.defending_points)),
            )))
            counts.append(seen)
        assert made == [len(seen) for seen in counts]
        if case == "binary_skip_with_flag":
            assert made[0] > 1  # steps of one epoch hold several counts
        else:
            assert made == [1, 1]

    @pytest.mark.parametrize("kind, plans", [("blobs", 1), ("moons", 2)])
    def test_train_supervised(self, monkeypatch, kind, plans):
        # the source training set of the runner's pretraining stage
        cfg = ExperimentConfig({"dataset.kind": kind})
        source = runner.make_data(cfg, 0).source_train
        assert len(source) == {"blobs": 960, "moons": 800}[kind]
        model = nn.MlpModel.init(cfg.model_dims(), cfg.head(), np.random.default_rng(0))
        made = [
            plans_made(monkeypatch, lambda: adapt.train_supervised(
                model.copy(), source.points, source.labels, nn.SgdConfig(0.05, momentum=0.9),
                epochs=epochs, batch_size=64, rng=np.random.default_rng(0),
            ))
            for epochs in (1, 3)
        ]
        assert made == [plans, plans]
