"""Time one buffered training pass of each kind at the row counts the
training loops run, one default pretraining, and one retrieval step under
`cosine_distant`, `kmeans_center` and `class_aware_random`: the figures the
nn module docstring and README quote.

    python3 tools/pass_costs.py                  # 7 rounds
    python3 tools/pass_costs.py --rounds 1 --calls 50

Run it from the root of a checkout. The softmax ("ce") rows run the blobs
default model, [2, 10, 10, 3], and each row count is one loop's step: 64
rows a pretraining step, whose loss core is `nn._term_gradient`; 128 a
pseudo-label step (16 labelled and 112 unlabelled rows); 176 an rld step at
k = 3 (48 defending rows more); 240 a `fixmatch_lite` step (16 labelled
rows, then the weak and the strong view of 112 unlabelled ones, 128 rows
scored). The sigmoid ("bce") row runs the binary default model, [2, 10, 10,
4], on a 128-row pseudo-label step over its 4 findings. From 128 rows the
loss core is `nn._terms` over the step's three terms, on the step's loss
plan, which picks cross-entropy or BCE: each such step is step 0 of a
one-step epoch that `adapt.build_minibatch` lays out under the head's rule,
as the adaptation loop lays out its epochs. Every pass runs on one
`nn.StepBuffers` per model, as the loops run theirs.

The retrieval rows run epoch 0 of the stock blobs rld run (seed 0,
`adapt.k = 3`) under the strategy they name, as `adapt.adapt` runs an
epoch: the epoch's bank from the pretrained model, its draws (16 labelled
points a step), the epoch's `bank.RetrievalPlan`, laid out once, and
every step's `bank.retrieve_step` into its slot of the epoch's layout, on
the pretrained model. Each call replays the same epoch from the same rng
state, as an epoch after a run's first: its bank is new to the arrays that
the `cosine_distant` picks write, which the plan of the call before hands
on. A call is the whole epoch's retrieval; the row gives it per step,
the plan's share included.

A round times each item once: `--calls` calls in a row, divided by their
count. The items' order rotates by one from round to round, so that a drift
in the machine's speed falls on every item alike. It prints, per step, the
minimum over the rounds of the microseconds per call of `nn.forward`, the
loss core, `nn.backward` and `nn.sgd_step`, then the minimum over the
rounds of one pretraining at stock settings (seed 0, blobs), in
milliseconds, and of a step's retrieval under each strategy, in
microseconds.
"""

import argparse
import functools
import os
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from sdalab import adapt, bank, data, nn, runner  # noqa: E402
from sdalab.config import load_config, stage_seed  # noqa: E402
from sdalab.data import LabeledSet  # noqa: E402

# (head's loss, rows) of each step timed, in the order loss_steps yields them
STEP_ROWS = (("ce", 64), ("ce", 128), ("ce", 176), ("ce", 240), ("bce", 128))
PASSES = ("forward", "loss", "backward", "sgd_step")
B, U = 16, 112  # the default labelled and unlabelled rows of an adaptation step
# the (algorithm, k) of the 128-, 176- and 240-row softmax adaptation steps
STEPS = ((adapt.PSEUDO_LABEL, 0), (adapt.PSEUDO_LABEL, 3), (adapt.FIXMATCH_LITE, 0))
FINDINGS = 4
# the strategies of the retrieval rows
RETRIEVALS = (bank.COSINE_DISTANT, bank.KMEANS_CENTER, bank.CLASS_AWARE_RANDOM)


def epoch_step(rng, algorithm, k, rule, n_outputs):
    """Step 0 of a one-step epoch of B labelled rows, U unlabelled ones and
    k defending rows per labelled one, as adapt.build_minibatch lays it out
    under rule, with random labels and pseudo targets: its forward input,
    and the loss core over its scored rows on its loss plan."""
    sigmoid = rule.head == nn.SIGMOID
    n_labels = 2 * n_outputs if sigmoid else n_outputs  # a finding's cell, or a class
    points = rng.normal(scale=3.0, size=(B + U + k * B, 2))
    train = LabeledSet(points[: B + U], np.zeros(B + U, dtype=np.int64), data.TARGET)
    picked = np.stack([np.arange(B), rng.integers(0, n_labels, size=B)], axis=1)[None]
    # what build_minibatch reads of a retrieval plan
    plan = SimpleNamespace(labels=rng.integers(0, n_labels, size=k * B), counts=[k * B],
                           fallbacks=[0]) if k else None
    cfg = adapt.AdaptConfig(algorithm=algorithm, rld=bank.RldConfig(k=k) if k else None)
    epoch = adapt.build_minibatch(train, picked, np.arange(B, B + U)[None], plan, cfg,
                                  rule, n_outputs)
    epoch.defending_slot(0)[...] = points[B + U :]
    d, inputs, targets, mask, pseudo, n_pseudo, plan = epoch.cut(0)
    pseudo[...] = rng.integers(0, 2 if sigmoid else n_outputs, size=pseudo.shape)
    return inputs, functools.partial(nn._terms, targets=targets, counts=[B, n_pseudo, d],
                                     mask=mask, plan=plan)


def loss_steps(rng):
    """(model, inputs, loss) of each step of STEP_ROWS: loss(probs) runs the
    step's loss core on probs. First a 64-row softmax pretraining step, then
    each of STEPS, then a sigmoid pseudo-label step."""
    model = nn.MlpModel.init([2, 10, 10, 3], nn.SOFTMAX, rng)
    plan = nn._LossPlan(64, 3, ((0, 64),), np.arange(64) * 3)
    yield model, rng.normal(scale=3.0, size=(64, 2)), functools.partial(
        nn._term_gradient, targets=rng.integers(0, 3, size=64), plan=plan)
    for algorithm, k in STEPS:
        yield (model, *epoch_step(rng, algorithm, k, adapt.SOFTMAX_RULE, 3))
    binary = nn.MlpModel.init([2, 10, 10, FINDINGS], nn.SIGMOID, rng)
    rule = adapt.SigmoidRule(np.full(FINDINGS, 0.5))
    yield (binary, *epoch_step(rng, adapt.PSEUDO_LABEL, 0, rule, FINDINGS))


def pass_items(rng):
    """{(head's loss, rows, pass): call}: one buffered call of each pass of
    each step, each on its own inputs, so the items may run in any order.
    Each model has its own buffers, and a copy that sgd_step steps."""
    sgd = nn.SgdConfig(1e-6, momentum=0.82, weight_decay=0.015)
    items, kits = {}, {}
    for (loss_name, n), (model, inputs, loss) in zip(STEP_ROWS, loss_steps(rng)):
        if model.head not in kits:
            stepped = model.copy()
            kits[model.head] = nn.StepBuffers(model), stepped, nn.SgdState.zeros_like(stepped)
        buffers, stepped, state = kits[model.head]
        trace = nn.forward(model, inputs, buffers)
        probs = trace.probs.copy()
        dprobs = rng.normal(scale=0.01, size=probs.shape)
        grads = nn.GradientSet._wrap(nn.backward(model, trace, dprobs, buffers).flat.copy(),
                                     model._layout)
        items[loss_name, n, "forward"] = functools.partial(nn.forward, model, inputs, buffers)
        items[loss_name, n, "loss"] = functools.partial(loss, probs)
        # the plan's trace holds while only this item's forward pass rewrites it
        items[loss_name, n, "backward"] = functools.partial(nn.backward, model, trace, dprobs,
                                                            buffers)
        items[loss_name, n, "sgd_step"] = functools.partial(nn.sgd_step, stepped, grads, sgd,
                                                            state)
    return items


def pretraining():
    """One pretraining at stock settings, seed 0, as the runner's stage makes it."""
    cfg = load_config(None, [])
    source = runner.make_data(cfg, 0).source_train
    seed = stage_seed(cfg.stage_hash("pretrain"), 0, "train")

    def run():
        rng = np.random.default_rng(seed)
        model = nn.MlpModel.init(cfg.model_dims(), cfg.head(), rng)
        adapt.train_supervised(
            model, source.points, source.labels, cfg.pretrain_sgd(),
            cfg.flat["pretrain.epochs"], cfg.flat["pretrain.batch_size"], rng,
        )
    return run


def retrieval(strategy):
    """(call, steps): call runs epoch 0's retrieval of the stock blobs rld
    run, seed 0, under strategy, as adapt.adapt runs an epoch after its
    first (module docstring)."""
    cfg = load_config(None, ["rld.enabled=true", "adapt.k=3", f"rld.strategy={strategy}"])
    acfg = cfg.adapt_config()
    train = runner.make_data(cfg, 0).target_train
    model = runner.pretrain(cfg, 0).model
    units, pool = adapt.SOFTMAX_RULE.units(runner.make_feedback(cfg, 0), train)
    batch_ss, _, retrieval_ss = np.random.SeedSequence(runner.adapt_seed(cfg, 0)).spawn(3)
    steps = adapt.steps_per_epoch(len(units), len(pool), acfg.batch)
    picked, unlabeled = adapt._Draws(units, pool, acfg.batch, steps).draw(
        np.random.default_rng(batch_ss))
    # two equal banks, taken in turn, so each call's bank is new to the plan before it
    banks = [adapt.SOFTMAX_RULE.bank(model, train.points[pool], pool, acfg.rld.p, 0)
             for _ in range(2)]
    labeled = train.points[picked[..., 0]], picked[..., 1]
    rng = np.random.default_rng(retrieval_ss)
    state = rng.bit_generator.state
    last = {"plan": bank.RetrievalPlan(banks[0], *labeled, acfg.rld, rng, 0), "calls": 0}
    epoch = adapt.build_minibatch(train, picked, unlabeled, last["plan"], acfg,
                                  adapt.SOFTMAX_RULE, model.output_dim)
    bank.retrieve_step(last["plan"], 0, model, epoch.defending_slot(0))  # the run's first step
    assert acfg.rld.strategy == strategy and len(picked[0]) == 16

    def run():
        rng.bit_generator.state = state
        last["calls"] += 1
        plan = bank.RetrievalPlan(banks[last["calls"] % 2], *labeled, acfg.rld, rng, 0,
                                  last["plan"])
        for i in range(steps):
            bank.retrieve_step(plan, i, model, epoch.defending_slot(i))
        last["plan"] = plan
    return run, steps


def measure(items: dict, rounds: int, calls: dict) -> dict:
    """{item: [seconds per call, one per round]}; calls[item] is how many
    calls a round makes of it."""
    names = list(items)
    found = {name: [] for name in names}
    for r in range(rounds):
        for name in names[r % len(names):] + names[: r % len(names)]:
            call, count = items[name], calls[name]
            t0 = time.perf_counter()
            for _ in range(count):
                call()
            found[name].append((time.perf_counter() - t0) / count)
    return found


def report(found: dict, steps: int) -> list:
    """The table's lines: the us per call of each pass of each step
    (minimum over the rounds), then the pretraining's ms, then the us of a
    step's retrieval under each of RETRIEVALS, a call's time over its steps."""
    lines = [f"head  {'rows':>4}  " + "  ".join(f"{p:>8}" for p in PASSES) + "  (us per call)"]
    for loss_name, n in STEP_ROWS:
        lines.append(f"{loss_name:<4}  {n:>4}  " + "  ".join(
            f"{min(found[loss_name, n, p]) * 1e6:>8.2f}" for p in PASSES))
    lines.append(f"pretraining {min(found['pretraining']) * 1e3:.2f} ms")
    for strategy in RETRIEVALS:
        per_step = min(found[strategy]) / steps
        lines.append(f"{strategy} retrieval {per_step * 1e6:.2f} us per step")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--calls", type=int, default=2000, help="calls of each pass a round")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        ap.error("--rounds and --calls must be at least 1")
    items = pass_items(np.random.default_rng(0))
    calls = dict.fromkeys(items, args.calls)
    items["pretraining"], calls["pretraining"] = pretraining(), 1
    for strategy in RETRIEVALS:
        items[strategy], steps = retrieval(strategy)
        calls[strategy] = max(1, args.calls // 20)
    print("\n".join(report(measure(items, args.rounds, calls), steps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
