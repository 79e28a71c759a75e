"""tools/pass_costs.py, run for one short round."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from sdalab import bank, nn

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pass_costs.py"
spec = importlib.util.spec_from_file_location("pass_costs", TOOL)
pass_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pass_costs)


def test_one_round_prints_every_pass_and_the_pretraining(capsys):
    assert pass_costs.main(["--rounds", "1", "--calls", "3"]) == 0
    header, *rows, last, cosine, kmeans, random = capsys.readouterr().out.splitlines()
    assert header.split() == ["head", "rows", *pass_costs.PASSES, "(us", "per", "call)"]
    assert [(r.split()[0], int(r.split()[1])) for r in rows] == list(pass_costs.STEP_ROWS)
    for r in rows:
        assert len(r.split()) == 2 + len(pass_costs.PASSES)
        assert all(float(us) > 0 for us in r.split()[2:])
    label, ms, unit = last.split()
    assert label == "pretraining" and unit == "ms" and float(ms) > 0
    for strategy, line in zip(pass_costs.RETRIEVALS, (cosine, kmeans, random)):
        words = line.split()
        assert words[:2] == [strategy, "retrieval"] and words[3:] == ["us", "per", "step"]
        assert float(words[2]) > 0
    assert pass_costs.RETRIEVALS == (bank.COSINE_DISTANT, bank.KMEANS_CENTER,
                                     bank.CLASS_AWARE_RANDOM)


def test_retrieval_row_is_a_cosine_epoch_as_the_loop_runs_it(monkeypatch):
    # epoch 0 of the stock blobs rld run: one plan, then one
    # bank.retrieve_step call a step, each looked up in the bank module,
    # each step writing k = 3 rows for each of 16 labelled points into its slot
    check_retrieval_row(monkeypatch, bank.COSINE_DISTANT)


def test_kmeans_row_is_a_model_free_epoch_as_the_loop_runs_it(monkeypatch):
    # the same epoch under kmeans_center, whose plan draws every step's
    # picks from the same rng state at each call
    check_retrieval_row(monkeypatch, bank.KMEANS_CENTER)


def test_class_aware_row_is_a_model_free_epoch_as_the_loop_runs_it(monkeypatch):
    # the same epoch under class_aware_random, whose plan draws every
    # step's picks with one bank._choices call
    check_retrieval_row(monkeypatch, bank.CLASS_AWARE_RANDOM)


def check_retrieval_row(monkeypatch, strategy) -> None:
    """Run the retrieval row of strategy twice: each call must lay out one
    plan under strategy over 16 labelled points a step and take one
    retrieve_step a step, the two calls writing the same rows."""
    plans, calls, written = [], [], []
    original_plan, original_step = bank.RetrievalPlan, bank.retrieve_step

    def plan_spy(cur_bank, points, labels, cfg, *args):
        plans.append((labels.shape, cfg.strategy))
        return original_plan(cur_bank, points, labels, cfg, *args)

    def spy(plan, i, model, out):
        calls.append((i, out.shape))
        original_step(plan, i, model, out)
        written.append(out.copy())

    monkeypatch.setattr(bank, "RetrievalPlan", plan_spy)
    monkeypatch.setattr(bank, "retrieve_step", spy)
    run, steps = pass_costs.retrieval(strategy)
    for seen in (plans, calls, written):  # the set-up's plan and step
        seen.clear()
    run()
    run()
    assert steps > 1 and plans == [((steps, 16), strategy)] * 2
    assert calls == [(i, (48, 2)) for i in range(steps)] * 2
    assert all(np.array_equal(a, b) for a, b in zip(written[:steps], written[steps:]))


def test_binary_row_is_a_sigmoid_pseudo_label_step_under_bce():
    steps = list(pass_costs.loss_steps(np.random.default_rng(0)))
    assert len(steps) == len(pass_costs.STEP_ROWS) and pass_costs.STEP_ROWS[-1] == ("bce", 128)
    model, inputs, loss = steps[-1]
    assert model.layer_dims == [2, 10, 10, 4] and model.head == nn.SIGMOID
    assert len(inputs) == 128
    # the BCE path of the one loss core: every cell of the 128 rows scored
    plan = loss.keywords["plan"]
    assert loss.func is nn._terms and plan.row_cells is None
    losses, dprobs = loss(nn.forward(model, inputs).probs)
    assert len(losses) == 3 and all(math.isfinite(v) for v in losses)
    assert dprobs.shape == (128, 4)
