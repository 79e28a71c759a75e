"""tools/pass_costs.py, run for one short round."""

import importlib.util
from pathlib import Path

import numpy as np

from sdalab import adapt, bank, data
from sdalab.data import LabeledSet

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pass_costs.py"
spec = importlib.util.spec_from_file_location("pass_costs", TOOL)
pass_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pass_costs)


def test_one_round_prints_every_pass_and_the_pretraining(capsys):
    assert pass_costs.main(["--rounds", "1", "--calls", "3"]) == 0
    header, *rows, last = capsys.readouterr().out.splitlines()
    assert header.split() == ["rows", *pass_costs.PASSES, "(us", "per", "call)"]
    assert [int(r.split()[0]) for r in rows] == list(pass_costs.ROW_COUNTS)
    for r in rows:
        assert len(r.split()) == 1 + len(pass_costs.PASSES)
        assert all(float(us) > 0 for us in r.split()[1:])
    label, ms, unit = last.split()
    assert label == "pretraining" and unit == "ms" and float(ms) > 0


def test_step_layouts_are_the_adaptation_steps():
    # the loss core's arguments at 128, 176 and 240 rows are those that a
    # pseudo-label step, an rld step at k = 3 and a fixmatch_lite step pass
    train = LabeledSet(np.zeros((200, 2)), np.zeros(200, dtype=np.int64), data.TARGET)
    picked = np.zeros((1, pass_costs.B, 2), dtype=np.int64)
    unlabeled = np.zeros((1, pass_costs.U), dtype=np.int64)
    k = 3
    defending = (np.zeros((k * pass_costs.B, 2)), np.zeros(k * pass_costs.B, dtype=np.int64),
                 [k * pass_costs.B], [0])
    for n, algorithm, rld in ((128, adapt.PSEUDO_LABEL, None),
                              (176, adapt.PSEUDO_LABEL, defending),
                              (240, adapt.FIXMATCH_LITE, None)):
        cfg = adapt.AdaptConfig(algorithm=algorithm,
                                rld=bank.RldConfig(k=k) if rld is not None else None)
        epoch = adapt.build_minibatch(train, picked, unlabeled, rld, cfg, adapt.SOFTMAX_RULE, 3)
        d, inputs, *_, row_cells, bounds = epoch.cut(0)
        want_cells, want_bounds, want_counts = pass_costs.step_layout(n, 3)
        assert len(inputs) == n
        assert np.array_equal(row_cells, want_cells) and bounds == want_bounds
        assert want_counts == [pass_costs.B, pass_costs.U, d]
