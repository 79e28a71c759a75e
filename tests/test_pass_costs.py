"""tools/pass_costs.py, run for one short round."""

import importlib.util
from pathlib import Path

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

