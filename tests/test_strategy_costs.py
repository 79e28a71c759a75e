"""tools/strategy_costs.py, run for one seed and one short round."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "strategy_costs.py"
spec = importlib.util.spec_from_file_location("strategy_costs", TOOL)
strategy_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(strategy_costs)


def test_one_seed_one_round_prints_every_cell(capsys):
    assert strategy_costs.main(["--seeds", "0", "--rounds", "1", "--set", "adapt.epochs=1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["cell", "s/run", "ratio", "(min-max)"]
    assert [r.split()[0] for r in rows] == ["baseline", *strategy_costs.STRATEGIES]
    for r in rows:
        name, seconds, ratio, spread = r.split()
        low, high = spread.strip("()").split("-")
        assert float(seconds) > 0 and float(low) == float(ratio) == float(high)
    assert rows[0].split()[2] == "1.00"


def test_rounds_rotate_the_cell_order(monkeypatch):
    calls = []
    monkeypatch.setattr(strategy_costs.runner, "run_single",
                        lambda cfg, seed, cache: calls.append((cfg, seed)))
    cfgs = {name: name for name in ["baseline", "a", "b"]}
    found = strategy_costs.measure(cfgs, [0, 1], 2)
    # one untimed baseline run per seed, then each round every cell per seed
    assert calls[:2] == [("baseline", 0), ("baseline", 1)]
    assert [c for c, _ in calls[2:8]] == ["baseline", "a", "b"] * 2
    assert [c for c, _ in calls[8:]] == ["a", "b", "baseline"] * 2
    assert [len(v) for v in found.values()] == [2, 2, 2]
    assert [ratio for _, ratio in found["baseline"]] == [1.0, 1.0]
