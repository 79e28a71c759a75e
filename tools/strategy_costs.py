"""Time each retrieval strategy against a baseline run, the figures README's
strategy costs quote.

    python3 tools/strategy_costs.py                    # blobs, seeds 0-3, 5 rounds
    python3 tools/strategy_costs.py --set dataset.kind=moons
    python3 tools/strategy_costs.py --seeds 0 --rounds 1 --set adapt.epochs=1

Run it from the root of a checkout. It times `runner.run_single` for six
cells at each seed: the baseline (the config as given, `--set` overrides
applied) and rld at `adapt.k = 3` under each of the four strategies. One
StageCache serves every run, filled first by an untimed baseline run per
seed, so data, pretraining and feedback come from the cache and a timed run
is the adaptation and its evaluation. Each round runs every cell at every
seed, in a cell order that rotates from round to round, so that a drift in
the machine's speed falls on every cell alike. A cell's time in a round is
the sum over the seeds, and its ratio that time over the baseline's in the
same round. For each cell it prints the median over the rounds of the
seconds per run and of the ratio, and the ratio's range.
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sdalab import runner  # noqa: E402
from sdalab.config import load_config  # noqa: E402

STRATEGIES = ("class_aware_random", "unconditioned_random", "cosine_distant", "kmeans_center")
BASELINE = "baseline"


def cells(cfg) -> dict:
    """{name: config}: the baseline, then rld at k = 3 under each strategy."""
    found = {BASELINE: cfg}
    for strategy in STRATEGIES:
        found[strategy] = cfg.with_overrides(
            {"rld.enabled": True, "adapt.k": 3, "rld.strategy": strategy}
        )
    return found


def measure(cfgs: dict, seeds, rounds: int) -> dict:
    """{cell: [(seconds per run, ratio to the baseline), one per round]}."""
    cache = runner.StageCache()
    for seed in seeds:
        runner.run_single(cfgs[BASELINE], seed, cache)
    names = list(cfgs)
    found = {name: [] for name in names}
    for r in range(rounds):
        order = names[r % len(names):] + names[: r % len(names)]
        spent = dict.fromkeys(names, 0.0)
        for seed in seeds:
            for name in order:
                t0 = time.perf_counter()
                runner.run_single(cfgs[name], seed, cache)
                spent[name] += time.perf_counter() - t0
        for name in names:
            found[name].append((spent[name] / len(seeds), spent[name] / spent[BASELINE]))
    return found


def report(found: dict) -> list:
    """The table's lines: per cell the median seconds per run, and the median
    ratio with its range."""
    lines = [f"{'cell':<22}  {'s/run':>7}  ratio (min-max)"]
    for name, rounds in found.items():
        seconds, ratios = zip(*rounds)
        lines.append(f"{name:<22}  {statistics.median(seconds):>7.3f}  "
                     f"{statistics.median(ratios):.2f} ({min(ratios):.2f}-{max(ratios):.2f})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE", help="override one config key (repeatable)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    cfg = load_config(None, args.overrides)
    print("\n".join(report(measure(cells(cfg), args.seeds, args.rounds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
