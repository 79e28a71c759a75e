"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload method strategy engines \
        --seed 7 --pairs 10 --seconds 36

For each workload in turn, each pair runs `perfbench/run.py --trace 0` once
in each checkout, one after the other; which side goes first alternates from
pair to pair, so a drift in the machine's speed does not favour one side.
Then it prints the workload's table: for every end-to-end metric that
BENCHMARK.json lists, each side's median and quartiles, the ratio of the
medians, how many pairs the change won (in the metric's better direction),
and whether the medians differ by more than the parent's interquartile range.
Under the table it prints two verdicts per metric:
- claim: "yes" when the change won at least 9 in 10 of the pairs (a tie
  counts for neither side) and its median is better than the parent's by
  more than the parent's interquartile range, else "no";
- bound: "broken" when the change's median is worse than the parent's by
  more than the metric's BENCHMARK.json bound, taken relative to the
  parent's median, else "kept".
The verdicts do not change the exit code.

It exits 1 when, in any workload, a run is not `correct` or
`mean_target_value` differs between two runs (the metric is deterministic
per seed, so a difference means the output moved), and 2 when a run fails
to produce its JSON line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, workload, args):
    """The last JSON line of one `perfbench/run.py --trace 0` run of workload
    in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3); the quartiles as statistics.quantiles(n=4) cuts them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


CLAIM_WINS = 0.9  # the share of pairs a claimed gain must win


def verdict(spec, parent_median, parent_iqr, gain, wins, pairs):
    """One metric's claim and bound verdicts (module docstring), spec its
    BENCHMARK.json entry and gain the change's median minus the parent's,
    signed so that a gain is better."""
    claim = "yes" if wins >= CLAIM_WINS * pairs and gain > parent_iqr else "no"
    if parent_median:
        worse = -gain / abs(parent_median)
    else:
        worse = 0.0 if gain >= 0 else math.inf
    bound = "broken" if worse > spec["bound"] else "kept"
    return (f"verdict {spec['name']}: claim {claim} ({wins}/{pairs} pairs won, median gain "
            f"{gain:.4g}, parent IQR {parent_iqr:.4g}); bound {bound} (median "
            f"{abs(worse):.2%} {'worse' if worse > 0 else 'better'}, bound {spec['bound']:.0%})")


def summarize(runs, end_to_end):
    """(report lines, problems) for runs = {"parent": [doc, ...], "change":
    [doc, ...]}, the i-th doc of each side from pair i, and end_to_end the
    BENCHMARK.json list of {"name", "better", "bound"}: the table, then a
    "verdict" line per metric."""
    problems = [f"{side} run {i + 1} is not correct"
                for side in SIDES for i, doc in enumerate(runs[side]) if not doc["correct"]]
    targets = {doc["metrics"]["mean_target_value"]["value"]
               for side in SIDES for doc in runs[side]}
    if len(targets) > 1:
        problems.append(f"mean_target_value differs between runs: {sorted(targets)}")
    lines = [f"{'metric':<18}  {'parent median (q1-q3)':<28}  {'change median (q1-q3)':<28}"
             f"  {'ratio':>6}  wins  gap>IQR"]
    judged = []
    for spec in end_to_end:
        name = spec["name"]
        parent, change = ([doc["metrics"][name]["value"] for doc in runs[side]] for side in SIDES)
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ratio = f"{cm / pm:.3f}" if pm else "-"
        gap = "yes" if abs(cm - pm) > p3 - p1 else "no"
        lines.append(f"{name:<18}  {f'{pm:.6g} ({p1:.6g}-{p3:.6g})':<28}  "
                     f"{f'{cm:.6g} ({c1:.6g}-{c3:.6g})':<28}  {ratio:>6}  "
                     f"{wins}/{len(parent)}  {gap}")
        judged.append(verdict(spec, pm, p3 - p1, sign * (cm - pm), wins, len(parent)))
    return lines + judged, problems


def run_pairs(dirs, workload, args) -> dict:
    """{"parent": [doc, ...], "change": [doc, ...]} of args.pairs alternating
    pairs of runs of workload."""
    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(dirs[side], workload, args))
        values = ", ".join(f"{side} {runs[side][-1]['metrics']['runs_per_s']['value']:.4f}"
                           for side in SIDES)
        print(f"{workload} pair {pair + 1}/{args.pairs} ({order[0]} first): runs_per_s {values}",
              flush=True)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=36)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    dirs = {"parent": args.parent, "change": args.change}
    failed = False
    for workload in args.workload:
        try:
            runs = run_pairs(dirs, workload, args)
        except (RuntimeError, json.JSONDecodeError) as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 2
        lines, problems = summarize(runs, end_to_end)
        print(f"workload {workload}")
        print("\n".join(lines))
        for problem in problems:
            print(f"FAILED {workload}: {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
