"""tools/bench_pairs.py's summary of paired benchmark runs, on canned runs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "runs_per_s", "better": "higher", "bound": 0.24},
              {"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "mean_target_value", "better": "higher", "bound": 0.24}]


def line(runs_per_s, setup_s, target=0.85, correct=True):
    """One run's last stdout line, as perfbench/run.py prints it."""
    metrics = {"runs_per_s": runs_per_s, "setup_s": setup_s, "mean_target_value": target}
    return json.dumps({"correct": correct, "attempted": 40, "failed": 0 if correct else 1,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}})


def runs(parent, change):
    return {"parent": [json.loads(x) for x in parent], "change": [json.loads(x) for x in change]}


def row(lines, name):
    (found,) = [x.split() for x in lines if x.startswith(name + " ")]
    return found


def verdicts(lines, name):
    """(claim, bound) of the metric's verdict line."""
    (found,) = [x for x in lines if x.startswith(f"verdict {name}: ")]
    return found.split(" claim ")[1].split()[0], found.split("; bound ")[1].split()[0]


def test_medians_quartiles_and_wins():
    parent = [line(v, 0.30) for v in (5.0, 5.2, 5.1, 5.3, 4.9)]
    change = [line(v, s) for v, s in ((5.5, 0.29), (5.1, 0.31), (5.6, 0.29), (5.7, 0.28), (5.4, 0.30))]
    lines, problems = bench_pairs.summarize(runs(parent, change), END_TO_END)
    assert problems == []
    # statistics.quantiles(n=4) of 4.9..5.3 cuts at 4.95 and 5.25
    assert row(lines, "runs_per_s") == ["runs_per_s", "5.1", "(4.95-5.25)", "5.5", "(5.25-5.65)",
                                        "1.078", "4/5", "yes"]
    # lower is better: the change wins the pairs where its set-up was shorter
    assert row(lines, "setup_s")[-2:] == ["3/5", "yes"]
    assert row(lines, "mean_target_value")[-2:] == ["0/5", "no"]


def test_incorrect_run_and_moved_target_are_problems():
    parent = [line(5.0, 0.3), line(5.1, 0.3)]
    change = [line(5.5, 0.3, correct=False), line(5.6, 0.3, target=0.86)]
    _, problems = bench_pairs.summarize(runs(parent, change), END_TO_END)
    assert problems == [
        "change run 1 is not correct",
        "mean_target_value differs between runs: [0.85, 0.86]",
    ]


def test_single_pair_has_zero_spread():
    lines, problems = bench_pairs.summarize(runs([line(5.0, 0.3)], [line(4.0, 0.3)]), END_TO_END)
    assert problems == []
    assert row(lines, "runs_per_s")[1:] == ["5", "(5-5)", "4", "(4-4)", "0.800", "0/1", "yes"]


def test_several_workloads_print_one_table_each_and_fail_on_any(monkeypatch, capsys, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    sides = {"parent": "parent", str(tmp_path): "change"}
    calls = []

    def run_once(checkout, workload, args):
        calls.append((sides[checkout], workload))
        moved = (sides[checkout], workload) == ("change", "strategy")
        return json.loads(line(5.0, 0.3, target=0.86 if moved else 0.85))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", "parent", "--change", str(tmp_path), "--seed", "1", "--pairs", "2",
            "--workload", "method", "strategy", "engines"]
    assert bench_pairs.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    # each workload runs its pairs in turn, alternating which side goes first
    assert [w for _, w in calls] == ["method"] * 4 + ["strategy"] * 4 + ["engines"] * 4
    assert [side for side, _ in calls[:4]] == ["parent", "change", "change", "parent"]
    assert [x for x in out if x.startswith("workload ")] == [
        "workload method", "workload strategy", "workload engines"]
    assert len([x for x in out if x.startswith("runs_per_s ")]) == 3
    assert [x for x in out if x.startswith("FAILED")] == [
        "FAILED strategy: mean_target_value differs between runs: [0.85, 0.86]"]
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, args: json.loads(
        line(5.0, 0.3)))
    assert bench_pairs.main(argv) == 0


def test_claim_needs_nine_in_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [5.0, 5.2, 5.1, 5.3, 4.9, 5.0, 5.2, 5.1, 5.3, 4.9]  # IQR 4.975-5.225
    cases = [
        ([p + 0.5 for p in parent], "yes"),  # 10/10, gap 0.5
        ([p + 0.5 for p in parent[:9]] + [parent[9]], "yes"),  # 9/10: a tie counts for neither
        ([p + 0.5 for p in parent[:8]] + parent[8:], "no"),  # 8/10
        ([p + 0.2 for p in parent], "no"),  # 10/10, but the gap is within the IQR
    ]
    for change, claim in cases:
        lines, _ = bench_pairs.summarize(
            runs([line(v, 0.3) for v in parent], [line(v, 0.3) for v in change]), END_TO_END)
        assert verdicts(lines, "runs_per_s") == (claim, "kept")
    # a lower-is-better metric claims a fall
    lines, _ = bench_pairs.summarize(
        runs([line(5.0, s) for s in (0.30, 0.31, 0.29, 0.30)],
             [line(5.0, s) for s in (0.20, 0.21, 0.19, 0.20)]), END_TO_END)
    assert verdicts(lines, "setup_s") == ("yes", "kept")
    assert verdicts(lines, "runs_per_s") == ("no", "kept")


def test_bound_is_broken_past_the_metrics_relative_bound():
    parent = [line(5.0, 0.20)] * 4
    # runs_per_s: 22 % below the parent is within its 24 % bound, 28 % is
    # not; setup_s (lower is better): 22 % above is within its 25 %, 28 % not
    for factor, bound in ((0.78, "kept"), (0.72, "broken")):
        change = [line(5.0 * factor, 0.20 * (2 - factor))] * 4
        lines, _ = bench_pairs.summarize(runs(parent, change), END_TO_END)
        assert verdicts(lines, "runs_per_s") == ("no", bound)
        assert verdicts(lines, "setup_s") == ("no", bound)
        assert verdicts(lines, "mean_target_value") == ("no", "kept")
    (found,) = [x for x in lines if x.startswith("verdict runs_per_s: ")]
    assert found.endswith("bound broken (median 28.00% worse, bound 24%)")


def test_verdicts_leave_the_exit_code_alone(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    sides = {"parent": 5.0, str(tmp_path): 2.0}  # the change breaks the runs_per_s bound
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, args: json.loads(
        line(sides[checkout], 0.3)))
    argv = ["--parent", "parent", "--change", str(tmp_path), "--seed", "1", "--pairs", "2",
            "--workload", "engines"]
    assert bench_pairs.main(argv) == 0
