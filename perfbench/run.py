"""sdalab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {method,strategy,engines} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; sdalab is imported from `src/`.
Every repetition runs in a fresh process (perfbench/child.py) with an empty
StageCache. With `--trace 0` the command repeats the workload for about S
seconds and reports the end-to-end metrics; with `--trace 1` it runs the
workload once untraced and once traced and reports the per-layer metrics.
Each run's output is hashed; the hashes must agree between repetitions and
between the untraced and the traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are corrected for the machine's speed when they were taken, measured
with a fixed reference loop (workloads.reference_loop): on a shared host the
same work takes up to three times as long from one minute to the next, which
no amount of averaging within one command removes. Corrected times are
seconds at the speed REFERENCE_S stands for; the wall-clock figures are
printed beside them.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("method", "strategy", "engines")  # as in workloads.py, which imports sdalab
MIN_REPS = 2  # the repeat check needs two
SETUP_PROBES = 7  # set-up-only processes, besides one set-up per repetition
DEADLINE_S = 160  # stop starting repetitions well before the 180 s limit

# The reference loop's median time on the machine the benchmark was written
# on (2-core Xeon, 2.0 GHz, shared host). A corrected time is the wall time
# x REFERENCE_S / (the loop's time next to it): the time the work would have
# taken had the machine run at that median speed.
REFERENCE_S = 0.035


def metric_units():
    """Unit of every metric, from BENCHMARK.json, which lists them all."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class ChildFailed(RuntimeError):
    pass


def spawn(args, deadline, trace=False, setup_only=False):
    """Run child.py to completion and return its JSON document."""
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed)]
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args.workload} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reps(reps):
    """(attempted, failed, problems) over every run of every repetition.

    A run fails when it raised, when its value is out of range, or when its
    output hash differs from the first repetition's.
    """
    first = {o["label"]: o["digest"] for o in reps[0]["outcomes"]}
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(reps):
        attempted += rep["attempted"]
        seen = {o["label"] for o in rep["outcomes"]}
        missing = rep["attempted"] - len(seen)
        if missing:
            failed += missing
            problems.append(f"repetition {i}: {missing} runs produced no outcome")
        for o in rep["outcomes"]:
            if o["problem"] is not None:
                failed += 1
                problems.append(f"{o['label']}: {o['problem']}")
            elif first.get(o["label"]) != o["digest"]:
                failed += 1
                problems.append(f"{o['label']}: output hash differs from repetition 0")
    return attempted, failed, problems


def ok_runs(rep):
    return sum(1 for o in rep["outcomes"] if o["problem"] is None)


def run_seconds(rep):
    """The runs' own wall time, without the reference loops between them."""
    return sum(o["seconds"] for o in rep["outcomes"])


def wall_runs_per_s(reps):
    """Runs that passed the check per second of the runs' own wall time."""
    return sum(ok_runs(r) for r in reps) / sum(run_seconds(r) for r in reps)


def runs_per_s(reps):
    """wall_runs_per_s with each run's time corrected for the machine's speed.

    A run's speed factor is the mean of the reference loop's times just
    before and just after it, so a run made while the machine is slow counts
    as shorter by as much as the reference loop got longer.
    """
    corrected = 0.0
    for rep in reps:
        before = rep["reference_start_s"]
        for o in rep["outcomes"]:
            corrected += o["seconds"] * 2 * REFERENCE_S / (before + o["reference_s"])
            before = o["reference_s"]
    return sum(ok_runs(r) for r in reps) / corrected


def corrected_setup_s(doc):
    """Set-up time corrected by the reference loop timed right after it."""
    return doc["setup_s"] * REFERENCE_S / doc["reference_start_s"]


def reference_p50(rep):
    return statistics.median([rep["reference_start_s"]] + [o["reference_s"] for o in rep["outcomes"]])


def end_to_end(args, deadline):
    setups = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        rep = spawn(args, deadline)
        reps.append(rep)
        setups.append(rep)
        elapsed = time.monotonic() - start
        rep_time = rep["setup_s"] + rep["wall_s"]
        # stop once one more repetition would end further from S than now
        if len(reps) >= MIN_REPS and (
            elapsed + rep_time / 2 > args.seconds or time.monotonic() + rep_time > deadline
        ):
            break
    attempted, failed, problems = check_reps(reps)
    values = [o["value"] for o in reps[0]["outcomes"] if o["problem"] is None]
    metrics = {
        "runs_per_s": runs_per_s(reps),
        "setup_s": statistics.median(corrected_setup_s(d) for d in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "mean_target_value": statistics.fmean(values) if values else 0.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    walls = ", ".join(f"{r['wall_s']:.2f}" for r in reps)
    print(f"run seeds {reps[0]['run_seeds']}; repetitions: {len(reps)} of "
          f"{reps[0]['attempted']} runs, wall {walls} s; set-up samples: {len(setups)}")
    print(f"wall clock, uncorrected: runs_per_s {wall_runs_per_s(reps):.6g} 1/s, setup_s "
          f"{statistics.median(d['setup_s'] for d in setups):.6g} s; reference loop median "
          f"{statistics.median(reference_p50(r) for r in reps):.4f} s")
    return reps[0]["env"], metrics, attempted, failed, problems


def per_layer(args, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    plain = spawn(args, deadline)
    traced = spawn(args, deadline, trace=True)
    attempted, failed, problems = check_reps([plain, traced])
    metrics = dict(traced["layers"])
    metrics["proc.cpu_util"] = plain["cpu_s"] / plain["wall_s"]
    metrics["proc.wall_runs_per_s"] = wall_runs_per_s([plain])
    metrics["proc.reference_s"] = reference_p50(plain)
    metrics["trace.overhead_ratio"] = run_seconds(traced) / run_seconds(plain) - 1.0
    print(f"run seeds {plain['run_seeds']}; runs untraced {run_seconds(plain):.2f} s, "
          f"traced {run_seconds(traced):.2f} s; "
          f"{traced['spans']} spans written to "
          f"{os.path.relpath(OUT_DIR, ROOT)}/spans-{args.workload}-seed{args.seed}.csv.gz")
    return traced["env"], metrics, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sdalab", "__init__.py")):
        print(f"perfbench: no sdalab source under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    measure = per_layer if args.trace else end_to_end
    units = metric_units()
    try:
        env, metrics, attempted, failed, problems = measure(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"FAILED {problem}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
