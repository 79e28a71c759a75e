"""One repetition of a workload in a fresh process; prints one JSON line.

    python3 perfbench/child.py --workload W --seed N --spawned-at T [--trace] [--setup-only]

`--spawned-at` is the parent's `time.monotonic()` just before it started this
process; set-up is the time from then to the end of building the workload
(interpreter start, importing numpy and sdalab, building the configs). An
untraced process then times the reference loop once. With
`--setup-only` the process stops there. With `--trace` it installs the
Tracer, reports the per-layer metrics and writes the spans to
`--spans PATH`.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# Thread settings of the BLAS and OpenMP runtimes, recorded as found.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    setup_s = time.monotonic() - args.spawned_at
    # the machine's speed right after set-up: it corrects set-up and the first run
    doc = {"setup_s": setup_s,
           "reference_start_s": 0.0 if args.trace else workloads.reference_loop()}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    if tracer is not None:
        tracer.install()
    try:
        outcomes, wall, cpu = workloads.timed_run(workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    doc.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=workload.attempted,
        run_seeds=workload.run_seeds,
        outcomes=[vars(o) | {"problem": o.check()} for o in outcomes],
        env=environment(),
    )
    if tracer is not None:
        walls = [o.wall for o in outcomes if o.wall is not None]
        doc["layers"] = tracer.layer_metrics(walls)
        if args.spans:
            doc["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
