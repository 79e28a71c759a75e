"""Print one sha256 per run over a fixed matrix of configs, then their total.

A run's digest covers its metrics document and every epoch row of its run
log; a capped stream replay's covers its checkpoint records and the weights
of its last model. One constructed case, retrieval_ties, covers retrieval
from a bank built so that tie-breaks decide the picks, which the runs'
banks never need. Four CLI cases, cli_stream, cli_plot,
cli_pretrain_binary and cli_gen_data, cover the files that `sdalab
stream`, `sdalab plot`, a binary `sdalab pretrain` (its model, thresholds
and degenerate flags) and `sdalab gen-data` (the dataset CSV) write (not
their stdout, which names the output directory). Two checkouts
whose totals agree wrote the same bytes for every run of the matrix. A last
line gives the sha256 of the records_method.jsonl that `sdalab sweep --axis
method` writes at its default seed 0 (the acceptance gate's determinism
sweep). Run it from the root of a checkout:

    python3 tools/run_digest.py            # seeds 0, 1 and 2
    python3 tools/run_digest.py --seeds 3 4 5
    python3 tools/run_digest.py --write tests/golden/run_digest_seed0.json

--write stores the seed-0 digests, their total, the sweep records' sha256
and a stamp of the numeric environment (numpy, BLAS and the core whose
kernels it runs, machine, SIMD features) as JSON, the golden file that
tests/test_golden.py compares a fresh run against.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sdalab import bank, cli, nn, runner, stream, sweep  # noqa: E402
from sdalab.config import ExperimentConfig  # noqa: E402

RLD = {"rld.enabled": True, "adapt.k": 3}
# the fallback runs of binary rld name their strategy so that older
# checkouts, which take only class_aware_random there, run the same matrix
BINARY_RLD = {"dataset.kind": "binary", **RLD, "rld.strategy": "class_aware_random"}
STRATEGIES = ("class_aware_random", "unconditioned_random", "kmeans_center", "cosine_distant")

MATRIX = [
    ("baseline", {}),
    ("moons", {"dataset.kind": "moons"}),
    ("fixmatch", {"adapt.algorithm": "fixmatch_lite"}),
    ("fixmatch_rld", {"adapt.algorithm": "fixmatch_lite", **RLD}),
    ("binary", {"dataset.kind": "binary"}),
    ("binary_rld_duplicate", {**BINARY_RLD, "rld.fallback": "duplicate_labeled"}),
    ("binary_rld_skip", {**BINARY_RLD, "rld.fallback": "skip_with_flag"}),
    ("binary_rld_cosine", {"dataset.kind": "binary", **RLD}),
] + [(f"rld_{s}", {**RLD, "rld.strategy": s}) for s in STRATEGIES] + [
    # one branch each of a path shared with the runs above: simulate_feedback's
    # nbf_ce pick, and the adapt config that rld enabled at k = 0 builds
    ("nbf_ce", {"feedback.policy": "nbf_ce"}),
    # the single mixed path that draws pbf, and mixed with per-class error
    # quotas that its pools fill from correct samples (shortages 1:nf, 2:nf)
    ("pbf", {"feedback.policy": "pbf"}),
    ("mixed_1_15", {"feedback.policy": "mixed", "feedback.pf_count": 1,
                    "feedback.nf_count": 15}),
    ("rld_on_k0", {"rld.enabled": True, "adapt.k": 0}),
    # draw schedules the stock configs never reach: no unlabelled batch, and
    # a labelled pool (45 units) that is no multiple of the batch (16)
    ("mu0", {"adapt.batch_mu": 0}),
    ("pcc15", {"feedback.per_class_count": 15}),
    # k-means retrieval off its stock shape: picks that wrap a run's two
    # centroids (k = 5), and a whole run under skip_with_flag
    ("kmeans_c2_k5", {**RLD, "rld.strategy": "kmeans_center", "adapt.k": 5,
                      "rld.kmeans_clusters": 2}),
    ("kmeans_skip", {**RLD, "rld.strategy": "kmeans_center", "rld.fallback": "skip_with_flag"}),
    # the default strategy's epoch plan under skip_with_flag, whose steps
    # write fewer rows when a point falls back
    ("cosine_skip", {**RLD, "rld.strategy": "cosine_distant", "rld.fallback": "skip_with_flag"}),
] + [
    # banks of one to three entries a class (p = 0.005), so some classes
    # hold fewer than k: the draws that take one rng.choice call per point,
    # and cosine_distant picks that wrap past a class's size
    (f"tiny_bank_{s}", {**RLD, "rld.strategy": s, "rld.p": 0.005})
    for s in ("class_aware_random", "kmeans_center", "cosine_distant")
] + [
    # cosine_distant at hidden widths [16, 10]: its picks read one feature
    # pass over the whole bank, whose class slices have bits of their own there
    ("rld_cosine_h16_10", {**RLD, "model.hidden": [16, 10]}),
    # the entropy policy, and binary feedback below its pools' sizes, so that
    # each finding's draw runs (at the stock 40 every pool is taken whole)
    ("entropy", {"feedback.policy": "entropy"}),
    ("binary_fb5", {"dataset.kind": "binary", "feedback.fp_count": 5, "feedback.fn_count": 5}),
]

STREAM_CAP = 120  # binds: the unlabelled stream is longer, one batch (7*16) fits

# the commands that assemble the stages themselves, at stock settings
CLI_CASES = [
    ("cli_stream", ["stream", "--cap", "300"]),
    ("cli_plot", ["plot", "--resolution", "16"]),
    ("cli_pretrain_binary", ["pretrain", "--set", "dataset.kind=binary"]),
    ("cli_gen_data", ["gen-data"]),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rows(rows) -> str:
    return "\n".join(runner.stable_json(r) for r in rows)


def run_digest(cfg: ExperimentConfig, seed: int, cache: runner.StageCache) -> str:
    record = runner.run_single(cfg, seed, cache)
    return _sha(record.metrics_json() + "\n" + _rows(record.rows))


def stream_digest(cfg: ExperimentConfig, seed: int, cache: runner.StageCache) -> str:
    d = runner.make_data(cfg, seed, cache)
    pre = runner.pretrain(cfg, seed, cache)
    split = runner.make_feedback(cfg, seed, cache)
    records, last = stream.run_stream(
        pre.model, d.target_train, split, stream.StreamConfig(memory_cap=STREAM_CAP),
        cfg.adapt_config(), runner.adapt_seed(cfg, seed), test_set=d.target_test,
    )
    weights = "".join(a.tobytes().hex() for a in last.weights + last.biases)
    return _sha(_rows(records) + "\n" + weights)


def ties_digest(seed: int) -> str:
    """retrieve_defending under cosine_distant and kmeans_center from a bank
    whose points tie: each of six directions at scales 1, 2 and 4, every
    point twice, two directions a class, under shuffled global indices and
    two confidences. The model has no biases, so a point's features scale
    with it and the three scales of a direction lie at one cosine distance,
    bit for bit; twin points tie in every k-means distance, and forgy inits
    that draw both twins start two equal centroids."""
    rng = np.random.default_rng(seed)
    directions = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -0.5], [-0.25, 1.0],
                           [0.75, 0.5]])
    points = np.repeat(directions[:, None] * [[1.0], [2.0], [4.0]], 2, axis=1).reshape(-1, 2)
    weights = [np.array([[1.0, -0.5, 0.25], [0.5, 1.0, -1.0]]), np.eye(3)]
    model = nn.MlpModel([2, 3, 3], weights, [np.zeros(3), np.zeros(3)])
    classes = np.arange(len(points)) // 6 % 3  # two directions a class
    conf = 0.8 + 0.1 * (np.arange(len(points)) % 2)
    members = [np.flatnonzero(classes == c) for c in range(3)]
    b = bank.CandidateBank(
        points, rng.permutation(1000)[: len(points)], members, [conf[m] for m in members]
    )
    labeled = np.concatenate([directions, 2.0 * directions[:2]])
    labels = np.arange(len(labeled)) % 3
    out = []
    for strategy in ("cosine_distant", "kmeans_center"):
        cfg = bank.RldConfig(k=5, strategy=strategy, kmeans_clusters=3)
        got, got_labels, fallbacks = bank.retrieve_defending(b, labeled, labels, cfg, rng, model)
        out.append(got.tobytes().hex() + got_labels.tobytes().hex() + str(fallbacks))
    return _sha("\n".join(out))


def cli_digest(argv, seed: int) -> str:
    """sha256 over the name and bytes of every file `sdalab` writes for argv."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--seed", str(seed), "--out", tmp])
        if code != 0:
            raise RuntimeError(f"sdalab {' '.join(argv)} exited {code}")
        h = hashlib.sha256()
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                h.update(name.encode() + b"\n" + fh.read())
        return h.hexdigest()


def digests(seeds) -> list:
    """(label, digest) of every run of the matrix, seed by seed."""
    cache = runner.StageCache()
    out = []
    for seed in seeds:
        for name, overrides in MATRIX:
            out.append((f"{name}/seed{seed}", run_digest(ExperimentConfig(overrides), seed, cache)))
        out.append((f"stream_cap{STREAM_CAP}/seed{seed}",
                    stream_digest(ExperimentConfig({}), seed, cache)))
        out.append((f"retrieval_ties/seed{seed}", ties_digest(seed)))
        for name, argv in CLI_CASES:
            out.append((f"{name}/seed{seed}", cli_digest(argv, seed)))
    return out


def records_digest() -> str:
    """sha256 of the records file of the method sweep at its default seed."""
    result = sweep.run_sweep(ExperimentConfig({}), "method", runner.StageCache())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records_method.jsonl")
        sweep.write_records_jsonl(path, result)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def total(runs) -> str:
    return _sha("".join(d for _, d in runs))


def openblas_core():
    """The name of the CPU core whose kernels numpy's bundled OpenBLAS runs
    (OPENBLAS_CORETYPE overrides its own pick), or None where the library
    does not expose it."""
    try:
        from numpy._core import _multiarray_umath

        # dlsym on numpy's extension also searches the libraries it loaded
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment_stamp() -> dict:
    """What picks the floating-point kernels: numpy, its BLAS and the core
    whose kernels OpenBLAS runs, the machine and the SIMD features numpy
    found."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_core": openblas_core(),
        "machine": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--write", metavar="PATH", help="write the seed-0 golden file to PATH")
    args = parser.parse_args(argv)
    if args.write:
        runs = digests([0])
        golden = {
            "stamp": environment_stamp(), "runs": dict(runs), "total": total(runs),
            "records_method": records_digest(),
        }
        with open(args.write, "w") as fh:
            fh.write(json.dumps(golden, indent=1) + "\n")
        print(f"{golden['total']}  total, written to {args.write}")
        return 0
    runs = digests(args.seeds)
    for label, digest in runs:
        print(f"{digest}  {label}")
    print(f"{total(runs)}  total")
    print(f"{records_digest()}  records_method.jsonl of the method sweep, seed 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
