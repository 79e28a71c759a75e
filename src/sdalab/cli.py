"""Command line entry point.

Subcommands: gen-data, pretrain, adapt, sweep, stream, report, plot.
All but report take `--config FILE` plus repeatable `--set key=value` overrides.
Exit codes: 0 success, 2 configuration/shape/metric error, 3 numeric
failure, 4 feedback shortage.
"""

import argparse
import contextlib
import errno
import itertools
import os
import sys

import numpy as np

from . import adapt as adapt_mod
from . import data, metrics, nn, runner, svgplot
from . import stream as stream_mod
from . import sweep as sweep_mod
from .config import load_config
from .errors import ConfigError, MetricError, NumericError, ShapeError, ShortageError
from .runner import StageCache, stable_json


def _add_command(sub, name, func, help, one_seed=True):
    """A subcommand that takes --config, --set and --out, and --seed where it
    runs one seed."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--config", help="config file of 'dotted.key = value' lines")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--out", help="output directory (default: config output.dir)")
    if one_seed:
        parser.add_argument("--seed", type=int)
    parser.set_defaults(func=func)
    return parser


def _load(args):
    cfg = load_config(args.config, args.overrides)
    out = args.out or cfg.output_dir()
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out!r}: {exc.strerror or exc}") from None
    return cfg, out


@contextlib.contextmanager
def _writing(name):
    """Turn an OSError from writing the output called name (its path, or
    more) into a ConfigError naming it with the system's reason: exit 2."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {name}: {exc.strerror or exc}") from None


def _refuse_directories(*paths, what=""):
    """Refuse, before any stage runs, an output path that is a directory:
    the ConfigError that writing it would raise (_writing), what naming
    the kind of output as there."""
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {what}{path}: {os.strerror(errno.EISDIR)}")


def _one_seed(cfg, args):
    return args.seed if args.seed is not None else cfg.seeds()[0]


def cmd_gen_data(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    path = os.path.join(out, f"dataset_seed{seed}.csv")
    _refuse_directories(path)
    d = runner.make_data(cfg, seed)
    with _writing(path):
        data.write_dataset_csv(path, [(d.source_train, "train"), (d.source_test, "test"),
                                      (d.target_train, "train"), (d.target_test, "test")])
    print(f"wrote {path}")
    return 0


def cmd_pretrain(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    model_path = os.path.join(out, f"model_seed{seed}.json")
    metrics_path = os.path.join(out, f"pretrain_seed{seed}.json")
    _refuse_directories(model_path, metrics_path)
    pre = runner.pretrain(cfg, seed)
    with _writing(model_path):
        pre.model.save(model_path)
    doc = {
        "seed": seed,
        "source_test": pre.source_test_acc,
        "target_test": pre.target_test_acc,
    }
    if pre.thresholds is not None:
        doc["thresholds"] = pre.thresholds
        doc["degenerate_thresholds"] = pre.degenerate_flags
    with _writing(metrics_path), open(metrics_path, "w") as fh:
        fh.write(stable_json(doc))
    print(f"wrote {model_path} and {metrics_path}")
    print(f"source test {pre.source_test_acc:.4f}  target test {pre.target_test_acc:.4f}")
    return 0


def cmd_adapt(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    log_path = os.path.join(out, f"run_seed{seed}.jsonl")
    metrics_path = os.path.join(out, f"metrics_seed{seed}.json")
    _refuse_directories(log_path, metrics_path)
    record = runner.run_single(cfg, seed)
    with _writing(log_path):
        runner.write_run_log(log_path, record.rows)
    with _writing(metrics_path), open(metrics_path, "w") as fh:
        fh.write(record.metrics_json())
    print(f"wrote {log_path} and {metrics_path}")
    print(
        f"target test before {record.final['target_test_acc_source_model']:.4f} "
        f"after {record.final['target_test_value_adapted']:.4f} "
        f"({record.final['metric']})"
    )
    return 0


def _write_aggregate(result, csv_path, table_path) -> None:
    """Write a sweep's aggregate as CSV and as a table, and print the table.
    A path that cannot be written is a ConfigError naming it."""
    rows = result.aggregate_rows()
    table = sweep_mod.format_table(rows)
    with _writing(f"aggregate {csv_path}"):
        sweep_mod.write_aggregate_csv(csv_path, rows)
    with _writing(f"aggregate {table_path}"), open(table_path, "w") as fh:
        fh.write(table)
    print(table, end="")


def cmd_sweep(args) -> int:
    cfg, out = _load(args)
    records_path = os.path.join(out, f"records_{args.axis}.jsonl")
    csv_path = os.path.join(out, f"aggregate_{args.axis}.csv")
    table_path = os.path.join(out, f"aggregate_{args.axis}.txt")
    _refuse_directories(records_path)
    _refuse_directories(csv_path, table_path, what="aggregate ")
    total = len(sweep_mod.axis_cells(args.axis, cfg)) * len(cfg.seeds())
    finished = itertools.count(1)

    def progress(cell, seed, record):  # one stderr line per finished run
        value = record.final["target_test_value_adapted"]
        print(f"[{next(finished)}/{total}] {cell} {seed} {value:.4f}", file=sys.stderr)

    result = sweep_mod.run_sweep(cfg, args.axis, StageCache(), progress)
    with _writing(records_path):
        sweep_mod.write_records_jsonl(records_path, result)
    _write_aggregate(result, csv_path, table_path)
    for failure in result.failures:
        print(f"failed cell {failure['cell']} seed {failure['seed']}: {failure['error']}")
    print(f"wrote {records_path}, {csv_path}, {table_path}")
    return 0


def cmd_stream(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    path = os.path.join(out, f"stream_seed{seed}.json")
    _refuse_directories(path)
    if cfg.head() != nn.SOFTMAX:
        raise ConfigError("streaming mode supports the multiclass datasets only")
    stream_cfg = stream_mod.StreamConfig(
        memory_cap=args.cap, checkpoints=tuple(args.checkpoints)
    )
    acfg = cfg.adapt_config()
    stream_mod.check_memory_fits(stream_cfg, acfg)
    cache = StageCache()
    d = runner.make_data(cfg, seed, cache)
    stream_mod.checkpoint_positions(stream_cfg, len(d.target_train))  # before any costly stage
    pre = runner.pretrain(cfg, seed, cache)
    split = runner.make_feedback(cfg, seed, cache)
    records, _ = stream_mod.run_stream(
        pre.model, d.target_train, split, stream_cfg, acfg,
        runner.adapt_seed(cfg, seed), test_set=d.target_test,
    )
    with _writing(path), open(path, "w") as fh:
        fh.write(stable_json(records))
    for rec in records:
        print(
            f"checkpoint {rec['fraction']:.2f}: items {rec['items_seen']}, "
            f"memory {rec['occupancy']}, labeled {rec['labeled_count']}, "
            f"test acc {rec['test_acc']:.4f}"
        )
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    result = sweep_mod.read_records_jsonl(args.records)
    base, _ = os.path.splitext(args.records)
    csv_path = args.out_csv or base + "_aggregate.csv"
    _write_aggregate(result, csv_path, base + "_aggregate.txt")
    print(f"wrote {csv_path}")
    return 0


def _plot_bounds(points, margin=0.08):
    xmin, ymin = points.min(axis=0)
    xmax, ymax = points.max(axis=0)
    dx, dy = (xmax - xmin) * margin, (ymax - ymin) * margin
    return (xmin - dx, xmax + dx, ymin - dy, ymax + dy)


def cmd_plot(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    paths = {name: os.path.join(out, f"{name}_seed{seed}.svg")
             for name in ("source", "baseline", "rld")}
    _refuse_directories(*paths.values())
    if cfg.head() != nn.SOFTMAX:
        raise ConfigError("plotting supports the multiclass datasets only")
    metrics.check_resolution(args.resolution)
    cache = StageCache()
    d = runner.make_data(cfg, seed, cache)
    pre = runner.pretrain(cfg, seed, cache)
    split = runner.make_feedback(cfg, seed, cache)

    panels = [("source", pre.model)]
    baseline = {"adapt.k": 0, "rld.enabled": False}
    for name, overrides in (("baseline", baseline), ("rld", sweep_mod.rld_on(cfg))):
        pcfg = cfg.with_overrides(overrides)
        adapted, _ = adapt_mod.adapt(
            pre.model, split, d.target_train, pcfg.adapt_config(), runner.adapt_seed(pcfg, seed)
        )
        panels.append((name, adapted))

    bounds = _plot_bounds(
        np.vstack([d.source_train.points, d.target_train.points])
    )
    labeled_idx = split.labeled_indices()
    for name, model in panels:
        grid = metrics.decision_grid(model, bounds, args.resolution)
        path = paths[name]
        with _writing(path):
            svgplot.write_panel(
                path, grid, scatter_points=d.target_test.points,
                scatter_labels=d.target_test.labels,
                highlight_points=d.target_train.points[labeled_idx],
                highlight_labels=split.labeled_labels(), title=f"{name} (seed {seed})",
            )
    print("wrote " + ", ".join(paths.values()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdalab",
        description="Semi-supervised domain adaptation lab on synthetic 2-D data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "gen-data", cmd_gen_data, "write dataset CSVs for one seed")
    _add_command(sub, "pretrain", cmd_pretrain, "train the source model, report accuracies")
    _add_command(sub, "adapt", cmd_adapt, "run one adaptation (full pipeline)")

    p = _add_command(sub, "sweep", cmd_sweep, "run one ablation axis over all seeds",
                     one_seed=False)
    p.add_argument("--axis", required=True, choices=sweep_mod.AXES)

    p = _add_command(sub, "stream", cmd_stream, "run the streaming protocol for one seed")
    p.add_argument("--cap", type=int, default=5000, help="memory bank capacity")
    p.add_argument(
        "--checkpoints",
        type=float,
        nargs="+",
        default=list(stream_mod.DEFAULT_CHECKPOINTS),
        help="stream fractions that trigger adaptation",
    )

    p = sub.add_parser("report", help="aggregate a records JSONL into CSV + table")
    p.add_argument("--records", required=True)
    p.add_argument("--out-csv", dest="out_csv")
    p.set_defaults(func=cmd_report)

    p = _add_command(sub, "plot", cmd_plot, "decision-boundary SVGs: source, baseline, rld")
    p.add_argument("--resolution", type=int, default=80)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, ShapeError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ShortageError as exc:
        print(f"feedback shortage: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
