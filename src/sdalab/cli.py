"""Command line entry point.

Subcommands: gen-data, pretrain, adapt, sweep, stream, report, plot.
All take `--config FILE` plus repeatable `--set key=value` overrides.
Exit codes: 0 success, 2 configuration/shape/metric error, 3 numeric
failure, 4 feedback shortage.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import adapt as adapt_mod
from . import data, metrics, runner, svgplot
from . import stream as stream_mod
from . import sweep as sweep_mod
from .config import load_config, stage_seed
from .errors import ConfigError, MetricError, NumericError, ShapeError, ShortageError
from .runner import JSON_SEPARATORS, StageCache


def _add_common(parser):
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


def _load(args):
    cfg = load_config(args.config, args.overrides)
    out = args.out or cfg.output_dir()
    os.makedirs(out, exist_ok=True)
    return cfg, out


def _one_seed(cfg, args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    return cfg.seeds()[0]


def cmd_gen_data(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    d = runner.make_data(cfg, seed)
    path = os.path.join(out, f"dataset_seed{seed}.csv")
    data.write_dataset_csv(
        path,
        [
            (d.source_train, "train"),
            (d.source_test, "test"),
            (d.target_train, "train"),
            (d.target_test, "test"),
        ],
    )
    print(f"wrote {path}")
    return 0


def cmd_pretrain(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    pre = runner.pretrain(cfg, seed)
    model_path = os.path.join(out, f"model_seed{seed}.json")
    pre.model.save(model_path)
    doc = {
        "seed": seed,
        "source_test": pre.source_test_acc,
        "target_test": pre.target_test_acc,
    }
    if pre.thresholds is not None:
        doc["thresholds"] = pre.thresholds
        doc["degenerate_thresholds"] = pre.degenerate_flags
    metrics_path = os.path.join(out, f"pretrain_seed{seed}.json")
    with open(metrics_path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=JSON_SEPARATORS))
    print(f"wrote {model_path} and {metrics_path}")
    print(f"source test {pre.source_test_acc:.4f}  target test {pre.target_test_acc:.4f}")
    return 0


def cmd_adapt(args) -> int:
    cfg, out = _load(args)
    seed = _one_seed(cfg, args)
    record = runner.run_single(cfg, seed)
    log_path = os.path.join(out, f"run_seed{seed}.jsonl")
    runner.write_run_log(log_path, record.rows)
    metrics_path = os.path.join(out, f"metrics_seed{seed}.json")
    with open(metrics_path, "w") as fh:
        fh.write(record.metrics_json())
    print(f"wrote {log_path} and {metrics_path}")
    print(
        f"target test before {record.final['target_test_acc_source_model']:.4f} "
        f"after {record.final['target_test_value_adapted']:.4f} "
        f"({record.final['metric']})"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, out = _load(args)
    result = sweep_mod.run_sweep(cfg, args.axis, StageCache())
    records_path = os.path.join(out, f"records_{args.axis}.jsonl")
    sweep_mod.write_records_jsonl(records_path, result)
    rows = result.aggregate_rows()
    csv_path = os.path.join(out, f"aggregate_{args.axis}.csv")
    sweep_mod.write_aggregate_csv(csv_path, rows)
    table = sweep_mod.format_table(rows)
    table_path = os.path.join(out, f"aggregate_{args.axis}.txt")
    with open(table_path, "w") as fh:
        fh.write(table)
    print(table, end="")
    for failure in result.failures:
        print(f"failed cell {failure['cell']} seed {failure['seed']}: {failure['error']}")
    print(f"wrote {records_path}, {csv_path}, {table_path}")
    return 0


def cmd_stream(args) -> int:
    cfg, out = _load(args)
    if cfg.flat["dataset.kind"] == "binary":
        raise ConfigError("streaming mode supports the multiclass datasets only")
    seed = _one_seed(cfg, args)
    d = runner.make_data(cfg, seed)
    pre = runner.pretrain(cfg, seed)
    split = runner.make_feedback(cfg, seed)
    stream_cfg = stream_mod.StreamConfig(
        memory_cap=args.cap, checkpoints=tuple(args.checkpoints)
    )
    adapt_seed = stage_seed(cfg.stage_hash("adapt"), seed, "adapt")
    records, _ = stream_mod.run_stream(
        pre.model, d.target_train, split, stream_cfg, runner.build_adapt_config(cfg, d),
        adapt_seed, test_set=d.target_test,
    )
    path = os.path.join(out, f"stream_seed{seed}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(records, sort_keys=True, separators=JSON_SEPARATORS))
    for rec in records:
        print(
            f"checkpoint {rec['fraction']:.2f}: items {rec['items_seen']}, "
            f"memory {rec['occupancy']}, labeled {rec['labeled_count']}, "
            f"test acc {rec.get('test_acc', float('nan')):.4f}"
        )
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    result = sweep_mod.read_records_jsonl(args.records)
    rows = result.aggregate_rows()
    base, _ = os.path.splitext(args.records)
    csv_path = args.out_csv or base + "_aggregate.csv"
    sweep_mod.write_aggregate_csv(csv_path, rows)
    table = sweep_mod.format_table(rows)
    with open(base + "_aggregate.txt", "w") as fh:
        fh.write(table)
    print(table, end="")
    print(f"wrote {csv_path}")
    return 0


def _plot_bounds(points, margin=0.08):
    xmin, ymin = points.min(axis=0)
    xmax, ymax = points.max(axis=0)
    dx, dy = (xmax - xmin) * margin, (ymax - ymin) * margin
    return (xmin - dx, xmax + dx, ymin - dy, ymax + dy)


def cmd_plot(args) -> int:
    cfg, out = _load(args)
    if cfg.flat["dataset.kind"] == "binary":
        raise ConfigError("plotting supports the multiclass datasets only")
    seed = _one_seed(cfg, args)
    cache = StageCache()
    d = runner.make_data(cfg, seed, cache)
    pre = runner.pretrain(cfg, seed, cache)
    split = runner.make_feedback(cfg, seed, cache)

    baseline_cfg = cfg.with_overrides({"adapt.k": 0, "rld.enabled": False})
    rld_cfg = cfg.with_overrides(
        {"rld.enabled": True, "adapt.k": cfg.flat["adapt.k"] or 3}
    )
    panels = [("source", pre.model)]
    for name, pcfg in (("baseline", baseline_cfg), ("rld", rld_cfg)):
        adapt_seed = stage_seed(pcfg.stage_hash("adapt"), seed, "adapt")
        adapted, _ = adapt_mod.adapt(
            pre.model, runner.make_feedback(pcfg, seed, cache), d.target_train,
            runner.build_adapt_config(pcfg, d), adapt_seed,
        )
        panels.append((name, adapted))

    bounds = _plot_bounds(
        np.vstack([d.source_train.points, d.target_train.points])
    )
    labeled_idx = split.labeled_indices()
    paths = []
    for name, model in panels:
        grid = metrics.decision_grid(model, bounds, args.resolution)
        path = os.path.join(out, f"{name}_seed{seed}.svg")
        svgplot.write_panel(
            path,
            grid,
            scatter_points=d.target_test.points,
            scatter_labels=d.target_test.labels,
            highlight_points=d.target_train.points[labeled_idx],
            highlight_labels=split.labeled_labels(),
            title=f"{name} (seed {seed})",
        )
        paths.append(path)
    print("wrote " + ", ".join(paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdalab",
        description="Semi-supervised domain adaptation lab on synthetic 2-D data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write dataset CSVs for one seed")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train the source model, report accuracies")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("adapt", help="run one adaptation (full pipeline)")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("sweep", help="run one ablation axis over all seeds")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=sweep_mod.AXES)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stream", help="run the streaming protocol for one seed")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int, default=5000, help="memory bank capacity")
    p.add_argument(
        "--checkpoints",
        type=float,
        nargs="+",
        default=list(stream_mod.DEFAULT_CHECKPOINTS),
        help="stream fractions that trigger adaptation",
    )
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("report", help="aggregate a records JSONL into CSV + table")
    p.add_argument("--records", required=True)
    p.add_argument("--out-csv", dest="out_csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("plot", help="decision-boundary SVGs: source, baseline, rld")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--resolution", type=int, default=80)
    p.set_defaults(func=cmd_plot)

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
