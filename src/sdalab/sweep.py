"""Multi-seed sweeps over the ablation axes, with CSV/text aggregation.

An axis is a named list of cells; each cell is a set of config overrides on
top of the base config. Every cell runs every seed. A failed run is recorded
(cell, seed, error) and excluded from the aggregate row instead of aborting
the sweep.
"""

import csv
import json
from dataclasses import dataclass, field

from . import bank as bank_mod
from . import feedback
from .config import ExperimentConfig, read_text
from .errors import ConfigError, SdalabError
from .metrics import mean_std
from .runner import StageCache, run_single, stable_json

# Batch compositions (unlabeled, defending, labeled) with B=16.
RATIO_CELLS = [
    ("112:0:16", {"adapt.batch_mu": 7, "adapt.k": 0, "rld.enabled": False}),
    ("112:48:16", {"adapt.batch_mu": 7, "adapt.k": 3, "rld.enabled": True}),
    ("64:48:16", {"adapt.batch_mu": 4, "adapt.k": 3, "rld.enabled": True}),
]

# Correct:error feedback mix, out of 4 labels per class.
PFNF_CELLS = [
    ("100:0", (4, 0)),
    ("75:25", (3, 1)),
    ("50:50", (2, 2)),
    ("25:75", (1, 3)),
    ("0:100", (0, 4)),
]

AXES = ("method", "k", "p", "ratio", "strategy", "pfnf", "amount")


@dataclass
class SweepResult:
    axis: str
    records: list = field(default_factory=list)  # dicts, one per finished run
    failures: list = field(default_factory=list)  # dicts with an "error" key

    def aggregate_rows(self) -> list:
        """One `axis,cell,seed_count,mean,std,metric` row per cell, cell order kept."""
        by_cell = {}
        for rec in self.records:
            by_cell.setdefault(rec["cell"], []).append(rec)
        rows = []
        for cell, recs in by_cell.items():
            values = [r["value"] for r in recs]
            mean, std = mean_std(values)
            rows.append(
                {
                    "axis": self.axis,
                    "cell": cell,
                    "seed_count": len(values),
                    "mean": mean,
                    "std": std,
                    "metric": recs[0]["metric"],
                }
            )
        for failure in self.failures:
            if failure["cell"] not in by_cell:
                rows.append(
                    {
                        "axis": self.axis,
                        "cell": failure["cell"],
                        "seed_count": 0,
                        "mean": float("nan"),
                        "std": float("nan"),
                        "metric": "failed",
                    }
                )
                by_cell[failure["cell"]] = []
        return rows


def rld_on(base: ExperimentConfig) -> dict:
    """The overrides that turn rld on at the base's k, or at 3 if it has none."""
    k = base.flat["adapt.k"] if base.flat["adapt.k"] > 0 else 3
    return {"rld.enabled": True, "adapt.k": k}


def axis_cells(axis: str, base: ExperimentConfig) -> list:
    """(cell name, overrides) pairs for one ablation axis."""
    if axis == "method":
        cells = []
        for policy in (feedback.RF, feedback.NBF):
            cells.append(
                (f"{policy}:baseline",
                 {"feedback.policy": policy, "adapt.k": 0, "rld.enabled": False})
            )
            cells.append((f"{policy}:rld", {"feedback.policy": policy, **rld_on(base)}))
        return cells
    if axis == "k":
        return [
            (str(k), {"rld.enabled": True, "adapt.k": k}) for k in (1, 2, 3, 4)
        ]
    if axis == "p":
        return [
            (repr(p), {**rld_on(base), "rld.p": p}) for p in (0.2, 0.4, 0.6, 0.8)
        ]
    if axis == "ratio":
        return [(name, dict(ov)) for name, ov in RATIO_CELLS]
    if axis == "strategy":
        return [
            (s, {**rld_on(base), "rld.strategy": s}) for s in bank_mod.STRATEGIES
        ]
    if axis == "pfnf":
        return [
            (
                name,
                {
                    "feedback.policy": feedback.MIXED,
                    "feedback.pf_count": pf,
                    "feedback.nf_count": nf,
                },
            )
            for name, (pf, nf) in PFNF_CELLS
        ]
    if axis == "amount":
        return [
            (str(m), {"feedback.per_class_count": m}) for m in (1, 3, 5, 10, 15)
        ]
    raise ConfigError(f"unknown sweep axis {axis!r}; choose from {', '.join(AXES)}")


def run_sweep(
    base: ExperimentConfig, axis: str, cache: StageCache = None, observer=None
) -> SweepResult:
    cache = cache or StageCache()
    result = SweepResult(axis)
    for cell, overrides in axis_cells(axis, base):
        try:
            cfg = base.with_overrides(overrides)
        except SdalabError as exc:
            result.failures.append({"cell": cell, "seed": None, "error": str(exc)})
            continue
        for seed in base.seeds():
            try:
                record = run_single(cfg, seed, cache)
            except SdalabError as exc:
                result.failures.append({"cell": cell, "seed": seed, "error": str(exc)})
                continue
            result.records.append(
                {
                    "axis": axis,
                    "cell": cell,
                    "config_hash": record.config_hash,
                    "seed": seed,
                    "metric": record.final["metric"],
                    "value": record.final["target_test_value_adapted"],
                    "source_model_value": record.final["target_test_acc_source_model"],
                    "flags": record.flags,
                }
            )
            if observer is not None:
                observer(cell, seed, record)
    return result


def write_records_jsonl(path, result: SweepResult) -> None:
    with open(path, "w") as fh:
        for rec in result.records:
            fh.write(stable_json(rec) + "\n")
        for failure in result.failures:
            doc = {"axis": result.axis, "error": failure["error"],
                   "cell": failure["cell"], "seed": failure["seed"]}
            fh.write(stable_json(doc) + "\n")


def read_records_jsonl(path) -> SweepResult:
    records, failures, axis = [], [], ""
    for number, line in enumerate(read_text(path, "records").split("\n"), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            doc = None
        if not isinstance(doc, dict):
            raise ConfigError(f"records {path} line {number}: not a JSON object")
        # what aggregate_rows and format_table read: a string axis and cell,
        # and on a record (a line with no "error") a string metric and a number
        axis = doc.get("axis", axis)
        kinds = {"cell": str}
        if "error" not in doc:
            kinds.update(metric=str, value=(int, float))
        # a JSON true or false is no number, though Python's bool subclasses int
        bad = [key for key, kind in kinds.items()
               if not isinstance(doc.get(key), kind) or isinstance(doc.get(key), bool)]
        if not isinstance(axis, str):
            bad.append("axis")
        if bad:
            raise ConfigError(f"records {path} line {number}: bad or missing {', '.join(bad)}")
        (failures if "error" in doc else records).append(doc)
    return SweepResult(axis or "records", records, failures)


def write_aggregate_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "cell", "seed_count", "mean", "std", "metric"])
        for row in rows:
            writer.writerow(
                [
                    row["axis"],
                    row["cell"],
                    row["seed_count"],
                    repr(float(row["mean"])),
                    repr(float(row["std"])),
                    row["metric"],
                ]
            )


def format_table(rows) -> str:
    """Aligned text rendering of the aggregate rows."""
    header = ["axis", "cell", "seeds", "mean", "std", "metric"]
    body = [
        [
            row["axis"],
            row["cell"],
            str(row["seed_count"]),
            f"{row['mean']:.4f}",
            f"{row['std']:.4f}",
            row["metric"],
        ]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = []
    for r in [header] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"
