"""Reading back the dataset CSV that `sdalab gen-data` writes; only the
tests read it."""

import csv

import numpy as np

from sdalab.data import LabeledSet


def read_dataset_csv(path) -> dict:
    """Inverse of data.write_dataset_csv: {(domain, split): LabeledSet}."""
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        finding_cols = [h for h in header if h.startswith("finding_")]
        for row in reader:
            rec = dict(zip(header, row))
            key = (rec["domain"], rec["split"])
            bucket = groups.setdefault(key, {"pts": [], "lab": [], "fnd": []})
            bucket["pts"].append((float(rec["x1"]), float(rec["x2"])))
            bucket["lab"].append(int(rec["label"]))
            if finding_cols:
                bucket["fnd"].append([int(rec[c]) for c in finding_cols])
    out = {}
    for (domain, split), bucket in groups.items():
        findings = np.array(bucket["fnd"], dtype=np.int64) if bucket["fnd"] else None
        out[(domain, split)] = LabeledSet(
            np.array(bucket["pts"]), np.array(bucket["lab"]), domain, findings
        )
    return out
