"""Synthetic 2-D dataset pairs with a controlled source-to-target shift.

KINDS maps each dataset kind to its spec: isotropic Gaussian blobs, two
interleaving half-circles ("moons"), or blobs plus linear findings
("binary"). make_pair draws any kind's pair; a target domain is always an
independent draw from the same spec pushed through a rigid transform
(rotation about the draw's centroid, then translation), so the shift is
known exactly and can be inverted in tests.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError

SOURCE = "source"
TARGET = "target"


@dataclass
class ShiftSpec:
    """Rigid transform applied to an independently drawn target set."""

    translation: tuple = (0.0, 0.0)
    rotation: float = 0.0
    per_class_translation: Optional[dict] = None

    def __post_init__(self):
        if not (-math.pi < self.rotation <= math.pi):
            raise ConfigError(f"rotation must lie in (-pi, pi], got {self.rotation}")

    def apply(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        centroid = points.mean(axis=0)
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        out = (points - centroid) @ rot.T + centroid + np.asarray(self.translation, dtype=float)
        if self.per_class_translation:
            for cls, delta in self.per_class_translation.items():
                out[labels == cls] += np.asarray(delta, dtype=float)
        return out


@dataclass
class LabeledSet:
    """Point cloud with integer class labels and an optional 0/1 finding matrix.

    points: (n, 2) float64. labels: (n,) int64 class indices. findings:
    optional (n, F) 0/1 matrix for the multi-output binary mode; the class
    labels stay alongside so splits remain stratified by cluster.
    """

    points: np.ndarray
    labels: np.ndarray
    domain_tag: str
    findings: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ConfigError(f"points must be (n, 2), got {self.points.shape}")
        if len(self.points) != len(self.labels):
            raise ConfigError("points and labels length mismatch")
        if self.domain_tag not in (SOURCE, TARGET):
            raise ConfigError(f"unknown domain tag {self.domain_tag!r}")
        if self.findings is not None:
            self.findings = np.asarray(self.findings, dtype=np.int64)
            if self.findings.shape[0] != len(self.points):
                raise ConfigError("findings row count mismatch")
            if not np.isin(self.findings, (0, 1)).all():
                raise ConfigError("findings must be 0/1")

    def __len__(self):
        return len(self.points)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def subset(self, indices) -> "LabeledSet":
        idx = np.asarray(indices, dtype=np.int64)
        findings = self.findings[idx] if self.findings is not None else None
        return LabeledSet(self.points[idx], self.labels[idx], self.domain_tag, findings)


@dataclass
class BlobsSpec:
    num_classes: int = 3
    samples_per_class: int = 400
    class_centers: tuple = ((0.0, 0.0), (4.0, 0.0), (2.0, 3.5))
    std: float = 0.9
    target_transform: ShiftSpec = field(
        default_factory=lambda: ShiftSpec(translation=(1.2, 0.8), rotation=0.3)
    )

    def __post_init__(self):
        if self.num_classes < 1 or self.samples_per_class < 1:
            raise ConfigError("blobs need at least one class and one sample per class")
        if len(self.class_centers) != self.num_classes:
            raise ConfigError(
                f"{len(self.class_centers)} centers for {self.num_classes} classes"
            )
        if self.std <= 0:
            raise ConfigError(f"std must be positive, got {self.std}")

    @property
    def outputs(self) -> int:
        return self.num_classes

    def sample(self, rng: np.random.Generator):
        per = self.samples_per_class
        points = np.concatenate(
            [
                np.asarray(center, dtype=float) + rng.normal(scale=self.std, size=(per, 2))
                for center in self.class_centers
            ]
        )
        return points, np.repeat(np.arange(self.num_classes, dtype=np.int64), per)


@dataclass
class MoonsSpec:
    outputs = 2  # the two half-circles
    samples_per_class: int = 500
    noise_std: float = 0.12
    target_transform: ShiftSpec = field(
        default_factory=lambda: ShiftSpec(translation=(0.35, 0.2), rotation=0.25)
    )

    def __post_init__(self):
        if self.samples_per_class < 1:
            raise ConfigError("moons need at least one sample per class")
        if self.noise_std <= 0:
            raise ConfigError(f"noise_std must be positive, got {self.noise_std}")

    def sample(self, rng: np.random.Generator):
        per = self.samples_per_class
        t = np.linspace(0.0, math.pi, per)
        upper = np.stack([np.cos(t), np.sin(t)], axis=1)
        lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
        points = np.concatenate([upper, lower]) + rng.normal(scale=self.noise_std, size=(2 * per, 2))
        return points, np.repeat(np.arange(self.outputs, dtype=np.int64), per)


@dataclass
class BinarySpec:
    """Multi-output mode: blobs geometry plus F linear-boundary findings.

    Each finding is a fixed linear function of the plane; its offset is the
    (1 - prevalence) quantile of the source cloud's projections, so source
    prevalence is controllable while target prevalence floats with the shift.
    """

    blobs: BlobsSpec = field(default_factory=BlobsSpec)
    num_findings: int = 4
    prevalences: Optional[tuple] = None

    def __post_init__(self):
        if self.num_findings < 1:
            raise ConfigError("need at least one finding")
        if self.prevalences is None:
            self.prevalences = tuple(0.5 for _ in range(self.num_findings))
        if len(self.prevalences) != self.num_findings:
            raise ConfigError("one prevalence per finding required")
        for q in self.prevalences:
            if not 0.0 < q < 1.0:
                raise ConfigError(f"prevalence must be in (0,1), got {q}")

    @property
    def outputs(self) -> int:
        return self.num_findings  # one sigmoid per finding


def finding_boundaries(spec: BinarySpec, source_points: np.ndarray, seed) -> list:
    """Per-finding (direction, offset) pairs calibrated on the source cloud."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    centroid = source_points.mean(axis=0)
    bounds = []
    for q in spec.prevalences:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(angle), math.sin(angle)])
        proj = (source_points - centroid) @ direction
        offset = float(np.quantile(proj, 1.0 - q))
        bounds.append((direction, centroid, offset))
    return bounds


def assign_findings(points: np.ndarray, boundaries: list) -> np.ndarray:
    cols = [((points - c) @ d > off).astype(np.int64) for d, c, off in boundaries]
    return np.stack(cols, axis=1)


KINDS = {"blobs": BlobsSpec, "moons": MoonsSpec, "binary": BinarySpec}


def make_pair(spec, seed) -> tuple:
    """Independent source/target draws of a KINDS spec, the target pushed
    through the shift. A binary pair is its blobs pair plus findings whose
    boundaries are calibrated on the source cloud."""
    if isinstance(spec, BinarySpec):
        source, target = make_pair(spec.blobs, seed)
        boundaries = finding_boundaries(spec, source.points, seed)
        source.findings = assign_findings(source.points, boundaries)
        target.findings = assign_findings(target.points, boundaries)
        return source, target
    src_ss, tgt_ss = np.random.SeedSequence(seed).spawn(2)
    src_pts, src_lab = spec.sample(np.random.default_rng(src_ss))
    tgt_pts, tgt_lab = spec.sample(np.random.default_rng(tgt_ss))
    tgt_pts = spec.target_transform.apply(tgt_pts, tgt_lab)
    return LabeledSet(src_pts, src_lab, SOURCE), LabeledSet(tgt_pts, tgt_lab, TARGET)


def split_train_test(dataset: LabeledSet, ratio: float, seed) -> tuple:
    """Stratified split; per class, round(ratio * n) samples go to train."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0,1), got {ratio}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    train_idx, test_idx = [], []
    for cls in np.unique(dataset.labels):
        members = np.flatnonzero(dataset.labels == cls)
        n_train = int(math.floor(ratio * len(members) + 0.5))
        if not 0 < n_train < len(members):
            raise ConfigError(f"class {cls}: split ratio {ratio} sends {n_train} of its "
                              f"{len(members)} samples to train; each side needs one")
        perm = rng.permutation(members)
        train_idx.extend(perm[:n_train].tolist())
        test_idx.extend(perm[n_train:].tolist())
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(test_idx))


def write_dataset_csv(path, parts) -> None:
    """parts: list of (LabeledSet, split_name). Columns per the wire format:
    x1,x2,label[,finding_0..],domain,split."""
    num_findings = 0
    for ds, _ in parts:
        if ds.findings is not None:
            num_findings = ds.findings.shape[1]
    header = ["x1", "x2", "label"]
    header += [f"finding_{j}" for j in range(num_findings)]
    header += ["domain", "split"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ds, split_name in parts:
            for i in range(len(ds)):
                row = [repr(float(ds.points[i, 0])), repr(float(ds.points[i, 1])), int(ds.labels[i])]
                if num_findings:
                    row += [int(v) for v in ds.findings[i]]
                row += [ds.domain_tag, split_name]
                writer.writerow(row)


def rms_radius(points: np.ndarray) -> float:
    """Root-mean-square distance from the centroid; the augmentation scale unit."""
    centered = points - points.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))
