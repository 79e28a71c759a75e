"""Evaluation metrics and decision-boundary grids."""

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, MetricError


def top1_accuracy(model: nn.MlpModel, points, labels, thresholds=None) -> float:
    """Fraction of samples whose prediction equals ground truth.

    With a sigmoid head, labels is a 0/1 matrix and a sample counts as
    correct only when every output matches.
    """
    points = np.asarray(points)
    if len(points) == 0:
        raise MetricError("accuracy of an empty set is undefined")
    preds = nn.predict(model, points, thresholds=thresholds)
    labels = np.asarray(labels)
    if preds.ndim == 2:
        return float(np.mean(np.all(preds == labels, axis=1)))
    return float(np.mean(preds == labels))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the average of the tied positions."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    if n == 0:
        return ranks
    ordered = values[order]
    # a tie group starts wherever the sorted value changes (NaN != NaN, so
    # each NaN is a group of its own)
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], n) - 1
    # sorted positions start..end (0-based) share the mean rank; keep the
    # arithmetic exact in halves: the mean of start+1..end+1 is (start+end)/2 + 1
    avg = (starts + ends) / 2.0 + 1.0
    ranks[order] = np.repeat(avg, ends - starts + 1)
    return ranks


def auroc(scores, labels) -> float:
    """Mann-Whitney statistic via average ranks: (wins + 0.5*ties) / (P*N)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be equal-length vectors")
    pos = int(np.sum(labels == 1))
    neg = int(np.sum(labels == 0))
    if pos + neg != len(labels):
        raise MetricError("labels must be 0/1")
    if pos == 0 or neg == 0:
        raise MetricError("AUROC undefined: need at least one positive and one negative")
    ranks = _average_ranks(scores)
    u = float(np.sum(ranks[labels == 1])) - pos * (pos + 1) / 2.0
    return u / (pos * neg)


def threshold_candidates(scores: np.ndarray) -> np.ndarray:
    """Midpoints between adjacent distinct scores plus sentinels outside the range."""
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate([[distinct[0] - 0.5], mids, [distinct[-1] + 0.5]])


def youden_threshold(scores, labels) -> float:
    """Threshold maximizing sensitivity + specificity - 1; ties pick the lowest.

    Prediction rule matches the model head: positive iff score >= threshold.
    Each candidate's rates come from counts in the sorted scores; the scan
    keeps the first candidate that beats the best so far by more than 1e-15.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if np.isnan(scores).any():
        raise MetricError("Youden threshold of NaN scores is undefined")
    candidates = threshold_candidates(scores)
    pos, neg = np.sort(scores[labels == 1]), np.sort(scores[labels == 0])
    if len(pos) == 0 or len(neg) == 0:
        return None  # every candidate's j is NaN, and none beats -inf

    def rate(group):  # the share of the group scoring >= each candidate
        return (len(group) - np.searchsorted(group, candidates, side="left")) / len(group)

    best_t, best_j = None, -np.inf
    for t, j in zip(candidates.tolist(), (rate(pos) - rate(neg)).tolist()):
        if j > best_j + 1e-15:
            best_t, best_j = t, j
    return best_t


def source_thresholds(model: nn.MlpModel, points, label_matrix) -> tuple:
    """Per-output Youden thresholds on held-out source data.

    Returns (thresholds, degenerate_flags); an output column with a single
    label value falls back to 0.5 and is flagged.
    """
    if model.head != nn.SIGMOID:
        raise ConfigError("source thresholds apply to sigmoid-head models")
    probs = nn.forward(model, np.asarray(points)).probs
    labels = np.asarray(label_matrix)
    if labels.shape != probs.shape:
        raise ConfigError(f"label matrix {labels.shape} vs outputs {probs.shape}")
    thresholds, flags = [], []
    for j in range(probs.shape[1]):
        col = labels[:, j]
        if len(np.unique(col)) < 2:
            thresholds.append(0.5)
            flags.append(True)
        else:
            thresholds.append(youden_threshold(probs[:, j], col))
            flags.append(False)
    return thresholds, flags


@dataclass
class DecisionGrid:
    bounds: tuple  # (xmin, xmax, ymin, ymax)
    resolution: int
    cells: np.ndarray  # (resolution, resolution); [row, col] = (y index, x index)


def check_resolution(resolution: int) -> None:
    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")


def decision_grid(model: nn.MlpModel, bounds, resolution: int, thresholds=None) -> DecisionGrid:
    """Predicted class at each cell center; sigmoid heads encode the 0/1
    outputs as a bitmask (finding j contributes 2**j)."""
    xmin, xmax, ymin, ymax = bounds
    check_resolution(resolution)
    if xmin >= xmax or ymin >= ymax:
        raise ConfigError(f"inverted bounds {bounds}")
    xs = xmin + (np.arange(resolution) + 0.5) * (xmax - xmin) / resolution
    ys = ymin + (np.arange(resolution) + 0.5) * (ymax - ymin) / resolution
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    preds = nn.predict(model, pts, thresholds=thresholds)
    if preds.ndim == 2:
        weights = 2 ** np.arange(preds.shape[1], dtype=np.int64)
        preds = preds @ weights
    return DecisionGrid(tuple(bounds), resolution, preds.reshape(resolution, resolution))


def mean_std(values) -> tuple:
    """Mean and sample standard deviation (ddof=1; zero for a single value)."""
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) == 0:
        raise MetricError("mean of an empty sequence")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, std
