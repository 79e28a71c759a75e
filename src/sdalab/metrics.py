"""Evaluation metrics and decision-boundary grids."""

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import LabeledSet
from .errors import ConfigError, MetricError


def top1_accuracy(model: nn.MlpModel, points, labels, buffers=None) -> float:
    """Fraction of samples whose predicted class equals ground truth; the
    forward pass runs on buffers (nn.StepBuffers) if given."""
    points = np.asarray(points)
    if len(points) == 0:
        raise MetricError("accuracy of an empty set is undefined")
    hits = nn.predict(model, points, buffers=buffers) == np.asarray(labels)
    return float(np.add.reduce(hits, dtype=np.float64) / hits.size)  # np.mean's arithmetic


def mean_auroc(model: nn.MlpModel, dataset: LabeledSet, buffers=None) -> float:
    """Average AUROC across findings; the binary-mode headline metric. The
    forward pass runs on buffers (nn.StepBuffers) if given."""
    probs = nn.forward(model, dataset.points, buffers).probs
    columns = auroc_columns(probs, dataset.findings)
    return float(np.add.reduce(columns) / len(columns))  # np.mean's arithmetic


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks along each row of values (a vector is one row), ties
    sharing the average of the tied positions."""
    n = values.shape[-1]
    ranks = np.empty(values.shape, dtype=np.float64)
    if n == 0:
        return ranks
    # where each row's sorted entries sit in values, and in ranks, as flat indices
    at = values.argsort(axis=-1, kind="stable")
    at += np.arange(0, values.size, n).reshape(*values.shape[:-1], 1)
    ordered = values.take(at)
    # a tie group starts wherever the sorted value changes (NaN != NaN, so
    # each NaN is a group of its own); it ends where the next one starts
    starts, ends = np.empty(values.shape, dtype=bool), np.empty(values.shape, dtype=bool)
    starts[..., 0] = ends[..., -1] = True
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    ends[..., :-1] = starts[..., 1:]
    pos = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[..., ::-1], axis=-1)[..., ::-1]
    # sorted positions first..last (0-based) share the mean rank; keep the
    # arithmetic exact in halves: the mean of first+1..last+1 is (first+last)/2 + 1
    ranks.put(at, (first + last) / 2.0 + 1.0)
    return ranks


def auroc(scores, labels) -> float:
    """Mann-Whitney statistic via average ranks: (wins + 0.5*ties) / (P*N)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be equal-length vectors")
    return float(auroc_columns(scores[:, None], labels[:, None])[0])


def auroc_columns(scores, labels) -> np.ndarray:
    """auroc of each column of the (n, F) scores against the same column of
    labels, all ranked in one pass; the first column without an AUROC
    raises as auroc would. Ranks are multiples of 0.5 no larger than n, so
    every sum is exact in any order and each column gets auroc's bits."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise MetricError("scores and labels must be matrices of one shape")
    scores, labels = scores.T, labels.T  # a finding per row: each rank runs along a row
    positive = labels == 1
    pos, neg = positive.sum(axis=1), (labels == 0).sum(axis=1)
    for p, q in zip(pos.tolist(), neg.tolist()):
        if p + q != labels.shape[1]:
            raise MetricError("labels must be 0/1")
        if p == 0 or q == 0:
            raise MetricError("AUROC undefined: need at least one positive and one negative")
    u = np.where(positive, _average_ranks(scores), 0.0).sum(axis=1) - pos * (pos + 1) / 2.0
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


def decision_grid(model: nn.MlpModel, bounds, resolution: int) -> DecisionGrid:
    """Predicted class at each cell center."""
    xmin, xmax, ymin, ymax = bounds
    check_resolution(resolution)
    if xmin >= xmax or ymin >= ymax:
        raise ConfigError(f"inverted bounds {bounds}")
    xs = xmin + (np.arange(resolution) + 0.5) * (xmax - xmin) / resolution
    ys = ymin + (np.arange(resolution) + 0.5) * (ymax - ymin) / resolution
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    preds = nn.predict(model, pts)
    return DecisionGrid(tuple(bounds), resolution, preds.reshape(resolution, resolution))


def mean_std(values) -> tuple:
    """Mean and sample standard deviation (ddof=1; zero for a single value)."""
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) == 0:
        raise MetricError("mean of an empty sequence")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, std
