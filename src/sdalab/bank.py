"""Candidate bank and defending-sample retrieval.

Each epoch, the unlabeled pool is pseudo-labeled by the frozen current model
and filtered down to the most confident fraction p within each pseudo class.
During the epoch, every labeled sample in a mini-batch pulls k "defending"
samples that share its ground-truth label out of the bank; training on them
with that shared pseudo label keeps a biased labeled batch from dragging the
decision boundary through regions the model still classifies confidently.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import nn
from .errors import ConfigError

CLASS_AWARE_RANDOM = "class_aware_random"
UNCONDITIONED_RANDOM = "unconditioned_random"
KMEANS_CENTER = "kmeans_center"
COSINE_DISTANT = "cosine_distant"
STRATEGIES = (CLASS_AWARE_RANDOM, UNCONDITIONED_RANDOM, KMEANS_CENTER, COSINE_DISTANT)

DUPLICATE_LABELED = "duplicate_labeled"
SKIP_WITH_FLAG = "skip_with_flag"


def top_fraction_count(p: float, n: int) -> int:
    """ceil(p*n) with a guard against float artifacts like 0.4*10 -> 4.0000...01."""
    if n == 0:
        return 0
    return math.ceil(p * n - 1e-9)


@dataclass
class RldConfig:
    p: float = 0.4
    k: int = 3
    strategy: str = CLASS_AWARE_RANDOM
    kmeans_clusters: Optional[int] = None
    empty_class_fallback: str = DUPLICATE_LABELED

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"filtering rate p must be in (0,1], got {self.p}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown retrieval strategy {self.strategy!r}")
        if self.empty_class_fallback not in (DUPLICATE_LABELED, SKIP_WITH_FLAG):
            raise ConfigError(f"unknown fallback {self.empty_class_fallback!r}")
        if self.kmeans_clusters is None:
            self.kmeans_clusters = self.k
        if self.kmeans_clusters < 1:
            raise ConfigError("kmeans_clusters must be >= 1")


@dataclass
class CandidateBank:
    """Per-class confident pseudo-labeled entries, frozen for one epoch.

    class_indices[c] holds global sample indices sorted by confidence
    descending (ties by ascending index); class_conf[c] aligns with it.
    points is the full unlabeled coordinate array the indices refer into.
    The row array of each class is kept once known (the bank builders hand
    it over, other banks compute it on first use), so a bank must not be
    edited once retrieval has started reading it.
    """

    num_classes: int
    points: np.ndarray
    index_of: dict  # global sample index -> row in points
    class_indices: list = field(default_factory=list)
    class_conf: list = field(default_factory=list)
    epoch_stamp: int = 0
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def class_size(self, cls: int) -> int:
        return len(self.class_indices[cls])

    def sizes(self) -> list:
        return [len(ix) for ix in self.class_indices]

    def class_rows(self, cls: int) -> np.ndarray:
        """Rows in points of class cls's entries, in class_indices order."""
        if cls not in self._rows:
            self._rows[cls] = np.array(
                [self.index_of[i] for i in self.class_indices[cls]], dtype=np.intp
            )
        return self._rows[cls]

    def class_points(self, cls: int) -> np.ndarray:
        return self.points[self.class_rows(cls)]

    @classmethod
    def concat(cls, banks) -> "CandidateBank":
        """One bank whose classes are those of banks, in order; the banks must
        share one pool of points and one epoch, as generate_bank_binary's do."""
        first = banks[0]
        out = cls(
            sum(b.num_classes for b in banks), first.points, first.index_of,
            epoch_stamp=first.epoch_stamp,
        )
        for b in banks:
            for c in range(b.num_classes):
                out._rows[len(out.class_indices)] = b.class_rows(c)
                out.class_indices.append(b.class_indices[c])
                out.class_conf.append(b.class_conf[c])
        return out


def generate_bank(
    model: nn.MlpModel,
    unlabeled_points: np.ndarray,
    unlabeled_indices,
    p: float,
    num_classes: int,
    epoch_stamp: int = 0,
) -> CandidateBank:
    """Pseudo-label the pool and keep the top-p fraction per class by confidence."""
    pool, probs = _pool(model, unlabeled_points, unlabeled_indices)
    pseudo = nn.argmax_rows(probs)
    conf = probs[np.arange(len(probs)), pseudo]
    return _bank(pool, [pseudo == cls for cls in range(num_classes)], conf, p, epoch_stamp)


def _pool(model: nn.MlpModel, unlabeled_points, unlabeled_indices) -> tuple:
    """((points, global indices, index map), model probabilities) of a pool."""
    if len(unlabeled_points) == 0:
        raise ConfigError("cannot build a candidate bank from an empty unlabeled pool")
    indices = np.asarray(unlabeled_indices, dtype=np.int64)
    index_of = dict(zip(indices.tolist(), range(len(indices))))
    pool = (np.asarray(unlabeled_points, dtype=np.float64), indices, index_of)
    return pool, nn.forward(model, unlabeled_points).probs


def _bank(pool: tuple, members: list, conf, p: float, epoch_stamp: int) -> CandidateBank:
    """A bank with one class per row mask in members. Each class keeps the
    top-p fraction of its rows, by confidence descending and then global
    index ascending (unique, so the order is total)."""
    points, indices, index_of = pool
    bank = CandidateBank(len(members), points, index_of, epoch_stamp=epoch_stamp)
    for rows in map(np.flatnonzero, members):
        keep = top_fraction_count(p, len(rows))
        order = rows[np.lexsort((indices[rows], -conf[rows]))][:keep]
        bank._rows[len(bank.class_indices)] = order
        bank.class_indices.append(indices[order].tolist())
        bank.class_conf.append(conf[order].tolist())
    return bank


def _kmeans_per_point(bank: CandidateBank, labels, n_clusters: int, rng) -> list:
    """Centroids of one k-means run per labeled point, on its class's bank
    slice; None for a point whose class slice is empty.

    Each run's forgy init (random distinct rows) is drawn in labeled order,
    so the rng advances exactly as one run after another would advance it;
    the runs of one class then iterate together.
    """
    runs = {}  # class -> (positions, init rows)
    for i, y in enumerate(labels):
        cls = int(y)
        n = bank.class_size(cls) if cls < bank.num_classes else 0
        if n:
            rows = rng.choice(n, size=min(n_clusters, n), replace=False)
            positions, inits = runs.setdefault(cls, ([], []))
            positions.append(i)
            inits.append(rows)
    centroids_of = [None] * len(labels)
    for cls, (positions, inits) in runs.items():
        for i, centroids in zip(positions, _lloyd(bank.class_points(cls), np.stack(inits))):
            centroids_of[i] = centroids
    return centroids_of


def _lloyd(points: np.ndarray, init_rows: np.ndarray) -> np.ndarray:
    """Lloyd's algorithm, at most 20 iterations, for several runs at once.

    init_rows[r] holds run r's initial centroid rows; returns the centroids
    shaped (runs, clusters, dim). An empty cluster keeps its centroid.
    Arrays are laid out coordinate first and point last, so squared
    distances are summed one coordinate at a time, and member sums are taken
    with bincount, one coordinate at a time with rows in index order. For
    two-coordinate points, the only kind the lab makes, each run so gets
    exactly the bits it would get alone from
    ``((points - centroid) ** 2).sum(axis=-1)`` and ``members.mean(axis=0)``.
    Iteration stops once no assignment changes: the update would then
    recompute the same centroids bit for bit, and so would every later one.
    """
    dim = points.shape[1]
    runs, n_clusters = init_rows.shape
    coords = np.ascontiguousarray(points.T)
    centroids = coords[:, init_rows]  # (dim, runs, clusters)
    flat_centroids = centroids.reshape(dim, runs * n_clusters)  # a view
    offsets = (np.arange(runs) * n_clusters)[:, None]
    weights = np.tile(coords, (1, runs))  # (dim, runs * n)
    previous = None
    for _ in range(20):
        sq = (coords[:, None, None, :] - centroids[:, :, :, None]) ** 2
        d2 = sq[0]
        for j in range(1, dim):
            d2 = d2 + sq[j]
        assign = (np.argmin(d2, axis=1) + offsets).ravel()  # (runs * n,)
        if previous is not None and np.array_equal(assign, previous):
            break
        previous = assign
        counts = np.bincount(assign, minlength=runs * n_clusters)
        filled = counts > 0
        for j in range(dim):
            sums = np.bincount(assign, weights=weights[j], minlength=runs * n_clusters)
            flat_centroids[j, filled] = sums[filled] / counts[filled]
    return centroids.transpose(1, 2, 0)


def _nearest_per_centroid(points: np.ndarray, centroids: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k retrieved points: round-robin over centroids,
    each yielding its next-nearest unused point (ties by row); wraps to reuse
    when exhausted."""
    dist = np.linalg.norm(points[None, :, :] - centroids[:, None, :], axis=2)
    order_per_centroid = np.argsort(dist, axis=1, kind="stable")
    picks = []
    depth = 0
    while len(picks) < k:
        for order in order_per_centroid:
            if len(picks) == k:
                break
            picks.append(order[depth % len(order)])
        depth += 1
    return np.array(picks, dtype=np.intp)


def _cosine_distance(a: np.ndarray, b: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """1 - cos(a, rows of b), given nb = the row norms of b; zero-norm
    vectors count as orthogonal."""
    na = np.linalg.norm(a)
    denom = na * nb
    ok = denom > 0.0
    if ok.all():
        return 1.0 - (b @ a) / denom
    sim = np.zeros(len(b))
    sim[ok] = (b[ok] @ a) / denom[ok]
    return 1.0 - sim


def retrieve_defending(
    bank: CandidateBank,
    labeled_points: np.ndarray,
    labeled_labels,
    cfg: RldConfig,
    rng: np.random.Generator,
    model: Optional[nn.MlpModel] = None,
    epoch: Optional[int] = None,
) -> tuple:
    """k defending (point, pseudo-label) pairs per labeled sample.

    Returns (points, labels, fallback_events). With DuplicateLabeled the output
    always has k * len(labeled) rows; SkipWithFlag may return fewer.
    """
    if epoch is not None and epoch != bank.epoch_stamp:
        raise ConfigError(
            f"stale candidate bank: stamped epoch {bank.epoch_stamp}, now {epoch}"
        )
    if cfg.strategy == COSINE_DISTANT and model is None:
        raise ConfigError("cosine_distant retrieval needs the model for features")
    labels = np.asarray(labeled_labels, dtype=np.int64)
    # Each labeled point's output rows index the gather source: bank.points,
    # followed by the labeled points when DuplicateLabeled repeats one.
    out_rows, out_lab = [], []
    fallbacks = 0
    duplicated = False
    if cfg.strategy == KMEANS_CENTER:
        centroids_of = _kmeans_per_point(bank, labels, cfg.kmeans_clusters, rng)
    if cfg.strategy == UNCONDITIONED_RANDOM:
        pool_rows = np.concatenate([bank.class_rows(c) for c in range(bank.num_classes)])
        pool_labels = np.repeat(np.arange(bank.num_classes), bank.sizes())
    # Per-class data the model fixes for this call, computed for the first
    # labeled point of a class and reused by the rest. Cosine picks are kept
    # per (class, point): the same inputs select the same rows.
    class_pts, candidates, cosine_picks = {}, {}, {}
    for i, (x, y) in enumerate(zip(labeled_points, labels)):
        cls = int(y)
        size = bank.class_size(cls) if cls < bank.num_classes else 0
        if cfg.strategy == UNCONDITIONED_RANDOM:
            draws = rng.choice(len(pool_rows), size=cfg.k, replace=len(pool_rows) < cfg.k)
            out_rows.append(pool_rows[draws])
            out_lab.append(pool_labels[draws])
            continue
        if size == 0:
            fallbacks += 1
            if cfg.empty_class_fallback == DUPLICATE_LABELED:
                duplicated = True
                out_rows.append(np.full(cfg.k, len(bank.points) + i))
                out_lab.append(np.full(cfg.k, cls, dtype=np.int64))
            continue
        rows = bank.class_rows(cls)
        if cfg.strategy == CLASS_AWARE_RANDOM:
            draws = rng.choice(size, size=cfg.k, replace=size < cfg.k)
            out_rows.append(rows[draws])
        elif cfg.strategy == KMEANS_CENTER:
            if cls not in class_pts:
                class_pts[cls] = bank.class_points(cls)
            out_rows.append(rows[_nearest_per_centroid(class_pts[cls], centroids_of[i], cfg.k)])
        elif cfg.strategy == COSINE_DISTANT:
            x = np.asarray(x, dtype=float)
            key = (cls, x.tobytes())
            if key not in cosine_picks:
                if cls not in candidates:
                    feat = nn.penultimate_features(model, bank.class_points(cls))
                    candidates[cls] = (
                        feat, np.linalg.norm(feat, axis=1), np.asarray(bank.class_indices[cls])
                    )
                feat, norms, global_idx = candidates[cls]
                # the labeled point's own features stay a one-row pass: a
                # batched matmul is not bit-equal to the same rows done one at
                # a time
                feat_x = nn.penultimate_features(model, x[None, :])[0]
                dist = _cosine_distance(feat_x, feat, norms)
                order = np.lexsort((global_idx, -dist))
                # fewer candidates than k wraps around deterministically
                cosine_picks[key] = rows[order[np.arange(cfg.k) % len(order)]]
            out_rows.append(cosine_picks[key])
        out_lab.append(np.full(cfg.k, cls, dtype=np.int64))
    if not out_rows:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.int64), fallbacks
    source = bank.points
    if duplicated:
        source = np.concatenate([bank.points, np.asarray(labeled_points, dtype=np.float64)])
    return source[np.concatenate(out_rows)], np.concatenate(out_lab), fallbacks


def generate_bank_binary(
    model: nn.MlpModel,
    unlabeled_points: np.ndarray,
    unlabeled_indices,
    p: float,
    thresholds,
    epoch_stamp: int = 0,
) -> list:
    """Binary-mode banks: one two-class bank per finding.

    Pseudo label = thresholded prediction for that finding; confidence =
    distance from the finding's threshold. Returns a list of CandidateBank,
    each with classes {0, 1}, sharing one pool of points; adaptation reads
    them as one bank through CandidateBank.concat.
    """
    pool, probs = _pool(model, unlabeled_points, unlabeled_indices)
    thresholds = np.asarray(thresholds, dtype=float)
    positive = probs >= thresholds
    conf = np.abs(probs - thresholds)
    return [
        _bank(pool, [~positive[:, j], positive[:, j]], conf[:, j], p, epoch_stamp)
        for j in range(probs.shape[1])
    ]
