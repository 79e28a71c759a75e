"""Candidate bank and defending-sample retrieval.

Each epoch, the unlabeled pool is pseudo-labeled by the frozen current model
and filtered down to the most confident fraction p within each pseudo class.
During the epoch, every labeled sample in a mini-batch pulls k "defending"
samples that share its ground-truth label out of the bank; training on them
with that shared pseudo label keeps a biased labeled batch from dragging the
decision boundary through regions the model still classifies confidently.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from .errors import ConfigError, ShapeError

CLASS_AWARE_RANDOM = "class_aware_random"
UNCONDITIONED_RANDOM = "unconditioned_random"
KMEANS_CENTER = "kmeans_center"
COSINE_DISTANT = "cosine_distant"
STRATEGIES = (CLASS_AWARE_RANDOM, UNCONDITIONED_RANDOM, KMEANS_CENTER, COSINE_DISTANT)
# Strategies whose picks read only the bank, the labeled points and the rng,
# never the model.
MODEL_FREE = (CLASS_AWARE_RANDOM, UNCONDITIONED_RANDOM, KMEANS_CENTER)

DUPLICATE_LABELED = "duplicate_labeled"
SKIP_WITH_FLAG = "skip_with_flag"


def top_fraction_count(p: float, n: int) -> int:
    """ceil(p*n) with a guard against float artifacts like 0.4*10 -> 4.0000...01."""
    if n == 0:
        return 0
    return math.ceil(p * n - 1e-9)


@dataclass
class RldConfig:
    """Retrieval settings: the bank's filtering rate p, and k, the number of
    defending samples each labeled point retrieves (k has no other home)."""

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


class CandidateBank:
    """Per-class confident pseudo-labeled entries of one pool, frozen for one epoch.

    points and indices are the pool: its coordinates and the global sample
    index of each of its rows, all distinct. rows holds every entry's row in
    points, class by class, each class by confidence descending and then
    index ascending; conf aligns with rows. Class c's entries are
    rows[offsets[c]:offsets[c + 1]], and counts[c] is their number.
    no_entries[c] tells whether class c has none; its last cell, True,
    stands for every label past the bank's classes.

    cosine_distant retrieval reads two more arrays: entry_points, the points
    of rows in rows' order, and index_map, whose row c holds the positions in
    rows of class c's entries in ascending global index order, padded with
    the class's first position to the largest class's size. The constructor
    builds every array once; they are read-only after.
    """

    def __init__(self, points, indices, class_rows, class_conf, p=1.0, epoch_stamp=0):
        """class_rows[c] holds class c's candidate rows in points and
        class_conf[c] their confidences; the class keeps the top-p fraction."""
        self.points = points
        self.indices = np.asarray(indices, dtype=np.int64)
        self.epoch_stamp = epoch_stamp
        rows, conf, by_index = [], [], []
        for cand, cand_conf in zip(class_rows, class_conf):
            cand = np.asarray(cand, dtype=np.intp)
            cand_conf = np.asarray(cand_conf, dtype=np.float64)
            order = np.lexsort((self.indices[cand], -cand_conf))
            keep = order[: top_fraction_count(p, len(cand))]
            rows.append(cand[keep])
            conf.append(cand_conf[keep])
            by_index.append(np.argsort(self.indices[rows[-1]], kind="stable"))
        self.rows = np.concatenate(rows)
        self.conf = np.concatenate(conf)
        self.counts = np.array([len(r) for r in rows], dtype=np.intp)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.no_entries = np.append(self.counts == 0, True)
        self.entry_points = np.asarray(points, dtype=np.float64)[self.rows]
        self.index_map = np.repeat(self.offsets[:-1, None], self.counts.max(), axis=1)
        for c, order in enumerate(by_index):
            self.index_map[c, : len(order)] += order
        for array in (self.rows, self.conf, self.counts, self.offsets, self.no_entries,
                      self.entry_points, self.index_map):
            array.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    def class_size(self, cls: int) -> int:
        return int(self.counts[cls])

    def sizes(self) -> list:
        return self.counts.tolist()

    def class_rows(self, cls: int) -> np.ndarray:
        return self.rows[self.offsets[cls] : self.offsets[cls + 1]]

    def class_conf(self, cls: int) -> np.ndarray:
        return self.conf[self.offsets[cls] : self.offsets[cls + 1]]

    def class_indices(self, cls: int) -> np.ndarray:
        return self.indices[self.class_rows(cls)]

    def class_points(self, cls: int) -> np.ndarray:
        return self.points[self.class_rows(cls)]

    @classmethod
    def concat(cls, banks) -> "CandidateBank":
        """One bank whose classes are those of banks, in order; the banks must
        share one pool of points and one epoch, as generate_bank_binary's do."""
        first = banks[0]
        classes = [(b.class_rows(c), b.class_conf(c)) for b in banks for c in range(b.num_classes)]
        return cls(first.points, first.indices, *zip(*classes), epoch_stamp=first.epoch_stamp)


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
    """((points, global indices), model probabilities) of a pool."""
    if len(unlabeled_points) == 0:
        raise ConfigError("cannot build a candidate bank from an empty unlabeled pool")
    pool = (np.asarray(unlabeled_points, dtype=np.float64), unlabeled_indices)
    return pool, nn.forward(model, unlabeled_points).probs


def _bank(pool: tuple, members: list, conf, p: float, epoch_stamp: int) -> CandidateBank:
    """A bank with one class per row mask in members, conf giving each
    pool row's confidence."""
    rows = [np.flatnonzero(m) for m in members]
    return CandidateBank(*pool, rows, [conf[r] for r in rows], p, epoch_stamp)


def _choices(rng: np.random.Generator, sizes, k: int, replace: bool) -> np.ndarray:
    """Row r of the result, shaped (len(sizes), k), is
    ``rng.choice(n, size=k, replace=False)`` for n = sizes[r], the rows drawn
    one call after another: the values, and the rng's state after, are
    those of the calls. A row with n < k is the call's per-row contract:
    ``rng.choice(n, size=k, replace=True)`` when replace is set, else
    ``rng.choice(n, size=n, replace=False)`` in its first n columns, the
    rest -1.

    It mirrors numpy 2's Generator.choice without replacement
    (numpy/random/_generator.pyx): Floyd's algorithm takes, for j = n-k ..
    n-1, v in [0, j], and keeps v unless an earlier pick holds it, else j;
    then _shuffle_int swaps column i with a draw in [0, i] for i = k-1 ..
    1. A draw in [0, j] for j < 2**32 - 1 is random_bounded_uint64's
    Lemire path (buffered_bounded_lemire_uint32 in
    numpy/random/src/distributions/distributions.c): one 32-bit word w
    gives (w * (j+1)) >> 32, and only where (w * (j+1)) mod 2**32 < j+1
    may w be rejected for a further word; j = 0 takes no word. So all the
    rows' words are one ``rng.integers(0, 2**32, dtype=np.uint32)`` call,
    which reads the same next_uint32 stream, its buffered half included.
    Where a word may be rejected, or a row leaves that path (n < k, numpy's
    tail shuffle at n > 10000 with k > n // 50, or n >= 2**32), the rng is
    set back and each row is drawn by its own call. tests/test_bank.py
    checks the values and the state against the calls, so a numpy whose
    choice draws otherwise fails there.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    rows = len(sizes)
    if rows and (sizes.min() < k or sizes.max() >= 1 << 32
                 or np.any((sizes > 10000) & (k > sizes // 50))):
        return _choices_each(rng, sizes, k, replace)
    # a row's bounds j + 1 in draw order: Floyd's, then the shuffle's
    bounds = np.empty((rows, 2 * k - 1), dtype=np.uint64)
    bounds[:, :k] = sizes[:, None] + np.arange(1 - k, 1)
    bounds[:, k:] = np.arange(k, 1, -1)
    drawn = bounds > 1
    words = np.zeros_like(bounds)
    state = rng.bit_generator.state
    words[drawn] = rng.integers(0, 1 << 32, size=np.count_nonzero(drawn), dtype=np.uint32)
    scaled = np.multiply(words, bounds, out=words)
    if np.any(((scaled & 0xFFFFFFFF) < bounds) & drawn):
        rng.bit_generator.state = state
        return _choices_each(rng, sizes, k, replace)
    values = (scaled >> 32).astype(np.int64)
    out = np.empty((rows, k), dtype=np.int64)
    for t in range(k):
        taken = (out[:, :t] == values[:, t, None]).any(axis=1)
        out[:, t] = np.where(taken, sizes - k + t, values[:, t])
    at = np.arange(rows)
    for i, swap in zip(range(k - 1, 0, -1), values[:, k:].T):
        held = out[at, swap]
        out[at, swap] = out[:, i]
        out[:, i] = held
    return out


def _choices_each(rng: np.random.Generator, sizes: np.ndarray, k: int,
                  replace: bool) -> np.ndarray:
    """_choices one rng.choice call per row."""
    out = np.full((len(sizes), k), -1, dtype=np.int64)
    for r, n in enumerate(sizes.tolist()):
        size = k if n >= k or replace else n
        out[r, :size] = rng.choice(n, size=size, replace=replace and n < k)
    return out


def _kmeans_runs(bank: CandidateBank, labels, n_clusters: int, rng) -> dict:
    """One k-means run per labeled point on its class's bank slice, as
    {class: (positions, centroids)}: the positions in labels of the class's
    points and their runs' centroids, shaped (runs, clusters, dim). A class
    whose slice is empty has no entry.

    Each run's forgy init (min(clusters, n) distinct rows of the class's n)
    is drawn in labeled order by one _choices call, so the rng advances
    exactly as one run after another would advance it; the runs of one
    class then iterate together.
    """
    classes = np.minimum(labels, bank.num_classes)  # past the bank's classes: size 0
    sizes = np.append(bank.counts, 0)[classes]
    live = np.flatnonzero(sizes)
    inits = _choices(rng, sizes[live], n_clusters, replace=False)
    order = np.argsort(classes[live], kind="stable")
    found, starts = np.unique(classes[live][order], return_index=True)
    runs = {}
    for cls, group in zip(found.tolist(), np.split(order, starts[1:])):
        width = min(n_clusters, bank.class_size(cls))
        runs[cls] = (live[group], _lloyd(bank.class_points(cls), inits[group, :width]))
    return runs


def _lloyd(points: np.ndarray, init_rows: np.ndarray) -> np.ndarray:
    """Lloyd's algorithm, at most 20 iterations, for many runs at once.

    init_rows[r] holds run r's initial centroid rows; returns the centroids
    shaped (runs, clusters, dim). An empty cluster keeps its centroid.
    Arrays are laid out coordinate first, then cluster, then run, and point
    last, so squared distances are summed one coordinate at a time, and
    member sums are taken with bincount, one coordinate at a time with rows
    in index order. For two-coordinate points, the only kind the lab makes,
    each run so gets exactly the bits it would get alone from
    ``((points - centroid) ** 2).sum(axis=-1)`` and ``members.mean(axis=0)``.
    A point joins the first of its nearest clusters, as argmin picks it: a
    later cluster takes it only when strictly closer (bank points are
    finite, so every distance is). A run leaves the iteration once its
    assignment repeats: its update would then recompute the same centroids
    bit for bit, and so would every later one. The live runs stay a prefix
    of buffers made once per call, which every step writes through out=.
    """
    dim, n = points.shape[1], len(points)
    runs, n_clusters = init_rows.shape
    coords = np.ascontiguousarray(points.T)
    centroids = coords.take(init_rows.T, axis=1)  # (dim, clusters, live runs), C-ordered
    out = np.empty((runs, n_clusters, dim))
    live = np.arange(runs)
    weights = np.tile(coords, (1, runs))  # (dim, runs * n): m runs read the first m * n
    # The m live runs read work[:, :, :m] and the first m rows of the
    # others; a bin numbers cluster c of live run r as c * m + r.
    work = np.empty((dim, n_clusters, runs, n))
    assign, previous = np.empty((runs, n), np.intp), np.empty((runs, n), np.intp)
    hit, bins = np.empty((runs, n), bool), np.empty((runs, n), np.intp)
    run_bins = np.arange(runs)[:, None]
    m = runs
    for iteration in range(20):
        parts, now, mask = work[:, :, :m], assign[:m], hit[:m]
        dist = _squared_distances(coords, centroids, parts)
        now.fill(0)
        nearest = dist[0]  # kept at the running minimum
        for c in range(1, n_clusters):
            np.putmask(now, np.less(dist[c], nearest, out=mask), c)
            np.minimum(nearest, dist[c], out=nearest)
        if iteration:
            moved = np.not_equal(now, previous[:m], out=mask).any(axis=1)
            if not moved.all():
                out[live[~moved]] = centroids[:, :, ~moved].T
                live, centroids = live[moved], centroids.compress(moved, axis=2)
                m = len(live)
                if not m:
                    return out
                assign[:m] = now[moved]
                now = assign[:m]
        assign, previous = previous, assign
        flat = np.add(np.multiply(now, m, out=bins[:m]), run_bins[:m], out=bins[:m]).ravel()
        counts = np.bincount(flat, minlength=n_clusters * m)
        filled = counts > 0
        flat_centroids = centroids.reshape(dim, n_clusters * m)  # a view
        for j in range(dim):
            sums = np.bincount(flat, weights=weights[j, : m * n], minlength=n_clusters * m)
            np.divide(sums, counts, out=flat_centroids[j], where=filled)
    out[live] = centroids.T
    return out


def _squared_distances(coords: np.ndarray, centroids: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The squared distance of every point from every centroid, shaped
    (a, b, n): work[0], the rest of work (dim, a, b, n) overwritten. coords
    holds the n points coordinate first, (dim, n); centroids is shaped
    (dim, a, b). Each is (x0 - c0)**2 + (x1 - c1)**2 + ..., summed one
    coordinate at a time from the first."""
    # each centroid is spread over its row before the subtraction: numpy
    # subtracts a broadcast per-row scalar several times slower
    np.copyto(work, centroids[..., None])
    np.square(np.subtract(coords[:, None, None], work, out=work), out=work)
    for part in work[1:]:
        work[0] += part
    return work[0]


def _nearest_picks(points: np.ndarray, centroids: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k retrieved points of each run, shaped (runs, k), for
    centroids shaped (runs, clusters, dim): round-robin over a run's
    centroids, each yielding the next point in its own nearest-first order
    (ties by row), wrapping to its nearest once it has yielded every point.
    A centroid's order knows nothing of the others', so two centroids of a
    run may yield the same row. A distance is sqrt(x0*x0 + x1*x1) of
    x = point - centroid, summed coordinate by coordinate as np.linalg.norm
    sums a point's coordinates, so its bits, and so the ties, are norm's.

    The orders are a stable argsort's, taken only as deep as the picks
    read: _farthest on the negated distances ranks them nearest first,
    ties to the lower row, NaN last.
    """
    work = np.empty((points.shape[1], *centroids.shape[:2], len(points)))
    dist = _squared_distances(points.T, centroids.transpose(2, 0, 1), work)  # (runs, clusters, n)
    runs, n_clusters, n = dist.shape
    depth = min(-(-k // n_clusters), n)
    dist = np.negative(np.sqrt(dist, out=dist), out=dist).reshape(runs * n_clusters, n)
    order = _farthest(dist, np.full(len(dist), n), depth).reshape(runs, n_clusters, depth)
    pick = np.arange(k)
    return order[:, pick % n_clusters, (pick // n_clusters) % n]


def _cosine_picks(
    bank: CandidateBank, model: nn.MlpModel, points: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """Rows of the k retrieved points of each labeled point, shaped (n, k):
    its class's entries by cosine distance from it in penultimate features,
    farthest first, ties by ascending global index; fewer entries than k
    wrap around. Every label must be a class with entries.

    The picks are those of one point at a time with its own one-row feature
    pass against a feature pass over its class's rows, bit for bit: a class
    slice of one pass over the bank has the bits of a pass over the slice
    alone if no hidden layer past the first has over 7 inputs, and at the
    default widths [10, 10] (tests/test_nn.py); at other widths each class
    takes a pass of its own. Stacked one-row passes and products have the
    bits of one-row ones. The points are taken in class order so that each
    class's dot products are one stacked matrix-vector product with its
    slice, the only other per-class call; the slice stays the matrix because
    a row's bits depend on the matrix's height and the row's place in it,
    so a product with the whole bank would move last bits. index_map then
    lays each point's distances out in its class's index order, where
    _farthest's first maximum is the entry that lexsort on the index ranks
    first. A zero norm counts as orthogonal: its cosine is 0, its distance 1.
    """
    offsets = bank.offsets.tolist()
    if model.layer_dims[1:-1] == [10, 10] or max(model.layer_dims[1:-2], default=0) <= 7:
        feats = nn.penultimate_features(model, bank.entry_points)
    else:  # other widths: one pass per class slice
        feats = np.concatenate([nn.penultimate_features(model, bank.entry_points[lo:hi])
                                for lo, hi in zip(offsets, offsets[1:]) if lo < hi])
    norms = np.sqrt(np.add.reduce(feats * feats, axis=1))  # np.linalg.norm's arithmetic
    order = np.argsort(labels, kind="stable")
    labels = labels[order]
    own = nn.one_row_features(model, points[order])
    own_norms = np.sqrt((own[:, None, :] @ own[:, :, None])[:, 0, 0])
    n, entries = len(labels), len(bank.rows)
    dots = np.empty((n, entries))  # a point reads its own class's columns only
    bounds = np.searchsorted(labels, np.arange(bank.num_classes + 1)).tolist()
    for lo, hi, first, last in zip(offsets, offsets[1:], bounds, bounds[1:]):
        if first < last:  # points first:last are of this class
            dots[first:last, lo:hi] = (feats[lo:hi] @ own[first:last, :, None])[:, :, 0]
    cols = bank.index_map[labels]
    denom = own_norms[:, None] * norms.take(cols)
    at = np.arange(n)[:, None]
    dist = np.divide(dots.take(cols + entries * at), denom, out=np.zeros_like(denom),
                     where=denom > 0.0)
    np.subtract(1.0, dist, out=dist)
    picks = np.empty((n, k), dtype=np.intp)
    picks[order] = bank.rows.take(cols[at, _farthest(dist, bank.counts[labels], k)])
    return picks


_ABOVE_MIN = np.nextafter(np.finfo(np.float64).min, 0.0)


def _farthest(dist: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k largest of row i's first sizes[i] (at least 1)
    entries of dist, shaped (n, k), as ``np.argsort(-dist[i, :sizes[i]],
    kind="stable")`` ranks them: ties go to the lower column and NaN ranks
    last. A row with fewer than k entries repeats them from its first.
    Overwrites dist.

    k rounds of argmax, each knocking its pick out with -inf: argmax
    returns the first maximum, and -0.0 equals 0.0 under it as under the
    sort. So that -inf stays below every entry, an entry of -inf first
    becomes the float just above the lowest finite one, and NaN the lowest
    finite one; no cosine distance or negated point distance (at most
    sqrt of the largest float where finite) is either of those two floats.
    """
    np.maximum(dist, _ABOVE_MIN, out=dist)  # -inf rises; NaN stays NaN
    np.fmax(dist, np.finfo(np.float64).min, out=dist)  # NaN rises below it
    np.putmask(dist, np.arange(dist.shape[1]) >= sizes[:, None], -np.inf)
    at = np.arange(len(dist))
    picks = np.empty((len(dist), min(k, dist.shape[1])), dtype=np.intp)
    for r in range(picks.shape[1]):
        picks[:, r] = dist.argmax(axis=1)
        dist[at, picks[:, r]] = -np.inf
    return picks[at[:, None], np.arange(k) % sizes[:, None]]


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

    The model-free strategies draw every served point's rows with one
    _choices call (unconditioned_random serves every point): one rng call
    takes the words that one rng.choice call per served point, in labeled
    order, would take, and yields the same values. Those draws fix the
    picks, so the rest works per class.
    """
    if epoch is not None and epoch != bank.epoch_stamp:
        raise ConfigError(
            f"stale candidate bank: stamped epoch {bank.epoch_stamp}, now {epoch}"
        )
    if cfg.strategy == COSINE_DISTANT and model is None:
        raise ConfigError("cosine_distant retrieval needs the model for features")
    points = np.asarray(labeled_points, dtype=np.float64)
    labels = np.asarray(labeled_labels, dtype=np.int64)
    if len(labels) and labels.min() < 0:
        raise ShapeError(f"labels must be >= 0, got {int(labels.min())}")
    falls_back = _falls_back(bank, labels, cfg)
    fallbacks = int(np.count_nonzero(falls_back))
    served = np.flatnonzero(~falls_back) if fallbacks else slice(None)  # indexes labels
    labels_served = labels[served]
    out_lab = None  # the served points' own labels, unless the strategy draws others
    # rows: the k rows in bank.points of each served point
    if cfg.strategy == KMEANS_CENTER:
        rows = np.empty((len(labels_served), cfg.k), dtype=np.intp)
        runs = _kmeans_runs(bank, labels_served, cfg.kmeans_clusters, rng)
        for cls, (positions, centroids) in runs.items():
            picks = _nearest_picks(bank.class_points(cls), centroids, cfg.k)
            rows[positions] = bank.class_rows(cls)[picks]
    elif cfg.strategy == CLASS_AWARE_RANDOM:
        draws = _choices(rng, bank.counts[labels_served], cfg.k, replace=True)
        rows = bank.rows[bank.offsets[labels_served][:, None] + draws]
    elif cfg.strategy == UNCONDITIONED_RANDOM:  # from every class; no point falls back
        draws = _choices(rng, np.full(len(labels), len(bank.rows)), cfg.k, replace=True)
        rows = bank.rows[draws]
        out_lab = np.repeat(np.arange(bank.num_classes), bank.counts)[draws.ravel()]
    elif len(labels_served):  # COSINE_DISTANT, with a point to serve
        rows = _cosine_picks(bank, model, points[served], labels_served, cfg.k)
    else:
        rows = np.zeros((0, cfg.k), dtype=np.intp)
    if out_lab is None:
        out_lab = _own_labels(labels, falls_back, cfg)
    if fallbacks and cfg.empty_class_fallback == DUPLICATE_LABELED:
        # a point that falls back repeats itself k times: its rows index the
        # labeled points, appended to bank.points
        table = np.repeat(np.arange(len(labels))[:, None] + len(bank.points), cfg.k, axis=1)
        table[served] = rows
        return np.concatenate([bank.points, points])[table.ravel()], out_lab, fallbacks
    if not rows.size:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.int64), fallbacks
    return bank.points.take(rows.ravel(), axis=0), out_lab, fallbacks


def _falls_back(bank: CandidateBank, labels: np.ndarray, cfg: RldConfig) -> np.ndarray:
    """Whether each labeled point falls back, shaped as labels: its class
    has no bank entries, under a strategy that retrieves from the point's
    own class."""
    if cfg.strategy == UNCONDITIONED_RANDOM:
        return np.zeros(labels.shape, dtype=bool)
    return bank.no_entries.take(labels, mode="clip")  # labels are >= 0


def _own_labels(labels: np.ndarray, falls_back: np.ndarray, cfg: RldConfig) -> np.ndarray:
    """The defending labels of the labeled points that are served, flat:
    each point's own label k times, as every strategy but
    unconditioned_random labels its rows. Under SkipWithFlag a point that
    falls back is not served; otherwise every point is."""
    if cfg.empty_class_fallback == SKIP_WITH_FLAG:
        labels = labels[~falls_back]
    return np.repeat(labels, cfg.k)


def _retrieve_split(
    bank: CandidateBank, labeled_points: np.ndarray, labeled_labels: np.ndarray,
    cfg: RldConfig, rng: np.random.Generator, epoch: Optional[int] = None,
) -> tuple:
    """retrieve_defending's rows for groups of labeled points, shaped
    (groups, size, ...), laid out group after group: (points, labels,
    counts, fallbacks), the last two per group as lists of ints. A point
    yields k rows, or none when it falls back under SkipWithFlag.

    A strategy in MODEL_FREE retrieves for every group in one call, drawing
    the rng in the order of one call per group after another, which gives
    each group the rows its own call would give: an epoch's draws are one
    rng call for the words that one rng.choice call per point would take.
    cosine_distant reads the model, so its points are left to one call per
    group as training goes (points is None); its labels are known already
    (_own_labels).
    """
    groups, size = labeled_labels.shape
    falls_back = _falls_back(bank, labeled_labels, cfg)
    skip = cfg.empty_class_fallback == SKIP_WITH_FLAG
    if cfg.strategy in MODEL_FREE:
        points, labels, _ = retrieve_defending(
            bank, labeled_points.reshape(groups * size, -1), labeled_labels.ravel(), cfg, rng,
            epoch=epoch,
        )
    else:
        points = None
        labels = _own_labels(labeled_labels, falls_back, cfg)
    fallbacks = falls_back.sum(axis=1)
    served = size - fallbacks if skip else np.full(groups, size)
    return points, labels, (cfg.k * served).tolist(), fallbacks.tolist()


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
