"""Candidate bank and defending-sample retrieval.

Each epoch, the unlabeled pool is pseudo-labeled by the frozen current model
and filtered down to the most confident fraction p within each pseudo class.
During the epoch, every labeled sample in a mini-batch pulls k "defending"
samples that share its ground-truth label out of the bank; training on them
with that shared pseudo label keeps a biased labeled batch from dragging the
decision boundary through regions the model still classifies confidently.

Adaptation lays out one RetrievalPlan per epoch, whatever the strategy:
each step's served and falling-back points, defending labels and counts,
and its output rows as positions in one source array, which a model-free
strategy draws there. cosine_distant reads the model as trained so far, so
its step (retrieve_step) first picks its rows; every step then writes its
defending points into its slot with one take. retrieve_defending serves
one batch on its own, as a one-step plan.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
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
    builds every other array once; these two, which no other strategy reads,
    are built on first read. All are read-only after.
    """

    def __init__(self, points, indices, class_rows, class_conf, p=1.0, epoch_stamp=0):
        """class_rows[c] holds class c's candidate rows in points and
        class_conf[c] their confidences; the class keeps the top-p fraction."""
        self.points = points
        self.indices = np.asarray(indices, dtype=np.int64)
        self.epoch_stamp = epoch_stamp
        rows, conf = [], []
        for cand, cand_conf in zip(class_rows, class_conf):
            cand = np.asarray(cand, dtype=np.intp)
            cand_conf = np.asarray(cand_conf, dtype=np.float64)
            order = np.lexsort((self.indices[cand], -cand_conf))
            keep = order[: top_fraction_count(p, len(cand))]
            rows.append(cand[keep])
            conf.append(cand_conf[keep])
        self.rows = np.concatenate(rows)
        self.conf = np.concatenate(conf)
        self.counts = np.array([len(r) for r in rows], dtype=np.intp)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.no_entries = np.append(self.counts == 0, True)
        for array in (self.rows, self.conf, self.counts, self.offsets, self.no_entries):
            array.setflags(write=False)

    @cached_property
    def entry_points(self) -> np.ndarray:
        entry_points = np.asarray(self.points, dtype=np.float64)[self.rows]
        entry_points.setflags(write=False)
        return entry_points

    @cached_property
    def index_map(self) -> np.ndarray:
        index_map = np.repeat(self.offsets[:-1, None], self.counts.max(), axis=1)
        for c in range(self.num_classes):
            index_map[c, : self.counts[c]] += np.argsort(self.class_indices(c), kind="stable")
        index_map.setflags(write=False)
        return index_map

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

    Such a call runs Floyd's algorithm: for j = n-k .. n-1 it draws v in
    [0, j] and keeps v unless an earlier pick holds it, else j; then it
    swaps column i with a draw in [0, i] for i = k-1 .. 1. Each is the
    bounded draw of ``rng.integers(0, j + 1)``, none for j = 0, and
    ``rng.integers`` over an array of bounds makes them cell after cell: so
    every row's draws are one call. A row with n < k, or in numpy's tail
    shuffle (n > 10000 with k > n // 50), takes one call a row.
    tests/test_bank.py checks the values and the state against the calls.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    rows = len(sizes)
    if rows and (sizes.min() < k or np.any((sizes > 10000) & (k > sizes // 50))):
        return _choices_each(rng, sizes, k, replace)
    # a row's bounds j + 1 in draw order: Floyd's, then the shuffle's
    bounds = np.empty((rows, 2 * k - 1), dtype=np.int64)
    bounds[:, :k] = sizes[:, None] + np.arange(1 - k, 1)
    bounds[:, k:] = np.arange(k, 1, -1)
    values = rng.integers(0, bounds)
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
    points and their runs' centroids, shaped (runs, clusters, dim). Every
    label must be a class with entries.

    Each run's forgy init (min(clusters, n) distinct rows of the class's n)
    is drawn in labeled order by one _choices call, so the rng advances
    exactly as one run after another would advance it; the runs of one
    class then iterate together.
    """
    inits = _choices(rng, bank.counts[labels], n_clusters, replace=False)
    order = np.argsort(labels, kind="stable")
    found, starts = np.unique(labels[order], return_index=True)
    runs = {}
    for cls, group in zip(found.tolist(), np.split(order, starts[1:])):
        width = min(n_clusters, bank.class_size(cls))
        runs[cls] = (group, _lloyd(bank.class_points(cls), inits[group, :width]))
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
    The points' coordinates, repeated run by run, serve both the distances
    and the member sums, so each subtraction is one contiguous pass per
    coordinate and cluster over every live run's points.
    """
    dim, n = points.shape[1], len(points)
    runs, n_clusters = init_rows.shape
    coords = np.ascontiguousarray(points.T)
    centroids = coords.take(init_rows.T, axis=1)  # (dim, clusters, live runs), C-ordered
    out = np.empty((runs, n_clusters, dim))
    live = np.arange(runs)
    weights = np.empty((dim, runs * n))  # m runs read the first m * n of each row
    weights.reshape(dim, runs, n)[:] = coords[:, None]
    # The m live runs read work[:, :, :m] and the first m rows of the
    # others; a bin numbers cluster c of live run r as c * m + r.
    work = np.empty((dim, n_clusters, runs, n))
    assign, previous = np.empty((runs, n), np.intp), np.empty((runs, n), np.intp)
    hit, bins = np.empty((runs, n), bool), np.empty((runs, n), np.intp)
    run_bins = np.arange(runs)[:, None]
    m = runs
    for iteration in range(20):
        parts, now, mask = work[:, :, :m], assign[:m], hit[:m]
        repeated = weights[:, : m * n].reshape(dim, 1, m, n)
        dist = _squared_distances(repeated, centroids, parts)
        # with one cluster, dist[0] < dist[0] leaves every point in it
        np.copyto(now, np.less(dist[min(1, n_clusters - 1)], dist[0], out=mask))
        nearest = dist[0]  # kept at the running minimum of the clusters before c
        for c in range(2, n_clusters):
            np.minimum(nearest, dist[c - 1], out=nearest)
            np.putmask(now, np.less(dist[c], nearest, out=mask), c)
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
    holds the n points coordinate first, shaped to broadcast against work:
    (dim, 1, 1, n), or (dim, 1, b, n) with the points repeated along b;
    centroids is shaped (dim, a, b). Each is (x0 - c0)**2 + (x1 - c1)**2 +
    ..., summed one coordinate at a time from the first."""
    # each centroid is spread over its row before the subtraction: numpy
    # subtracts a broadcast per-row scalar several times slower
    np.copyto(work, centroids[..., None])
    np.square(np.subtract(coords, work, out=work), out=work)
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
    read: _knock_out on the negated distances ranks them nearest first,
    ties to the lower row, NaN last.
    """
    work = np.empty((points.shape[1], *centroids.shape[:2], len(points)))
    coords = points.T[:, None, None]
    dist = _squared_distances(coords, centroids.transpose(2, 0, 1), work)  # (runs, clusters, n)
    runs, n_clusters, n = dist.shape
    depth = min(-(-k // n_clusters), n)
    dist = np.negative(np.sqrt(dist, out=dist), out=dist).reshape(runs * n_clusters, n)
    rounds = np.empty((depth, len(dist)), dtype=np.intp)
    _knock_out(dist, np.zeros(dist.shape, bool), rounds, np.arange(len(dist)))
    order = rounds.T.reshape(runs, n_clusters, depth)
    pick = np.arange(k)
    return order[:, pick % n_clusters, (pick // n_clusters) % n]


class RetrievalPlan:
    """Retrieval for the steps of one epoch, laid out once from the bank,
    every step's labeled points and labels, (steps, b, dim) and (steps, b),
    the RldConfig and the retrieval rng: all that the model does not decide.

    A point is served when its class has entries (always under
    unconditioned_random, which draws from every class), else it falls
    back. source holds the bank's entry points, in rows' order, then every
    step's labeled points. tables[i] holds step i's output rows as
    positions in source, counts[i] of them: k per labeled point, in labeled
    order, one that falls back repeating itself under duplicate_labeled;
    under skip_with_flag k per served point only. served[i] and
    fallbacks[i] count the step's points of each kind; labels holds every
    step's defending labels, step after step.

    A model-free strategy fills the tables here, drawing over the epoch's
    served points in labeled order, so it reads the rng as one
    retrieve_defending call per step would. cosine_distant (reads_model)
    lays out its picks' inputs, and each step writes the picks
    (_place_picks): it takes its served points in class order, by label,
    stable; own_in[i] holds them and classes[i] their classes. blocks[i]
    lists (lo, hi, first, last) for each class with points in the step:
    its entries are rows lo:hi of the bank's feature pass, its points
    first:last. A point's distances are laid out in its class's row of
    bank.index_map, class_pad marking each class's columns past its size
    (tables per class: per point of the epoch, they filled fresh pages that
    cost more than they saved). wrap[i, s, t] is the flat position, in the
    (rounds, b) knock-out picks, of the round that point s's t-th pick
    reads (t modulo its class's size). slots[i] says where the picks of the
    step's served points, in class order, go in tables[i]. previous, the
    run's plan of the epoch before, hands on the arrays that the picks
    write (_CosineWork).
    """

    def __init__(self, bank: CandidateBank, points, labels, cfg: RldConfig, rng,
                 epoch: Optional[int] = None, previous: Optional["RetrievalPlan"] = None):
        if epoch is not None and epoch != bank.epoch_stamp:
            raise ConfigError(
                f"stale candidate bank: stamped epoch {bank.epoch_stamp}, now {epoch}")
        points = np.asarray(points, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and labels.min() < 0:
            raise ShapeError(f"labels must be >= 0, got {int(labels.min())}")
        (steps, b), k, n_classes, entries = labels.shape, cfg.k, bank.num_classes, len(bank.rows)
        skip = cfg.empty_class_fallback == SKIP_WITH_FLAG
        self.bank, self.k, self.b = bank, k, b
        self.reads_model = cfg.strategy == COSINE_DISTANT
        self.work = None if previous is None else previous.work
        falls_back = bank.no_entries.take(labels, mode="clip")  # labels are >= 0
        if cfg.strategy == UNCONDITIONED_RANDOM:  # it draws from every class
            falls_back[...] = False
        some_fall_back = bool(np.count_nonzero(falls_back))
        self.fallbacks = falls_back.sum(axis=1).tolist() if some_fall_back else [0] * steps
        served = ~falls_back.ravel() if some_fall_back else slice(None)
        self.served = [b - n for n in self.fallbacks]
        flat = labels.ravel()
        own = flat[served]  # the served points' labels, in labeled order
        self.labels = (own if skip else flat).repeat(k)  # unless the strategy draws others
        if cfg.strategy == KMEANS_CENTER:
            picks = np.empty((len(own), k), dtype=np.intp)
            for cls, (positions, centroids) in _kmeans_runs(
                    bank, own, cfg.kmeans_clusters, rng).items():
                nearest = _nearest_picks(bank.class_points(cls), centroids, k)
                picks[positions] = bank.offsets[cls] + nearest
        elif cfg.strategy == CLASS_AWARE_RANDOM:
            picks = bank.offsets[own][:, None] + _choices(rng, bank.counts[own], k, replace=True)
        elif cfg.strategy == UNCONDITIONED_RANDOM:
            picks = _choices(rng, np.full(len(own), entries), k, replace=True)
            self.labels = np.repeat(np.arange(n_classes), bank.counts)[picks.ravel()]
        else:  # the picks' inputs; each step writes its picks
            picks = np.empty((len(own), k), dtype=np.intp)
            key = np.where(falls_back, n_classes, labels)  # falling back ranks last
            at = np.arange(steps)[:, None]
            order = key.argsort(axis=1, kind="stable")
            ranked = key[at, order]
            self.own_in = points[at, order]
            per_class = np.bincount((ranked + (n_classes + 1) * at).ravel(),
                                    minlength=steps * (n_classes + 1)).reshape(steps, -1)
            starts = np.zeros((steps, n_classes + 1), dtype=np.intp)
            np.cumsum(per_class[:, :n_classes], axis=1, out=starts[:, 1:])
            spans = list(zip(bank.offsets[:-1].tolist(), bank.offsets[1:].tolist()))
            self.blocks = [[(lo, hi, first, last) for (lo, hi), first, last
                            in zip(spans, row, row[1:]) if first < last]
                           for row in starts.tolist()]
            self.classes = np.minimum(ranked, n_classes - 1)  # a falling-back point reads no row
            sizes = np.maximum(bank.counts, 1)[:, None]
            self.class_pad = np.arange(bank.index_map.shape[1]) >= sizes
            wraps = (np.arange(k) % sizes).take(self.classes, axis=0)
            self.wrap = wraps * b + np.arange(b)[:, None]
            if skip:  # a point's rank among the step's served points, in labeled order
                order = (np.cumsum(~falls_back, axis=1) - 1)[at, order]
            self.slots = (order[..., None] * k + np.arange(k)).reshape(steps, b * k)
        table = picks
        if some_fall_back and not skip:  # a point that falls back repeats itself k times
            table = np.arange(entries, entries + steps * b).repeat(k).reshape(-1, k)
            table[served] = picks
        table = table.ravel()
        self.counts = [k * n for n in self.served] if skip else [k * b] * steps
        ends = list(itertools.accumulate(self.counts))
        self.tables = [table[lo:hi] for lo, hi in zip([0, *ends], ends)]
        # the entry points gathered here: only cosine_distant builds bank.entry_points
        labeled = points.reshape(steps * b, bank.points.shape[1])  # [] has no width of its own
        self.source = np.concatenate([bank.points.take(bank.rows, axis=0), labeled])

    def work_for(self, model: nn.MlpModel) -> "_CosineWork":
        """The run's arrays that the picks write (made at the first step, for
        the model's shape, and anew for a bank they cannot hold), cut to the bank."""
        work, bank = self.work, self.bank
        if (work is None or work.shape != (model.layer_dims, self.b, self.k)
                or len(bank.rows) > work.capacity):
            capacity = len(bank.rows) + bank.num_classes
            work = self.work = _CosineWork(model, self.b, self.k, capacity)
        if work.bank is not bank:
            work.bind(bank)
        return work


class _CosineWork:
    """The arrays that cosine_distant's picks write, made once per run for
    a model shape, b points a step and k picks, with room for capacity
    entries: the first bank's plus one a class, the largest bank that pool
    and p give (a class of n candidates keeps ceil(p n) < p n + 1). Each is
    flat and cut, as a C-ordered view of its first cells, to a bank
    (bind: the bank's feature passes, each (inputs, one array per hidden
    layer), their last layer feats, its squares and norms, the dot
    products) and to a step's n served points (cuts[n], as _place_picks
    unpacks it).
    """

    def __init__(self, model: nn.MlpModel, b: int, k: int, capacity: int):
        self.shape, self.b, self.k, self.capacity = (list(model.layer_dims), b, k), b, k, capacity
        self.widths = model.layer_dims[1:-1]
        # one per hidden layer, then the squares, norms and dot products
        self.cells = [np.empty(capacity * h) for h in [*self.widths, self.widths[-1], 1, b]]
        self.step_cells = [np.empty(b * capacity, dtype) for dtype in (
            np.intp, np.intp, np.float64, np.float64, np.float64, bool, bool)]
        self.own_layers = [np.empty((b, 1, h)) for h in self.widths]
        self.own_squares = np.empty((b, 1, 1))
        self.rounds = np.empty((k, b), dtype=np.intp)
        self.columns, self.chosen = np.empty((b, k), dtype=np.intp), np.empty((b, k), dtype=np.intp)
        self.at = np.arange(b)
        self.bank = None

    def bind(self, bank: CandidateBank) -> None:
        entries = self.entries = len(bank.rows)
        *layers, self.squares, norms, dots = (
            cells[: entries * h].reshape(entries, h)
            for cells, h in zip(self.cells, [*self.widths, self.widths[-1], 1, self.b]))
        self.feats, self.norms = layers[-1], norms[:, 0]
        self.dots = dots.reshape(self.b, entries, 1)
        # a class slice of one pass over the bank has the bits of a pass over
        # the slice alone at these widths (_place_picks)
        if self.widths == [10, 10] or max(self.widths[:-1], default=0) <= 7:
            self.passes = [(bank.entry_points, layers)]
        else:
            self.passes = [(bank.entry_points[lo:hi], [layer[lo:hi] for layer in layers])
                           for lo, hi in zip(bank.offsets[:-1].tolist(), bank.offsets[1:].tolist())
                           if lo < hi]
        self.width = bank.index_map.shape[1]
        self.bank, self.cuts = bank, {}

    def cut(self, n: int) -> tuple:
        width = self.width
        found = self.cuts[n] = (
            [layer[:n] for layer in self.own_layers], self.own_squares[:n],
            self.own_squares[:n, 0], *(cells[: n * width].reshape(n, width)
                                       for cells in self.step_cells),
            list(self.rounds[: min(self.k, width), :n]), self.columns[:n], self.chosen[:n],
            self.at[:n], self.at[:n, None] * self.entries, self.at[:n, None] * width,
        )
        return found


def retrieve_step(plan: RetrievalPlan, i: int, model: Optional[nn.MlpModel],
                  out: np.ndarray) -> None:
    """The defending points of step i of plan, written into out, shaped
    (plan.counts[i], dim), with one take from plan.source: rows in the
    order retrieve_defending gives them for the step's labeled points.
    cosine_distant first picks them from the model as trained so far."""
    if plan.reads_model and plan.served[i]:
        _place_picks(plan, i, model)
    plan.source.take(plan.tables[i], axis=0, out=out, mode="clip")


def _place_picks(plan: RetrievalPlan, i: int, model: nn.MlpModel) -> None:
    """Write the k picks of each served point of step i into plan.tables[i]
    (RetrievalPlan), as positions in bank.rows: its class's entries by cosine
    distance from it in penultimate features, farthest first, ties by
    ascending global index; fewer entries than k wrap around.

    The picks are those of one point at a time with its own one-row feature
    pass against a feature pass over its class's rows, bit for bit: a class
    slice of one pass over the bank has the bits of a pass over the slice
    alone if no hidden layer past the first has over 7 inputs, and at the
    default widths [10, 10] (tests/test_nn.py); at other widths each class
    takes a pass of its own (_CosineWork). Stacked one-row passes and
    products have the bits of one-row ones. The points are taken in class
    order so that each class's dot products are one stacked matrix-vector
    product with its slice, the only other per-class call; the slice stays
    the matrix because a row's bits depend on the matrix's height and the
    row's place in it, so a product with the whole bank would move last
    bits. index_map then lays each point's distances out in its class's
    index order, where _knock_out's first maximum is the entry that lexsort
    on the index ranks first. A zero norm counts as orthogonal: its cosine
    is 0, its distance 1.
    """
    n = plan.served[i]
    work = plan.work_for(model)
    (own_layers, own_squares, own_norms, cols, dots_at, denom, quotients, dist, positive, pad,
     rounds, columns, chosen, at, row_starts, col_base) = work.cuts.get(n) or work.cut(n)
    for inputs, layers in work.passes:
        nn.penultimate_features(model, inputs, layers)
    feats, norms = work.feats, work.norms
    np.add.reduce(np.multiply(feats, feats, out=work.squares), axis=1, out=norms)
    np.sqrt(norms, out=norms)  # np.linalg.norm's arithmetic
    own = nn.one_row_features(model, plan.own_in[i, :n], own_layers)
    np.sqrt(np.matmul(own[:, None, :], own[:, :, None], out=own_squares), out=own_squares)
    dots = work.dots  # a point reads its own class's columns only
    for lo, hi, first, last in plan.blocks[i]:
        np.matmul(feats[lo:hi], own[first:last, :, None], out=dots[first:last, lo:hi])
    classes = plan.classes[i, :n]
    plan.bank.index_map.take(classes, axis=0, out=cols, mode="clip")
    np.multiply(own_norms, norms.take(cols, out=denom, mode="clip"), out=denom)
    dots.take(np.add(cols, row_starts, out=dots_at), out=quotients, mode="clip")
    dist.fill(0.0)
    np.divide(quotients, denom, out=dist, where=np.greater(denom, 0.0, out=positive))
    np.subtract(1.0, dist, out=dist)
    _knock_out(dist, plan.class_pad.take(classes, axis=0, out=pad, mode="clip"), rounds, at)
    work.rounds.take(plan.wrap[i, :n], out=columns, mode="clip")
    cols.take(np.add(columns, col_base, out=columns), out=chosen, mode="clip")
    plan.tables[i].put(plan.slots[i, : n * plan.k], chosen)


_LOWEST = np.finfo(np.float64).min
_ABOVE_MIN = np.nextafter(_LOWEST, 0.0)


def _knock_out(dist: np.ndarray, pad: np.ndarray, rounds: np.ndarray, at: np.ndarray) -> None:
    """rounds[r] gets each row's r-th pick among its columns that pad
    leaves, as ``np.argsort(-row, kind="stable")`` ranks them: ties go to
    the lower column and NaN ranks last; a round past a row's count of
    columns left holds no pick of it. at = np.arange(len(dist)). Overwrites
    dist.

    len(rounds) rounds of argmax, each knocking its pick out with -inf:
    argmax returns the first maximum, and -0.0 equals 0.0 under it as under
    the sort. So that -inf stays below every entry, an entry of -inf first
    becomes the float just above the lowest finite one, and NaN the lowest
    finite one; no cosine distance or negated point distance (at most sqrt
    of the largest float where finite) is either of those two floats.
    """
    np.maximum(dist, _ABOVE_MIN, out=dist)  # -inf rises; NaN stays NaN
    np.fmax(dist, _LOWEST, out=dist)  # NaN rises below it
    np.putmask(dist, pad, -np.inf)
    for picks in rounds:
        dist.argmax(axis=1, out=picks)
        dist[at, picks] = -np.inf


def retrieve_defending(bank: CandidateBank, labeled_points: np.ndarray, labeled_labels,
                       cfg: RldConfig, rng: np.random.Generator,
                       model: Optional[nn.MlpModel] = None, epoch: Optional[int] = None) -> tuple:
    """k defending (point, pseudo-label) pairs per labeled sample: the one
    step of a RetrievalPlan laid out for these points alone.

    Returns (points, labels, fallback_events). With DuplicateLabeled the output
    always has k * len(labeled) rows; SkipWithFlag may return fewer. The
    points have the labeled points' width, however many rows there are.
    """
    if cfg.strategy == COSINE_DISTANT and model is None:
        raise ConfigError("cosine_distant retrieval needs the model for features")
    points = np.asarray(labeled_points, dtype=np.float64)
    plan = RetrievalPlan(bank, points[None], np.asarray(labeled_labels)[None], cfg, rng, epoch)
    out = np.empty((plan.counts[0], plan.source.shape[1]))
    retrieve_step(plan, 0, model, out)
    return out, plan.labels, plan.fallbacks[0]


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
