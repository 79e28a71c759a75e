"""Tests for candidate-bank filtering and defending-sample retrieval."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdalab import adapt, bank, nn
from sdalab.errors import ConfigError, ShapeError
from test_adapt import one_step


def random_model(seed=0, dims=(2, 16, 3), head=nn.SOFTMAX):
    return nn.MlpModel.init(list(dims), head, np.random.default_rng(seed))


def brute_force_bank(model, points, indices, p, num_classes):
    """Independent oracle: python-loop pseudo-labeling and per-class top-m."""
    probs = nn.forward(model, points).probs
    per_class = {c: [] for c in range(num_classes)}
    for row in range(len(points)):
        best, best_p = 0, probs[row, 0]
        for c in range(1, num_classes):
            if probs[row, c] > best_p:
                best, best_p = c, probs[row, c]
        per_class[best].append((float(best_p), int(indices[row])))
    result = {}
    for c in range(num_classes):
        entries = sorted(per_class[c], key=lambda e: (-e[0], e[1]))
        m = math.ceil(p * len(entries) - 1e-9) if entries else 0
        result[c] = [idx for _, idx in entries[:m]]
    return result


# Reference retrieval: the per-point implementation that retrieve_defending
# replaced, kept verbatim (one k-means run, one feature pass of the class slice
# and one Python sort per labeled point). The fast paths must match it bit for
# bit, because every retrieved row feeds the next SGD step.


def reference_kmeans(points, n_clusters, rng):
    n = len(points)
    n_clusters = min(n_clusters, n)
    init_rows = rng.choice(n, size=n_clusters, replace=False)
    centroids = points[init_rows].copy()
    for _ in range(20):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        for c in range(n_clusters):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


def reference_nearest_per_centroid(points, centroids, k):
    order_per_centroid = []
    for c in centroids:
        d = np.linalg.norm(points - c, axis=1)
        order_per_centroid.append(sorted(range(len(points)), key=lambda r: (d[r], r)))
    picks = []
    depth = 0
    while len(picks) < k:
        for order in order_per_centroid:
            if len(picks) == k:
                break
            picks.append(order[depth % len(order)])
        depth += 1
    return picks


def reference_cosine_distance(a, b, dots):
    """1 - cos between a and each row of b, given their dot products; a
    zero norm counts as orthogonal."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    sim = np.zeros(len(b))
    ok = denom > 0.0
    sim[ok] = dots[ok] / denom[ok]
    return 1.0 - sim


def reference_cosine_inputs(b, model, points):
    """The bank's features from one pass over its entry points, each
    point's from a pass of its own, and the dot products of the points,
    in the order given, against the whole bank, shaped (points, entries)."""
    feats = nn.forward(model, b.entry_points).activations[-1]
    own = np.concatenate([nn.forward(model, x[None, :]).activations[-1] for x in points])
    return feats, own, own @ feats.T


# Lloyd's algorithm as batched before it stopped at the fixed point: always 20
# iterations, kept verbatim as the reference for the early exit.
def reference_lloyd(points, init_rows):
    dim = points.shape[1]
    runs, n_clusters = init_rows.shape
    coords = np.ascontiguousarray(points.T)
    centroids = coords[:, init_rows]
    flat_centroids = centroids.reshape(dim, runs * n_clusters)
    offsets = (np.arange(runs) * n_clusters)[:, None]
    weights = np.tile(coords, (1, runs))
    for _ in range(20):
        sq = (coords[:, None, None, :] - centroids[:, :, :, None]) ** 2
        d2 = sq[0]
        for j in range(1, dim):
            d2 = d2 + sq[j]
        assign = (np.argmin(d2, axis=1) + offsets).ravel()
        counts = np.bincount(assign, minlength=runs * n_clusters)
        filled = counts > 0
        for j in range(dim):
            sums = np.bincount(assign, weights=weights[j], minlength=runs * n_clusters)
            flat_centroids[j, filled] = sums[filled] / counts[filled]
    return centroids.transpose(1, 2, 0)


def lloyd_history(points, init_rows):
    """(the iteration at which the assignment first repeats, None when it
    never does within 20; some cluster is empty on some iteration) for one
    per-run Lloyd from the given initial rows."""
    centroids = points[init_rows].copy()
    previous, stop, empty = None, None, False
    for iteration in range(1, 21):
        assign = np.argmin(((points[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
        if previous is not None and np.array_equal(assign, previous) and stop is None:
            stop = iteration
        previous = assign
        for c in range(len(centroids)):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                empty = True
    return stop, empty


def reference_retrieve(b, labeled_points, labeled_labels, cfg, rng, model=None):
    def class_points(cls):
        return b.points[b.class_rows(cls)]

    labels = np.asarray(labeled_labels, dtype=np.int64)
    out_pts, out_lab, fallbacks = [], [], 0
    if cfg.strategy == bank.UNCONDITIONED_RANDOM:
        pool = [(int(r), cls) for cls in range(b.num_classes) for r in b.class_rows(cls)]
    if cfg.strategy == bank.COSINE_DISTANT:
        feats, own, dots = reference_cosine_inputs(
            b, model, np.asarray(labeled_points, dtype=np.float64))
    for j, (x, y) in enumerate(zip(labeled_points, labels)):
        cls = int(y)
        size = b.class_size(cls) if cls < b.num_classes else 0
        if cfg.strategy == bank.UNCONDITIONED_RANDOM:
            for d in rng.choice(len(pool), size=cfg.k, replace=len(pool) < cfg.k):
                row, pseudo = pool[int(d)]
                out_pts.append(b.points[row])
                out_lab.append(pseudo)
            continue
        if size == 0:
            fallbacks += 1
            if cfg.empty_class_fallback == bank.DUPLICATE_LABELED:
                out_pts += [np.asarray(x, dtype=np.float64)] * cfg.k
                out_lab += [cls] * cfg.k
            continue
        if cfg.strategy == bank.CLASS_AWARE_RANDOM:
            for d in rng.choice(size, size=cfg.k, replace=size < cfg.k):
                out_pts.append(b.points[b.class_rows(cls)[int(d)]])
                out_lab.append(cls)
        elif cfg.strategy == bank.KMEANS_CENTER:
            pts = class_points(cls)
            centroids = reference_kmeans(pts, cfg.kmeans_clusters, rng)
            for r in reference_nearest_per_centroid(pts, centroids, cfg.k):
                out_pts.append(pts[r])
                out_lab.append(cls)
        else:
            lo, hi = b.offsets[cls], b.offsets[cls + 1]
            cand_pts = class_points(cls)
            dist = reference_cosine_distance(own[j], feats[lo:hi], dots[j, lo:hi])
            order = sorted(
                range(len(cand_pts)), key=lambda r: (-dist[r], b.class_indices(cls)[r])
            )
            for i in range(cfg.k):
                out_pts.append(cand_pts[order[i % len(order)]])
                out_lab.append(cls)
    if not out_pts:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.int64), fallbacks
    return np.stack(out_pts), np.asarray(out_lab, dtype=np.int64), fallbacks


def relu_model():
    """Features are relu(x), so every input in the negative quadrant has an
    all-zero feature vector (cosine distance 1 to everything)."""
    return nn.MlpModel(
        [2, 2, 3], [np.eye(2), np.array([[1.0, -1.0, 0.5], [0.0, 1.0, -2.0]])],
        [np.zeros(2), np.zeros(3)],
    )


def pool_bank(pts, globals_, class_rows):
    """A bank over the pool (pts, globals_) whose class c holds the rows
    class_rows[c]. Confidences take three values, so a class's order by
    confidence, then index, is neither its row order nor its index order."""
    conf = 0.7 + 0.1 * (np.asarray(globals_) % 3)
    return bank.CandidateBank(pts, globals_, class_rows, [conf[rows] for rows in class_rows])


def tied_bank(rng, num_classes=3, n=48, empty_class=None):
    """A bank of n entries over few distinct points (duplicates force ties),
    with shuffled non-contiguous global indices and random class slices."""
    base = rng.normal(scale=2.0, size=(n // 3, 2))
    pts = base[rng.integers(0, len(base), size=n)]
    globals_ = rng.choice(10_000, size=n, replace=False)
    pseudo = rng.integers(0, num_classes, size=n)
    if empty_class is not None:
        pseudo[pseudo == empty_class] = (empty_class + 1) % num_classes
    return pool_bank(pts, globals_, [np.flatnonzero(pseudo == c) for c in range(num_classes)])


def sized_bank(rng, sizes, base=None):
    """A bank whose class c holds sizes[c] entries, drawn with repeats from
    the rows of base (few distinct points, so exact ties), under shuffled
    non-contiguous global indices."""
    n = sum(sizes)
    if base is None:
        base = rng.normal(scale=2.0, size=(max(n // 3, 1), 2))
    pts = base[rng.integers(0, len(base), size=n)]
    globals_ = rng.choice(10_000, size=n, replace=False)
    return pool_bank(pts, globals_, np.split(rng.permutation(n), np.cumsum(sizes)[:-1]))


def drifted(model, steps, seed):
    """model, then steps - 1 copies, each the one before with every
    parameter scaled by a factor of its own near 1, as training moves a
    model between steps (a zero parameter stays zero)."""
    rng = np.random.default_rng(seed)
    models = [model]
    for _ in range(steps - 1):
        moved = models[-1].copy()
        moved.params *= 1.0 + 0.05 * rng.normal(size=moved.params.shape)
        models.append(moved)
    return models


def assert_plan_matches(b, points, labels, models, cfg):
    """Lay out (steps, n) labeled points and labels as one epoch
    (bank.RetrievalPlan): its step i, run on models[i], must write the
    rows, and the plan lay out the labels, counts and fallbacks, that
    retrieve_defending gives for step i alone."""
    plan = bank.RetrievalPlan(b, points, labels, cfg, None)
    step_labels = np.split(plan.labels, np.cumsum(plan.counts)[:-1])
    for i, model in enumerate(models):
        want = bank.retrieve_defending(b, points[i], labels[i], cfg, None, model=model)
        out = np.full((plan.counts[i], points.shape[2]), np.nan)
        bank.retrieve_step(plan, i, model, out)
        assert np.array_equal(out, want[0]), f"step {i}"
        assert np.array_equal(step_labels[i], want[1]) and plan.fallbacks[i] == want[2]


def assert_same_retrieval(b, lab_pts, lab_y, cfg, seed, model=None):
    rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = bank.retrieve_defending(b, lab_pts, lab_y, cfg, rng_fast, model=model)
    want = reference_retrieve(b, lab_pts, lab_y, cfg, rng_ref, model=model)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    # both consumed the same draws, so later retrievals stay in step too
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


class TestTopFractionCount:
    def test_guarded_ceil_examples(self):
        assert bank.top_fraction_count(0.4, 10) == 4
        assert bank.top_fraction_count(0.4, 11) == 5
        assert bank.top_fraction_count(1.0, 7) == 7
        assert bank.top_fraction_count(0.2, 1) == 1
        assert bank.top_fraction_count(0.5, 0) == 0

    def test_never_empties_nonempty_class(self):
        for p in (0.05, 0.2, 0.4, 0.8, 1.0):
            for n in range(1, 50):
                m = bank.top_fraction_count(p, n)
                assert 1 <= m <= n


class TestGenerateBank:
    def test_p_one_keeps_everything(self):
        model = random_model(1)
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 2))
        b = bank.generate_bank(model, pts, np.arange(40), p=1.0, num_classes=3)
        assert sum(b.sizes()) == 40
        pseudo = nn.predict(model, pts)
        for c in range(3):
            assert sorted(b.class_indices(c).tolist()) == np.flatnonzero(pseudo == c).tolist()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for case in range(30):
            model = random_model(case)
            n = int(rng.integers(5, 60))
            pts = rng.normal(scale=2.0, size=(n, 2))
            indices = rng.permutation(1000)[:n]  # non-contiguous global indices
            p = float(rng.uniform(0.1, 1.0))
            b = bank.generate_bank(model, pts, indices, p=p, num_classes=3)
            oracle = brute_force_bank(model, pts, indices, p, 3)
            for c in range(3):
                assert b.class_indices(c).tolist() == oracle[c], f"case {case} class {c}"

    def test_retained_confidences_dominate_discarded(self):
        model = random_model(3)
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=2.0, size=(50, 2))
        b = bank.generate_bank(model, pts, np.arange(50), p=0.4, num_classes=3)
        probs = nn.forward(model, pts).probs
        pseudo = nn.argmax_rows(probs)
        conf = probs[np.arange(50), pseudo]
        for c in range(3):
            kept = set(b.class_indices(c).tolist())
            members = np.flatnonzero(pseudo == c)
            dropped = [i for i in members if i not in kept]
            if kept and dropped:
                assert min(conf[list(kept)]) >= max(conf[dropped]) - 1e-15
            assert b.class_conf(c).tolist() == sorted(b.class_conf(c).tolist(), reverse=True)

    def test_pseudo_labels_match_list_class(self):
        model = random_model(4)
        pts = np.random.default_rng(4).normal(size=(30, 2))
        b = bank.generate_bank(model, pts, np.arange(30), p=0.5, num_classes=3)
        pseudo = nn.predict(model, pts)
        for c in range(3):
            for g in b.class_indices(c):
                assert pseudo[g] == c

    def test_frozen_model_reproducibility(self, tmp_path):
        model = random_model(5)
        pts = np.random.default_rng(5).normal(size=(25, 2))
        b1 = bank.generate_bank(model, pts, np.arange(25), p=0.4, num_classes=3)
        path = tmp_path / "m.json"
        model.save(path)
        b2 = bank.generate_bank(nn.MlpModel.load(path), pts, np.arange(25), p=0.4, num_classes=3)
        for name in ("indices", "rows", "conf", "counts", "offsets", "entry_points", "index_map"):
            assert np.array_equal(getattr(b1, name), getattr(b2, name))

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            bank.generate_bank(random_model(0), np.zeros((0, 2)), [], 0.4, 3)

    def test_builder_hands_over_class_rows(self):
        rng = np.random.default_rng(6)
        for case in range(10):
            n = int(rng.integers(5, 60))
            pts = rng.normal(scale=2.0, size=(n, 2))
            indices = rng.permutation(1000)[:n]
            b = bank.generate_bank(random_model(case), pts, indices, p=0.5, num_classes=3)
            assert_bank_arrays(b, indices)


def assert_bank_arrays(b, indices):
    """The bank's arrays as CandidateBank states them: the pool's indices,
    intp rows into the pool class by class, confidence descending and then
    index ascending within a class, the entries' points in that order, and
    each class's positions in index order padded with its first, all
    read-only."""
    assert b.indices.dtype == np.int64 and b.indices.tolist() == [int(g) for g in indices]
    assert b.rows.dtype == np.intp and 0 <= b.rows.min() and b.rows.max() < len(indices)
    assert len(b.rows) == len(b.conf) == len(b.entry_points) == b.offsets[-1]
    assert b.offsets[0] == 0 and b.sizes() == np.diff(b.offsets).tolist() == b.counts.tolist()
    assert b.index_map.dtype == np.intp and b.index_map.shape == (b.num_classes, max(b.sizes()))
    assert np.array_equal(b.entry_points, np.asarray(b.points)[b.rows])
    for c in range(b.num_classes):
        keys = list(zip((-b.class_conf(c)).tolist(), b.class_indices(c).tolist()))
        assert keys == sorted(keys)
        size, first = b.class_size(c), b.offsets[c]
        assert b.indices[b.rows[b.index_map[c, :size]]].tolist() == sorted(b.class_indices(c).tolist())
        assert sorted(b.index_map[c, :size].tolist()) == list(range(first, first + size))
        assert (b.index_map[c, size:] == first).all()
    for array in (b.rows, b.conf, b.counts, b.offsets, b.entry_points, b.index_map):
        assert not array.flags.writeable


def small_bank(model=None, seed=2, n=40, p=0.5, epoch=0):
    # seeds 2, 10, 23 give banks with several entries in every class
    model = model or random_model(seed)
    pts = np.random.default_rng(seed).normal(scale=2.0, size=(n, 2))
    b = bank.generate_bank(model, pts, np.arange(n), p=p, num_classes=3, epoch_stamp=epoch)
    assert min(b.sizes()) >= 3, "fixture bank must populate every class"
    return model, b


def one_choice_per_row(rng, sizes, k, replace):
    """The calls bank._choices stands for: one rng.choice per row, in order;
    a row of n < k drawn with replacement when replace is set, else as a
    permutation of its n values padded with -1."""
    out = np.full((len(sizes), k), -1, dtype=np.int64)
    for r, n in enumerate(sizes):
        if n >= k:
            out[r] = rng.choice(n, size=k, replace=False)
        elif replace:
            out[r] = rng.choice(n, size=k, replace=True)
        else:
            out[r, :n] = rng.choice(n, size=n, replace=False)
    return out


def choice_batch(case, rng):
    """(sizes, k) of one batch of rows of the given kind."""
    rows = int(rng.integers(1, 40))
    if case == "empty":
        return [], int(rng.integers(1, 6))
    if case == "tail":
        # n near 50 * k, about 10000 to 12000: numpy shuffles a tail where
        # n > 10000 and k > n // 50, and runs Floyd's algorithm elsewhere
        k = int(rng.integers(201, 240))
        return (50 * k + rng.integers(-60, 60, size=int(rng.integers(1, 4)))).tolist(), k
    if case == "rejecting":
        # numpy's bounded draw rejects a word often at bounds this near 2**32
        k = int(rng.integers(2, 5))
        return rng.integers(3 << 30, 1 << 32, size=int(rng.integers(6, 12))).tolist(), k
    if case == "huge":
        # bounds past 2**32 draw 64-bit words; those at 2**32 draw a whole 32-bit one
        k = int(rng.integers(1, 7))
        sizes = rng.integers(k, 90, size=rows)
        huge = rng.random(rows) < 0.5
        sizes[huge] = rng.integers(1 << 32, 1 << 62, size=np.count_nonzero(huge))
        edge = rng.random(rows) < 0.2
        sizes[edge] = (1 << 32) + rng.integers(-1, k + 1, size=np.count_nonzero(edge))
        return sizes.tolist(), k
    k = int(rng.integers(2 if case == "short" else 1, 7))
    sizes = rng.integers(k, 90, size=rows)
    if case == "n_equals_k":  # the draw in [0, 0] takes no word
        sizes[rng.random(rows) < 0.5] = k
    elif case == "short":
        short = rng.random(rows) < 0.3
        sizes[short] = rng.integers(1, k, size=np.count_nonzero(short))
    return sizes.tolist(), k


class TestChoices:
    @pytest.mark.parametrize(
        "case", ["empty", "small", "n_equals_k", "short", "rejecting", "huge", "tail"]
    )
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans())
    def test_matches_one_call_per_row(self, case, seed, words_before, replace):
        sizes, k = choice_batch(case, np.random.default_rng(seed))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, ref):  # an odd count leaves PCG64 a buffered 32-bit half
            g.integers(0, 1 << 32, size=words_before, dtype=np.uint32)
        with mock.patch.object(bank, "_choices_each", wraps=bank._choices_each) as each:
            got = bank._choices(rng, sizes, k, replace)
        want = one_choice_per_row(ref, sizes, k, replace)
        assert got.shape == (len(sizes), k) and got.dtype == np.int64
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        # one rng.integers call unless a row is short or in numpy's tail shuffle
        assert each.called == any(n < k or (n > 10000 and k > n // 50) for n in sizes)

    def test_an_epoch_of_small_classes_takes_one_rng_call(self):
        # blobs-sized: 144 points an epoch, each class's bank above k
        sizes = np.random.default_rng(5).integers(3, 200, size=144).tolist()
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        with mock.patch.object(bank, "_choices_each", wraps=bank._choices_each) as each:
            got = bank._choices(rng, sizes, 3, replace=True)
        assert not each.called
        assert np.array_equal(got, one_choice_per_row(ref, sizes, 3, True))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestClassAwareRandom:
    def test_labels_equal_ground_truth(self):
        model, b = small_bank()
        cfg = bank.RldConfig(k=3)
        lab_pts = np.zeros((8, 2))
        lab_y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        pts, labs, fb = bank.retrieve_defending(b, lab_pts, lab_y, cfg, np.random.default_rng(0))
        assert fb == 0
        assert len(pts) == 24
        np.testing.assert_array_equal(labs, np.repeat(lab_y, 3))

    def test_singleton_class_with_replacement(self):
        model = random_model(7)
        # Construct a bank manually with one entry for class 1.
        pts = np.array([[5.0, 5.0]])
        b = bank.CandidateBank(pts, [77], [[], [0], []], [[], [0.9], []])
        cfg = bank.RldConfig(k=3)
        out, labs, fb = bank.retrieve_defending(
            b, np.zeros((1, 2)), [1], cfg, np.random.default_rng(1)
        )
        assert fb == 0
        np.testing.assert_array_equal(out, np.repeat(pts, 3, axis=0))
        np.testing.assert_array_equal(labs, [1, 1, 1])

    def test_draws_come_from_the_class_bank(self):
        model, b = small_bank(seed=10)
        cfg = bank.RldConfig(k=4)
        lab_y = [2, 2, 0]
        pts, labs, _ = bank.retrieve_defending(
            b, np.zeros((3, 2)), lab_y, cfg, np.random.default_rng(2)
        )
        rows = {tuple(p) for p in pts}
        allowed = {tuple(q) for c in (0, 2) for q in b.class_points(c)}
        assert rows <= allowed

    def test_empty_class_duplicate_fallback(self):
        model = random_model(9)
        b = bank.CandidateBank(np.zeros((1, 2)), [0], [[0], [], []], [[0.5], [], []])
        cfg = bank.RldConfig(k=2, empty_class_fallback=bank.DUPLICATE_LABELED)
        x = np.array([[3.0, -1.0]])
        pts, labs, fb = bank.retrieve_defending(b, x, [1], cfg, np.random.default_rng(3))
        assert fb == 1
        np.testing.assert_array_equal(pts, np.repeat(x, 2, axis=0))
        np.testing.assert_array_equal(labs, [1, 1])

    def test_empty_class_skip_fallback(self):
        b = bank.CandidateBank(np.zeros((1, 2)), [0], [[0], [], []], [[0.5], [], []])
        cfg = bank.RldConfig(k=2, empty_class_fallback=bank.SKIP_WITH_FLAG)
        pts, labs, fb = bank.retrieve_defending(
            b, np.array([[3.0, -1.0], [0.0, 0.0]]), [1, 0], cfg, np.random.default_rng(3)
        )
        assert fb == 1
        assert len(pts) == 2  # only the class-0 sample got its k=2 pairs
        np.testing.assert_array_equal(labs, [0, 0])

    def test_stale_bank_rejected(self):
        model, b = small_bank(epoch=4)
        cfg = bank.RldConfig(k=1)
        with pytest.raises(ConfigError, match="stale"):
            bank.retrieve_defending(
                b, np.zeros((1, 2)), [0], cfg, np.random.default_rng(0), epoch=5
            )
        # matching stamp passes
        bank.retrieve_defending(
            b, np.zeros((1, 2)), [0], cfg, np.random.default_rng(0), epoch=4
        )


class TestUnconditionedRandom:
    def test_labels_are_entries_own_pseudo_labels(self):
        model, b = small_bank(seed=10)
        cfg = bank.RldConfig(k=5, strategy=bank.UNCONDITIONED_RANDOM)
        pts, labs, fb = bank.retrieve_defending(
            b, np.zeros((4, 2)), [0, 0, 0, 0], cfg, np.random.default_rng(4)
        )
        assert len(pts) == 20 and fb == 0
        # every retrieved point maps back to a bank entry of the emitted class
        for p, lab in zip(pts, labs):
            cls_points = {tuple(q) for q in b.class_points(int(lab))}
            assert tuple(p) in cls_points
        # with 3 classes in the bank, unconditioned draws should not all match
        # a single requested label (probabilistic but astronomically safe)
        assert len(set(labs.tolist())) > 1


class TestKMeansCenter:
    def test_k_equals_clusters_returns_nearest_to_each_centroid(self):
        # Two tight clusters of class-0 bank points; with kmeans_clusters=2 and
        # 20 Lloyd iterations the centroids must settle on the cluster means,
        # so retrieval returns one nearest point from each cluster.
        cluster_a = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]])
        cluster_b = np.array([[10.0, 10.0], [10.2, 10.0], [10.0, 10.2]])
        pts = np.concatenate([cluster_a, cluster_b])
        b = bank.CandidateBank(pts, np.arange(6), [np.arange(6)], [[0.9] * 6])
        cfg = bank.RldConfig(k=2, strategy=bank.KMEANS_CENTER, kmeans_clusters=2)
        out, labs, _ = bank.retrieve_defending(
            b, np.zeros((1, 2)), [0], cfg, np.random.default_rng(5)
        )
        got = {tuple(p) for p in out}
        # nearest to mean of each cluster: (0.0667,0.0667) -> (0,0); (10.0667,..) -> (10,10)
        assert got == {(0.0, 0.0), (10.0, 10.0)}

    def test_cluster_count_exceeding_bank_size_clamps(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = bank.CandidateBank(pts, [0, 1], [[0, 1]], [[0.9, 0.8]])
        cfg = bank.RldConfig(k=3, strategy=bank.KMEANS_CENTER, kmeans_clusters=5)
        out, labs, _ = bank.retrieve_defending(
            b, np.zeros((1, 2)), [0], cfg, np.random.default_rng(6)
        )
        assert len(out) == 3
        assert {tuple(p) for p in out} <= {(0.0, 0.0), (1.0, 1.0)}


    def test_matches_verbatim_per_point_kmeans(self):
        rng = np.random.default_rng(41)
        for case in range(30):
            b = tied_bank(rng, n=int(rng.integers(6, 90)))
            lab_y = rng.integers(0, 3, size=16)
            # more clusters than distinct points leaves clusters empty
            cfg = bank.RldConfig(
                k=int(rng.integers(1, 6)), strategy=bank.KMEANS_CENTER,
                kmeans_clusters=int(rng.integers(1, 12)),
            )
            assert_same_retrieval(b, rng.normal(size=(16, 2)), lab_y, cfg, case)

    def test_centroids_match_verbatim_kmeans_bitwise(self):
        rng = np.random.default_rng(42)
        for case in range(30):
            b = tied_bank(rng, n=int(rng.integers(6, 200)))
            drawn = rng.integers(0, 4, size=12)
            # retrieval serves only labels of classes with entries
            lab_y = np.array([y for y in drawn.tolist() if y < b.num_classes and b.class_size(y)],
                             dtype=np.int64)
            clusters = int(rng.integers(1, 9))
            rng_fast, rng_ref = np.random.default_rng(case), np.random.default_rng(case)
            centroids_of = {}
            runs = bank._kmeans_runs(b, lab_y, clusters, rng_fast)
            for cls, (positions, centroids) in runs.items():
                assert len(positions) == len(centroids)
                for i, c in zip(positions, centroids):
                    assert lab_y[i] == cls
                    centroids_of[i] = c
            assert sorted(centroids_of) == list(range(len(lab_y)))
            for i, y in enumerate(lab_y):
                want = reference_kmeans(b.class_points(int(y)), clusters, rng_ref)
                assert np.array_equal(centroids_of[i], want)
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    def test_lloyd_early_exit_matches_twenty_iterations(self):
        rng = np.random.default_rng(44)
        never_converged = emptied = 0
        for case in range(60):
            n = int(rng.integers(4, 160))
            if case % 3 == 0:
                # exponentially spaced points on a line converge slowly
                x = np.sort(rng.exponential(size=n))
                pts = np.stack([x, 0.01 * rng.normal(size=n)], axis=1)
            elif case % 3 == 1:
                # duplicated points: equal initial centroids leave clusters empty
                base = rng.normal(size=(max(1, n // 5), 2))
                pts = base[rng.integers(0, len(base), size=n)]
            else:
                pts = rng.normal(scale=2.0, size=(n, 2))
            clusters = int(rng.integers(1, min(n, 8) + 1))
            runs = int(rng.integers(1, 6))
            init = np.stack([rng.choice(n, size=clusters, replace=False) for _ in range(runs)])
            assert np.array_equal(bank._lloyd(pts, init), reference_lloyd(pts, init))
            for rows in init:
                stop, empty = lloyd_history(pts, rows)
                never_converged += stop is None
                emptied += empty
        assert never_converged and emptied  # both edge cases were exercised

    def test_lloyd_many_runs_leave_at_different_iterations(self):
        # 48 runs on one slice, as one epoch's runs of a class iterate: runs
        # settle at different iterations and leave, others hit the 20 cap
        rng = np.random.default_rng(46)
        x = np.sort(rng.exponential(size=200))
        pts = np.stack([x, 0.01 * rng.normal(size=200)], axis=1)
        init = np.stack([rng.choice(200, size=5, replace=False) for _ in range(48)])
        assert np.array_equal(bank._lloyd(pts, init), reference_lloyd(pts, init))
        stops = [lloyd_history(pts, rows)[0] for rows in init]
        assert None in stops  # some run never settles within 20 iterations
        assert len({s for s in stops if s is not None}) > 5

    def test_nearest_per_centroid_matches_verbatim(self):
        rng = np.random.default_rng(45)
        for case in range(40):
            base = rng.normal(size=(int(rng.integers(1, 8)), 2))
            pts = base[rng.integers(0, len(base), size=int(rng.integers(1, 30)))]
            n_centroids = int(rng.integers(1, 7))
            centroids = rng.normal(size=(int(rng.integers(1, 5)), n_centroids, 2))
            centroids[0, 0] = pts[0]  # a centroid on duplicated points: ties by row
            for k in sorted({1, max(1, n_centroids - 1), n_centroids, n_centroids + 1, 3 * n_centroids + 2}):
                got = bank._nearest_picks(pts, centroids, k)
                assert got.shape == (len(centroids), k)
                for run, run_centroids in enumerate(centroids):
                    want = reference_nearest_per_centroid(pts, run_centroids, k)
                    assert np.array_equal(got[run], want), (case, k, run)

    def test_nearest_picks_tie_at_overflowing_distances(self):
        # points scaled by 1e200 lie at an infinite distance from every
        # centroid (their squares overflow), so those distances tie and go
        # by row; duplicated points tie too. Each centroid walks its own
        # order, so a run's two equal centroids yield the same rows.
        rng = np.random.default_rng(48)
        shared = 0
        with np.errstate(over="ignore"):
            for case in range(30):
                pts = rng.normal(size=(4, 2))[rng.integers(0, 4, size=int(rng.integers(2, 14)))]
                pts[rng.random(len(pts)) < 0.5] *= 1e200
                centroids = rng.normal(size=(int(rng.integers(1, 4)), 3, 2))
                centroids[:, 1] = centroids[:, 0]
                for k in (1, 2, 3, 5, 3 * len(pts) + 2):
                    got = bank._nearest_picks(pts, centroids, k)
                    for run, run_centroids in enumerate(centroids):
                        want = reference_nearest_per_centroid(pts, run_centroids, k)
                        assert np.array_equal(got[run], want), (case, k, run)
                        shared += k >= 2 and got[run, 0] == got[run, 1]
        assert shared


class TestRandomStrategiesMatchOracle:
    @pytest.mark.parametrize("strategy", [bank.CLASS_AWARE_RANDOM, bank.UNCONDITIONED_RANDOM])
    @pytest.mark.parametrize("fallback", [bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG])
    def test_matches_per_point_oracle(self, strategy, fallback):
        rng = np.random.default_rng(43)
        for case in range(10):
            b = tied_bank(rng, empty_class=case % 3)
            cfg = bank.RldConfig(k=4, strategy=strategy, empty_class_fallback=fallback)
            assert_same_retrieval(
                b, rng.normal(size=(16, 2)), rng.integers(0, 3, size=16), cfg, case
            )


class TestRetrieveSplit:
    """An epoch's bank.RetrievalPlan, split back into its steps."""

    @pytest.mark.parametrize("strategy", bank.STRATEGIES)
    @pytest.mark.parametrize("fallback", [bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG])
    def test_matches_one_call_per_group(self, strategy, fallback):
        # every strategy's step writes its points with one take, the model
        # moving between steps, and the plan lays out its labels, counts
        # and fallbacks: each must be what one retrieve_defending call per
        # step gives, and the plan must read the rng as those calls do
        rng = np.random.default_rng(47)
        for case in range(8):
            b = tied_bank(rng, n=int(rng.integers(6, 60)), empty_class=case % 3)
            groups, size = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            points = rng.normal(size=(groups, size, 2))
            labels = rng.integers(0, 4, size=(groups, size))  # class 3 is not in the bank
            cfg = bank.RldConfig(
                k=int(rng.integers(1, 5)), strategy=strategy,
                kmeans_clusters=int(rng.integers(1, 8)), empty_class_fallback=fallback,
            )
            rng_plan, rng_each = np.random.default_rng(case), np.random.default_rng(case)
            plan = bank.RetrievalPlan(b, points, labels, cfg, rng_plan)
            assert len(plan.counts) == len(plan.fallbacks) == len(plan.tables) == groups
            step_labels = np.split(plan.labels, np.cumsum(plan.counts)[:-1])
            for i, model in enumerate(drifted(random_model(47), groups, case)):
                out = np.full((plan.counts[i], 2), np.nan)
                bank.retrieve_step(plan, i, model, out)
                want = bank.retrieve_defending(b, points[i], labels[i], cfg, rng_each, model=model)
                assert np.array_equal(out, want[0])
                labs, count, flagged = step_labels[i], plan.counts[i], plan.fallbacks[i]
                assert np.array_equal(labs, want[1]) and labs.dtype == want[1].dtype
                assert count == len(want[0]) and type(count) is int
                assert flagged == want[2] and type(flagged) is int
            assert rng_plan.bit_generator.state == rng_each.bit_generator.state


class TestEmptyResult:
    @pytest.mark.parametrize("strategy", bank.STRATEGIES)
    @pytest.mark.parametrize("fallback", [bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG])
    def test_keeps_the_points_width(self, strategy, fallback):
        # 3-column points: a call that serves no point gives no rows of the
        # points' width, as a call that serves some gives rows of it
        rng = np.random.default_rng(54)
        pts = rng.normal(size=(12, 3))
        b = bank.CandidateBank(pts, np.arange(12), [np.arange(7), np.arange(7, 12), []],
                               [np.full(7, 0.9), np.full(5, 0.8), []])
        model = random_model(54, dims=(3, 8, 3))
        cfg = bank.RldConfig(k=2, strategy=strategy, empty_class_fallback=fallback)
        calls = {"none": (np.zeros((0, 3)), []), "served": (rng.normal(size=(2, 3)), [0, 1])}
        if fallback == bank.SKIP_WITH_FLAG and strategy != bank.UNCONDITIONED_RANDOM:
            calls["falls back"] = (rng.normal(size=(2, 3)), [2, 5])  # class 2 has no entries
        for name, (lab_pts, lab_y) in calls.items():
            got, labs, _ = bank.retrieve_defending(b, lab_pts, lab_y, cfg, rng, model=model)
            assert got.shape == (2 * len(lab_y) if name == "served" else 0, 3), name
            assert len(labs) == len(got) and labs.dtype == np.int64


class TestRepeatedLabeledPoints:
    @pytest.mark.parametrize("strategy", bank.STRATEGIES)
    @pytest.mark.parametrize("fallback", [bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG])
    def test_matches_per_point_oracle(self, strategy, fallback):
        # a batch repeats few distinct labeled points, the same coordinates
        # may carry two classes, and fallback rows mix with bank rows
        model = random_model(46)
        rng = np.random.default_rng(46)
        for case in range(12):
            b = tied_bank(rng, empty_class=case % 3)
            lab_pts = rng.normal(scale=2.0, size=(5, 2))[rng.integers(0, 5, size=16)]
            lab_y = rng.integers(0, 3, size=16)
            lab_pts[1] = lab_pts[0]
            lab_y[1] = (lab_y[0] + 1) % 3
            lab_y[2] = 3  # a class the bank does not have
            cfg = bank.RldConfig(k=3, strategy=strategy, empty_class_fallback=fallback)
            assert_same_retrieval(b, lab_pts, lab_y, cfg, case, model=model)


class TestCosineDistant:
    def test_matches_exhaustive_oracle(self):
        model = random_model(11)
        rng = np.random.default_rng(11)
        for case in range(20):
            pts = rng.normal(scale=2.0, size=(5, 2))
            b = bank.CandidateBank(pts, np.arange(5), [np.arange(5)], [[0.9] * 5])
            x = rng.normal(scale=2.0, size=(1, 2))
            cfg = bank.RldConfig(k=2, strategy=bank.COSINE_DISTANT)
            out, labs, _ = bank.retrieve_defending(
                b, x, [0], cfg, np.random.default_rng(case), model=model
            )
            fx = nn.penultimate_features(model, x)[0]
            cand = nn.penultimate_features(model, pts)

            def cos_dist(v):
                na, nb = np.linalg.norm(fx), np.linalg.norm(v)
                if na == 0.0 or nb == 0.0:
                    return 1.0
                return 1.0 - float(fx @ v) / (na * nb)

            oracle = sorted(range(5), key=lambda r: (-cos_dist(cand[r]), r))[:2]
            np.testing.assert_allclose(out, pts[oracle])

    def test_one_call_matches_per_point_oracle(self):
        # several labeled points per class in one call exercise the per-class
        # feature cache; duplicate bank points and all-zero features tie
        model = relu_model()
        rng = np.random.default_rng(31)
        for case in range(25):
            b = tied_bank(rng)
            lab_pts = rng.normal(scale=2.0, size=(9, 2))
            lab_pts[::4] = -np.abs(lab_pts[::4])  # zero-feature labeled points
            lab_y = rng.integers(0, 3, size=9)
            lab_y[:3] = lab_y[0]  # at least three of one class
            for k in (1, 3, 40):  # 40 exceeds some class slices: order wraps
                cfg = bank.RldConfig(k=k, strategy=bank.COSINE_DISTANT)
                assert_same_retrieval(b, lab_pts, lab_y, cfg, case, model=model)
        model = random_model(32)
        b = tied_bank(rng, empty_class=1)
        cfg = bank.RldConfig(k=3, strategy=bank.COSINE_DISTANT)
        assert_same_retrieval(b, rng.normal(size=(16, 2)), np.arange(16) % 3, cfg, 0, model=model)

    @staticmethod
    def check(b, lab_pts, lab_y, model, ks=(1, 3, 40), seed=0):
        """One call against the per-point reference, and an epoch of three
        steps (the points, reversed, and rolled), the model moving between
        steps, against one call per step."""
        lab_pts, lab_y = np.asarray(lab_pts, dtype=np.float64), np.asarray(lab_y)
        epoch = [np.stack([x, x[::-1], np.roll(x, 5, axis=0)]) for x in (lab_pts, lab_y)]
        models = drifted(model, 3, seed)
        for k in ks:
            for fallback in (bank.DUPLICATE_LABELED, bank.SKIP_WITH_FLAG):
                cfg = bank.RldConfig(k=k, strategy=bank.COSINE_DISTANT, empty_class_fallback=fallback)
                assert_same_retrieval(b, lab_pts, lab_y, cfg, seed, model=model)
                assert_plan_matches(b, *epoch, models, cfg)

    def test_one_row_classes_inside_the_whole_bank_pass(self):
        model = random_model(34)
        rng = np.random.default_rng(34)
        for case in range(10):
            b = sized_bank(rng, [1, 9, 1, 23, 1])
            lab_y = rng.integers(0, 5, size=16)
            lab_y[:3] = (0, 2, 4)
            self.check(b, rng.normal(scale=2.0, size=(16, 2)), lab_y, model, seed=case)

    def test_zero_and_nonzero_norm_rows_in_one_class(self):
        # relu features: a point in the negative quadrant has all-zero
        # features, so its denominators are zero in every class
        model = relu_model()
        rng = np.random.default_rng(35)
        for case in range(10):
            base = rng.normal(scale=2.0, size=(12, 2))
            base[::3] = -np.abs(base[::3])
            b = sized_bank(rng, [20, 14, 6], base=base)
            lab_pts = rng.normal(scale=2.0, size=(16, 2))
            if case % 2:
                lab_pts[::5] = -np.abs(lab_pts[::5])  # zero-norm labeled points too
            self.check(b, lab_pts, rng.integers(0, 3, size=16), model, seed=case)

    def test_all_sixteen_points_in_one_class(self):
        model = random_model(36)
        rng = np.random.default_rng(36)
        for case in range(10):
            b = sized_bank(rng, [30, 45, 12])
            self.check(b, rng.normal(scale=2.0, size=(16, 2)), np.full(16, case % 3), model, seed=case)

    def test_repeated_points_without_memo(self):
        # the same coordinates under the same class, and under another class
        model = random_model(37)
        rng = np.random.default_rng(37)
        for case in range(10):
            b = sized_bank(rng, [25, 18, 30])
            lab_pts = rng.normal(scale=2.0, size=(3, 2))[rng.integers(0, 3, size=16)]
            self.check(b, lab_pts, rng.integers(0, 3, size=16), model, seed=case)

    def test_labels_past_the_bank_and_empty_classes_fall_back(self):
        model = random_model(38)
        rng = np.random.default_rng(38)
        for case in range(10):
            b = sized_bank(rng, [12, 0, 20])
            lab_y = rng.integers(0, 5, size=16)  # 3 and 4 are past the bank's classes
            lab_y[:3] = (1, 3, 4)
            self.check(b, rng.normal(scale=2.0, size=(16, 2)), lab_y, model, seed=case)
        # every point falls back: no rows under SkipWithFlag
        self.check(sized_bank(rng, [0, 0, 5]), rng.normal(size=(4, 2)), [0, 1, 3, 1], model)

    def test_k_larger_than_a_class_wraps(self):
        model = random_model(39)
        rng = np.random.default_rng(39)
        for case in range(10):
            b = sized_bank(rng, [3, 5, 2])
            self.check(b, rng.normal(scale=2.0, size=(16, 2)), rng.integers(0, 3, size=16), model,
                       ks=(4, 7, 40), seed=case)

    def test_exact_ties_in_large_classes(self):
        # classes past the size where numpy's default sort stops being
        # stable, over few distinct points: many exact ties to break by index
        model = random_model(40)
        rng = np.random.default_rng(40)
        for case in range(10):
            b = sized_bank(rng, [60, 90, 45], base=rng.normal(scale=2.0, size=(6, 2)))
            self.check(b, rng.normal(scale=2.0, size=(16, 2)), rng.integers(0, 3, size=16), model,
                       ks=(40, 100), seed=case)

    def test_near_ties_in_the_last_bit(self):
        # bank points that differ from one point in their last bits have
        # cosine distances that differ in their last bits: the order among
        # them holds only if every product, norm and quotient has the bits
        # of the reference's one product against the whole bank. Class
        # sizes take every residue mod 4, as a matrix-vector product with
        # a class slice would run its last rows through other kernels. At
        # [16, 10] a class slice of the feature pass has bits of its own too.
        sizes = [[40, 37, 42], [37, 42, 39], [42, 39, 41], [39, 41, 40]]
        for dims in ((2, 10, 10, 3), (2, 16, 10, 3)):
            model = random_model(41, dims=dims)
            rng = np.random.default_rng(41)
            for case in range(20):
                x = rng.normal(scale=2.0, size=2)
                base = x * (1.0 + rng.integers(-8, 9, size=(40, 2)) * np.finfo(float).eps)
                b = sized_bank(rng, sizes[case % 4], base=base)
                lab_pts = rng.normal(scale=2.0, size=(16, 2))
                self.check(b, lab_pts, rng.integers(0, 3, size=16), model, ks=(40,), seed=case)

    def test_picks_at_a_width_where_slice_features_move(self):
        # at hidden widths [16, 10] a row of one feature pass over the whole
        # bank need not have the bits of a pass over its class slice alone
        # (30 of the 60 slices below differ); [3, 12] and [12, 3] put the
        # wide layer last and first. The picks are the reference's, from
        # one pass over the bank, random banks and near ties alike.
        for seed, dims in ((42, (2, 16, 10, 3)), (43, (2, 3, 12, 3)), (44, (2, 12, 3, 3))):
            model = random_model(seed, dims=dims)
            rng = np.random.default_rng(seed)
            for case in range(20):
                sizes = rng.integers(1, 50, size=3).tolist()
                base = None
                if case % 2:
                    x = rng.normal(scale=2.0, size=2)
                    base = x * (1.0 + rng.integers(-8, 9, size=(40, 2)) * np.finfo(float).eps)
                b = sized_bank(rng, sizes, base=base)
                lab_pts = rng.normal(scale=2.0, size=(16, 2))
                self.check(b, lab_pts, rng.integers(0, 3, size=16), model, seed=case)

    def test_two_plans_stepped_in_turn(self):
        # two plans over banks of different sizes and class counts, the
        # second larger than the first's entries plus one a class, stepped
        # A0, B0, A1, B1, A2, B2 on drifting models: each step must give the
        # rows, and its plan the labels, counts and fallbacks, of one
        # retrieve_defending call for that step alone
        rng = np.random.default_rng(48)
        for case in range(6):
            banks = (sized_bank(rng, [12, 0, 20]), sized_bank(rng, [40, 3, 55, 9]))
            epochs = [(rng.normal(scale=2.0, size=(3, 16, 2)), rng.integers(0, 5, size=(3, 16)))
                      for _ in banks]  # 3 is past the first bank's classes, 4 past both
            models = drifted(random_model(48), 6, case)
            for k, fallback in ((3, bank.DUPLICATE_LABELED), (40, bank.SKIP_WITH_FLAG)):
                cfg = bank.RldConfig(k=k, strategy=bank.COSINE_DISTANT, empty_class_fallback=fallback)
                plans = [bank.RetrievalPlan(b, *epoch, cfg, None) for b, epoch in zip(banks, epochs)]
                for turn, model in enumerate(models):
                    i, which = divmod(turn, 2)
                    b, plan, (points, labels) = banks[which], plans[which], epochs[which]
                    want = bank.retrieve_defending(b, points[i], labels[i], cfg, None, model=model)
                    out = np.full((plan.counts[i], 2), np.nan)
                    bank.retrieve_step(plan, i, model, out)
                    assert np.array_equal(out, want[0]), (case, k, turn)
                    step_labels = np.split(plan.labels, np.cumsum(plan.counts)[:-1])[i]
                    assert np.array_equal(step_labels, want[1]) and plan.fallbacks[i] == want[2]

    def test_requires_model(self):
        model, b = small_bank(seed=23)
        cfg = bank.RldConfig(k=1, strategy=bank.COSINE_DISTANT)
        with pytest.raises(ConfigError, match="model"):
            bank.retrieve_defending(b, np.zeros((1, 2)), [0], cfg, np.random.default_rng(0))


class TestFarthest:
    """bank._knock_out, rounds of argmax over each row's first sizes[i]
    entries (the rest padded out), wrapped to k picks a row, against a
    stable argsort of those entries."""

    @staticmethod
    def argsort_picks(dist, sizes, k):
        return np.stack([np.argsort(-row[:size], kind="stable")[np.arange(k) % size]
                         for row, size in zip(dist, sizes)])

    def check(self, dist, sizes, k):
        n, width = dist.shape
        rounds = np.empty((min(k, width), n), dtype=np.intp)
        at = np.arange(n)
        bank._knock_out(dist.copy(), np.arange(width) >= sizes[:, None], rounds, at)
        got = rounds.T[at[:, None], np.arange(k) % sizes[:, None]]
        assert np.array_equal(got, self.argsort_picks(dist, sizes, k)), (dist, sizes, k)

    def test_ties_signed_zeros_one_entry_rows_and_k_past_the_size(self):
        rng = np.random.default_rng(50)
        for case in range(300):
            n, width = int(rng.integers(1, 20)), int(rng.integers(1, 40))
            values = np.array([-0.0, 0.0, 0.5, 1.0, -1.0, 2.0])[: int(rng.integers(1, 7))]
            dist = values[rng.integers(0, len(values), size=(n, width))]
            if case % 2:
                dist += rng.normal(size=(n, width)) * (rng.random((n, width)) < 0.5)
            sizes = rng.integers(1, width + 1, size=n)
            sizes[: n // 4] = 1
            for k in (1, 2, 3, width, width + 3):
                self.check(dist, sizes, k)

    def test_non_finite_distances_rank_as_the_sort_ranks_them(self):
        # NaN last, -inf just before it, inf first; all of them can tie
        rng = np.random.default_rng(51)
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])
        for _ in range(300):
            n, width = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            dist = rng.normal(size=(n, width))
            hit = rng.random((n, width)) < rng.uniform(0.1, 1.0)
            dist[hit] = special[rng.integers(0, len(special), size=int(hit.sum()))]
            sizes = rng.integers(1, width + 1, size=n)
            for k in (1, 3, width + 2):
                self.check(dist, sizes, k)


def argsort_cosine_picks(b, model, points, labels, k):
    """Per point, its class's cosine distances as reference_retrieve
    computes them, ranked by a stable argsort over the class's entries in
    index order, which puts NaN distances last (reference_retrieve's
    Python sort has no order for NaN)."""
    feats, own, dots = reference_cosine_inputs(b, model, points)
    picks = []
    for j, cls in enumerate(labels.tolist()):
        lo, hi = b.offsets[cls], b.offsets[cls + 1]
        rows = b.class_rows(cls)
        by_index = np.argsort(b.indices[rows], kind="stable")
        dist = reference_cosine_distance(own[j], feats[lo:hi], dots[j, lo:hi])[by_index]
        picks.append(rows[by_index][np.argsort(-dist, kind="stable")[np.arange(k) % len(rows)]])
    return np.stack(picks)


def cosine_picks(b, model, points, labels, k):
    """Rows of the k cosine_distant picks of each labeled point, shaped (n,
    k), as the step of a one-step bank.RetrievalPlan writes them into its
    table. Every label must be a class with entries."""
    cfg = bank.RldConfig(k=k, strategy=bank.COSINE_DISTANT)
    plan = bank.RetrievalPlan(b, points[None], labels[None], cfg, None)
    bank.retrieve_step(plan, 0, model, np.empty((len(labels) * k, points.shape[1])))
    return b.rows.take(plan.tables[0]).reshape(len(labels), k)


class TestCosineNonFinite:
    def test_overflowing_features_rank_as_the_sort_ranks_them(self):
        # points of 1e300 give infinite features and norms: distances of 1
        # (an infinite norm against finite dots), and NaN where an infinite
        # dot meets an infinite norm or a zero feature meets an infinite one
        rng = np.random.default_rng(52)
        model = random_model(52, dims=(2, 10, 10, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            for case in range(20):
                b = sized_bank(rng, [30, 25, 12])
                huge = rng.random(len(b.points)) < 0.3
                pts = np.where(huge[:, None], b.points * 1e300, b.points)
                b = bank.CandidateBank(pts, b.indices, [b.class_rows(c) for c in range(3)],
                                       [b.class_conf(c) for c in range(3)])
                lab_pts = rng.normal(scale=2.0, size=(16, 2))
                lab_pts[::3] *= 1e300
                labels = rng.integers(0, 3, size=16)
                for k in (3, 40):
                    got = cosine_picks(b, model, lab_pts, labels, k)
                    assert np.array_equal(got, argsort_cosine_picks(b, model, lab_pts, labels, k))


class TestNegativeLabels:
    @pytest.mark.parametrize("strategy", bank.STRATEGIES)
    def test_rejected_up_front(self, strategy):
        # unchecked, a label of -1 or -2 indexes another class or the slot
        # past the bank's classes, or fails inside Generator.choice
        model, b = small_bank(seed=10)
        cfg = bank.RldConfig(k=2, strategy=strategy)
        for bad in (-1, -2):
            rng = np.random.default_rng(0)
            with pytest.raises(ShapeError, match=f"got {bad}"):
                bank.retrieve_defending(b, np.zeros((3, 2)), [0, bad, 1], cfg, rng, model=model)
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestRldLoss:
    """The defending (RLD) loss: the third term of the adaptation step, the
    supervised loss on the retrieved pairs."""

    @staticmethod
    def step(model, def_points, def_labels):
        """The adaptation step on one labelled point and the given pairs; returns the
        losses, the gradients and the labelled term's own gradients."""
        lb_points, lb_labels = np.array([[0.3, -0.2]]), np.array([1])
        batch = adapt.MiniBatch(
            lb_points, lb_labels, np.zeros((0, 2)), def_points, np.asarray(def_labels)
        )
        losses, grads = one_step(model, batch, adapt.AdaptConfig())
        trace = nn.forward(model, lb_points)
        _, dprobs, _ = nn.loss_ce(trace.probs, lb_labels)
        return losses, grads, nn.backward(model, trace, dprobs)

    def test_empty_pairs_zero(self):
        losses, grads, sup = self.step(random_model(13), np.zeros((0, 2)), [])
        assert losses.l_rld == 0.0 and losses.l_total == losses.l_sup
        assert np.array_equal(grads.flat, sup.flat)

    def test_uniform_two_class_single_pair_ln2(self):
        model = nn.MlpModel(
            [2, 2, 2], [np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros(2), np.zeros(2)]
        )
        losses, _, _ = self.step(model, np.zeros((1, 2)), [0])
        assert losses.l_rld == pytest.approx(math.log(2.0), abs=1e-12)

    def test_equals_direct_loss_ce(self):
        # the pairs' rows follow the labelled row in the step's one pass; the
        # loss is loss_ce on their slice, the gradient one backward pass of
        # both slices' upstream gradients
        model = random_model(14)
        pts = np.random.default_rng(14).normal(size=(6, 2))
        labs = np.array([0, 1, 2, 0, 1, 2])
        losses, grads, _ = self.step(model, pts, labs)
        trace = nn.forward(model, np.concatenate([[[0.3, -0.2]], pts]))
        _, dsup, _ = nn.loss_ce(trace.probs[:1], [1])
        (direct,), ddirect, _ = nn.loss_ce(trace.probs[1:], labs)
        assert losses.l_rld == direct
        want = nn.backward(model, trace, np.concatenate([dsup, ddirect]))
        assert np.array_equal(grads.flat, want.flat)


class TestBinaryBanks:
    def test_per_finding_partition_and_confidence(self):
        model = random_model(15, dims=(2, 8, 3), head=nn.SIGMOID)
        pts = np.random.default_rng(15).normal(size=(30, 2))
        thresholds = [0.5, 0.45, 0.6]
        banks = bank.generate_bank_binary(model, pts, np.arange(30), 1.0, thresholds)
        probs = nn.forward(model, pts).probs
        assert len(banks) == 3
        for j, b in enumerate(banks):
            assert sum(b.sizes()) == 30
            for g in b.class_indices(1):
                assert probs[g, j] >= thresholds[j]
            for g in b.class_indices(0):
                assert probs[g, j] < thresholds[j]

    def test_order_matches_sorted_oracle_with_ties(self):
        rng = np.random.default_rng(17)
        for case in range(20):
            model = random_model(case, dims=(2, 8, 3), head=nn.SIGMOID)
            n = int(rng.integers(5, 60))
            base = rng.normal(scale=2.0, size=(max(2, n // 3), 2))
            pts = base[rng.integers(0, len(base), size=n)]  # duplicates tie
            globals_ = rng.choice(1000, size=n, replace=False)
            thresholds = rng.uniform(0.3, 0.7, size=3)
            p = float(rng.uniform(0.1, 1.0))
            banks = bank.generate_bank_binary(model, pts, globals_, p, thresholds)
            probs = nn.forward(model, pts).probs
            for j, b in enumerate(banks):
                conf = np.abs(probs[:, j] - thresholds[j])
                for value in (0, 1):
                    rows = [r for r in range(n) if int(probs[r, j] >= thresholds[j]) == value]
                    keep = bank.top_fraction_count(p, len(rows))
                    order = sorted(rows, key=lambda r: (-conf[r], globals_[r]))[:keep]
                    assert b.class_indices(value).tolist() == [int(globals_[r]) for r in order]
                    assert b.class_conf(value).tolist() == [float(conf[r]) for r in order]

    def test_builder_hands_over_class_rows(self):
        rng = np.random.default_rng(18)
        model = random_model(18, dims=(2, 8, 3), head=nn.SIGMOID)
        pts = rng.normal(scale=2.0, size=(40, 2))
        indices = rng.permutation(1000)[:40]
        banks = bank.generate_bank_binary(model, pts, indices, 0.4, [0.5, 0.45, 0.6])
        for b in banks:
            assert b.points is banks[0].points
            assert_bank_arrays(b, indices)

    def test_concat_equals_one_constructor_call(self):
        # concat of the per-finding banks, each cut to its top-p fraction, is
        # the bank one constructor call cuts from every (finding, value) class
        rng = np.random.default_rng(19)
        model = random_model(19, dims=(2, 8, 3), head=nn.SIGMOID)
        pts = rng.normal(scale=2.0, size=(40, 2))
        indices = rng.permutation(1000)[:40]
        thresholds = np.array([0.5, 0.45, 0.6])
        banks = bank.generate_bank_binary(model, pts, indices, 0.4, thresholds, epoch_stamp=2)
        merged = bank.CandidateBank.concat(banks)
        probs = nn.forward(model, pts).probs
        conf = np.abs(probs - thresholds)
        classes = [(j, np.flatnonzero((probs[:, j] >= thresholds[j]) == value))
                   for j in range(3) for value in (False, True)]
        want = bank.CandidateBank(
            pts, indices, [rows for _, rows in classes], [conf[rows, j] for j, rows in classes],
            p=0.4, epoch_stamp=2,
        )
        for name in ("points", "indices", "rows", "conf", "counts", "offsets", "entry_points", "index_map"):
            got, expected = getattr(merged, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        assert merged.epoch_stamp == 2 and merged.num_classes == 6

    def test_filtering_keeps_most_threshold_distant(self):
        model = random_model(16, dims=(2, 8, 2), head=nn.SIGMOID)
        pts = np.random.default_rng(16).normal(scale=2.0, size=(40, 2))
        thresholds = [0.5, 0.5]
        banks = bank.generate_bank_binary(model, pts, np.arange(40), 0.4, thresholds)
        probs = nn.forward(model, pts).probs
        for j, b in enumerate(banks):
            conf = np.abs(probs[:, j] - thresholds[j])
            pseudo = (probs[:, j] >= thresholds[j]).astype(int)
            for value in (0, 1):
                members = np.flatnonzero(pseudo == value)
                expect = bank.top_fraction_count(0.4, len(members))
                assert b.class_size(value) == expect
                kept = b.class_indices(value).tolist()
                dropped = [i for i in members if i not in set(kept)]
                if kept and dropped:
                    assert min(conf[kept]) >= max(conf[dropped]) - 1e-15


COSINE_ONLY = ("entry_points", "index_map")


def eager_cosine_arrays(b):
    """entry_points and index_map as the constructor once built them:
    the entries' points in rows' order, and each class's offset plus the
    stable argsort of its entries' global indices, padded with its first
    position."""
    entry_points = np.asarray(b.points, dtype=np.float64)[b.rows]
    index_map = np.empty((b.num_classes, max(b.sizes())), dtype=np.intp)
    for c in range(b.num_classes):
        order = np.argsort(b.indices[b.class_rows(c)], kind="stable")
        index_map[c] = b.offsets[c]
        index_map[c, : len(order)] += order
    return entry_points, index_map


class TestLazyCosineArrays:
    @pytest.mark.parametrize("strategy", bank.MODEL_FREE)
    def test_model_free_retrieval_builds_no_cosine_array(self, strategy):
        _, b = small_bank()
        cfg = bank.RldConfig(k=3, strategy=strategy)
        rng = np.random.default_rng(3)
        bank.retrieve_defending(b, rng.normal(size=(8, 2)), rng.integers(0, 4, size=8), cfg, rng)
        assert not set(COSINE_ONLY) & set(vars(b))

    def test_binary_banks_and_their_concat_build_no_cosine_array(self):
        model = random_model(19, dims=(2, 8, 3), head=nn.SIGMOID)
        pts = np.random.default_rng(19).normal(scale=2.0, size=(40, 2))
        banks = bank.generate_bank_binary(model, pts, np.arange(40), 0.4, [0.5, 0.45, 0.6])
        merged = bank.CandidateBank.concat(banks)
        for b in banks + [merged]:
            assert not set(COSINE_ONLY) & set(vars(b))

    def test_first_read_gives_the_eager_arrays_read_only(self):
        rng = np.random.default_rng(50)
        model = random_model(19, dims=(2, 8, 3), head=nn.SIGMOID)
        pts = rng.normal(scale=2.0, size=(40, 2))
        banks = bank.generate_bank_binary(model, pts, rng.permutation(1000)[:40], 0.4,
                                          [0.5, 0.45, 0.6])
        cases = [small_bank()[1], tied_bank(rng, empty_class=1), bank.CandidateBank.concat(banks)]
        for b in cases:
            want = eager_cosine_arrays(b)
            for name, expected in zip(COSINE_ONLY, want):
                got = getattr(b, name)
                assert got.dtype == expected.dtype and np.array_equal(got, expected), name
                assert not got.flags.writeable and getattr(b, name) is got


class TestConfigValidation:
    def test_bad_p(self):
        with pytest.raises(ConfigError):
            bank.RldConfig(p=0.0)
        with pytest.raises(ConfigError):
            bank.RldConfig(p=1.5)

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            bank.RldConfig(k=0)

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            bank.RldConfig(strategy="nearest")

    def test_kmeans_clusters_defaults_to_k(self):
        cfg = bank.RldConfig(k=4, strategy=bank.KMEANS_CENTER)
        assert cfg.kmeans_clusters == 4
