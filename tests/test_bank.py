"""Tests for candidate-bank filtering and defending-sample retrieval."""

import math

import numpy as np
import pytest

from sdalab import bank, nn
from sdalab.errors import ConfigError


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


def reference_cosine_distance(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    sim = np.zeros(len(b))
    ok = denom > 0.0
    sim[ok] = (b[ok] @ a) / denom[ok]
    return 1.0 - sim


def reference_retrieve(b, labeled_points, labeled_labels, cfg, rng, model=None):
    def class_points(cls):
        return b.points[[b.index_of[i] for i in b.class_indices[cls]]]

    def features(x):
        return nn.forward(model, x).activations[-1]

    labels = np.asarray(labeled_labels, dtype=np.int64)
    out_pts, out_lab, fallbacks = [], [], 0
    if cfg.strategy == bank.UNCONDITIONED_RANDOM:
        pool = [g for cls in range(b.num_classes) for g in b.class_indices[cls]]
        pseudo_of = {g: cls for cls in range(b.num_classes) for g in b.class_indices[cls]}
    for x, y in zip(labeled_points, labels):
        cls = int(y)
        size = b.class_size(cls) if cls < b.num_classes else 0
        if cfg.strategy == bank.UNCONDITIONED_RANDOM:
            for d in rng.choice(len(pool), size=cfg.k, replace=len(pool) < cfg.k):
                out_pts.append(b.point_of(pool[int(d)]))
                out_lab.append(pseudo_of[pool[int(d)]])
            continue
        if size == 0:
            fallbacks += 1
            if cfg.empty_class_fallback == bank.DUPLICATE_LABELED:
                out_pts += [np.asarray(x, dtype=np.float64)] * cfg.k
                out_lab += [cls] * cfg.k
            continue
        if cfg.strategy == bank.CLASS_AWARE_RANDOM:
            for d in rng.choice(size, size=cfg.k, replace=size < cfg.k):
                out_pts.append(b.point_of(b.class_indices[cls][int(d)]))
                out_lab.append(cls)
        elif cfg.strategy == bank.KMEANS_CENTER:
            pts = class_points(cls)
            centroids = reference_kmeans(pts, cfg.kmeans_clusters, rng)
            for r in reference_nearest_per_centroid(pts, centroids, cfg.k):
                out_pts.append(pts[r])
                out_lab.append(cls)
        else:
            feat_x = features(np.asarray(x, dtype=float)[None, :])[0]
            cand_pts = class_points(cls)
            dist = reference_cosine_distance(feat_x, features(cand_pts))
            order = sorted(
                range(len(cand_pts)), key=lambda r: (-dist[r], b.class_indices[cls][r])
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


def tied_bank(rng, num_classes=3, n=48, empty_class=None):
    """A bank of n entries over few distinct points (duplicates force ties),
    with shuffled non-contiguous global indices and random class slices."""
    base = rng.normal(scale=2.0, size=(n // 3, 2))
    pts = base[rng.integers(0, len(base), size=n)]
    globals_ = rng.choice(10_000, size=n, replace=False)
    pseudo = rng.integers(0, num_classes, size=n)
    if empty_class is not None:
        pseudo[pseudo == empty_class] = (empty_class + 1) % num_classes
    class_indices = [[int(globals_[r]) for r in np.flatnonzero(pseudo == c)] for c in range(num_classes)]
    return bank.CandidateBank(
        num_classes=num_classes, points=pts,
        index_of={int(g): row for row, g in enumerate(globals_)},
        class_indices=class_indices,
        class_conf=[[0.9] * len(ix) for ix in class_indices],
    )


def assert_same_retrieval(b, lab_pts, lab_y, cfg, seed, model=None):
    rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = bank.retrieve_defending(b, lab_pts, lab_y, cfg, rng_fast, model=model)
    want = reference_retrieve(b, lab_pts, lab_y, cfg, rng_ref, model=model)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    # both consumed the same draws, so later retrievals stay in step too
    assert rng_fast.integers(1 << 62) == rng_ref.integers(1 << 62)


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
            assert sorted(b.class_indices[c]) == np.flatnonzero(pseudo == c).tolist()

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
                assert b.class_indices[c] == oracle[c], f"case {case} class {c}"

    def test_retained_confidences_dominate_discarded(self):
        model = random_model(3)
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=2.0, size=(50, 2))
        b = bank.generate_bank(model, pts, np.arange(50), p=0.4, num_classes=3)
        probs = nn.forward(model, pts).probs
        pseudo = nn.argmax_rows(probs)
        conf = probs[np.arange(50), pseudo]
        for c in range(3):
            kept = set(b.class_indices[c])
            members = np.flatnonzero(pseudo == c)
            dropped = [i for i in members if i not in kept]
            if kept and dropped:
                assert min(conf[list(kept)]) >= max(conf[dropped]) - 1e-15
            assert b.class_conf[c] == sorted(b.class_conf[c], reverse=True)

    def test_pseudo_labels_match_list_class(self):
        model = random_model(4)
        pts = np.random.default_rng(4).normal(size=(30, 2))
        b = bank.generate_bank(model, pts, np.arange(30), p=0.5, num_classes=3)
        pseudo = nn.predict(model, pts)
        for c in range(3):
            for g in b.class_indices[c]:
                assert pseudo[g] == c

    def test_frozen_model_reproducibility(self, tmp_path):
        model = random_model(5)
        pts = np.random.default_rng(5).normal(size=(25, 2))
        b1 = bank.generate_bank(model, pts, np.arange(25), p=0.4, num_classes=3)
        path = tmp_path / "m.json"
        model.save(path)
        b2 = bank.generate_bank(nn.MlpModel.load(path), pts, np.arange(25), p=0.4, num_classes=3)
        assert b1.class_indices == b2.class_indices

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            bank.generate_bank(random_model(0), np.zeros((0, 2)), [], 0.4, 3)


def small_bank(model=None, seed=2, n=40, p=0.5, epoch=0):
    # seeds 2, 10, 23 give banks with several entries in every class
    model = model or random_model(seed)
    pts = np.random.default_rng(seed).normal(scale=2.0, size=(n, 2))
    b = bank.generate_bank(model, pts, np.arange(n), p=p, num_classes=3, epoch_stamp=epoch)
    assert min(b.sizes()) >= 3, "fixture bank must populate every class"
    return model, b


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
        b = bank.CandidateBank(
            num_classes=3, points=pts, index_of={77: 0},
            class_indices=[[], [77], []], class_conf=[[], [0.9], []],
        )
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
        allowed = {
            tuple(b.point_of(g)) for c in (0, 2) for g in b.class_indices[c]
        }
        assert rows <= allowed

    def test_empty_class_duplicate_fallback(self):
        model = random_model(9)
        b = bank.CandidateBank(
            num_classes=3, points=np.zeros((1, 2)), index_of={0: 0},
            class_indices=[[0], [], []], class_conf=[[0.5], [], []],
        )
        cfg = bank.RldConfig(k=2, empty_class_fallback=bank.DUPLICATE_LABELED)
        x = np.array([[3.0, -1.0]])
        pts, labs, fb = bank.retrieve_defending(b, x, [1], cfg, np.random.default_rng(3))
        assert fb == 1
        np.testing.assert_array_equal(pts, np.repeat(x, 2, axis=0))
        np.testing.assert_array_equal(labs, [1, 1])

    def test_empty_class_skip_fallback(self):
        b = bank.CandidateBank(
            num_classes=3, points=np.zeros((1, 2)), index_of={0: 0},
            class_indices=[[0], [], []], class_conf=[[0.5], [], []],
        )
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
        b = bank.CandidateBank(
            num_classes=1, points=pts, index_of={i: i for i in range(6)},
            class_indices=[[0, 1, 2, 3, 4, 5]], class_conf=[[0.9] * 6],
        )
        cfg = bank.RldConfig(k=2, strategy=bank.KMEANS_CENTER, kmeans_clusters=2)
        out, labs, _ = bank.retrieve_defending(
            b, np.zeros((1, 2)), [0], cfg, np.random.default_rng(5)
        )
        got = {tuple(p) for p in out}
        # nearest to mean of each cluster: (0.0667,0.0667) -> (0,0); (10.0667,..) -> (10,10)
        assert got == {(0.0, 0.0), (10.0, 10.0)}

    def test_cluster_count_exceeding_bank_size_clamps(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = bank.CandidateBank(
            num_classes=1, points=pts, index_of={0: 0, 1: 1},
            class_indices=[[0, 1]], class_conf=[[0.9, 0.8]],
        )
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
            lab_y = rng.integers(0, 4, size=12)  # class 3 is not in the bank
            clusters = int(rng.integers(1, 9))
            rng_fast, rng_ref = np.random.default_rng(case), np.random.default_rng(case)
            got = bank._kmeans_per_point(b, lab_y, clusters, rng_fast)
            for y, centroids in zip(lab_y, got):
                if y >= b.num_classes or not b.class_size(int(y)):
                    assert centroids is None
                    continue
                want = reference_kmeans(b.class_points(int(y)), clusters, rng_ref)
                assert np.array_equal(centroids, want)
            assert rng_fast.integers(1 << 62) == rng_ref.integers(1 << 62)


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


class TestCosineDistant:
    def test_matches_exhaustive_oracle(self):
        model = random_model(11)
        rng = np.random.default_rng(11)
        for case in range(20):
            pts = rng.normal(scale=2.0, size=(5, 2))
            b = bank.CandidateBank(
                num_classes=1, points=pts, index_of={i: i for i in range(5)},
                class_indices=[[0, 1, 2, 3, 4]], class_conf=[[0.9] * 5],
            )
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

    def test_requires_model(self):
        model, b = small_bank(seed=23)
        cfg = bank.RldConfig(k=1, strategy=bank.COSINE_DISTANT)
        with pytest.raises(ConfigError, match="model"):
            bank.retrieve_defending(b, np.zeros((1, 2)), [0], cfg, np.random.default_rng(0))


class TestRldLoss:
    def test_empty_pairs_zero(self):
        loss, dprobs, trace = bank.rld_loss(random_model(13), np.zeros((0, 2)), [])
        assert loss == 0.0 and dprobs is None

    def test_uniform_two_class_single_pair_ln2(self):
        model = nn.MlpModel(
            [2, 2, 2], [np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros(2), np.zeros(2)]
        )
        loss, _, _ = bank.rld_loss(model, np.zeros((1, 2)), [0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_equals_direct_loss_ce(self):
        model = random_model(14)
        pts = np.random.default_rng(14).normal(size=(6, 2))
        labs = np.array([0, 1, 2, 0, 1, 2])
        loss, dprobs, trace = bank.rld_loss(model, pts, labs)
        direct, ddirect, _ = nn.loss_ce(nn.forward(model, pts).probs, labs)
        assert loss == direct
        np.testing.assert_array_equal(dprobs, ddirect)


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
            for g in b.class_indices[1]:
                assert probs[g, j] >= thresholds[j]
            for g in b.class_indices[0]:
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
                    assert b.class_indices[value] == [int(globals_[r]) for r in order]
                    assert b.class_conf[value] == [float(conf[r]) for r in order]

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
                kept = b.class_indices[value]
                dropped = [i for i in members if i not in set(kept)]
                if kept and dropped:
                    assert min(conf[kept]) >= max(conf[dropped]) - 1e-15


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
