"""Tests for feedback-policy simulation against brute-force eligibility oracles."""

import numpy as np
import pytest

from sdalab import data, feedback, nn
from sdalab.errors import ConfigError, ShortageError


def fixture_train(seed=0, per_class=40):
    spec = data.BlobsSpec(samples_per_class=per_class)
    _, target = data.make_blobs_pair(spec, seed=seed)
    return target


def train_source_model(train, seed=0, epochs=60):
    rng = np.random.default_rng(seed)
    model = nn.MlpModel.init([2, 32, 32, train.num_classes], nn.SOFTMAX, rng)
    state = nn.SgdState.zeros_like(model)
    cfg = nn.SgdConfig(0.05, momentum=0.9)
    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(order), 64):
            idx = order[start : start + 64]
            trace = nn.forward(model, train.points[idx])
            _, dprobs, _ = nn.loss_ce(trace.probs, train.labels[idx])
            nn.sgd_step(model, nn.backward(model, trace, dprobs), cfg, state)
    return model


@pytest.fixture(scope="module")
def setup():
    # Shift compresses the clusters toward their shared centroid so the
    # source model has errors (and correct hits) in every target class.
    shift = data.ShiftSpec(
        translation=(0.0, 0.0),
        per_class_translation={0: (1.2, 0.66), 1: (-1.2, 0.66), 2: (0.0, -1.32)},
    )
    spec = data.BlobsSpec(samples_per_class=60, std=1.0, target_transform=shift)
    source, target = data.make_blobs_pair(spec, seed=5)
    model = train_source_model(source, seed=5, epochs=12)
    preds = nn.predict(model, target.points)
    for cls in range(3):
        members = np.flatnonzero(target.labels == cls)
        assert (preds[members] != cls).sum() >= 6, "fixture needs errors in each class"
        assert (preds[members] == cls).sum() >= 6, "fixture needs correct hits too"
    return model, target, preds


class TestPartitionInvariants:
    @pytest.mark.parametrize("policy", [feedback.RF, feedback.NBF, feedback.PBF, feedback.ENTROPY])
    def test_labeled_and_unlabeled_partition_indices(self, setup, policy):
        model, target, _ = setup
        spec = feedback.FeedbackSpec(policy=policy, per_class_count=3)
        split = feedback.simulate_feedback(target, model, spec, seed=1)
        li = [i for i, _ in split.labeled]
        assert sorted(li + split.unlabeled) == list(range(len(target)))
        assert len(set(li)) == len(li)

    def test_counts_arithmetic(self, setup):
        model, target, _ = setup
        spec = feedback.FeedbackSpec(policy=feedback.RF, per_class_count=3)
        split = feedback.simulate_feedback(target, model, spec, seed=2)
        assert len(split.labeled) == 9
        assert len(split.unlabeled) == len(target) - 9

    def test_per_class_counts_equal(self, setup):
        model, target, _ = setup
        for policy in (feedback.RF, feedback.NBF, feedback.ENTROPY):
            spec = feedback.FeedbackSpec(policy=policy, per_class_count=4)
            split = feedback.simulate_feedback(target, model, spec, seed=3)
            counts = np.bincount(split.labeled_labels(), minlength=3)
            assert counts.tolist() == [4, 4, 4]

    def test_labels_are_ground_truth(self, setup):
        model, target, _ = setup
        spec = feedback.FeedbackSpec(policy=feedback.NBF, per_class_count=3)
        split = feedback.simulate_feedback(target, model, spec, seed=4)
        for idx, y in split.labeled:
            assert target.labels[idx] == y

    def test_determinism(self, setup):
        model, target, _ = setup
        spec = feedback.FeedbackSpec(policy=feedback.NBF, per_class_count=3)
        a = feedback.simulate_feedback(target, model, spec, seed=7)
        b = feedback.simulate_feedback(target, model, spec, seed=7)
        assert a.labeled == b.labeled and a.unlabeled == b.unlabeled


class TestEligibilityOracles:
    def test_nbf_selections_are_misclassified(self, setup):
        model, target, preds = setup
        spec = feedback.FeedbackSpec(policy=feedback.NBF, per_class_count=3)
        split = feedback.simulate_feedback(target, model, spec, seed=8)
        wrong = set(np.flatnonzero(preds != target.labels).tolist())
        for idx, _ in split.labeled:
            assert idx in wrong

    def test_pbf_selections_are_correct(self, setup):
        model, target, preds = setup
        spec = feedback.FeedbackSpec(policy=feedback.PBF, per_class_count=3)
        split = feedback.simulate_feedback(target, model, spec, seed=9)
        right = set(np.flatnonzero(preds == target.labels).tolist())
        for idx, _ in split.labeled:
            assert idx in right

    def test_mixed_counts_respect_pools(self, setup):
        model, target, preds = setup
        spec = feedback.FeedbackSpec(policy=feedback.MIXED, mixed_counts=(2, 2))
        split = feedback.simulate_feedback(target, model, spec, seed=10)
        wrong = preds != target.labels
        for cls in range(3):
            cls_picks = [i for i, y in split.labeled if y == cls]
            assert len(cls_picks) == 4
            assert sum(1 for i in cls_picks if wrong[i]) == 2
            assert sum(1 for i in cls_picks if not wrong[i]) == 2

    def test_entropy_top_m_property(self, setup):
        model, target, _ = setup
        spec = feedback.FeedbackSpec(policy=feedback.ENTROPY, per_class_count=5)
        split = feedback.simulate_feedback(target, model, spec, seed=11)
        probs = nn.forward(model, target.points).probs
        ent = feedback.prediction_entropy(probs)
        chosen = set(i for i, _ in split.labeled)
        for cls in range(3):
            members = np.flatnonzero(target.labels == cls)
            sel = [i for i in members if i in chosen]
            unsel = [i for i in members if i not in chosen]
            assert min(ent[sel]) >= max(ent[unsel]) - 1e-12


class TestConfidentErrors:
    def test_matches_sort_oracle_over_random_cases(self):
        # Synthetic prediction tables: the selection must equal the top-m of a
        # brute-force sort by (confidence desc, index asc) over misclassified rows.
        rng = np.random.default_rng(0)
        for case in range(50):
            n, c = 30, 3
            points = rng.normal(size=(n, 2))
            labels = rng.integers(0, c, size=n)
            # A throwaway random model gives arbitrary confidences.
            model = nn.MlpModel.init([2, 8, c], nn.SOFTMAX, rng)
            train = data.LabeledSet(points, labels, data.TARGET)
            spec = feedback.FeedbackSpec(
                policy=feedback.NBF_CE, per_class_count=2,
                fallback_on_shortage=feedback.FALLBACK_FILL,
            )
            try:
                split = feedback.simulate_feedback(train, model, spec, seed=case)
            except ShortageError:
                continue
            probs = nn.forward(model, points).probs
            preds = nn.argmax_rows(probs)
            conf = probs[np.arange(n), preds]
            for cls in range(c):
                members = np.flatnonzero(labels == cls)
                wrong = [int(i) for i in members if preds[i] != cls]
                if len(wrong) < 2:
                    continue  # fallback filled; ordering oracle does not apply
                oracle = sorted(wrong, key=lambda i: (-conf[i], i))[:2]
                got = sorted(i for i, y in split.labeled if y == cls)
                assert got == sorted(oracle)

    def test_equal_confidence_ties_break_to_lowest_index(self):
        # Zero-weight model: every prediction is class 0 with uniform confidence,
        # so classes 1 and 2 are fully misclassified and all ties must resolve
        # to the lowest sample indices. Class 0 itself has no errors and uses
        # the fill fallback.
        model = nn.MlpModel(
            [2, 4, 3],
            [np.zeros((2, 4)), np.zeros((4, 3))],
            [np.zeros(4), np.zeros(3)],
        )
        points = np.zeros((16, 2))
        labels = np.array([0] * 4 + [1] * 6 + [2] * 6)
        train = data.LabeledSet(points, labels, data.TARGET)
        spec = feedback.FeedbackSpec(
            policy=feedback.NBF_CE, per_class_count=2,
            fallback_on_shortage=feedback.FALLBACK_FILL,
        )
        split = feedback.simulate_feedback(train, model, spec, seed=0)
        assert [i for i, y in split.labeled if y == 1] == [4, 5]
        assert [i for i, y in split.labeled if y == 2] == [10, 11]
        assert split.provenance["shortage"] == {"0": 2}


def sorted_top(pool, score, m):
    """The entropy pick as a Python sort: score descending, ties by index."""
    order = sorted(range(len(pool)), key=lambda j: (-score[j], pool[j]))
    return sorted(int(pool[j]) for j in order[:m])


class TestEntropyPick:
    SCORES = np.array([0.0, -0.0, 0.5, 0.25, 1e-300])  # ties, and both zeros

    def test_top_matches_sorted_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 25))
            pool = rng.permutation(1000)[:n]
            score = rng.choice(self.SCORES, size=n)
            m = int(rng.integers(1, n + 1))
            assert feedback._top(pool, score, m) == sorted_top(pool, score, m)

    def test_tied_entropies_match_sorted_reference(self, monkeypatch):
        rng = np.random.default_rng(1)
        n, c, m = 60, 3, 4
        labels = rng.integers(0, c, size=n)
        train = data.LabeledSet(rng.normal(size=(n, 2)), labels, data.TARGET)
        model = nn.MlpModel.init([2, 8, c], nn.SOFTMAX, rng)
        spec = feedback.FeedbackSpec(policy=feedback.ENTROPY, per_class_count=m)
        classes = [np.flatnonzero(labels == cls) for cls in range(c)]
        for case in range(20):
            ent = rng.choice(self.SCORES, size=n)
            # simulate_feedback scores the classes in order, one call each
            members = iter(classes)
            monkeypatch.setattr(feedback, "prediction_entropy", lambda probs: ent[next(members)])
            split = feedback.simulate_feedback(train, model, spec, seed=case)
            for cls, pool in enumerate(classes):
                got = [i for i, y in split.labeled if y == cls]
                assert got == sorted_top(pool, ent[pool], m)

    @pytest.mark.parametrize("policy", [feedback.RF, feedback.ENTROPY])
    def test_class_smaller_than_the_quota_is_a_shortage(self, policy):
        rng = np.random.default_rng(2)
        train = data.LabeledSet(rng.normal(size=(7, 2)), np.array([0] * 5 + [1] * 2), data.TARGET)
        model = nn.MlpModel.init([2, 8, 2], nn.SOFTMAX, rng)
        spec = feedback.FeedbackSpec(policy=policy, per_class_count=3)
        with pytest.raises(ShortageError, match="class 1: only 2 samples for 3 requested"):
            feedback.simulate_feedback(train, model, spec, seed=0)


class TestShortage:
    def test_perfect_model_nbf_error(self):
        # Train labels equal to the model's own predictions leave no errors.
        # Seed 4 makes the untrained model's predictions cover all 3 classes.
        rng = np.random.default_rng(4)
        model = nn.MlpModel.init([2, 8, 3], nn.SOFTMAX, rng)
        points = rng.normal(size=(60, 2))
        labels = nn.predict(model, points)
        assert np.bincount(labels, minlength=3).min() >= 1
        train = data.LabeledSet(points, labels, data.TARGET)
        spec = feedback.FeedbackSpec(policy=feedback.NBF, per_class_count=1)
        with pytest.raises(ShortageError, match="class"):
            feedback.simulate_feedback(train, model, spec, seed=1)

    def test_fill_from_correct_sets_flag(self):
        rng = np.random.default_rng(4)
        model = nn.MlpModel.init([2, 8, 3], nn.SOFTMAX, rng)
        points = rng.normal(size=(60, 2))
        labels = nn.predict(model, points)
        train = data.LabeledSet(points, labels, data.TARGET)
        spec = feedback.FeedbackSpec(
            policy=feedback.NBF, per_class_count=1,
            fallback_on_shortage=feedback.FALLBACK_FILL,
        )
        split = feedback.simulate_feedback(train, model, spec, seed=1)
        assert len(split.provenance["shortage"]) == 3  # every class had to fill
        assert len(split.labeled) == 3


@pytest.fixture(scope="module")
def binary_setup():
    spec = data.BinarySpec(
        blobs=data.BlobsSpec(samples_per_class=300),
        num_findings=2,
        prevalences=(0.4, 0.5),
    )
    _, target = data.make_binary_pair(spec, seed=21)
    # Hand-built model: hidden layer passes coordinates through (large bias
    # keeps ReLU active over the cloud), outputs are axis-aligned lines
    # through the target centroid. These cross the random finding
    # boundaries, guaranteeing sizable FP and FN pools for both findings.
    c = target.points.mean(axis=0)
    model = nn.MlpModel(
        [2, 2, 2],
        [np.eye(2), np.eye(2)],
        [np.full(2, 10.0), np.array([-(10.0 + c[0]), -(10.0 + c[1])])],
        head=nn.SIGMOID,
    )
    preds = nn.predict(model, target.points, thresholds=[0.5, 0.5])
    for j in range(2):
        truth = target.findings[:, j]
        assert ((preds[:, j] == 1) & (truth == 0)).sum() >= 60
        assert ((preds[:, j] == 0) & (truth == 1)).sum() >= 60
    return model, target


class TestBinaryFeedback:
    def test_counts_and_pool_membership(self, binary_setup):
        model, target = binary_setup
        thresholds = [0.5, 0.5]
        spec = feedback.FeedbackSpec(binary_mode_counts=(40, 40))
        splits = feedback.simulate_feedback_binary(target, model, spec, thresholds, seed=2)
        preds = nn.predict(model, target.points, thresholds=thresholds)
        assert len(splits) == 2
        for j, split in enumerate(splits):
            assert len(split.labeled) == 80
            truth = target.findings[:, j]
            for idx, y in split.labeled:
                assert truth[idx] == y
                assert preds[idx, j] != truth[idx]  # all feedback comes from errors

    def test_splits_hold_their_cells_only(self, binary_setup):
        # the adaptation pools every sample with no cell in any finding, so a
        # split lists no unlabelled pool of its own
        model, target = binary_setup
        spec = feedback.FeedbackSpec(binary_mode_counts=(40, 40))
        for split in feedback.simulate_feedback_binary(target, model, spec, [0.5, 0.5], seed=2):
            assert split.unlabeled == []
            indices = [i for i, _ in split.labeled]
            assert len(indices) == 80 and indices == sorted(set(indices))

    def test_fp_only_composition(self, binary_setup):
        model, target = binary_setup
        thresholds = [0.5, 0.5]
        spec = feedback.FeedbackSpec(binary_mode_counts=(20, 0))
        splits = feedback.simulate_feedback_binary(target, model, spec, thresholds, seed=3)
        preds = nn.predict(model, target.points, thresholds=thresholds)
        for j, split in enumerate(splits):
            truth = target.findings[:, j]
            assert len(split.labeled) == 20
            for idx, y in split.labeled:
                assert preds[idx, j] == 1 and truth[idx] == 0

    def test_confusion_matrix_oracle(self, binary_setup):
        model, target = binary_setup
        thresholds = [0.5, 0.5]
        spec = feedback.FeedbackSpec(binary_mode_counts=(10, 15))
        splits = feedback.simulate_feedback_binary(target, model, spec, thresholds, seed=4)
        probs = nn.forward(model, target.points).probs
        for j, split in enumerate(splits):
            truth = target.findings[:, j]
            fp_oracle = {
                i for i in range(len(target))
                if probs[i, j] >= thresholds[j] and truth[i] == 0
            }
            fn_oracle = {
                i for i in range(len(target))
                if probs[i, j] < thresholds[j] and truth[i] == 1
            }
            fp_sel = [i for i, y in split.labeled if y == 0]
            fn_sel = [i for i, y in split.labeled if y == 1]
            assert len(fp_sel) == 10 and set(fp_sel) <= fp_oracle
            assert len(fn_sel) == 15 and set(fn_sel) <= fn_oracle

    def test_missing_counts_rejected(self, binary_setup):
        model, target = binary_setup
        with pytest.raises(ConfigError):
            feedback.simulate_feedback_binary(
                target, model, feedback.FeedbackSpec(), [0.5, 0.5], seed=0
            )


class TestSerialization:
    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            feedback.TargetSplit(labeled=[(0, 1)], unlabeled=[0, 1])
