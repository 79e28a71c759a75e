"""Tests for synthetic dataset generation, shift, split, and CSV round trips."""

import math

import numpy as np
import pytest

from sdalab import data
from sdalab.errors import ConfigError

from dataset_csv import read_dataset_csv


class TestBlobs:
    def test_vanishing_noise_pins_points_to_centers(self):
        spec = data.BlobsSpec(std=1e-9, samples_per_class=20)
        source, _ = data.make_blobs_pair(spec, seed=0)
        for cls, center in enumerate(spec.class_centers):
            pts = source.points[source.labels == cls]
            assert np.max(np.linalg.norm(pts - np.asarray(center), axis=1)) < 1e-6

    def test_per_class_counts_exact(self):
        spec = data.BlobsSpec(samples_per_class=37)
        source, target = data.make_blobs_pair(spec, seed=3)
        for ds in (source, target):
            counts = np.bincount(ds.labels, minlength=3)
            assert counts.tolist() == [37, 37, 37]

    def test_identity_shift_matches_source_distribution(self):
        # Average class means over seeds; the averaged estimator is far inside
        # the 3*std/sqrt(n) band, so this cannot flake.
        spec = data.BlobsSpec(
            samples_per_class=200, target_transform=data.ShiftSpec()
        )
        diffs = []
        for seed in range(10):
            source, target = data.make_blobs_pair(spec, seed=seed)
            per_class = []
            for cls in range(3):
                sm = source.points[source.labels == cls].mean(axis=0)
                tm = target.points[target.labels == cls].mean(axis=0)
                per_class.append(tm - sm)
            diffs.append(per_class)
        mean_diff = np.abs(np.mean(diffs, axis=0))
        assert np.max(mean_diff) < 3.0 * spec.std / math.sqrt(spec.samples_per_class)

    def test_inverse_transform_recovers_class_means(self):
        spec = data.BlobsSpec(samples_per_class=400)
        shift = spec.target_transform
        rot = np.array(
            [
                [math.cos(-shift.rotation), -math.sin(-shift.rotation)],
                [math.sin(-shift.rotation), math.cos(-shift.rotation)],
            ]
        )
        errs = []
        for seed in range(10):
            source, target = data.make_blobs_pair(spec, seed=seed)
            c0 = target.points.mean(axis=0) - np.asarray(shift.translation)
            undone = (target.points - np.asarray(shift.translation) - c0) @ rot.T + c0
            per_class = []
            for cls in range(3):
                sm = source.points[source.labels == cls].mean(axis=0)
                um = undone[target.labels == cls].mean(axis=0)
                per_class.append(um - sm)
            errs.append(per_class)
        assert np.max(np.abs(np.mean(errs, axis=0))) < 3.0 * spec.std / math.sqrt(400)

    def test_degenerate_specs_rejected(self):
        with pytest.raises(ConfigError):
            data.BlobsSpec(num_classes=0, class_centers=())
        with pytest.raises(ConfigError):
            data.BlobsSpec(samples_per_class=0)
        with pytest.raises(ConfigError):
            data.BlobsSpec(std=0.0)
        with pytest.raises(ConfigError):
            data.ShiftSpec(rotation=4.0)


class TestMoons:
    def test_vanishing_noise_lies_on_unit_half_circle(self):
        spec = data.MoonsSpec(samples_per_class=50, noise_std=1e-9)
        source, _ = data.make_moons_pair(spec, seed=1)
        upper = source.points[source.labels == 0]
        assert np.max(np.abs(np.linalg.norm(upper, axis=1) - 1.0)) < 1e-6
        assert np.min(upper[:, 1]) > -1e-6

    def test_half_turn_swaps_the_two_moons(self):
        # The noiseless two-moon skeleton is symmetric under a half turn about
        # its centroid, which swaps the classes.
        spec = data.MoonsSpec(
            samples_per_class=40,
            noise_std=1e-9,
            target_transform=data.ShiftSpec(translation=(0.0, 0.0), rotation=math.pi),
        )
        source, target = data.make_moons_pair(spec, seed=2)
        rotated_upper = target.points[target.labels == 0]
        lower_skeleton = source.points[source.labels == 1]
        for p in rotated_upper:
            assert np.min(np.linalg.norm(lower_skeleton - p, axis=1)) < 1e-6

    def test_counts_and_two_classes(self):
        source, target = data.make_moons_pair(data.MoonsSpec(samples_per_class=30), seed=5)
        assert np.bincount(source.labels).tolist() == [30, 30]
        assert target.num_classes == 2


class TestSplit:
    def test_eight_two_arithmetic(self):
        ds = data.LabeledSet(
            np.zeros((20, 2)), np.repeat([0, 1], 10), data.SOURCE
        )
        train, test = data.split_train_test(ds, 0.8, seed=0)
        assert np.bincount(train.labels).tolist() == [8, 8]
        assert np.bincount(test.labels).tolist() == [2, 2]

    def test_union_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(0)
        ds = data.LabeledSet(rng.normal(size=(45, 2)), rng.integers(0, 3, 45), data.TARGET)
        train, test = data.split_train_test(ds, 0.7, seed=9)
        merged = np.concatenate([train.points, test.points])
        assert len(merged) == 45
        key = lambda arr: sorted(map(tuple, arr))
        assert key(merged) == key(ds.points)

    def test_same_seed_identical_split(self):
        rng = np.random.default_rng(1)
        ds = data.LabeledSet(rng.normal(size=(40, 2)), rng.integers(0, 2, 40), data.SOURCE)
        a_train, a_test = data.split_train_test(ds, 0.8, seed=4)
        b_train, b_test = data.split_train_test(ds, 0.8, seed=4)
        assert a_train.points.tobytes() == b_train.points.tobytes()
        assert a_test.labels.tobytes() == b_test.labels.tobytes()

    def test_stratification_round_half_up(self):
        ds = data.LabeledSet(np.zeros((10, 2)), np.repeat([0, 1], 5), data.SOURCE)
        train, _ = data.split_train_test(ds, 0.5, seed=0)
        # 0.5 * 5 = 2.5 rounds up to 3 per class.
        assert np.bincount(train.labels).tolist() == [3, 3]

    def test_tiny_class_rejected(self):
        # a class too small for the ratio leaves one side empty: class 0's
        # two samples all round to train at 0.8, and so does class 1's one
        ds = data.LabeledSet(np.zeros((3, 2)), np.array([0, 0, 1]), data.SOURCE)
        with pytest.raises(ConfigError, match="class 0"):
            data.split_train_test(ds, 0.8, seed=0)
        ds = data.LabeledSet(np.zeros((6, 2)), np.array([0, 0, 0, 0, 0, 1]), data.SOURCE)
        with pytest.raises(ConfigError, match="class 1"):
            data.split_train_test(ds, 0.8, seed=0)

    @pytest.mark.parametrize("ratio", [0.999, 0.001])
    def test_ratio_that_empties_a_side_rejected(self, ratio):
        # 60 samples a class: round(0.999 * 60) = 60 leaves no test sample,
        # round(0.001 * 60) = 0 no train sample
        ds = data.LabeledSet(np.zeros((120, 2)), np.repeat([0, 1], 60), data.SOURCE)
        with pytest.raises(ConfigError, match="class 0: split ratio"):
            data.split_train_test(ds, ratio, seed=0)
        train, test = data.split_train_test(ds, 0.01, seed=0)
        assert np.bincount(train.labels).tolist() == [1, 1]
        assert np.bincount(test.labels).tolist() == [59, 59]

    def test_findings_travel_with_the_split(self):
        rng = np.random.default_rng(3)
        ds = data.LabeledSet(
            rng.normal(size=(30, 2)),
            rng.integers(0, 2, 30),
            data.TARGET,
            findings=rng.integers(0, 2, size=(30, 3)),
        )
        train, test = data.split_train_test(ds, 0.8, seed=1)
        assert train.findings.shape[1] == 3
        assert len(train.findings) + len(test.findings) == 30


class TestBinaryMode:
    def test_source_prevalence_tracks_spec(self):
        spec = data.BinarySpec(
            blobs=data.BlobsSpec(samples_per_class=400),
            num_findings=3,
            prevalences=(0.3, 0.5, 0.7),
        )
        source, target = data.make_binary_pair(spec, seed=7)
        prev = source.findings.mean(axis=0)
        np.testing.assert_allclose(prev, [0.3, 0.5, 0.7], atol=0.01)
        assert target.findings.shape == (1200, 3)

    def test_findings_are_deterministic_linear_functions(self):
        spec = data.BinarySpec(num_findings=2)
        source, _ = data.make_binary_pair(spec, seed=11)
        bounds = data.finding_boundaries(spec, source.points, seed=11)
        np.testing.assert_array_equal(
            data.assign_findings(source.points, bounds), source.findings
        )

    def test_bad_prevalence_rejected(self):
        with pytest.raises(ConfigError):
            data.BinarySpec(prevalences=(0.0, 0.5, 0.5, 0.5))


class TestCsv:
    def test_round_trip_multiclass(self, tmp_path):
        spec = data.BlobsSpec(samples_per_class=15)
        source, target = data.make_blobs_pair(spec, seed=13)
        s_train, s_test = data.split_train_test(source, 0.8, seed=13)
        path = tmp_path / "ds.csv"
        data.write_dataset_csv(
            path, [(s_train, "train"), (s_test, "test"), (target, "train")]
        )
        loaded = read_dataset_csv(path)
        back = loaded[(data.SOURCE, "train")]
        np.testing.assert_array_equal(back.labels, s_train.labels)
        np.testing.assert_array_equal(back.points, s_train.points)
        assert (data.TARGET, "train") in loaded

    def test_round_trip_with_findings(self, tmp_path):
        spec = data.BinarySpec(blobs=data.BlobsSpec(samples_per_class=10), num_findings=2)
        source, _ = data.make_binary_pair(spec, seed=17)
        path = tmp_path / "bin.csv"
        data.write_dataset_csv(path, [(source, "train")])
        back = read_dataset_csv(path)[(data.SOURCE, "train")]
        np.testing.assert_array_equal(back.findings, source.findings)
        np.testing.assert_array_equal(back.points, source.points)


class TestRmsRadius:
    def test_unit_square_corners(self):
        pts = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        assert data.rms_radius(pts) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 2))
        assert data.rms_radius(pts + 100.0) == pytest.approx(data.rms_radius(pts), abs=1e-9)
