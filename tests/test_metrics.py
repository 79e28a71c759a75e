"""Tests for metrics: accuracy, rank-based AUROC, thresholds, decision grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdalab import metrics, nn, svgplot
from sdalab.errors import ConfigError, MetricError


def pairwise_auroc(scores, labels):
    """O(n^2) oracle: (wins + 0.5 * ties) / (P * N)."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_average_ranks(values):
    """The per-element loop _average_ranks replaced, kept verbatim."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def zero_model(outputs=3, head=nn.SOFTMAX):
    return nn.MlpModel(
        [2, 2, outputs],
        [np.zeros((2, 2)), np.zeros((2, outputs))],
        [np.zeros(2), np.zeros(outputs)],
        head=head,
    )


class TestTop1Accuracy:
    def test_perfect_predictor(self):
        model = zero_model()
        pts = np.random.default_rng(0).normal(size=(10, 2))
        labels = nn.predict(model, pts)
        assert metrics.top1_accuracy(model, pts, labels) == 1.0

    def test_constant_predictor_on_balanced_binary_set(self):
        model = zero_model(outputs=2)  # always predicts class 0 (tie -> lowest)
        pts = np.zeros((10, 2))
        labels = np.array([0] * 5 + [1] * 5)
        assert metrics.top1_accuracy(model, pts, labels) == 0.5

    def test_matches_counting_loop(self):
        rng = np.random.default_rng(1)
        model = nn.MlpModel.init([2, 8, 3], nn.SOFTMAX, rng)
        pts = rng.normal(size=(50, 2))
        labels = rng.integers(0, 3, 50)
        preds = nn.predict(model, pts)
        expected = sum(1 for i in range(50) if preds[i] == labels[i]) / 50
        assert metrics.top1_accuracy(model, pts, labels) == pytest.approx(expected)

    def test_empty_set_rejected(self):
        with pytest.raises(MetricError):
            metrics.top1_accuracy(zero_model(), np.zeros((0, 2)), [])

    def test_sigmoid_model_rejected(self):
        # a sigmoid head has no top-1 class: binary mode is scored by mean AUROC
        model = zero_model(outputs=2, head=nn.SIGMOID)
        with pytest.raises(ConfigError, match="sigmoid head"):
            metrics.top1_accuracy(model, np.zeros((4, 2)), [0, 1, 0, 1])


class TestAuroc:
    def test_paper_example(self):
        assert metrics.auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert metrics.auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert metrics.auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_average_ranks_match_verbatim_loop(self):
        rng = np.random.default_rng(70)
        cases = [np.zeros(0), np.array([np.nan]), np.array([0.0, -0.0, 0.0])]
        for _ in range(300):
            n = int(rng.integers(1, 60))
            values = rng.integers(0, max(1, n // 3), size=n).astype(float)  # many ties
            values[rng.random(n) < 0.1] = np.nan
            cases.append(values)
            cases.append(rng.normal(size=n))
        for values in cases:
            assert np.array_equal(
                metrics._average_ranks(values), reference_average_ranks(values)
            )

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            metrics.auroc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for case in range(200):
            n = int(rng.integers(2, 200))
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, n), 2)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert metrics.auroc(scores, labels) == pairwise_auroc(scores, labels), (
                f"case {case}"
            )

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, 40)
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        a = metrics.auroc(scores, labels)
        b = metrics.auroc(scores, 1 - labels)
        assert abs(a + b - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-5, 5, 30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        base = metrics.auroc(scores, labels)
        assert metrics.auroc(3.0 * scores + 2.0, labels) == base
        assert metrics.auroc(np.exp(scores / 5.0), labels) == base


class TestYoudenThresholds:
    def test_perfect_separation_midpoint_region(self):
        scores = np.array([0.1, 0.2, 0.7, 0.9])
        labels = np.array([0, 0, 1, 1])
        t = metrics.youden_threshold(scores, labels)
        # any threshold in (0.2, 0.7] is optimal; the lowest candidate is the
        # midpoint 0.45
        assert t == pytest.approx(0.45)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.uniform(0, 1, n), 2)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos, neg = scores[labels == 1], scores[labels == 0]
            best_t, best_j = None, -np.inf
            for t in metrics.threshold_candidates(scores):
                j = np.mean(pos >= t) - np.mean(neg >= t)
                if j > best_j + 1e-15:
                    best_t, best_j = t, j
            assert metrics.youden_threshold(scores, labels) == pytest.approx(best_t)

    @staticmethod
    def verbatim_youden(scores, labels):
        """youden_threshold as it was before it counted in sorted scores."""
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels)
        pos = labels == 1
        neg = labels == 0
        best_t, best_j = None, -np.inf
        for t in metrics.threshold_candidates(scores):
            tpr = float(np.mean(scores[pos] >= t))
            fpr = float(np.mean(scores[neg] >= t))
            j = tpr - fpr
            if j > best_j + 1e-15:
                best_t, best_j = float(t), j
        return best_t

    @staticmethod
    def youden_cases(seed):
        """(scores, labels): random scores, heavy ties, one positive, and
        sizes whose rates tie in exact arithmetic but not in floats."""
        rng = np.random.default_rng(seed)
        for case in range(300):
            n = int(rng.integers(2, 240))
            kind = case % 4
            if kind == 0:
                scores = rng.uniform(0, 1, n)
            elif kind == 1:  # heavy ties
                scores = rng.choice(rng.uniform(0, 1, int(rng.integers(1, 6))), n)
            elif kind == 2:  # scores from a grid of thirds and sevenths
                scores = rng.integers(0, 21, n) / 21.0
            else:
                scores = np.round(rng.uniform(0, 1, n), 1)
            labels = rng.integers(0, 2, n)
            if case % 5 == 0:  # a single positive
                labels[:] = 0
                labels[int(rng.integers(n))] = 1
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            yield scores, labels

    def test_matches_verbatim_loop(self):
        near_ties = 0
        for scores, labels in self.youden_cases(6):
            assert metrics.youden_threshold(scores, labels) == self.verbatim_youden(scores, labels)
            pos, neg = scores[labels == 1], scores[labels == 0]
            js = [np.mean(pos >= t) - np.mean(neg >= t)
                  for t in metrics.threshold_candidates(scores)]
            gaps = np.abs(np.subtract.outer(js, js))
            near_ties += bool(((gaps > 0) & (gaps <= 1e-15)).any())
        assert near_ties > 0  # some candidates' j differ only in the last bits

    def test_rounding_tie_keeps_the_lower_threshold(self):
        # j is 3/5 - 2/5 at t = 0.625 and 2/5 - 1/5 at t = 0.875: equal in
        # arithmetic, 4e-17 apart in floats (the later one larger); the
        # 1e-15 margin keeps the lower threshold, where argmax would not
        scores = np.array([0.25, 1.0, 0.5, 0.0, 0.75, 0.0, 0.25, 1.0, 1.0, 0.75])
        labels = np.array([0, 1, 0, 1, 1, 1, 0, 1, 0, 0])
        assert metrics.youden_threshold(scores, labels) == 0.625
        assert self.verbatim_youden(scores, labels) == 0.625

    def test_midpoints_of_adjacent_floats(self):
        # the midpoint of two adjacent floats rounds to one of them, so a
        # candidate can equal a score: it must still count as >= that score
        rng = np.random.default_rng(7)
        for _ in range(100):
            base = rng.uniform(0, 1, 6)
            scores = np.concatenate([base, np.nextafter(base, 2.0)])
            labels = rng.integers(0, 2, 12)
            labels[:2] = 0, 1
            assert np.isin(metrics.threshold_candidates(scores), scores).any()
            assert metrics.youden_threshold(scores, labels) == self.verbatim_youden(scores, labels)

    def test_nan_scores_raise(self):
        with pytest.raises(MetricError, match="NaN"):
            metrics.youden_threshold(np.array([0.1, np.nan, 0.7]), np.array([0, 1, 1]))

    def test_source_thresholds_flags_degenerate_column(self):
        rng = np.random.default_rng(5)
        model = nn.MlpModel.init([2, 6, 2], nn.SIGMOID, rng)
        pts = rng.normal(size=(20, 2))
        labels = np.stack([np.ones(20, dtype=int), rng.integers(0, 2, 20)], axis=1)
        labels[0, 1], labels[1, 1] = 0, 1
        thresholds, flags = metrics.source_thresholds(model, pts, labels)
        assert thresholds[0] == 0.5 and flags[0] is True
        assert flags[1] is False

    def test_source_thresholds_need_sigmoid(self):
        model = zero_model()
        with pytest.raises(ConfigError):
            metrics.source_thresholds(model, np.zeros((4, 2)), np.zeros((4, 3), dtype=int))


def grid_to_csv(grid, path):
    """A decision grid as CSV: a bounds comment, then one row of cells per line."""
    with open(path, "w") as fh:
        fh.write("# xmin,xmax,ymin,ymax = " + ",".join(repr(v) for v in grid.bounds) + "\n")
        for row in grid.cells:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


class TestDecisionGrid:
    def test_constant_predictor_uniform(self):
        grid = metrics.decision_grid(zero_model(), (-1, 1, -1, 1), 8)
        assert np.all(grid.cells == 0)

    def test_resolution_two_quadrant_centers(self):
        # Hand model: predict class 1 iff x1 > 0 (logit = x1 passthrough).
        model = nn.MlpModel(
            [2, 2, 2],
            [np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])],
            [np.zeros(2), np.zeros(2)],
        )
        grid = metrics.decision_grid(model, (-2, 2, -2, 2), 2)
        assert grid.cells.shape == (2, 2)
        np.testing.assert_array_equal(grid.cells, [[0, 1], [0, 1]])

    def test_cells_agree_with_pointwise_predict(self):
        rng = np.random.default_rng(6)
        model = nn.MlpModel.init([2, 8, 3], nn.SOFTMAX, rng)
        bounds = (-3, 3, -2, 4)
        res = 5
        grid = metrics.decision_grid(model, bounds, res)
        xmin, xmax, ymin, ymax = bounds
        for r in range(res):
            for c in range(res):
                x = xmin + (c + 0.5) * (xmax - xmin) / res
                y = ymin + (r + 0.5) * (ymax - ymin) / res
                assert grid.cells[r, c] == nn.predict(model, np.array([[x, y]]))[0]

    def test_sigmoid_model_rejected(self):
        # the grid holds one class per cell; sdalab plot refuses binary mode
        model = zero_model(outputs=2, head=nn.SIGMOID)
        with pytest.raises(ConfigError, match="sigmoid head"):
            metrics.decision_grid(model, (-1, 1, -1, 1), 2)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            metrics.decision_grid(zero_model(), (-1, 1, -1, 1), 1)
        with pytest.raises(ConfigError):
            metrics.decision_grid(zero_model(), (1, -1, -1, 1), 4)

    def test_csv_export(self, tmp_path):
        grid = metrics.decision_grid(zero_model(), (-1, 1, -1, 1), 3)
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4  # header comment + 3 rows
        assert lines[1] == "0,0,0"


class TestMeanStd:
    def test_documented_example(self):
        mean, std = metrics.mean_std([0.9, 0.92])
        assert mean == pytest.approx(0.91)
        assert std == pytest.approx(0.0141, abs=5e-5)

    def test_single_value_zero_std(self):
        assert metrics.mean_std([0.7]) == (0.7, 0.0)

    def test_matches_numpy_ddof1(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0, 1, 9)
        mean, std = metrics.mean_std(vals)
        assert mean == pytest.approx(np.mean(vals))
        assert std == pytest.approx(np.std(vals, ddof=1))


class TestSvg:
    def test_standalone_document(self, tmp_path):
        grid = metrics.decision_grid(zero_model(), (-1, 1, -1, 1), 4)
        rng = np.random.default_rng(8)
        doc = svgplot.render_panel(
            grid,
            scatter_points=rng.normal(size=(10, 2)) * 0.5,
            scatter_labels=rng.integers(0, 3, 10),
            highlight_points=np.array([[0.0, 0.0]]),
            highlight_labels=[1],
            title="panel",
        )
        assert doc.startswith("<svg ")
        assert doc.endswith("</svg>")
        assert 'viewBox="0 0 800 800"' in doc
        assert doc.count("<rect") == 1 + 16  # backdrop + 4x4 cells
        assert doc.count("<circle") == 11
        assert "http" not in doc.replace("http://www.w3.org/2000/svg", "")
        path = tmp_path / "p.svg"
        svgplot.write_panel(path, grid, title="x")
        assert path.read_text().startswith("<svg ")
