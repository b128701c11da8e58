"""Hard overlap metrics, ROC construction, bootstrap, and CSV helpers."""

import numpy as np
import pytest

from dicelab.errors import DegenerateLabelsError, InvalidConfigError, ShapeMismatchError
from dicelab.metrics import (
    binarize,
    bootstrap_compare,
    format_cell,
    hard_dsc,
    read_csv,
    roc_auc,
    volume_difference,
    write_csv,
)
from dicelab.tensor import Role, make_batch
from dicelab.trainer import Head


class TestHardDsc:
    def test_half_overlap(self):
        assert hard_dsc([1, 1, 0, 0], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_perfect_and_disjoint(self):
        assert hard_dsc([1, 0, 1], [1, 0, 1]) == 1.0
        assert hard_dsc([1, 0, 0], [0, 1, 0]) == 0.0

    def test_both_empty_counts_as_perfect(self):
        assert hard_dsc([0, 0], [0, 0]) == 1.0

    def test_one_empty_is_zero(self):
        assert hard_dsc([1, 0], [0, 0]) == 0.0
        assert hard_dsc([0, 0], [1, 0]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 2, 30), rng.integers(0, 2, 30)
        assert hard_dsc(a, b) == hard_dsc(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            hard_dsc([1, 0], [1, 0, 1])


class TestVolumeDifference:
    def test_signed_voxel_count(self):
        gt = [1, 1, 1, 1, 1, 0, 0, 0]
        pred = [1, 1, 1, 0, 0, 0, 0, 0]
        assert volume_difference(gt, pred) == -2.0  # 3 predicted vs 5 true

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.integers(0, 2, 30), rng.integers(0, 2, 30)
        assert volume_difference(a, b) == -volume_difference(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            volume_difference([1], [1, 0])


class TestBinarize:
    def test_sigmoid_threshold_includes_half(self):
        pred = make_batch((1, 1, 4), [0.5, 0.4999, 0.51, 0.2], Role.PREDICTION)
        assert binarize(pred, Head.SIGMOID).reshape(-1).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_softmax_argmax_one_hot(self):
        # class rows: [0.2, 0.7], [0.3, 0.2], [0.5, 0.1]
        pred = make_batch((1, 3, 2), [0.2, 0.7, 0.3, 0.2, 0.5, 0.1], Role.PREDICTION)
        hard = binarize(pred, Head.SOFTMAX)
        assert hard[0, :, 0].tolist() == [0.0, 0.0, 1.0]
        assert hard[0, :, 1].tolist() == [1.0, 0.0, 0.0]

    def test_softmax_tie_goes_to_lowest_index(self):
        pred = make_batch((1, 2, 1), [0.5, 0.5], Role.PREDICTION)
        assert binarize(pred, Head.SOFTMAX)[0, :, 0].tolist() == [1.0, 0.0]


def pair_count_auc(scores, labels):
    """Independent AUC oracle: fraction of correctly ordered pairs, ties half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestRoc:
    def test_perfect_separation(self):
        curve = roc_auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        assert curve.auc == pytest.approx(1.0)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_chance_level_mix(self):
        # one positive above both negatives, one below: half the pairs ordered right
        assert roc_auc([0.9, 0.4, 0.8, 0.3], [1, 0, 0, 1]).auc == pytest.approx(0.5)

    def test_single_shared_score_is_chance(self):
        assert roc_auc([0.5, 0.5], [1, 0]).auc == pytest.approx(0.5)

    def test_thresholds_start_above_all_scores(self):
        curve = roc_auc([0.2, 0.8, 0.2], [0, 1, 1])
        assert curve.thresholds[0] == np.inf
        assert list(curve.thresholds[1:]) == [0.8, 0.2]

    def test_points_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.integers(0, 5, 40) / 4.0
        labels = np.r_[np.ones(20, dtype=int), np.zeros(20, dtype=int)]
        curve = roc_auc(scores, labels)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    @pytest.mark.parametrize("seed", range(25))
    def test_trapezoid_equals_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 8, 30) / 7.0  # heavy ties on purpose
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 1, 0  # both classes present
        curve = roc_auc(scores, labels)
        assert curve.auc == pytest.approx(pair_count_auc(scores, labels), abs=1e-12)

    def test_needs_both_classes(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            roc_auc([0.1, 0.2, 0.3], [1, 0])


class TestBootstrap:
    def test_identical_lists_give_one(self):
        assert bootstrap_compare([0.5] * 10, [0.5] * 10) == 1.0

    def test_constant_shift_gives_zero(self):
        a = np.linspace(0.4, 0.9, 20)
        assert bootstrap_compare(a + 0.3, a, n_resamples=500, seed=1) == 0.0

    def test_noisy_small_difference_is_inconclusive(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.7, 0.2, 12)
        b = a + rng.normal(0.0, 0.3, 12)
        p = bootstrap_compare(a, b, n_resamples=2000, seed=0)
        assert 0.05 < p <= 1.0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0, 1, 15), rng.uniform(0, 1, 15)
        p1 = bootstrap_compare(a, b, n_resamples=1000, seed=7)
        p2 = bootstrap_compare(a, b, n_resamples=1000, seed=7)
        assert p1 == p2

    def test_order_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0, 1, 15), rng.uniform(0, 1, 15)
        assert bootstrap_compare(a, b, seed=2) == bootstrap_compare(b, a, seed=2)

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            bootstrap_compare([1.0, 2.0], [1.0, 2.0], n_resamples=0)
        with pytest.raises(ShapeMismatchError):
            bootstrap_compare([1.0, 2.0], [1.0])
        with pytest.raises(ShapeMismatchError):
            bootstrap_compare([1.0], [2.0])


class TestCsv:
    def test_format_cell_round_trips_floats(self):
        assert format_cell(0.1) == "0.1"
        assert float(format_cell(1 / 3)) == 1 / 3
        assert format_cell(7) == "7"
        assert format_cell("tag") == "tag"

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "value"], [["a", 0.25], ["b", 2]])
        header, rows = read_csv(path)
        assert header == ["name", "value"]
        assert rows == [["a", "0.25"], ["b", "2"]]
