"""Hard overlap metrics, ROC construction, bootstrap, and CSV helpers."""

import numpy as np
import pytest

from dicelab.errors import (
    DegenerateLabelsError,
    InvalidConfigError,
    RangeViolationError,
    ShapeMismatchError,
)
from dicelab.metrics import (
    binarize,
    bootstrap_compare,
    hard_dsc,
    read_csv,
    roc_auc,
    volume_difference,
    write_csv,
)


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
        with pytest.raises(ShapeMismatchError):
            hard_dsc(1, 1)

    def test_stack_scores_each_map_of_the_last_axis(self):
        gt = np.array([[[1, 1, 0, 0], [0, 0, 0, 0]], [[1, 0, 1, 0], [1, 1, 1, 1]]])
        pred = np.array([[[1, 0, 1, 0], [0, 0, 0, 0]], [[0, 1, 0, 1], [1, 1, 1, 1]]])
        dsc = hard_dsc(gt, pred)
        assert dsc.shape == (2, 2)
        assert dsc.tolist() == [[0.5, 1.0], [0.0, 1.0]]
        assert type(hard_dsc(gt[0, 0], pred[0, 0])) is float

    # [nan, 1] gave nan, 0.5 counted as half a voxel, and a string map raised a bare ValueError
    @pytest.mark.parametrize("bad", [[np.nan, 1], [np.inf, 1], [0.5, 1], [2, 1], [-1, 1],
                                     ["1", "1"], ["a", "b"]])
    @pytest.mark.parametrize("side", [0, 1])
    def test_maps_must_be_zero_or_one(self, bad, side):
        pair = [bad, [1, 1]]
        with pytest.raises(RangeViolationError, match="map"):
            hard_dsc(*(pair if side == 0 else pair[::-1]))


    # each raised a bare NumPy ValueError ("inhomogeneous shape")
    @pytest.mark.parametrize("score", [hard_dsc, volume_difference])
    def test_ragged_maps_are_a_shape_mismatch(self, score):
        with pytest.raises(ShapeMismatchError, match="ragged"):
            score([[1, 0], [1]], [[1, 0], [1, 1]])
        with pytest.raises(ShapeMismatchError, match="ragged"):
            score([[1, 0], [1, 1]], [[1, 0], [1]])


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

    def test_stack_counts_each_map_of_the_last_axis(self):
        gt = np.array([[1, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
        pred = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 0]])
        assert volume_difference(gt, pred).tolist() == [-2.0, 2.0, 0.0]
        assert type(volume_difference(gt[0], pred[0])) is float

    # [inf] gave -inf
    @pytest.mark.parametrize("bad", [[np.inf], [np.nan], [0.5], [3], ["x"]])
    @pytest.mark.parametrize("side", [0, 1])
    def test_maps_must_be_zero_or_one(self, bad, side):
        pair = [bad, [1]]
        with pytest.raises(RangeViolationError, match="map"):
            volume_difference(*(pair if side == 0 else pair[::-1]))


class TestBinarize:
    def test_sigmoid_threshold_includes_half(self):
        pred = np.asarray([0.5, 0.4999, 0.51, 0.2], dtype=np.float64).reshape((1, 1, 4))
        assert binarize(pred).reshape(-1).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_softmax_argmax_one_hot(self):
        # class rows: [0.2, 0.7], [0.3, 0.2], [0.5, 0.1]
        pred = np.asarray([0.2, 0.7, 0.3, 0.2, 0.5, 0.1], dtype=np.float64).reshape((1, 3, 2))
        hard = binarize(pred)
        assert hard[0, :, 0].tolist() == [0.0, 0.0, 1.0]
        assert hard[0, :, 1].tolist() == [1.0, 0.0, 0.0]

    def test_softmax_tie_goes_to_lowest_index(self):
        pred = np.asarray([0.5, 0.5], dtype=np.float64).reshape((1, 2, 1))
        assert binarize(pred)[0, :, 0].tolist() == [1.0, 0.0]

    # a 1-D array raised a bare IndexError
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 1, 2, 2), (2, 0, 3)])
    def test_predictions_must_be_batch_class_pixel(self, shape):
        with pytest.raises(ShapeMismatchError):
            binarize(np.zeros(shape))

    # a NaN prediction became class 0, and a sigmoid's NaN background
    @pytest.mark.parametrize("classes", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.1])
    def test_predictions_must_be_in_unit_interval(self, classes, bad):
        pred = np.full((1, classes, 2), 0.5)
        pred[0, -1, 1] = bad
        with pytest.raises(RangeViolationError, match=r"\[0, 1\]"):
            binarize(pred)

    def test_string_predictions_rejected(self):
        with pytest.raises(RangeViolationError):
            binarize(np.full((1, 1, 2), "0.5"))

    def test_ragged_predictions_are_a_shape_mismatch(self):
        # a bare NumPy ValueError ("inhomogeneous shape")
        with pytest.raises(ShapeMismatchError, match="ragged"):
            binarize([[[0.1], [0.2, 0.3]]])


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
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)

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
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()
        assert len(curve.fpr) == len(curve.tpr) == len(curve.thresholds) == 6

    def test_arrays_are_read_only(self):
        curve = roc_auc([0.2, 0.8, 0.2], [0, 1, 1])
        for values in (curve.fpr, curve.tpr, curve.thresholds):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5

    # [-0.0, 0.0, 1] gave the threshold -0.0 and [0.0, -0.0, 1] gave 0.0
    def test_zero_threshold_is_positive_zero(self):
        for scores in ([-0.0, 0.0, 1], [0.0, -0.0, 1], [-0.0, -0.0, 1]):
            zero = roc_auc(scores, [0, 1, 1]).thresholds[-1]
            assert zero == 0.0 and not np.signbit(zero)

    @pytest.mark.parametrize("seed", range(10))
    def test_permuted_pairs_give_an_identical_curve(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], 12)
        labels = np.r_[1, 0, rng.integers(0, 2, 10)]
        order = rng.permutation(12)
        a, b = roc_auc(scores, labels), roc_auc(scores[order], labels[order])
        for field in ("fpr", "tpr", "thresholds"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.auc == b.auc

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

    # [0, 1, 2] gave AUC 1.0 with the 2 dropped; "1" and NaN were dropped the same way
    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1], [0, 1, 0.5], [0, 1, np.nan],
                                        ["0", "1", "1"]])
    def test_labels_must_be_zero_or_one(self, labels):
        with pytest.raises(RangeViolationError, match="label"):
            roc_auc([0.1, 0.2, 0.3], labels)

    # a NaN score gave AUC 0.0 and a NaN threshold
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scores_must_be_finite(self, bad):
        with pytest.raises(RangeViolationError, match="finite"):
            roc_auc([0.1, bad, 0.3], [0, 1, 1])

    # each raised a bare NumPy ValueError: "inhomogeneous shape" or "could not convert"
    @pytest.mark.parametrize("scores, labels, error", [
        ([[0.1], [0.2, 0.3]], [0, 1], ShapeMismatchError),
        ([0.1, 0.2], [[0], [1, 1]], ShapeMismatchError),
        (["a", "b"], [0, 1], RangeViolationError),
        (["0.1", "0.2"], [0, 1], RangeViolationError)])
    def test_ragged_or_string_input_is_typed(self, scores, labels, error):
        with pytest.raises(error):
            roc_auc(scores, labels)

    # 2-D lists raised a bare TypeError
    @pytest.mark.parametrize("scores, labels", [([[0.1, 0.2], [0.3, 0.4]], [[0, 1], [1, 0]]),
                                                (0.5, 1), ([[0.1, 0.2]], [0, 1])])
    def test_input_must_be_one_dimensional(self, scores, labels):
        with pytest.raises(ShapeMismatchError):
            roc_auc(scores, labels)


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

    # seed=-1 raised a bare ValueError from NumPy, n_resamples=2.5 a TypeError
    @pytest.mark.parametrize("kwargs", [{"n_resamples": 0}, {"n_resamples": 2.5},
                                        {"n_resamples": True}, {"seed": -1}, {"seed": 1.5},
                                        {"seed": "3"}])
    def test_resamples_and_seed_checked(self, kwargs):
        with pytest.raises(InvalidConfigError):
            bootstrap_compare([1.0, 2.0], [2.0, 4.0], **kwargs)

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            bootstrap_compare([1.0, 2.0], [1.0])
        with pytest.raises(ShapeMismatchError):
            bootstrap_compare([1.0], [2.0])

    # [nan, 1] against [0, .5] gave p = 1.0, and an inf gave 0.0
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_values_must_be_finite(self, bad, side):
        pair = [[bad, 1.0], [0.0, 0.5]]
        with pytest.raises(RangeViolationError, match="finite"):
            bootstrap_compare(*(pair if side == 0 else pair[::-1]), n_resamples=10)


class TestCsv:
    def test_cells_round_trip_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], [[0.1, 1 / 3, 7, "tag"],
                                               [1e-300, -0.0, 2.5e17, 7.0]])
        rows = read_csv(path)[1]
        assert rows[0][0] == "0.1"
        assert float(rows[0][1]) == 1 / 3
        assert rows[0][2:] == ["7", "tag"]
        assert rows[1] == ["1e-300", "-0.0", "2.5e+17", "7.0"]

    def test_numpy_floats_render_as_plain_floats(self, tmp_path):
        # under NumPy 2, repr(np.float64(0.5)) is "np.float64(0.5)"
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[np.float64(0.5), np.float64(1 / 3), np.float64(0.25)]])
        cells = read_csv(path)[1][0]
        assert cells[0] == "0.5"
        assert float(cells[1]) == 1 / 3
        assert cells[2] == "0.25"

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "value"], [["a", 0.25], ["b", 2]])
        header, rows = read_csv(path)
        assert header == ["name", "value"]
        assert rows == [["a", "0.25"], ["b", "2"]]
