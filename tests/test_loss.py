"""Dice loss forward/backward, variants, and the merge machinery."""

import numpy as np
import pytest

from dicelab.errors import (
    InvalidConfigError,
    RangeViolationError,
    ShapeMismatchError,
    ZeroDenominatorError,
)
from dicelab.loss import (
    DiceLossConfig,
    Variant,
    dice_value_and_grad,
    dice_values,
    marginal_merge,
)
from dicelab.tensor import ReductionScheme, Role, make_batch
from partition_oracle import reference_loss

ALL = (ReductionScheme.IMAGE_WISE, ReductionScheme.CLASS_WISE,
       ReductionScheme.BATCH_WISE, ReductionScheme.ALL_WISE)


def random_pair(shape, seed):
    rng = np.random.default_rng(seed)
    gt = make_batch(shape, rng.integers(0, 2, shape).astype(float), Role.GROUND_TRUTH)
    pred = make_batch(shape, rng.uniform(0.01, 0.99, shape), Role.PREDICTION)
    return gt, pred


class TestForward:
    def test_half_overlap_single_pixel_pair(self):
        shape = (1, 1, 2)
        gt = make_batch(shape, [1, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5, 0.5], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0)
        out = dice_value_and_grad(gt, pred, cfg)[0]
        assert out.value == pytest.approx(0.5, abs=1e-15)
        assert out.effective_subset_count == 1
        assert out.kept.shape == out.score.shape == (1, 1, 1)
        assert out.kept.all()
        assert out.score.item() == pytest.approx(0.5)

    def test_empty_gt_with_smoothing(self):
        # all-background target, uniform half predictions, epsilon 2:
        # score = (0 + 2) / (0 + 2 + 2) = 0.5
        shape = (1, 1, 4)
        gt = make_batch(shape, [0, 0, 0, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5] * 4, Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=2.0)
        assert dice_value_and_grad(gt, pred, cfg)[0].value == pytest.approx(0.5, abs=1e-15)

    def test_perfect_prediction_is_zero_loss(self):
        shape = (2, 1, 3)
        gt = make_batch(shape, [1, 0, 1, 0, 1, 0], Role.GROUND_TRUTH)
        cfg = DiceLossConfig(scheme=ReductionScheme.ALL_WISE, epsilon=0.0)
        assert dice_value_and_grad(gt, gt, cfg)[0].value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_path(self, scheme, seed):
        gt, pred = random_pair((2, 3, 5), seed)
        cfg = DiceLossConfig(scheme=scheme, epsilon=0.5)
        assert dice_value_and_grad(gt, pred, cfg)[0].value == pytest.approx(
            reference_loss(gt, pred, cfg), abs=1e-12)

    def test_schemes_differ_on_asymmetric_batch(self):
        gt, pred = random_pair((3, 2, 6), seed=5)
        values = {s: dice_value_and_grad(gt, pred, DiceLossConfig(scheme=s, epsilon=1.0))[0].value
                  for s in ALL}
        assert len({round(v, 12) for v in values.values()}) == 4

    def test_per_class_epsilon(self):
        shape = (1, 2, 2)
        gt = make_batch(shape, [1, 0, 0, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5, 0.5, 0.25, 0.25], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=[0.0, 2.0])
        # class 0: (2*0.5 + 0)/(1 + 1 + 0) = 0.5; class 1: (0 + 2)/(0 + 0.5 + 2) = 0.8
        assert dice_value_and_grad(gt, pred, cfg)[0].value == pytest.approx(1.0 - (0.5 + 0.8) / 2)

    def test_shape_mismatch(self):
        gt = make_batch((1, 1, 2), [1, 0], Role.GROUND_TRUTH)
        pred = make_batch((1, 1, 3), [0.5, 0.5, 0.5], Role.PREDICTION)
        with pytest.raises(ShapeMismatchError):
            dice_value_and_grad(gt, pred, DiceLossConfig(scheme=ReductionScheme.ALL_WISE))[0]

    def test_stacked_predictions_rejected(self):
        # a stack of predictions is for dice_values only
        cfg = DiceLossConfig(scheme=ReductionScheme.ALL_WISE)
        with pytest.raises(ShapeMismatchError):
            dice_value_and_grad(np.zeros((1, 1, 2)), np.full((3, 1, 1, 2), 0.5), cfg)


class TestConfigValidation:
    def test_negative_epsilon(self):
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=-1.0)

    def test_negative_per_class_entry(self):
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=[1.0, -1.0])

    @pytest.mark.parametrize("scheme", [ReductionScheme.CLASS_WISE, ReductionScheme.ALL_WISE])
    def test_vector_epsilon_needs_class_pure_scheme(self, scheme):
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(scheme=scheme, epsilon=[1.0, 2.0])

    def test_vector_epsilon_wrong_length(self):
        gt, pred = random_pair((1, 3, 4), seed=0)
        # a length-1 vector would broadcast over C=3 if the length went unchecked
        for eps in ([1.0, 2.0], [1.0]):
            cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=eps)
            with pytest.raises(ShapeMismatchError):
                dice_value_and_grad(gt, pred, cfg)[0]

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, [1.0, np.nan], [np.inf, 1.0]])
    def test_non_finite_epsilon(self, eps):
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=eps)

    def test_marginal_needs_background_class(self):
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, variant=Variant.MARGINAL)

    def test_background_class_rejected_outside_marginal(self):
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, background_class=0)

    @pytest.mark.parametrize("entry", [dice_value_and_grad, dice_values])
    @pytest.mark.parametrize("values", [[-1.0, 0.5], [0.0, 2.0], [np.nan, 1.0]])
    def test_ground_truth_must_be_0_or_1(self, entry, values):
        # [-1, 0.5] against 0.5 scored a loss of 2.0 without an error
        gt = np.array([[values]])
        with pytest.raises(RangeViolationError, match="exactly 0 or 1"):
            entry(gt, np.full((1, 1, 2), 0.5), DiceLossConfig(ReductionScheme.IMAGE_WISE))

    def test_marginal_needs_mask_at_call_time(self):
        gt, pred = random_pair((1, 2, 4), seed=0)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE,
                             variant=Variant.MARGINAL, background_class=0)
        with pytest.raises(InvalidConfigError):
            dice_value_and_grad(gt, pred, cfg)[0]


class TestBackward:
    def test_half_overlap_gradient(self):
        shape = (1, 1, 2)
        gt = make_batch(shape, [1, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5, 0.5], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0)
        grad = dice_value_and_grad(gt, pred, cfg)[1].reshape(-1)
        # S = 2, N = 1: y=1 slot -(2/2 - 1/4) = -0.75, y=0 slot 1/4 = 0.25
        assert grad == pytest.approx([-0.75, 0.25], abs=1e-15)

    def test_empty_gt_gradient_uniform(self):
        shape = (1, 1, 4)
        gt = make_batch(shape, [0] * 4, Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5] * 4, Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=2.0)
        grad = dice_value_and_grad(gt, pred, cfg)[1].reshape(-1)
        # S = 4, N = 2: every slot N/S^2 = 0.125
        assert grad == pytest.approx([0.125] * 4, abs=1e-15)

    def test_gradient_output_is_frozen(self):
        gt, pred = random_pair((1, 2, 3), seed=1)
        grad = dice_value_and_grad(gt, pred, DiceLossConfig(scheme=ReductionScheme.ALL_WISE))[1]
        with pytest.raises(ValueError):
            grad[0, 0, 0] = 0.0


class TestLeafVariant:
    def test_empty_subsets_dropped_from_mean_and_gradient(self):
        shape = (1, 2, 2)
        gt = make_batch(shape, [1, 0, 0, 0], Role.GROUND_TRUTH)  # class 1 empty
        pred = make_batch(shape, [0.5, 0.5, 0.3, 0.7], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0,
                             variant=Variant.LEAF)
        out, grad = dice_value_and_grad(gt, pred, cfg)
        assert out.effective_subset_count == 1
        assert np.flatnonzero(out.kept).tolist() == [0]
        assert out.score[0, 1, 0] == 0.0
        assert out.value == pytest.approx(0.5)
        assert np.all(grad[0, 1, :] == 0.0)
        assert np.any(grad[0, 0, :] != 0.0)

    def test_all_subsets_empty_gives_zero_loss_and_gradient(self):
        shape = (2, 1, 3)
        gt = make_batch(shape, [0] * 6, Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.4] * 6, Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.LEAF)
        out, grad = dice_value_and_grad(gt, pred, cfg)
        assert out.value == 0.0
        assert out.effective_subset_count == 0
        assert not out.kept.any()
        assert np.all(grad == 0.0)

    def test_leaf_filter_keeps_order(self):
        shape = (1, 3, 2)
        gt = make_batch(shape, [0, 0, 1, 0, 0, 1], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5] * 6, Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, variant=Variant.LEAF)
        assert np.flatnonzero(dice_value_and_grad(gt, pred, cfg)[0].kept).tolist() == [1, 2]

    def test_leaf_equals_standard_when_nothing_is_empty(self):
        gt, pred = random_pair((2, 2, 6), seed=7)
        if np.any(gt.sum(axis=2) == 0):  # reroll would be needed; seed 7 has none
            pytest.skip("seed produced an empty map")
        std = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.5)
        leaf = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.5,
                              variant=Variant.LEAF)
        out_leaf, g_leaf = dice_value_and_grad(gt, pred, leaf)
        out_std, g_std = dice_value_and_grad(gt, pred, std)
        assert out_leaf.value == out_std.value
        assert np.array_equal(g_leaf, g_std)


def softmax_like_pred(shape, seed):
    """Random prediction whose class columns sum to one per pixel."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, shape)
    raw /= raw.sum(axis=1, keepdims=True)
    return make_batch(shape, raw.reshape(-1), Role.PREDICTION)


class TestMarginalMerge:
    def make_case(self):
        shape = (1, 3, 2)
        gt = make_batch(shape, [1, 0, 0, 0, 0, 1], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.2, 0.1, 0.5, 0.6, 0.3, 0.3], Role.PREDICTION)
        mask = np.array([[True, False, True]])
        return shape, gt, pred, mask

    def test_spill_goes_to_background(self):
        shape, gt, pred, mask = self.make_case()
        merged, routing = marginal_merge(gt, pred, mask, background_class=0)
        assert merged[0, 1].tolist() == [0.0, 0.0]
        assert merged[0, 0] == pytest.approx([0.7, 0.7])  # 0.2+0.5, 0.1+0.6
        assert merged[0, 2] == pytest.approx([0.3, 0.3])
        assert routing.tolist() == [[0, 0, 2]]

    def test_unavailable_gt_must_be_empty(self):
        shape = (1, 2, 2)
        gt = make_batch(shape, [0, 1, 1, 0], Role.GROUND_TRUTH)
        pred = softmax_like_pred(shape, seed=0)
        mask = np.array([[True, False]])
        with pytest.raises(RangeViolationError):
            marginal_merge(gt, pred, mask, background_class=0)

    def test_columns_must_sum_to_one(self):
        shape, gt, _, mask = self.make_case()
        bad = make_batch(shape, [0.2, 0.1, 0.5, 0.6, 0.2, 0.2], Role.PREDICTION)
        with pytest.raises(RangeViolationError):
            marginal_merge(gt, bad, mask, background_class=0)

    def test_tiny_column_sum_error_tolerated(self):
        shape, gt, pred, mask = self.make_case()
        nudged = pred.copy()
        nudged[0, 0, 0] += 5e-7
        ok = make_batch(shape, nudged.reshape(-1), Role.PREDICTION)
        marginal_merge(gt, ok, mask, background_class=0)

    def test_background_must_stay_available(self):
        shape, gt, pred, _ = self.make_case()
        mask = np.array([[False, True, True]])
        with pytest.raises(InvalidConfigError):
            marginal_merge(gt, pred, mask, background_class=0)

    def test_single_class_rejected(self):
        shape = (1, 1, 2)
        gt = make_batch(shape, [1, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [1.0, 0.0], Role.PREDICTION)
        with pytest.raises(InvalidConfigError):
            marginal_merge(gt, pred, np.array([[True]]), background_class=0)

    def test_mask_shape_checked(self):
        shape, gt, pred, _ = self.make_case()
        with pytest.raises(ShapeMismatchError):
            marginal_merge(gt, pred, np.ones((2, 3), dtype=bool), background_class=0)

    @pytest.mark.parametrize("mask", [np.ones((1, 3), dtype=int), np.ones(3, dtype=bool),
                                      np.ones((1, 3, 1), dtype=bool), [[True, True, True]]])
    def test_mask_must_be_a_b_by_c_bool_array(self, mask):
        shape, gt, pred, _ = self.make_case()
        with pytest.raises(ShapeMismatchError):
            marginal_merge(gt, pred, mask, background_class=0)

    def test_prediction_shape_checked(self):
        shape, gt, pred, mask = self.make_case()
        with pytest.raises(ShapeMismatchError):
            marginal_merge(gt, pred[..., :1], mask, background_class=0)


class TestMarginalVariant:
    def build(self, avail, seed=11):
        """B=2, C=3 softmax-style instance with a chosen availability pattern."""
        shape = (2, 3, 4)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, (2, 4))
        gt_arr = np.zeros(shape)
        for b in range(2):
            for i in range(4):
                gt_arr[b, labels[b, i], i] = 1.0
        gt_arr[~np.asarray(avail)] = 0.0  # unavailable classes must be empty
        gt = make_batch(shape, gt_arr.reshape(-1), Role.GROUND_TRUTH)
        pred = softmax_like_pred(shape, seed + 1)
        return shape, gt, pred, np.asarray(avail)

    def physical_counterpart(self, gt, pred, avail_row):
        """Collapse the unavailable class into background by hand for one element."""
        keep = [c for c in range(3) if avail_row[c]]
        drop = [c for c in range(3) if not avail_row[c]]
        gt2 = gt[keep]
        pred2 = pred[keep].copy()
        pred2[0] += pred[drop].sum(axis=0)
        return gt2, pred2

    def test_forward_equals_physical_removal(self):
        avail = [[True, True, False], [True, True, True]]
        shape, gt, pred, mask = self.build(avail)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL, background_class=0)
        out = dice_value_and_grad(gt, pred, cfg, mask)[0]
        # element 0 loses one subset, element 1 keeps all three
        assert out.effective_subset_count == 5
        scores = []
        for b in range(2):
            gt2, pred2 = self.physical_counterpart(gt[b], pred[b], avail[b])
            for c in range(gt2.shape[0]):
                num = 2.0 * float((gt2[c] * pred2[c]).sum()) + 1e-7
                den = float(gt2[c].sum() + pred2[c].sum()) + 1e-7
                scores.append(num / den)
        assert out.value == pytest.approx(1.0 - np.mean(scores), abs=1e-12)

    @pytest.mark.parametrize("scheme,expected", [
        (ReductionScheme.IMAGE_WISE, [True, True, False, True, True, False]),
        (ReductionScheme.CLASS_WISE, [True, True]),
        (ReductionScheme.BATCH_WISE, [True, True, False]),
        (ReductionScheme.ALL_WISE, [True]),
    ])
    def test_kept_subsets_per_scheme(self, scheme, expected):
        # class 2 is merged away in both elements: only subsets made of it alone drop
        avail = [[True, True, False], [True, True, False]]
        shape, gt, pred, mask = self.build(avail, seed=41)
        cfg = DiceLossConfig(scheme=scheme, epsilon=1e-7,
                             variant=Variant.MARGINAL, background_class=0)
        out, grad = dice_value_and_grad(gt, pred, cfg, mask)
        assert out.kept.reshape(-1).tolist() == expected
        assert out.effective_subset_count == sum(expected)
        assert np.array_equal(grad[:, 2], grad[:, 0])

    def test_gradient_routes_background_to_merged_column(self):
        avail = [[True, False, True], [True, True, True]]
        shape, gt, pred, mask = self.build(avail, seed=21)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL, background_class=0)
        grad = dice_value_and_grad(gt, pred, cfg, mask)[1]
        assert np.array_equal(grad[0, 1], grad[0, 0])
        assert not np.array_equal(grad[1, 1], grad[1, 0])

    def test_nothing_unavailable_matches_standard(self):
        avail = [[True, True, True], [True, True, True]]
        shape, gt, pred, mask = self.build(avail, seed=31)
        std = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.5)
        marg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.5,
                              variant=Variant.MARGINAL, background_class=0)
        out_marg, g_marg = dice_value_and_grad(gt, pred, marg, mask)
        out_std, g_std = dice_value_and_grad(gt, pred, std)
        assert out_marg.value == pytest.approx(out_std.value, abs=1e-15)
        assert g_marg == pytest.approx(g_std, abs=1e-15)


class TestDiceValues:
    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.LEAF])
    def test_each_stacked_value_equals_one_forward_bitwise(self, scheme, variant):
        shape = (3, 2, 6)
        gt, _ = random_pair(shape, seed=5)
        rng = np.random.default_rng(6)
        stack = rng.uniform(0.0, 1.0, (2, 4) + shape)
        cfg = DiceLossConfig(scheme=scheme, epsilon=0.5, variant=variant)
        values = dice_values(gt, stack, cfg)
        assert values.shape == (2, 4)
        for j, k in np.ndindex(2, 4):
            single = make_batch(shape, stack[j, k].reshape(-1), Role.PREDICTION)
            assert values[j, k] == dice_value_and_grad(gt, single, cfg)[0].value

    def test_marginal_stack_merges_each_prediction(self):
        shape = (1, 3, 2)
        gt = make_batch(shape, [1, 0, 0, 0, 0, 1], Role.GROUND_TRUTH)
        mask = np.array([[True, False, True]])
        preds = [softmax_like_pred(shape, seed) for seed in (1, 2, 3)]
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL, background_class=0)
        values = dice_values(gt, np.stack(preds), cfg, mask)
        assert values.tolist() == [dice_value_and_grad(gt, p, cfg, mask)[0].value for p in preds]

    def test_no_counted_subset_scores_zero(self):
        shape = (2, 1, 3)
        gt = make_batch(shape, [0] * 6, Role.GROUND_TRUTH)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, variant=Variant.LEAF)
        assert dice_values(gt, np.full((4,) + shape, 0.3), cfg).tolist() == [0.0] * 4

    def test_trailing_shape_checked(self):
        gt, _ = random_pair((1, 2, 3), seed=0)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE)
        with pytest.raises(ShapeMismatchError):
            dice_values(gt, np.zeros((4, 1, 3, 2)), cfg)

    def test_gt_must_be_three_dim(self):
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE)
        with pytest.raises(ShapeMismatchError):
            dice_values(np.zeros((2, 3)), np.full((2, 3), 0.5), cfg)


class TestZeroDenominator:
    def zero_case(self):
        shape = (1, 1, 3)
        gt = make_batch(shape, [0, 0, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0, 0, 0], Role.PREDICTION)
        return gt, pred

    def test_empty_subset_with_zero_prediction_and_epsilon_raises(self):
        gt, pred = self.zero_case()
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0)
        with pytest.raises(ZeroDenominatorError):
            dice_value_and_grad(gt, pred, cfg)
        with pytest.raises(ZeroDenominatorError):
            dice_values(gt, pred[None], cfg)

    def test_dropped_subset_does_not_raise(self):
        gt, pred = self.zero_case()
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0,
                             variant=Variant.LEAF)
        out, grad = dice_value_and_grad(gt, pred, cfg)
        assert out.value == 0.0
        assert np.all(grad == 0.0)
