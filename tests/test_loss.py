"""Dice loss forward/backward, variants, and the merge machinery."""

import math

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
    LossOutput,
    Variant,
    dice_value_and_grad,
    dice_values,
    loss_plan,
    marginal_merge,
)
from dicelab.tensor import ReductionScheme
from partition_oracle import reference_loss

ALL = (ReductionScheme.IMAGE_WISE, ReductionScheme.CLASS_WISE,
       ReductionScheme.BATCH_WISE, ReductionScheme.ALL_WISE)


def random_pair(shape, seed):
    rng = np.random.default_rng(seed)
    gt = rng.integers(0, 2, shape).astype(np.float64)
    pred = rng.uniform(0.01, 0.99, shape)
    return gt, pred


class TestForward:
    def test_half_overlap_single_pixel_pair(self):
        shape = (1, 1, 2)
        gt = np.asarray([1, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.5, 0.5], dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0)
        out = dice_value_and_grad(gt, pred, cfg)[0]
        assert out.value == pytest.approx(0.5, abs=1e-15)
        assert out.effective_subset_count == 1
        assert out.kept.shape == out.y0.shape == out.y1.shape == (1, 1, 1)
        assert out.kept.all()
        # S = 2, N = 1: the subset's gradient is 1/4 where y = 0 and 1/4 - 1 where y = 1
        assert (out.y0.item(), out.y1.item()) == pytest.approx((0.25, -0.75))

    def test_empty_gt_with_smoothing(self):
        # all-background target, uniform half predictions, epsilon 2:
        # score = (0 + 2) / (0 + 2 + 2) = 0.5
        shape = (1, 1, 4)
        gt = np.asarray([0, 0, 0, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.5] * 4, dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=2.0)
        assert dice_value_and_grad(gt, pred, cfg)[0].value == pytest.approx(0.5, abs=1e-15)

    def test_perfect_prediction_is_zero_loss(self):
        shape = (2, 1, 3)
        gt = np.asarray([1, 0, 1, 0, 1, 0], dtype=np.float64).reshape(shape)
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
        gt = np.asarray([1, 0, 0, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.5, 0.5, 0.25, 0.25], dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=[0.0, 2.0])
        # class 0: (2*0.5 + 0)/(1 + 1 + 0) = 0.5; class 1: (0 + 2)/(0 + 0.5 + 2) = 0.8
        assert dice_value_and_grad(gt, pred, cfg)[0].value == pytest.approx(1.0 - (0.5 + 0.8) / 2)

    def test_shape_mismatch(self):
        gt = np.asarray([1, 0], dtype=np.float64).reshape((1, 1, 2))
        pred = np.asarray([0.5, 0.5, 0.5], dtype=np.float64).reshape((1, 1, 3))
        with pytest.raises(ShapeMismatchError):
            dice_value_and_grad(gt, pred, DiceLossConfig(scheme=ReductionScheme.ALL_WISE))[0]

    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.LEAF])
    def test_a_stack_of_predictions_equals_lone_calls_bitwise(self, scheme, variant):
        gt, _ = random_pair((2, 3, 5), seed=3)
        gt[0, 1] = 0.0  # an empty map, which the leaf variant drops
        preds = np.random.default_rng(4).uniform(0.0, 1.0, (3, 2, 3, 5))
        cfg = DiceLossConfig(scheme=scheme, epsilon=0.5, variant=variant)
        out, grad = dice_value_and_grad(gt, preds, cfg)
        assert out.value.shape == out.effective_subset_count.shape == (3,)
        assert out.kept.shape == out.y0.shape == out.y1.shape
        assert grad.shape == preds.shape
        for k, pred in enumerate(preds):
            lone, lone_grad = dice_value_and_grad(gt, pred, cfg)
            assert out.value[k] == lone.value
            assert out.effective_subset_count[k] == lone.effective_subset_count
            for field in ("kept", "y0", "y1"):
                assert getattr(out, field)[k].tobytes() == getattr(lone, field).tobytes()
            assert grad[k].tobytes() == lone_grad.tobytes()


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

    @pytest.mark.parametrize("kwargs", [
        {"scheme": "image-wise"},
        {"scheme": None},
        {"scheme": ReductionScheme.IMAGE_WISE, "variant": "leaf"},
        {"scheme": ReductionScheme.IMAGE_WISE, "variant": None},
    ])
    def test_scheme_and_variant_must_be_members(self, kwargs):
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(**kwargs)

    def test_string_variant_cannot_change_what_is_computed(self):
        # DiceLossConfig(IMAGE_WISE, variant="leaf") used to build, and _pool then kept
        # both subsets by the mask: a loss of 0.75 here, where the leaf variant gives 0.50
        shape = (1, 2, 4)
        gt = np.asarray([1, 1, 0, 0] + [0] * 4, dtype=np.float64).reshape(shape)
        pred = np.full(shape, 0.5)
        mask = np.ones((1, 2), dtype=bool)
        leaf = DiceLossConfig(ReductionScheme.IMAGE_WISE, variant=Variant.LEAF)
        assert dice_value_and_grad(gt, pred, leaf, mask)[0].value == pytest.approx(0.5)
        with pytest.raises(InvalidConfigError, match="Variant"):
            DiceLossConfig(ReductionScheme.IMAGE_WISE, variant="leaf")

    @pytest.mark.parametrize("eps", ["abc", [[1.0, 2.0], [3.0]], {}, 10 ** 400,
                                     "1.0", True, np.True_, [1.0, "2.0"], [1.0, True],
                                     np.array([True, False]), np.array(["1.0"]),
                                     [[1.0, 2.0], [3.0, 4.0]], np.ones((2, 1))])
    def test_epsilon_must_be_numbers(self, eps):
        # "1.0" used to be kept as the str '1.0', and True as True; a 2-D epsilon
        # became its flattened cells
        with pytest.raises(InvalidConfigError):
            DiceLossConfig(ReductionScheme.IMAGE_WISE, epsilon=eps)

    @pytest.mark.parametrize("eps", [2, 0.5, np.float64(0.5), np.int64(3)])
    def test_scalar_epsilon_is_stored_as_a_float(self, eps):
        cfg = DiceLossConfig(ReductionScheme.IMAGE_WISE, epsilon=eps)
        assert type(cfg.epsilon) is float and cfg.epsilon == eps

    @pytest.mark.parametrize("entry", [dice_value_and_grad, dice_values])
    @pytest.mark.parametrize("values", [[-1.0, 0.5], [0.0, 2.0], [np.nan, 1.0], [0.0, 0.5]])
    def test_ground_truth_must_be_0_or_1(self, entry, values):
        # [-1, 0.5] against 0.5 scored a loss of 2.0 without an error
        gt = np.array([[values]])
        with pytest.raises(RangeViolationError, match="exactly 0 or 1"):
            entry(gt, np.full((1, 1, 2), 0.5), DiceLossConfig(ReductionScheme.IMAGE_WISE))

    @pytest.mark.parametrize("entry", [dice_value_and_grad, dice_values])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.2])
    def test_predictions_must_lie_in_unit_interval(self, entry, bad):
        # a NaN or inf prediction gave a NaN loss and gradient, and -0.5 a loss of 2.0
        with pytest.raises(RangeViolationError, match=r"\[0, 1\]"):
            entry(np.array([[[1.0, 0.0]]]), np.array([[[bad, 0.5]]]),
                  DiceLossConfig(ReductionScheme.IMAGE_WISE))

    def test_marginal_needs_mask_at_call_time(self):
        gt, pred = random_pair((1, 2, 4), seed=0)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE,
                             variant=Variant.MARGINAL)
        with pytest.raises(InvalidConfigError):
            dice_value_and_grad(gt, pred, cfg)[0]


class TestBackward:
    def test_half_overlap_gradient(self):
        shape = (1, 1, 2)
        gt = np.asarray([1, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.5, 0.5], dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0)
        grad = dice_value_and_grad(gt, pred, cfg)[1].reshape(-1)
        # S = 2, N = 1: y=1 slot -(2/2 - 1/4) = -0.75, y=0 slot 1/4 = 0.25
        assert grad == pytest.approx([-0.75, 0.25], abs=1e-15)

    def test_empty_gt_gradient_uniform(self):
        shape = (1, 1, 4)
        gt = np.asarray([0] * 4, dtype=np.float64).reshape(shape)
        pred = np.asarray([0.5] * 4, dtype=np.float64).reshape(shape)
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
        gt = np.asarray([1, 0, 0, 0], dtype=np.float64).reshape(shape)  # class 1 empty
        pred = np.asarray([0.5, 0.5, 0.3, 0.7], dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0,
                             variant=Variant.LEAF)
        out, grad = dice_value_and_grad(gt, pred, cfg)
        assert out.effective_subset_count == 1
        assert np.flatnonzero(out.kept).tolist() == [0]
        assert out.kept.shape == out.y0.shape
        assert out.y0[0, 1, 0] == out.y1[0, 1, 0] == 0.0
        assert out.value == pytest.approx(0.5)
        assert np.all(grad[0, 1, :] == 0.0)
        assert np.any(grad[0, 0, :] != 0.0)

    def test_all_subsets_empty_gives_zero_loss_and_gradient(self):
        shape = (2, 1, 3)
        gt = np.asarray([0] * 6, dtype=np.float64).reshape(shape)
        pred = np.asarray([0.4] * 6, dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.LEAF)
        out, grad = dice_value_and_grad(gt, pred, cfg)
        assert out.value == 0.0
        assert out.effective_subset_count == 0
        assert not out.kept.any()
        assert np.all(grad == 0.0)

    def test_leaf_filter_keeps_order(self):
        shape = (1, 3, 2)
        gt = np.asarray([0, 0, 1, 0, 0, 1], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.5] * 6, dtype=np.float64).reshape(shape)
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
    return raw


class TestMarginalMerge:
    def make_case(self):
        shape = (1, 3, 2)
        gt = np.asarray([1, 0, 0, 0, 0, 1], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.2, 0.1, 0.5, 0.6, 0.3, 0.3], dtype=np.float64).reshape(shape)
        mask = np.array([[True, False, True]])
        return shape, gt, pred, mask

    def test_spill_goes_to_background(self):
        shape, gt, pred, mask = self.make_case()
        merged = marginal_merge(gt, pred, mask)
        assert merged[0, 1].tolist() == [0.0, 0.0]
        assert merged[0, 0] == pytest.approx([0.7, 0.7])  # 0.2+0.5, 0.1+0.6
        assert merged[0, 2] == pytest.approx([0.3, 0.3])

    def test_unavailable_gt_must_be_empty(self):
        shape = (1, 2, 2)
        gt = np.asarray([0, 1, 1, 0], dtype=np.float64).reshape(shape)
        pred = softmax_like_pred(shape, seed=0)
        mask = np.array([[True, False]])
        with pytest.raises(RangeViolationError):
            marginal_merge(gt, pred, mask)

    def test_columns_must_sum_to_one(self):
        shape, gt, _, mask = self.make_case()
        bad = np.asarray([0.2, 0.1, 0.5, 0.6, 0.2, 0.2], dtype=np.float64).reshape(shape)
        with pytest.raises(RangeViolationError):
            marginal_merge(gt, bad, mask)

    def test_tiny_column_sum_error_tolerated(self):
        shape, gt, pred, mask = self.make_case()
        nudged = pred.copy()
        nudged[0, 0, 0] += 5e-7
        marginal_merge(gt, nudged, mask)

    def test_background_must_stay_available(self):
        shape, gt, pred, _ = self.make_case()
        mask = np.array([[False, True, True]])
        with pytest.raises(InvalidConfigError):
            marginal_merge(gt, pred, mask)

    def test_single_class_rejected(self):
        shape = (1, 1, 2)
        gt = np.asarray([1, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([1.0, 0.0], dtype=np.float64).reshape(shape)
        with pytest.raises(InvalidConfigError):
            marginal_merge(gt, pred, np.array([[True]]))

    def test_mask_shape_checked(self):
        shape, gt, pred, _ = self.make_case()
        with pytest.raises(ShapeMismatchError):
            marginal_merge(gt, pred, np.ones((2, 3), dtype=bool))

    @pytest.mark.parametrize("mask", [np.ones((1, 3), dtype=int), np.ones(3, dtype=bool),
                                      np.ones((1, 3, 1), dtype=bool), [[True, True, True]]])
    def test_mask_must_be_a_b_by_c_bool_array(self, mask):
        shape, gt, pred, _ = self.make_case()
        with pytest.raises(ShapeMismatchError):
            marginal_merge(gt, pred, mask)

    def test_prediction_shape_checked(self):
        shape, gt, pred, mask = self.make_case()
        with pytest.raises(ShapeMismatchError):
            marginal_merge(gt, pred[..., :1], mask)

    def test_a_stacked_mask_merges_each_pair_with_its_own(self):
        gt = np.zeros((3, 2, 4, 5))
        gt[:, :, 0] = 1.0
        pred = softmax_like_pred((6, 4, 5), seed=3).reshape(3, 2, 4, 5)
        masks = np.ones((3, 2, 4), dtype=bool)
        masks[0, 1, 2] = masks[1, 0, 1] = masks[1, 0, 3] = False
        merged = marginal_merge(gt, pred, masks)
        for k in range(3):
            assert merged[k].tobytes() == marginal_merge(gt[k], pred[k], masks[k]).tobytes()

    @pytest.mark.parametrize("mask_shape", [(2, 1, 3), (3, 2, 1, 3)])
    def test_a_mask_with_leading_axes_must_broadcast(self, mask_shape):
        _, gt, pred, _ = self.make_case()
        stacked = np.broadcast_to(pred, (2, *pred.shape))
        with pytest.raises(ShapeMismatchError, match="broadcast"):
            marginal_merge(gt, stacked if len(mask_shape) == 4 else pred,
                           np.ones(mask_shape, dtype=bool))


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
        gt = gt_arr
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
                             variant=Variant.MARGINAL)
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
                             variant=Variant.MARGINAL)
        out, grad = dice_value_and_grad(gt, pred, cfg, mask)
        assert out.kept.reshape(-1).tolist() == expected
        assert out.effective_subset_count == sum(expected)
        assert np.array_equal(grad[:, 2], grad[:, 0])

    def test_gradient_routes_background_to_merged_column(self):
        avail = [[True, False, True], [True, True, True]]
        shape, gt, pred, mask = self.build(avail, seed=21)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL)
        grad = dice_value_and_grad(gt, pred, cfg, mask)[1]
        assert np.array_equal(grad[0, 1], grad[0, 0])
        assert not np.array_equal(grad[1, 1], grad[1, 0])

    def test_nothing_unavailable_matches_standard(self):
        avail = [[True, True, True], [True, True, True]]
        shape, gt, pred, mask = self.build(avail, seed=31)
        std = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.5)
        marg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.5,
                              variant=Variant.MARGINAL)
        out_marg, g_marg = dice_value_and_grad(gt, pred, marg, mask)
        out_std, g_std = dice_value_and_grad(gt, pred, std)
        assert out_marg.value == pytest.approx(out_std.value, abs=1e-15)
        assert g_marg == pytest.approx(g_std, abs=1e-15)


def assert_same_pass(a, b):
    """Two dice_value_and_grad results equal in every LossOutput field and in the
    gradient: shape, dtype and bytes."""
    for x, y in zip((*a[0], a[1]), (*b[0], b[1])):
        x, y = np.asarray(x), np.asarray(y)
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())


def one_hot_gt(shape, seed):
    """(..., B, C, I) ground truth with one class of C per pixel, background included."""
    *lead, B, C, I = shape
    labels = np.random.default_rng(seed).integers(0, C, (*lead, B, I))
    return (labels[..., None, :] == np.arange(C)[:, None]).astype(np.float64)


class TestVariantsThatDropNothing:
    """A leaf pass that drops no subset, and a marginal pass whose mask hides no
    map, are the standard pass: the same bytes in every field and gradient."""

    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_leaf_without_an_empty_subset_is_the_standard_pass(self, scheme, lead):
        gt, pred = random_pair((*lead, 3, 2, 5), seed=8)
        gt[..., 0] = 1.0  # no (b, c) map is empty, so no subset of any scheme is
        leaf = dice_value_and_grad(gt, pred, DiceLossConfig(scheme, 0.5, Variant.LEAF))
        assert_same_pass(leaf, dice_value_and_grad(gt, pred, DiceLossConfig(scheme, 0.5)))
        assert leaf[0].kept.all()

    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_marginal_with_every_class_available_is_the_standard_pass(self, scheme, lead):
        shape = (*lead, 2, 3, 5)
        gt = one_hot_gt(shape, seed=12)
        pred = softmax_like_pred((math.prod(shape[:-2]), 3, 5), seed=13).reshape(shape)
        mask = np.ones(shape[:-1], dtype=bool)
        marginal = dice_value_and_grad(gt, pred, DiceLossConfig(scheme, 0.5, Variant.MARGINAL),
                                       mask)
        assert_same_pass(marginal, dice_value_and_grad(gt, pred, DiceLossConfig(scheme, 0.5)))


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
            assert values[j, k] == dice_value_and_grad(gt, stack[j, k], cfg)[0].value

    def test_marginal_stack_merges_each_prediction(self):
        shape = (1, 3, 2)
        gt = np.asarray([1, 0, 0, 0, 0, 1], dtype=np.float64).reshape(shape)
        mask = np.array([[True, False, True]])
        preds = [softmax_like_pred(shape, seed) for seed in (1, 2, 3)]
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL)
        values = dice_values(gt, np.stack(preds), cfg, mask)
        assert values.tolist() == [dice_value_and_grad(gt, p, cfg, mask)[0].value for p in preds]

    def test_no_counted_subset_scores_zero(self):
        shape = (2, 1, 3)
        gt = np.asarray([0] * 6, dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, variant=Variant.LEAF)
        assert dice_values(gt, np.full((4,) + shape, 0.3), cfg).tolist() == [0.0] * 4

    def stacked_leaf_case(self):
        # 3 x 3 image-wise subsets (past the 8 that NumPy sums pairwise), with empty
        # maps that differ per instance; instance 2 has none counted at all
        shape = (3, 3, 4)
        gts = np.stack([random_pair(shape, seed)[0] for seed in range(4)])
        gts[0, 0, 1] = 0.0
        gts[1, :2] = 0.0
        gts[2] = 0.0
        gts[3, 2, 0] = 0.0
        preds = np.random.default_rng(9).uniform(0.0, 1.0, (2, 4) + shape)
        return gts, preds

    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.LEAF])
    def test_stacked_ground_truth_equals_lone_calls_bitwise(self, scheme, variant):
        gts, preds = self.stacked_leaf_case()
        cfg = DiceLossConfig(scheme=scheme, epsilon=0.5, variant=variant)
        values = dice_values(gts, preds, cfg)  # gts (4, ...) broadcast against preds (2, 4, ...)
        stacked, grads = dice_value_and_grad(gts, preds, cfg)
        assert values.shape == stacked.value.shape == (2, 4)
        assert values.tobytes() == stacked.value.tobytes()
        assert grads.shape == preds.shape
        for j, k in np.ndindex(2, 4):
            out, grad = dice_value_and_grad(gts[k], preds[j, k], cfg)
            assert values[j, k] == out.value
            assert stacked.effective_subset_count[j, k] == out.effective_subset_count
            assert stacked.y0[j, k].tobytes() == out.y0.tobytes()
            assert stacked.y1[j, k].tobytes() == out.y1.tobytes()
            assert np.array_equal(grads[j, k], grad)

    def test_leaf_counts_subsets_per_instance(self):
        gts, preds = self.stacked_leaf_case()
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, variant=Variant.LEAF)
        counts = [dice_value_and_grad(g, preds[0, k], cfg)[0].effective_subset_count
                  for k, g in enumerate(gts)]
        assert len(set(counts)) == 4 and 0 in counts  # every instance keeps its own K
        assert dice_values(gts, preds[0], cfg)[2] == 0.0
        assert dice_value_and_grad(gts, preds[0], cfg)[0].effective_subset_count.tolist() == counts

    @pytest.mark.parametrize("scheme", ALL)
    def test_plan_epsilon_per_stacked_ground_truth(self, scheme):
        shape = (2, 3, 5)
        gts = np.stack([random_pair(shape, seed)[0] for seed in range(3)])
        preds = np.random.default_rng(4).uniform(0.0, 1.0, gts.shape)
        eps = [[0.5, 1.0, 2.0], [0.0, 3.0, 1.0], [7.0, 7.0, 0.25]]
        if scheme.class_pure:
            cfgs = [DiceLossConfig(scheme, e) for e in eps]
        else:
            cfgs = [DiceLossConfig(scheme, e[0]) for e in eps]
        stacked = np.reshape([c.epsilon for c in cfgs], (3, 1, -1, 1))
        plan = loss_plan(DiceLossConfig(scheme), 3)._replace(eps=stacked)
        values = dice_values(gts, preds, plan)
        outs, grads = dice_value_and_grad(gts, preds, plan)
        for k, cfg in enumerate(cfgs):
            out, grad = dice_value_and_grad(gts[k], preds[k], cfg)
            assert values[k] == outs.value[k] == out.value
            assert np.array_equal(grads[k], grad)

    def test_marginal_gradient_of_a_stack_routes_each_prediction(self):
        shape = (1, 3, 2)
        gt = np.asarray([1, 0, 0, 0, 0, 1], dtype=np.float64).reshape(shape)
        mask = np.array([[True, False, True]])
        preds = np.stack([softmax_like_pred(shape, seed) for seed in (1, 2, 3)])
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL)
        grads = dice_value_and_grad(gt, preds, cfg, mask)[1]
        for k, p in enumerate(preds):
            assert np.array_equal(grads[k], dice_value_and_grad(gt, p, cfg, mask)[1])

    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("B", [2, 3])  # 6 and 9 image-wise subsets: summed whole, gathered
    def test_leaf_stack_with_drops_equals_lone_calls_bitwise(self, scheme, B):
        gts = np.stack([random_pair((B, 3, 4), seed)[0] for seed in range(4)])
        gts[..., 0] = 1.0
        gts[0, 0, 1] = gts[1, 1] = gts[2, :, 2] = 0.0  # pair 3 drops nothing
        preds = np.random.default_rng(2).uniform(0.0, 1.0, gts.shape)
        cfg = DiceLossConfig(scheme, 0.5, Variant.LEAF)
        stacked = dice_value_and_grad(gts, preds, cfg)
        for k in range(4):
            lone = dice_value_and_grad(gts[k], preds[k], cfg)
            assert_same_pass((LossOutput(*(f[k] for f in stacked[0])), stacked[1][k]), lone)

    @pytest.mark.parametrize("scheme", ALL)
    @pytest.mark.parametrize("B", [2, 3])  # 6 and 9 image-wise subsets: summed whole, gathered
    def test_marginal_stack_with_hidden_maps_equals_lone_calls_bitwise(self, scheme, B):
        gts = one_hot_gt((4, B, 3, 5), seed=6)
        preds = softmax_like_pred((4 * B, 3, 5), seed=7).reshape(gts.shape)
        masks = np.ones((4, B, 3), dtype=bool)
        masks[0, 0, 1] = masks[1, :, 2] = masks[2, 1, 1:] = False  # pair 3 hides nothing
        gts[~masks] = 0.0
        gts[:, :, 0] = 1.0 - gts[:, :, 1:].sum(axis=2)
        cfg = DiceLossConfig(scheme, 1e-7, Variant.MARGINAL)
        stacked = dice_value_and_grad(gts, preds, cfg, masks)
        assert dice_values(gts, preds, cfg, masks).tobytes() == stacked[0].value.tobytes()
        for k in range(4):
            lone = dice_value_and_grad(gts[k], preds[k], cfg, masks[k])
            assert_same_pass((LossOutput(*(f[k] for f in stacked[0])), stacked[1][k]), lone)

    @pytest.mark.parametrize("gt_shape, preds_shape", [
        ((3, 1, 2, 3), (4, 1, 2, 3)),   # leading axes that do not broadcast
        ((2, 3), (4, 2, 3)),            # gt without three trailing axes
    ])
    def test_leading_axes_must_broadcast(self, gt_shape, preds_shape):
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE)
        for entry in (dice_values, dice_value_and_grad):
            with pytest.raises(ShapeMismatchError):
                entry(np.zeros(gt_shape), np.full(preds_shape, 0.5), cfg)

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
        gt = np.asarray([0, 0, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([0, 0, 0], dtype=np.float64).reshape(shape)
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
