"""Smoothing-term calibration and the gradient-balance equation."""

import numpy as np
import pytest

from dicelab.epsilon import BalanceParams, calibrate_epsilon, solve_balance_epsilon
from dicelab.errors import (EmptyDatasetError, InvalidConfigError, NoRealRootError,
                            RangeViolationError, ShapeMismatchError)
from dicelab.loss import DiceLossConfig
from dicelab.tensor import ReductionScheme


def gt_map(shape, fg_counts):
    """Binary tensor with the requested foreground count per (b, c) cell."""
    arr = np.zeros(shape)
    for (b, c), k in np.ndenumerate(np.asarray(fg_counts).reshape(shape[:2])):
        arr[b, c, :int(k)] = 1.0
    return arr


class TestCalibrate:
    def make_maps(self):
        shape = (1, 2, 32)
        return [gt_map(shape, [[10, 0]]), gt_map(shape, [[20, 4]])]

    def test_per_class_mean_includes_empty_maps(self):
        eps = calibrate_epsilon(self.make_maps(), ReductionScheme.IMAGE_WISE)
        # a class-pure scheme gets one read-only float64 epsilon per class
        assert isinstance(eps, np.ndarray)
        assert eps.dtype == np.float64 and eps.shape == (2,)
        assert not eps.flags.writeable
        assert eps.tolist() == [15.0, 2.0]

    def test_batch_wise_gets_the_same_per_class_values(self):
        eps = calibrate_epsilon(self.make_maps(), ReductionScheme.BATCH_WISE)
        assert isinstance(eps, np.ndarray)
        assert eps.tolist() == [15.0, 2.0]

    @pytest.mark.parametrize("scheme", [ReductionScheme.CLASS_WISE, ReductionScheme.ALL_WISE])
    def test_global_mean_of_per_sample_totals(self, scheme):
        eps = calibrate_epsilon(self.make_maps(), scheme)
        assert type(eps) is float
        assert eps == pytest.approx((10 + 24) / 2)

    def test_multi_element_batches_count_per_cell(self):
        shape = (2, 1, 16)
        maps = [gt_map(shape, [[4], [8]])]
        assert calibrate_epsilon(maps, ReductionScheme.IMAGE_WISE).tolist() == [6.0]

    @pytest.mark.parametrize("scheme", list(ReductionScheme))
    def test_all_empty_maps_calibrate_to_zero(self, scheme):
        # `dicelab calibrate` reports all_empty exactly when the epsilon is 0
        assert not np.any(calibrate_epsilon([gt_map((1, 1, 8), [[0]])], scheme))
        one_voxel = [gt_map((1, 1, 8), [[0]]), gt_map((1, 1, 8), [[1]])]
        assert np.any(calibrate_epsilon(one_voxel, scheme))

    @pytest.mark.parametrize("values", [[1.0, -1.0], [np.nan, 1.0], [0.5]],
                             ids=["minus-one", "nan", "half"])
    def test_ground_truth_must_be_zero_or_one(self, values):
        # [1, -1] calibrated to 0 (read as all empty) and [nan, 1] to nan
        gt = np.asarray(values).reshape(1, 1, -1)
        for scheme in ReductionScheme:
            with pytest.raises(RangeViolationError, match="exactly 0 or 1"):
                calibrate_epsilon([gt_map((1, 1, 2), [[1]]), gt], scheme)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            calibrate_epsilon([], ReductionScheme.IMAGE_WISE)

    def test_inconsistent_class_counts_rejected(self):
        maps = [gt_map((1, 1, 8), [[2]]), gt_map((1, 2, 8), [[2, 2]])]
        with pytest.raises(ShapeMismatchError):
            calibrate_epsilon(maps, ReductionScheme.IMAGE_WISE)

    @pytest.mark.parametrize("scheme", list(ReductionScheme))
    def test_feeds_straight_into_loss_config(self, scheme):
        cfg = DiceLossConfig(scheme=scheme, epsilon=calibrate_epsilon(self.make_maps(), scheme))
        want = [15.0, 2.0] if scheme.class_pure else [17.0]
        assert np.asarray(cfg.epsilon).reshape(-1).tolist() == want


class TestBalanceEquation:
    @pytest.mark.parametrize("v", [1.0, 80.0, 1000.0, 12412.0])
    def test_half_overlap_double_root_is_exact(self, v):
        assert solve_balance_epsilon(BalanceParams(a=0.5, b=2.0, v_hat=v)) == v

    @pytest.mark.parametrize("a,b,v", [(0.4, 2.0, 50.0), (0.3, 1.8, 7.0), (0.25, 2.5, 400.0)])
    def test_root_satisfies_equation(self, a, b, v):
        eps = solve_balance_epsilon(BalanceParams(a=a, b=b, v_hat=v))
        assert eps >= 0.0
        lhs = 2.0 * a * (v + eps) ** 2
        rhs = eps * b * b * v
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_smallest_root_is_returned(self):
        # a=0.25, b=2, v=100: 0.5 eps^2 - 300 eps + 5000 = 0,
        # roots 300 +/- sqrt(80000); the smaller one comes back
        eps = solve_balance_epsilon(BalanceParams(a=0.25, b=2.0, v_hat=100.0))
        assert eps == pytest.approx(300.0 - np.sqrt(80000.0), rel=1e-12)

    def test_high_overlap_has_no_real_root(self):
        with pytest.raises(NoRealRootError):
            solve_balance_epsilon(BalanceParams(a=0.9, b=2.0, v_hat=100.0))

    @pytest.mark.parametrize("kwargs", [
        dict(a=0.0, b=2.0, v_hat=10.0),
        dict(a=1.5, b=2.0, v_hat=10.0),
        dict(a=0.5, b=0.0, v_hat=10.0),
        dict(a=0.5, b=4.5, v_hat=10.0),
        dict(a=0.5, b=2.0, v_hat=0.0),
        dict(a=0.5, b=2.0, v_hat=-3.0),
        # a string raised TypeError, and True counted as 1
        dict(a="0.5", b=2.0, v_hat=10.0),
        dict(a=True, b=2.0, v_hat=10.0),
        dict(a=0.5, b=2.0, v_hat=float("nan")),
        dict(a=0.5, b=2.0, v_hat=float("inf")),
    ])
    def test_coefficient_validation(self, kwargs):
        with pytest.raises(InvalidConfigError):
            BalanceParams(**kwargs)
