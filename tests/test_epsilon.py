"""Smoothing-term calibration and the gradient-balance equation."""

import numpy as np
import pytest

from dicelab.epsilon import BalanceParams, EpsilonCalibration, calibrate_epsilon, solve_balance_epsilon
from dicelab.errors import EmptyDatasetError, InvalidConfigError, NoRealRootError, ShapeMismatchError
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
        cal = calibrate_epsilon(self.make_maps(), ReductionScheme.IMAGE_WISE)
        assert cal.per_class == [(0, 15.0), (1, 2.0)]
        assert cal.global_value is None
        assert not cal.all_empty

    def test_batch_wise_gets_the_same_per_class_values(self):
        cal = calibrate_epsilon(self.make_maps(), ReductionScheme.BATCH_WISE)
        assert cal.per_class == [(0, 15.0), (1, 2.0)]

    @pytest.mark.parametrize("scheme", [ReductionScheme.CLASS_WISE, ReductionScheme.ALL_WISE])
    def test_global_mean_of_per_sample_totals(self, scheme):
        cal = calibrate_epsilon(self.make_maps(), scheme)
        assert cal.per_class is None
        assert cal.global_value == pytest.approx((10 + 24) / 2)

    def test_multi_element_batches_count_per_cell(self):
        shape = (2, 1, 16)
        maps = [gt_map(shape, [[4], [8]])]
        cal = calibrate_epsilon(maps, ReductionScheme.IMAGE_WISE)
        assert cal.per_class == [(0, 6.0)]

    def test_all_empty_flag(self):
        shape = (1, 1, 8)
        cal = calibrate_epsilon([gt_map(shape, [[0]])], ReductionScheme.IMAGE_WISE)
        assert cal.all_empty
        assert cal.per_class == [(0, 0.0)]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            calibrate_epsilon([], ReductionScheme.IMAGE_WISE)

    def test_inconsistent_class_counts_rejected(self):
        maps = [gt_map((1, 1, 8), [[2]]), gt_map((1, 2, 8), [[2, 2]])]
        with pytest.raises(ShapeMismatchError):
            calibrate_epsilon(maps, ReductionScheme.IMAGE_WISE)

    def test_as_loss_epsilon_shapes(self):
        per_class = calibrate_epsilon(self.make_maps(), ReductionScheme.IMAGE_WISE)
        vec = per_class.as_loss_epsilon()
        assert isinstance(vec, np.ndarray)
        assert vec.tolist() == [15.0, 2.0]
        global_cal = calibrate_epsilon(self.make_maps(), ReductionScheme.ALL_WISE)
        assert isinstance(global_cal.as_loss_epsilon(), float)

    def test_feeds_straight_into_loss_config(self):
        cal = calibrate_epsilon(self.make_maps(), ReductionScheme.IMAGE_WISE)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=cal.as_loss_epsilon())
        assert np.asarray(cfg.epsilon).tolist() == [15.0, 2.0]


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
    ])
    def test_coefficient_validation(self, kwargs):
        with pytest.raises(InvalidConfigError):
            BalanceParams(**kwargs)

    def test_calibration_dataclass_round_trip(self):
        cal = EpsilonCalibration(scheme=ReductionScheme.ALL_WISE, per_class=None,
                                 global_value=17.0, all_empty=False)
        assert cal.as_loss_epsilon() == 17.0
