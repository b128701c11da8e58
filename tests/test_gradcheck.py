"""Finite-difference oracle, gradient comparison, and the structural checks."""

import numpy as np
import pytest

from dicelab import gradcheck, loss
from dicelab.errors import RangeViolationError, ShapeMismatchError
from dicelab.gradcheck import (
    check_two_value,
    compare_grads,
    finite_diff_grad,
    format_record,
    random_instance,
    resolve_epsilon,
    run_check_matrix,
)
from dicelab.loss import DiceLossConfig, Variant, dice_value_and_grad
from dicelab.tensor import ReductionScheme, Role, make_batch


class TestFiniteDiff:
    def test_matches_hand_gradient(self):
        shape = (1, 1, 2)
        gt = make_batch(shape, [1, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5, 0.5], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0)
        numeric = finite_diff_grad(gt, pred, cfg).reshape(-1)
        assert numeric == pytest.approx([-0.75, 0.25], abs=1e-8)

    def test_probe_does_not_mutate_input(self):
        shape = (1, 1, 3)
        gt = make_batch(shape, [1, 0, 1], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.4, 0.5, 0.6], Role.PREDICTION)
        before = pred.copy()
        finite_diff_grad(gt, pred, DiceLossConfig(scheme=ReductionScheme.ALL_WISE, epsilon=1.0))
        assert np.array_equal(pred, before)

    def test_step_must_be_positive(self):
        gt = make_batch((1, 1, 2), [1, 0], Role.GROUND_TRUTH)
        pred = make_batch((1, 1, 2), [0.5, 0.5], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.ALL_WISE)
        with pytest.raises(RangeViolationError):
            finite_diff_grad(gt, pred, cfg, h=0.0)

    def test_stencil_must_stay_in_range(self):
        gt = make_batch((1, 1, 2), [1, 0], Role.GROUND_TRUTH)
        pred = make_batch((1, 1, 2), [0.5, 1.0], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.ALL_WISE)
        with pytest.raises(RangeViolationError):
            finite_diff_grad(gt, pred, cfg)

    def test_agrees_with_analytic_on_leaf_dropped_subsets(self):
        shape = (1, 2, 4)
        gt = make_batch(shape, [1, 0, 1, 0] + [0] * 4, Role.GROUND_TRUTH)
        pred = make_batch(shape, np.linspace(0.2, 0.8, 8), Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.LEAF)
        analytic = dice_value_and_grad(gt, pred, cfg)[1]
        numeric = finite_diff_grad(gt, pred, cfg)
        assert np.all(analytic[0, 1] == 0.0)
        assert compare_grads(analytic, numeric).passed


    def stencil_case(self):
        shape = (2, 3, 5)
        gt, pred = random_instance(shape, np.random.default_rng(8))
        return gt, pred, DiceLossConfig(scheme=ReductionScheme.BATCH_WISE, epsilon=1.0)

    @pytest.mark.parametrize("block", [1, 3 * 30, 7 * 30 + 11])
    def test_several_blocks_equal_one_block(self, monkeypatch, block):
        gt, pred, cfg = self.stencil_case()
        whole = finite_diff_grad(gt, pred, cfg)
        monkeypatch.setattr(gradcheck, "FD_BLOCK_ELEMENTS", block)
        assert np.array_equal(finite_diff_grad(gt, pred, cfg), whole)

    @pytest.mark.parametrize("block, calls", [(None, 1), (192 * 10, 39)])
    def test_one_value_only_pass_per_block(self, monkeypatch, block, calls):
        # (4, 3, 16): n = 192, so 2n^2 = 73,728 stencil elements fit one default block
        gt, pred = random_instance((4, 3, 16), np.random.default_rng(2))
        cfg = DiceLossConfig(scheme=ReductionScheme.CLASS_WISE, epsilon=1e-7)
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[1].shape)
            return loss.dice_values(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not build a gradient")

        monkeypatch.setattr(gradcheck, "dice_values", counting)
        monkeypatch.setattr(loss, "dice_value_and_grad", forbidden)
        monkeypatch.setattr(gradcheck, "dice_value_and_grad", forbidden)
        if block is not None:
            monkeypatch.setattr(gradcheck, "FD_BLOCK_ELEMENTS", block)
        finite_diff_grad(gt, pred, cfg)
        assert len(seen) == calls
        assert sum(s[0] for s in seen) == 2 * 192

    def test_marginal_probes_are_not_distributions(self):
        # every +-h probe moves one column sum by h = 1e-5, past the 1e-6 tolerance
        shape = (1, 2, 3)
        gt = make_batch(shape, [1, 0, 0, 0, 1, 0], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.7, 0.4, 0.5, 0.3, 0.6, 0.5], Role.PREDICTION)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL, background_class=0)
        mask = np.array([[True, True]])
        with pytest.raises(RangeViolationError):
            finite_diff_grad(gt, pred, cfg, mask=mask)


class TestCompareGrads:
    def grad_pair(self):
        shape = (2, 2, 5)
        gt, pred = random_instance(shape, np.random.default_rng(3))
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1.0)
        analytic = dice_value_and_grad(gt, pred, cfg)[1]
        numeric = finite_diff_grad(gt, pred, cfg)
        return shape, analytic, numeric

    def test_identical_tensors_pass_with_zero_error(self):
        _, analytic, _ = self.grad_pair()
        report = compare_grads(analytic, analytic)
        assert report.passed
        assert report.max_abs_err == 0.0
        assert report.max_rel_err == 0.0
        assert report.n_checked == analytic.size

    def test_analytic_vs_numeric_passes(self):
        _, analytic, numeric = self.grad_pair()
        assert compare_grads(analytic, numeric).passed

    def test_bumped_element_fails_and_is_located(self):
        shape, analytic, numeric = self.grad_pair()
        bumped = analytic.copy()
        bumped[1, 0, 3] += 1e-3
        report = compare_grads(bumped, numeric)
        assert not report.passed
        assert report.worst_index == (1, 0, 3)

    def test_tiny_absolute_noise_passes_on_atol(self):
        shape, analytic, numeric = self.grad_pair()
        noisy = analytic + 1e-10  # below atol, far above rtol for small grads
        assert compare_grads(noisy, numeric).passed

    def test_shape_mismatch(self):
        _, analytic, _ = self.grad_pair()
        other = make_batch((1, 1, 2), [0.1, 0.2], Role.PREDICTION)
        with pytest.raises(ShapeMismatchError):
            compare_grads(analytic, other)


class TestTwoValue:
    def test_analytic_gradient_passes(self):
        shape = (2, 3, 6)
        gt, pred = random_instance(shape, np.random.default_rng(4))
        cfg = DiceLossConfig(scheme=ReductionScheme.CLASS_WISE, epsilon=0.5)
        grad = dice_value_and_grad(gt, pred, cfg)[1]
        report = check_two_value(gt, grad, ReductionScheme.CLASS_WISE)
        assert report.passed
        assert report.n_clusters.shape == (2, 1, 1)
        assert np.all(report.n_clusters <= 2)

    def test_three_distinct_values_fail(self):
        shape = (1, 1, 3)
        gt = make_batch(shape, [1, 0, 0], Role.GROUND_TRUTH)
        grad = make_batch(shape, [0.1, 0.2, 0.3], Role.PREDICTION)
        assert not check_two_value(gt, grad, ReductionScheme.ALL_WISE).passed

    def test_two_clusters_with_mixed_keys_fail(self):
        # two clusters overall, but the y=1 elements span both of them
        shape = (1, 1, 3)
        gt = make_batch(shape, [1, 1, 0], Role.GROUND_TRUTH)
        grad = make_batch(shape, [0.1, 0.2, 0.2], Role.PREDICTION)
        report = check_two_value(gt, grad, ReductionScheme.ALL_WISE)
        assert not report.passed
        assert report.n_clusters.item() == 2

    def test_values_reported_by_key(self):
        shape = (1, 1, 4)
        gt = make_batch(shape, [1, 0, 1, 0], Role.GROUND_TRUTH)
        grad = make_batch(shape, [0.7, 0.2, 0.7, 0.2], Role.PREDICTION)
        report = check_two_value(gt, grad, ReductionScheme.ALL_WISE)
        assert report.passed
        assert {k: v.item() for k, v in report.values_by_key.items()} == {0: 0.2, 1: 0.7}

    def test_checks_each_subset_of_the_scheme(self):
        # image-wise: element 0's y=0 values disagree, element 1 has no y=1 at all
        shape = (2, 1, 3)
        gt = make_batch(shape, [1, 0, 0, 0, 0, 0], Role.GROUND_TRUTH)
        grad = make_batch(shape, [0.7, 0.2, 0.3, 0.2, 0.2, 0.2], Role.PREDICTION)
        report = check_two_value(gt, grad, ReductionScheme.IMAGE_WISE)
        assert not report.passed
        assert report.n_clusters.reshape(-1).tolist() == [3, 1]
        y1 = report.values_by_key[1].reshape(-1)
        assert y1[0] == 0.7 and np.isnan(y1[1])


class TestMatrix:
    def test_random_instance_nonempty_mode(self):
        shape = (3, 2, 4)
        gt, _ = random_instance(shape, np.random.default_rng(0), nonempty_subsets=True)
        assert np.all(gt.sum(axis=2) > 0)

    def test_resolve_epsilon_literals_and_calibrated(self):
        shape = (1, 2, 8)
        gt, _ = random_instance(shape, np.random.default_rng(1))
        assert resolve_epsilon("1e-7", gt, ReductionScheme.IMAGE_WISE) == 1e-7
        cal = resolve_epsilon("calibrated", gt, ReductionScheme.IMAGE_WISE)
        assert np.asarray(cal).shape == (2,)
        assert np.asarray(cal).tolist() == gt.sum(axis=2).reshape(-1).tolist()

    def test_small_matrix_all_pass(self):
        records = run_check_matrix(shapes=((1, 2, 6),), n_instances=3)
        assert len(records) == 4 * 1 * 3 * 3
        assert all(r.grad_report.passed and r.two_value_passed for r in records)

    def test_zero_epsilon_with_nonempty_subsets(self):
        # the loss is only smooth at epsilon 0 when no subset is all-background,
        # so the matrix guarantees foreground in every cell for that setting
        records = run_check_matrix(epsilons=("0",), n_instances=10)
        assert len(records) == 4 * 4 * 1 * 10
        assert all(r.grad_report.passed and r.two_value_passed for r in records)

    def test_fault_injection_is_caught(self):
        records = run_check_matrix(shapes=((1, 1, 6),),
                                   schemes=(ReductionScheme.IMAGE_WISE,),
                                   epsilons=("1",), n_instances=2, perturb=1e-3)
        assert all(not r.grad_report.passed for r in records)

    def test_seeds_are_deterministic(self):
        a = run_check_matrix(shapes=((2, 1, 6),), epsilons=("1",), n_instances=2)
        b = run_check_matrix(shapes=((2, 1, 6),), epsilons=("1",), n_instances=2)
        assert [r.seed for r in a] == [r.seed for r in b]
        assert [r.grad_report.max_abs_err for r in a] == [r.grad_report.max_abs_err for r in b]

    def test_format_record_mentions_verdicts(self):
        record = run_check_matrix(shapes=((1, 1, 6),),
                                  schemes=(ReductionScheme.ALL_WISE,),
                                  epsilons=("1",), n_instances=1)[0]
        line = format_record(record)
        assert "scheme=all-wise" in line
        assert "grad=pass" in line
        assert "two_value=pass" in line
