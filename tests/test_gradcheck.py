"""Finite-difference oracle, gradient comparison, and the structural checks."""

import dataclasses

import numpy as np
import pytest

from dicelab import gradcheck, loss
from dicelab.errors import InvalidConfigError, RangeViolationError, ShapeMismatchError
from dicelab.gradcheck import (
    ALL_SCHEMES,
    DEFAULT_EPSILONS,
    DEFAULT_SHAPES,
    MatrixRecord,
    check_two_value,
    compare_grads,
    finite_diff_grad,
    format_record,
    random_instance,
    resolve_epsilon,
    run_check_matrix,
)
from dicelab.loss import DiceLossConfig, Variant, dice_value_and_grad, loss_plan
from dicelab.tensor import ReductionScheme


def inject_gradient_fault(monkeypatch, offset=1e-3):
    """Make run_check_matrix's analytic gradient wrong by offset in the first
    element of every instance of its stacks."""
    def faulty(*args, **kwargs):
        grad = loss.dice_grads(*args, **kwargs).copy()
        grad[..., 0, 0, 0] += offset
        return grad

    monkeypatch.setattr(gradcheck, "dice_grads", faulty)


class TestFiniteDiff:
    def test_matches_hand_gradient(self):
        shape = (1, 1, 2)
        gt = np.asarray([1, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.5, 0.5], dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=0.0)
        numeric = finite_diff_grad(gt, pred, cfg).reshape(-1)
        assert numeric == pytest.approx([-0.75, 0.25], abs=1e-8)

    def test_probe_does_not_mutate_input(self):
        shape = (1, 1, 3)
        gt = np.asarray([1, 0, 1], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.4, 0.5, 0.6], dtype=np.float64).reshape(shape)
        before = pred.copy()
        finite_diff_grad(gt, pred, DiceLossConfig(scheme=ReductionScheme.ALL_WISE, epsilon=1.0))
        assert np.array_equal(pred, before)

    def test_stencil_must_stay_in_range(self):
        gt = np.asarray([1, 0], dtype=np.float64).reshape((1, 1, 2))
        pred = np.asarray([0.5, 1.0], dtype=np.float64).reshape((1, 1, 2))
        cfg = DiceLossConfig(scheme=ReductionScheme.ALL_WISE)
        with pytest.raises(RangeViolationError):
            finite_diff_grad(gt, pred, cfg)

    def test_agrees_with_analytic_on_leaf_dropped_subsets(self):
        shape = (1, 2, 4)
        gt = np.asarray([1, 0, 1, 0] + [0] * 4, dtype=np.float64).reshape(shape)
        pred = np.linspace(0.2, 0.8, 8).reshape(shape)
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
        monkeypatch.setattr(loss, "_grad", forbidden)  # every gradient is built there
        if block is not None:
            monkeypatch.setattr(gradcheck, "FD_BLOCK_ELEMENTS", block)
        finite_diff_grad(gt, pred, cfg)
        assert len(seen) == calls
        assert sum(s[0] for s in seen) == 2 * 192

    def stacked_case(self, n=5, shape=(2, 3, 5), scheme=ReductionScheme.IMAGE_WISE,
                     variant=Variant.STANDARD):
        """n instances, each with its own calibrated epsilon in a plan."""
        pairs = [random_instance(shape, np.random.default_rng(20 + k)) for k in range(n)]
        gt, pred = (np.stack(a) for a in zip(*pairs))
        eps = [resolve_epsilon("calibrated", g, scheme) for g in gt]
        plan = loss_plan(DiceLossConfig(scheme, variant=variant), shape[1])._replace(
            eps=np.reshape(eps, (n, 1, -1, 1)))
        cfgs = [DiceLossConfig(scheme, e, variant) for e in eps]
        return gt, pred, plan, cfgs

    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.LEAF])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_stack_equals_lone_instances(self, scheme, variant):
        gt, pred, plan, cfgs = self.stacked_case(scheme=scheme, variant=variant)
        stacked = finite_diff_grad(gt, pred, plan)
        assert stacked.shape == pred.shape
        for k, cfg in enumerate(cfgs):
            assert np.array_equal(stacked[k], finite_diff_grad(gt[k], pred[k], cfg))

    # (2, 3, 5): m = 30 elements, 2m^2 = 1,800 stencil elements per instance
    @pytest.mark.parametrize("block", [1, 3 * 30, 1800, 2 * 1800, 3 * 1800 + 7])
    def test_stack_is_the_same_in_any_blocks(self, monkeypatch, block):
        # 2 * 1800 splits the 5 instances 2 + 2 + 1, 1800 and below take one at a time
        gt, pred, plan, _ = self.stacked_case(variant=Variant.LEAF)
        whole = finite_diff_grad(gt, pred, plan)
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[1].size)
            return loss.dice_values(*args, **kwargs)

        monkeypatch.setattr(gradcheck, "dice_values", counting)
        monkeypatch.setattr(gradcheck, "FD_BLOCK_ELEMENTS", block)
        assert np.array_equal(finite_diff_grad(gt, pred, plan), whole)
        assert sum(seen) == 5 * 1800
        assert max(seen) <= max(block, 30)  # a block holds at least one stencil row

    def test_stack_shapes_must_match(self):
        gt, pred, plan, _ = self.stacked_case()
        with pytest.raises(ShapeMismatchError):
            finite_diff_grad(gt[0], pred, plan)
        with pytest.raises(ShapeMismatchError):
            finite_diff_grad(gt[None], pred[None], plan)

    def test_marginal_probes_are_not_distributions(self, monkeypatch):
        # every +-h probe moves one column sum by h = 1e-5, past the 1e-6 tolerance,
        # so a marginal config is refused before any probe is scored
        shape = (1, 2, 3)
        gt = np.asarray([1, 0, 0, 0, 1, 0], dtype=np.float64).reshape(shape)
        pred = np.asarray([0.7, 0.4, 0.5, 0.3, 0.6, 0.5], dtype=np.float64).reshape(shape)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                             variant=Variant.MARGINAL)
        monkeypatch.setattr(gradcheck, "dice_values", None)
        with pytest.raises(InvalidConfigError, match="marginal.*sum to 1"):
            finite_diff_grad(gt, pred, cfg)


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

    def test_analytic_vs_numeric_passes(self):
        _, analytic, numeric = self.grad_pair()
        assert compare_grads(analytic, numeric).passed

    def test_bumped_element_fails(self):
        shape, analytic, numeric = self.grad_pair()
        bumped = analytic.copy()
        bumped[1, 0, 3] += 1e-3
        assert not compare_grads(bumped, numeric).passed

    def test_nan_gradient_fails(self):
        _, analytic, numeric = self.grad_pair()
        broken = analytic.copy()
        broken[0, 1, 2] = np.nan
        assert not compare_grads(broken, numeric).passed

    def test_tiny_absolute_noise_passes_on_atol(self):
        shape, analytic, numeric = self.grad_pair()
        noisy = analytic + 1e-10  # below atol, far above rtol for small grads
        assert compare_grads(noisy, numeric).passed

    def test_shape_mismatch(self):
        _, analytic, _ = self.grad_pair()
        other = np.asarray([0.1, 0.2], dtype=np.float64).reshape((1, 1, 2))
        with pytest.raises(ShapeMismatchError):
            compare_grads(analytic, other)

    def test_stack_gives_one_report_per_instance(self):
        _, analytic, numeric = self.grad_pair()
        bumped = analytic.copy()
        bumped[1, 0, 3] += 1e-3
        stack_a, stack_n = np.stack([analytic, bumped]), np.stack([numeric, numeric])
        reports = compare_grads(stack_a, stack_n)
        assert reports == [compare_grads(analytic, numeric), compare_grads(bumped, numeric)]
        assert [r.passed for r in reports] == [True, False]


class TestTwoValue:
    def test_analytic_gradient_passes(self):
        shape = (2, 3, 6)
        gt, pred = random_instance(shape, np.random.default_rng(4))
        cfg = DiceLossConfig(scheme=ReductionScheme.CLASS_WISE, epsilon=0.5)
        grad = dice_value_and_grad(gt, pred, cfg)[1]
        assert check_two_value(gt, grad, ReductionScheme.CLASS_WISE) is True

    def test_three_distinct_values_fail(self):
        shape = (1, 1, 3)
        gt = np.asarray([1, 0, 0], dtype=np.float64).reshape(shape)
        grad = np.asarray([0.1, 0.2, 0.3], dtype=np.float64).reshape(shape)
        assert check_two_value(gt, grad, ReductionScheme.ALL_WISE) is False

    def test_two_clusters_with_mixed_keys_fail(self):
        # two clusters overall, but the y=1 elements span both of them
        shape = (1, 1, 3)
        gt = np.asarray([1, 1, 0], dtype=np.float64).reshape(shape)
        grad = np.asarray([0.1, 0.2, 0.2], dtype=np.float64).reshape(shape)
        assert check_two_value(gt, grad, ReductionScheme.ALL_WISE) is False

    def test_checks_each_subset_of_the_scheme(self):
        # image-wise: element 0's y=0 values disagree, element 1 has no y=1 at all
        shape = (2, 1, 3)
        gt = np.asarray([1, 0, 0, 0, 0, 0], dtype=np.float64).reshape(shape)
        grad = np.asarray([0.7, 0.2, 0.3, 0.2, 0.2, 0.2], dtype=np.float64).reshape(shape)
        assert check_two_value(gt, grad, ReductionScheme.IMAGE_WISE) is False
        assert check_two_value(gt[1:], grad[1:], ReductionScheme.IMAGE_WISE) is True

    def test_nan_gradient_fails(self):
        shape = (1, 1, 4)
        gt = np.asarray([1, 0, 1, 0], dtype=np.float64).reshape(shape)
        grad = np.asarray([0.7, 0.2, np.nan, 0.2], dtype=np.float64).reshape(shape)
        assert check_two_value(gt, grad, ReductionScheme.ALL_WISE) is False

    def test_infinite_gradient_fails(self):
        # inf - inf is NaN, so a key whose gradients are all +inf spreads NaN
        shape = (1, 1, 4)
        gt = np.asarray([1, 0, 1, 0], dtype=np.float64).reshape(shape)
        grad = np.asarray([0.7, np.inf, 0.7, np.inf], dtype=np.float64).reshape(shape)
        assert check_two_value(gt, grad, ReductionScheme.ALL_WISE) is False

    @pytest.mark.parametrize("values", [[1, -1], [np.nan, 1], [0.5, 0]])
    def test_ground_truth_must_be_zero_or_one(self, values):
        gt = np.asarray(values, dtype=np.float64).reshape((1, 1, 2))
        grad = np.zeros((1, 1, 2))
        with pytest.raises(RangeViolationError):
            check_two_value(gt, grad, ReductionScheme.ALL_WISE)

    def test_shape_mismatch(self):
        gt = np.zeros((1, 1, 4))
        with pytest.raises(ShapeMismatchError):
            check_two_value(gt, np.zeros((1, 1, 3)), ReductionScheme.ALL_WISE)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_stack_gives_one_verdict_per_instance(self, scheme):
        shape = (2, 3, 6)
        gt, pred = random_instance(shape, np.random.default_rng(4))
        grad = dice_value_and_grad(gt, pred, DiceLossConfig(scheme=scheme, epsilon=0.5))[1]
        spread = grad.copy()
        spread[1, 2] += np.linspace(0.0, 1e-6, 6)  # three or more values in that subset
        verdicts = check_two_value(np.stack([gt, gt]), np.stack([spread, grad]), scheme)
        assert verdicts == [False, True]
        assert verdicts == [check_two_value(gt, g, scheme) for g in (spread, grad)]


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

    @pytest.mark.parametrize("epsilons", [("abc",), ("-1",), ("1", "nan"), ("inf",), ()])
    def test_epsilon_labels_checked_before_the_first_instance(self, monkeypatch, epsilons):
        monkeypatch.setattr(gradcheck, "random_instance", None)  # no instance may start
        with pytest.raises(InvalidConfigError):
            run_check_matrix(epsilons=epsilons, n_instances=1)

    @pytest.mark.parametrize("kwargs, error", [
        # a string scheme raised AttributeError; no scheme, no shape or no instance
        # returned [], a vacuous pass
        ({"schemes": ["image-wise"]}, InvalidConfigError),
        ({"schemes": [ReductionScheme.ALL_WISE, None]}, InvalidConfigError),
        ({"schemes": ()}, InvalidConfigError),
        ({"shapes": ()}, InvalidConfigError),
        ({"n_instances": 0}, InvalidConfigError),
        ({"n_instances": -3}, InvalidConfigError),
        ({"n_instances": 2.0}, InvalidConfigError),
        ({"n_instances": "2"}, InvalidConfigError),
        ({"n_instances": True}, InvalidConfigError),
        # base_seed=-5 raised a bare ValueError from NumPy
        ({"base_seed": -5}, InvalidConfigError),
        ({"base_seed": 1.5}, InvalidConfigError),
        ({"base_seed": True}, InvalidConfigError),
        ({"shapes": [(True, 1, 4)]}, ShapeMismatchError),
        ({"shapes": [(2, 2)]}, ShapeMismatchError),
        ({"shapes": [(1, 1, 4), (0, 1, 4)]}, ShapeMismatchError),
    ])
    def test_arguments_checked_before_the_first_instance(self, monkeypatch, kwargs, error):
        monkeypatch.setattr(gradcheck, "random_instance", None)  # no instance may start
        with pytest.raises(error):
            run_check_matrix(**{"n_instances": 1, **kwargs})

    @pytest.mark.parametrize("base_seed", [0, 7_000])
    def test_records_equal_the_lone_instance_composition(self, base_seed):
        epsilons = DEFAULT_EPSILONS + ("0",)
        records = run_check_matrix(epsilons=epsilons, n_instances=3, base_seed=base_seed)
        assert len(records) == 4 * 4 * 4 * 3
        for r in records:
            gt, pred = random_instance(r.shape, np.random.default_rng(r.seed),
                                       nonempty_subsets=(r.epsilon_label == "0"))
            cfg = DiceLossConfig(r.scheme, resolve_epsilon(r.epsilon_label, gt, r.scheme))
            analytic = dice_value_and_grad(gt, pred, cfg)[1]
            assert r.grad_report == compare_grads(analytic, finite_diff_grad(gt, pred, cfg))
            assert r.two_value_passed is check_two_value(gt, analytic, r.scheme)
        assert [(r.scheme, r.shape, r.epsilon_label) for r in records[::3]] == [
            (s, d, e) for s in ALL_SCHEMES for d in DEFAULT_SHAPES for e in epsilons]

    def test_no_stencil_block_exceeds_the_bound(self, monkeypatch):
        sizes = []

        def counting(*args, **kwargs):
            sizes.append(args[1].size)
            return loss.dice_values(*args, **kwargs)

        monkeypatch.setattr(gradcheck, "dice_values", counting)
        run_check_matrix(n_instances=25)
        assert max(sizes) <= gradcheck.FD_BLOCK_ELEMENTS
        # per scheme and epsilon: the three small shapes one block each, (4, 3, 16)
        # (2 * 192^2 = 73,728 elements) one block per instance
        assert len(sizes) == 4 * 3 * (1 + 1 + 1 + 25)

    def test_records_keep_what_the_benchmark_reads(self):
        # the benchmark digests astuple(grad_report) and reads these six fields
        record = run_check_matrix(shapes=((1, 1, 6),), schemes=(ReductionScheme.ALL_WISE,),
                                  epsilons=("1",), n_instances=1)[0]
        assert [f.name for f in dataclasses.fields(MatrixRecord)] == [
            "seed", "scheme", "epsilon_label", "shape", "grad_report", "two_value_passed"]
        assert dataclasses.astuple(record.grad_report) == (
            record.grad_report.max_abs_err, record.grad_report.max_rel_err, True)
        assert record.two_value_passed is True

    def test_fault_injection_is_caught(self, monkeypatch):
        inject_gradient_fault(monkeypatch)
        records = run_check_matrix(shapes=((1, 1, 6),),
                                   schemes=(ReductionScheme.IMAGE_WISE,),
                                   epsilons=("1",), n_instances=2)
        assert len(records) == 2
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
