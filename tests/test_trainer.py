"""Feature extraction, the linear model, manual backprop, and the training loop."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from dicelab.errors import (
    EmptyDatasetError,
    InvalidConfigError,
    NonFiniteTrainingError,
    RangeViolationError,
    ShapeMismatchError,
    TensorFileError,
)
from dicelab.loss import DiceLossConfig, Variant, loss_plan
from dicelab.synthdata import (
    PHASE_B,
    BinaryTaskParams,
    MulticlassTaskParams,
    PartialAction,
    PartialPolicy,
    SyntheticDataset,
    apply_partial,
    generate_binary,
    generate_multiclass,
)
from dicelab import trainer
from dicelab.tensor import ReductionScheme
from dicelab.trainer import (
    LinearPixelModel,
    TrainConfig,
    featurize,
    load_model,
    predict,
    save_model,
    step_gradients,
    train,
)
from fd_oracle import finite_diff_param_grad
import train_oracle

SMALL_BINARY = BinaryTaskParams(image_size=16, n_grade_a=4, n_grade_b=2,
                                radius_a=(3.0, 4.5), radius_b=(2.0, 3.0))
SMALL_MULTI = MulticlassTaskParams(image_size=32, core_radius=(2.5, 3.5),
                                   shell_width=(1.5, 2.0), satellite_radius=(2.0, 3.0),
                                   n_phase_a=4, n_phase_b=2, center_jitter=1.0)


def empty_binary():
    """A binary dataset of no 16 x 16 samples."""
    return SyntheticDataset("binary", ("lesion",), [], [], np.zeros((0, 16, 16)),
                            np.zeros((0, 1, 16, 16)), np.zeros((0, 1), dtype=bool))


class TestFeaturize:
    def test_constant_image_features_are_exact(self):
        feats = featurize(np.full((5, 5), 0.3))
        assert feats.shape == (25, 4)
        assert np.array_equal(feats, np.tile([1.0, 0.3, 0.3, 0.0], (25, 1)))

    def test_bias_column_is_always_one(self):
        rng = np.random.default_rng(0)
        feats = featurize(rng.uniform(0, 1, (7, 7)))
        assert np.all(feats[:, 0] == 1.0)

    def test_single_bright_pixel(self):
        image = np.zeros((5, 5))
        image[2, 2] = 0.9
        feats = featurize(image).reshape(5, 5, 4)
        assert feats[2, 2, 1] == 0.9
        assert feats[2, 2, 2] == pytest.approx(0.1)  # 0.9 / 9
        assert feats[2, 2, 3] > 0.0
        assert feats[0, 0, 3] == 0.0  # far corner sees a constant neighborhood

    def test_edge_replication_keeps_corner_mean_exact(self):
        image = np.zeros((4, 4))
        image[0, 0] = 0.9
        feats = featurize(image).reshape(4, 4, 4)
        # replicated padding puts the corner value in 4 of the 9 window cells
        assert feats[0, 0, 2] == pytest.approx(0.4)

    @pytest.mark.parametrize("shape", [(6, 16, 16), (5, 17, 23), (3, 40, 2), (4, 2, 31),
                                       (2, 3, 9, 13), (2, 7, 1), (1, 1, 1)])
    def test_a_stack_matches_the_oracle_and_single_calls(self, shape):
        rng = np.random.default_rng(sum(shape))
        images = rng.uniform(0, 1, shape) ** 3  # spread exponents, so rounding shows
        images[0, ..., 1:, :] = images[0, ..., :1, :]  # a run of equal rows
        flat = images.reshape(-1, *shape[-2:])
        feats = featurize(images)
        assert feats.shape == (*shape[:-2], shape[-2] * shape[-1], 4)
        for i, image in enumerate(flat):
            one = featurize(image)
            assert feats.reshape(len(flat), -1, 4)[i].tobytes() == one.tobytes()
            oracle = train_oracle.featurize(image)
            if shape[-1] > 1:
                assert one.tobytes() == oracle.tobytes()
            else:  # NumPy sums a one-pixel-wide window pairwise; see train_oracle.featurize
                assert np.allclose(one, oracle, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("generate, params", [(generate_binary, BinaryTaskParams()),
                                                  (generate_multiclass, MulticlassTaskParams())])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_default_datasets_match_the_oracle(self, generate, params, seed):
        images = generate(params, seed).images
        expected = np.stack([train_oracle.featurize(image) for image in images])
        assert featurize(images).tobytes() == expected.tobytes()

    def test_an_empty_stack_has_no_rows(self):
        assert featurize(np.zeros((0, 5, 5))).shape == (0, 25, 4)

    @pytest.mark.parametrize("image", [np.float64(1.0), np.zeros(4), np.zeros((0, 0)),
                                       np.zeros((3, 0)), np.zeros((2, 4, 0))],
                             ids=["0-D", "1-D", "(0, 0)", "(3, 0)", "(2, 4, 0)"])
    def test_bad_shapes_are_typed(self, image):
        with pytest.raises(ShapeMismatchError):
            featurize(image)

    def test_a_ragged_or_string_image_is_typed(self):
        # both raised a bare NumPy ValueError
        with pytest.raises(ShapeMismatchError, match="ragged"):
            featurize([[0.1, 0.2], [0.3]])
        with pytest.raises(RangeViolationError, match="real numbers"):
            featurize([["a", "b"], ["c", "d"]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_pixel_is_a_range_violation(self, bad):
        # it gave NaN features and a RuntimeWarning
        image = np.zeros((2, 4, 4))
        image[1, 2, 3] = bad
        with pytest.raises(RangeViolationError, match="finite"):
            featurize(image)


def forward_stack(weights, feats):
    """_forward of the stacked weights (R, C, F) on features (B, I, F), into a new array."""
    return trainer._forward(weights, feats, np.empty((len(weights), len(feats), weights.shape[1],
                                                      feats.shape[1])))


def forward(model, feats):
    """The model's (B, C, I) predictions for features (B, I, F), as a training step makes them."""
    return forward_stack(model.weights[None], feats)[0]


class TestModelForward:
    def test_zero_weights_sigmoid_is_half(self):
        model = LinearPixelModel(np.zeros((1, 4)))
        pred = forward(model, np.ones((1, 3, 4)))
        assert np.all(pred == 0.5)

    def test_zero_weights_softmax_is_uniform(self):
        model = LinearPixelModel(np.zeros((3, 4)))
        pred = forward(model, np.ones((2, 5, 4)))
        assert pred == pytest.approx(np.full((2, 3, 5), 1.0 / 3.0))

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = LinearPixelModel(rng.normal(size=(4, 4)))
        pred = forward(model, rng.uniform(0, 1, (2, 6, 4)))
        assert pred.sum(axis=1) == pytest.approx(np.ones((2, 6)), abs=1e-12)

    def test_sigmoid_equals_two_class_softmax_against_zero_row(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(1, 4))
        feats = rng.uniform(0, 1, (1, 10, 4))
        sig = forward(LinearPixelModel(w), feats)
        soft = forward(LinearPixelModel(np.vstack([np.zeros((1, 4)), w])), feats)
        assert soft[:, 1, :] == pytest.approx(sig[:, 0, :], abs=1e-12)

    def test_softmax_is_byte_equal_to_scipy(self):
        # identity weights make the logits the features; tied columns tie the maximum
        from scipy.special import softmax
        rng = np.random.default_rng(4)
        for trial in range(300):
            b, c, i = rng.integers(1, 5), rng.integers(2, 6), rng.integers(1, 40)
            scale = (1.0, 30.0, 700.0)[trial % 3]
            x = rng.uniform(-scale, scale, (b, i, c))
            if trial % 2:
                x[:, :, rng.integers(c)] = x.max(axis=2)
                x[:, :, rng.integers(c)] = x[:, :, rng.integers(c)]
            got = forward_stack(np.eye(c)[None], x)[0]
            want = softmax(np.einsum("bif,cf->bci", x, np.eye(c)), axis=1)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("source", ["binary", "multiclass", "small images"])
    @np.errstate(over="ignore")  # weights of scale 1e3 drive z below -709
    def test_forward_is_byte_equal_to_einsum(self, source):
        # the logits are a batched matrix-vector product; it must sum as np.einsum does,
        # into the caller's array as train's steps do, for one model or for a stack of
        # models that share the features
        from scipy.special import softmax
        rng = np.random.default_rng(5)
        if source == "small images":  # I = 1 takes NumPy's dot-product path
            stacks = [featurize(rng.uniform(0, 1, (40, h, w))) for h, w in [(1, 1), (1, 2), (3, 5)]]
        else:
            generate = generate_binary if source == "binary" else generate_multiclass
            params = BinaryTaskParams() if source == "binary" else MulticlassTaskParams()
            stacks = [featurize(generate(params, seed=0).images)]
        for all_feats in stacks:
            for b in (1, 4, 13, 40):
                feats = all_feats[rng.integers(0, len(all_feats), b)]
                for c in range(1, 6):
                    scales = np.array([0.0, 1e-12, 1e-6, 1e-2, 1.0, 1e3])[:, None, None]
                    ws = rng.normal(0.0, 1.0, (len(scales), c, 4)) * scales
                    stacked = forward_stack(ws, feats)
                    for r, w in enumerate(ws):
                        logits = np.einsum("bif,cf->bci", feats, w)
                        want = (train_oracle.sigmoid(logits) if c == 1
                                else softmax(logits, axis=1))
                        out = np.empty((1, *want.shape))
                        assert trainer._forward(w[None], feats, out) is out
                        assert out[0].tobytes() == want.tobytes()
                        assert stacked[r].tobytes() == want.tobytes()

    def test_sigmoid_is_within_4_ulp_of_scipy_expit(self):
        # the head is 1 / (1 + exp(-z)) on NumPy's exp; SciPy's expit is the reference
        from scipy.special import expit
        rng = np.random.default_rng(6)
        z = np.concatenate([[0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 750.0, -750.0,
                             np.inf, -np.inf], np.linspace(-750, 750, 300_001),
                            rng.normal(0, 1, 10_000), rng.normal(0, 30, 10_000)])
        with np.errstate(over="ignore"):  # exp(-z) overflows below z = -709
            got = forward_stack(np.ones((1, 1, 1)), z.reshape(1, -1, 1))[0, 0, 0]
        assert got.tobytes() == train_oracle.sigmoid(z).tobytes()
        ulps = np.abs(got.view(np.int64) - expit(z).view(np.int64))  # both are in [0, 1]
        assert ulps.max() <= 4
        assert got[:2].tolist() == [0.5, 0.5] and got[8:10].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("weights", [np.zeros((0, 4)), np.zeros((1, 3)), np.zeros(4),
                                         np.zeros((1, 1, 4))])
    def test_weight_shape_checked(self, weights):
        with pytest.raises(ShapeMismatchError):
            LinearPixelModel(weights)

    # [["1", "2", "3", "4"]] was parsed into a model, and True taken as 1.0
    @pytest.mark.parametrize("weights", ["abc", {}, [[1.0, 2.0], [3.0]], [["1", "2", "3", "4"]],
                                         [[True, 1.0, 2.0, 3.0]], np.ones((1, 4), dtype=bool),
                                         np.array([["1", "2", "3", "4"]]),
                                         [[np.nan, 1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0, 10 ** 400]]])
    def test_weights_must_be_numbers(self, weights):
        with pytest.raises(InvalidConfigError):
            LinearPixelModel(weights)

    def test_integer_weights_are_stored_as_floats(self):
        model = LinearPixelModel([[1, 2, 3, np.int64(4)]])
        assert model.weights.dtype == np.float64 and model.weights.tolist() == [[1, 2, 3, 4]]


class TestModelBackward:
    def test_sigmoid_chain_rule_on_constant_image(self):
        # zero weights give p = 0.5 everywhere, so dz = 0.25 g and the weight
        # gradient is 0.25 * sum over pixels of features
        c = 0.3
        feats = featurize(np.full((4, 4), c))[None]
        model = LinearPixelModel(np.zeros((1, 4)))
        grad = trainer._backward(feats, np.ones((1, 1, 1, 16)), forward(model, feats)[None],
                                 np.empty((1, 1, 1, 16)))
        assert grad == pytest.approx(0.25 * 16 * np.array([[[1.0, c, c, 0.0]]]))

    def test_zero_loss_grad_gives_zero_weight_grad(self):
        rng = np.random.default_rng(3)
        feats = rng.uniform(0, 1, (2, 8, 4))
        model = LinearPixelModel(rng.normal(size=(3, 4)))
        grad = trainer._backward(feats, np.zeros((1, 2, 3, 8)), forward(model, feats)[None],
                                 np.empty((1, 3, 2, 8)))
        assert grad.shape == (1, 3, 4) and np.all(grad == 0.0)

    @pytest.mark.parametrize("classes", [1, 4], ids=["sigmoid", "softmax"])
    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("size", [1, 32], ids=["I=1", "I=1024"])
    def test_gradient_is_einsum_to_within_its_rounding(self, classes, b, size):
        # BLAS sums each run's (C, B * I) @ (B * I, F) in its own order; the head's
        # Jacobian is unchanged bit for bit, and the product is einsum's to 1e-15 of
        # the sum of its terms' magnitudes
        rng = np.random.default_rng(classes + b + size)
        feats = featurize(rng.uniform(0, 1, (b, size, size)))
        weights = rng.normal(0, 2, (3, classes, 4))
        p = forward_stack(weights, feats)
        g = rng.normal(0, 1, p.shape)
        dz = np.empty((3, classes, b, size * size))
        got = trainer._backward(feats, g, p, dz)
        if classes == 1:
            want_dz = g * p * (1.0 - p)
        else:
            want_dz = p * (g - np.sum(g * p, axis=2, keepdims=True))
        assert dz.transpose(0, 2, 1, 3).tobytes() == want_dz.tobytes()
        want = np.einsum("rbci,bif->rcf", want_dz, feats)
        bound = 1e-15 * np.einsum("rbci,bif->rcf", np.abs(want_dz), np.abs(feats))
        assert got.shape == (3, classes, 4)
        assert (np.abs(got - want) <= bound).all()


def features_and_gt(ds, rows, include_background):
    """featurize of the rows' images, one at a time, and their gt as (B, L, I) float64."""
    feats = np.stack([featurize(image) for image in ds.images[rows]])
    fg = ds.gt[rows].reshape(len(feats), ds.n_classes, -1).astype(np.float64)
    if include_background:
        fg = np.concatenate([1.0 - fg.sum(axis=1, keepdims=True), fg], axis=1)
    return feats, fg


def assert_same_bits(a, b):
    """Two StepResults with bit-identical loss and gradients."""
    assert a.loss == b.loss
    for x, y in ((a.loss_grad, b.loss_grad), (a.param_grad, b.param_grad)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def planned_step(model, feats, gt, cfg, mask=None):
    """step_gradients of one run, its loss planned and its arrays allocated as train
    does it; the loss, loss gradient and weight gradient as the oracle's StepResult."""
    ones = gt == 1.0
    B, L, I = gt.shape
    C = model.n_classes
    plan = loss_plan(cfg, L)
    plan = plan._replace(eps=np.reshape(plan.eps, (1, 1, -1, 1)))
    epoch = (ones[None], np.count_nonzero(ones, axis=2)[None], None if mask is None else mask[None])
    block = trainer._Block(slice(0, 1), C - L, plan, np.empty((1, B, L, I)), epoch, epoch,
                           np.empty((1, 1, B, L)), np.empty((1, 1, B, L)))
    grad = np.zeros((1, B, C, I))
    loss, param_grad = step_gradients(model.weights[None], feats, [block], slice(0, B), 0,
                                      np.empty((1, B, C, I)), grad, np.empty((1, C, B, I)))
    return train_oracle.StepResult(loss[0], grad[0, :, C - L:], param_grad[0])


class TestEndToEndGradient:
    """Finite differences over the weights through model plus loss."""

    def check(self, model, feats, gt, cfg, mask=None):
        step = planned_step(model, feats, gt, cfg, mask)
        assert_same_bits(step, train_oracle.step_gradients(model, feats, gt, cfg, mask))
        numeric = finite_diff_param_grad(model, feats, gt, cfg, mask)
        assert step.param_grad == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("scheme", [ReductionScheme.IMAGE_WISE,
                                        ReductionScheme.BATCH_WISE,
                                        ReductionScheme.ALL_WISE])
    def test_sigmoid_head(self, scheme):
        ds = generate_binary(SMALL_BINARY, seed=0)
        feats, gt = features_and_gt(ds, slice(3), include_background=False)
        model = LinearPixelModel(np.random.default_rng(0).normal(0, 0.5, (1, 4)))
        self.check(model, feats, gt, DiceLossConfig(scheme=scheme, epsilon=1.0))

    def test_softmax_head_with_background(self):
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        feats, gt = features_and_gt(ds, slice(2), include_background=True)
        model = LinearPixelModel(np.random.default_rng(1).normal(0, 0.5, (4, 4)))
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1.0)
        self.check(model, feats, gt, cfg)

    def test_softmax_head_foreground_only_loss(self):
        # a gt of three classes meets the last three of four softmax columns,
        # so the loss skips the background and gradients still flow through it
        ds = generate_multiclass(SMALL_MULTI, seed=2)
        feats, gt = features_and_gt(ds, slice(2), include_background=False)
        model = LinearPixelModel(np.random.default_rng(2).normal(0, 0.5, (4, 4)))
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1.0)
        self.check(model, feats, gt, cfg)

    def test_leaf_variant(self):
        ds = generate_binary(SMALL_BINARY, seed=3)
        ds = apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag="grade-b"))
        # a mix of labeled and emptied
        feats, gt = features_and_gt(ds, slice(4), include_background=False)
        model = LinearPixelModel(np.random.default_rng(3).normal(0, 0.5, (1, 4)))
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-3,
                             variant=Variant.LEAF)
        self.check(model, feats, gt, cfg)

    def test_marginal_variant(self):
        ds = generate_multiclass(SMALL_MULTI, seed=4)
        ds = apply_partial(ds, PartialPolicy(PartialAction.MARK_UNAVAILABLE,
                                             tag=PHASE_B, class_index=1))
        rows = [np.flatnonzero(ds.tags == t)[-1] for t in ("phase-a", PHASE_B)]  # one of each
        feats, gt = features_and_gt(ds, rows, include_background=True)
        mask = np.concatenate([np.ones((2, 1), dtype=bool), ds.availability[rows]], axis=1)
        model = LinearPixelModel(np.random.default_rng(4).normal(0, 0.5, (4, 4)))
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-3,
                             variant=Variant.MARGINAL)
        self.check(model, feats, gt, cfg, mask=mask)


class TestTrainLoop:
    def binary_cfg(self, **kwargs):
        base = dict(loss=DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7),
                    batch_size=1, learning_rate=2.0, iterations=40, seed=0)
        base.update(kwargs)
        return TrainConfig(**base)

    def test_zero_learning_rate_keeps_weights_and_loss_flat(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        result = train([(ds, self.binary_cfg(learning_rate=0.0, iterations=12))])[0]
        assert np.all(result.model.weights == 0.0)
        assert len(result.history) == 12
        # two epochs over the same six samples: same loss values, maybe reordered
        first = sorted(result.history[:6, 0].tolist())
        second = sorted(result.history[6:, 0].tolist())
        assert first == second

    def test_history_and_determinism(self):
        ds = generate_binary(SMALL_BINARY, seed=1)
        a = train([(ds, self.binary_cfg())])[0]
        b = train([(ds, self.binary_cfg())])[0]
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.history.tobytes() == b.history.tobytes()
        # one row per iteration: the loss, then grad_y0 and grad_y1 of the one class
        assert a.history.shape == (40, 3)
        assert a.history.dtype == np.float64 and not a.history.flags.writeable

    def test_seed_changes_trajectory(self):
        ds = generate_binary(SMALL_BINARY, seed=1)
        a = train([(ds, self.binary_cfg(seed=0, iterations=3))])[0]
        b = train([(ds, self.binary_cfg(seed=9, iterations=3))])[0]
        assert not np.array_equal(a.history, b.history)

    def test_training_learns_the_small_binary_task(self):
        ds = generate_binary(SMALL_BINARY, seed=2)
        result = train([(ds, self.binary_cfg(learning_rate=5.0, iterations=300))])[0]
        assert result.class_names == ("lesion",)
        assert result.history[-1, 0] < result.history[0, 0]
        assert result.history[-1, 0] < 0.15

    def test_multiclass_adds_background_column(self):
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL)
        result = train([(ds, TrainConfig(loss=loss, batch_size=len(ds), iterations=1))])[0]
        assert result.model.weights.shape == (4, 4)
        assert result.model.n_classes == 4
        assert result.class_names == ("background", "core", "shell", "satellite")
        # the first step scores the zero model against gt with the background row first
        feats, gt = features_and_gt(ds, slice(None), include_background=True)
        mask = np.ones((len(ds), 4), dtype=bool)
        zero = LinearPixelModel(np.zeros((4, 4)))
        step = planned_step(zero, feats, gt, loss, mask)
        assert result.history[0, 0] == pytest.approx(step.loss, rel=1e-12)
        assert result.history.shape == (1, 1 + 2 * 4)

    def test_multiclass_foreground_only_loss_names(self):
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7)
        result = train([(ds, TrainConfig(loss=loss, iterations=2))])[0]
        assert result.model.n_classes == 4
        assert result.class_names == ("core", "shell", "satellite")

    def test_marginal_training_runs_on_corrupted_data(self):
        ds = generate_multiclass(SMALL_MULTI, seed=5)
        ds = apply_partial(ds, PartialPolicy(PartialAction.MARK_UNAVAILABLE,
                                             tag=PHASE_B, class_index=1))
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL)
        result = train([(ds, TrainConfig(loss=loss, iterations=4))])[0]
        assert result.history.shape == (4, 1 + 2 * 4)

    def test_foreground_in_an_unavailable_map_fails_before_training(self):
        # the last sample's class 1 is unavailable yet labeled; a run of no steps
        # draws no batch, and still fails
        ds = generate_multiclass(SMALL_MULTI, seed=5)
        availability = ds.availability.copy()
        availability[-1, 1] = False
        assert ds.gt[-1, 1].any()
        ds = replace(ds, availability=availability)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL)
        cfg = TrainConfig(loss=loss, iterations=0)
        with pytest.raises(RangeViolationError, match="unavailable class contains foreground"):
            train([(ds, cfg)])

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            train([(empty_binary(), self.binary_cfg())])

    def test_batch_size_larger_than_dataset_rejected(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        with pytest.raises(InvalidConfigError):
            train([(ds, self.binary_cfg(batch_size=7))])

    def test_marginal_needs_softmax_head(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL)
        with pytest.raises(InvalidConfigError):
            train([(ds, TrainConfig(loss=loss, iterations=1))])

    @pytest.mark.parametrize("kwargs", [dict(batch_size=0), dict(learning_rate=-1.0),
                                        dict(iterations=-1), dict(learning_rate=float("nan")),
                                        dict(learning_rate=float("inf")), dict(batch_size=2.5),
                                        dict(batch_size=True), dict(iterations=2.5),
                                        dict(seed=-1), dict(seed=1.5),
                                        dict(learning_rate="1"), dict(learning_rate=True)])
    def test_config_validation(self, kwargs):
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE)
        with pytest.raises(InvalidConfigError):
            TrainConfig(loss=loss, **kwargs)

    @pytest.mark.parametrize("loss", ["x", None, ReductionScheme.IMAGE_WISE])
    def test_loss_must_be_a_dice_loss_config(self, loss):
        # TrainConfig(loss="x") used to build and fail later inside train
        with pytest.raises(InvalidConfigError, match="DiceLossConfig"):
            TrainConfig(loss=loss)

    def test_non_finite_step_stops_training_at_its_iteration(self, monkeypatch):
        real = trainer.step_gradients
        calls = []

        def nan_on_third(*args):
            calls.append(1)
            loss, param_grad = real(*args)
            if len(calls) == 3:
                return loss, np.full_like(param_grad, np.nan)
            return loss, param_grad

        monkeypatch.setattr(trainer, "step_gradients", nan_on_third)
        ds = generate_binary(SMALL_BINARY, seed=0)
        with pytest.raises(NonFiniteTrainingError, match="iteration 3$"):
            train([(ds, self.binary_cfg(iterations=10))])
        assert len(calls) == 3

    def test_a_dataset_holds_its_class_count(self):
        # three gt maps per sample in a dataset that names one class
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        with pytest.raises(ShapeMismatchError, match=r"gt must be \(6, 1, 32, 32\)"):
            replace(ds, class_names=("core",))

    def test_train_and_predict_featurize_once_each(self, monkeypatch):
        calls = []

        def counting(image):
            calls.append(image.shape)
            return featurize(image)

        monkeypatch.setattr(trainer, "featurize", counting)
        ds = generate_binary(SMALL_BINARY, seed=0)
        twin = apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag="grade-b"))
        for data in (ds, twin, ds):
            result = train([(data, self.binary_cfg(iterations=3))])[0]
            predict(result.model, data)
        assert calls == [(len(ds), 16, 16)] * 6  # the whole stack, once per call

    # train([1]) raised a bare TypeError, a config of "x" an AttributeError
    @pytest.mark.parametrize("run", [1, "x", None, (), ("ds",), ("ds", "x"), ("ds", "cfg", "cfg"),
                                     ("x", "cfg"), ("cfg", "ds"), ["ds", None]])
    def test_each_run_is_a_dataset_and_config_pair(self, run):
        named = {"ds": generate_binary(SMALL_BINARY, seed=0), "cfg": self.binary_cfg()}
        if isinstance(run, (tuple, list)):
            run = type(run)(named.get(part, part) for part in run)
        good = (named["ds"], named["cfg"])
        with pytest.raises(InvalidConfigError, match="run 1 is not a"):
            train([good, run])

    # each raised an AttributeError
    def test_predict_and_save_model_need_a_model(self, tmp_path):
        ds = generate_binary(SMALL_BINARY, seed=0)
        with pytest.raises(InvalidConfigError, match="LinearPixelModel"):
            predict(np.zeros((1, 4)), ds)
        with pytest.raises(InvalidConfigError, match="LinearPixelModel"):
            save_model(np.zeros((1, 4)), tmp_path / "m.model")
        assert not (tmp_path / "m.model").exists()

    def test_predict_covers_whole_dataset(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        result = train([(ds, self.binary_cfg(iterations=3))])[0]
        pred = predict(result.model, ds)
        assert pred.shape == (6, 1, 256)

    def test_predict_on_overflowing_logits_is_zero_without_a_warning(self):
        # the bias logit -1000 overflows exp(-z); warnings are errors in this suite
        ds = generate_binary(SMALL_BINARY, seed=0)
        pred = predict(LinearPixelModel([[-1000.0, 0.0, 0.0, 0.0]]), ds)
        assert pred.shape == (6, 1, 256) and not pred.any()

    @pytest.mark.parametrize("rows", [1, 4], ids=["sigmoid", "softmax"])
    def test_predict_on_an_empty_dataset_is_empty(self, rows):
        # it raised a bare ValueError from np.stack
        pred = predict(LinearPixelModel(np.zeros((rows, 4))), empty_binary())
        assert pred.shape == (0, rows, 16 * 16) and not pred.flags.writeable

    def test_a_dataset_of_mixed_image_sizes_cannot_be_built(self):
        # predict raised a bare ValueError from np.stack on such samples
        ds = generate_binary(SMALL_BINARY, seed=0)
        images = [*ds.images[:-1], np.zeros((17, 17))]
        with pytest.raises(ShapeMismatchError):
            replace(ds, images=images)


class TestCheckpoint:
    def test_pickle_round_trip_is_checked_and_read_only(self):
        # unpickling used to restore a writable weight array and skip the checks
        model = LinearPixelModel(np.arange(8.0).reshape(2, 4))
        back = pickle.loads(pickle.dumps(model))
        assert back.weights.tobytes() == model.weights.tobytes()
        assert not back.weights.flags.writeable
        object.__setattr__(model, "weights", np.full((1, 4), np.nan))
        with pytest.raises(InvalidConfigError):
            pickle.loads(pickle.dumps(model))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        model = LinearPixelModel(rng.normal(size=(3, 4)))
        path = tmp_path / "m.model"
        save_model(model, path)
        assert path.read_bytes().startswith(b"DLM1 head=softmax classes=3 features=4\n")
        back = load_model(path)
        assert back.weights.shape == (3, 4)
        assert np.array_equal(back.weights, model.weights)

    def test_one_row_saves_as_sigmoid(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(LinearPixelModel(np.ones((1, 4))), path)
        assert path.read_bytes().startswith(b"DLM1 head=sigmoid classes=1 features=4\n")
        assert load_model(path).weights.tolist() == [[1.0] * 4]

    @pytest.mark.parametrize("head, classes", [("softmax", 1), ("sigmoid", 3), ("relu", 1)])
    def test_head_must_fit_classes(self, tmp_path, head, classes):
        path = tmp_path / "bad.model"
        path.write_bytes(f"DLM1 head={head} classes={classes} features=4\n".encode()
                         + bytes(8 * 4 * classes))
        with pytest.raises(TensorFileError, match="does not fit"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"JUNK head=sigmoid classes=1 features=4\n" + bytes(32))
        with pytest.raises(TensorFileError):
            load_model(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"DLM1 head=sigmoid classes=x features=4\n" + bytes(32))
        with pytest.raises(TensorFileError):
            load_model(path)

    def test_header_field_without_value(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"DLM1 head=sigmoid junk\n")
        with pytest.raises(TensorFileError):
            load_model(path)

    def test_negative_size_in_header(self, tmp_path):
        # 8 * 0 * -1 == 0 matched the empty payload and reached reshape as a bare ValueError
        path = tmp_path / "bad.model"
        path.write_bytes(b"DLM1 head=sigmoid classes=0 features=-1\n")
        with pytest.raises(TensorFileError):
            load_model(path)

    # both reached the LinearPixelModel constructor and ended in ShapeMismatchError
    @pytest.mark.parametrize("head, classes, features", [("softmax", 0, 4), ("sigmoid", 1, 3)])
    def test_header_sizes_must_fit_a_model(self, tmp_path, head, classes, features):
        path = tmp_path / "bad.model"
        path.write_bytes(f"DLM1 head={head} classes={classes} features={features}\n".encode()
                         + bytes(8 * classes * features))
        with pytest.raises(TensorFileError, match="classes >= 1 and features=4"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        # weights of [nan, 1, 2, inf] loaded as is, and predict then returned NaN
        path = tmp_path / "m.model"
        path.write_bytes(b"DLM1 head=sigmoid classes=1 features=4\n"
                         + np.array([bad, 1.0, 2.0, 0.0], dtype="<f8").tobytes())
        with pytest.raises(TensorFileError, match="finite"):
            load_model(path)

    def test_payload_length_checked(self, tmp_path):
        model = LinearPixelModel(np.zeros((1, 4)))
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TensorFileError):
            load_model(path)


SEVEN_BINARY = BinaryTaskParams(image_size=16, n_grade_a=5, n_grade_b=2,
                                radius_a=(3.0, 4.5), radius_b=(2.0, 3.0))
IMAGE, BATCH = ReductionScheme.IMAGE_WISE, ReductionScheme.BATCH_WISE


def _partial_binary():
    """Seven samples, the two grade-b maps emptied; B = 3 drops one per epoch."""
    return apply_partial(generate_binary(SEVEN_BINARY, seed=11),
                         PartialPolicy(PartialAction.EMPTY_MAP, tag="grade-b"))


def _partial_multiclass():
    """Six samples; the phase-b shell maps emptied and marked unavailable."""
    return apply_partial(generate_multiclass(SMALL_MULTI, seed=3),
                         PartialPolicy(PartialAction.MARK_UNAVAILABLE, tag=PHASE_B,
                                       class_index=1))


EXACTNESS_CASES = {
    "sigmoid-b1": (_partial_binary, DiceLossConfig(IMAGE), 1, 24),
    "sigmoid-b3-trailing-dropped": (_partial_binary, DiceLossConfig(IMAGE), 3, 9),
    "sigmoid-batch-wise-b3": (_partial_binary, DiceLossConfig(BATCH), 3, 9),
    "sigmoid-per-class-eps-b3": (_partial_binary, DiceLossConfig(IMAGE, [2.5]), 3, 9),
    "softmax-standard-b1": (_partial_multiclass, DiceLossConfig(IMAGE), 1, 20),
    "softmax-batch-wise-per-class-eps-b4": (
        _partial_multiclass, DiceLossConfig(BATCH, [3.0, 0.5, 1.5]), 4, 6),
    "softmax-leaf-b2": (_partial_multiclass, DiceLossConfig(IMAGE, variant=Variant.LEAF), 2, 10),
    "softmax-marginal-b4-trailing-dropped": (
        _partial_multiclass,
        DiceLossConfig(IMAGE, variant=Variant.MARGINAL), 4, 6),
}


def assert_same_training(got, want, grad_rtol=0.0):
    """Two TrainResults with bit-identical weights and loss column; the gradient
    columns bit-identical too, or equal to grad_rtol relative when it is given."""
    assert got.class_names == want.class_names
    assert got.model.weights.shape == want.model.weights.shape
    assert got.model.weights.tobytes() == want.model.weights.tobytes()
    assert got.history.shape == want.history.shape
    assert got.history[:, 0].tobytes() == want.history[:, 0].tobytes()
    if grad_rtol:
        np.testing.assert_allclose(got.history[:, 1:], want.history[:, 1:], rtol=grad_rtol,
                                   atol=0.0)
    else:
        assert got.history.tobytes() == want.history.tobytes()


@pytest.mark.parametrize("make_data, loss, batch_size, iterations",
                         EXACTNESS_CASES.values(), ids=EXACTNESS_CASES)
def test_train_matches_the_per_step_oracle_bit_for_bit(make_data, loss, batch_size, iterations):
    # three epochs or more in every case, so buffers are refilled after a shuffle; the
    # gradient columns come from pooled sums here and from pixel means in the oracle
    ds = make_data()
    assert iterations >= 3 * (len(ds) // batch_size)
    cfg = TrainConfig(loss=loss, batch_size=batch_size, learning_rate=5.0,
                      iterations=iterations, seed=2)
    assert_same_training(train([(ds, cfg)])[0], train_oracle.train(ds, cfg), grad_rtol=1e-12)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("scheme", list(ReductionScheme), ids=lambda s: s.value)
def test_gradient_columns_match_the_pixel_means(scheme, variant):
    # each subset's two gradient values weighted by their pixel counts, against the
    # oracle's mean |grad| over the pixels, on labels with empty and unavailable maps
    ds = _partial_multiclass()
    cfg = TrainConfig(loss=DiceLossConfig(scheme, 0.5, variant), batch_size=2,
                      learning_rate=5.0, iterations=6, seed=1)
    got, want = train([(ds, cfg)])[0], train_oracle.train(ds, cfg)
    assert_same_training(got, want, grad_rtol=1e-12)
    assert (got.history[:, 1:] > 0).any()


def _one_pixel_binary():
    """Eight 1 x 1 samples, every other one labeled."""
    n = 8
    return SyntheticDataset("binary", ("lesion",), np.arange(n), np.array(["a"] * n),
                            np.linspace(0.1, 0.9, n).reshape(n, 1, 1),
                            (np.arange(n) % 2 == 0).reshape(n, 1, 1, 1),
                            np.ones((n, 1), dtype=bool))


def _labelings(make_data):
    data = make_data()
    if data.task == "binary" and data.image_size > 1:
        return generate_binary(SEVEN_BINARY, seed=11), data  # full and partial labels
    if data.task == "multiclass":
        return generate_multiclass(SMALL_MULTI, seed=3), data
    return data, replace(data, gt=np.zeros_like(data.gt))


# (data, batch size, [(labeling, loss, learning rate)]): mixed groups of runs
LOCKSTEP_GROUPS = {
    "sigmoid-b4": (_partial_binary, 4, [
        (0, DiceLossConfig(IMAGE), 5.0), (1, DiceLossConfig(IMAGE), 5.0),
        (0, DiceLossConfig(BATCH), 5.0), (1, DiceLossConfig(BATCH), 2.0),
        (1, DiceLossConfig(IMAGE, [2.5]), 5.0), (0, DiceLossConfig(IMAGE, [40.0]), 1.0)]),
    "sigmoid-b1": (_partial_binary, 1, [
        (1, DiceLossConfig(IMAGE, [2.5]), 5.0), (0, DiceLossConfig(IMAGE), 5.0),
        (1, DiceLossConfig(IMAGE, variant=Variant.LEAF), 3.0)]),
    "softmax-b1": (_partial_multiclass, 1, [
        (0, DiceLossConfig(IMAGE), 5.0), (0, DiceLossConfig(IMAGE, variant=Variant.MARGINAL), 5.0),
        (1, DiceLossConfig(IMAGE), 5.0), (1, DiceLossConfig(IMAGE, variant=Variant.LEAF), 5.0),
        (1, DiceLossConfig(IMAGE, variant=Variant.MARGINAL), 4.0)]),
    "softmax-b4": (_partial_multiclass, 4, [
        (1, DiceLossConfig(IMAGE, variant=Variant.MARGINAL), 5.0),
        (1, DiceLossConfig(BATCH, [3.0, 0.5, 1.5]), 5.0),
        (0, DiceLossConfig(ReductionScheme.ALL_WISE, 1.0), 5.0),
        (1, DiceLossConfig(IMAGE, variant=Variant.LEAF), 5.0)]),
    "one-pixel-images-b2": (_one_pixel_binary, 2, [
        (0, DiceLossConfig(IMAGE, 1.0), 5.0), (1, DiceLossConfig(BATCH, 1.0), 5.0),
        (1, DiceLossConfig(IMAGE, 1.0, Variant.LEAF), 5.0)]),
}


@pytest.mark.parametrize("make_data, batch_size, members", LOCKSTEP_GROUPS.values(),
                         ids=LOCKSTEP_GROUPS)
def test_a_group_trains_each_run_as_it_trains_alone(make_data, batch_size, members):
    labelings = _labelings(make_data)
    runs = [(labelings[lab], TrainConfig(loss=loss, batch_size=batch_size, learning_rate=rate,
                                         iterations=9, seed=3))
            for lab, loss, rate in members]
    together = train(runs)
    assert len(together) == len(runs)
    for run, got in zip(runs, together):
        assert_same_training(got, train([run])[0])
        if labelings[0].image_size > 1:  # the oracle's featurize sums a 1-wide window apart
            assert_same_training(got, train_oracle.train(*run), grad_rtol=1e-12)


def test_a_group_featurizes_once(monkeypatch):
    calls = []

    def counting(image):
        calls.append(image.shape)
        return featurize(image)

    monkeypatch.setattr(trainer, "featurize", counting)
    full, partial = _labelings(_partial_binary)
    cfg = TrainConfig(loss=DiceLossConfig(IMAGE), iterations=3)
    train([(full, cfg), (partial, cfg), (partial, replace(cfg, learning_rate=0.5))])
    assert calls == [(7, 16, 16)]


def _reordered(ds, rows):
    return SyntheticDataset(ds.task, ds.class_names, ds.subject_ids[rows], ds.tags[rows],
                            ds.images[rows], ds.gt[rows], ds.availability[rows])


@pytest.mark.parametrize("change", ["images", "rows", "seed", "batch_size", "iterations",
                                    "classes"])
def test_runs_that_draw_other_batches_cannot_train_together(change):
    full, partial = _labelings(_partial_binary)
    cfg = TrainConfig(loss=DiceLossConfig(IMAGE), batch_size=2, iterations=3, seed=1)
    other, other_cfg = partial, cfg
    if change == "images":
        other = replace(partial, images=np.ascontiguousarray(partial.images[:, ::-1]))
    elif change == "rows":
        other = _reordered(partial, np.roll(np.arange(len(partial)), 1))
    elif change == "classes":
        other = _partial_multiclass()
    else:
        other_cfg = replace(cfg, **{change: getattr(cfg, change) + 1})
    with pytest.raises(InvalidConfigError, match="trained together"):
        train([(full, cfg), (other, other_cfg)])


def test_zero_iterations_give_zero_weights_and_an_empty_history():
    full, partial = _labelings(_partial_multiclass)
    cfg = TrainConfig(loss=DiceLossConfig(IMAGE), iterations=0)
    marginal = replace(cfg, loss=DiceLossConfig(IMAGE, variant=Variant.MARGINAL))
    plain, merged = train([(full, cfg), (partial, marginal)])
    assert plain.history.shape == (0, 7) and merged.history.shape == (0, 9)
    assert not plain.model.weights.any() and not merged.model.weights.any()


def test_train_needs_a_run():
    with pytest.raises(InvalidConfigError, match="at least one"):
        train([])


def recording_inner_train(monkeypatch):
    """Make trainer._train record the runs that train gives it, one list per call."""
    calls, real = [], trainer._train

    def recording(runs, feats):
        calls.append(list(runs))
        return real(runs, feats)

    monkeypatch.setattr(trainer, "_train", recording)
    return calls


FAIL_AT = {0.25: 2, 0.5: 5}  # a run of this epsilon gets a NaN loss at this iteration


def poison_by_epsilon(monkeypatch):
    """Make trainer.step_gradients give each run whose epsilon is a FAIL_AT key a NaN
    loss at that key's iteration of each train."""
    real = trainer.step_gradients

    def poisoned(weights, features, blocks, batch, iteration, *arrays):
        loss, param_grad = real(weights, features, blocks, batch, iteration, *arrays)
        for b in blocks:
            for k, eps in enumerate(b.plan.eps.reshape(len(b.plan.eps), -1)[:, 0].tolist()):
                if FAIL_AT.get(eps) == iteration + 1:
                    loss[b.runs][k] = np.nan  # a view of loss
        return loss, param_grad

    monkeypatch.setattr(trainer, "step_gradients", poisoned)


class TestFailureOrder:
    def runs(self, *eps_and_scheme):
        partial = _partial_binary()
        return [(partial, TrainConfig(loss=DiceLossConfig(scheme, eps), iterations=8))
                for eps, scheme in eps_and_scheme]

    def test_an_earlier_run_that_fails_later_is_the_one_named(self, monkeypatch):
        # the last run (first on the run axis: batch-wise sorts first) fails at 2, the
        # first at 5; the middle one never does
        poison_by_epsilon(monkeypatch)
        runs = self.runs((0.5, IMAGE), (1e-7, IMAGE), (0.25, BATCH))
        with pytest.raises(NonFiniteTrainingError, match="iteration 5$") as err:
            train(runs)
        assert err.value.run == 0

    def test_a_later_run_is_named_when_no_earlier_one_fails(self, monkeypatch):
        poison_by_epsilon(monkeypatch)
        runs = self.runs((1e-7, IMAGE), (0.25, BATCH), (0.5, IMAGE))
        with pytest.raises(NonFiniteTrainingError, match="iteration 2$") as err:
            train(runs)
        assert err.value.run == 1

    def test_a_duplicate_run_that_diverges_is_named_at_its_first_occurrence(self, monkeypatch):
        # at B = 1 runs 0 and 1 train alike, as do runs 2 and 3, which fail: _train
        # gets runs 0 and 2, and its failing run 1 is run 2 here
        poison_by_epsilon(monkeypatch)
        calls = recording_inner_train(monkeypatch)
        runs = self.runs((1e-7, IMAGE), (1e-7, BATCH), (0.25, BATCH), (0.25, IMAGE))
        with pytest.raises(NonFiniteTrainingError, match="iteration 2$") as err:
            train(runs)
        assert err.value.run == 2
        assert calls == [[runs[0], runs[2]], [runs[0]]]  # then run 0 alone, if it fails later

    def test_the_error_pickles_with_its_run(self):
        err = pickle.loads(pickle.dumps(NonFiniteTrainingError("at iteration 4", run=3)))
        assert str(err) == "at iteration 4" and err.run == 3


def _key_runs(data, datasets, rates):
    """Runs of each of datasets, which hold data's labels, over every scheme, variant
    data's head takes and batch size (1, 2, 4), at each of rates and three epsilons:
    the negligible one as a number and per class, and 1."""
    runs = []
    for ds in datasets:
        for scheme in ReductionScheme:
            for variant in Variant:
                if variant is Variant.MARGINAL and data.n_classes == 1:
                    continue
                classes = data.n_classes + (variant is Variant.MARGINAL)
                for eps in (1e-7, [1e-7] * classes, 1.0):
                    if isinstance(eps, list) and not scheme.class_pure:
                        continue
                    for b in (1, 2, 4):
                        for rate in rates:
                            runs.append((ds, TrainConfig(DiceLossConfig(scheme, eps, variant),
                                                         batch_size=b, learning_rate=rate,
                                                         iterations=4, seed=1)))
    return runs


def _by_key(runs):
    """runs grouped by batch size, the one field _key_runs varies that runs trained
    together share, and then by training key."""
    groups = {}
    for run in runs:
        groups.setdefault((run[1].batch_size, trainer._train_key(*run)), []).append(run)
    return list(groups.values())


LABELS = {f"{task}-{lab}": (make_data, lab)
          for task, make_data in (("binary", _partial_binary), ("multiclass", _partial_multiclass))
          for lab in ("full", "partial")}


@pytest.mark.parametrize("make_data, labels", LABELS.values(), ids=LABELS)
def test_key_merges_only_runs_that_train_alike(make_data, labels):
    data = _labelings(make_data)[labels == "partial"]
    complete = bool(data.gt.any(axis=(-2, -1)).all())
    assert complete is (labels == "full")
    twin = replace(data)  # the same labels in another object
    for group in _by_key(_key_runs(data, (data, twin), (5.0, 2.0))):
        (ds, cfg), loss = group[0], group[0][1].loss
        for other, other_cfg in group[1:]:
            assert other is ds and other_cfg.learning_rate == cfg.learning_rate
            classes = data.n_classes + (loss.variant is Variant.MARGINAL)
            eps = [np.broadcast_to(c.loss.epsilon, classes).tolist() for c in (cfg, other_cfg)]
            assert eps[0] == eps[1]
            variants = {loss.variant, other_cfg.loss.variant}
            assert len(variants) == 1 or (complete and variants == {Variant.STANDARD,
                                                                     Variant.LEAF})
            # the axes one pools and the other does not each have extent 1
            extent = (cfg.batch_size, classes, data.image_size ** 2)
            assert all(extent[a] == 1 for a in set(loss.scheme.axes)
                       ^ set(other_cfg.loss.scheme.axes))

    def key(ds=data, scheme=IMAGE, eps=1e-7, variant=Variant.STANDARD, b=1, rate=5.0):
        cfg = TrainConfig(DiceLossConfig(scheme, eps, variant), batch_size=b, learning_rate=rate)
        return trainer._train_key(ds, cfg)

    assert key() == key(scheme=BATCH) == key(eps=[1e-7] * data.n_classes)
    assert key(b=2) != key(b=2, scheme=BATCH)
    assert key() != key(ds=twin) and key() != key(rate=2.0) and key() != key(eps=1.0)
    assert (key(scheme=ReductionScheme.CLASS_WISE) == key()) is (data.n_classes == 1)
    for b in (1, 2, 4):
        assert (key(variant=Variant.LEAF, b=b) == key(b=b)) is complete


@pytest.mark.parametrize("make_data, labels", LABELS.values(), ids=LABELS)
def test_runs_of_one_key_train_alike_bit_for_bit(make_data, labels):
    data = _labelings(make_data)[labels == "partial"]
    feats = featurize(data.images)
    merged = [group for group in _by_key(_key_runs(data, (data,), (5.0,))) if len(group) > 1]
    assert merged
    for group in merged:
        want = trainer._train(group[:1], feats)[0]
        for run in group[1:]:
            assert_same_training(trainer._train([run], feats)[0], want)


def test_runs_that_differ_only_in_epsilon_train_apart(monkeypatch):
    calls = recording_inner_train(monkeypatch)
    data = _partial_multiclass()
    runs = [(data, TrainConfig(DiceLossConfig(IMAGE, eps), iterations=3)) for eps in (1e-7, 1.0)]
    small, large = train(runs)
    assert calls == [runs]
    assert small.model.weights.tobytes() != large.model.weights.tobytes()


def test_a_fixed_negligible_epsilon_trains_once_with_image_wise(monkeypatch):
    # the negligible epsilon given per class, as a calibration could give it
    calls = recording_inner_train(monkeypatch)
    data = _partial_multiclass()
    runs = [(data, TrainConfig(DiceLossConfig(IMAGE, eps), iterations=3))
            for eps in (1e-7, [1e-7] * data.n_classes)]
    image, fixed = train(runs)
    assert calls == [runs[:1]] and fixed is image
    assert_same_training(trainer._train(runs[1:], featurize(data.images))[0], image)


def test_a_result_unpickles_read_only():
    # unpickling used to give a writable history
    ds = generate_binary(SMALL_BINARY, seed=0)
    cfg = TrainConfig(loss=DiceLossConfig(IMAGE), iterations=3)
    result = train([(ds, cfg)])[0]
    back = pickle.loads(pickle.dumps(result))
    assert back.history.tobytes() == result.history.tobytes()
    assert back.model.weights.tobytes() == result.model.weights.tobytes()
    assert back.class_names == result.class_names
    assert not back.history.flags.writeable and not back.model.weights.flags.writeable
