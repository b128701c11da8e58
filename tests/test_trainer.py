"""Feature extraction, the linear model, manual backprop, and the training loop."""

from dataclasses import replace

import numpy as np
import pytest

from dicelab.errors import (
    EmptyDatasetError,
    InvalidConfigError,
    NonFiniteTrainingError,
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


def forward(model, feats):
    """The model's (B, C, I) predictions for features (B, I, F), as a training step makes them."""
    return trainer._forward(model.weights, feats)


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
            got = trainer._forward(np.eye(c), x)
            want = softmax(np.einsum("bif,cf->bci", x, np.eye(c)), axis=1)
            assert got.tobytes() == want.tobytes()

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
        grad = trainer._backward(feats, np.ones((1, 1, 16)), forward(model, feats))
        assert grad == pytest.approx(0.25 * 16 * np.array([[1.0, c, c, 0.0]]))

    def test_zero_loss_grad_gives_zero_weight_grad(self):
        rng = np.random.default_rng(3)
        feats = rng.uniform(0, 1, (2, 8, 4))
        model = LinearPixelModel(rng.normal(size=(3, 4)))
        grad = trainer._backward(feats, np.zeros((2, 3, 8)), forward(model, feats))
        assert np.all(grad == 0.0)


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
    """step_gradients with the loss planned as train plans it."""
    return step_gradients(model.weights, feats, gt, loss_plan(cfg, gt.shape[1]), mask)


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
        result = train(ds, self.binary_cfg(learning_rate=0.0, iterations=12))
        assert np.all(result.model.weights == 0.0)
        assert len(result.history) == 12
        # two epochs over the same six samples: same loss values, maybe reordered
        first = sorted(result.history[:6, 0].tolist())
        second = sorted(result.history[6:, 0].tolist())
        assert first == second

    def test_history_and_determinism(self):
        ds = generate_binary(SMALL_BINARY, seed=1)
        a = train(ds, self.binary_cfg())
        b = train(ds, self.binary_cfg())
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.history.tobytes() == b.history.tobytes()
        # one row per iteration: the loss, then grad_y0 and grad_y1 of the one class
        assert a.history.shape == (40, 3)
        assert a.history.dtype == np.float64 and not a.history.flags.writeable

    def test_seed_changes_trajectory(self):
        ds = generate_binary(SMALL_BINARY, seed=1)
        a = train(ds, self.binary_cfg(seed=0, iterations=3))
        b = train(ds, self.binary_cfg(seed=9, iterations=3))
        assert not np.array_equal(a.history, b.history)

    def test_training_learns_the_small_binary_task(self):
        ds = generate_binary(SMALL_BINARY, seed=2)
        result = train(ds, self.binary_cfg(learning_rate=5.0, iterations=300))
        assert result.class_names == ("lesion",)
        assert result.history[-1, 0] < result.history[0, 0]
        assert result.history[-1, 0] < 0.15

    def test_multiclass_adds_background_column(self):
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL)
        result = train(ds, TrainConfig(loss=loss, batch_size=len(ds), iterations=1))
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
        result = train(ds, TrainConfig(loss=loss, iterations=2))
        assert result.model.n_classes == 4
        assert result.class_names == ("core", "shell", "satellite")

    def test_marginal_training_runs_on_corrupted_data(self):
        ds = generate_multiclass(SMALL_MULTI, seed=5)
        ds = apply_partial(ds, PartialPolicy(PartialAction.MARK_UNAVAILABLE,
                                             tag=PHASE_B, class_index=1))
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL)
        result = train(ds, TrainConfig(loss=loss, iterations=4))
        assert result.history.shape == (4, 1 + 2 * 4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            train(empty_binary(), self.binary_cfg())

    def test_batch_size_larger_than_dataset_rejected(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        with pytest.raises(InvalidConfigError):
            train(ds, self.binary_cfg(batch_size=7))

    def test_marginal_needs_softmax_head(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL)
        with pytest.raises(InvalidConfigError):
            train(ds, TrainConfig(loss=loss, iterations=1))

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
            step = real(*args)
            if len(calls) == 3:
                return step._replace(param_grad=np.full_like(step.param_grad, np.nan))
            return step

        monkeypatch.setattr(trainer, "step_gradients", nan_on_third)
        ds = generate_binary(SMALL_BINARY, seed=0)
        with pytest.raises(NonFiniteTrainingError, match="iteration 3$"):
            train(ds, self.binary_cfg(iterations=10))
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
            result = train(data, self.binary_cfg(iterations=3))
            predict(result.model, data)
        assert calls == [(len(ds), 16, 16)] * 6  # the whole stack, once per call

    def test_predict_covers_whole_dataset(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        result = train(ds, self.binary_cfg(iterations=3))
        pred = predict(result.model, ds)
        assert pred.shape == (6, 1, 256)

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


@pytest.mark.parametrize("make_data, loss, batch_size, iterations",
                         EXACTNESS_CASES.values(), ids=EXACTNESS_CASES)
def test_train_matches_the_per_step_oracle_bit_for_bit(make_data, loss, batch_size, iterations):
    # three epochs or more in every case, so buffers are refilled after a shuffle
    ds = make_data()
    assert iterations >= 3 * (len(ds) // batch_size)
    cfg = TrainConfig(loss=loss, batch_size=batch_size, learning_rate=5.0,
                      iterations=iterations, seed=2)
    got, want = train(ds, cfg), train_oracle.train(ds, cfg)
    assert got.model.weights.shape == want.model.weights.shape
    assert got.model.weights.tobytes() == want.model.weights.tobytes()
    assert got.history.shape == want.history.shape
    assert got.history.tobytes() == want.history.tobytes()
    assert got.class_names == want.class_names
