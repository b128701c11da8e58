"""Feature extraction, the linear model, manual backprop, and the training loop."""

import numpy as np
import pytest

from dicelab.errors import (
    DimMismatchError,
    EmptyDatasetError,
    InvalidConfigError,
    NonFiniteTrainingError,
    ShapeMismatchError,
    TensorFileError,
)
from dicelab.loss import AvailabilityMask, DiceLossConfig, Variant
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
from dicelab.tensor import ReductionScheme, Role, Shape, make_batch
from dicelab.trainer import (
    Head,
    LinearPixelModel,
    TrainConfig,
    featurize,
    load_model,
    model_backward,
    model_forward,
    predict,
    save_model,
    step_gradients,
    train,
)
from fd_oracle import finite_diff_param_grad

SMALL_BINARY = BinaryTaskParams(image_size=16, n_grade_a=4, n_grade_b=2,
                                radius_a=(3.0, 4.5), radius_b=(2.0, 3.0))
SMALL_MULTI = MulticlassTaskParams(image_size=32, core_radius=(2.5, 3.5),
                                   shell_width=(1.5, 2.0), satellite_radius=(2.0, 3.0),
                                   n_phase_a=4, n_phase_b=2, center_jitter=1.0)


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


class TestModelForward:
    def test_zero_weights_sigmoid_is_half(self):
        model = LinearPixelModel(np.zeros((1, 4)), Head.SIGMOID)
        pred = model_forward(model, np.ones((1, 3, 4)))
        assert np.all(pred.data == 0.5)

    def test_zero_weights_softmax_is_uniform(self):
        model = LinearPixelModel(np.zeros((3, 4)), Head.SOFTMAX)
        pred = model_forward(model, np.ones((2, 5, 4)))
        assert pred.data == pytest.approx(np.full((2, 3, 5), 1.0 / 3.0))

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = LinearPixelModel(rng.normal(size=(4, 4)), Head.SOFTMAX)
        pred = model_forward(model, rng.uniform(0, 1, (2, 6, 4)))
        assert pred.data.sum(axis=1) == pytest.approx(np.ones((2, 6)), abs=1e-12)

    def test_sigmoid_equals_two_class_softmax_against_zero_row(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(1, 4))
        feats = rng.uniform(0, 1, (1, 10, 4))
        sig = model_forward(LinearPixelModel(w, Head.SIGMOID), feats)
        soft = model_forward(
            LinearPixelModel(np.vstack([np.zeros((1, 4)), w]), Head.SOFTMAX), feats)
        assert soft.data[:, 1, :] == pytest.approx(sig.data[:, 0, :], abs=1e-12)

    def test_feature_dim_checked(self):
        model = LinearPixelModel(np.zeros((1, 4)), Head.SIGMOID)
        with pytest.raises(DimMismatchError):
            model_forward(model, np.ones((1, 3, 5)))

    def test_head_row_count_checked(self):
        with pytest.raises(DimMismatchError):
            LinearPixelModel(np.zeros((2, 4)), Head.SIGMOID)
        with pytest.raises(DimMismatchError):
            LinearPixelModel(np.zeros((1, 4)), Head.SOFTMAX)


class TestModelBackward:
    def test_sigmoid_chain_rule_on_constant_image(self):
        # zero weights give p = 0.5 everywhere, so dz = 0.25 g and the weight
        # gradient is 0.25 * sum over pixels of features
        c = 0.3
        feats = featurize(np.full((4, 4), c))[None]
        model = LinearPixelModel(np.zeros((1, 4)), Head.SIGMOID)
        grad = model_backward(model, feats, np.ones((1, 1, 16)), model_forward(model, feats).data)
        assert grad == pytest.approx(0.25 * 16 * np.array([[1.0, c, c, 0.0]]))

    def test_zero_loss_grad_gives_zero_weight_grad(self):
        rng = np.random.default_rng(3)
        feats = rng.uniform(0, 1, (2, 8, 4))
        model = LinearPixelModel(rng.normal(size=(3, 4)), Head.SOFTMAX)
        grad = model_backward(model, feats, np.zeros((2, 3, 8)), model_forward(model, feats).data)
        assert np.all(grad == 0.0)

    def test_loss_grad_shape_checked(self):
        model = LinearPixelModel(np.zeros((1, 4)), Head.SIGMOID)
        with pytest.raises(ShapeMismatchError):
            model_backward(model, np.ones((1, 8, 4)), np.ones((1, 2, 8)), np.ones((1, 1, 8)))


def gt_from_samples(samples, include_background):
    n_fg = samples[0].gt.shape[0]
    n_pixels = samples[0].image.size
    rows = []
    for s in samples:
        fg = s.gt.reshape(n_fg, n_pixels)
        if include_background:
            rows.append(np.concatenate([1.0 - fg.sum(axis=0, keepdims=True), fg]))
        else:
            rows.append(fg)
    arr = np.stack(rows)
    shape = Shape(arr.shape[0], arr.shape[1], n_pixels)
    return make_batch(shape, arr.reshape(-1), Role.GROUND_TRUTH)


class TestEndToEndGradient:
    """Finite differences over the weights through model plus loss."""

    def check(self, model, feats, gt, cfg, mask=None, model_cols=None):
        step = step_gradients(model, feats, gt, cfg, mask, model_cols)
        numeric = finite_diff_param_grad(model, feats, gt, cfg, mask, model_cols)
        assert step.param_grad == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("scheme", [ReductionScheme.IMAGE_WISE,
                                        ReductionScheme.BATCH_WISE,
                                        ReductionScheme.ALL_WISE])
    def test_sigmoid_head(self, scheme):
        ds = generate_binary(SMALL_BINARY, seed=0)
        samples = ds.samples[:3]
        feats = np.stack([featurize(s.image) for s in samples])
        gt = gt_from_samples(samples, include_background=False)
        model = LinearPixelModel(np.random.default_rng(0).normal(0, 0.5, (1, 4)),
                                 Head.SIGMOID)
        self.check(model, feats, gt, DiceLossConfig(scheme=scheme, epsilon=1.0))

    def test_softmax_head_with_background(self):
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        samples = ds.samples[:2]
        feats = np.stack([featurize(s.image) for s in samples])
        gt = gt_from_samples(samples, include_background=True)
        model = LinearPixelModel(np.random.default_rng(1).normal(0, 0.5, (4, 4)),
                                 Head.SOFTMAX)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1.0)
        self.check(model, feats, gt, cfg)

    def test_softmax_head_foreground_only_loss(self):
        # the loss sees only the foreground columns, gradients still flow
        # through the full softmax
        ds = generate_multiclass(SMALL_MULTI, seed=2)
        samples = ds.samples[:2]
        feats = np.stack([featurize(s.image) for s in samples])
        gt = gt_from_samples(samples, include_background=False)
        model = LinearPixelModel(np.random.default_rng(2).normal(0, 0.5, (4, 4)),
                                 Head.SOFTMAX)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1.0)
        self.check(model, feats, gt, cfg, model_cols=np.arange(1, 4))

    def test_leaf_variant(self):
        ds = generate_binary(SMALL_BINARY, seed=3)
        ds = apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag="grade-b"))
        samples = ds.samples[:4]  # mix of labeled and emptied
        feats = np.stack([featurize(s.image) for s in samples])
        gt = gt_from_samples(samples, include_background=False)
        model = LinearPixelModel(np.random.default_rng(3).normal(0, 0.5, (1, 4)),
                                 Head.SIGMOID)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-3,
                             variant=Variant.LEAF)
        self.check(model, feats, gt, cfg)

    def test_marginal_variant(self):
        ds = generate_multiclass(SMALL_MULTI, seed=4)
        ds = apply_partial(ds, PartialPolicy(PartialAction.MARK_UNAVAILABLE,
                                             tag=PHASE_B, class_index=1))
        by_tag = {s.tag: s for s in ds.samples}
        samples = [by_tag["phase-a"], by_tag[PHASE_B]]  # one of each phase
        feats = np.stack([featurize(s.image) for s in samples])
        gt = gt_from_samples(samples, include_background=True)
        mask = AvailabilityMask(np.stack([[True, *s.availability] for s in samples]))
        model = LinearPixelModel(np.random.default_rng(4).normal(0, 0.5, (4, 4)),
                                 Head.SOFTMAX)
        cfg = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-3,
                             variant=Variant.MARGINAL, background_class=0)
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
        first = sorted(h.loss for h in result.history[:6])
        second = sorted(h.loss for h in result.history[6:])
        assert first == second

    def test_history_and_determinism(self):
        ds = generate_binary(SMALL_BINARY, seed=1)
        a = train(ds, self.binary_cfg())
        b = train(ds, self.binary_cfg())
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.history == b.history
        assert [h.iteration for h in a.history] == list(range(1, 41))

    def test_seed_changes_trajectory(self):
        ds = generate_binary(SMALL_BINARY, seed=1)
        a = train(ds, self.binary_cfg(seed=0, iterations=3))
        b = train(ds, self.binary_cfg(seed=9, iterations=3))
        assert a.history != b.history

    def test_training_learns_the_small_binary_task(self):
        ds = generate_binary(SMALL_BINARY, seed=2)
        result = train(ds, self.binary_cfg(learning_rate=5.0, iterations=300))
        assert result.class_names == ("lesion",)
        assert result.history[-1].loss < result.history[0].loss
        assert result.history[-1].loss < 0.15

    def test_multiclass_adds_background_column(self):
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7)
        cfg = TrainConfig(loss=loss, iterations=2, include_background_in_loss=True)
        result = train(ds, cfg)
        assert result.model.head is Head.SOFTMAX
        assert result.model.n_classes == 4
        assert result.class_names == ("background", "core", "shell", "satellite")

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
                              variant=Variant.MARGINAL, background_class=0)
        cfg = TrainConfig(loss=loss, iterations=4, include_background_in_loss=True)
        result = train(ds, cfg)
        assert len(result.history) == 4

    def test_empty_dataset_rejected(self):
        empty = SyntheticDataset("binary", ("lesion",), 16, (), {})
        with pytest.raises(EmptyDatasetError):
            train(empty, self.binary_cfg())

    def test_batch_size_larger_than_dataset_rejected(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        with pytest.raises(InvalidConfigError):
            train(ds, self.binary_cfg(batch_size=7))

    def test_sigmoid_cannot_include_background(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        with pytest.raises(InvalidConfigError):
            train(ds, self.binary_cfg(include_background_in_loss=True))

    def test_marginal_needs_softmax_head(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL, background_class=0)
        with pytest.raises(InvalidConfigError):
            train(ds, TrainConfig(loss=loss, iterations=1))

    def test_marginal_needs_background_in_loss(self):
        ds = generate_multiclass(SMALL_MULTI, seed=0)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=1e-7,
                              variant=Variant.MARGINAL, background_class=0)
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

    def test_predict_covers_whole_dataset(self):
        ds = generate_binary(SMALL_BINARY, seed=0)
        result = train(ds, self.binary_cfg(iterations=3))
        pred = predict(result.model, ds)
        assert pred.shape.as_tuple() == (6, 1, 256)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        model = LinearPixelModel(rng.normal(size=(3, 4)), Head.SOFTMAX)
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.head is Head.SOFTMAX
        assert np.array_equal(back.weights, model.weights)

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

    def test_payload_length_checked(self, tmp_path):
        model = LinearPixelModel(np.zeros((1, 4)), Head.SIGMOID)
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TensorFileError):
            load_model(path)
