"""Per-pixel linear segmentation model and the gradient-descent loop.

The model is deliberately tiny: four hand-rolled features per pixel through a
linear layer with a sigmoid (single class) or softmax (multiclass, background
included as class 0) head. Backpropagation is written out by hand, so the
chain from the Dice-loss gradient down to the weights is explicit and can be
finite-difference checked end to end.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import expit, softmax

from .errors import (
    DimMismatchError,
    EmptyDatasetError,
    InvalidConfigError,
    NonFiniteTrainingError,
    ShapeMismatchError,
    TensorFileError,
)
from .loss import AvailabilityMask, DiceLossConfig, Variant, dice_value_and_grad
from .tensor import BatchTensor, Shape, _wrap

N_FEATURES = 4
_MODEL_MAGIC = "DLM1"


class Head(Enum):
    SIGMOID = "sigmoid"
    SOFTMAX = "softmax"


@dataclass(frozen=True)
class LinearPixelModel:
    weights: np.ndarray  # (n_classes, N_FEATURES)
    head: Head

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != N_FEATURES:
            raise DimMismatchError(f"weights must be (classes, {N_FEATURES}), got {w.shape}")
        if self.head is Head.SIGMOID and w.shape[0] != 1:
            raise DimMismatchError("sigmoid head takes exactly one weight vector")
        if self.head is Head.SOFTMAX and w.shape[0] < 2:
            raise DimMismatchError("softmax head needs at least two weight vectors")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    loss: DiceLossConfig
    batch_size: int = 1
    learning_rate: float = 1.0
    iterations: int = 300
    seed: int = 0
    include_background_in_loss: bool = False

    def __post_init__(self):
        _require_int("batch_size", self.batch_size, 1)
        _require_learning_rate(self.learning_rate)
        _require_int("iterations", self.iterations, 0)
        _require_int("seed", self.seed, 0)


def _require_int(name: str, value, minimum: int) -> None:
    """An integer (bool excluded) of at least minimum, else InvalidConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_learning_rate(value) -> None:
    """A finite real number (bool excluded) of at least 0, else InvalidConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            math.isfinite(value) and value >= 0):
        raise InvalidConfigError(f"learning_rate must be a finite number >= 0, got {value!r}")


def featurize(image: np.ndarray) -> np.ndarray:
    """Per-pixel features [bias, intensity, 3x3 local mean, 3x3 local std].

    Border neighborhoods are edge-replicated, so the output is defined for
    every pixel and the bias column is exactly 1.
    """
    image = np.asarray(image, dtype=np.float64)
    padded = np.pad(image, 1, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    local_mean = windows.mean(axis=(2, 3))
    # two-pass variance: exactly zero on constant neighborhoods
    centered = windows - local_mean[:, :, None, None]
    local_std = np.sqrt((centered ** 2).mean(axis=(2, 3)))
    feats = np.stack([np.ones_like(image), image, local_mean, local_std], axis=-1)
    return feats.reshape(-1, N_FEATURES)


def model_forward(model: LinearPixelModel, features: np.ndarray) -> BatchTensor:
    """Predictions for a batch of per-pixel features (B, I, F) -> (B, C, I)."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 2:
        feats = feats[None]
    if feats.ndim != 3 or feats.shape[2] != model.weights.shape[1]:
        raise DimMismatchError(
            f"features must be (batch, pixels, {model.weights.shape[1]}), got {feats.shape}"
        )
    logits = np.einsum("bif,cf->bci", feats, model.weights)
    if model.head is Head.SIGMOID:
        pred = expit(logits)
    else:
        pred = softmax(logits, axis=1)
    b, c, i = pred.shape
    return _wrap(Shape(b, c, i), pred.reshape(-1))


def model_backward(
    model: LinearPixelModel,
    features: np.ndarray,
    loss_grad: np.ndarray,
    preds: np.ndarray,
) -> np.ndarray:
    """Chain the loss gradient through the head and linear layer: dloss/dweights.

    preds are model_forward's predictions for these features, which the head's
    Jacobian needs. Sigmoid: dz = g * p * (1 - p).  Softmax: dz_c = p_c * (g_c -
    sum_c' g_c' p_c'), the usual Jacobian contraction.  Both then contract
    against the features.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 2:
        feats = feats[None]
    g = np.asarray(loss_grad, dtype=np.float64)
    if g.shape != (feats.shape[0], model.n_classes, feats.shape[1]):
        raise ShapeMismatchError(
            f"loss_grad shape {g.shape} does not match "
            f"({feats.shape[0]}, {model.n_classes}, {feats.shape[1]})"
        )
    p = np.asarray(preds, dtype=np.float64).reshape(g.shape)
    if model.head is Head.SIGMOID:
        dz = g * p * (1.0 - p)
    else:
        dz = p * (g - np.sum(g * p, axis=1, keepdims=True))
    return np.einsum("bci,bif->cf", dz, feats)


class StepResult(NamedTuple):
    loss: float
    loss_grad: BatchTensor
    param_grad: np.ndarray


def step_gradients(
    model: LinearPixelModel,
    features: np.ndarray,
    gt: BatchTensor,
    cfg: DiceLossConfig,
    mask: AvailabilityMask | None = None,
    model_cols: np.ndarray | None = None,
) -> StepResult:
    """One forward/backward pass: loss value, loss-space gradient, weight gradient.

    model_cols maps loss-tensor class columns onto model output classes, so a
    loss over foreground classes only still backpropagates through a softmax
    that includes the background.
    """
    if model_cols is None:
        model_cols = np.arange(model.n_classes)
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 2:
        feats = feats[None]
    pred = model_forward(model, feats)
    b, c, i = pred.shape.as_tuple()
    preds_arr = pred.data.reshape(b, c, i)
    sliced = preds_arr[:, model_cols, :]
    pred_bt = _wrap(gt.shape, sliced.reshape(-1))
    out, grad = dice_value_and_grad(gt, pred_bt, cfg, mask)
    scattered = np.zeros((b, c, i))
    scattered[:, model_cols, :] = grad.data.reshape(gt.shape.as_tuple())
    dtheta = model_backward(model, feats, scattered, preds_arr)
    return StepResult(out.value, grad, dtheta)


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    loss: float
    grad_mag_y0: tuple[float, ...]  # per loss class, mean |grad| over y=0 pixels
    grad_mag_y1: tuple[float, ...]


@dataclass(frozen=True)
class TrainResult:
    model: LinearPixelModel
    history: tuple[HistoryRow, ...]
    class_names: tuple[str, ...]  # loss-tensor column names


def _grad_split(gt_arr: np.ndarray, grad_arr: np.ndarray) -> tuple[tuple, tuple]:
    n_classes = gt_arr.shape[1]
    y0, y1 = [], []
    for c in range(n_classes):
        g = np.abs(grad_arr[:, c, :])
        m = gt_arr[:, c, :] == 1.0
        y1.append(float(g[m].mean()) if m.any() else 0.0)
        y0.append(float(g[~m].mean()) if (~m).any() else 0.0)
    return tuple(y0), tuple(y1)


def train(dataset, cfg: TrainConfig) -> TrainResult:
    """Plain SGD over whole-sample batches with seeded shuffling.

    Batches regroup every epoch; a trailing group smaller than batch_size is
    dropped so every step sees the same tensor shape. History is recorded at
    every iteration. A NaN or infinite loss or weight gradient stops training
    with NonFiniteTrainingError naming the iteration.
    """
    n = len(dataset.samples)
    if n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if cfg.batch_size > n:
        raise InvalidConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    n_fg = dataset.n_classes
    marginal = cfg.loss.variant is Variant.MARGINAL

    if n_fg == 1:
        head = Head.SIGMOID
        n_model = 1
        if cfg.include_background_in_loss:
            raise InvalidConfigError("sigmoid head has no background map to include")
        if marginal:
            raise InvalidConfigError("marginal loss needs a softmax head with background")
        model_cols = np.arange(1)
        loss_names = dataset.class_names
    else:
        head = Head.SOFTMAX
        n_model = n_fg + 1
        if marginal and not cfg.include_background_in_loss:
            raise InvalidConfigError("marginal loss requires the background in the loss")
        if marginal and cfg.loss.background_class != 0:
            raise InvalidConfigError("background is class 0 in this model")
        if cfg.include_background_in_loss:
            model_cols = np.arange(n_model)
            loss_names = ("background",) + tuple(dataset.class_names)
        else:
            model_cols = np.arange(1, n_model)
            loss_names = tuple(dataset.class_names)

    feats = np.stack([featurize(s.image) for s in dataset.samples])
    n_pixels = feats.shape[1]
    gt_rows = []
    avail_rows = []
    for s in dataset.samples:
        fg = s.gt.reshape(n_fg, n_pixels)
        if cfg.include_background_in_loss:
            background = 1.0 - fg.sum(axis=0, keepdims=True)
            gt_rows.append(np.concatenate([background, fg], axis=0))
            avail_rows.append(np.concatenate([[True], s.availability]))
        else:
            gt_rows.append(fg)
            avail_rows.append(s.availability.copy())
    gt_all = np.stack(gt_rows)
    avail_all = np.stack(avail_rows)
    loss_c = gt_all.shape[1]

    weights = np.zeros((n_model, N_FEATURES))
    rng = np.random.default_rng(cfg.seed)
    history: list[HistoryRow] = []
    batch_shape = Shape(cfg.batch_size, loss_c, n_pixels)
    queue: list[np.ndarray] = []
    iteration = 0
    while iteration < cfg.iterations:
        if not queue:
            order = rng.permutation(n)
            n_full = (n // cfg.batch_size) * cfg.batch_size
            queue = [order[i:i + cfg.batch_size] for i in range(0, n_full, cfg.batch_size)]
        idx = queue.pop(0)
        gt_bt = _wrap(batch_shape, gt_all[idx].reshape(-1))
        mask = AvailabilityMask(avail_all[idx]) if marginal else None
        model = LinearPixelModel(weights, head)
        step = step_gradients(model, feats[idx], gt_bt, cfg.loss, mask, model_cols)
        iteration += 1
        if not (math.isfinite(step.loss) and np.isfinite(step.param_grad).all()):
            raise NonFiniteTrainingError(
                f"non-finite loss or weight gradient at iteration {iteration}"
            )
        weights = weights - cfg.learning_rate * step.param_grad
        y0, y1 = _grad_split(gt_all[idx], step.loss_grad.data.reshape(batch_shape.as_tuple()))
        history.append(HistoryRow(iteration, step.loss, y0, y1))
    return TrainResult(LinearPixelModel(weights, head), tuple(history), tuple(loss_names))


def predict(model: LinearPixelModel, dataset) -> BatchTensor:
    """Model predictions for every sample in a dataset, as one batch tensor."""
    feats = np.stack([featurize(s.image) for s in dataset.samples])
    return model_forward(model, feats)


def save_model(model: LinearPixelModel, path) -> None:
    """Text header (head, classes, features) followed by f64 LE weights."""
    c, f = model.weights.shape
    header = f"{_MODEL_MAGIC} head={model.head.value} classes={c} features={f}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())


def load_model(path) -> LinearPixelModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0 or not blob.startswith(_MODEL_MAGIC.encode("ascii")):
        raise TensorFileError(f"{path}: not a model checkpoint")
    try:
        fields = dict(part.split("=", 1) for part in blob[:newline].decode("ascii").split()[1:])
        head = Head(fields["head"])
        c = int(fields["classes"])
        f = int(fields["features"])
    except (KeyError, ValueError) as exc:
        raise TensorFileError(f"{path}: malformed header") from exc
    if c < 0 or f < 0:
        raise TensorFileError(f"{path}: negative size in header (classes={c}, features={f})")
    payload = blob[newline + 1:]
    if len(payload) != 8 * c * f:
        raise TensorFileError(f"{path}: expected {8 * c * f} payload bytes, got {len(payload)}")
    weights = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(c, f)
    return LinearPixelModel(weights, head)
