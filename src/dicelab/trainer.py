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
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.special import expit, softmax

from .errors import (
    EmptyDatasetError,
    InvalidConfigError,
    NonFiniteTrainingError,
    ShapeMismatchError,
    TensorFileError,
)
from .loss import DiceLossConfig, LossPlan, Variant, loss_plan, planned_value_and_grad
from .tensor import readonly

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
            raise ShapeMismatchError(f"weights must be (classes, {N_FEATURES}), got {w.shape}")
        if self.head is Head.SIGMOID and w.shape[0] != 1:
            raise ShapeMismatchError("sigmoid head takes exactly one weight vector")
        if self.head is Head.SOFTMAX and w.shape[0] < 2:
            raise ShapeMismatchError("softmax head needs at least two weight vectors")
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
            0 <= value <= sys.float_info.max):  # an int past the float range cannot train
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


def _forward(weights: np.ndarray, head: Head, feats: np.ndarray) -> np.ndarray:
    logits = np.einsum("bif,cf->bci", feats, weights)
    return expit(logits) if head is Head.SIGMOID else softmax(logits, axis=1)


def _backward(head: Head, feats: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    if head is Head.SIGMOID:
        dz = g * p * (1.0 - p)
    else:
        dz = p * (g - np.sum(g * p, axis=1, keepdims=True))
    return np.einsum("bci,bif->cf", dz, feats)


def model_forward(model: LinearPixelModel, features: np.ndarray) -> np.ndarray:
    """Predictions for a batch of per-pixel features (B, I, F) -> (B, C, I)."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[2] != model.weights.shape[1]:
        raise ShapeMismatchError(
            f"features must be (batch, pixels, {model.weights.shape[1]}), got {feats.shape}"
        )
    return readonly(_forward(model.weights, model.head, feats))


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
    g = np.asarray(loss_grad, dtype=np.float64)
    if g.shape != (feats.shape[0], model.n_classes, feats.shape[1]):
        raise ShapeMismatchError(
            f"loss_grad shape {g.shape} does not match "
            f"({feats.shape[0]}, {model.n_classes}, {feats.shape[1]})"
        )
    p = np.asarray(preds, dtype=np.float64).reshape(g.shape)
    return _backward(model.head, feats, g, p)


class StepResult(NamedTuple):
    loss: float
    loss_grad: np.ndarray
    param_grad: np.ndarray


def step_gradients(
    weights: np.ndarray,
    head: Head,
    features: np.ndarray,
    gt: np.ndarray,
    plan: LossPlan,
    mask: np.ndarray | None = None,
) -> StepResult:
    """One forward/backward pass: loss value, loss-space gradient, weight gradient.

    The arrays come checked from train: features (B, I, F), gt (B, L, I) of
    0 and 1 with L at most the model's columns, and plan built for L classes.
    The loss sees the model's last L output columns, so a loss over the
    foreground classes only still backpropagates through a softmax whose
    column 0 is the background.
    """
    pred = _forward(weights, head, features)
    first = weights.shape[0] - gt.shape[1]
    out, grad = planned_value_and_grad(gt, pred[:, first:, :], plan, mask)
    full = grad
    if first > 0:
        full = np.zeros(pred.shape)
        full[:, first:, :] = grad
    return StepResult(out.value, grad, _backward(head, features, full, pred))


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


def _features(samples) -> list[np.ndarray]:
    """featurize of each sample's image, computed once per image.

    The features are kept in the sample's image_cache, which a relabeled twin
    of the sample shares, so a run featurizes each of its images once.
    """
    out = []
    for s in samples:
        feats = s.image_cache.get("features")
        if feats is None:
            feats = s.image_cache["features"] = readonly(featurize(s.image))
        out.append(feats)
    return out


def _grad_split(ones: np.ndarray, grad: np.ndarray, n_ones: np.ndarray) -> tuple[tuple, tuple]:
    """Mean |grad| over the y=0 and over the y=1 pixels of each loss class; 0 where none.

    ones marks the y=1 pixels and n_ones counts them per (sample, class);
    np.add.reduce(x) / n is x.mean() bit for bit.
    """
    a = np.abs(grad)
    zeros = ~ones
    y0, y1 = [], []
    for c, k1 in enumerate(np.add.reduce(n_ones, axis=0).tolist()):
        k0 = ones.shape[0] * ones.shape[2] - k1
        g = a[:, c, :]
        y1.append(float(np.add.reduce(g[ones[:, c, :]]) / k1) if k1 else 0.0)
        y0.append(float(np.add.reduce(g[zeros[:, c, :]]) / k0) if k0 else 0.0)
    return tuple(y0), tuple(y1)


def train(dataset, cfg: TrainConfig) -> TrainResult:
    """Plain SGD over whole-sample batches with seeded shuffling.

    Batches regroup every epoch; a trailing group smaller than batch_size is
    dropped so every step sees the same tensor shape. History is recorded at
    every iteration. A NaN or infinite loss or weight gradient stops training
    with NonFiniteTrainingError naming the iteration. A softmax model's
    background column 0 is in the loss only under the marginal variant.

    Only the step's arithmetic runs every step. The inputs are checked, the
    features computed and the loss planned once per call; each epoch gathers
    its shuffled samples into buffers allocated once per call, and each step
    slices its batch from them.
    """
    n = len(dataset.samples)
    if n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if cfg.batch_size > n:
        raise InvalidConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    n_fg = dataset.n_classes
    marginal = cfg.loss.variant is Variant.MARGINAL
    if n_fg == 1 and marginal:
        raise InvalidConfigError("marginal loss needs a softmax head with background")
    if marginal and cfg.loss.background_class != 0:
        raise InvalidConfigError("background is class 0 in this model")
    head = Head.SIGMOID if n_fg == 1 else Head.SOFTMAX

    shapes = {(s.gt.shape[0], *s.image.shape) for s in dataset.samples}
    if len(shapes) > 1 or min(shapes)[0] != n_fg:
        raise ShapeMismatchError(f"every sample must hold {n_fg} gt maps of one image size, "
                                 f"got (maps, height, width) {sorted(shapes)}")
    feats = np.stack(_features(dataset.samples))
    ones = np.stack([s.gt.reshape(n_fg, -1) for s in dataset.samples]) == 1.0
    avail = np.stack([s.availability for s in dataset.samples])
    loss_names = tuple(dataset.class_names)
    if marginal:  # the class maps are disjoint, so the background is where none is set
        ones = np.concatenate([~ones.any(axis=1, keepdims=True), ones], axis=1)
        avail = np.concatenate([np.ones((n, 1), dtype=bool), avail], axis=1)
        loss_names = ("background",) + loss_names
    plan = loss_plan(cfg.loss, len(loss_names))

    # each epoch gathers its shuffled samples into these buffers; a step slices them
    sources = (feats, ones, avail, np.count_nonzero(ones, axis=2))
    buffers = [np.empty_like(src) for src in sources]
    B = cfg.batch_size
    gt = np.empty((B, *ones.shape[1:]))  # the batch's gt as 0.0 and 1.0
    weights = np.zeros((1 if n_fg == 1 else n_fg + 1, N_FEATURES))
    rng = np.random.default_rng(cfg.seed)
    n_full = (n // B) * B
    history: list[HistoryRow] = []
    lo = n_full
    for iteration in range(1, cfg.iterations + 1):
        if lo == n_full:
            order = rng.permutation(n)
            for src, buf in zip(sources, buffers):
                np.take(src, order, axis=0, out=buf, mode="clip")
            lo = 0
        x, y_is_1, mask, n_ones = (buf[lo:lo + B] for buf in buffers)
        lo += B
        np.copyto(gt, y_is_1)
        step = step_gradients(weights, head, x, gt, plan, mask if marginal else None)
        if not (math.isfinite(step.loss) and np.isfinite(step.param_grad).all()):
            raise NonFiniteTrainingError(
                f"non-finite loss or weight gradient at iteration {iteration}"
            )
        weights = weights - cfg.learning_rate * step.param_grad
        y0_mag, y1_mag = _grad_split(y_is_1, step.loss_grad, n_ones)
        history.append(HistoryRow(iteration, step.loss, y0_mag, y1_mag))
    return TrainResult(LinearPixelModel(weights, head), tuple(history), loss_names)


def predict(model: LinearPixelModel, dataset) -> np.ndarray:
    """Model predictions for every sample in a dataset, as one (B, C, I) array."""
    return model_forward(model, np.stack(_features(dataset.samples)))


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
