"""Per-pixel linear segmentation model and the gradient-descent loop.

The model is deliberately tiny: four hand-rolled features per pixel through a
linear layer. Its weight matrix fixes the head: one row is a sigmoid (single
class), two or more a softmax (multiclass, background included as class 0).
Backpropagation is written out by hand, so the chain from the Dice-loss
gradient down to the weights is explicit and can be finite-difference checked
end to end.

NumPy computes the softmax. SciPy serves only the sigmoid head's expit and is
imported on the first sigmoid step, so multiclass training never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyDatasetError,
    InvalidConfigError,
    NonFiniteTrainingError,
    ShapeMismatchError,
    TensorFileError,
    require_int,
    require_number,
)
from .loss import DiceLossConfig, LossPlan, Variant, loss_plan, planned_value_and_grad
from .tensor import readonly

N_FEATURES = 4
_MODEL_MAGIC = "DLM1"


@dataclass(frozen=True)
class LinearPixelModel:
    """A read-only (n_classes, N_FEATURES) matrix of finite weights; one row is a
    sigmoid model, two or more a softmax model whose row 0 is the background."""

    weights: np.ndarray

    def __post_init__(self):
        # NumPy would parse "1" and take True as 1.0, so each cell must be a real
        # number; the rows of a ragged list are cells, and not numbers
        cells = np.asarray(self.weights, dtype=object)
        for v in cells.reshape(-1).tolist():
            require_number("each weight", v, -math.inf)
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] != N_FEATURES:
            raise ShapeMismatchError(f"weights must be (classes, {N_FEATURES}), got {cells.shape}")
        object.__setattr__(self, "weights", readonly(cells))

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
        if not isinstance(self.loss, DiceLossConfig):
            raise InvalidConfigError(f"loss must be a DiceLossConfig, got {self.loss!r}")
        require_int("batch_size", self.batch_size, 1)
        require_number("learning_rate", self.learning_rate, 0)
        require_int("iterations", self.iterations, 0)
        require_int("seed", self.seed, 0)


def featurize(image: np.ndarray) -> np.ndarray:
    """Per-pixel features [bias, intensity, 3x3 local mean, 3x3 local std] of one
    (H, W) image or a stack (..., H, W), as (..., H * W, N_FEATURES).

    Border neighborhoods are edge-replicated, so the output is defined for
    every pixel and the bias column is exactly 1.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim < 2 or 0 in image.shape[-2:]:
        raise ShapeMismatchError(f"featurize needs (..., H, W) with H, W >= 1, got {image.shape}")
    h, w = image.shape[-2:]
    padded = np.pad(image, [(0, 0)] * (image.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    # window row sums, then their sum: NumPy's order for .mean over a window view
    rows = padded[..., 0:w] + padded[..., 1:w + 1]  # (..., H + 2, W)
    rows += padded[..., 2:w + 2]
    mean = rows[..., 0:h, :] + rows[..., 1:h + 1, :]
    mean += rows[..., 2:h + 2, :]
    mean /= 9
    # two-pass variance, zero on constant neighborhoods; row i's first term lands in sq[i]
    sq, d = [np.empty(image.shape) for _ in range(3)], np.empty(image.shape)
    for i in range(3):
        for j in range(3):
            term = np.subtract(padded[..., i:i + h, j:j + w], mean, out=d if j else sq[i])
            term *= term
            if j:
                sq[i] += d
    sq[0] += sq[1]
    sq[0] += sq[2]
    feats = np.empty((*image.shape, N_FEATURES))
    feats[..., 0], feats[..., 1], feats[..., 2] = 1.0, image, mean
    np.sqrt(sq[0] / 9, out=feats[..., 3])
    return feats.reshape(*image.shape[:-2], h * w, N_FEATURES)


@functools.cache
def _expit():
    from scipy.special import expit  # a 0.25 s import, paid by sigmoid runs only
    return expit


def _forward(weights: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Predictions (B, C, I) of the model for per-pixel features (B, I, F):
    a sigmoid for one weight row, else a softmax over the C rows."""
    logits = np.einsum("bif,cf->bci", feats, weights)
    if weights.shape[0] == 1:
        return _expit()(logits)
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))  # scipy.special.softmax's steps
    return e / np.sum(e, axis=1, keepdims=True)


def _backward(feats: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dloss/dweights from the loss gradient g at p = _forward(...): the head's Jacobian
    (sigmoid g p (1 - p) for one column, else softmax p_c (g_c - sum_c' g_c' p_c')),
    then the features."""
    if p.shape[1] == 1:
        dz = g * p * (1.0 - p)
    else:
        dz = p * (g - np.sum(g * p, axis=1, keepdims=True))
    return np.einsum("bci,bif->cf", dz, feats)


class StepResult(NamedTuple):
    loss: float
    loss_grad: np.ndarray
    param_grad: np.ndarray


def step_gradients(
    weights: np.ndarray,
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
    pred = _forward(weights, features)
    first = weights.shape[0] - gt.shape[1]
    out, grad = planned_value_and_grad(gt, pred[:, first:, :], plan, mask)
    full = grad
    if first > 0:
        full = np.zeros(pred.shape)
        full[:, first:, :] = grad
    return StepResult(out.value, grad, _backward(features, full, pred))


@dataclass(frozen=True)
class TrainResult:
    model: LinearPixelModel
    # read-only (iterations, 1 + 2L) for L loss classes; row i - 1 is iteration i: its
    # loss, then per loss class the mean |grad| over y=0 pixels, then over y=1 pixels
    history: np.ndarray
    class_names: tuple[str, ...]  # loss-tensor column names


def _grad_split(ones: np.ndarray, grad: np.ndarray, n_ones: np.ndarray, out: np.ndarray) -> None:
    """Mean |grad| over the y=0 pixels of loss class c into out[c], over its y=1 pixels
    into out[L + c]; 0 where there are none.

    ones marks the y=1 pixels and n_ones counts them per (sample, class);
    np.add.reduce(x) / n is x.mean() bit for bit.
    """
    a = np.abs(grad)
    zeros = ~ones
    L = ones.shape[1]
    for c, k1 in enumerate(np.add.reduce(n_ones, axis=0).tolist()):
        k0 = ones.shape[0] * ones.shape[2] - k1
        g = a[:, c, :]
        out[L + c] = np.add.reduce(g[ones[:, c, :]]) / k1 if k1 else 0.0
        out[c] = np.add.reduce(g[zeros[:, c, :]]) / k0 if k0 else 0.0


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
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if cfg.batch_size > n:
        raise InvalidConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    n_fg = dataset.n_classes
    marginal = cfg.loss.variant is Variant.MARGINAL
    if n_fg == 1 and marginal:
        raise InvalidConfigError("marginal loss needs a softmax head with background")

    feats = featurize(dataset.images)
    ones = dataset.gt.reshape(n, n_fg, -1)
    avail = dataset.availability
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
    history = np.empty((cfg.iterations, 1 + 2 * len(loss_names)))
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
        step = step_gradients(weights, x, gt, plan, mask if marginal else None)
        if not (math.isfinite(step.loss) and np.isfinite(step.param_grad).all()):
            raise NonFiniteTrainingError(
                f"non-finite loss or weight gradient at iteration {iteration}"
            )
        weights = weights - cfg.learning_rate * step.param_grad
        row = history[iteration - 1]
        row[0] = step.loss
        _grad_split(y_is_1, step.loss_grad, n_ones, row[1:])
    return TrainResult(LinearPixelModel(weights), readonly(history), loss_names)


def predict(model: LinearPixelModel, dataset) -> np.ndarray:
    """Model predictions for every sample in a dataset, as one (B, C, I) array."""
    return readonly(_forward(model.weights, featurize(dataset.images)))


def _head_name(classes: int) -> str:
    return "sigmoid" if classes == 1 else "softmax"


def save_model(model: LinearPixelModel, path) -> None:
    """Text header (head, classes, features) followed by f64 LE weights; the head
    is the one the row count gives, sigmoid for one class, softmax otherwise."""
    c, f = model.weights.shape
    header = f"{_MODEL_MAGIC} head={_head_name(c)} classes={c} features={f}\n"
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
        head = fields["head"]
        c = int(fields["classes"])
        f = int(fields["features"])
    except (KeyError, ValueError) as exc:
        raise TensorFileError(f"{path}: malformed header") from exc
    if c < 1 or f != N_FEATURES:
        raise TensorFileError(f"{path}: a model needs classes >= 1 and features={N_FEATURES}, "
                              f"got classes={c}, features={f}")
    if head != _head_name(c):
        raise TensorFileError(f"{path}: head={head} does not fit classes={c}")
    payload = blob[newline + 1:]
    if len(payload) != 8 * c * f:
        raise TensorFileError(f"{path}: expected {8 * c * f} payload bytes, got {len(payload)}")
    weights = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(c, f)
    if not np.isfinite(weights).all():
        raise TensorFileError(f"{path}: weights are not all finite")
    return LinearPixelModel(weights)
