"""Per-pixel linear segmentation model and the gradient-descent loop.

The model is deliberately tiny: four hand-rolled features per pixel through a
linear layer. Its weight matrix fixes the head: one row is a sigmoid (single
class), two or more a softmax (multiclass, background included as class 0).
Backpropagation is written out by hand, so the chain from the Dice-loss
gradient down to the weights is explicit and can be finite-difference checked
end to end.

NumPy computes both heads: the sigmoid as 1 / (1 + exp(-z)), the softmax in
scipy.special.softmax's steps. Each run's weight gradient is one matrix
product, (C, B * I) @ (B * I, F), which BLAS sums in its own order; the logits
keep np.einsum's order bit for bit.

Training takes a group of runs that draw the same batches, such as the cells
of one cross-validation fold, and steps them in lockstep: one forward, one
loss pass per block of runs that share a loss variant and pooled axes, and one
backward per step for all of them. Whatever does not change between steps
(input and label checks, features, each block's loss plan and labels, and the
step's arrays) is set up once per training call; a step slices its batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyDatasetError,
    InvalidConfigError,
    NonFiniteTrainingError,
    RangeViolationError,
    ShapeMismatchError,
    TensorFileError,
    require_array,
    require_int,
    require_number,
    require_type,
)
from .loss import (DiceLossConfig, LossPlan, Variant, check_marginal_labels, loss_plan,
                   planned_value_and_grad)
from .synthdata import SyntheticDataset
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

    def __reduce__(self):  # unpickling builds the model again: checked and read-only
        return LinearPixelModel, (self.weights,)

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
    every pixel and the bias column is exactly 1. Every pixel must be a finite
    real number.
    """
    image = np.asarray(require_array("image", image), dtype=np.float64)
    if image.ndim < 2 or 0 in image.shape[-2:]:
        raise ShapeMismatchError(f"featurize needs (..., H, W) with H, W >= 1, got {image.shape}")
    if not np.isfinite(image).all():
        raise RangeViolationError("image pixels must be finite")
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


def _forward(weights: np.ndarray, feats: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Predictions (R, B, C, I) of R models' weights (R, C, F) for the per-pixel
    features (B, I, F) of one batch, written into out and returned: a sigmoid
    1 / (1 + exp(-z)) for one weight row, else a softmax over the C rows.

    The logits are one matrix-vector product per (model, sample, row), which
    sums the F products in np.einsum's order, so they equal each model's own
    einsum("bif,cf->bci") bit for bit; at I = 1 NumPy takes a dot product,
    which sums in another order, so einsum computes them there. exp(-z)
    overflows to inf below z = -709, and the sigmoid is then 0; the caller
    enters np.errstate(over="ignore") for it, train once for all its steps.
    """
    if feats.shape[1] == 1:
        np.einsum("bif,rcf->rbci", feats, weights, out=out)
    else:
        np.matmul(feats[None, :, None], weights[:, None, :, :, None], out=out[..., None])
    if weights.shape[1] == 1:
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)
    out -= np.max(out, axis=2, keepdims=True)  # scipy.special.softmax's steps
    np.exp(out, out=out)
    out /= np.sum(out, axis=2, keepdims=True)
    return out


def _backward(feats: np.ndarray, g: np.ndarray, p: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """dloss/dweights (R, C, F) from the loss gradient g at p = _forward(...), both
    (R, B, C, I): the head's Jacobian (sigmoid g p (1 - p) for one column, else
    softmax p_c (g_c - sum_c' g_c' p_c')), written into dz laid out (R, C, B, I),
    then the features. Each run's (C, B * I) @ (B * I, F) is its own matrix
    product, so a run's gradient does not depend on the runs beside it.
    """
    R, C, B, I = dz.shape
    jac = dz.transpose(0, 2, 1, 3)
    np.multiply(g, p, out=jac)
    if C == 1:
        jac *= 1.0 - p
    else:
        np.subtract(g, np.sum(jac, axis=2, keepdims=True), out=jac)
        jac *= p
    return np.matmul(dz.reshape(R, C, B * I), feats.reshape(B * I, -1))


class _Block(NamedTuple):
    """The runs of a train call that share a loss variant and pooled axes, on L
    loss classes, and what their loss pass reads and writes at every step."""

    runs: slice  # their slice of the run axis
    first: int  # the first model column their loss sees
    plan: LossPlan  # eps holds one value per run, (R, 1, L, 1) or (R, 1, 1, 1)
    yp: np.ndarray  # (R, B, L, I) buffer for the loss's y * p
    # (ones, counts, mask) of every sample: bool gt (R, n, L, I), its counts of ones
    # (R, n, L) and, under the marginal variant, availability (R, n, L), else None
    labels: tuple
    epoch: tuple  # the same, in the epoch's order
    y0: np.ndarray  # (R, iterations, B, L): each step's subset gradient where y = 0
    y1: np.ndarray  # and where y = 1


def step_gradients(weights: np.ndarray, features: np.ndarray, blocks: Sequence[_Block],
                   batch: slice, iteration: int, pred: np.ndarray, grad: np.ndarray,
                   dz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One forward/backward pass of R runs on one batch: each run's loss value
    (R,) and weight gradient (R, C, F).

    weights is (R, C, F) and features the batch's (B, I, F), shared by every
    run; batch is the batch's slice of each block's epoch-ordered labels, and
    the block records its subsets' two gradient values per (sample, class) map
    at iteration. Each block scores its runs' model columns from its first on,
    so a loss over the foreground classes only still backpropagates through a
    softmax whose column 0 is the background. The step writes the predictions
    into pred, the loss gradient into grad (columns no loss sees stay 0) and
    the gradient at the logits into dz, laid out (R, C, B, I). A sigmoid's
    exp(-z) overflows below z = -709, which train ignores once for all its steps.
    """
    _forward(weights, features, pred)
    loss = np.empty(len(weights))
    for b in blocks:
        ones, counts, mask = b.epoch
        out = planned_value_and_grad(ones[:, batch], pred[b.runs, :, b.first:], b.plan,
                                     None if mask is None else mask[:, batch], counts[:, batch],
                                     b.yp, grad[b.runs, :, b.first:])
        loss[b.runs] = out.value
        b.y0[:, iteration] = out.y0[..., 0]
        b.y1[:, iteration] = out.y1[..., 0]
    return loss, _backward(features, grad, pred, dz)


def _grad_means(y0: np.ndarray, y1: np.ndarray, counts: np.ndarray, mask: np.ndarray | None,
                pixels: int) -> np.ndarray:
    """Per loss class the mean |grad| over a batch's y=0 pixels, then over its
    y=1 pixels, 0 where there are none: (..., 2L) from each (sample, class)
    map's (..., B, L) subset gradient values y0 and y1, counts of ones and,
    under the marginal variant, availability mask.

    A map holds counts pixels of the value y1 and the rest of y0. Under the
    marginal variant an unavailable map holds the background map's gradient,
    so its y=0 pixels carry both of the background's values at its counts.
    """
    n0 = pixels - counts
    s0 = np.abs(y0)
    s0 *= n0
    s1 = np.abs(y1)
    s1 *= counts
    if mask is not None:
        np.copyto(s0, (s0 + s1)[..., :1], where=~mask)
    n = np.concatenate([n0.sum(axis=-2), counts.sum(axis=-2)], axis=-1)
    total = np.concatenate([s0.sum(axis=-2), s1.sum(axis=-2)], axis=-1)
    return np.divide(total, n, out=np.zeros(total.shape), where=n > 0)


@dataclass(frozen=True)
class TrainResult:
    model: LinearPixelModel
    # read-only (iterations, 1 + 2L) for L loss classes; row i - 1 is iteration i: its
    # loss, then per loss class the mean |grad| over y=0 pixels, then over y=1 pixels
    history: np.ndarray
    class_names: tuple[str, ...]  # loss-tensor column names

    def __post_init__(self):
        object.__setattr__(self, "history", readonly(self.history))

    def __reduce__(self):  # unpickling builds the result again: read-only
        return TrainResult, (self.model, self.history, self.class_names)


def _check_runs(runs: list) -> None:
    """InvalidConfigError (or EmptyDatasetError) unless runs can train together."""
    if not runs:
        raise InvalidConfigError("train needs at least one (dataset, TrainConfig) run")
    for k, run in enumerate(runs):
        if not (isinstance(run, (tuple, list)) and len(run) == 2
                and isinstance(run[0], SyntheticDataset) and isinstance(run[1], TrainConfig)):
            raise InvalidConfigError(f"run {k} is not a (SyntheticDataset, TrainConfig) pair")
    dataset, cfg = runs[0]
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if cfg.batch_size > n:
        raise InvalidConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    for ds, c in runs:
        if (c.batch_size, c.iterations, c.seed) != (cfg.batch_size, cfg.iterations, cfg.seed):
            raise InvalidConfigError("runs trained together need one batch size, iteration "
                                     "count and seed")
        if ds.n_classes != dataset.n_classes or not (
                np.array_equal(ds.subject_ids, dataset.subject_ids)
                and np.array_equal(ds.images, dataset.images)):
            raise InvalidConfigError("runs trained together need the same images, subject ids "
                                     "and class count, in the same rows")
        if ds.n_classes == 1 and c.loss.variant is Variant.MARGINAL:
            raise InvalidConfigError("marginal loss needs a softmax head with background")


def _block_key(loss: DiceLossConfig) -> tuple:
    return loss.variant.value, loss.scheme.axes


def train(runs: Sequence[tuple]) -> list[TrainResult]:
    """Plain SGD over whole-sample batches with seeded shuffling, every run of
    runs in lockstep.

    runs is a sequence of (dataset, TrainConfig) pairs that draw the same
    batches: their datasets hold the same images and subject ids in the same
    rows, and their configs one batch size, iteration count and seed.
    Learning rate, loss and labels may differ per run. The result is one
    TrainResult per run, in order, equal bit for bit to the run's own
    train([run]).

    Batches regroup every epoch; a trailing group smaller than batch_size is
    dropped so every step sees the same tensor shape. History is recorded at
    every iteration. A softmax model's background column 0 is in the loss
    only under the marginal variant. A NaN or infinite loss or weight gradient
    stops training with NonFiniteTrainingError naming the iteration; its run
    is the first run of runs that fails, at that run's own iteration.

    Only the step's arithmetic runs every step. The inputs are checked, the
    features computed and the losses planned once per call: a marginal run's
    labels are checked over every sample, so foreground in an unavailable
    map fails before the first step, whether or not a batch draws it. Each epoch
    gathers its shuffled features, and every run's labels, into buffers
    allocated once per call, and each step slices its batch from them. All
    runs share one forward and one backward per step; the runs of one loss
    variant and pooled axes share one loss pass, with one epsilon per run.
    """
    runs = list(runs)
    _check_runs(runs)
    return _train(runs, featurize(runs[0][0].images))


@np.errstate(over="ignore")  # a sigmoid's exp(-z) overflows to inf, and the sigmoid is 0
def _train(runs: list, feats: np.ndarray) -> list[TrainResult]:
    """train on checked runs whose images have the features feats."""
    dataset, cfg = runs[0]
    n, n_fg = len(dataset), dataset.n_classes
    R, B, I = len(runs), cfg.batch_size, feats.shape[1]
    C = 1 if n_fg == 1 else n_fg + 1
    # the runs of one loss variant and pooled axes are one slice of the run axis
    order = sorted(range(R), key=lambda r: _block_key(runs[r][1].loss))
    blocks, names = [], []
    for _, members in itertools.groupby(order, key=lambda r: _block_key(runs[r][1].loss)):
        members = list(members)
        datasets = [runs[r][0] for r in members]
        losses = [runs[r][1].loss for r in members]
        ones = np.stack([ds.gt.reshape(n, n_fg, -1) for ds in datasets])
        mask = None
        block_names = [tuple(ds.class_names) for ds in datasets]
        if losses[0].variant is Variant.MARGINAL:
            # the class maps are disjoint, so the background is where none is set
            ones = np.concatenate([~ones.any(axis=2, keepdims=True), ones], axis=2)
            mask = np.stack([ds.availability for ds in datasets])
            mask = np.concatenate([np.ones((len(datasets), n, 1), dtype=bool), mask], axis=2)
            # labels do not change between steps, so every sample is checked here once
            check_marginal_labels(ones, mask, ones.shape)
            block_names = [("background",) + names_r for names_r in block_names]
        L = ones.shape[2]
        plans = [loss_plan(loss, L) for loss in losses]
        # a per-class epsilon needs a class-pure scheme, so only then may eps span the classes
        shape = (1, L, 1) if any(np.ndim(plan.eps) for plan in plans) else (1, 1, 1)
        eps = np.stack([np.broadcast_to(plan.eps, shape) for plan in plans])
        labels = (ones, np.count_nonzero(ones, axis=3), mask)
        values = np.empty((len(datasets), cfg.iterations, B, L))
        blocks.append(_Block(slice(len(names), len(names) + len(datasets)), C - L,
                             plans[0]._replace(eps=eps), np.empty((len(datasets), B, L, I)),
                             labels, tuple(None if a is None else np.empty_like(a) for a in labels),
                             values, np.empty_like(values)))
        names += block_names

    x_epoch = np.empty_like(feats)
    pred, grad, dz = np.empty((R, B, C, I)), np.zeros((R, B, C, I)), np.empty((R, C, B, I))
    weights = np.zeros((R, C, N_FEATURES))
    rate = np.array([runs[r][1].learning_rate for r in order], dtype=np.float64)[:, None, None]
    loss = np.empty((R, cfg.iterations))
    rng = np.random.default_rng(cfg.seed)
    n_full = (n // B) * B
    # each epoch's shuffled rows, to count the pixels of every batch afterwards
    epochs = [np.empty(0, dtype=np.int64)]
    lo = n_full
    for iteration in range(cfg.iterations):
        if lo == n_full:
            epochs.append(rng.permutation(n))
            np.take(feats, epochs[-1], axis=0, out=x_epoch, mode="clip")
            for b in blocks:
                for src, buf in zip(b.labels, b.epoch):
                    if src is not None:
                        np.take(src, epochs[-1], axis=1, out=buf, mode="clip")
            lo = 0
        batch = slice(lo, lo + B)
        lo += B
        loss[:, iteration], param_grad = step_gradients(weights, x_epoch[batch], blocks, batch,
                                                        iteration, pred, grad, dz)
        if not (np.isfinite(loss[:, iteration]).all() and np.isfinite(param_grad).all()):
            finite = np.isfinite(loss[:, iteration]) & np.isfinite(param_grad).all(axis=(1, 2))
            failed = min(order[k] for k in np.flatnonzero(~finite).tolist())
            if failed:  # an earlier run that fails later is the one to report
                _train(runs[:failed], feats)
            raise NonFiniteTrainingError(
                f"non-finite loss or weight gradient at iteration {iteration + 1}", run=failed)
        weights -= rate * param_grad

    rows = np.concatenate([epoch[:n_full] for epoch in epochs]).reshape(-1, B)
    rows = rows[:cfg.iterations]  # each iteration's batch
    histories = []
    for b in blocks:
        _, counts, mask = b.labels
        means = _grad_means(b.y0, b.y1, counts[:, rows], None if mask is None else mask[:, rows], I)
        histories += list(np.concatenate([loss[b.runs, :, None], means], axis=2))
    results = [None] * R
    for k, r in enumerate(order):
        results[r] = TrainResult(LinearPixelModel(weights[k]), histories[k], names[k])
    return results


def predict(model: LinearPixelModel, dataset) -> np.ndarray:
    """Model predictions for every sample in a dataset, as one (B, C, I) array."""
    require_type("model", model, LinearPixelModel)
    require_type("dataset", dataset, SyntheticDataset)
    feats = featurize(dataset.images)
    out = np.empty((1, len(feats), model.n_classes, feats.shape[1]))
    with np.errstate(over="ignore"):  # a sigmoid's exp(-z) overflows to inf, and the sigmoid is 0
        return readonly(_forward(model.weights[None], feats, out)[0])


def _head_name(classes: int) -> str:
    return "sigmoid" if classes == 1 else "softmax"


def save_model(model: LinearPixelModel, path) -> None:
    """Text header (head, classes, features) followed by f64 LE weights; the head
    is the one the row count gives, sigmoid for one class, softmax otherwise."""
    require_type("model", model, LinearPixelModel)
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
