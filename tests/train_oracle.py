"""The per-step training loop that dicelab.trainer.train must match bit for bit.

Features come from this module's featurize, the sliding-window reduction that
dicelab.trainer.featurize must match bit for bit on images at least two pixels
wide. Each step here gathers its batch by fancy indexing, computes the
predictions itself with np.einsum and scipy.special's expit or softmax, scores
the loss through the checked public dice_value_and_grad, backpropagates
through its own head Jacobian and np.einsum, rebuilds the model, and averages
|grad| with .mean(). train in dicelab.trainer does all of that set-up once per
call and computes the softmax in NumPy; the floating-point operations of a
step, and their order, are the same, so the weights and the history array
must come out equal bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, softmax

from dicelab.errors import NonFiniteTrainingError
from dicelab.loss import Variant, dice_value_and_grad
from dicelab.trainer import (
    N_FEATURES,
    LinearPixelModel,
    StepResult,
    TrainResult,
)


def featurize(image: np.ndarray) -> np.ndarray:
    """(H * W, N_FEATURES) features [bias, intensity, 3x3 local mean, 3x3 local std] of
    one (H, W) image, each 3x3 statistic a .mean() over an edge-padded window view.

    NumPy sums each window row, then the row sums, as dicelab's stacked featurize
    does; except at W = 1, where the window is one contiguous run of nine and
    NumPy sums it pairwise, so the last bit of a mean or std may differ there.
    """
    image = np.asarray(image, dtype=np.float64)
    padded = np.pad(image, 1, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    local_mean = windows.mean(axis=(2, 3))
    centered = windows - local_mean[:, :, None, None]
    local_std = np.sqrt((centered ** 2).mean(axis=(2, 3)))
    feats = np.stack([np.ones_like(image), image, local_mean, local_std], axis=-1)
    return feats.reshape(-1, N_FEATURES)


def forward(model, features) -> np.ndarray:
    """The model's (B, C, I) predictions through SciPy's expit (one class) or softmax."""
    logits = np.einsum("bif,cf->bci", features, model.weights)
    return expit(logits) if model.n_classes == 1 else softmax(logits, axis=1)


def backward(model, features, g, p) -> np.ndarray:
    """dloss/dweights: the head's Jacobian applied to the loss gradient g at the
    predictions p, contracted against the features."""
    if model.n_classes == 1:
        dz = g * p * (1.0 - p)
    else:
        dz = p * (g - np.sum(g * p, axis=1, keepdims=True))
    return np.einsum("bci,bif->cf", dz, features)


def step_gradients(model, features, gt, cfg, mask=None) -> StepResult:
    """One forward/backward pass; the loss sees the model's last gt.shape[1] columns."""
    pred = forward(model, features)
    first = model.n_classes - gt.shape[1]
    out, grad = dice_value_and_grad(gt, pred[:, first:, :], cfg, mask)
    full = grad
    if first > 0:
        full = np.zeros(pred.shape)
        full[:, first:, :] = grad
    dtheta = backward(model, features, full, pred)
    return StepResult(out.value, grad, dtheta)


def grad_split(gt_arr: np.ndarray, grad_arr: np.ndarray) -> tuple[tuple, tuple]:
    n_classes = gt_arr.shape[1]
    y0, y1 = [], []
    for c in range(n_classes):
        g = np.abs(grad_arr[:, c, :])
        m = gt_arr[:, c, :] == 1.0
        y1.append(float(g[m].mean()) if m.any() else 0.0)
        y0.append(float(g[~m].mean()) if (~m).any() else 0.0)
    return tuple(y0), tuple(y1)


def train(dataset, cfg) -> TrainResult:
    """dicelab.trainer.train on a valid dataset and config, one step at a time."""
    n = len(dataset)
    n_fg = dataset.n_classes
    marginal = cfg.loss.variant is Variant.MARGINAL

    feats = np.stack([featurize(image) for image in dataset.images])
    gt_all = dataset.gt.reshape(n, n_fg, -1).astype(np.float64)
    avail_all = dataset.availability
    loss_names = tuple(dataset.class_names)
    if marginal:
        gt_all = np.concatenate([1.0 - gt_all.sum(axis=1, keepdims=True), gt_all], axis=1)
        avail_all = np.concatenate([np.ones((n, 1), dtype=bool), avail_all], axis=1)
        loss_names = ("background",) + loss_names

    model = LinearPixelModel(np.zeros((1 if n_fg == 1 else n_fg + 1, N_FEATURES)))
    rng = np.random.default_rng(cfg.seed)
    history: list[list[float]] = []
    queue: list[np.ndarray] = []
    iteration = 0
    while iteration < cfg.iterations:
        if not queue:
            order = rng.permutation(n)
            n_full = (n // cfg.batch_size) * cfg.batch_size
            queue = [order[i:i + cfg.batch_size] for i in range(0, n_full, cfg.batch_size)]
        idx = queue.pop(0)
        gt = gt_all[idx]
        mask = avail_all[idx] if marginal else None
        step = step_gradients(model, feats[idx], gt, cfg.loss, mask)
        iteration += 1
        if not (math.isfinite(step.loss) and np.isfinite(step.param_grad).all()):
            raise NonFiniteTrainingError(
                f"non-finite loss or weight gradient at iteration {iteration}"
            )
        model = LinearPixelModel(model.weights - cfg.learning_rate * step.param_grad)
        y0, y1 = grad_split(gt, step.loss_grad)
        history.append([step.loss, *y0, *y1])
    rows = np.array(history, dtype=np.float64).reshape(len(history), 1 + 2 * len(loss_names))
    return TrainResult(model, rows, loss_names)
