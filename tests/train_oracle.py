"""The per-step training loop that dicelab.trainer.train must match bit for bit.

Each step here gathers its batch by fancy indexing, scores the loss through
the checked public dice_value_and_grad, runs the public model_forward and
model_backward, rebuilds the model, and averages |grad| with .mean(). train
in dicelab.trainer does all of that set-up once per call; the floating-point
operations of a step, and their order, are the same, so the weights and
every history row must come out equal under ==.
"""

from __future__ import annotations

import math

import numpy as np

from dicelab.errors import NonFiniteTrainingError
from dicelab.loss import Variant, dice_value_and_grad
from dicelab.trainer import (
    N_FEATURES,
    Head,
    HistoryRow,
    LinearPixelModel,
    StepResult,
    TrainResult,
    featurize,
    model_backward,
    model_forward,
)


def step_gradients(model, features, gt, cfg, mask=None) -> StepResult:
    """One forward/backward pass; the loss sees the model's last gt.shape[1] columns."""
    pred = model_forward(model, features)
    first = model.n_classes - gt.shape[1]
    out, grad = dice_value_and_grad(gt, pred[:, first:, :], cfg, mask)
    full = grad
    if first > 0:
        full = np.zeros(pred.shape)
        full[:, first:, :] = grad
    dtheta = model_backward(model, features, full, pred)
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
    n = len(dataset.samples)
    n_fg = dataset.n_classes
    marginal = cfg.loss.variant is Variant.MARGINAL
    head = Head.SIGMOID if n_fg == 1 else Head.SOFTMAX

    feats = np.stack([featurize(s.image) for s in dataset.samples])
    gt_all = np.stack([s.gt.reshape(n_fg, -1) for s in dataset.samples])
    avail_all = np.stack([s.availability for s in dataset.samples])
    loss_names = tuple(dataset.class_names)
    if marginal:
        gt_all = np.concatenate([1.0 - gt_all.sum(axis=1, keepdims=True), gt_all], axis=1)
        avail_all = np.concatenate([np.ones((n, 1), dtype=bool), avail_all], axis=1)
        loss_names = ("background",) + loss_names

    model = LinearPixelModel(np.zeros((1 if n_fg == 1 else n_fg + 1, N_FEATURES)), head)
    rng = np.random.default_rng(cfg.seed)
    history: list[HistoryRow] = []
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
        model = LinearPixelModel(model.weights - cfg.learning_rate * step.param_grad, head)
        y0, y1 = grad_split(gt, step.loss_grad)
        history.append(HistoryRow(iteration, step.loss, y0, y1))
    return TrainResult(model, tuple(history), loss_names)
