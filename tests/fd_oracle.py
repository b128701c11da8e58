"""Per-element central differences: the independent oracles for the gradients.

loop_finite_diff_grad moves one prediction element at a time by +h and -h in
place and evaluates the loss value, two calls per element. This is the plain
loop dicelab.gradcheck.finite_diff_grad replaces with a stacked stencil, kept
here so the tests can check that the two agree.

finite_diff_param_grad does the same over the weights of a linear pixel
model, running the whole model-plus-loss forward for every probe, so the
hand-written backpropagation in dicelab.trainer can be checked end to end.
"""

from __future__ import annotations

import numpy as np

from dicelab.loss import dice_value_and_grad
from dicelab.trainer import LinearPixelModel, model_forward


def loop_finite_diff_grad(gt, pred, cfg, h=1e-5, mask=None) -> np.ndarray:
    """(loss(p + h*e) - loss(p - h*e)) / 2h per element, as a (B, C, I) array."""
    probe = pred.copy()
    view = probe.reshape(-1)
    grad = np.empty(view.size)
    inv = 1.0 / (2.0 * h)
    for w in range(view.size):
        origin = view[w]
        view[w] = origin + h
        up = dice_value_and_grad(gt, probe, cfg, mask)[0].value
        view[w] = origin - h
        down = dice_value_and_grad(gt, probe, cfg, mask)[0].value
        view[w] = origin
        grad[w] = (up - down) * inv
    return grad.reshape(pred.shape)


def evaluate_loss(model, features, gt, cfg, mask=None) -> float:
    """Forward pass through model and loss; the finite-difference target for dtheta.

    The loss sees the model's last gt.shape[1] output columns, as in training.
    """
    pred = model_forward(model, features)
    first = model.n_classes - gt.shape[1]
    return dice_value_and_grad(gt, pred[:, first:, :], cfg, mask)[0].value


def finite_diff_param_grad(model, features, gt, cfg, mask=None, h=1e-5) -> np.ndarray:
    """Central differences of the full model-plus-loss forward over each weight."""
    base = model.weights.copy()
    grad = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        for sign in (1.0, -1.0):
            w = base.copy()
            w[idx] += sign * h
            probe = LinearPixelModel(w, model.head)
            val = evaluate_loss(probe, features, gt, cfg, mask)
            grad[idx] += sign * val
    return grad / (2.0 * h)
