"""Per-element central differences: the independent oracle for the batched stencil.

One element at a time, the prediction is moved by +h and -h in place and the
loss is evaluated through dice_forward, two calls per element. This is the
plain loop dicelab.gradcheck.finite_diff_grad replaces with a stacked
stencil, kept here so the tests can check that the two agree.
"""

from __future__ import annotations

import numpy as np

from dicelab.loss import dice_forward
from dicelab.tensor import _wrap


def loop_finite_diff_grad(gt, pred, cfg, h=1e-5, mask=None) -> np.ndarray:
    """(loss(p + h*e) - loss(p - h*e)) / 2h per element, as a (B, C, I) array."""
    work = pred.data.copy()
    probe = _wrap(pred.shape, work, freeze=False)
    view = probe.data.reshape(-1)
    grad = np.empty(view.size)
    inv = 1.0 / (2.0 * h)
    for w in range(view.size):
        origin = view[w]
        view[w] = origin + h
        up = dice_forward(gt, probe, cfg, mask).value
        view[w] = origin - h
        down = dice_forward(gt, probe, cfg, mask).value
        view[w] = origin
        grad[w] = (up - down) * inv
    return grad.reshape(pred.shape.as_tuple())
