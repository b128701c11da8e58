"""Calibrate the Dice smoothing term from dataset foreground statistics.

The working heuristic: pick epsilon equal to the expected foreground volume
per reduction subset. At that magnitude the y=0 gradient of an empty map under
an image-wise reduction matches what a large batch-wise reduction would give,
so the model can learn to output empty maps. The balance equation solved here
makes that trade-off explicit:

    2 * a * v / (b * v)^2 = eps / (v + eps)^2

with v the expected foreground volume, a the overlap fraction (intersection =
a*v) and b the union factor (denominator sum = b*v). With a = 1/2 and b = 2
the smallest root is exactly eps = v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyDatasetError, InvalidConfigError, NoRealRootError, ShapeMismatchError,
                     require_array, require_binary, require_number)
from .tensor import ReductionScheme, readonly


@dataclass(frozen=True)
class BalanceParams:
    """Coefficients of the gradient-balance equation."""

    a: float
    b: float
    v_hat: float

    def __post_init__(self):
        for name, value, high in (("overlap coefficient a", self.a, 1.0),
                                  ("union coefficient b", self.b, 4.0),
                                  ("expected volume v_hat", self.v_hat, math.inf)):
            require_number(name, value, 0.0, high)
            if value == 0:  # each lower bound is open
                raise InvalidConfigError(f"{name} must be > 0, got {value!r}")


def calibrate_epsilon(gt: np.ndarray, scheme: ReductionScheme) -> float | np.ndarray:
    """Mean foreground count per reduction subset across a dataset, as the loss epsilon.

    gt is one (B, C, I) array of 0 and 1 (bool or numbers) whose every (batch
    element, class) cell counts as one sample of its class; empty maps are
    included in the mean. Class-pure schemes get a read-only (C,) array, one
    epsilon per class; the others a float, the mean of per-sample totals. The
    value is 0 exactly when every map is empty.
    """
    gt = require_array("ground-truth maps", gt)
    if not isinstance(scheme, ReductionScheme):
        raise InvalidConfigError(f"scheme must be a ReductionScheme, got {scheme!r}")
    if gt.ndim != 3:
        raise ShapeMismatchError(f"ground-truth maps must be (B, C, I), got shape {gt.shape}")
    if len(gt) == 0:
        raise EmptyDatasetError("cannot calibrate epsilon from an empty dataset")
    require_binary("ground-truth", gt)
    per_sample = np.count_nonzero(gt, axis=2)  # exact integer counts
    if scheme.class_pure:
        return readonly(per_sample.mean(axis=0))
    return float(per_sample.sum(axis=1).mean())


def solve_balance_epsilon(p: BalanceParams) -> float:
    """Smallest non-negative root of 2a(v+eps)^2 = eps * b^2 * v.

    Rearranged as a quadratic in eps:

        2a * eps^2 + (4a - b^2) * v * eps + 2a * v^2 = 0
    """
    A = 2.0 * p.a
    B = (4.0 * p.a - p.b * p.b) * p.v_hat
    C = 2.0 * p.a * p.v_hat * p.v_hat
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        raise NoRealRootError(
            f"no real epsilon balances a={p.a}, b={p.b} (discriminant {disc:.3g})"
        )
    if disc == 0.0:
        return -B / (2.0 * A)
    sqrt_disc = math.sqrt(disc)
    roots = sorted(((-B - sqrt_disc) / (2.0 * A), (-B + sqrt_disc) / (2.0 * A)))
    for r in roots:
        if r >= 0.0:
            return r
    raise NoRealRootError(f"both roots negative for a={p.a}, b={p.b}, v={p.v_hat}")
