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
from typing import Sequence

import numpy as np

from .errors import EmptyDatasetError, InvalidConfigError, NoRealRootError, ShapeMismatchError
from .tensor import ReductionScheme


@dataclass(frozen=True)
class EpsilonCalibration:
    """Calibrated epsilon: per-class for class-pure schemes, else one global value."""

    scheme: ReductionScheme
    per_class: list[tuple[int, float]] | None
    global_value: float | None
    all_empty: bool

    def as_loss_epsilon(self) -> float | np.ndarray:
        """Value in the form DiceLossConfig.epsilon expects."""
        if self.per_class is not None:
            return np.array([v for _, v in self.per_class])
        return float(self.global_value)


@dataclass(frozen=True)
class BalanceParams:
    """Coefficients of the gradient-balance equation."""

    a: float
    b: float
    v_hat: float

    def __post_init__(self):
        if not (0.0 < self.a <= 1.0):
            raise InvalidConfigError(f"overlap coefficient a must be in (0, 1], got {self.a}")
        if not (0.0 < self.b <= 4.0):
            raise InvalidConfigError(f"union coefficient b must be in (0, 4], got {self.b}")
        if not self.v_hat > 0.0:
            raise InvalidConfigError(f"expected volume v_hat must be positive, got {self.v_hat}")


def calibrate_epsilon(
    gt_maps: Sequence[np.ndarray],
    scheme: ReductionScheme,
) -> EpsilonCalibration:
    """Mean foreground count per reduction subset across a dataset.

    Each map is a (B, C, I) array whose every (batch element, class) cell
    counts as one sample of its class; empty maps are included in the mean.
    Class-pure schemes get one epsilon per class, the others a single global
    mean of per-sample totals.
    """
    counts = []
    classes = None
    for t in gt_maps:
        t = np.asarray(t)
        if t.ndim != 3:
            raise ShapeMismatchError(f"ground-truth maps must be (B, C, I), got shape {t.shape}")
        if classes is None:
            classes = t.shape[1]
        elif t.shape[1] != classes:
            raise ShapeMismatchError(
                f"inconsistent class count in dataset: {t.shape[1]} != {classes}")
        counts.append(t.sum(axis=2))
    if not counts:
        raise EmptyDatasetError("cannot calibrate epsilon from an empty dataset")
    per_sample = np.concatenate(counts, axis=0)
    all_empty = bool(np.all(per_sample == 0.0))
    if scheme.class_pure:
        means = per_sample.mean(axis=0)
        return EpsilonCalibration(
            scheme=scheme,
            per_class=[(c, float(means[c])) for c in range(classes)],
            global_value=None,
            all_empty=all_empty,
        )
    return EpsilonCalibration(
        scheme=scheme,
        per_class=None,
        global_value=float(per_sample.sum(axis=1).mean()),
        all_empty=all_empty,
    )


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
