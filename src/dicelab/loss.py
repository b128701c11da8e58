"""Dice loss over the pooled axes of a reduction scheme, with exact analytic gradient.

Forward, per subset s (one index of the axes the scheme leaves free; the sums
run over its pooled axes Phi):

    sdsc(s) = (2 * sum_s(y * p) + eps) / (sum_s(y) + sum_s(p) + eps)
    loss    = 1 - mean over counted subsets of sdsc(s)

Backward, for an element w inside subset s, with S = sum_s(y) + sum_s(p) + eps
and N = 2 * sum_s(y * p) + eps:

    dloss/dp_w = -(1/K) * (2 * y_w / S - N / S^2)

where K is the number of counted subsets. Because S and N aggregate over the
whole subset, the gradient takes at most two distinct values per subset, one
for y_w = 0 and one for y_w = 1.

Variants: the leaf variant drops subsets whose ground truth is empty (they get
zero gradient and do not count toward K); the marginal variant first folds the
predicted probabilities of unavailable classes into the background column and
routes the background gradient back to them.

One private helper pools the sums for every entry point. It takes Phi as
negative axes, so predictions may carry leading axes (..., B, C, I) against a
single (B, C, I) ground truth: dice_values scores a whole stack of
predictions in one value-only pass, and dice_value_and_grad scores one
prediction and adds the gradient. Both check their inputs, ground truth of
0 and 1 included, then build a LossPlan; planned_value_and_grad is the
gradient pass alone, for a caller such as the training loop that checks its
arrays and builds the plan once for many calls. A counted subset with S = 0
(epsilon 0, empty ground truth and zero prediction) raises
ZeroDenominatorError in place of returning NaN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    RangeViolationError,
    ShapeMismatchError,
    ZeroDenominatorError,
)
from .tensor import ReductionScheme, readonly

DISTRIBUTION_TOL = 1e-6


class Variant(enum.Enum):
    STANDARD = "standard"
    LEAF = "leaf"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class DiceLossConfig:
    """Scheme, smoothing epsilon (scalar or per-class) and variant.

    Per-class epsilon requires a scheme whose subsets are class-pure
    (image-wise or batch-wise). background_class is required for the
    marginal variant and disallowed otherwise.
    """

    scheme: ReductionScheme
    epsilon: float | Sequence[float] | np.ndarray = 1e-7
    variant: Variant = Variant.STANDARD
    background_class: int | None = None

    def __post_init__(self):
        vec = np.asarray(self.epsilon, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(vec)) or np.any(vec < 0.0):
            raise InvalidConfigError(f"epsilon must be finite and non-negative, got {self.epsilon}")
        if not np.isscalar(self.epsilon):
            if not self.scheme.class_pure:
                raise InvalidConfigError(
                    f"per-class epsilon requires a class-pure scheme, got {self.scheme.value}"
                )
            object.__setattr__(self, "epsilon", vec)
        if self.variant is Variant.MARGINAL:
            if self.background_class is None or self.background_class < 0:
                raise InvalidConfigError("marginal variant requires a background_class index")
        elif self.background_class is not None:
            raise InvalidConfigError("background_class is only meaningful for the marginal variant")


@dataclass(frozen=True)
class LossOutput:
    """Loss value plus per-subset diagnostics.

    score and kept have the keepdims shape of the scheme's pooled axes, one
    entry per subset; score is 0 where a subset is not counted.
    """

    value: float
    score: np.ndarray = field(repr=False)
    kept: np.ndarray = field(repr=False)
    effective_subset_count: int


def _check_shapes(gt: np.ndarray, p: np.ndarray, stacked: bool) -> None:
    """gt must be (B, C, I) and p the same shape, or (..., B, C, I) when stacked."""
    if gt.ndim != 3 or p.shape[-3:] != gt.shape or (not stacked and p.ndim != 3):
        raise ShapeMismatchError(f"gt shape {gt.shape} does not match predictions {p.shape}")


def marginal_merge(
    gt: np.ndarray,
    p: np.ndarray,
    mask: np.ndarray | None,
    background_class: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold unavailable-class predictions into the background column.

    gt is the (B, C, I) ground truth and p holds predictions of shape
    (..., B, C, I), so a stack of predictions merges in one call; mask is a
    (B, C) bool array, True where batch element b labels class c. Predictions
    must be softmax-style (class columns sum to 1 per pixel) and the ground
    truth of every unavailable class must already be empty. Merged columns are
    zeroed in place of being physically removed; the returned routing table
    maps, per batch element, each original class to the merged column that now
    carries it (itself when available, background otherwise).
    """
    _check_shapes(gt, p, stacked=True)
    if mask is None:
        raise InvalidConfigError("marginal variant requires an availability mask")
    B, C, I = gt.shape
    if C < 2:
        raise InvalidConfigError("marginal merging requires multiclass (C >= 2) predictions")
    if not (0 <= background_class < C):
        raise InvalidConfigError(f"background_class {background_class} out of range for C={C}")
    if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != (B, C):
        raise ShapeMismatchError(
            f"availability mask must be a ({B}, {C}) bool array, got {np.asarray(mask).dtype} "
            f"{np.shape(mask)}"
        )
    if not np.all(mask[:, background_class]):
        raise InvalidConfigError("background class must be available in every batch element")

    col_sums = p.sum(axis=-2)
    if np.any(np.abs(col_sums - 1.0) > DISTRIBUTION_TOL):
        worst = float(np.max(np.abs(col_sums - 1.0)))
        raise RangeViolationError(f"prediction columns must sum to 1 per pixel (max dev {worst:.3g})")

    unavailable = ~mask
    if np.any(gt[unavailable] != 0.0):
        raise RangeViolationError("ground truth of an unavailable class contains foreground")

    merged = p.copy()
    spill = (merged * unavailable[:, :, None]).sum(axis=-2)
    merged[..., unavailable, :] = 0.0
    merged[..., background_class, :] += spill

    routing = np.where(mask, np.arange(C)[None, :], background_class)
    return merged, routing


def _epsilon(cfg: DiceLossConfig, classes: int) -> float | np.ndarray:
    """Scalar epsilon, or per-class epsilon shaped (C, 1) to broadcast over the sums."""
    eps = cfg.epsilon
    if np.isscalar(eps):
        return float(eps)
    if eps.size != classes:
        raise ShapeMismatchError(
            f"per-class epsilon has {eps.size} entries but tensor has {classes} classes"
        )
    return eps.reshape(-1, 1)


class LossPlan(NamedTuple):
    """A config made ready for calls on C-class tensors: Phi as negative axes
    and epsilon shaped to broadcast over the sums."""

    cfg: DiceLossConfig
    axes: tuple[int, ...]
    eps: float | np.ndarray


def loss_plan(cfg: DiceLossConfig, classes: int) -> LossPlan:
    """The plan of cfg for C = classes; a per-class epsilon must have C entries."""
    return LossPlan(cfg, tuple(a - 3 for a in cfg.scheme.axes), _epsilon(cfg, classes))


def _checked(gt, pred, stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """gt and pred as float64 arrays of matching shapes, gt holding only 0 and 1."""
    y, p = np.asarray(gt, dtype=np.float64), np.asarray(pred, dtype=np.float64)
    _check_shapes(y, p, stacked)
    if not ((y == 0.0) | (y == 1.0)).all():
        raise RangeViolationError("ground-truth values must be exactly 0 or 1")
    return y, p


def _pool(
    y: np.ndarray,
    p: np.ndarray,
    plan: LossPlan,
    mask: np.ndarray | None,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Kept mask, K, N and S of every subset, pooled over the plan's axes Phi.

    y is (B, C, I); p is (..., B, C, I), already merged for the marginal
    variant. Phi is taken as negative axes, so leading axes of p stack
    independent predictions against the one ground truth. kept has the
    keepdims shape of y's sums; N and S carry p's leading axes too.
    """
    axes = plan.axes
    inter = (y * p).sum(axis=axes, keepdims=True)
    gsum = y.sum(axis=axes, keepdims=True)
    psum = p.sum(axis=axes, keepdims=True)
    S = gsum + psum + plan.eps
    variant = plan.cfg.variant
    if variant is Variant.STANDARD:
        kept = np.ones(gsum.shape, dtype=bool)
    else:
        if variant is Variant.LEAF:
            kept = gsum > 0.0
        else:
            # marginal_merge checked that the background is available everywhere,
            # so only subsets made of merged-away classes alone are dropped
            kept = mask[:, :, None].any(axis=axes, keepdims=True)
        np.copyto(S, np.inf, where=~kept)  # a dropped subset scores 0 and gets zero gradient
    if np.count_nonzero(S) < S.size:  # some counted S == 0; cheaper than S.all() on tiny S
        raise ZeroDenominatorError(
            "a counted subset has empty ground truth, all-zero prediction and epsilon 0, "
            "so its Dice score is 0/0"
        )
    N = 2.0 * inter + plan.eps
    return kept, int(np.count_nonzero(kept)), N, S


def _loss_values(score: np.ndarray, kept: np.ndarray, K: int) -> np.ndarray:
    """1 - mean score over the K counted subsets, one value per leading index; 0 when K is 0."""
    if K == 0:
        return np.zeros(score.shape[:-3])
    # with leading axes the boolean index comes back column-major; made row-contiguous,
    # each row sums in the same order as a lone prediction's 1-D score[kept].sum()
    return 1.0 - np.ascontiguousarray(score[..., kept]).sum(axis=-1) / K


def planned_value_and_grad(
    y: np.ndarray,
    p: np.ndarray,
    plan: LossPlan,
    mask: np.ndarray | None = None,
) -> tuple[LossOutput, np.ndarray]:
    """dice_value_and_grad of y and p without its input checks.

    y and p must be float64 (B, C, I) arrays of the plan's class count, y
    holding only 0 and 1; the marginal variant still checks its mask and
    predictions.
    """
    cfg = plan.cfg
    routing = None
    if cfg.variant is Variant.MARGINAL:
        p, routing = marginal_merge(y, p, mask, cfg.background_class)

    kept, K, N, S = _pool(y, p, plan, mask)
    score = N / S
    value = float(_loss_values(score, kept, K))
    if K == 0:
        return LossOutput(value, score, kept, 0), readonly(np.zeros(y.shape))
    ratio = N / (S * S)
    grad = np.empty(y.shape)  # ratio / K where y = 0, (ratio - 2 / S) / K where y = 1
    np.copyto(grad, ratio / K)
    np.copyto(grad, (ratio - 2.0 / S) / K, where=y == 1.0)
    if routing is not None:
        grad = np.take_along_axis(grad, routing[:, :, None], axis=1)
    return LossOutput(value, score, kept, K), readonly(grad)


def dice_value_and_grad(
    gt: np.ndarray,
    pred: np.ndarray,
    cfg: DiceLossConfig,
    mask: np.ndarray | None = None,
) -> tuple[LossOutput, np.ndarray]:
    """Dice loss and its analytic gradient with respect to every prediction element.

    gt and pred are (B, C, I) arrays, gt holding only 0 and 1; the gradient
    is a read-only (B, C, I) array. Dropped subsets (leaf variant, or
    marginal columns merged away) receive exactly zero; for the marginal
    variant the gradient is computed on the merged maps and routed back
    through the background sum.
    """
    y, p = _checked(gt, pred, stacked=False)
    return planned_value_and_grad(y, p, loss_plan(cfg, y.shape[1]), mask)


def dice_values(
    gt: np.ndarray,
    preds: np.ndarray,
    cfg: DiceLossConfig,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Dice loss of every prediction stacked along the leading axes of preds, value only.

    preds has shape (..., B, C, I) against the one (B, C, I) ground truth of
    0 and 1; the result has shape (...), and entry k equals
    dice_value_and_grad(gt, preds[k])[0].value.
    """
    y, p = _checked(gt, preds, stacked=True)
    if cfg.variant is Variant.MARGINAL:
        p = marginal_merge(y, p, mask, cfg.background_class)[0]
    kept, K, N, S = _pool(y, p, loss_plan(cfg, y.shape[1]), mask)
    return _loss_values(N / S, kept, K)
