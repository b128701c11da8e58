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
predicted probabilities of unavailable classes into the background, class 0,
and routes the background gradient back to them.

One private helper pools the sums for every entry point. It takes Phi as
negative axes, so the ground truth and the predictions may both carry leading
axes, (..., B, C, I), which broadcast against each other: dice_values scores a
whole stack of (ground truth, prediction) pairs in one value-only pass,
dice_grads gives the gradient of each pair of a stack, and dice_value_and_grad
scores one (B, C, I) pair and adds the gradient. All three check their inputs
(ground truth of 0 and 1, predictions in [0, 1]), then build a LossPlan; a
caller may pass a LossPlan in place of the config, for instance one whose
epsilon holds one value per stacked ground truth. planned_value_and_grad is
the value and gradient pass alone over a stack, for a caller such as the
training loop that checks its arrays, builds the plan and allocates the
buffers the pass writes once for many calls, and knows the ground truth's
counts of ones; it also hands back each subset's two gradient values.
A counted subset with S = 0 (epsilon 0, empty ground truth and zero
prediction) raises ZeroDenominatorError in place of returning NaN.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    RangeViolationError,
    ShapeMismatchError,
    ZeroDenominatorError,
    require_binary,
    require_number,
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
    (image-wise or batch-wise); it is stored as a float64 array, a scalar
    epsilon as a float. The marginal variant's background is class 0.
    """

    scheme: ReductionScheme
    epsilon: float | Sequence[float] | np.ndarray = 1e-7
    variant: Variant = Variant.STANDARD

    def __post_init__(self):
        if not isinstance(self.scheme, ReductionScheme):
            raise InvalidConfigError(f"scheme must be a ReductionScheme, got {self.scheme!r}")
        if not isinstance(self.variant, Variant):
            raise InvalidConfigError(f"variant must be a Variant, got {self.variant!r}")
        # NumPy would parse "1.0" and take True as 1.0, so each cell must be a real
        # number; the rows of a ragged sequence are cells, and not numbers
        cells = np.asarray(self.epsilon, dtype=object)
        if cells.ndim > 1:
            raise InvalidConfigError(f"epsilon must be a number or a 1-D sequence of numbers, "
                                     f"got {self.epsilon!r}")
        for v in cells.reshape(-1).tolist():
            require_number("epsilon", v, 0)
        if np.isscalar(self.epsilon):
            object.__setattr__(self, "epsilon", float(self.epsilon))
        elif not self.scheme.class_pure:
            raise InvalidConfigError(
                f"per-class epsilon requires a class-pure scheme, got {self.scheme.value}"
            )
        else:
            object.__setattr__(self, "epsilon", cells.astype(np.float64).reshape(-1))


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
    """gt and p must both be (B, C, I); when stacked, each may carry leading axes
    that broadcast against the other's."""
    ok = min(gt.ndim, p.ndim) >= 3 and p.shape[-3:] == gt.shape[-3:]
    if ok and not stacked:
        ok = gt.ndim == p.ndim == 3
    elif ok and gt.shape != p.shape:
        try:
            np.broadcast_shapes(gt.shape, p.shape)
        except ValueError:
            ok = False
    if not ok:
        raise ShapeMismatchError(f"gt shape {gt.shape} does not match predictions {p.shape}")


def marginal_merge(
    gt: np.ndarray,
    p: np.ndarray,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Fold unavailable-class predictions into the background column, class 0.

    gt is the ground truth and p the predictions, both (..., B, C, I) with
    leading axes that broadcast, so a stack merges in one call; mask is a
    (..., B, C) bool array, True where batch element b labels class c, whose
    leading axes broadcast against theirs. Predictions
    must be softmax-style (class columns sum to 1 per pixel) and the ground
    truth of every unavailable class must already be empty. Merged columns are
    zeroed in place of being physically removed.
    """
    _check_shapes(gt, p, stacked=True)
    if mask is None:
        raise InvalidConfigError("marginal variant requires an availability mask")
    B, C, I = gt.shape[-3:]
    if C < 2:
        raise InvalidConfigError("marginal merging requires multiclass (C >= 2) predictions")
    try:
        if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape[-2:] != (B, C) \
                or mask.ndim > max(gt.ndim, p.ndim) - 1:
            raise ValueError
        shape = np.broadcast_shapes(gt.shape, p.shape, mask.shape + (1,))
    except ValueError:
        raise ShapeMismatchError(
            f"availability mask must be a (..., {B}, {C}) bool array whose leading axes "
            f"broadcast, got {np.asarray(mask).dtype} {np.shape(mask)}"
        ) from None
    if not np.all(mask[..., 0]):
        raise InvalidConfigError("background class must be available in every batch element")

    col_sums = p.sum(axis=-2)
    if np.any(np.abs(col_sums - 1.0) > DISTRIBUTION_TOL):
        worst = float(np.max(np.abs(col_sums - 1.0)))
        raise RangeViolationError(f"prediction columns must sum to 1 per pixel (max dev {worst:.3g})")

    hidden = np.broadcast_to(~mask, shape[:-1])
    if np.any(np.broadcast_to(gt, shape)[hidden]):
        raise RangeViolationError("ground truth of an unavailable class contains foreground")

    merged = np.empty(shape)
    np.copyto(merged, p)
    # the merged-away columns in class order, after the background's 0
    spill = np.sum(merged, axis=-2, where=hidden[..., None])
    merged[hidden] = 0.0
    merged[..., 0, :] += spill
    return merged


def _epsilon(cfg: DiceLossConfig, classes: int) -> float | np.ndarray:
    """Scalar epsilon, or per-class epsilon shaped (C, 1) to broadcast over the sums."""
    eps = cfg.epsilon
    if isinstance(eps, float):
        return eps
    if eps.size != classes:
        raise ShapeMismatchError(
            f"per-class epsilon has {eps.size} entries but tensor has {classes} classes"
        )
    return eps.reshape(-1, 1)


class LossPlan(NamedTuple):
    """A config made ready for calls on C-class tensors: Phi as negative axes
    and epsilon shaped to broadcast over the sums.

    eps is a float, a per-class (C, 1) array, or one value per stacked ground
    truth: an array of the ground truth's leading axes followed by (1, C, 1)
    or (1, 1, 1). The plan's eps is the one used, whatever cfg.epsilon holds.
    """

    cfg: DiceLossConfig
    axes: tuple[int, ...]
    eps: float | np.ndarray


def loss_plan(cfg: DiceLossConfig | LossPlan, classes: int) -> LossPlan:
    """The plan of cfg for C = classes, or cfg itself when it is a plan already;
    a per-class epsilon must have C entries."""
    if isinstance(cfg, LossPlan):
        return cfg
    return LossPlan(cfg, tuple(a - 3 for a in cfg.scheme.axes), _epsilon(cfg, classes))


def _checked(gt, pred, stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """gt and pred as float64 arrays of matching shapes, gt of 0 and 1, pred in [0, 1]."""
    y, p = np.asarray(gt, dtype=np.float64), np.asarray(pred, dtype=np.float64)
    _check_shapes(y, p, stacked)
    require_binary("ground-truth", y)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise RangeViolationError("prediction values must lie in [0, 1]")
    return y, p


def _pool(
    y: np.ndarray,
    p: np.ndarray,
    plan: LossPlan,
    mask: np.ndarray | None,
    counts: np.ndarray | None = None,
    yp: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Kept mask, N and S of every subset, pooled over the plan's axes Phi.

    y (0 and 1, as float64 or bool) and p are (..., B, C, I) with leading axes
    that broadcast; p is merged here first for the marginal variant. Phi is
    taken as negative axes, so leading axes stack independent pairs. N and S
    carry the broadcast leading axes; kept is None under the standard
    variant, which counts every subset, else (B', C', 1), the keepdims shape
    of one pair's sums, unless the leaf variant drops subsets of a stacked y
    or the marginal variant's mask has leading axes, where it carries them.
    counts, when given, is y's (..., B, C) count of ones: its pooled sums are
    exact integers, so they equal y's bit for bit. yp, when given, receives
    y * p.
    """
    axes = plan.axes
    variant = plan.cfg.variant
    if variant is Variant.MARGINAL:
        p = marginal_merge(y, p, mask)
    inter = np.multiply(y, p, out=yp).sum(axis=axes, keepdims=True)
    if counts is None:
        gsum = y.sum(axis=axes, keepdims=True)
    else:
        gsum = counts[..., None].sum(axis=axes, keepdims=True)
    psum = p.sum(axis=axes, keepdims=True)
    S = gsum + psum + plan.eps
    kept = None
    if variant is Variant.LEAF:
        kept = gsum > 0.0
    elif variant is Variant.MARGINAL:
        # marginal_merge checked that the background is available everywhere,
        # so only subsets made of merged-away classes alone are dropped
        kept = mask[..., None].any(axis=axes, keepdims=True)
    if kept is not None:
        np.copyto(S, np.inf, where=~kept)  # a dropped subset scores 0 and gets zero gradient
    if np.count_nonzero(S) < S.size:  # some counted S == 0; cheaper than S.all() on tiny S
        raise ZeroDenominatorError(
            "a counted subset has empty ground truth, all-zero prediction and epsilon 0, "
            "so its Dice score is 0/0"
        )
    N = 2.0 * inter + plan.eps
    return kept, N, S


def _loss_values(score: np.ndarray, kept: np.ndarray | None) -> np.ndarray:
    """1 - mean score over the counted subsets, one value per leading index of
    score; 0 where no subset counts. kept None counts every subset.

    Each value sums its K kept scores as one row-contiguous run, in the order
    of a lone pair's 1-D score[kept].sum(), so a stacked value equals the lone
    one bit for bit. A kept mask with leading axes (the leaf variant on a
    stacked ground truth) groups the rows by K.
    """
    if kept is None or kept.ndim == 3:  # every leading index counts the same subsets
        K = math.prod(score.shape[-3:]) if kept is None else np.count_nonzero(kept)
        if K == 0:
            return np.zeros(score.shape[:-3])
        # score is C-contiguous, so its rows already run in that order; with leading
        # axes the boolean index comes back column-major and is made row-contiguous
        counted = (score.reshape(*score.shape[:-3], K) if kept is None
                   else np.ascontiguousarray(score[..., kept]))
        return 1.0 - counted.sum(axis=-1) / K
    rows = score.reshape(-1, math.prod(score.shape[-3:]))
    keep = np.broadcast_to(kept, score.shape).reshape(rows.shape)
    counts = np.count_nonzero(keep, axis=1)
    values = np.zeros(len(rows))
    for K in set(counts.tolist()) - {0}:
        group = counts == K
        values[group] = 1.0 - rows[group][keep[group]].reshape(-1, K).sum(axis=-1) / K
    return values.reshape(score.shape[:-3])


def _subset_counts(S: np.ndarray, kept: np.ndarray | None):
    """K of each stacked pair of S's leading axes, raised to at least 1: an int
    when every subset counts, else an array that broadcasts against S."""
    if kept is None:
        return math.prod(S.shape[-3:])
    return np.maximum(np.count_nonzero(kept, axis=(-3, -2, -1), keepdims=True), 1)


def _grad(out: np.ndarray, ones: np.ndarray, K, N: np.ndarray, S: np.ndarray,
          plan: LossPlan, mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Fill out with the gradient from the pooled N and S; return each subset's
    two values, for y = 0 and for y = 1, in the keepdims shape of the sums.

    ratio / K where y = 0 and (ratio - 2 / S) / K where ones marks y = 1,
    ratio = N / S^2, with K the counted subsets, one int or one per pair,
    raised to at least 1. Dropped subsets have S = inf, so they, and every
    subset of a pair with none counted, get exactly 0. Under the marginal
    variant, an unavailable (b, c) column takes the background column's
    gradient, as its predictions were merged into the background.
    """
    ratio = N / (S * S)
    y0, y1 = ratio / K, (ratio - 2.0 / S) / K
    np.copyto(out, y0)
    np.copyto(out, y1, where=ones)
    if plan.cfg.variant is Variant.MARGINAL:
        np.copyto(out, out[..., :1, :], where=~mask[..., None])
    return y0, y1


def planned_value_and_grad(
    ones: np.ndarray,
    p: np.ndarray,
    plan: LossPlan,
    mask: np.ndarray | None,
    counts: np.ndarray,
    yp: np.ndarray,
    out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dice_value_and_grad of a stack of R pairs without its input checks: each
    pair's loss value, and each subset's gradient for y = 0 and for y = 1 as
    _grad returns them; the gradient goes into out.

    ones is the ground truth as a bool (R, B, C, I) array of the plan's class
    count and p the float64 predictions of that shape; counts is the (R, B, C)
    count of ones, mask None or (R, B, C), yp a C-contiguous (R, B, C, I)
    float64 buffer for y * p (so its sums run in a fresh product's order) and
    out an (R, B, C, I) float64 one. The plan's eps holds one value per pair,
    as (R, 1, C, 1) or (R, 1, 1, 1). The marginal variant still checks its
    mask and predictions.
    """
    kept, N, S = _pool(ones, p, plan, mask, counts, yp)
    y0, y1 = _grad(out, ones, _subset_counts(S, kept), N, S, plan, mask)
    return _loss_values(N / S, kept), y0, y1


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
    plan = loss_plan(cfg, y.shape[1])
    kept, N, S = _pool(y, p, plan, mask)
    score = N / S
    if kept is None:
        kept = np.ones(score.shape, dtype=bool)
    K = np.count_nonzero(kept)
    grad = np.empty(y.shape)
    _grad(grad, y == 1.0, max(K, 1), N, S, plan, mask)
    return LossOutput(float(_loss_values(score, kept)), score, kept, K), readonly(grad)


def dice_values(
    gt: np.ndarray,
    preds: np.ndarray,
    cfg: DiceLossConfig | LossPlan,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Dice loss of every (ground truth, prediction) pair of a stack, value only.

    gt and preds have shapes (..., B, C, I) whose leading axes broadcast, gt
    holding only 0 and 1; the result has the broadcast leading shape, and the
    entry of pair k equals dice_value_and_grad(gt[k], preds[k])[0].value.
    """
    y, p = _checked(gt, preds, stacked=True)
    kept, N, S = _pool(y, p, loss_plan(cfg, y.shape[-2]), mask)
    return _loss_values(N / S, kept)


def dice_grads(
    gt: np.ndarray,
    preds: np.ndarray,
    cfg: DiceLossConfig | LossPlan,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic gradient of every (ground truth, prediction) pair of a stack.

    gt and preds are as for dice_values; the result is read-only, of the
    broadcast shape (..., B, C, I), and the gradient of pair k equals
    dice_value_and_grad(gt[k], preds[k])[1].
    """
    y, p = _checked(gt, preds, stacked=True)
    plan = loss_plan(cfg, y.shape[-2])
    kept, N, S = _pool(y, p, plan, mask)
    grad = np.empty(np.broadcast_shapes(y.shape, p.shape))
    _grad(grad, y == 1.0, _subset_counts(S, kept), N, S, plan, mask)
    return readonly(grad)
