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

One private helper pools the sums. It takes Phi as negative axes, so the
ground truth and the predictions may both carry leading axes, (..., B, C, I),
which broadcast against each other and stack independent pairs.
planned_value_and_grad is the one value and gradient pass: over bool ground
truth and its counts of ones it writes each pair's gradient into a buffer and
returns a LossOutput, each pair's value and each subset's two gradient values.
The two checked entry points are dice_value_and_grad, which runs that pass on
one (B, C, I) pair or a stack, and dice_values, the value-only exit the
finite-difference oracle calls. Both check their inputs (arrays of
real numbers, ground truth of 0 and 1, predictions in [0, 1]) and build a
LossPlan; a caller may pass a LossPlan in place of the config, for instance
one whose epsilon holds one value per stacked ground truth. The training loop
calls planned_value_and_grad itself: it checks its arrays, builds the plan and
allocates the buffers once for many calls.

A leaf or marginal pass that drops no subset computes the standard loss bit
for bit, so it takes the standard path; the marginal variant merges and
routes only where its mask hides a map. Its label checks,
check_marginal_labels, read no predictions, so they run once per checked call
or per training run; the column-sum check on the predictions runs every pass.
A counted subset with S = 0 (epsilon 0, empty ground truth and zero
prediction) raises ZeroDenominatorError in place of returning NaN.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    RangeViolationError,
    ShapeMismatchError,
    ZeroDenominatorError,
    require_array,
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


class LossOutput(NamedTuple):
    """Each pair's loss and its per-subset diagnostics.

    value and effective_subset_count (K, 0 where no subset counts) have the
    pairs' leading shape, NumPy scalars for a lone pair. kept, y0 and y1 have
    the keepdims shape of the sums over Phi, leading axes included: kept is
    True where a subset counts, and y0 and y1 are each subset's gradient
    where y = 0 and where y = 1, exactly 0 where it does not count.
    """

    value: float | np.ndarray
    kept: np.ndarray
    effective_subset_count: int | np.ndarray
    y0: np.ndarray
    y1: np.ndarray


def _check_shapes(gt: np.ndarray, p: np.ndarray) -> None:
    """gt and p must both be (..., B, C, I) of one (B, C, I), with leading axes
    that broadcast against each other."""
    ok = min(gt.ndim, p.ndim) >= 3 and p.shape[-3:] == gt.shape[-3:]
    if ok and gt.shape != p.shape:
        try:
            np.broadcast_shapes(gt.shape, p.shape)
        except ValueError:
            ok = False
    if not ok:
        raise ShapeMismatchError(f"gt shape {gt.shape} does not match predictions {p.shape}")


def _check_values(y: np.ndarray, p: np.ndarray) -> None:
    """RangeViolationError unless y holds 0 and 1 and p lies in [0, 1]."""
    require_binary("ground-truth", y)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise RangeViolationError("prediction values must lie in [0, 1]")


def check_marginal_labels(gt: np.ndarray, mask, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The marginal variant's checks that read labels alone, and the broadcast
    shape of the pairs and the mask.

    gt is the (..., B, C, I) ground truth, C >= 2, and shape the broadcast
    shape of the pairs. mask must be a (..., B, C) bool array, True where
    batch element b labels class c, whose leading axes broadcast against
    shape; the background, class 0, must be available everywhere, and the
    ground truth of every unavailable class must be empty. Labels do not
    change between steps, so a caller checks them once for many passes.
    """
    if mask is None:
        raise InvalidConfigError("marginal variant requires an availability mask")
    B, C, I = gt.shape[-3:]
    if C < 2:
        raise InvalidConfigError("marginal merging requires multiclass (C >= 2) predictions")
    try:
        if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape[-2:] != (B, C) \
                or mask.ndim > len(shape) - 1:
            raise ValueError
        shape = np.broadcast_shapes(shape, mask.shape + (1,))
    except ValueError:
        raise ShapeMismatchError(
            f"availability mask must be a (..., {B}, {C}) bool array whose leading axes "
            f"broadcast, got {np.asarray(mask).dtype} {np.shape(mask)}"
        ) from None
    if not np.all(mask[..., 0]):
        raise InvalidConfigError("background class must be available in every batch element")
    if np.any(np.broadcast_to(gt, shape)[np.broadcast_to(~mask, shape[:-1])]):
        raise RangeViolationError("ground truth of an unavailable class contains foreground")
    return shape


def _check_columns(p: np.ndarray) -> None:
    """Softmax-style predictions: the class columns sum to 1 per pixel."""
    dev = p.sum(axis=-2)
    dev -= 1.0
    np.abs(dev, out=dev)
    if not (dev <= DISTRIBUTION_TOL).all():  # NaN fails too
        raise RangeViolationError(
            f"prediction columns must sum to 1 per pixel (max dev {float(dev.max()):.3g})")


def _merge(p: np.ndarray, mask: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """p broadcast to shape, with each column that mask marks unavailable added
    to the background column, class 0, and zeroed."""
    hidden = np.broadcast_to(~mask, shape[:-1])
    merged = np.empty(shape)
    np.copyto(merged, p)
    # the merged-away columns in class order, after the background's 0
    spill = np.sum(merged, axis=-2, where=hidden[..., None])
    merged[hidden] = 0.0
    merged[..., 0, :] += spill
    return merged


def marginal_merge(gt, p, mask: np.ndarray | None) -> np.ndarray:
    """Fold unavailable-class predictions into the background column, class 0.

    gt is the ground truth and p the predictions, both (..., B, C, I) with
    leading axes that broadcast, so a stack merges in one call; mask is a
    (..., B, C) bool array, True where batch element b labels class c, whose
    leading axes broadcast against theirs. The ground truth holds 0 and 1,
    and the ground truth of every unavailable class must already be empty;
    predictions must lie in [0, 1] and be softmax-style (class columns sum to
    1 per pixel). Merged columns are zeroed in place of being physically
    removed.
    """
    gt = require_array("ground truth", gt)
    p = require_array("predictions", p)
    _check_shapes(gt, p)
    _check_values(gt, p)
    shape = check_marginal_labels(gt, mask, np.broadcast_shapes(gt.shape, p.shape))
    _check_columns(p)
    return _merge(p, mask, shape)


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
    a per-class epsilon must have C entries, and anything else is an
    InvalidConfigError."""
    if isinstance(cfg, LossPlan):
        return cfg
    if not isinstance(cfg, DiceLossConfig):
        raise InvalidConfigError(f"loss config must be a DiceLossConfig or a LossPlan, got {cfg!r}")
    return LossPlan(cfg, tuple(a - 3 for a in cfg.scheme.axes), _epsilon(cfg, classes))


def _hiding(plan: LossPlan, mask: np.ndarray | None) -> np.ndarray | None:
    """mask, when the plan's variant is marginal and mask hides some (b, c) map;
    else None, and the pass is the standard one."""
    if plan.cfg.variant is Variant.MARGINAL and mask is not None and not mask.all():
        return mask
    return None


def _checked(gt, pred, cfg, mask) -> tuple[np.ndarray, np.ndarray, LossPlan]:
    """gt and pred as float64 arrays of matching shapes, gt of 0 and 1, pred in
    [0, 1], and the plan of cfg; under the marginal variant, mask and gt pass
    check_marginal_labels."""
    y = require_array("ground truth", gt).astype(np.float64, copy=False)
    p = require_array("predictions", pred).astype(np.float64, copy=False)
    _check_shapes(y, p)
    _check_values(y, p)
    plan = loss_plan(cfg, y.shape[-2])
    if plan.cfg.variant is Variant.MARGINAL:
        check_marginal_labels(y, mask, np.broadcast_shapes(y.shape, p.shape))
    return y, p, plan


def _pool(
    y: np.ndarray,
    p: np.ndarray,
    plan: LossPlan,
    hiding: np.ndarray | None,
    counts: np.ndarray | None = None,
    yp: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Kept mask, N and S of every subset, pooled over the plan's axes Phi.

    y (0 and 1, as float64 or bool) and p are (..., B, C, I) with leading axes
    that broadcast. Phi is taken as negative axes, so leading axes stack
    independent pairs. Under the marginal variant p must be softmax-style, and
    hiding is its checked mask when that hides some map (see _hiding), else
    None: p is merged here first only when hiding is given. N and S carry the
    broadcast leading axes. kept is None when every subset counts (always
    under the standard variant), else (B', C', 1), the keepdims shape of one
    pair's sums, unless the leaf variant drops subsets of a stacked y or the
    marginal variant's mask has leading axes, where it carries them.
    counts, when given, is y's (..., B, C) count of ones: its pooled sums are
    exact integers, so they equal y's bit for bit. yp, when given, receives
    y * p.
    """
    axes = plan.axes
    variant = plan.cfg.variant
    kept = None
    if variant is Variant.MARGINAL:
        _check_columns(p)
        if hiding is not None:
            p = _merge(p, hiding, np.broadcast_shapes(p.shape, hiding.shape + (1,)))
            # the background is available everywhere, so only subsets made of
            # merged-away classes alone are dropped
            kept = hiding[..., None].any(axis=axes, keepdims=True)
    inter = np.multiply(y, p, out=yp).sum(axis=axes, keepdims=True)
    if counts is None:
        gsum = y.sum(axis=axes, keepdims=True)
    else:
        gsum = counts[..., None].sum(axis=axes, keepdims=True)
    psum = p.sum(axis=axes, keepdims=True)
    S = gsum + psum + plan.eps
    if variant is Variant.LEAF and np.count_nonzero(gsum) < gsum.size:
        kept = gsum > 0.0
    if kept is not None and kept.all():  # a mask that keeps every subset is the standard pass
        kept = None
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

    Each value sums its K kept scores in the order of a lone pair's 1-D
    score[kept].sum(), so a stacked value equals the lone one bit for bit.
    A dropped subset scores exactly 0.0, and NumPy adds fewer than 8 terms
    one after another, so a row of fewer than 8 subsets is summed whole: its
    zeros change no partial sum. Longer rows, which NumPy sums pairwise, are
    gathered, one group of rows per K.
    """
    n = math.prod(score.shape[-3:])
    if n == 0:
        return np.zeros(score.shape[:-3])
    rows = score.reshape(-1, n)
    if kept is None:
        return (1.0 - rows.sum(axis=1) / n).reshape(score.shape[:-3])
    keep = np.broadcast_to(kept, score.shape).reshape(rows.shape)
    counts = np.count_nonzero(keep, axis=1)
    if n < 8:
        sums = rows.sum(axis=1)
    else:
        sums = np.zeros(len(rows))
        for K in set(counts.tolist()) - {0}:
            group = counts == K
            sums[group] = rows[group][keep[group]].reshape(-1, K).sum(axis=-1)
    values = 1.0 - sums / np.maximum(counts, 1)
    values[counts == 0] = 0.0
    return values.reshape(score.shape[:-3])


@functools.lru_cache(maxsize=32)
def _all_kept(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """What a pass that counts every subset of S's shape hands back: read-only
    views of an all-True kept mask and of each pair's K, and K."""
    K = math.prod(shape[-3:])
    return np.broadcast_to(np.True_, shape), np.broadcast_to(np.int64(K), shape[:-3]), K


def planned_value_and_grad(
    ones: np.ndarray,
    p: np.ndarray,
    plan: LossPlan,
    mask: np.ndarray | None,
    counts: np.ndarray,
    yp: np.ndarray,
    out: np.ndarray,
) -> LossOutput:
    """The value and gradient pass over a stack of pairs, without input checks:
    their LossOutput, and their gradient written into out.

    ones is the ground truth as a bool (..., B, C, I) array of the plan's
    class count, and p the float64 predictions, whose leading axes broadcast
    against it; counts is ones' (..., B, C) count of ones and mask None or
    (..., B, C). yp is a C-contiguous float64 buffer of the broadcast shape
    for y * p (so its sums run in a fresh product's order), and out a float64
    one. The plan's eps may hold one value per pair, as (..., 1, C, 1) or
    (..., 1, 1, 1). Under the marginal variant the predictions' column sums
    are checked on every call, and the mask's labels not at all: the caller
    runs check_marginal_labels once. A mask that hides no map, or None, makes
    the pass the standard one; so does a leaf or marginal pass that drops no
    subset, whose kept and effective_subset_count are then read-only views.

    The gradient is ratio / K where y = 0 and (ratio - 2 / S) / K where ones
    marks y = 1, ratio = N / S^2, with K each pair's count of counted subsets
    raised to at least 1. Dropped subsets have S = inf, so they, and every
    subset of a pair with none counted, get exactly 0. Under the marginal
    variant, an unavailable (b, c) column takes the background column's
    gradient, as its predictions were merged into the background.
    """
    hiding = _hiding(plan, mask)
    kept, N, S = _pool(ones, p, plan, hiding, counts, yp)
    value = _loss_values(N / S, kept)
    if kept is None:
        kept, n_kept, K = _all_kept(S.shape)
    else:
        if kept.shape != S.shape:  # kept lacks the stacked predictions' leading axes
            kept = np.broadcast_to(kept, S.shape)
        n_kept = np.count_nonzero(kept, axis=(-3, -2, -1))
        K = np.maximum(n_kept, 1)[..., None, None, None]
    ratio = N / (S * S)
    y0, y1 = ratio / K, (ratio - 2.0 / S) / K
    np.copyto(out, y0)
    np.copyto(out, y1, where=ones)
    if hiding is not None:
        np.copyto(out, out[..., :1, :], where=~hiding[..., None])
    return LossOutput(value[()], kept, n_kept[()], y0, y1)


def dice_value_and_grad(
    gt: np.ndarray,
    pred: np.ndarray,
    cfg: DiceLossConfig | LossPlan,
    mask: np.ndarray | None = None,
) -> tuple[LossOutput, np.ndarray]:
    """Dice loss and its analytic gradient with respect to every prediction element.

    gt and pred have shapes (..., B, C, I) whose leading axes broadcast, gt
    holding only 0 and 1: one pair, or a stack of pairs. The gradient is
    read-only, of the broadcast shape. Dropped subsets (leaf variant, or
    marginal columns merged away) receive exactly zero; for the marginal
    variant the gradient is computed on the merged maps and routed back
    through the background sum.
    """
    y, p, plan = _checked(gt, pred, cfg, mask)
    ones = y == 1.0
    shape = np.broadcast_shapes(y.shape, p.shape)
    grad = np.empty(shape)
    out = planned_value_and_grad(ones, p, plan, mask, np.count_nonzero(ones, axis=-1),
                                 np.empty(shape), grad)
    return out, readonly(grad)


def dice_values(
    gt: np.ndarray,
    preds: np.ndarray,
    cfg: DiceLossConfig | LossPlan,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Dice loss of every (ground truth, prediction) pair of a stack, value only.

    gt and preds are as for dice_value_and_grad; the result has the broadcast
    leading shape, and equals dice_value_and_grad(gt, preds)[0].value bit for bit.
    """
    y, p, plan = _checked(gt, preds, cfg, mask)
    kept, N, S = _pool(y, p, plan, _hiding(plan, mask))
    return _loss_values(N / S, kept)[()]
