"""Evaluation metrics and statistics for segmentation runs.

Hard overlap scores on binarized predictions, signed volume differences,
volume-threshold ROC curves, and a paired nonparametric bootstrap for
comparing per-subject metric lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabelsError,
    InvalidConfigError,
    RangeViolationError,
    ShapeMismatchError,
    require_array,
    require_binary,
    require_int,
)


def _counts(gt_maps, pred_maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Voxels of gt, of pred and of both over the last axis of two 0/1 map stacks (..., I)."""
    gt = require_array("ground-truth maps", gt_maps)
    pred = require_array("predicted maps", pred_maps)
    if gt.ndim == 0 or gt.shape != pred.shape:
        raise ShapeMismatchError(f"map stacks differ or are 0-d: {gt.shape} vs {pred.shape}")
    require_binary("ground-truth map", gt)
    require_binary("predicted map", pred)
    gt, pred = gt != 0, pred != 0
    return tuple(np.count_nonzero(m, axis=-1) for m in (gt, pred, gt & pred))


def hard_dsc(gt_maps, pred_maps) -> np.ndarray | float:
    """2|A∩B| / (|A|+|B|) of each pair of 0/1 maps stacked as (..., I): an array of
    the leading shape, or a float for one (I,) pair; 1.0 when both maps are empty."""
    n_gt, n_pred, inter = _counts(gt_maps, pred_maps)
    total = n_gt + n_pred
    dsc = np.where(total == 0, 1.0, 2.0 * inter / np.maximum(total, 1))
    return float(dsc) if dsc.ndim == 0 else dsc


def volume_difference(gt_maps, pred_maps) -> np.ndarray | float:
    """Predicted minus true voxel count (negative = under-segmented) of each pair of 0/1
    maps stacked as (..., I): an array of the leading shape, or a float for one (I,) pair."""
    n_gt, n_pred, _ = _counts(gt_maps, pred_maps)
    delta = (n_pred - n_gt).astype(np.float64)
    return float(delta) if delta.ndim == 0 else delta


def binarize(pred: np.ndarray) -> np.ndarray:
    """Hard maps from (batch, classes, pixels) soft predictions, same shape.

    One class (a sigmoid) thresholds at 0.5 (0.5 itself counts as foreground).
    Two or more (a softmax) take the argmax over classes; ties go to the
    lowest class index. Every prediction must be a number in [0, 1].
    """
    data = require_array("predictions", pred)
    if data.ndim != 3 or data.shape[1] == 0:
        raise ShapeMismatchError(f"predictions must be (B, C, I) with C >= 1, got {data.shape}")
    if not ((data >= 0.0) & (data <= 1.0)).all():
        raise RangeViolationError("predictions must be finite numbers in [0, 1]")
    c = data.shape[1]
    if c == 1:
        return (data >= 0.5).astype(np.float64)
    winner = data.argmax(axis=1)
    return (winner[:, None, :] == np.arange(c)[None, :, None]).astype(np.float64)


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Read-only float64 fpr, tpr (each rising from 0 to 1) and descending thresholds,
    one entry per threshold, and the trapezoidal area under the curve."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_auc(scores, labels) -> RocCurve:
    """ROC over score thresholds (predict positive when score >= threshold) of
    1-D finite scores and their 0/1 labels.

    Thresholds are +inf plus every distinct score in descending order, a zero
    score as +0.0, so tied scores cross together and the trapezoidal area
    equals the pair-counting estimator with ties worth one half.
    """
    s = np.asarray(require_array("scores", scores), dtype=np.float64)
    y = require_array("labels", labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise ShapeMismatchError(f"scores {s.shape} and labels {y.shape} must be 1-D of one length")
    require_binary("label", y)
    if not np.isfinite(s).all():
        raise RangeViolationError("scores must be finite")
    pos, neg = np.sort(s[y == 1]), np.sort(s[y == 0])
    if pos.size == 0 or neg.size == 0:
        raise DegenerateLabelsError("need at least one positive and one negative label")
    thresholds = np.r_[np.inf, np.unique(s)[::-1]] + 0.0  # -0.0 + 0.0 is +0.0
    # the scores >= t of each label are those past the first one >= t in sorted order
    tpr = (pos.size - np.searchsorted(pos, thresholds)) / pos.size
    fpr = (neg.size - np.searchsorted(neg, thresholds)) / neg.size
    for a in (fpr, tpr, thresholds):
        a.flags.writeable = False
    return RocCurve(fpr, tpr, thresholds, float(np.trapezoid(tpr, fpr)))


def bootstrap_compare(a, b, n_resamples: int = 10_000, seed: int = 0) -> float:
    """Two-sided bootstrap p-value for the paired mean difference of a and b,
    two 1-D lists of finite values.

    Subjects are resampled with replacement; the p-value is the fraction of
    resampled mean differences whose sign contradicts the observed one,
    doubled and clamped to [0, 1].  Identical lists give exactly 1.
    """
    require_int("n_resamples", n_resamples, 1)
    require_int("seed", seed, 0)
    a = np.asarray(require_array("paired values", a), dtype=np.float64)
    b = np.asarray(require_array("paired values", b), dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeMismatchError(f"paired lists must match: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ShapeMismatchError("need at least two paired subjects")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise RangeViolationError("paired values must be finite")
    diff = a - b
    observed = diff.mean()
    if observed == 0.0:
        return 1.0
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diff.size, size=(n_resamples, diff.size))
    means = diff[idx].mean(axis=1)
    if observed > 0:
        contra = float(np.count_nonzero(means <= 0.0)) / n_resamples
    else:
        contra = float(np.count_nonzero(means >= 0.0)) / n_resamples
    return min(1.0, 2.0 * contra)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """One header line, then one line per row; a float cell keeps full round-trip
    precision (float() drops NumPy 2's np.float64(...) wrapper), any other is str()."""
    lines = [",".join(header)]
    lines += [",".join([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
              for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV write_csv wrote; InvalidConfigError when it has no header."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise InvalidConfigError(f"{path}: empty CSV, expected a header row")
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise InvalidConfigError(f"{path}: rows and header differ in column count")
    return header, rows
