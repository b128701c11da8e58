"""Evaluation metrics and statistics for segmentation runs.

Hard overlap scores on binarized predictions, signed volume differences,
volume-threshold ROC curves, and a paired nonparametric bootstrap for
comparing per-subject metric lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, InvalidConfigError, ShapeMismatchError
from .trainer import Head


def hard_dsc(gt_map: np.ndarray, pred_map: np.ndarray) -> float:
    """2|A∩B| / (|A|+|B|) on binary maps; 1.0 when both maps are empty."""
    gt = np.asarray(gt_map, dtype=np.float64).reshape(-1)
    pred = np.asarray(pred_map, dtype=np.float64).reshape(-1)
    if gt.shape != pred.shape:
        raise ShapeMismatchError(f"maps differ in size: {gt.shape} vs {pred.shape}")
    total = gt.sum() + pred.sum()
    if total == 0.0:
        return 1.0
    return float(2.0 * (gt * pred).sum() / total)


def volume_difference(gt_map: np.ndarray, pred_map: np.ndarray) -> float:
    """Signed voxel-count difference, predicted minus true (negative = under-segmented)."""
    gt = np.asarray(gt_map, dtype=np.float64).reshape(-1)
    pred = np.asarray(pred_map, dtype=np.float64).reshape(-1)
    if gt.shape != pred.shape:
        raise ShapeMismatchError(f"maps differ in size: {gt.shape} vs {pred.shape}")
    return float(pred.sum() - gt.sum())


def binarize(pred: np.ndarray, head: Head) -> np.ndarray:
    """Hard maps from (batch, classes, pixels) soft predictions, same shape.

    Sigmoid thresholds at 0.5 (0.5 itself counts as foreground).  Softmax
    takes the argmax over classes; ties go to the lowest class index.
    """
    data = np.asarray(pred)
    c = data.shape[1]
    if head is Head.SIGMOID:
        return (data >= 0.5).astype(np.float64)
    winner = data.argmax(axis=1)
    return (winner[:, None, :] == np.arange(c)[None, :, None]).astype(np.float64)


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]  # (fpr, tpr), monotone in fpr
    thresholds: tuple[float, ...]
    auc: float


def roc_auc(scores, labels) -> RocCurve:
    """ROC over score thresholds (predict positive when score >= threshold).

    Thresholds are +inf plus every distinct score in descending order, so tied
    scores cross together and the trapezoidal area equals the pair-counting
    estimator with ties worth one half.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ShapeMismatchError(f"{s.size} scores vs {y.size} labels")
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("need at least one positive and one negative label")
    thresholds = [np.inf] + sorted(set(s.tolist()), reverse=True)
    points = []
    for t in thresholds:
        called = s >= t
        tpr = float(np.count_nonzero(called & (y == 1))) / n_pos
        fpr = float(np.count_nonzero(called & (y == 0))) / n_neg
        points.append((fpr, tpr))
    fprs = np.array([p[0] for p in points])
    tprs = np.array([p[1] for p in points])
    auc = float(np.trapezoid(tprs, fprs))
    return RocCurve(tuple(points), tuple(float(t) for t in thresholds), auc)


def bootstrap_compare(a, b, n_resamples: int = 10_000, seed: int = 0) -> float:
    """Two-sided bootstrap p-value for the paired mean difference of a and b.

    Subjects are resampled with replacement; the p-value is the fraction of
    resampled mean differences whose sign contradicts the observed one,
    doubled and clamped to [0, 1].  Identical lists give exactly 1.
    """
    if n_resamples < 1:
        raise InvalidConfigError(f"n_resamples must be >= 1, got {n_resamples}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeMismatchError(f"paired lists must match: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ShapeMismatchError("need at least two paired subjects")
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


def format_cell(value) -> str:
    """Deterministic CSV cell rendering; floats keep full round-trip precision."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
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
