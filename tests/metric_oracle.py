"""Per-map float sums and a per-threshold ROC scan: the independent oracles for
dicelab.metrics.

hard_dsc and volume_difference score one pair of maps with float64 sums, and
roc_auc counts the scores at or above each threshold with one full scan per
threshold, the way dicelab.metrics did before it scored stacks with counts
and swept thresholds with searchsorted, so the tests can check that the two
agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def hard_dsc(gt_map, pred_map) -> float:
    gt = np.asarray(gt_map, dtype=np.float64).reshape(-1)
    pred = np.asarray(pred_map, dtype=np.float64).reshape(-1)
    total = gt.sum() + pred.sum()
    if total == 0.0:
        return 1.0
    return float(2.0 * (gt * pred).sum() / total)


def volume_difference(gt_map, pred_map) -> float:
    gt = np.asarray(gt_map, dtype=np.float64).reshape(-1)
    pred = np.asarray(pred_map, dtype=np.float64).reshape(-1)
    return float(pred.sum() - gt.sum())


def roc_auc(scores, labels) -> tuple[list[float], list[float], list[float], float]:
    """(fpr, tpr, thresholds, auc) of finite 1-D scores and 0/1 labels of both kinds.

    Of the scores -0.0 and 0.0, the threshold keeps whichever comes first.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == 0))
    thresholds = [np.inf] + sorted(set(s.tolist()), reverse=True)
    fprs, tprs = [], []
    for t in thresholds:
        called = s >= t
        tprs.append(float(np.count_nonzero(called & (y == 1))) / n_pos)
        fprs.append(float(np.count_nonzero(called & (y == 0))) / n_neg)
    auc = float(np.trapezoid(np.array(tprs), np.array(fprs)))
    return fprs, tprs, [float(t) for t in thresholds], auc
