"""Index-list partitions: the independent oracle for the axis-based Dice core.

Each reduction scheme is spelled out here as explicit lists of flat element
indices, written without ReductionScheme.axes, so the tests can check that
the production sums pool exactly these sets and that the loss and gradient
built on them agree with dicelab.loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from dicelab.errors import ShapeMismatchError
from dicelab.tensor import ReductionScheme


@dataclass(frozen=True)
class SubsetSpec:
    """One member of a partition: flat element indices in ascending order."""

    id: int
    members: np.ndarray = field(repr=False)
    class_tag: int | None = None
    batch_tag: int | None = None

    @property
    def size(self) -> int:
        return int(self.members.size)


class SubsetStats(NamedTuple):
    intersection: float
    gt_sum: float
    pred_sum: float


def enumerate_subsets(scheme: ReductionScheme, shape: tuple[int, int, int]) -> list[SubsetSpec]:
    """Enumerate the partition for a scheme in deterministic order.

    IMAGE_WISE subsets are ordered by ascending (b, c), CLASS_WISE by b,
    BATCH_WISE by c; ALL_WISE yields the single full-domain subset.
    """
    B, C, I = shape
    subsets: list[SubsetSpec] = []
    if scheme is ReductionScheme.IMAGE_WISE:
        for b in range(B):
            for c in range(C):
                base = (b * C + c) * I
                subsets.append(SubsetSpec(id=b * C + c, members=np.arange(base, base + I),
                                          class_tag=c, batch_tag=b))
    elif scheme is ReductionScheme.CLASS_WISE:
        for b in range(B):
            base = b * C * I
            subsets.append(SubsetSpec(id=b, members=np.arange(base, base + C * I),
                                      class_tag=C - 1 if C == 1 else None, batch_tag=b))
    elif scheme is ReductionScheme.BATCH_WISE:
        for c in range(C):
            members = (np.arange(B)[:, None] * C * I + c * I + np.arange(I)[None, :]).reshape(-1)
            subsets.append(SubsetSpec(id=c, members=members,
                                      class_tag=c, batch_tag=B - 1 if B == 1 else None))
    elif scheme is ReductionScheme.ALL_WISE:
        subsets.append(SubsetSpec(id=0, members=np.arange(B * C * I),
                                  class_tag=C - 1 if C == 1 else None,
                                  batch_tag=B - 1 if B == 1 else None))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    for s in subsets:
        s.members.flags.writeable = False
    return subsets


def subset_reduce(gt, pred, subset: SubsetSpec) -> SubsetStats:
    """Sum y*p, y and p over exactly the subset members (ascending order)."""
    if gt.shape != pred.shape:
        raise ShapeMismatchError(f"gt shape {gt.shape} != pred shape {pred.shape}")
    y = gt.reshape(-1)[subset.members]
    p = pred.reshape(-1)[subset.members]
    return SubsetStats(float(np.sum(y * p)), float(np.sum(y)), float(np.sum(p)))


def _subset_epsilon(eps, subset: SubsetSpec) -> float:
    return float(eps) if np.isscalar(eps) else float(np.asarray(eps).reshape(-1)[subset.class_tag])


def reference_loss(gt, pred, cfg) -> float:
    """Standard-variant loss, one subset at a time."""
    scores = []
    for s in enumerate_subsets(cfg.scheme, gt.shape):
        stats = subset_reduce(gt, pred, s)
        e = _subset_epsilon(cfg.epsilon, s)
        scores.append((2.0 * stats.intersection + e) / (stats.gt_sum + stats.pred_sum + e))
    return 1.0 - float(np.mean(scores))


def reference_grad(gt, pred, cfg) -> np.ndarray:
    """Standard-variant gradient as a (B, C, I) array, one subset at a time."""
    subsets = enumerate_subsets(cfg.scheme, gt.shape)
    y = gt.reshape(-1)
    grad = np.empty(y.size)
    for s in subsets:
        stats = subset_reduce(gt, pred, s)
        e = _subset_epsilon(cfg.epsilon, s)
        S = stats.gt_sum + stats.pred_sum + e
        N = 2.0 * stats.intersection + e
        grad[s.members] = -(2.0 * y[s.members] / S - N / (S * S)) / len(subsets)
    return grad.reshape(gt.shape)
