"""Independent verification of the analytic Dice gradient.

The oracle is a central finite difference of the forward loss, kept
deliberately ignorant of the analytic formula: it only ever asks for loss
values. Every +h and -h probe is one row of a stencil stacked along a leading
axis, and dice_values scores the stencil in blocks of at most
FD_BLOCK_ELEMENTS elements, one value-only pass per block. A second checker
verifies the structural claim that within one reduction subset the gradient
takes one value where y = 0 and one where y = 1.

Each checker takes one (B, C, I) instance or a stack of n instances along a
leading instance axis, (n, B, C, I); a lone instance is the n = 1 case.
run_check_matrix draws every instance of a (scheme, shape, epsilon) cell
first and scores the cell as one stack: one analytic pass, one stencil whose
blocks hold as many whole instances as fit (or part of one instance's probes
when even one does not), one comparison and one two-value test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .epsilon import calibrate_epsilon
from .errors import (InvalidConfigError, RangeViolationError, ShapeMismatchError, require_binary,
                     require_int, require_number)
from .loss import DiceLossConfig, LossPlan, Variant, dice_grads, dice_values, loss_plan
from .tensor import ReductionScheme, batch_dims, readonly

FD_STEP = 1e-5
RTOL = 1e-5
ATOL = 1e-9
CLUSTER_TOL = 1e-12
FD_BLOCK_ELEMENTS = 2 ** 17  # stencil elements per dice_values call; bounds memory


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    passed: bool


def _check_instances(a: np.ndarray, b: np.ndarray) -> None:
    """ShapeMismatchError unless a and b share one (B, C, I) or (n, B, C, I) shape."""
    if a.ndim not in (3, 4) or a.shape != b.shape:
        raise ShapeMismatchError("expected two (B, C, I) or (n, B, C, I) arrays of one "
                                 f"shape, got {a.shape} and {b.shape}")


def finite_diff_grad(gt: np.ndarray, pred: np.ndarray,
                     cfg: DiceLossConfig | LossPlan) -> np.ndarray:
    """Central-difference gradient: (loss(p + h*e) - loss(p - h*e)) / 2h per element.

    gt and pred are one (B, C, I) instance or n stacked (n, B, C, I); cfg may
    be a LossPlan whose eps holds one value per instance, (n, 1, C, 1) or
    (n, 1, 1, 1). h is FD_STEP. Stencil row r moves element r % m of each
    instance's m elements by +h (r < m) or -h (r >= m). A block takes as many
    whole instances as fit in FD_BLOCK_ELEMENTS stencil elements; when even
    one does not fit, it takes as many rows of one instance as do.
    """
    gt, pred = np.asarray(gt), np.asarray(pred, dtype=np.float64)
    _check_instances(gt, pred)
    plan = loss_plan(cfg, pred.shape[-2])
    if plan.cfg.variant is Variant.MARGINAL:
        raise InvalidConfigError("the marginal variant cannot be finite-differenced: its "
                                 "predictions must sum to 1 per pixel, which every probe breaks")
    h = FD_STEP
    if np.any(pred < h) or np.any(pred > 1.0 - h):
        raise RangeViolationError(f"predictions must lie in [{h}, {1.0 - h}] so the stencil "
                                  "stays in range")
    dims = pred.shape[-3:]
    flat = pred.reshape(-1, math.prod(dims))
    n, m = flat.shape
    gts = gt.reshape(n, *dims)
    per_instance = np.ndim(plan.eps) == 4
    steps = np.repeat([h, -h], m)
    values = np.empty((2 * m, n))
    rows = min(2 * m, max(1, FD_BLOCK_ELEMENTS // m))
    count = max(1, FD_BLOCK_ELEMENTS // (rows * m))
    for lo in range(0, n, count):
        k = slice(lo, lo + count)
        block = plan._replace(eps=plan.eps[k]) if per_instance else plan
        for start in range(0, 2 * m, rows):
            r = np.arange(start, min(start + rows, 2 * m))
            stencil = np.repeat(flat[None, k], r.size, axis=0)  # (rows, instances, m)
            stencil[np.arange(r.size), :, r % m] += steps[r, None]
            values[r, k] = dice_values(gts[k], stencil.reshape(r.size, -1, *dims), block)
    up, down = values.reshape(2, m, n)
    return readonly(((up - down) * (1.0 / (2.0 * h))).T.reshape(pred.shape))


def compare_grads(analytic: np.ndarray,
                  numeric: np.ndarray) -> GradCheckReport | list[GradCheckReport]:
    """Elementwise comparison; an element passes within ATOL or within RTOL.

    Relative error uses max(|analytic|, |numeric|, 1e-12) as denominator. One
    (B, C, I) instance gives one report, and a stack (n, B, C, I) a list of n.
    """
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    _check_instances(analytic, numeric)
    n = math.prod(analytic.shape[:-3])
    abs_err = np.abs(analytic - numeric).reshape(n, -1)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12).reshape(n, -1)
    rel_err = abs_err / denom
    violation = np.minimum(abs_err / ATOL, rel_err / RTOL)
    reports = [GradCheckReport(*r) for r in zip(
        abs_err.max(axis=1).tolist(),
        rel_err.max(axis=1).tolist(),
        np.all(violation <= 1.0, axis=1).tolist(),  # a NaN error fails
    )]
    return reports if analytic.ndim == 4 else reports[0]


def check_two_value(gt: np.ndarray, grad: np.ndarray,
                    scheme: ReductionScheme) -> bool | list[bool]:
    """Whether every subset's gradient takes one value where y = 0 and one where y = 1.

    Within each subset of the scheme's pooled axes, the gradient over the
    y = 0 elements must span at most CLUSTER_TOL, and so must the gradient
    over the y = 1 elements. A NaN or infinite spread fails; a key with no
    elements in a subset spans -inf and passes. One (B, C, I) instance gives
    one bool, and a stack (n, B, C, I) a list of n.
    """
    y, g = np.asarray(gt), np.asarray(grad)
    _check_instances(y, g)
    require_binary("ground-truth", y)
    axes = tuple(a - 3 for a in scheme.axes)
    within = []
    for sel in (y == 0.0, y == 1.0):
        hi = np.where(sel, g, -np.inf).max(axis=axes)
        lo = np.where(sel, g, np.inf).min(axis=axes)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails
            within.append((hi - lo <= CLUSTER_TOL).reshape(*y.shape[:-3], -1).all(axis=-1))
    return (within[0] & within[1]).tolist()


ALL_SCHEMES = (
    ReductionScheme.IMAGE_WISE,
    ReductionScheme.CLASS_WISE,
    ReductionScheme.BATCH_WISE,
    ReductionScheme.ALL_WISE,
)
DEFAULT_SHAPES = ((1, 1, 8), (2, 1, 8), (2, 3, 8), (4, 3, 16))
DEFAULT_EPSILONS = ("1e-7", "1", "calibrated")


@dataclass(frozen=True)
class MatrixRecord:
    seed: int
    scheme: ReductionScheme
    epsilon_label: str
    shape: tuple[int, int, int]
    grad_report: GradCheckReport
    two_value_passed: bool


def random_instance(dims: tuple[int, int, int], rng: np.random.Generator,
                    nonempty_subsets: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Random binary ground truth and predictions in (0.01, 0.99), both (B, C, I)."""
    B, C, I = dims
    y = rng.integers(0, 2, size=B * C * I).astype(np.float64)
    if nonempty_subsets:
        cells = y.reshape(B * C, I)
        for row in cells:
            if not row.any():
                row[rng.integers(0, I)] = 1.0
    p = rng.uniform(0.01, 0.99, size=B * C * I)
    gt = readonly(y.reshape(dims))
    pred = readonly(p.reshape(dims))
    return gt, pred


def _check_epsilon_labels(labels: Sequence[str]) -> None:
    """InvalidConfigError unless each label is 'calibrated' or a finite float >= 0."""
    for label in labels:
        try:
            value = 0.0 if label == "calibrated" else float(label)
        except (TypeError, ValueError, OverflowError):
            value = label  # not a number, so require_number rejects it
        require_number("an epsilon label other than 'calibrated'", value, 0)


def resolve_epsilon(label: str, gt: np.ndarray, scheme: ReductionScheme):
    """Turn an epsilon spec into a value: a float literal or 'calibrated' from this gt."""
    if label == "calibrated":
        return calibrate_epsilon([gt], scheme)
    return float(label)


def run_check_matrix(
    shapes: Sequence[tuple[int, int, int]] = DEFAULT_SHAPES,
    schemes: Sequence[ReductionScheme] = ALL_SCHEMES,
    epsilons: Sequence[str] = DEFAULT_EPSILONS,
    n_instances: int = 100,
    base_seed: int = 0,
) -> list[MatrixRecord]:
    """The analytic-vs-numeric comparison and the two-value check of every instance.

    Every argument is checked before the first instance: InvalidConfigError
    for shapes, schemes or epsilons that are not a non-empty list or tuple, a
    scheme that is not a ReductionScheme, a bad epsilon label, an n_instances
    that is not an int >= 1 or a base_seed that is not an int >= 0, and
    ShapeMismatchError for a shape that is not three positive ints. Each
    (scheme, shape, epsilon) cell draws its n_instances instances and scores
    them as one stack, each instance with its own epsilon.
    """
    for name, arg in (("shapes", shapes), ("schemes", schemes), ("epsilons", epsilons)):
        if not isinstance(arg, (list, tuple)) or not arg:
            raise InvalidConfigError(f"{name} must be a non-empty list, got {arg!r}")
    _check_epsilon_labels(epsilons)
    if not all(isinstance(s, ReductionScheme) for s in schemes):
        raise InvalidConfigError(f"schemes must be ReductionScheme members, got {schemes!r}")
    shapes = [batch_dims(dims) for dims in shapes]
    require_int("n_instances", n_instances, 1)
    require_int("base_seed", base_seed, 0)
    records: list[MatrixRecord] = []
    case = 0
    for scheme in schemes:
        for dims in shapes:
            for eps_label in epsilons:
                first = base_seed + 100_000 * case
                seeds = range(first, first + n_instances)
                # epsilon 0 is only smooth when no subset is entirely empty
                gt, pred = map(np.stack, zip(*(
                    random_instance(dims, np.random.default_rng(seed),
                                    nonempty_subsets=(eps_label == "0"))
                    for seed in seeds)))
                eps = [resolve_epsilon(eps_label, one, scheme) for one in gt]
                plan = loss_plan(DiceLossConfig(scheme), dims[1])._replace(
                    eps=np.reshape(eps, (n_instances, 1, -1, 1)))
                analytic = dice_grads(gt, pred, plan)
                reports = compare_grads(analytic, finite_diff_grad(gt, pred, plan))
                two_value = check_two_value(gt, analytic, scheme)
                records += [MatrixRecord(seed=seed, scheme=scheme, epsilon_label=eps_label,
                                         shape=dims, grad_report=report,
                                         two_value_passed=passed)
                            for seed, report, passed in zip(seeds, reports, two_value)]
                case += 1
    return records


def format_record(r: MatrixRecord) -> str:
    """One structured text line per instance for the CLI report."""
    return (
        f"seed={r.seed} scheme={r.scheme.value} eps={r.epsilon_label} "
        f"shape={r.shape[0]}x{r.shape[1]}x{r.shape[2]} "
        f"max_abs={r.grad_report.max_abs_err:.3e} max_rel={r.grad_report.max_rel_err:.3e} "
        f"grad={'pass' if r.grad_report.passed else 'FAIL'} "
        f"two_value={'pass' if r.two_value_passed else 'FAIL'}"
    )
