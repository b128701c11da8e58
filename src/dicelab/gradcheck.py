"""Independent verification of the analytic Dice gradient.

The oracle is a central finite difference of the forward loss, kept
deliberately ignorant of the analytic formula: it only ever asks for loss
values. Every +h and -h probe is one row of a stencil stacked along a leading
axis, and dice_values scores the stencil in blocks of at most
FD_BLOCK_ELEMENTS elements, one value-only pass per block. A second checker
verifies the structural claim that within one reduction subset the gradient
takes one value where y = 0 and one where y = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .epsilon import calibrate_epsilon
from .errors import InvalidConfigError, RangeViolationError, ShapeMismatchError
from .loss import DiceLossConfig, Variant, _require_binary, dice_value_and_grad, dice_values
from .tensor import ReductionScheme, batch_dims, readonly

FD_STEP = 1e-5
RTOL = 1e-5
ATOL = 1e-9
CLUSTER_TOL = 1e-12
FD_BLOCK_ELEMENTS = 2 ** 20  # stencil elements per dice_values call; bounds memory


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    passed: bool


def finite_diff_grad(gt: np.ndarray, pred: np.ndarray, cfg: DiceLossConfig) -> np.ndarray:
    """Central-difference gradient: (loss(p + h*e) - loss(p - h*e)) / 2h per element.

    h is FD_STEP. Stencil row r moves element r % n by +h (r < n) or -h
    (r >= n); the rows are scored in blocks of at most FD_BLOCK_ELEMENTS elements.
    """
    if cfg.variant is Variant.MARGINAL:
        raise InvalidConfigError("the marginal variant cannot be finite-differenced: its "
                                 "predictions must sum to 1 per pixel, which every probe breaks")
    h = FD_STEP
    pred = np.asarray(pred, dtype=np.float64)
    flat = pred.reshape(-1)
    if np.any(flat < h) or np.any(flat > 1.0 - h):
        raise RangeViolationError(f"predictions must lie in [{h}, {1.0 - h}] so the stencil "
                                  "stays in range")
    n = flat.size
    steps = np.repeat([h, -h], n)
    values = np.empty(2 * n)
    rows = max(1, FD_BLOCK_ELEMENTS // n)
    for start in range(0, 2 * n, rows):
        r = np.arange(start, min(start + rows, 2 * n))
        stencil = np.tile(flat, (r.size, 1))
        stencil[np.arange(r.size), r % n] += steps[r]
        values[r] = dice_values(gt, stencil.reshape(r.size, *pred.shape), cfg)
    up, down = values.reshape(2, n)
    return readonly(((up - down) * (1.0 / (2.0 * h))).reshape(pred.shape))


def compare_grads(analytic: np.ndarray, numeric: np.ndarray) -> GradCheckReport:
    """Elementwise comparison; an element passes within ATOL or within RTOL.

    Relative error uses max(|analytic|, |numeric|, 1e-12) as denominator.
    """
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    if analytic.ndim != 3 or analytic.shape != numeric.shape:
        raise ShapeMismatchError(f"shape {analytic.shape} != {numeric.shape}")
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    rel_err = abs_err / denom
    violation = np.minimum(abs_err / ATOL, rel_err / RTOL)
    return GradCheckReport(
        max_abs_err=float(abs_err.max()),
        max_rel_err=float(rel_err.max()),
        passed=bool(np.all(violation <= 1.0)),  # a NaN error fails
    )


def check_two_value(gt: np.ndarray, grad: np.ndarray, scheme: ReductionScheme) -> bool:
    """Whether every subset's gradient takes one value where y = 0 and one where y = 1.

    Within each subset of the scheme's pooled axes, the gradient over the
    y = 0 elements must span at most CLUSTER_TOL, and so must the gradient
    over the y = 1 elements. A NaN or infinite spread fails; a key with no
    elements in a subset spans -inf and passes.
    """
    y, g = np.asarray(gt), np.asarray(grad)
    if y.shape != g.shape:
        raise ShapeMismatchError(f"gt shape {y.shape} != gradient shape {g.shape}")
    _require_binary(y)
    for sel in (y == 0.0, y == 1.0):
        hi = np.where(sel, g, -np.inf).max(axis=scheme.axes)
        lo = np.where(sel, g, np.inf).min(axis=scheme.axes)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails
            if not np.all(hi - lo <= CLUSTER_TOL):
                return False
    return True


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
    """InvalidConfigError unless there is a label and each is 'calibrated' or a float >= 0."""
    if not labels:
        raise InvalidConfigError("at least one epsilon label is required")
    for label in labels:
        try:
            ok = label == "calibrated" or 0.0 <= float(label) < math.inf  # NaN fails too
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InvalidConfigError(f"epsilon {label!r} must be 'calibrated' or a finite "
                                     "non-negative number")


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
    """Run the full analytic-vs-numeric matrix and the two-value check per instance."""
    _check_epsilon_labels(epsilons)
    records: list[MatrixRecord] = []
    case = 0
    for scheme in schemes:
        for dims in shapes:
            dims = batch_dims(dims)
            for eps_label in epsilons:
                for k in range(n_instances):
                    seed = base_seed + 100_000 * case + k
                    rng = np.random.default_rng(seed)
                    # epsilon 0 is only smooth when no subset is entirely empty
                    gt, pred = random_instance(dims, rng,
                                               nonempty_subsets=(eps_label == "0"))
                    cfg = DiceLossConfig(scheme=scheme,
                                         epsilon=resolve_epsilon(eps_label, gt, scheme))
                    analytic = dice_value_and_grad(gt, pred, cfg)[1]
                    report = compare_grads(analytic, finite_diff_grad(gt, pred, cfg))
                    records.append(MatrixRecord(
                        seed=seed, scheme=scheme, epsilon_label=eps_label, shape=dims,
                        grad_report=report,
                        two_value_passed=check_two_value(gt, analytic, scheme)))
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
