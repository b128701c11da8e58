"""Independent verification of the analytic Dice gradient.

The oracle is a central finite difference of the forward loss, kept
deliberately ignorant of the analytic formula: it only ever asks for loss
values. Every +h and -h probe is one row of a stencil stacked along a leading
axis, and dice_values scores the stencil in blocks of at most
FD_BLOCK_ELEMENTS elements, one value-only pass per block. A second checker
verifies the structural claim that within one reduction subset the gradient
takes at most two distinct values, keyed by the ground truth bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .epsilon import calibrate_epsilon
from .errors import RangeViolationError, ShapeMismatchError
from .loss import DiceLossConfig, dice_value_and_grad, dice_values
from .tensor import ReductionScheme, batch_dims, readonly

DEFAULT_STEP = 1e-5
DEFAULT_RTOL = 1e-5
DEFAULT_ATOL = 1e-9
CLUSTER_TOL = 1e-12
FD_BLOCK_ELEMENTS = 2 ** 20  # stencil elements per dice_values call; bounds memory


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    worst_index: tuple[int, int, int]
    n_checked: int
    passed: bool


@dataclass(frozen=True)
class TwoValueReport:
    """Per-subset results in the keepdims shape of the scheme's pooled axes.

    values_by_key maps each ground-truth value (0, 1) to the subset's smallest
    gradient over elements with that value, NaN where it has none.
    """

    n_clusters: np.ndarray
    values_by_key: dict[int, np.ndarray]
    passed: bool


def finite_diff_grad(
    gt: np.ndarray,
    pred: np.ndarray,
    cfg: DiceLossConfig,
    h: float = DEFAULT_STEP,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference gradient: (loss(p + h*e) - loss(p - h*e)) / 2h per element.

    Stencil row r perturbs element r % n by +h (r < n) or -h (r >= n); the
    rows are scored in blocks of at most FD_BLOCK_ELEMENTS elements.
    """
    if h <= 0.0:
        raise RangeViolationError(f"step size must be positive, got {h}")
    pred = np.asarray(pred, dtype=np.float64)
    flat = pred.reshape(-1)
    if np.any(flat < h) or np.any(flat > 1.0 - h):
        raise RangeViolationError(
            f"predictions must lie in [{h}, {1.0 - h}] so the stencil stays in range"
        )
    n = flat.size
    steps = np.repeat([h, -h], n)
    values = np.empty(2 * n)
    rows = max(1, FD_BLOCK_ELEMENTS // n)
    for start in range(0, 2 * n, rows):
        r = np.arange(start, min(start + rows, 2 * n))
        stencil = np.tile(flat, (r.size, 1))
        stencil[np.arange(r.size), r % n] += steps[r]
        values[r] = dice_values(gt, stencil.reshape(r.size, *pred.shape), cfg, mask)
    up, down = values.reshape(2, n)
    return readonly(((up - down) * (1.0 / (2.0 * h))).reshape(pred.shape))


def compare_grads(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> GradCheckReport:
    """Elementwise comparison; an element passes on either tolerance.

    Relative error uses max(|analytic|, |numeric|, 1e-12) as denominator.
    """
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    if analytic.ndim != 3 or analytic.shape != numeric.shape:
        raise ShapeMismatchError(f"shape {analytic.shape} != {numeric.shape}")
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    rel_err = abs_err / denom
    violation = np.minimum(abs_err / atol, rel_err / rtol)
    worst = int(np.argmax(violation))
    passed = bool(violation.flat[worst] <= 1.0)
    b, c, i = np.unravel_index(worst, analytic.shape)
    return GradCheckReport(
        max_abs_err=float(abs_err.max()),
        max_rel_err=float(rel_err.max()),
        worst_index=(int(b), int(c), int(i)),
        n_checked=int(analytic.size),
        passed=passed,
    )


def check_two_value(
    gt: np.ndarray,
    grad: np.ndarray,
    scheme: ReductionScheme,
    tol: float = CLUSTER_TOL,
) -> TwoValueReport:
    """Verify each subset's gradient values form at most two clusters keyed by y.

    A subset passes when, for each ground-truth value, the max - min of its
    gradient over the pooled axes is within tol, and its sorted values split
    at no more than one gap wider than tol.
    """
    axes = scheme.axes
    g = np.asarray(grad)
    keyed_ok = True
    values_by_key = {}
    for key in (0, 1):
        sel = np.asarray(gt) == float(key)
        hi = np.where(sel, g, -np.inf).max(axis=axes, keepdims=True)
        lo = np.where(sel, g, np.inf).min(axis=axes, keepdims=True)
        keyed_ok = keyed_ok & ~(hi - lo > tol)  # a key with no elements spreads -inf
        values_by_key[key] = np.where(np.isfinite(lo), lo, np.nan)
    free = tuple(a for a in range(g.ndim) if a not in axes)
    members = g.transpose(free + axes).reshape(*(g.shape[a] for a in free), -1)
    gaps = np.diff(np.sort(members, axis=-1), axis=-1) > tol
    n_clusters = np.expand_dims(1 + np.count_nonzero(gaps, axis=-1), axes)
    passed = bool(np.all(keyed_ok & (n_clusters <= 2)))
    return TwoValueReport(n_clusters=n_clusters, values_by_key=values_by_key, passed=passed)


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


def resolve_epsilon(label: str, gt: np.ndarray, scheme: ReductionScheme):
    """Turn an epsilon spec into a value: a float literal or 'calibrated' from this gt."""
    if label == "calibrated":
        return calibrate_epsilon([gt], scheme).as_loss_epsilon()
    return float(label)


def run_check_matrix(
    shapes: Sequence[tuple[int, int, int]] = DEFAULT_SHAPES,
    schemes: Sequence[ReductionScheme] = ALL_SCHEMES,
    epsilons: Sequence[str] = DEFAULT_EPSILONS,
    n_instances: int = 100,
    base_seed: int = 0,
    h: float = DEFAULT_STEP,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    perturb: float = 0.0,
) -> list[MatrixRecord]:
    """Run the full analytic-vs-numeric matrix and the two-value check per instance."""
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
                    if perturb != 0.0:
                        analytic = analytic.copy()
                        analytic.reshape(-1)[0] += perturb
                    numeric = finite_diff_grad(gt, pred, cfg, h=h)
                    report = compare_grads(analytic, numeric, rtol=rtol, atol=atol)
                    twoval = check_two_value(gt, analytic, scheme)
                    records.append(MatrixRecord(
                        seed=seed,
                        scheme=scheme,
                        epsilon_label=eps_label,
                        shape=dims,
                        grad_report=report,
                        two_value_passed=twoval.passed,
                    ))
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
