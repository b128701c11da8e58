"""Experiment orchestration: config files, cross-validated runs, artifacts.

A run expands a config into a matrix of cells (labeling x setup x batch size),
trains each cell with subject-level k-fold cross-validation, scores held-out
subjects against pristine ground truth, and writes everything as CSV plus
model checkpoints. Cells are independent and may execute in parallel; the
parent process writes all artifacts in a fixed order, so outputs are
byte-identical for a given config no matter the job count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .epsilon import calibrate_epsilon
from .errors import InvalidConfigError, NonFiniteTrainingError
from .loss import DiceLossConfig, Variant
from .metrics import binarize, bootstrap_compare, hard_dsc, roc_auc, volume_difference, write_csv
from .synthdata import (
    GRADE_A,
    GRADE_B,
    PHASE_A,
    PHASE_B,
    BinaryTaskParams,
    MulticlassTaskParams,
    PartialAction,
    PartialPolicy,
    SyntheticDataset,
    apply_partial,
    generate_binary,
    generate_multiclass,
    save_dataset,
)
from .tensor import ReductionScheme, Shape, _wrap
from .trainer import TrainConfig, _require_int, _require_learning_rate, predict, save_model, train

CONFIG_SCHEMA = 1

SETUP_NAMES = ("image-wise", "batch-wise", "image-wise-calibrated", "leaf", "marginal")
LABELINGS = ("full", "partial")
NEGLIGIBLE_EPSILON = 1e-7

BINARY_SETUPS = ("image-wise", "batch-wise", "image-wise-calibrated")
MULTICLASS_SETUPS = ("image-wise", "leaf", "marginal")


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    seed: int = 7
    labelings: tuple[str, ...] = LABELINGS
    setups: tuple[str, ...] = BINARY_SETUPS
    batch_sizes: tuple[int, ...] = (1, 4)
    learning_rate: float = 5.0
    iterations: int = 1500
    folds: int = 3
    bootstrap_resamples: int = 2000
    dataset: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in ("binary", "multiclass"):
            raise InvalidConfigError(f"unknown task {self.task!r}")
        for lab in self.labelings:
            if lab not in LABELINGS:
                raise InvalidConfigError(f"unknown labeling {lab!r}")
        for s in self.setups:
            if s not in SETUP_NAMES:
                raise InvalidConfigError(f"unknown setup {s!r}; choose from {SETUP_NAMES}")
        if "marginal" in self.setups and self.task != "multiclass":
            raise InvalidConfigError("the marginal setup needs the multiclass task "
                                     "(its model has no background output otherwise)")
        if not self.labelings or not self.setups or not self.batch_sizes:
            raise InvalidConfigError("labelings, setups, and batch_sizes must be non-empty")
        for b in self.batch_sizes:
            _require_int("batch size", b, 1)
        _require_int("folds", self.folds, 2)
        _require_int("iterations", self.iterations, 1)
        _require_int("seed", self.seed, 0)
        _require_int("bootstrap_resamples", self.bootstrap_resamples, 1)
        _require_learning_rate(self.learning_rate)

    def cells(self) -> list[tuple[str, str, int]]:
        return [(lab, setup, b)
                for lab in self.labelings
                for setup in self.setups
                for b in self.batch_sizes]


def default_config(task: str) -> ExperimentConfig:
    if task == "multiclass":
        return ExperimentConfig(task=task, setups=MULTICLASS_SETUPS, batch_sizes=(1,))
    return ExperimentConfig(task=task)


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["labelings"] = list(config.labelings)
    d["setups"] = list(config.setups)
    d["batch_sizes"] = list(config.batch_sizes)
    d["schema_version"] = CONFIG_SCHEMA
    return d


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise InvalidConfigError("config must be a mapping")
    data = dict(raw)
    version = data.pop("schema_version", CONFIG_SCHEMA)
    if version != CONFIG_SCHEMA:
        raise InvalidConfigError(f"unsupported config schema_version {version!r}")
    if "task" not in data:
        raise InvalidConfigError("config needs a 'task' field (binary or multiclass)")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("labelings", "setups", "batch_sizes"):
        if key in data:
            data[key] = tuple(data[key])
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise InvalidConfigError(f"bad config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise InvalidConfigError(f"config file not found: {p}")
    with open(p) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise InvalidConfigError(f"{p}: not valid YAML: {exc}") from exc
    return config_from_dict(raw)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=True)


def build_dataset(config: ExperimentConfig) -> tuple[SyntheticDataset, SyntheticDataset]:
    """Pristine dataset plus its partially labeled twin for the task's corruption."""
    overrides = dict(config.dataset)
    for key in ("intensity_a", "intensity_b", "radius_a", "radius_b",
                "core_radius", "shell_width", "satellite_radius",
                "core_intensity", "shell_intensity", "satellite_intensity"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    try:
        if config.task == "binary":
            full = generate_binary(BinaryTaskParams(**overrides), config.seed)
            policy = PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B)
        else:
            full = generate_multiclass(MulticlassTaskParams(**overrides), config.seed)
            policy = PartialPolicy(PartialAction.MARK_UNAVAILABLE, tag=PHASE_B,
                                   class_index=full.class_names.index("shell"))
    except TypeError as exc:
        raise InvalidConfigError(f"bad dataset parameters: {exc}") from exc
    return full, apply_partial(full, policy)


def corrupted_tag(task: str) -> str:
    """The cohort whose labels the partial corruption removes."""
    return GRADE_B if task == "binary" else PHASE_B


def always_labeled_tag(task: str) -> str:
    return GRADE_A if task == "binary" else PHASE_A


def roc_target_class(task: str) -> str:
    """Class whose predicted volume separates the cohorts."""
    return "lesion" if task == "binary" else "shell"


def _subset(ds: SyntheticDataset, keep) -> SyntheticDataset:
    return SyntheticDataset(ds.task, ds.class_names, ds.image_size,
                            tuple(s for s in ds.samples if keep(s)), {})


def _setup_loss(setup: str, train_split: SyntheticDataset) -> tuple[DiceLossConfig, bool, list]:
    """Loss config, include-background flag, and calibration rows for one fold."""
    calibration = []
    if setup == "image-wise":
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=NEGLIGIBLE_EPSILON)
        include_bg = False
    elif setup == "batch-wise":
        loss = DiceLossConfig(scheme=ReductionScheme.BATCH_WISE, epsilon=NEGLIGIBLE_EPSILON)
        include_bg = False
    elif setup == "image-wise-calibrated":
        n_classes = train_split.n_classes
        n_pixels = train_split.image_size ** 2
        maps = [_wrap(Shape(1, n_classes, n_pixels), s.gt.reshape(-1))
                for s in train_split.samples]
        cal = calibrate_epsilon(maps, ReductionScheme.IMAGE_WISE)
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE,
                              epsilon=cal.as_loss_epsilon())
        include_bg = False
        for c, value in cal.per_class:
            calibration.append((train_split.class_names[c], value))
    elif setup == "leaf":
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=NEGLIGIBLE_EPSILON,
                              variant=Variant.LEAF)
        include_bg = False
    elif setup == "marginal":
        loss = DiceLossConfig(scheme=ReductionScheme.IMAGE_WISE, epsilon=NEGLIGIBLE_EPSILON,
                              variant=Variant.MARGINAL, background_class=0)
        include_bg = True
    else:
        raise InvalidConfigError(f"unknown setup {setup!r}")
    return loss, include_bg, calibration


class MetricRow(NamedTuple):
    """One held-out (fold, subject, class) score; its fields are metrics.csv's columns."""

    fold: int
    subject_id: int
    tag: str
    class_name: str
    dsc: float
    delta_v: float
    pred_vol: float
    true_vol: float


@dataclass(frozen=True)
class CellResult:
    labeling: str
    setup: str
    batch_size: int
    metric_rows: tuple[MetricRow, ...]
    # (fold, class_name, epsilon) for calibrated setups
    calibration_rows: tuple
    # per fold: tuple of HistoryRow
    histories: tuple
    # per fold: the trained LinearPixelModel
    models: tuple
    loss_class_names: tuple
    roc_points: tuple
    roc_thresholds: tuple
    roc_auc: float

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.labeling, self.setup, self.batch_size)


def run_cell(config: ExperimentConfig, labeling: str, setup: str, batch_size: int,
             datasets: tuple[SyntheticDataset, SyntheticDataset] | None = None) -> CellResult:
    """Train and score one cell; datasets is build_dataset(config), built here when omitted."""
    full, corrupted = datasets if datasets is not None else build_dataset(config)
    train_view = corrupted if labeling == "partial" else full
    k = config.folds
    metric_rows = []
    calibration_rows = []
    histories = []
    models = []
    loss_class_names: tuple = ()
    for fold in range(k):
        train_split = _subset(train_view, lambda s: s.subject_id % k != fold)
        val_split = _subset(full, lambda s: s.subject_id % k == fold)
        loss, include_bg, calibration = _setup_loss(setup, train_split)
        calibration_rows += [(fold, name, value) for name, value in calibration]
        cfg = TrainConfig(loss=loss, batch_size=batch_size,
                          learning_rate=config.learning_rate,
                          iterations=config.iterations, seed=fold,
                          include_background_in_loss=include_bg)
        try:
            result = train(train_split, cfg)
        except NonFiniteTrainingError as exc:
            raise NonFiniteTrainingError(
                f"cell {_cell_dirname(labeling, setup, batch_size)} fold {fold}: {exc}"
            ) from exc
        histories.append(result.history)
        models.append(result.model)
        loss_class_names = result.class_names
        pred = predict(result.model, val_split)
        hard = binarize(pred, result.model.head)
        fg_offset = hard.shape[1] - full.n_classes  # softmax output includes background
        for row, s in enumerate(val_split.samples):
            for c, name in enumerate(full.class_names):
                gt_map = s.gt[c].reshape(-1)
                pred_map = hard[row, fg_offset + c]
                metric_rows.append(MetricRow(
                    fold, s.subject_id, s.tag, name,
                    hard_dsc(gt_map, pred_map),
                    volume_difference(gt_map, pred_map),
                    float(pred_map.sum()),
                    float(gt_map.sum()),
                ))
    metric_rows.sort(key=lambda r: (r.fold, r.subject_id, r.class_name))
    target = roc_target_class(config.task)
    positive = always_labeled_tag(config.task)
    scores, labels = [], []
    for row in metric_rows:
        if row.class_name == target:
            scores.append(row.pred_vol)
            labels.append(1 if row.tag == positive else 0)
    curve = roc_auc(scores, labels)
    return CellResult(
        labeling=labeling, setup=setup, batch_size=batch_size,
        metric_rows=tuple(metric_rows),
        calibration_rows=tuple(calibration_rows),
        histories=tuple(histories),
        models=tuple(models),
        loss_class_names=loss_class_names,
        roc_points=curve.points,
        roc_thresholds=curve.thresholds,
        roc_auc=curve.auc,
    )


def _cell_worker(args) -> CellResult:
    config_dict, labeling, setup, batch_size = args
    return run_cell(config_from_dict(config_dict), labeling, setup, batch_size)


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    config_path: Path
    dataset_dir: Path
    metrics_csv: Path
    summary_csv: Path
    auc_csv: Path
    roc_csv: Path
    calibration_csv: Path
    comparisons_csv: Path
    cell_dirs: tuple[Path, ...]


def _cell_dirname(labeling: str, setup: str, batch_size: int) -> str:
    return f"{labeling}-{setup}-b{batch_size}"


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def _summarize(results: list[CellResult]) -> list[list]:
    rows = []
    for r in results:
        tags = sorted({row.tag for row in r.metric_rows})
        classes = sorted({row.class_name for row in r.metric_rows})
        for tag in tags + ["all"]:
            for name in classes:
                sel = [row for row in r.metric_rows
                       if row.class_name == name and (tag == "all" or row.tag == tag)]
                if not sel:
                    continue
                rows.append([
                    r.labeling, r.setup, r.batch_size, tag, name, len(sel),
                    _mean([x.dsc for x in sel]),
                    _mean([x.delta_v for x in sel]),
                    _mean([x.pred_vol for x in sel]),
                    _mean([x.true_vol for x in sel]),
                ])
    return rows


def _paired_dsc(a: CellResult, b: CellResult, class_name: str, tag: str):
    """Per-subject DSC lists for one class, ordered by subject, tag-filtered."""
    def collect(r):
        return {row.subject_id: row.dsc for row in r.metric_rows
                if row.class_name == class_name and (tag == "all" or row.tag == tag)}
    da, db = collect(a), collect(b)
    common = sorted(set(da) & set(db))
    return [da[s] for s in common], [db[s] for s in common]


def _comparisons(config: ExperimentConfig, results: list[CellResult]) -> list[list]:
    by_key = {r.key: r for r in results}
    classes = sorted({row.class_name for r in results for row in r.metric_rows})
    tags = sorted({row.tag for r in results for row in r.metric_rows}) + ["all"]
    rows = []

    def compare(kind, a, b, label_a, label_b, setup, batch_size):
        for name in classes:
            for tag in tags:
                xs, ys = _paired_dsc(a, b, name, tag)
                if len(xs) < 2:
                    continue
                p = bootstrap_compare(xs, ys, config.bootstrap_resamples, seed=config.seed)
                rows.append([kind, setup, batch_size, label_a, label_b, tag, name,
                             len(xs), _mean(xs), _mean(ys), _mean(xs) - _mean(ys), p])

    # partial vs full, same setup and batch size
    for setup in config.setups:
        for b in config.batch_sizes:
            a = by_key.get(("partial", setup, b))
            f = by_key.get(("full", setup, b))
            if a is not None and f is not None:
                compare("labeling", a, f, "partial", "full", setup, b)
    # each setup vs the first configured setup, within partial labeling
    baseline = config.setups[0]
    for setup in config.setups[1:]:
        for b in config.batch_sizes:
            a = by_key.get(("partial", setup, b))
            f = by_key.get(("partial", baseline, b))
            if a is not None and f is not None:
                compare("setup", a, f, setup, baseline, setup, b)
    return rows


def _check_folds(config: ExperimentConfig, full: SyntheticDataset) -> None:
    """Every fold must hold out a subject, and every batch size fit its smallest training split."""
    k = config.folds
    held_out = [sum(1 for s in full.samples if s.subject_id % k == fold) for fold in range(k)]
    if min(held_out) == 0:
        raise InvalidConfigError(f"{k} folds leave a fold without subjects ({len(full)} in total)")
    smallest = len(full) - max(held_out)
    too_big = [b for b in config.batch_sizes if b > smallest]
    if too_big:
        raise InvalidConfigError(
            f"batch sizes {too_big} exceed the smallest training split "
            f"({smallest} samples at {k} folds)"
        )


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1) -> RunArtifacts:
    """Train every cell, then write all artifacts into out_dir.

    out_dir must be new or empty, so no artifact of an older run survives.
    """
    if jobs < 1:
        raise InvalidConfigError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise InvalidConfigError(f"output directory {out} must be new or empty")
    datasets = build_dataset(config)
    full = datasets[0]
    _check_folds(config, full)
    out.mkdir(parents=True, exist_ok=True)
    cells = config.cells()
    if jobs == 1 or len(cells) == 1:
        results = [run_cell(config, *cell, datasets=datasets) for cell in cells]
    else:
        config_dict = config_to_dict(config)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_cell_worker,
                                    [(config_dict, *cell) for cell in cells]))

    save_config(config, out / "config_snapshot.yaml")
    dataset_dir = out / "dataset"
    save_dataset(full, dataset_dir)

    cell_root = out / "cells"
    cell_dirs = []
    for r in results:
        cdir = cell_root / _cell_dirname(*r.key)
        cdir.mkdir(parents=True, exist_ok=True)
        cell_dirs.append(cdir)
        for fold, history in enumerate(r.histories):
            names = r.loss_class_names
            header = ["iteration", "loss"]
            header += [f"grad_y0_{n}" for n in names] + [f"grad_y1_{n}" for n in names]
            hrows = [[h.iteration, h.loss, *h.grad_mag_y0, *h.grad_mag_y1] for h in history]
            write_csv(cdir / f"history_fold{fold}.csv", header, hrows)
        for fold, model in enumerate(r.models):
            save_model(model, cdir / f"fold{fold}.model")

    metric_header = ["labeling", "setup", "batch_size", "fold", "subject_id", "tag",
                     "class", "dsc", "delta_v", "pred_vol", "true_vol"]
    metric_rows = []
    for r in results:
        metric_rows += [[r.labeling, r.setup, r.batch_size, *row] for row in r.metric_rows]
    metrics_csv = out / "metrics.csv"
    write_csv(metrics_csv, metric_header, metric_rows)

    summary_csv = out / "summary.csv"
    write_csv(summary_csv,
              ["labeling", "setup", "batch_size", "tag", "class", "n",
               "mean_dsc", "mean_delta_v", "mean_pred_vol", "mean_true_vol"],
              _summarize(results))

    auc_csv = out / "auc.csv"
    write_csv(auc_csv,
              ["labeling", "setup", "batch_size", "target_class", "positive_tag", "auc"],
              [[r.labeling, r.setup, r.batch_size, roc_target_class(config.task),
                always_labeled_tag(config.task), r.roc_auc] for r in results])

    roc_csv = out / "roc_points.csv"
    roc_rows = []
    for r in results:
        for (fpr, tpr), t in zip(r.roc_points, r.roc_thresholds):
            roc_rows.append([r.labeling, r.setup, r.batch_size, t, fpr, tpr])
    write_csv(roc_csv, ["labeling", "setup", "batch_size", "threshold", "fpr", "tpr"],
              roc_rows)

    calibration_csv = out / "calibration.csv"
    cal_rows = []
    for r in results:
        cal_rows += [[r.labeling, r.setup, r.batch_size, fold, name, value]
                     for fold, name, value in r.calibration_rows]
    write_csv(calibration_csv,
              ["labeling", "setup", "batch_size", "fold", "class", "epsilon"], cal_rows)

    comparisons_csv = out / "comparisons.csv"
    write_csv(comparisons_csv,
              ["kind", "setup", "batch_size", "side_a", "side_b", "tag", "class",
               "n", "mean_a", "mean_b", "mean_diff", "p_value"],
              _comparisons(config, results))

    return RunArtifacts(
        out_dir=out,
        config_path=out / "config_snapshot.yaml",
        dataset_dir=dataset_dir,
        metrics_csv=metrics_csv,
        summary_csv=summary_csv,
        auc_csv=auc_csv,
        roc_csv=roc_csv,
        calibration_csv=calibration_csv,
        comparisons_csv=comparisons_csv,
        cell_dirs=tuple(cell_dirs),
    )
