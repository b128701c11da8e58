"""Experiment orchestration: config files, cross-validated runs, artifacts.

A run expands a config into a matrix of cells (labeling x setup x batch size),
trains each cell with subject-level k-fold cross-validation, scores held-out
subjects against pristine ground truth, and writes everything as CSV plus
model checkpoints. Cells whose training is the same computation (batch-wise
pooling at B = 1 is image-wise pooling; the leaf variant on labels without an
empty map is the standard loss) train once and share the result. The cells
that train draw the same batches at one fold and batch size, so each such
group trains in lockstep; groups are independent and may execute in parallel.
The parent process scores the cells and writes all artifacts in a fixed
order, so outputs are byte-identical for a given config no matter the job
count.
"""

from __future__ import annotations

import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .epsilon import calibrate_epsilon
from .errors import (InvalidConfigError, NonFiniteTrainingError, require_int, require_number,
                     require_type)
from .loss import DiceLossConfig, Variant
from .metrics import (RocCurve, binarize, bootstrap_compare, hard_dsc, roc_auc,
                      volume_difference, write_csv)
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
from .tensor import ReductionScheme
from .trainer import TrainConfig, predict, save_model, train

CONFIG_SCHEMA = 1

LABELINGS = ("full", "partial")
NEGLIGIBLE_EPSILON = 1e-7


class Setup(NamedTuple):
    """One loss setup of the matrix; a marginal loss also trains the background map."""

    scheme: ReductionScheme
    variant: Variant
    calibrated: bool  # per-class epsilon from each fold's training labels, else negligible


SETUPS = {
    "image-wise": Setup(ReductionScheme.IMAGE_WISE, Variant.STANDARD, False),
    "batch-wise": Setup(ReductionScheme.BATCH_WISE, Variant.STANDARD, False),
    "image-wise-calibrated": Setup(ReductionScheme.IMAGE_WISE, Variant.STANDARD, True),
    "leaf": Setup(ReductionScheme.IMAGE_WISE, Variant.LEAF, False),
    "marginal": Setup(ReductionScheme.IMAGE_WISE, Variant.MARGINAL, False),
}
SETUP_NAMES = tuple(SETUPS)


class Task(NamedTuple):
    """A synthetic task: its data, its label corruption, its ROC and its default matrix."""

    generate: Callable[..., SyntheticDataset]
    params: type
    partial: PartialPolicy
    positive_tag: str   # the always-labeled cohort, positive in the volume ROC
    roc_target: str     # the class whose predicted volume separates the cohorts
    setups: tuple[str, ...]
    batch_sizes: tuple[int, ...]


# Each generator is called through its module-level name, so rebinding that name
# (as a tracer does) reaches every call.
TASKS = {
    "binary": Task(
        generate=lambda params, seed: generate_binary(params, seed),
        params=BinaryTaskParams,
        partial=PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B),
        positive_tag=GRADE_A, roc_target="lesion",
        setups=("image-wise", "batch-wise", "image-wise-calibrated"), batch_sizes=(1, 4)),
    "multiclass": Task(
        generate=lambda params, seed: generate_multiclass(params, seed),
        params=MulticlassTaskParams,
        # class 1 of generate_multiclass is the shell
        partial=PartialPolicy(PartialAction.MARK_UNAVAILABLE, tag=PHASE_B, class_index=1),
        positive_tag=PHASE_A, roc_target="shell",
        setups=("image-wise", "leaf", "marginal"), batch_sizes=(1,)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; omitted setups and batch sizes are the task's defaults."""

    task: str
    seed: int = 7
    labelings: tuple[str, ...] = LABELINGS
    setups: tuple[str, ...] | None = None
    batch_sizes: tuple[int, ...] | None = None
    learning_rate: float = 5.0
    iterations: int = 1500
    folds: int = 3
    bootstrap_resamples: int = 2000
    dataset: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.task, str) or self.task not in TASKS:
            raise InvalidConfigError(f"unknown task {self.task!r}")
        for name in ("setups", "batch_sizes"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, getattr(TASKS[self.task], name))
        for lab in self.labelings:
            if lab not in LABELINGS:
                raise InvalidConfigError(f"unknown labeling {lab!r}")
        for s in self.setups:
            if s not in SETUP_NAMES:
                raise InvalidConfigError(f"unknown setup {s!r}; choose from {SETUP_NAMES}")
        if self.task != "multiclass" and any(
                SETUPS[s].variant is Variant.MARGINAL for s in self.setups):
            raise InvalidConfigError("the marginal setup needs the multiclass task "
                                     "(its model has no background output otherwise)")
        if not self.labelings or not self.setups or not self.batch_sizes:
            raise InvalidConfigError("labelings, setups, and batch_sizes must be non-empty")
        for b in self.batch_sizes:
            require_int("batch size", b, 1)
        for name, values in (("labelings", self.labelings), ("setups", self.setups),
                             ("batch_sizes", self.batch_sizes)):
            if len(set(values)) != len(values):
                raise InvalidConfigError(f"{name} must not repeat an entry, got {values!r}")
        require_int("folds", self.folds, 2)
        require_int("iterations", self.iterations, 1)
        require_int("seed", self.seed, 0)
        require_int("bootstrap_resamples", self.bootstrap_resamples, 1)
        require_number("learning_rate", self.learning_rate, 0)

    def cells(self) -> list[tuple[str, str, int]]:
        return [(lab, setup, b)
                for lab in self.labelings
                for setup in self.setups
                for b in self.batch_sizes]


def default_config(task: str) -> ExperimentConfig:
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
    if type(version) is not int or version != CONFIG_SCHEMA:  # True == 1
        raise InvalidConfigError(f"unsupported config schema_version {version!r}")
    if "task" not in data:
        raise InvalidConfigError("config needs a 'task' field (binary or multiclass)")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfigError(f"unknown config fields: {sorted(unknown, key=str)}")
    for key in ("labelings", "setups", "batch_sizes"):
        if key in data:
            if not isinstance(data[key], (list, tuple)):
                raise InvalidConfigError(f"{key} must be a list, got {data[key]!r}")
            data[key] = tuple(data[key])
    if not isinstance(data.get("dataset", {}), dict):
        raise InvalidConfigError(f"dataset must be a mapping, got {data['dataset']!r}")
    try:
        return ExperimentConfig(**data)  # omitted fields: the task's defaults
    except TypeError as exc:
        raise InvalidConfigError(f"bad config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
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
    task = TASKS[config.task]
    try:
        params = task.params(**config.dataset)
    except TypeError as exc:  # a field the task's parameters do not have
        raise InvalidConfigError(f"bad dataset parameters: {exc}") from exc
    full = task.generate(params, config.seed)
    return full, apply_partial(full, task.partial)


def _subset(ds: SyntheticDataset, rows: np.ndarray) -> SyntheticDataset:
    """The samples of ds where the (n,) bool mask rows is true."""
    return SyntheticDataset(ds.task, ds.class_names, ds.subject_ids[rows], ds.tags[rows],
                            ds.images[rows], ds.gt[rows], ds.availability[rows])


def _setup_loss(setup: str, train_split: SyntheticDataset) -> tuple[DiceLossConfig, list]:
    """Loss config and calibration rows for one fold."""
    scheme, variant, calibrated = SETUPS[setup]
    epsilon, calibration = NEGLIGIBLE_EPSILON, []
    if calibrated:  # every calibrated setup pools class-pure, so epsilon is per class
        gt = train_split.gt.reshape(len(train_split), train_split.n_classes, -1)
        epsilon = calibrate_epsilon(gt, scheme)
        calibration = list(zip(train_split.class_names, epsilon.tolist()))
    return DiceLossConfig(scheme, epsilon, variant), calibration


# One held-out (fold, subject, class) score; the fields are metrics.csv's columns
SCORE_DTYPE = np.dtype([("fold", np.int64), ("subject_id", np.int64), ("tag", object),
                        ("class", object), ("dsc", np.float64), ("delta_v", np.float64),
                        ("pred_vol", np.float64), ("true_vol", np.float64)])


@dataclass(frozen=True)
class CellResult:
    """One cell's trained folds and held-out scores: a read-only SCORE_DTYPE array, one
    row per (fold, subject, class) sorted by fold, subject_id and class name."""

    labeling: str
    setup: str
    batch_size: int
    scores: np.ndarray
    # (fold, class_name, epsilon) for calibrated setups
    calibration_rows: tuple
    # per fold: the TrainResult.history array
    histories: tuple
    # per fold: the trained LinearPixelModel
    models: tuple
    loss_class_names: tuple
    roc: RocCurve

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.labeling, self.setup, self.batch_size)


def _train_group(config: ExperimentConfig, cells: list, fold: int, datasets):
    """Train cells, which share a batch size, on fold's training split in lockstep.

    Returns each cell's (TrainResult, calibration rows) in order, or the
    NonFiniteTrainingError of the first cell that fails; datasets is
    build_dataset(config).
    """
    full, corrupted = datasets
    held_out = full.subject_ids % config.folds  # the twin holds the same subjects in the same rows
    splits = {lab: _subset(corrupted if lab == "partial" else full, held_out != fold)
              for lab in {cell[0] for cell in cells}}
    runs, calibrations = [], []
    for labeling, setup, batch_size in cells:
        loss, calibration = _setup_loss(setup, splits[labeling])
        calibrations.append(calibration)
        runs.append((splits[labeling], TrainConfig(
            loss=loss, batch_size=batch_size, learning_rate=config.learning_rate,
            iterations=config.iterations, seed=fold)))
    try:
        return list(zip(train(runs), calibrations))
    except NonFiniteTrainingError as exc:
        return exc


def run_cell(config: ExperimentConfig, labeling: str, setup: str, batch_size: int,
             datasets: tuple[SyntheticDataset, SyntheticDataset], trained) -> CellResult:
    """Score one cell on each fold's held-out subjects; trained holds each fold's
    (TrainResult, calibration rows) in fold order, and datasets is
    build_dataset(config)."""
    full = datasets[0]
    held_out = full.subject_ids % config.folds
    classes = np.argsort(full.class_names, kind="stable")
    folds, calibration_rows = [], []
    for fold, (result, calibration) in enumerate(trained):
        calibration_rows += [(fold, name, value) for name, value in calibration]
        val_split = _subset(full, held_out == fold)
        hard = binarize(predict(result.model, val_split))[:, -full.n_classes:]  # skip background
        gt = val_split.gt.reshape(hard.shape)
        rows, cols = np.ix_(np.argsort(val_split.subject_ids, kind="stable"), classes)
        gt, hard = gt[rows, cols], hard[rows, cols]  # by subject_id, then class name
        scores = np.empty(gt.shape[:2], SCORE_DTYPE)
        scores["fold"] = fold
        scores["subject_id"] = val_split.subject_ids[rows]
        scores["tag"] = val_split.tags[rows]
        scores["class"] = np.array(full.class_names, dtype=object)[cols]
        scores["dsc"] = hard_dsc(gt, hard)
        scores["delta_v"] = volume_difference(gt, hard)
        scores["pred_vol"] = np.count_nonzero(hard, axis=-1)
        scores["true_vol"] = np.count_nonzero(gt, axis=-1)
        folds.append(scores.reshape(-1))
    scores = np.concatenate(folds)
    scores.flags.writeable = False
    task = TASKS[config.task]
    target = scores[scores["class"] == task.roc_target]
    return CellResult(
        labeling=labeling, setup=setup, batch_size=batch_size, scores=scores,
        calibration_rows=tuple(calibration_rows),
        histories=tuple(result.history for result, _ in trained),
        models=tuple(result.model for result, _ in trained),
        loss_class_names=trained[-1][0].class_names,
        roc=roc_auc(target["pred_vol"], target["tag"] == task.positive_tag),
    )


def _training_key(labeling: str, setup: str, batch_size: int, n_classes: int,
                  complete: bool) -> tuple:
    """What decides how a cell trains, for a task of n_classes foreground classes
    whose labeling has no empty (sample, class) map when complete is true.

    A pooled axis of extent 1 (the batch axis at B = 1, the class axis of a
    one-class loss) sums a single term, so leaving it out of Phi changes no
    sum: batch-wise pooling at B = 1 is image-wise pooling, bit for bit. On
    complete labels no pooled subset is empty, so the leaf variant drops none
    and trains as the standard loss, bit for bit.
    """
    scheme, variant, calibrated = SETUPS[setup]
    if variant is Variant.LEAF and complete:
        variant = Variant.STANDARD
    extent = {0: batch_size, 1: n_classes + (variant is Variant.MARGINAL)}
    axes = tuple(a for a in scheme.axes if extent.get(a) != 1)
    return labeling, batch_size, variant, calibrated, axes


def _training_keys(config: ExperimentConfig, datasets) -> list[tuple]:
    """Each cell's training key; datasets is build_dataset(config), in LABELINGS order."""
    complete = {lab: bool(v.gt.any(axis=(-2, -1)).all()) for lab, v in zip(LABELINGS, datasets)}
    return [_training_key(*cell, datasets[0].n_classes, complete[cell[0]])
            for cell in config.cells()]


CELL_COLUMNS = ["labeling", "setup", "batch_size"]

# The run-level CSVs in writing order: file name -> header
ARTIFACTS = {
    "metrics.csv": [*CELL_COLUMNS, *SCORE_DTYPE.names],
    "summary.csv": [*CELL_COLUMNS, "tag", "class", "n", "mean_dsc",
                    "mean_delta_v", "mean_pred_vol", "mean_true_vol"],
    "auc.csv": [*CELL_COLUMNS, "target_class", "positive_tag", "auc"],
    "roc_points.csv": [*CELL_COLUMNS, "threshold", "fpr", "tpr"],
    "calibration.csv": [*CELL_COLUMNS, "fold", "class", "epsilon"],
    "comparisons.csv": ["kind", "setup", "batch_size", "side_a", "side_b", "tag", "class",
                        "n", "mean_a", "mean_b", "mean_diff", "p_value"],
}


def _cell_dirname(labeling: str, setup: str, batch_size: int) -> str:
    return f"{labeling}-{setup}-b{batch_size}"


def _rows(scores: np.ndarray, tag: str, name: str) -> np.ndarray:
    """Mask of the scores of class name and tag, or of every tag for "all", which no
    tag is: tags come from the generators' cohorts."""
    mask = scores["class"] == name
    return mask if tag == "all" else mask & (scores["tag"] == tag)


def _mean(values) -> float:
    return float(np.mean(values))


def _summarize(results) -> list[list]:
    """summary.csv rows: per cell, tag (sorted, "all" last) and class (sorted), the
    means over the scores of that tag and class, in score order."""
    rows = []
    for r in results:
        s = r.scores
        for tag in [*sorted(set(s["tag"])), "all"]:
            for name in sorted(set(s["class"])):
                mask = _rows(s, tag, name)
                if mask.any():
                    rows.append([*r.key, tag, name, int(np.count_nonzero(mask)),
                                 *(_mean(s[f][mask]) for f in SCORE_DTYPE.names[4:])])
    return rows


def _comparisons(config: ExperimentConfig, results) -> list[list]:
    """comparisons.csv rows from the cells' results.

    Partial vs full labeling for each setup and batch size, then each setup
    vs the first configured one within partial labeling; per class, tag
    ("all" last), over the subjects both cells scored, in subject id order.
    """
    scores = {r.key: r.scores for r in results}
    baseline = config.setups[0]
    contrasts = [("labeling", s, b, "partial", "full", ("partial", s, b), ("full", s, b))
                 for s in config.setups for b in config.batch_sizes]
    contrasts += [("setup", s, b, s, baseline, ("partial", s, b), ("partial", baseline, b))
                  for s in config.setups[1:] for b in config.batch_sizes]
    rows = []
    for *head, key_a, key_b in contrasts:
        if key_a not in scores or key_b not in scores:
            continue
        a, b = scores[key_a], scores[key_b]
        for name in sorted(set(a["class"]) & set(b["class"])):
            for tag in [*sorted(set(a["tag"]) & set(b["tag"])), "all"]:
                in_a, in_b = _rows(a, tag, name), _rows(b, tag, name)
                _, ia, ib = np.intersect1d(a["subject_id"][in_a], b["subject_id"][in_b],
                                           assume_unique=True, return_indices=True)
                if len(ia) < 2:
                    continue
                xs, ys = a["dsc"][in_a][ia], b["dsc"][in_b][ib]
                p = bootstrap_compare(xs, ys, config.bootstrap_resamples, seed=config.seed)
                rows.append([*head, tag, name, len(xs), _mean(xs), _mean(ys),
                             _mean(xs) - _mean(ys), p])
    return rows


def _run_cells(config: ExperimentConfig, datasets, jobs: int) -> list[CellResult]:
    """The result of every cell of the matrix, in config.cells() order.

    Cells with one training key train once, as the first of them in matrix
    order; the others take its result under their own labeling, setup and
    batch size. The cells that train draw the same batches at one fold and
    batch size, so each such group trains in lockstep, serially or as one
    pool task; then each cell is scored. A NonFiniteTrainingError names the
    first failing (cell, fold) in matrix order.
    """
    cells = config.cells()
    keys = _training_keys(config, datasets)
    firsts: dict[tuple, tuple] = {}
    for key, cell in zip(keys, cells):
        firsts.setdefault(key, cell)
    trained = list(firsts.values())
    groups = [(fold, [cell for cell in trained if cell[2] == b])
              for fold in range(config.folds) for b in config.batch_sizes]
    tasks = [(config, group, fold, datasets) for fold, group in groups]
    if jobs == 1 or len(tasks) == 1:
        outcomes = [_train_group(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_train_group, *zip(*tasks)))
    failures = [(trained.index(group[exc.run]), fold, exc)
                for (fold, group), exc in zip(groups, outcomes)
                if isinstance(exc, NonFiniteTrainingError)]
    if failures:
        cell, fold, exc = min(failures, key=lambda f: f[:2])
        raise NonFiniteTrainingError(
            f"cell {_cell_dirname(*trained[cell])} fold {fold}: {exc}") from exc
    folds: dict[tuple, list] = {cell: [] for cell in trained}
    for (_, group), outcome in zip(groups, outcomes):  # in fold order
        for cell, result in zip(group, outcome):
            folds[cell].append(result)
    scored = {key: run_cell(config, *cell, datasets, folds[cell]) for key, cell in firsts.items()}
    return [replace(scored[key], labeling=lab, setup=setup, batch_size=b)
            for key, (lab, setup, b) in zip(keys, cells)]


def _check_folds(config: ExperimentConfig, full: SyntheticDataset) -> None:
    """Every fold must hold out a subject, and every batch size fit its smallest training split."""
    k = config.folds
    held_out = np.bincount(full.subject_ids % k, minlength=k)
    if held_out.min() == 0:
        raise InvalidConfigError(f"{k} folds leave a fold without subjects ({len(full)} in total)")
    smallest = len(full) - int(held_out.max())
    too_big = [b for b in config.batch_sizes if b > smallest]
    if too_big:
        raise InvalidConfigError(
            f"batch sizes {too_big} exceed the smallest training split "
            f"({smallest} samples at {k} folds)"
        )


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1) -> Path:
    """Train every cell, then write all artifacts into out_dir; returns it as a Path.

    out_dir must be new or empty, so no artifact of an older run survives.
    """
    require_type("config", config, ExperimentConfig)
    require_int("jobs", jobs, 1)
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise InvalidConfigError(f"output directory {out} must be new or empty")
    datasets = build_dataset(config)
    full = datasets[0]
    _check_folds(config, full)
    out.mkdir(parents=True, exist_ok=True)
    results = _run_cells(config, datasets, jobs)

    save_config(config, out / "config_snapshot.yaml")
    save_dataset(full, out / "dataset")
    first_file: dict[int, Path] = {}  # by id of the history array, which shared cells reuse
    for r in results:
        cdir = out / "cells" / _cell_dirname(*r.key)
        cdir.mkdir(parents=True, exist_ok=True)
        names = r.loss_class_names
        header = ["iteration", "loss"]
        header += [f"grad_y0_{n}" for n in names] + [f"grad_y1_{n}" for n in names]
        for fold, (history, model) in enumerate(zip(r.histories, r.models)):
            path = cdir / f"history_fold{fold}.csv"
            if id(history) in first_file:
                shutil.copyfile(first_file[id(history)], path)
            else:
                write_csv(path, header, [[i, *row] for i, row in enumerate(history.tolist(), 1)])
                first_file[id(history)] = path
            save_model(model, cdir / f"fold{fold}.model")

    task = TASKS[config.task]
    rows = {
        "metrics.csv": [[*r.key, *row] for r in results for row in r.scores.tolist()],
        "summary.csv": _summarize(results),
        "auc.csv": [[*r.key, task.roc_target, task.positive_tag, r.roc.auc] for r in results],
        "roc_points.csv": [[*r.key, t, fpr, tpr] for r in results
                           for t, fpr, tpr in zip(r.roc.thresholds, r.roc.fpr, r.roc.tpr)],
        "calibration.csv": [[*r.key, *cal] for r in results for cal in r.calibration_rows],
        "comparisons.csv": _comparisons(config, results),
    }
    for name, header in ARTIFACTS.items():
        write_csv(out / name, header, rows[name])
    return out
