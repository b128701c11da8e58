"""Deterministic synthetic 2-D segmentation tasks.

Two task families, both disk-based so ground truth is exact:

* binary: every image holds one disk; "grade-a" disks are bright and large,
  "grade-b" disks dimmer and smaller, so a per-pixel model can tell the two
  cohorts apart by intensity alone.
* multiclass: a core disk, a shell ring around it, and a separate satellite
  disk, each with its own intensity band; "phase-b" samples shrink all radii
  by a fixed factor.

Partial-labeling corruption zeroes ground-truth maps for a targeted tag or
class, either leaving availability untouched (empty-label regime) or marking
the class unavailable (missing-label regime).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (InvalidConfigError, RangeViolationError, ShapeMismatchError, TensorFileError,
                     require_binary, require_int, require_number)
from .tensor import read_tensor, write_tensor

GRADE_A = "grade-a"
GRADE_B = "grade-b"
PHASE_A = "phase-a"
PHASE_B = "phase-b"

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = 1


class PartialAction(Enum):
    """How a targeted ground-truth map is corrupted."""

    EMPTY_MAP = "empty-map"            # zero the map, availability stays true
    MARK_UNAVAILABLE = "mark-unavailable"  # zero the map and flag it unavailable


@dataclass(frozen=True)
class PartialPolicy:
    """Selects samples by tag and/or a class column, and says how to corrupt them."""

    action: PartialAction
    tag: str | None = None
    class_index: int | None = None


@dataclass(frozen=True)
class SyntheticSample:
    subject_id: int
    tag: str
    image: np.ndarray        # (N, N) intensities in [0, 1]
    gt: np.ndarray           # (C, N, N) binary maps, disjoint across classes
    availability: np.ndarray  # (C,) bool
    # arrays derived from the image alone (the model's features), filled on
    # first use and shared with every relabeled twin, which holds the same image
    image_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.image.ndim != 2 or self.gt.ndim != 3:
            raise ShapeMismatchError("image must be 2-D and gt 3-D")
        if self.gt.shape[1:] != self.image.shape:
            raise ShapeMismatchError(
                f"gt maps {self.gt.shape[1:]} do not match image {self.image.shape}"
            )
        if self.availability.shape != (self.gt.shape[0],):
            raise ShapeMismatchError("availability must have one flag per class")
        if not isinstance(self.tag, str) or self.availability.dtype != bool:
            raise InvalidConfigError(f"subject {self.subject_id}: the tag must be a string "
                                     f"and the availability flags true or false")
        if not np.isfinite(self.image).all():
            raise RangeViolationError(f"subject {self.subject_id}: image values must be finite")
        require_binary(f"subject {self.subject_id}: gt", self.gt)
        if len(self.gt) > 1 and (self.gt.sum(axis=0) > 1.0).any():
            raise RangeViolationError(f"subject {self.subject_id}: gt maps of two classes "
                                      f"overlap; a pixel belongs to at most one class")
        for name in ("image", "gt", "availability"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_classes(self) -> int:
        return self.gt.shape[0]

    def relabeled(self, gt: np.ndarray, availability: np.ndarray) -> SyntheticSample:
        """This sample with other labels; the twin shares the image and its image_cache."""
        twin = SyntheticSample(self.subject_id, self.tag, self.image, gt, availability)
        object.__setattr__(twin, "image_cache", self.image_cache)
        return twin


@dataclass(frozen=True)
class SyntheticDataset:
    task: str
    class_names: tuple[str, ...]
    image_size: int
    samples: tuple[SyntheticSample, ...]
    origin: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def tags(self) -> set[str]:
        return {s.tag for s in self.samples}


@dataclass(frozen=True)
class BinaryTaskParams:
    image_size: int = 32
    n_grade_a: int = 30
    n_grade_b: int = 10
    intensity_a: tuple[float, float] = (0.72, 0.9)
    intensity_b: tuple[float, float] = (0.5, 0.6)
    radius_a: tuple[float, float] = (4.0, 7.0)
    radius_b: tuple[float, float] = (3.0, 5.0)
    background_level: float = 0.05
    noise_sigma: float = 0.02

    def __post_init__(self):
        _check_common(self, ("n_grade_a", "n_grade_b"))
        for name in ("intensity_a", "intensity_b"):
            _check_range(self, name, 0.0, 1.0)
        for name in ("radius_a", "radius_b"):  # every disk fits inside the frame
            _check_range(self, name, 1.0, self.image_size / 2.0 - 2.0)


@dataclass(frozen=True)
class MulticlassTaskParams:
    image_size: int = 48
    n_phase_a: int = 30
    n_phase_b: int = 10
    core_radius: tuple[float, float] = (4.0, 7.0)
    shell_width: tuple[float, float] = (2.0, 3.5)
    satellite_radius: tuple[float, float] = (3.0, 5.0)
    phase_b_shrink: float = 0.8
    core_intensity: tuple[float, float] = (0.75, 0.9)
    shell_intensity: tuple[float, float] = (0.5, 0.65)
    satellite_intensity: tuple[float, float] = (0.3, 0.45)
    background_level: float = 0.1
    noise_sigma: float = 0.03
    center_jitter: float = 1.5

    def __post_init__(self):
        _check_common(self, ("n_phase_a", "n_phase_b"))
        require_number("phase_b_shrink", self.phase_b_shrink, 0.0, 1.0)
        if self.phase_b_shrink == 0:
            raise InvalidConfigError("phase_b_shrink must be in (0, 1], got 0")
        require_number("center_jitter", self.center_jitter, 0.0)
        for name in ("core_radius", "shell_width", "satellite_radius"):
            _check_range(self, name, 0.0, self.image_size / 2.0)
        for name in ("core_intensity", "shell_intensity", "satellite_intensity"):
            _check_range(self, name, 0.0, 1.0)
        n = self.image_size
        j = self.center_jitter
        outer_hi = self.core_radius[1] + self.shell_width[1]
        sat_hi = self.satellite_radius[1]
        # worst-case extents: structures must fit inside the frame and never touch
        core_right = 0.30 * n + j + outer_hi
        sat_left = 0.75 * n - j - sat_hi
        if core_right + 1.0 > sat_left:
            raise InvalidConfigError("core/shell and satellite ranges may overlap; "
                                     "reduce radii or enlarge image_size")
        if 0.30 * n - j - outer_hi < 1.0 or 0.75 * n + j + sat_hi > n - 2.0:
            raise InvalidConfigError("structures may leave the frame; "
                                     "reduce radii or enlarge image_size")
        if 0.50 * n - j - outer_hi < 1.0 or 0.50 * n + j + outer_hi > n - 2.0:
            raise InvalidConfigError("structures may leave the frame vertically")


def _check_common(p, counts: tuple[str, str]) -> None:
    """The fields both tasks share: image size, the two cohort counts, background, noise."""
    require_int("image_size", p.image_size, 16)
    for name in counts:
        require_int(name, getattr(p, name), 1)
    require_number("background_level", p.background_level, 0.0, 1.0)
    require_number("noise_sigma", p.noise_sigma, 0.0)


def _check_range(p, name: str, low: float, high: float) -> None:
    """Field name of p: a range low <= lo <= hi <= high, a list stored as a (lo, hi) tuple."""
    pair = getattr(p, name)
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InvalidConfigError(f"{name} must be a [low, high] pair, got {pair!r}")
    require_number(f"{name} low", pair[0], low, high)
    require_number(f"{name} high", pair[1], pair[0], high)
    object.__setattr__(p, name, tuple(pair))


def _disk(n: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:n, 0:n]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def _shuffled_tags(counts: list[tuple[str, int]], rng: np.random.Generator) -> list[str]:
    tags = [t for t, k in counts for _ in range(k)]
    rng.shuffle(tags)
    return tags


def generate_binary(params: BinaryTaskParams, seed: int) -> SyntheticDataset:
    """One disk per image; grade decides its intensity band and radius range."""
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n = params.image_size
    tags = _shuffled_tags([(GRADE_A, params.n_grade_a), (GRADE_B, params.n_grade_b)], rng)
    samples = []
    for sid, tag in enumerate(tags):
        if tag == GRADE_A:
            r = rng.uniform(*params.radius_a)
            level = rng.uniform(*params.intensity_a)
        else:
            r = rng.uniform(*params.radius_b)
            level = rng.uniform(*params.intensity_b)
        margin = r + 1.0
        cx = rng.uniform(margin, n - 1 - margin)
        cy = rng.uniform(margin, n - 1 - margin)
        mask = _disk(n, cx, cy, r)
        image = np.full((n, n), params.background_level)
        image[mask] = level
        image = np.clip(image + params.noise_sigma * rng.standard_normal((n, n)), 0.0, 1.0)
        samples.append(SyntheticSample(
            subject_id=sid,
            tag=tag,
            image=image,
            gt=mask[None, :, :].astype(np.float64),
            availability=np.ones(1, dtype=bool),
        ))
    origin = {"generator": "binary", "seed": int(seed), "params": asdict(params)}
    return SyntheticDataset("binary", ("lesion",), n, tuple(samples), origin)


def generate_multiclass(params: MulticlassTaskParams, seed: int) -> SyntheticDataset:
    """Core disk + shell ring + satellite disk; phase-b shrinks all radii."""
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n = params.image_size
    tags = _shuffled_tags([(PHASE_A, params.n_phase_a), (PHASE_B, params.n_phase_b)], rng)
    j = params.center_jitter
    samples = []
    for sid, tag in enumerate(tags):
        scale = params.phase_b_shrink if tag == PHASE_B else 1.0
        r_core = rng.uniform(*params.core_radius) * scale
        width = rng.uniform(*params.shell_width) * scale
        r_sat = rng.uniform(*params.satellite_radius) * scale
        ccx = 0.30 * n + rng.uniform(-j, j)
        ccy = 0.50 * n + rng.uniform(-j, j)
        scx = 0.75 * n + rng.uniform(-j, j)
        scy = 0.50 * n + rng.uniform(-j, j)
        core = _disk(n, ccx, ccy, r_core)
        shell = _disk(n, ccx, ccy, r_core + width) & ~core
        satellite = _disk(n, scx, scy, r_sat)
        image = np.full((n, n), params.background_level)
        image[core] = rng.uniform(*params.core_intensity)
        image[shell] = rng.uniform(*params.shell_intensity)
        image[satellite] = rng.uniform(*params.satellite_intensity)
        image = np.clip(image + params.noise_sigma * rng.standard_normal((n, n)), 0.0, 1.0)
        samples.append(SyntheticSample(
            subject_id=sid,
            tag=tag,
            image=image,
            gt=np.stack([core, shell, satellite]).astype(np.float64),
            availability=np.ones(3, dtype=bool),
        ))
    origin = {"generator": "multiclass", "seed": int(seed), "params": asdict(params)}
    return SyntheticDataset("multiclass", ("core", "shell", "satellite"), n,
                            tuple(samples), origin)


def apply_partial(dataset: SyntheticDataset, policy: PartialPolicy) -> SyntheticDataset:
    """Corrupt targeted samples' ground truth; untouched samples are shared as-is."""
    if policy.tag is None and policy.class_index is None:
        raise InvalidConfigError("policy must select a tag, a class index, or both")
    if policy.tag is not None and policy.tag not in dataset.tags():
        raise InvalidConfigError(f"tag {policy.tag!r} not present in dataset")
    if policy.class_index is not None and not 0 <= policy.class_index < dataset.n_classes:
        raise InvalidConfigError(
            f"class index {policy.class_index} out of range for {dataset.n_classes} classes"
        )
    columns = ([policy.class_index] if policy.class_index is not None
               else list(range(dataset.n_classes)))
    out = []
    for s in dataset.samples:
        if policy.tag is not None and s.tag != policy.tag:
            out.append(s)
            continue
        gt = s.gt.copy()
        gt[columns] = 0.0
        availability = s.availability.copy()
        if policy.action is PartialAction.MARK_UNAVAILABLE:
            availability[columns] = False
        out.append(s.relabeled(gt, availability))
    origin = dict(dataset.origin)
    origin.setdefault("policies", [])
    origin["policies"] = list(origin["policies"]) + [{
        "action": policy.action.value,
        "tag": policy.tag,
        "class_index": policy.class_index,
    }]
    return SyntheticDataset(dataset.task, dataset.class_names, dataset.image_size,
                            tuple(out), origin)


def _sample_filename(subject_id: int) -> str:
    return f"sample_{subject_id:04d}.drt"


def save_dataset(dataset: SyntheticDataset, out_dir) -> Path:
    """Write a manifest plus one tensor file per sample (image row + gt rows)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = dataset.image_size
    entries = []
    for s in dataset.samples:
        packed = np.concatenate([s.image[None, :, :], s.gt], axis=0)
        name = _sample_filename(s.subject_id)
        write_tensor(out / name, packed.reshape(1, s.n_classes + 1, n * n))
        entries.append({
            "subject_id": s.subject_id,
            "tag": s.tag,
            "availability": [bool(a) for a in s.availability],
            "file": name,
        })
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "task": dataset.task,
        "class_names": list(dataset.class_names),
        "image_size": n,
        "origin": dataset.origin,
        "samples": entries,
    }
    with open(out / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def load_dataset(path) -> SyntheticDataset:
    """Read a directory save_dataset wrote.

    Every malformed input raises a DicelabError: a manifest that is not JSON,
    lacks a field, names a file outside the directory or a file another sample
    names, holds a flag other than true/false, a task, tag or class name other
    than a string, or a subject id other than a distinct integer >= 0; a
    sample file that cannot be read, is not a (1, C + 1, N * N) tensor, or
    holds a non-finite image, a gt value other than 0 or 1, or gt maps of two
    classes that overlap.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise InvalidConfigError(f"no {MANIFEST_NAME} in {root}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise InvalidConfigError(f"{manifest_path}: not valid JSON: {exc}") from exc
    version = manifest.get("schema_version") if isinstance(manifest, dict) else None
    if type(version) is not int or version != MANIFEST_SCHEMA:
        raise InvalidConfigError(f"{manifest_path}: not a dataset manifest of schema "
                                 f"{MANIFEST_SCHEMA}")
    try:
        task = manifest["task"]
        if not isinstance(task, str):
            raise ValueError(f"task must be a string, got {task!r}")
        n = manifest["image_size"]
        require_int("image_size", n, 1)
        class_names = manifest["class_names"]
        if type(class_names) is not list or not all(isinstance(c, str) for c in class_names):
            raise ValueError(f"class_names must be a list of strings, got {class_names!r}")
        entries = [(e["subject_id"], e["tag"], np.asarray(e["availability"]),
                    Path(e["file"])) for e in manifest["samples"]]
        ids = [entry[0] for entry in entries]
        for subject_id in ids:
            require_int("subject_id", subject_id, 0)
        if len(set(ids)) != len(ids):  # each id names its own sample_NNNN.drt
            raise ValueError(f"subject ids must be unique, got {ids!r}")
        files = [str(entry[3]) for entry in entries]
        if len(set(files)) != len(files):  # else one scan counts under two ids
            raise ValueError(f"sample files must be distinct, got {files!r}")
        origin = dict(manifest.get("origin", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{manifest_path}: malformed manifest: {exc!r}") from exc
    samples = []
    for subject_id, tag, availability, name in entries:
        if availability.shape != (len(class_names),):
            raise InvalidConfigError(f"{manifest_path}: subject {subject_id} needs "
                                     f"{len(class_names)} availability flags")
        if name.is_absolute() or ".." in name.parts or "\0" in str(name):
            raise InvalidConfigError(f"{manifest_path}: sample file {str(name)!r} is not a "
                                     f"file name inside {root}")
        file = root / name
        try:
            tensor = read_tensor(file)
        except OSError as exc:
            raise TensorFileError(f"{file}: cannot read sample file: {exc.strerror}") from exc
        if tensor.shape != (1, len(class_names) + 1, n * n):
            raise TensorFileError(f"{file}: expected a (1, {len(class_names) + 1}, {n * n}) "
                                  f"tensor, got {tensor.shape}")
        rows = tensor.reshape(-1, n, n)
        samples.append(SyntheticSample(
            subject_id=subject_id,
            tag=tag,
            image=rows[0].copy(),
            gt=rows[1:].copy(),
            availability=availability,
        ))
    return SyntheticDataset(task, tuple(class_names), n, tuple(samples), origin)
