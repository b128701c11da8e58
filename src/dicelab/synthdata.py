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
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (InvalidConfigError, RangeViolationError, ShapeMismatchError, TensorFileError,
                     require_int, require_number, require_path, require_type)
from .tensor import read_tensor, write_tensor

GRADE_A = "grade-a"
GRADE_B = "grade-b"
PHASE_A = "phase-a"
PHASE_B = "phase-b"

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = 1
MAX_IMAGE_SIZE = 4096  # pixels per side; one 4096 x 4096 float64 image is 128 MiB


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

    def __post_init__(self):
        if not isinstance(self.action, PartialAction) or not isinstance(self.tag, str | None):
            raise InvalidConfigError(f"a policy needs a PartialAction and a str or None tag, "
                                     f"got {self.action!r} and {self.tag!r}")
        if self.tag is None and self.class_index is None:
            raise InvalidConfigError("policy must select a tag, a class index, or both")
        if self.class_index is not None:
            _plain(self, "class_index", require_int, 0)


@dataclass(frozen=True)
class SyntheticDataset:
    """n samples of one task as stacked arrays; row k of each is subject subject_ids[k].

    subject_ids is (n,) int64, distinct and >= 0; tags (n,) str; images (n, N, N)
    finite float64; gt (n, C, N, N) bool, at most one class per pixel; availability
    (n, C) bool, for C = len(class_names) >= 1. Every array is read-only.

    An array already C-contiguous and of its field's dtype is handed over, not
    copied: the dataset keeps it and makes it read-only in place, for the caller
    too. Unpickling rebuilds through this constructor, checked and read-only.
    """

    task: str
    class_names: tuple[str, ...]
    subject_ids: np.ndarray
    tags: np.ndarray
    images: np.ndarray
    gt: np.ndarray
    availability: np.ndarray
    origin: dict = field(default_factory=dict)

    def __post_init__(self):
        names = self.class_names
        if not isinstance(self.task, str) or type(names) is not tuple or not names \
                or not all(isinstance(c, str) for c in names):
            raise InvalidConfigError(f"a dataset needs a str task and a non-empty tuple of "
                                     f"str class names, got {self.task!r} and {names!r}")
        try:  # ids and tags as objects, so a bool id or an int tag stays what it was
            ids, tags = (np.asarray(v, dtype=object) for v in (self.subject_ids, self.tags))
            images, gt, availability = map(np.asarray, (self.images, self.gt, self.availability))
        except ValueError as exc:  # lists nested to different depths or lengths
            raise ShapeMismatchError(f"dataset arrays must be rectangular: {exc}") from exc
        if images.ndim != 3 or images.shape[1] != images.shape[2] or images.shape[1] < 1:
            raise ShapeMismatchError(f"images must be (n, N, N) with N >= 1, got {images.shape}")
        n, size = images.shape[:2]
        for name, arr, want in (("subject_ids", ids, (n,)), ("tags", tags, (n,)),
                                ("gt", gt, (n, len(names), size, size)),
                                ("availability", availability, (n, len(names)))):
            if arr.shape != want:
                raise ShapeMismatchError(f"{name} must be {want} for {n} images of "
                                         f"{size} x {size} and {len(names)} classes, "
                                         f"got {arr.shape}")
        ids = ids.tolist()
        for sid in ids:
            require_int("each subject id", sid, 0)
        # each id names its own sample_NNNN.drt
        if len(set(ids)) != n or max(ids, default=0) > np.iinfo(np.int64).max:
            raise InvalidConfigError(f"subject ids must be distinct int64s, got {ids!r}")
        ids = np.array(ids, dtype=np.int64)
        _first_subject(ids, np.array([isinstance(t, str) for t in tags.tolist()], dtype=bool),
                       InvalidConfigError, "the tag must be a string")
        if availability.dtype != bool:
            raise InvalidConfigError(f"availability flags must be bools, got {availability.dtype}")
        if images.dtype.kind not in "iuf":  # bool excluded
            raise InvalidConfigError(f"images must hold real numbers, got {images.dtype}")
        images = images.astype(np.float64, copy=False)
        _first_subject(ids, np.isfinite(images), RangeViolationError,
                       "image values must be finite")
        _first_subject(ids, (gt == 0) | (gt == 1), RangeViolationError,
                       "gt values must be exactly 0 or 1")
        gt = gt.astype(bool, copy=False)
        _first_subject(ids, gt.sum(axis=1) <= 1, RangeViolationError,
                       "gt maps of two classes overlap; a pixel belongs to at most one class")
        for name, arr in (("subject_ids", ids), ("tags", tags), ("images", images),
                          ("gt", gt), ("availability", availability)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return SyntheticDataset, tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self.subject_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def image_size(self) -> int:
        return self.images.shape[-1]


def _first_subject(ids: np.ndarray, ok: np.ndarray, error: type, message: str) -> None:
    """error naming the first subject whose rows of ok, (n, ...) bool, are not all true."""
    good = ok.all(axis=tuple(range(1, ok.ndim)))
    if not good.all():
        raise error(f"subject {ids[np.argmin(good)]}: {message}")


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
        _plain(self, "phase_b_shrink", require_number, 0.0, 1.0)
        if self.phase_b_shrink == 0:
            raise InvalidConfigError("phase_b_shrink must be in (0, 1], got 0")
        _plain(self, "center_jitter", require_number, 0.0)
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


def _plain(p, name: str, rule, *bounds) -> None:
    """Field name of p after rule(name, value, *bounds), as the int or float JSON writes."""
    rule(name, getattr(p, name), *bounds)
    object.__setattr__(p, name, (int if rule is require_int else float)(getattr(p, name)))


def _check_common(p, counts: tuple[str, str]) -> None:
    """The fields both tasks share: image size, the two cohort counts, background, noise."""
    _plain(p, "image_size", require_int, 16)
    require_number("image_size", p.image_size, 16, MAX_IMAGE_SIZE)
    for name in counts:
        _plain(p, name, require_int, 1)
    _plain(p, "background_level", require_number, 0.0, 1.0)
    _plain(p, "noise_sigma", require_number, 0.0)


def _check_range(p, name: str, low: float, high: float) -> None:
    """Field name of p: a range low <= lo <= hi <= high, stored as a (lo, hi) tuple of floats."""
    pair = getattr(p, name)
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InvalidConfigError(f"{name} must be a [low, high] pair, got {pair!r}")
    require_number(f"{name} low", pair[0], low, high)
    require_number(f"{name} high", pair[1], float(pair[0]), high)
    object.__setattr__(p, name, (float(pair[0]), float(pair[1])))


def _disk(n: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:n, 0:n]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def _shuffled_tags(counts: list[tuple[str, int]], rng: np.random.Generator) -> list[str]:
    tags = [t for t, k in counts for _ in range(k)]
    rng.shuffle(tags)
    return tags


def generate_binary(params: BinaryTaskParams, seed: int) -> SyntheticDataset:
    """One disk per image; grade decides its intensity band and radius range."""
    require_type("params", params, BinaryTaskParams)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n = params.image_size
    tags = _shuffled_tags([(GRADE_A, params.n_grade_a), (GRADE_B, params.n_grade_b)], rng)
    images, gts = [], []
    for tag in tags:
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
        images.append(np.clip(image + params.noise_sigma * rng.standard_normal((n, n)), 0.0, 1.0))
        gts.append(mask[None])
    origin = {"generator": "binary", "seed": int(seed), "params": asdict(params)}
    return SyntheticDataset("binary", ("lesion",), np.arange(len(tags)), tags, np.stack(images),
                            np.stack(gts), np.ones((len(tags), 1), dtype=bool), origin)


def generate_multiclass(params: MulticlassTaskParams, seed: int) -> SyntheticDataset:
    """Core disk + shell ring + satellite disk; phase-b shrinks all radii."""
    require_type("params", params, MulticlassTaskParams)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n = params.image_size
    tags = _shuffled_tags([(PHASE_A, params.n_phase_a), (PHASE_B, params.n_phase_b)], rng)
    j = params.center_jitter
    images, gts = [], []
    for tag in tags:
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
        images.append(np.clip(image + params.noise_sigma * rng.standard_normal((n, n)), 0.0, 1.0))
        gts.append(np.stack([core, shell, satellite]))
    origin = {"generator": "multiclass", "seed": int(seed), "params": asdict(params)}
    return SyntheticDataset("multiclass", ("core", "shell", "satellite"), np.arange(len(tags)),
                            tags, np.stack(images), np.stack(gts),
                            np.ones((len(tags), 3), dtype=bool), origin)


def apply_partial(dataset: SyntheticDataset, policy: PartialPolicy) -> SyntheticDataset:
    """Corrupt targeted samples' ground truth; the images are shared, not copied."""
    require_type("dataset", dataset, SyntheticDataset)
    require_type("policy", policy, PartialPolicy)
    rows = slice(None) if policy.tag is None else dataset.tags == policy.tag
    if policy.tag is not None and not rows.any():
        raise InvalidConfigError(f"tag {policy.tag!r} not present in dataset")
    if policy.class_index is not None and policy.class_index >= dataset.n_classes:
        raise InvalidConfigError(f"class index {policy.class_index} out of range for "
                                 f"{dataset.n_classes} classes")
    columns = slice(None) if policy.class_index is None else policy.class_index
    gt, availability = dataset.gt.copy(), dataset.availability.copy()
    gt[rows, columns] = False
    if policy.action is PartialAction.MARK_UNAVAILABLE:
        availability[rows, columns] = False
    record = {**asdict(policy), "action": policy.action.value}
    origin = {**dataset.origin, "policies": [*dataset.origin.get("policies", []), record]}
    return replace(dataset, gt=gt, availability=availability, origin=origin)


def _sample_filename(subject_id: int) -> str:
    return f"sample_{subject_id:04d}.drt"


def save_dataset(dataset: SyntheticDataset, out_dir) -> Path:
    """Write a manifest plus one tensor file per sample (image row + gt rows)."""
    require_type("dataset", dataset, SyntheticDataset)
    require_path("out_dir", out_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = dataset.image_size
    entries = []
    for sid, tag, image, gt, flags in zip(dataset.subject_ids.tolist(), dataset.tags.tolist(),
                                          dataset.images, dataset.gt,
                                          dataset.availability.tolist()):
        name = _sample_filename(sid)
        packed = np.concatenate([image[None], gt])  # 0/1 as float64
        write_tensor(out / name, packed.reshape(1, dataset.n_classes + 1, n * n))
        entries.append({"subject_id": sid, "tag": tag, "availability": flags, "file": name})
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
    names, gives availability flags of the wrong count, an image_size other
    than an integer from 1 to MAX_IMAGE_SIZE, or class names other than a list;
    a sample file that cannot be read or is not a (1, C + 1, N * N) tensor;
    and whatever SyntheticDataset rejects in the data read.
    """
    require_path("path", path)
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
        n = manifest["image_size"]
        require_int("image_size", n, 1)
        require_number("image_size", n, 1, MAX_IMAGE_SIZE)
        class_names = manifest["class_names"]
        if type(class_names) is not list:  # tuple() would take a mapping's keys
            raise ValueError(f"class_names must be a list, got {class_names!r}")
        entries = [(e["subject_id"], e["tag"], np.asarray(e["availability"]),
                    Path(e["file"])) for e in manifest["samples"]]
        files = [str(entry[3]) for entry in entries]
        if len(set(files)) != len(files):  # else one scan counts under two ids
            raise ValueError(f"sample files must be distinct, got {files!r}")
        origin = dict(manifest.get("origin", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{manifest_path}: malformed manifest: {exc!r}") from exc
    rows = []
    for subject_id, _, availability, name in entries:
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
        rows.append(tensor)
    packed = np.array(rows).reshape(-1, len(class_names) + 1, n, n)  # (0, ...) if no rows
    flags = [entry[2] for entry in entries] or np.zeros((0, len(class_names)), dtype=bool)
    return SyntheticDataset(task, tuple(class_names), [entry[0] for entry in entries],
                            [entry[1] for entry in entries], packed[:, 0], packed[:, 1:],
                            np.array(flags), origin)
