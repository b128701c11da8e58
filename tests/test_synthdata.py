"""Synthetic task generators, corruption policies, and dataset persistence."""

import json
import pickle
import shutil
import struct

import numpy as np
import pytest

from dicelab.errors import (DicelabError, InvalidConfigError, RangeViolationError,
                            ShapeMismatchError)
from dicelab.synthdata import (
    GRADE_A,
    GRADE_B,
    MANIFEST_NAME,
    MAX_IMAGE_SIZE,
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
    load_dataset,
    save_dataset,
)
from dicelab.tensor import read_tensor, write_tensor


def _edit_manifest(root, change):
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    change(manifest)
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))


def _first_sample(root):
    return root / json.loads((root / MANIFEST_NAME).read_text())["samples"][0]["file"]


def _copy_next_to_directory(sample):
    """Copy sample beside its dataset directory; the manifest name that reaches it."""
    shutil.copy(sample, sample.parent.parent / sample.name)
    return "../" + sample.name


def _point_first_sample(root, name_for):
    """Rename the first sample's file entry to name_for(its current path)."""
    name = name_for(_first_sample(root))
    _edit_manifest(root, lambda m: m["samples"][0].update(file=name))


def _edit_first_sample(root, index, value):
    """Set one element of the first sample's (1, 2, n * n) tensor: row 0 image, row 1 gt."""
    tensor = read_tensor(_first_sample(root)).copy()
    tensor[index] = value
    write_tensor(_first_sample(root), tensor)


def _duplicate_lesion_class(root):
    """Make every sample carry its lesion map twice, as two classes that overlap."""
    for entry in json.loads((root / MANIFEST_NAME).read_text())["samples"]:
        tensor = read_tensor(root / entry["file"])
        write_tensor(root / entry["file"], np.concatenate([tensor, tensor[:, 1:]], axis=1))
    _edit_manifest(root, lambda m: [m.update(class_names=["lesion", "copy"])]
                   + [e.update(availability=[True, True]) for e in m["samples"]])


# Corruptions of a saved binary dataset directory (C = 1, so a sample is (1, 2, n * n)).
MALFORMED_DATASETS = {
    "manifest-not-json": lambda root: (root / MANIFEST_NAME).write_text("{not json"),
    "manifest-missing-key": lambda root: _edit_manifest(root, lambda m: m.pop("image_size")),
    "manifest-samples-not-a-list": lambda root: _edit_manifest(
        root, lambda m: m.update(samples=3)),
    "manifest-availability-too-long": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(availability=[True, True])),
    # each flag or tag is truthy, so a cast to bool or str would accept it
    "manifest-availability-string": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(availability=["no"])),
    "manifest-availability-integer": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(availability=[2])),
    "manifest-tag-integer": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(tag=5)),
    # -16 squared still matches the sample size, so only the sign check catches it
    "manifest-image-size-negative": lambda root: _edit_manifest(
        root, lambda m: m.update(image_size=-16)),
    "manifest-image-size-not-integer": lambda root: _edit_manifest(
        root, lambda m: m.update(image_size=16.0)),
    # both name a valid sample file, so only the containment check catches them
    "manifest-file-outside-directory": lambda root: _point_first_sample(
        root, _copy_next_to_directory),
    "manifest-file-absolute": lambda root: _point_first_sample(
        root, lambda sample: str(sample.resolve())),
    "sample-file-missing": lambda root: _first_sample(root).unlink(),
    "sample-wrong-size": lambda root: write_tensor(_first_sample(root), np.zeros((1, 2, 10))),
    "sample-batch-not-1": lambda root: write_tensor(_first_sample(root),
                                                    np.zeros((2, 2, 16 * 16))),
    "sample-truncated": lambda root: _first_sample(root).write_bytes(
        _first_sample(root).read_bytes()[:-8]),
    "sample-zero-dim": lambda root: _first_sample(root).write_bytes(
        b"DRT1" + struct.pack("<BBIII", 1, 3, 1, 0, 256)),
    "sample-image-nan": lambda root: _edit_first_sample(root, (0, 0, 0), np.nan),
    "sample-gt-half": lambda root: _edit_first_sample(root, (0, 1, 0), 0.5),
    "manifest-subject-id-infinite": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(subject_id=float("inf"))),
    "manifest-file-nul-byte": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(file="sample\0.drt")),
    # a cast with int() would read each of these as an id of another sample
    "manifest-subject-id-float": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(subject_id=2.7)),
    "manifest-subject-id-string": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(subject_id="2")),
    "manifest-subject-id-bool": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(subject_id=True)),
    "manifest-subject-id-negative": lambda root: _edit_manifest(
        root, lambda m: m["samples"][0].update(subject_id=-1)),
    "manifest-subject-id-repeated": lambda root: _edit_manifest(
        root, lambda m: m["samples"][1].update(subject_id=m["samples"][0]["subject_id"])),
    # tuple() of each is one name long, so only the type check catches them
    "manifest-class-names-mapping": lambda root: _edit_manifest(
        root, lambda m: m.update(class_names={"lesion": 1})),
    "manifest-class-names-not-strings": lambda root: _edit_manifest(
        root, lambda m: m.update(class_names=[1])),
    "manifest-class-names-string": lambda root: _edit_manifest(
        root, lambda m: m.update(class_names="l")),
    "manifest-task-integer": lambda root: _edit_manifest(root, lambda m: m.update(task=5)),
    # True == 1, so only the type check catches it
    "manifest-schema-version-bool": lambda root: _edit_manifest(
        root, lambda m: m.update(schema_version=True)),
    # two ids, one scan: the sample would count twice
    "manifest-file-repeated": lambda root: _edit_manifest(
        root, lambda m: m["samples"][1].update(file=m["samples"][0]["file"])),
    "sample-maps-overlap": _duplicate_lesion_class,
}


def save_small_binary(root):
    params = BinaryTaskParams(image_size=16, n_grade_a=3, n_grade_b=2,
                              radius_a=(3.0, 4.5), radius_b=(2.0, 3.0))
    save_dataset(generate_binary(params, seed=9), root)
    return root


class TestBinaryGenerator:
    def test_counts_tags_and_shapes(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        assert len(ds) == 40
        assert ds.class_names == ("lesion",)
        assert np.count_nonzero(ds.tags == GRADE_A) == 30
        assert np.count_nonzero(ds.tags == GRADE_B) == 10
        assert ds.subject_ids.dtype == np.int64 and ds.subject_ids.tolist() == list(range(40))
        assert ds.images.shape == (40, 32, 32) and ds.images.dtype == np.float64
        assert ds.gt.shape == (40, 1, 32, 32) and ds.gt.dtype == bool
        assert ds.availability.shape == (40, 1) and ds.availability.all()
        assert ds.image_size == 32
        for name in ("subject_ids", "tags", "images", "gt", "availability"):
            assert not getattr(ds, name).flags.writeable, name

    def test_deterministic(self):
        a = generate_binary(BinaryTaskParams(), seed=3)
        b = generate_binary(BinaryTaskParams(), seed=3)
        assert a.tags.tolist() == b.tags.tolist()
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.gt, b.gt)

    def test_different_seeds_differ(self):
        a = generate_binary(BinaryTaskParams(), seed=1)
        b = generate_binary(BinaryTaskParams(), seed=2)
        assert not np.array_equal(a.images[0], b.images[0])

    def test_gt_is_binary_and_nonempty(self):
        ds = generate_binary(BinaryTaskParams(), seed=4)
        assert ds.gt.dtype == bool
        assert np.all(ds.gt.sum(axis=(1, 2, 3)) > 0)

    def test_disk_area_tracks_radius_range(self):
        # radii drawn from (4.8, 5.3): E[pi r^2] = pi (a^2+ab+b^2)/3 = 80.2 pixels
        params = BinaryTaskParams(n_grade_a=50, n_grade_b=10,
                                  radius_a=(4.8, 5.3), radius_b=(4.8, 5.3))
        ds = generate_binary(params, seed=5)
        mean_area = ds.gt.sum(axis=(1, 2, 3)).mean()
        assert 70.0 <= mean_area <= 90.0

    def test_zero_noise_gives_exact_plateaus(self):
        params = BinaryTaskParams(noise_sigma=0.0, n_grade_a=2, n_grade_b=2)
        ds = generate_binary(params, seed=6)
        for image, gt in zip(ds.images, ds.gt):
            assert np.all(image[~gt[0]] == params.background_level)
            assert len(np.unique(image[gt[0]])) == 1

    def test_grades_occupy_their_intensity_bands(self):
        ds = generate_binary(BinaryTaskParams(noise_sigma=0.0), seed=7)
        for tag, image, gt in zip(ds.tags, ds.images, ds.gt):
            level = float(image[gt[0]][0])
            lo, hi = ((0.72, 0.9) if tag == GRADE_A else (0.5, 0.6))
            assert lo <= level <= hi

    @pytest.mark.parametrize("kwargs", [
        dict(image_size=8),
        dict(n_grade_a=0),
        dict(noise_sigma=-0.1),
        dict(intensity_a=(0.9, 0.7)),
        dict(intensity_b=(0.5, 1.4)),
        dict(radius_a=(4.0, 20.0)),
        dict(background_level=1.5),
        # a bool count made one sample; the others raised TypeError or passed
        dict(n_grade_a=True),
        dict(image_size=32.0),
        dict(noise_sigma="0.1"),
        dict(noise_sigma=float("inf")),
        dict(intensity_a=0.8),
        dict(intensity_a=(0.1, 0.2, 0.3)),
        dict(radius_b=(float("nan"), 3.0)),
        # 10**400 raised a bare OverflowError when the fit checks divided it as a float
        dict(image_size=10**400),
        dict(image_size=MAX_IMAGE_SIZE + 1),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            generate_binary(BinaryTaskParams(**kwargs), seed=0)

    def test_image_size_bound_is_inclusive(self):
        assert BinaryTaskParams(image_size=MAX_IMAGE_SIZE).image_size == MAX_IMAGE_SIZE

    def test_a_list_range_is_stored_as_a_tuple(self):
        params = BinaryTaskParams(radius_a=[4.0, 7.0], intensity_b=[0.5, 0.6])
        assert params == BinaryTaskParams()

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        params = BinaryTaskParams(image_size=np.int64(32), n_grade_a=np.int32(30),
                                  radius_a=(np.float32(4.0), 7), noise_sigma=np.float64(0.02))
        assert params == BinaryTaskParams()
        assert [type(v) for v in (params.image_size, params.n_grade_a, *params.radius_a,
                                  params.noise_sigma)] == [int, int, float, float, float]

    @pytest.mark.parametrize("generate, params", [(generate_binary, BinaryTaskParams()),
                                                  (generate_multiclass, MulticlassTaskParams())])
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_checked(self, generate, params, seed):
        with pytest.raises(InvalidConfigError):
            generate(params, seed)


class TestMulticlassGenerator:
    def test_counts_and_class_layout(self):
        ds = generate_multiclass(MulticlassTaskParams(), seed=0)
        assert len(ds) == 40
        assert ds.class_names == ("core", "shell", "satellite")
        assert np.count_nonzero(ds.tags == PHASE_A) == 30
        assert np.count_nonzero(ds.tags == PHASE_B) == 10
        assert ds.gt.shape == (40, 3, 48, 48)

    def test_classes_are_disjoint_and_nonempty(self):
        ds = generate_multiclass(MulticlassTaskParams(), seed=1)
        assert np.all(ds.gt.sum(axis=1) <= 1)
        assert np.all(ds.gt.sum(axis=(2, 3)) > 0)

    def test_shell_is_a_ring_around_core(self):
        ds = generate_multiclass(MulticlassTaskParams(), seed=2)
        core, shell = ds.gt[0, 0], ds.gt[0, 1]
        assert not np.any(core & shell)
        # every core-adjacent outside pixel belongs to the shell
        grown = np.zeros_like(core)
        grown[1:, :] |= core[:-1, :]
        grown[:-1, :] |= core[1:, :]
        grown[:, 1:] |= core[:, :-1]
        grown[:, :-1] |= core[:, 1:]
        assert np.all(shell[grown & ~core])

    def test_shrink_factor_reduces_phase_b_area(self):
        ds = generate_multiclass(MulticlassTaskParams(n_phase_a=30, n_phase_b=30), seed=3)
        area = ds.gt.sum(axis=(1, 2, 3))
        ratio = area[ds.tags == PHASE_B].mean() / area[ds.tags == PHASE_A].mean()
        # linear shrink 0.8 -> area factor 0.64, biased low by pixelation
        assert 0.55 <= ratio <= 0.73

    def test_deterministic(self):
        a = generate_multiclass(MulticlassTaskParams(), seed=8)
        b = generate_multiclass(MulticlassTaskParams(), seed=8)
        assert np.array_equal(a.images, b.images)

    @pytest.mark.parametrize("kwargs", [
        dict(image_size=16),                  # structures cannot fit
        dict(core_radius=(4.0, 16.0)),        # would collide with the satellite
        dict(phase_b_shrink=0.0),
        dict(n_phase_b=0),
        dict(satellite_intensity=(0.6, 0.4)),
        # a NaN jitter or radius raised OverflowError in the generator
        dict(center_jitter=float("nan")),
        dict(center_jitter=-1.0),
        dict(core_radius=(float("nan"), 5.0)),
        dict(shell_width=(-1.0, 2.0)),
        dict(phase_b_shrink=True),
        dict(n_phase_a=False),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            generate_multiclass(MulticlassTaskParams(**kwargs), seed=0)


class TestApplyPartial:
    def test_empty_map_keeps_availability(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        out = apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B))
        target = ds.tags == GRADE_B
        assert not out.gt[target].any()
        assert out.availability.all()
        assert np.array_equal(out.gt[~target], ds.gt[~target])
        assert ds.gt[target].any()  # the source keeps its labels

    def test_mark_unavailable_single_class(self):
        ds = generate_multiclass(MulticlassTaskParams(), seed=0)
        policy = PartialPolicy(PartialAction.MARK_UNAVAILABLE, tag=PHASE_B, class_index=1)
        out = apply_partial(ds, policy)
        target = ds.tags == PHASE_B
        assert not out.gt[target, 1].any()
        assert out.availability[target].tolist() == [[True, False, True]] * target.sum()
        assert out.availability[~target].all()
        assert np.array_equal(out.gt[:, [0, 2]], ds.gt[:, [0, 2]])
        assert np.array_equal(out.gt[~target], ds.gt[~target])

    def test_idempotent(self):
        ds = generate_binary(BinaryTaskParams(), seed=1)
        policy = PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B)
        once = apply_partial(ds, policy)
        twice = apply_partial(once, policy)
        assert np.array_equal(once.gt, twice.gt)
        assert np.array_equal(once.availability, twice.availability)

    def test_policies_are_recorded(self):
        ds = generate_binary(BinaryTaskParams(), seed=1)
        out = apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B))
        assert out.origin["policies"] == [
            {"action": "empty-map", "tag": GRADE_B, "class_index": None}
        ]
        assert "policies" not in ds.origin

    def test_unknown_tag_rejected(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        with pytest.raises(InvalidConfigError):
            apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag="grade-c"))

    def test_class_index_out_of_range(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        with pytest.raises(InvalidConfigError):
            apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, class_index=1))

    def test_partial_twin_shares_the_image(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        out = apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B))
        assert out.images is ds.images

    # each built, then failed in apply_partial with AttributeError, IndexError or TypeError
    @pytest.mark.parametrize("kwargs", [
        dict(action="empty-map", tag=GRADE_B),
        dict(action=None, tag=GRADE_B),
        dict(action=PartialAction.EMPTY_MAP, tag=["x"]),
        dict(action=PartialAction.EMPTY_MAP, tag=1),
        dict(action=PartialAction.EMPTY_MAP, class_index=0.0),
        dict(action=PartialAction.EMPTY_MAP, class_index=True),
        dict(action=PartialAction.EMPTY_MAP, class_index=-1),
        dict(action=PartialAction.EMPTY_MAP, class_index="0"),
    ])
    def test_policy_fields_checked(self, kwargs):
        with pytest.raises(InvalidConfigError):
            PartialPolicy(**kwargs)

    def test_numpy_class_index_is_stored_as_an_int(self, tmp_path):
        policy = PartialPolicy(PartialAction.MARK_UNAVAILABLE, tag=PHASE_B,
                               class_index=np.int64(1))
        assert type(policy.class_index) is int
        out = apply_partial(generate_multiclass(MulticlassTaskParams(), seed=0), policy)
        save_dataset(out, tmp_path / "d")
        assert load_dataset(tmp_path / "d").origin["policies"][0]["class_index"] == 1

    def test_policy_must_select_something(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        with pytest.raises(InvalidConfigError):
            apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP))


def tiny_dataset(**changes):
    """Three 4 x 4 samples of two classes, valid unless changes replace a field."""
    gt = np.zeros((3, 2, 4, 4), dtype=bool)
    gt[:, 0, 0] = gt[:, 1, 1] = True
    fields = dict(task="t", class_names=("a", "b"), subject_ids=[5, 3, 7],
                  tags=["x", "y", "x"], images=np.zeros((3, 4, 4)), gt=gt,
                  availability=np.ones((3, 2), dtype=bool))
    fields.update(changes)
    return SyntheticDataset(**fields)


def empty_dataset():
    """tiny_dataset without its samples."""
    return tiny_dataset(subject_ids=[], tags=[], images=np.zeros((0, 4, 4)),
                        gt=np.zeros((0, 2, 4, 4)), availability=np.zeros((0, 2), bool))


def _with(field, index, value):
    """tiny_dataset's images or gt as float64, with one element set."""
    arr = getattr(tiny_dataset(), field).astype(np.float64)
    arr[index] = value
    return {field: arr}


# Each dataset field replaced by a malformed value, and the error it must raise.
MALFORMED_FIELDS = {
    "task-not-str": (dict(task=1), InvalidConfigError),
    "class-names-list": (dict(class_names=["a", "b"]), InvalidConfigError),
    "class-names-empty": (dict(class_names=(), gt=np.zeros((3, 0, 4, 4)),
                               availability=np.zeros((3, 0), dtype=bool)), InvalidConfigError),
    # the motivating faults: each used to build, then fail in save or load
    "more-class-names-than-maps": (dict(class_names=("a", "b", "c")), ShapeMismatchError),
    "gt-of-another-image-size": (dict(gt=np.zeros((3, 2, 5, 5))), ShapeMismatchError),
    "subject-id-repeated": (dict(subject_ids=[5, 3, 5]), InvalidConfigError),
    "images-of-two-sizes": (dict(images=[np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((5, 5))]),
                            ShapeMismatchError),
    "images-2d": (dict(images=np.zeros((4, 4))), ShapeMismatchError),
    "images-zero-size": (dict(images=np.zeros((3, 0, 0)), gt=np.zeros((3, 2, 0, 0))),
                         ShapeMismatchError),
    "images-bool": (dict(images=np.zeros((3, 4, 4), dtype=bool)), InvalidConfigError),
    "images-str": (dict(images=np.full((3, 4, 4), "0")), InvalidConfigError),
    "images-complex": (dict(images=np.zeros((3, 4, 4), dtype=complex)), InvalidConfigError),
    "image-nan": (_with("images", (1, 2, 2), np.nan), RangeViolationError),
    "image-inf": (_with("images", (0, 0, 0), -np.inf), RangeViolationError),
    "gt-half": (_with("gt", (2, 0, 3, 3), 0.5), RangeViolationError),
    "gt-nan": (_with("gt", (2, 0, 3, 3), np.nan), RangeViolationError),
    "gt-str": (dict(gt=np.full((3, 2, 4, 4), "1")), RangeViolationError),
    "gt-one-map-too-few": (dict(gt=np.zeros((3, 1, 4, 4))), ShapeMismatchError),
    "availability-int": (dict(availability=np.ones((3, 2), dtype=int)), InvalidConfigError),
    "availability-str": (dict(availability=[["no", "no"]] * 3), InvalidConfigError),
    "availability-one-row": (dict(availability=[True, True]), ShapeMismatchError),
    "tags-int": (dict(tags=["x", 1, "x"]), InvalidConfigError),
    "tags-too-few": (dict(tags=["x", "y"]), ShapeMismatchError),
    "tags-one-string": (dict(tags="xyz"), ShapeMismatchError),
    "subject-id-bool": (dict(subject_ids=[5, True, 7]), InvalidConfigError),
    "subject-id-negative": (dict(subject_ids=[5, -3, 7]), InvalidConfigError),
    "subject-id-float": (dict(subject_ids=[5.0, 3, 7]), InvalidConfigError),
    "subject-id-past-int64": (dict(subject_ids=[5, 2 ** 63, 7]), InvalidConfigError),
    "subject-ids-nested": (dict(subject_ids=[[5], [3], [7]]), ShapeMismatchError),
    "ragged-lists": (dict(gt=[[[[0]]], [[[0, 1]]], []]), ShapeMismatchError),
}


class TestDataset:
    def test_fields_are_stored_as_read_only_arrays(self):
        gt = np.zeros((3, 2, 4, 4))
        gt[1, 0, 2] = 1.0
        ds = tiny_dataset(gt=gt.tolist(), images=np.zeros((3, 4, 4), dtype=np.float32),
                          subject_ids=np.array([5, 3, 7], dtype=np.uint8))
        assert len(ds) == 3 and ds.n_classes == 2 and ds.image_size == 4
        assert ds.subject_ids.dtype == np.int64 and ds.subject_ids.tolist() == [5, 3, 7]
        assert ds.tags.tolist() == ["x", "y", "x"]
        assert ds.images.dtype == np.float64
        assert ds.gt.dtype == bool and np.array_equal(ds.gt, gt)
        for name in ("subject_ids", "tags", "images", "gt", "availability"):
            assert not getattr(ds, name).flags.writeable, name

    def test_arrays_of_the_field_dtype_are_handed_over_not_copied(self):
        images, gt = np.zeros((3, 4, 4)), np.array(tiny_dataset().gt)
        ds = tiny_dataset(images=images, gt=gt)
        assert ds.images is images and ds.gt is gt
        with pytest.raises(ValueError, match="read-only"):
            images[0, 0, 0] = 1.0
        other = np.zeros((3, 4, 4), dtype=np.float32)  # converted, so the caller's stays
        assert tiny_dataset(images=other).images is not other and other.flags.writeable

    def test_pickle_round_trip_gives_equal_read_only_arrays(self):
        ds = tiny_dataset(origin={"generator": "t", "seed": 1})
        back = pickle.loads(pickle.dumps(ds))
        assert (back.task, back.class_names, back.origin) == (ds.task, ds.class_names, ds.origin)
        for name in ("subject_ids", "tags", "images", "gt", "availability"):
            a, b = getattr(ds, name), getattr(back, name)
            assert b.dtype == a.dtype and np.array_equal(b, a), name
            assert not b.flags.writeable, name

    def test_disjoint_class_maps_accepted(self):
        assert tiny_dataset().n_classes == 2

    def test_overlapping_class_maps_name_the_first_subject(self):
        # a pixel in both maps made the marginal background 1 - 2 = -1
        gt = np.array(tiny_dataset().gt)
        gt[1:, 1, 0] = True
        with pytest.raises(RangeViolationError, match="subject 3: gt maps of two classes overlap"):
            tiny_dataset(gt=gt)

    def test_gt_other_than_0_or_1_names_the_first_subject(self):
        with pytest.raises(RangeViolationError,
                           match="subject 7: gt values must be exactly 0 or 1"):
            tiny_dataset(**_with("gt", (2, 0, 3, 3), 0.5))

    def test_non_finite_image_names_the_first_subject(self):
        with pytest.raises(RangeViolationError, match="subject 3: image values must be finite"):
            tiny_dataset(**_with("images", (1, 2, 2), np.nan))

    def test_non_str_tag_names_its_subject(self):
        with pytest.raises(InvalidConfigError, match="subject 3: the tag must be a string"):
            tiny_dataset(tags=["x", 1, "x"])

    @pytest.mark.parametrize("changes, error", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS)
    def test_malformed_field_rejected(self, changes, error):
        with pytest.raises(error):
            tiny_dataset(**changes)

    def test_images_must_be_square(self):
        # gt of the same (4, 5) maps, so only the images' own check names the fault
        with pytest.raises(ShapeMismatchError, match=r"images must be \(n, N, N\)"):
            tiny_dataset(images=np.zeros((3, 4, 5)), gt=np.zeros((3, 2, 4, 5)))

    def test_empty_dataset_saves_and_loads(self, tmp_path):
        save_dataset(empty_dataset(), tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert len(back) == 0 and back.class_names == ("a", "b") and back.image_size == 4
        assert back.gt.shape == (0, 2, 4, 4) and back.availability.shape == (0, 2)


class TestPersistence:
    def small_dataset(self):
        params = BinaryTaskParams(image_size=16, n_grade_a=3, n_grade_b=2,
                                  radius_a=(3.0, 4.5), radius_b=(2.0, 3.0))
        return generate_binary(params, seed=9)

    def test_round_trip(self, tmp_path):
        ds = self.small_dataset()
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.task == ds.task
        assert back.class_names == ds.class_names
        assert back.origin == json.loads(json.dumps(ds.origin))  # tuples become lists
        for name in ("subject_ids", "tags", "images", "gt", "availability"):
            a, b = getattr(ds, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_numpy_scalar_params_save_and_reload(self, tmp_path):
        # json.dump failed on them after the sample files were written
        params = MulticlassTaskParams(n_phase_a=np.int64(2), n_phase_b=np.int64(1),
                                      center_jitter=np.float32(1.5),
                                      core_radius=(np.float32(4.0), np.float64(7.0)))
        ds = generate_multiclass(params, seed=np.int64(3))
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        plain = generate_multiclass(MulticlassTaskParams(n_phase_a=2, n_phase_b=1), seed=3)
        assert back.origin == json.loads(json.dumps(plain.origin))
        assert np.array_equal(plain.images, back.images)
        assert np.array_equal(plain.gt, back.gt)

    def test_round_trip_keeps_unavailability(self, tmp_path):
        ds = generate_multiclass(MulticlassTaskParams(), seed=4)
        ds = apply_partial(ds, PartialPolicy(PartialAction.MARK_UNAVAILABLE,
                                             tag=PHASE_B, class_index=1))
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.availability, ds.availability)
        assert not back.availability[:, 1].all()

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = self.small_dataset()
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("size", [MAX_IMAGE_SIZE + 1, 10**30])
    def test_image_size_is_bounded_without_any_sample_file(self, tmp_path, size):
        # with no file to disagree with it, only the bound rejects the size
        save_dataset(empty_dataset(), tmp_path / "d")
        _edit_manifest(tmp_path / "d", lambda m: m.update(image_size=size))
        with pytest.raises(InvalidConfigError, match="image_size"):
            load_dataset(tmp_path / "d")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("corrupt", MALFORMED_DATASETS.values(), ids=MALFORMED_DATASETS)
    def test_malformed_directory_raises_a_dicelab_error(self, tmp_path, corrupt):
        corrupt(save_small_binary(tmp_path / "d"))
        with pytest.raises(DicelabError):
            load_dataset(tmp_path / "d")

    def test_wrong_schema_version(self, tmp_path):
        ds = self.small_dataset()
        save_dataset(ds, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 99
        (tmp_path / "d" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(InvalidConfigError):
            load_dataset(tmp_path / "d")
