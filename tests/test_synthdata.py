"""Synthetic task generators, corruption policies, and dataset persistence."""

import json
import shutil
import struct

import numpy as np
import pytest

from dicelab.errors import DicelabError, InvalidConfigError, RangeViolationError
from dicelab.synthdata import (
    GRADE_A,
    GRADE_B,
    MANIFEST_NAME,
    PHASE_A,
    PHASE_B,
    BinaryTaskParams,
    MulticlassTaskParams,
    PartialAction,
    PartialPolicy,
    SyntheticSample,
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
        assert sum(s.tag == GRADE_A for s in ds.samples) == 30
        assert sum(s.tag == GRADE_B for s in ds.samples) == 10
        assert [s.subject_id for s in ds.samples] == list(range(40))
        for s in ds.samples:
            assert s.image.shape == (32, 32)
            assert s.gt.shape == (1, 32, 32)
            assert s.availability.tolist() == [True]

    def test_deterministic(self):
        a = generate_binary(BinaryTaskParams(), seed=3)
        b = generate_binary(BinaryTaskParams(), seed=3)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.tag == sb.tag
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.gt, sb.gt)

    def test_different_seeds_differ(self):
        a = generate_binary(BinaryTaskParams(), seed=1)
        b = generate_binary(BinaryTaskParams(), seed=2)
        assert not np.array_equal(a.samples[0].image, b.samples[0].image)

    def test_gt_is_binary_and_nonempty(self):
        ds = generate_binary(BinaryTaskParams(), seed=4)
        for s in ds.samples:
            assert set(np.unique(s.gt)) <= {0.0, 1.0}
            assert s.gt.sum() > 0

    def test_disk_area_tracks_radius_range(self):
        # radii drawn from (4.8, 5.3): E[pi r^2] = pi (a^2+ab+b^2)/3 = 80.2 pixels
        params = BinaryTaskParams(n_grade_a=50, n_grade_b=10,
                                  radius_a=(4.8, 5.3), radius_b=(4.8, 5.3))
        ds = generate_binary(params, seed=5)
        mean_area = np.mean([s.gt.sum() for s in ds.samples])
        assert 70.0 <= mean_area <= 90.0

    def test_zero_noise_gives_exact_plateaus(self):
        params = BinaryTaskParams(noise_sigma=0.0, n_grade_a=2, n_grade_b=2)
        ds = generate_binary(params, seed=6)
        for s in ds.samples:
            mask = s.gt[0].astype(bool)
            assert np.all(s.image[~mask] == params.background_level)
            assert len(np.unique(s.image[mask])) == 1

    def test_grades_occupy_their_intensity_bands(self):
        ds = generate_binary(BinaryTaskParams(noise_sigma=0.0), seed=7)
        for s in ds.samples:
            level = float(s.image[s.gt[0].astype(bool)][0])
            lo, hi = ((0.72, 0.9) if s.tag == GRADE_A else (0.5, 0.6))
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
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            generate_binary(BinaryTaskParams(**kwargs), seed=0)

    def test_a_list_range_is_stored_as_a_tuple(self):
        params = BinaryTaskParams(radius_a=[4.0, 7.0], intensity_b=[0.5, 0.6])
        assert params == BinaryTaskParams()

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
        assert sum(s.tag == PHASE_A for s in ds.samples) == 30
        assert sum(s.tag == PHASE_B for s in ds.samples) == 10
        for s in ds.samples:
            assert s.gt.shape == (3, 48, 48)

    def test_classes_are_disjoint_and_nonempty(self):
        ds = generate_multiclass(MulticlassTaskParams(), seed=1)
        for s in ds.samples:
            assert np.all(s.gt.sum(axis=0) <= 1.0)
            assert np.all(s.gt.sum(axis=(1, 2)) > 0)

    def test_shell_is_a_ring_around_core(self):
        ds = generate_multiclass(MulticlassTaskParams(), seed=2)
        s = ds.samples[0]
        core, shell = s.gt[0].astype(bool), s.gt[1].astype(bool)
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
        area = {PHASE_A: [], PHASE_B: []}
        for s in ds.samples:
            area[s.tag].append(s.gt.sum())
        ratio = np.mean(area[PHASE_B]) / np.mean(area[PHASE_A])
        # linear shrink 0.8 -> area factor 0.64, biased low by pixelation
        assert 0.55 <= ratio <= 0.73

    def test_deterministic(self):
        a = generate_multiclass(MulticlassTaskParams(), seed=8)
        b = generate_multiclass(MulticlassTaskParams(), seed=8)
        assert all(np.array_equal(x.image, y.image) for x, y in zip(a.samples, b.samples))

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
        for before, after in zip(ds.samples, out.samples):
            if before.tag == GRADE_B:
                assert after.gt.sum() == 0.0
                assert after.availability.tolist() == [True]
                assert np.array_equal(after.image, before.image)
            else:
                assert after is before  # untouched samples are shared, not copied

    def test_mark_unavailable_single_class(self):
        ds = generate_multiclass(MulticlassTaskParams(), seed=0)
        policy = PartialPolicy(PartialAction.MARK_UNAVAILABLE, tag=PHASE_B, class_index=1)
        out = apply_partial(ds, policy)
        for before, after in zip(ds.samples, out.samples):
            if before.tag == PHASE_B:
                assert after.gt[1].sum() == 0.0
                assert after.availability.tolist() == [True, False, True]
                assert np.array_equal(after.gt[0], before.gt[0])
                assert np.array_equal(after.gt[2], before.gt[2])
            else:
                assert after is before

    def test_idempotent(self):
        ds = generate_binary(BinaryTaskParams(), seed=1)
        policy = PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B)
        once = apply_partial(ds, policy)
        twice = apply_partial(once, policy)
        for a, b in zip(once.samples, twice.samples):
            assert np.array_equal(a.gt, b.gt)
            assert np.array_equal(a.availability, b.availability)

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

    def test_relabeled_twin_shares_image_and_its_cache(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        out = apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP, tag=GRADE_B))
        for before, after in zip(ds.samples, out.samples):
            assert after.image is before.image
            assert after.image_cache is before.image_cache

    def test_policy_must_select_something(self):
        ds = generate_binary(BinaryTaskParams(), seed=0)
        with pytest.raises(InvalidConfigError):
            apply_partial(ds, PartialPolicy(PartialAction.EMPTY_MAP))


class TestSample:
    def test_overlapping_class_maps_rejected(self):
        # a row in both maps made the marginal background 1 - 2 = -1
        gt = np.zeros((2, 4, 4))
        gt[0, 1] = gt[1, 1] = 1.0
        with pytest.raises(RangeViolationError, match="overlap"):
            SyntheticSample(0, "a", np.zeros((4, 4)), gt, np.ones(2, dtype=bool))

    def test_gt_must_be_0_or_1(self):
        gt = np.full((1, 4, 4), 0.5)
        with pytest.raises(RangeViolationError, match="subject 3: gt values must be exactly 0 or 1"):
            SyntheticSample(3, "a", np.zeros((4, 4)), gt, np.ones(1, dtype=bool))

    def test_disjoint_class_maps_accepted(self):
        gt = np.zeros((2, 4, 4))
        gt[0, 1] = gt[1, 2] = 1.0
        assert SyntheticSample(0, "a", np.zeros((4, 4)), gt, np.ones(2, dtype=bool)).n_classes == 2


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
        for a, b in zip(ds.samples, back.samples):
            assert (a.subject_id, a.tag) == (b.subject_id, b.tag)
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.gt, b.gt)
            assert np.array_equal(a.availability, b.availability)

    def test_round_trip_keeps_unavailability(self, tmp_path):
        ds = generate_multiclass(MulticlassTaskParams(), seed=4)
        ds = apply_partial(ds, PartialPolicy(PartialAction.MARK_UNAVAILABLE,
                                             tag=PHASE_B, class_index=1))
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert any(not s.availability[1] for s in back.samples)

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = self.small_dataset()
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
