"""Tensor domain, the pooled axes of each reduction scheme, and the portable file format."""

import numpy as np
import pytest

from dicelab.errors import LengthMismatchError, RangeViolationError, ShapeMismatchError, TensorFileError
from dicelab.tensor import ReductionScheme, Role, Shape, make_batch, read_tensor, write_tensor
from partition_oracle import enumerate_subsets, subset_reduce

ALL = (ReductionScheme.IMAGE_WISE, ReductionScheme.CLASS_WISE,
       ReductionScheme.BATCH_WISE, ReductionScheme.ALL_WISE)


def rand_tensor(shape, seed=0):
    rng = np.random.default_rng(seed)
    return make_batch(shape, rng.uniform(0, 1, shape.size), Role.PREDICTION)


class TestShape:
    def test_size(self):
        assert Shape(2, 3, 4).size == 24

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_non_positive_rejected(self, dims):
        with pytest.raises(LengthMismatchError):
            Shape(*dims)

    def test_non_integer_rejected(self):
        with pytest.raises(LengthMismatchError):
            Shape(2.5, 1, 1)


class TestMakeBatch:
    def test_wrong_length(self):
        with pytest.raises(LengthMismatchError):
            make_batch(Shape(1, 1, 3), [0.0, 1.0], Role.GROUND_TRUTH)

    def test_gt_must_be_binary(self):
        with pytest.raises(RangeViolationError):
            make_batch(Shape(1, 1, 2), [0.0, 0.5], Role.GROUND_TRUTH)

    def test_pred_must_be_in_unit_interval(self):
        with pytest.raises(RangeViolationError):
            make_batch(Shape(1, 1, 2), [0.2, 1.2], Role.PREDICTION)
        with pytest.raises(RangeViolationError):
            make_batch(Shape(1, 1, 2), [-0.1, 0.5], Role.PREDICTION)

    def test_result_is_immutable(self):
        t = make_batch(Shape(1, 1, 2), [0.0, 1.0], Role.GROUND_TRUTH)
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_values_are_copied(self):
        src = np.array([0.1, 0.2])
        t = make_batch(Shape(1, 1, 2), src, Role.PREDICTION)
        src[0] = 0.9
        assert t.data[0, 0, 0] == 0.1


class TestEnumerateSubsets:
    @pytest.mark.parametrize("scheme,count,size", [
        (ReductionScheme.IMAGE_WISE, 6, 4),
        (ReductionScheme.CLASS_WISE, 2, 12),
        (ReductionScheme.BATCH_WISE, 3, 8),
        (ReductionScheme.ALL_WISE, 1, 24),
    ])
    def test_counts_and_sizes(self, scheme, count, size):
        subsets = enumerate_subsets(scheme, Shape(2, 3, 4))
        assert len(subsets) == count
        assert all(s.size == size for s in subsets)

    @pytest.mark.parametrize("scheme", ALL)
    def test_partition_covers_domain_disjointly(self, scheme):
        shape = Shape(2, 3, 4)
        seen = np.concatenate([s.members for s in enumerate_subsets(scheme, shape)])
        assert len(seen) == shape.size
        assert set(seen.tolist()) == set(range(shape.size))

    def test_image_wise_ids_follow_row_major_order(self):
        subsets = enumerate_subsets(ReductionScheme.IMAGE_WISE, Shape(2, 3, 4))
        for s in subsets:
            assert s.id == s.batch_tag * 3 + s.class_tag
            assert s.members[0] == s.id * 4

    def test_batch_wise_members_stride_across_batch(self):
        subsets = enumerate_subsets(ReductionScheme.BATCH_WISE, Shape(2, 3, 4))
        # class c owns voxels [b*12 + c*4, ...) for both batch elements
        assert subsets[1].members.tolist() == [4, 5, 6, 7, 16, 17, 18, 19]

    def test_members_are_frozen(self):
        s = enumerate_subsets(ReductionScheme.ALL_WISE, Shape(1, 1, 4))[0]
        with pytest.raises(ValueError):
            s.members[0] = 3

    def test_class_pure_flag(self):
        assert ReductionScheme.IMAGE_WISE.class_pure
        assert ReductionScheme.BATCH_WISE.class_pure
        assert not ReductionScheme.CLASS_WISE.class_pure
        assert not ReductionScheme.ALL_WISE.class_pure

    def test_class_tags_helper(self):
        shape = Shape(2, 3, 4)

        def tags(scheme):
            return [s.class_tag for s in enumerate_subsets(scheme, shape)]

        assert tags(ReductionScheme.IMAGE_WISE) == [0, 1, 2, 0, 1, 2]
        assert tags(ReductionScheme.BATCH_WISE) == [0, 1, 2]
        assert tags(ReductionScheme.CLASS_WISE) == [None, None]


class TestReductions:
    def test_subset_reduce_hand_case(self):
        shape = Shape(1, 2, 2)
        gt = make_batch(shape, [1, 0, 1, 1], Role.GROUND_TRUTH)
        pred = make_batch(shape, [0.5, 0.25, 0.75, 1.0], Role.PREDICTION)
        s0, s1 = enumerate_subsets(ReductionScheme.IMAGE_WISE, shape)
        assert subset_reduce(gt, pred, s0) == (0.5, 1.0, 0.75)
        assert subset_reduce(gt, pred, s1) == (1.75, 2.0, 1.75)

    def test_subset_reduce_shape_mismatch(self):
        gt = make_batch(Shape(1, 1, 2), [1, 0], Role.GROUND_TRUTH)
        pred = make_batch(Shape(1, 1, 3), [0.1, 0.2, 0.3], Role.PREDICTION)
        s = enumerate_subsets(ReductionScheme.ALL_WISE, Shape(1, 1, 2))[0]
        with pytest.raises(ShapeMismatchError):
            subset_reduce(gt, pred, s)

    @pytest.mark.parametrize("scheme", ALL)
    def test_scheme_sums_agree_with_member_sums(self, scheme):
        shape = Shape(3, 2, 5)
        t = rand_tensor(shape, seed=3)
        sums = t.data.sum(axis=scheme.axes, keepdims=True).reshape(-1)
        for s in enumerate_subsets(scheme, shape):
            assert sums[s.id] == pytest.approx(float(t.flat()[s.members].sum()), abs=1e-12)

    @pytest.mark.parametrize("scheme", ALL)
    def test_axes_pool_exactly_the_partition(self, scheme):
        # summing the indicator of one index-list subset over the pooled axes
        # must put its whole size on that subset's id and nothing elsewhere
        shape = Shape(2, 3, 4)
        subsets = enumerate_subsets(scheme, shape)
        for s in subsets:
            indicator = np.zeros(shape.size)
            indicator[s.members] = 1.0
            pooled = indicator.reshape(shape.as_tuple()).sum(axis=scheme.axes, keepdims=True)
            expected = np.zeros(len(subsets))
            expected[s.id] = s.size
            assert pooled.reshape(-1).tolist() == expected.tolist()

    @pytest.mark.parametrize("scheme", ALL)
    def test_broadcast_inverts_indexing(self, scheme):
        shape = Shape(2, 3, 4)
        subsets = enumerate_subsets(scheme, shape)
        per_subset = np.arange(1.0, len(subsets) + 1.0)
        pooled_shape = np.zeros(shape.as_tuple()).sum(axis=scheme.axes, keepdims=True).shape
        expanded = np.broadcast_to(per_subset.reshape(pooled_shape), shape.as_tuple()).reshape(-1)
        for s in subsets:
            assert np.all(expanded[s.members] == per_subset[s.id])


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        t = rand_tensor(Shape(2, 3, 5), seed=9)
        path = tmp_path / "t.drt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.drt"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.drt"
        path.write_bytes(b"DRT1\x01")
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_wrong_dim_count(self, tmp_path):
        t = rand_tensor(Shape(1, 1, 4))
        path = tmp_path / "t.drt"
        write_tensor(path, t)
        blob = bytearray(path.read_bytes())
        blob[5] = 2  # claim 2 dims
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        t = rand_tensor(Shape(1, 1, 4))
        path = tmp_path / "t.drt"
        write_tensor(path, t)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TensorFileError):
            read_tensor(path)
