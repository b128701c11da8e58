"""Property tests of the axis-based Dice core against the index-list oracle,
of the leaf and marginal variants, of the batched finite-difference stencil
against the per-element loop, and of the file readers on arbitrary bytes."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicelab.errors import DicelabError
from dicelab.gradcheck import finite_diff_grad, resolve_epsilon
from dicelab.loss import (
    AvailabilityMask,
    DiceLossConfig,
    Variant,
    dice_value_and_grad,
    dice_values,
)
from dicelab.tensor import ReductionScheme, Shape, _wrap, read_tensor
from dicelab.trainer import load_model
from fd_oracle import loop_finite_diff_grad
from partition_oracle import enumerate_subsets, reference_grad, reference_loss

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

DEGENERATE_PAIRS = {
    "batch": ((ReductionScheme.IMAGE_WISE, ReductionScheme.BATCH_WISE),
              (ReductionScheme.CLASS_WISE, ReductionScheme.ALL_WISE)),
    "classes": ((ReductionScheme.IMAGE_WISE, ReductionScheme.CLASS_WISE),
                (ReductionScheme.BATCH_WISE, ReductionScheme.ALL_WISE)),
}

positive_eps = st.floats(min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def tensors(draw, batch=None, classes=None):
    """Binary ground truth and predictions in [0, 1] of a small shape."""
    shape = Shape(batch or draw(st.integers(1, 3)), classes or draw(st.integers(1, 3)),
                  draw(st.integers(1, 6)))
    y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=shape.size, max_size=shape.size))
    p = draw(st.lists(unit, min_size=shape.size, max_size=shape.size))
    return _wrap(shape, np.array(y)), _wrap(shape, np.array(p))


@st.composite
def instances(draw):
    """A tensor pair with a scheme and a positive epsilon, per class when the scheme allows."""
    gt, pred = draw(tensors())
    scheme = draw(st.sampled_from(list(ReductionScheme)))
    if scheme.class_pure and draw(st.booleans()):
        n = gt.shape.classes
        eps = np.array(draw(st.lists(positive_eps, min_size=n, max_size=n)))
    else:
        eps = draw(positive_eps)
    return gt, pred, DiceLossConfig(scheme, eps)


@PROPERTY_SETTINGS
@given(instances())
def test_axis_core_matches_index_list_oracle(case):
    gt, pred, cfg = case
    out, grad = dice_value_and_grad(gt, pred, cfg)
    assert abs(out.value - reference_loss(gt, pred, cfg)) <= 1e-12
    assert np.max(np.abs(grad.data - reference_grad(gt, pred, cfg))) <= 1e-12
    assert out.effective_subset_count == len(enumerate_subsets(cfg.scheme, gt.shape))


@PROPERTY_SETTINGS
@given(instances())
def test_loss_lies_in_unit_interval(case):
    gt, pred, cfg = case
    value = dice_value_and_grad(gt, pred, cfg)[0].value
    assert 0.0 <= value <= 1.0


@PROPERTY_SETTINGS
@given(instances())
def test_background_gradient_nonnegative_foreground_nonpositive(case):
    gt, pred, cfg = case
    grad = dice_value_and_grad(gt, pred, cfg)[1].flat()
    y = gt.flat()
    for s in enumerate_subsets(cfg.scheme, gt.shape):
        g, key = grad[s.members], y[s.members]
        g0, g1 = g[key == 0.0], g[key == 1.0]
        assert np.all(g0 >= 0.0)
        assert np.all(g1 <= 0.0)


@pytest.mark.parametrize("axis", sorted(DEGENERATE_PAIRS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_degenerate_scheme_pairs_coincide_exactly(axis, data):
    gt, pred = data.draw(tensors(batch=1) if axis == "batch" else tensors(classes=1))
    eps = data.draw(positive_eps)
    for scheme_a, scheme_b in DEGENERATE_PAIRS[axis]:
        out_a, grad_a = dice_value_and_grad(gt, pred, DiceLossConfig(scheme_a, eps))
        out_b, grad_b = dice_value_and_grad(gt, pred, DiceLossConfig(scheme_b, eps))
        assert out_a.value == out_b.value
        assert np.array_equal(grad_a.data, grad_b.data)


@PROPERTY_SETTINGS
@given(instances())
def test_leaf_empty_subsets_get_zero_gradient_and_are_not_counted(case):
    gt, pred, cfg = case
    leaf = DiceLossConfig(cfg.scheme, cfg.epsilon, Variant.LEAF)
    out, grad = dice_value_and_grad(gt, pred, leaf)
    g, y = grad.flat(), gt.flat()
    subsets = enumerate_subsets(cfg.scheme, gt.shape)
    empty = [s for s in subsets if not y[s.members].any()]
    for s in empty:
        assert np.all(g[s.members] == 0.0)
    assert out.effective_subset_count == len(subsets) - len(empty)


@st.composite
def marginal_cases(draw):
    """Softmax-style predictions, a mask keeping the background available in every
    element, and ground truth that is empty wherever a class is unavailable."""
    B, C, I = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    background = draw(st.integers(0, C - 1))
    avail = np.array(draw(st.lists(st.booleans(), min_size=B * C,
                                   max_size=B * C))).reshape(B, C)
    avail[:, background] = True
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=B * C * I,
                               max_size=B * C * I))).reshape(B, C, I)
    y[~avail] = 0.0
    raw = np.array(draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                 min_size=B * C * I, max_size=B * C * I))).reshape(B, C, I)
    p = raw / raw.sum(axis=1, keepdims=True)
    cfg = DiceLossConfig(draw(st.sampled_from(list(ReductionScheme))), draw(positive_eps),
                         Variant.MARGINAL, background_class=background)
    shape = Shape(B, C, I)
    return _wrap(shape, y), _wrap(shape, p), cfg, AvailabilityMask(avail)


@PROPERTY_SETTINGS
@given(marginal_cases())
def test_marginal_unavailable_classes_take_the_background_gradient(case):
    gt, pred, cfg, mask = case
    grad = dice_value_and_grad(gt, pred, cfg, mask)[1].data
    for b, c in zip(*np.nonzero(~mask.available)):
        assert np.array_equal(grad[b, c], grad[b, cfg.background_class])


@PROPERTY_SETTINGS
@given(instances(), st.lists(unit, min_size=1, max_size=12))
def test_stacked_values_equal_single_forward_bitwise(case, extra):
    gt, pred, cfg = case
    n = gt.shape.size
    others = np.resize(np.array(extra), (2, n))  # two more predictions, extra repeated
    stack = np.concatenate([pred.flat()[None], others]).reshape(3, *gt.shape.as_tuple())
    values = dice_values(gt, stack, cfg)
    assert values.shape == (3,)
    for k in range(3):
        single = _wrap(gt.shape, stack[k].reshape(-1))
        assert values[k] == dice_value_and_grad(gt, single, cfg)[0].value


@st.composite
def stencil_cases(draw):
    """Predictions inside the stencil range, a scheme, standard or leaf, and an epsilon spec."""
    gt, _ = draw(tensors())
    eps_label = draw(st.sampled_from(["0", "1e-7", "1", "calibrated"]))
    if eps_label == "0":  # epsilon 0 is only smooth when no (b, c) map is empty
        y = gt.data.copy()
        y[..., 0][y.sum(axis=2) == 0] = 1.0
        gt = _wrap(gt.shape, y.reshape(-1))
    inside = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
    p = draw(st.lists(inside, min_size=gt.shape.size, max_size=gt.shape.size))
    scheme = draw(st.sampled_from(list(ReductionScheme)))
    variant = draw(st.sampled_from([Variant.STANDARD, Variant.LEAF]))
    cfg = DiceLossConfig(scheme, resolve_epsilon(eps_label, gt, scheme), variant)
    return gt, _wrap(gt.shape, np.array(p)), cfg


@PROPERTY_SETTINGS
@given(stencil_cases())
def test_batched_stencil_matches_per_element_loop(case):
    gt, pred, cfg = case
    batched = finite_diff_grad(gt, pred, cfg).data
    assert np.max(np.abs(batched - loop_finite_diff_grad(gt, pred, cfg))) <= 1e-10


def _read_raises_only_dicelab_errors(reader, blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed"
        path.write_bytes(blob)
        try:
            reader(path)
        except DicelabError:
            pass


def _payloads(n_bytes: int):
    """A payload of exactly n_bytes, or arbitrary bytes."""
    exact = st.binary(min_size=n_bytes, max_size=n_bytes) if n_bytes <= 512 else st.nothing()
    return st.one_of(exact, st.binary(max_size=64))


@st.composite
def tensor_files(draw):
    """A valid .drt header with small or arbitrary dims, or one with a single flaw."""
    small = st.integers(0, 3)
    dims = draw(st.one_of(st.tuples(small, small, small),
                          st.tuples(*[st.integers(0, 2 ** 32 - 1)] * 3)))
    dtype, ndim = 1, 3
    flaw = draw(st.sampled_from(["none", "dtype", "ndim", "truncated"]))
    if flaw == "dtype":
        dtype = draw(st.integers(0, 255))
    elif flaw == "ndim":
        ndim = draw(st.integers(0, 255))
    header = b"DRT1" + struct.pack("<BB", dtype, ndim) + struct.pack("<III", *dims)
    if flaw == "truncated":
        header = header[:draw(st.integers(4, len(header) - 1))]
    return header + draw(_payloads(8 * math.prod(dims)))


@st.composite
def model_files(draw):
    """A valid model header, or one with a single flaw: a field's value, its sizes,
    its field list, or trailing junk."""
    head = draw(st.sampled_from(["sigmoid", "softmax"]))
    classes, features = (1 if head == "sigmoid" else draw(st.integers(2, 4))), 4
    flaw = draw(st.sampled_from(["none", "head", "sizes", "fields", "junk"]))
    if flaw == "head":
        head = draw(st.text(max_size=8))
    elif flaw == "sizes":
        classes, features = draw(st.integers(-2, 6)), draw(st.integers(-2, 6))
    fields = [f"head={head}", f"classes={classes}", f"features={features}"]
    if flaw == "fields":
        fields = draw(st.lists(st.sampled_from(fields), max_size=4))
    junk = draw(st.text(max_size=6)) if flaw == "junk" else ""
    header = ("DLM1 " + " ".join(fields) + junk + "\n").encode("utf-8")
    return header + draw(_payloads(8 * max(classes, 0) * max(features, 0)))


@pytest.mark.parametrize("reader", [read_tensor, load_model])
@PROPERTY_SETTINGS
@given(blob=st.binary(max_size=128))
def test_readers_raise_only_dicelab_errors_on_arbitrary_bytes(reader, blob):
    _read_raises_only_dicelab_errors(reader, blob)


@PROPERTY_SETTINGS
@given(tensor_files())
def test_read_tensor_raises_only_dicelab_errors_on_near_valid_files(blob):
    _read_raises_only_dicelab_errors(read_tensor, blob)


@PROPERTY_SETTINGS
@given(model_files())
def test_load_model_raises_only_dicelab_errors_on_near_valid_files(blob):
    _read_raises_only_dicelab_errors(load_model, blob)
