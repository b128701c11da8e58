"""Property tests of the axis-based Dice core against the index-list oracle,
of the leaf and marginal variants, of the batched finite-difference stencil
against the per-element loop, of the harness's grouping pass against the
per-(tag, class) rescans, and of the loss config, the train config, the model,
the experiment config, the generator parameters, the dataset's fields, the
gradient-check matrix, the bootstrap, the dataset manifest and the file readers
on malformed input."""

import json
import math
import shutil
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nps

from dicelab import harness
from dicelab.errors import DicelabError
from dicelab.gradcheck import finite_diff_grad, resolve_epsilon, run_check_matrix
from dicelab.metrics import RocCurve, bootstrap_compare
from dicelab.loss import (
    DiceLossConfig,
    Variant,
    dice_value_and_grad,
    dice_values,
)
from dicelab.synthdata import MANIFEST_NAME, SyntheticDataset, load_dataset
from dicelab.tensor import ReductionScheme, read_tensor
from dicelab.trainer import N_FEATURES, LinearPixelModel, TrainConfig, load_model
from fd_oracle import loop_finite_diff_grad
from partition_oracle import enumerate_subsets, reference_grad, reference_loss
import summary_oracle
from test_synthdata import save_small_binary

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
    shape = (batch or draw(st.integers(1, 3)), classes or draw(st.integers(1, 3)),
             draw(st.integers(1, 6)))
    size = int(np.prod(shape))
    y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size))
    p = draw(st.lists(unit, min_size=size, max_size=size))
    return (np.asarray(y, dtype=np.float64).reshape(shape),
            np.asarray(p, dtype=np.float64).reshape(shape))


@st.composite
def instances(draw):
    """A tensor pair with a scheme and a positive epsilon, per class when the scheme allows."""
    gt, pred = draw(tensors())
    scheme = draw(st.sampled_from(list(ReductionScheme)))
    if scheme.class_pure and draw(st.booleans()):
        n = gt.shape[1]
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
    assert np.max(np.abs(grad - reference_grad(gt, pred, cfg))) <= 1e-12
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
    grad = dice_value_and_grad(gt, pred, cfg)[1].reshape(-1)
    y = gt.reshape(-1)
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
        assert np.array_equal(grad_a, grad_b)


@PROPERTY_SETTINGS
@given(instances())
def test_leaf_empty_subsets_get_zero_gradient_and_are_not_counted(case):
    gt, pred, cfg = case
    leaf = DiceLossConfig(cfg.scheme, cfg.epsilon, Variant.LEAF)
    out, grad = dice_value_and_grad(gt, pred, leaf)
    g, y = grad.reshape(-1), gt.reshape(-1)
    subsets = enumerate_subsets(cfg.scheme, gt.shape)
    empty = [s for s in subsets if not y[s.members].any()]
    for s in empty:
        assert np.all(g[s.members] == 0.0)
    assert out.effective_subset_count == len(subsets) - len(empty)


@st.composite
def marginal_cases(draw):
    """Softmax-style predictions, a mask keeping the background (class 0) available in
    every element, and ground truth that is empty wherever a class is unavailable."""
    B, C, I = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    avail = np.array(draw(st.lists(st.booleans(), min_size=B * C,
                                   max_size=B * C))).reshape(B, C)
    avail[:, 0] = True
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=B * C * I,
                               max_size=B * C * I))).reshape(B, C, I)
    y[~avail] = 0.0
    raw = np.array(draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                 min_size=B * C * I, max_size=B * C * I))).reshape(B, C, I)
    p = raw / raw.sum(axis=1, keepdims=True)
    cfg = DiceLossConfig(draw(st.sampled_from(list(ReductionScheme))), draw(positive_eps),
                         Variant.MARGINAL)
    return y, p, cfg, avail


@PROPERTY_SETTINGS
@given(marginal_cases())
def test_marginal_unavailable_classes_take_the_background_gradient(case):
    gt, pred, cfg, mask = case
    grad = dice_value_and_grad(gt, pred, cfg, mask)[1]
    for b, c in zip(*np.nonzero(~mask)):
        assert np.array_equal(grad[b, c], grad[b, 0])


@PROPERTY_SETTINGS
@given(instances(), st.lists(unit, min_size=1, max_size=12))
def test_stacked_values_equal_single_forward_bitwise(case, extra):
    gt, pred, cfg = case
    n = gt.size
    others = np.resize(np.array(extra), (2, n))  # two more predictions, extra repeated
    stack = np.concatenate([pred.reshape(-1)[None], others]).reshape(3, *gt.shape)
    values = dice_values(gt, stack, cfg)
    assert values.shape == (3,)
    for k in range(3):
        assert values[k] == dice_value_and_grad(gt, stack[k], cfg)[0].value


@st.composite
def stencil_cases(draw):
    """Predictions inside the stencil range, a scheme, standard or leaf, and an epsilon spec."""
    gt, _ = draw(tensors())
    eps_label = draw(st.sampled_from(["0", "1e-7", "1", "calibrated"]))
    if eps_label == "0":  # epsilon 0 is only smooth when no (b, c) map is empty
        gt = gt.copy()
        gt[..., 0][gt.sum(axis=2) == 0] = 1.0
    inside = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
    p = draw(st.lists(inside, min_size=gt.size, max_size=gt.size))
    scheme = draw(st.sampled_from(list(ReductionScheme)))
    variant = draw(st.sampled_from([Variant.STANDARD, Variant.LEAF]))
    cfg = DiceLossConfig(scheme, resolve_epsilon(eps_label, gt, scheme), variant)
    return gt, np.reshape(p, gt.shape), cfg


@PROPERTY_SETTINGS
@given(stencil_cases())
def test_batched_stencil_matches_per_element_loop(case):
    gt, pred, cfg = case
    batched = finite_diff_grad(gt, pred, cfg)
    assert np.max(np.abs(batched - loop_finite_diff_grad(gt, pred, cfg))) <= 1e-10


wide = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# rows in any order: a tag may lack a class, a subject may be alone in its group
metric_rows = st.lists(st.builds(harness.MetricRow, st.integers(0, 2), st.integers(0, 5),
                                 st.sampled_from(["grade-a", "grade-b", "phase-b"]),
                                 st.sampled_from(["core", "lesion", "shell"]),
                                 wide, wide, wide, wide), max_size=8).map(tuple)


@st.composite
def matrix_results(draw):
    """A config and the results of any subset of its cells."""
    setups = tuple(draw(st.lists(st.sampled_from(harness.SETUP_NAMES[:3]),
                                 min_size=1, max_size=3, unique=True)))
    config = harness.ExperimentConfig(task="binary", setups=setups, batch_sizes=(1,),
                                      bootstrap_resamples=20, seed=draw(st.integers(0, 3)))
    results = [harness.CellResult(*cell, draw(metric_rows), (), (), (), (), RocCurve((), (), 0.0))
               for cell in config.cells() if draw(st.booleans())]
    return config, results


# Each example draws ~200 choices, so shrinking a failure would take minutes;
# the unshrunk counterexample is reported within seconds instead.
@settings(PROPERTY_SETTINGS, phases=[p for p in Phase if p is not Phase.shrink])
@given(matrix_results())
def test_grouping_pass_matches_per_tag_rescans(case):
    config, results = case
    grouped = [(r.key, harness._group(r.metric_rows)) for r in results]
    assert harness._summarize(grouped) == summary_oracle.summarize(results)
    assert (harness._comparisons(config, dict(grouped))
            == summary_oracle.comparisons(config, results))


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=8)
config_keys = st.one_of(
    st.sampled_from([f.name for f in fields(harness.ExperimentConfig)] + ["schema_version"]),
    st.text(max_size=8), st.integers(), st.none())


@PROPERTY_SETTINGS
@given(st.booleans(), st.dictionaries(config_keys, json_values, max_size=6))
def test_config_from_dict_raises_only_dicelab_errors(from_valid, entries):
    """The entries alone, or laid over a valid config so the later checks run."""
    base = harness.config_to_dict(harness.default_config("binary")) if from_valid else {}
    try:
        harness.config_from_dict({**base, **entries})
    except DicelabError:
        pass


enum_like = st.one_of(st.sampled_from([*ReductionScheme, *Variant]),
                     st.sampled_from([m.value for m in (*ReductionScheme, *Variant)]), json_values)
epsilon_like = st.one_of(json_values, st.floats(), st.integers(),
                         st.lists(st.one_of(st.floats(), st.integers()), max_size=4))


@PROPERTY_SETTINGS
@given(enum_like, epsilon_like, enum_like)
def test_dice_loss_config_raises_only_dicelab_errors(scheme, epsilon, variant):
    """Any scheme, epsilon and variant: a config, or a DicelabError."""
    try:
        cfg = DiceLossConfig(scheme, epsilon, variant)
    except DicelabError:
        return
    assert isinstance(cfg.scheme, ReductionScheme) and isinstance(cfg.variant, Variant)


number_like = st.one_of(json_values, st.floats(), st.integers())


@PROPERTY_SETTINGS
@given(st.one_of(st.builds(DiceLossConfig, st.sampled_from(list(ReductionScheme))), enum_like),
       number_like, number_like, number_like, number_like)
def test_train_config_raises_only_dicelab_errors(loss, batch_size, learning_rate, iterations,
                                                 seed):
    """Any loss and any numbers: a config, or a DicelabError."""
    try:
        cfg = TrainConfig(loss, batch_size, learning_rate, iterations, seed)
    except DicelabError:
        return
    assert isinstance(cfg.loss, DiceLossConfig)


weight_rows = st.lists(st.one_of(st.floats(), st.integers(), json_values), max_size=5)


@PROPERTY_SETTINGS
@given(st.one_of(json_values, st.lists(weight_rows, max_size=3)))
def test_linear_pixel_model_raises_only_dicelab_errors(weights):
    """Any weights: a read-only (rows >= 1, N_FEATURES) model, or a DicelabError."""
    try:
        model = LinearPixelModel(weights)
    except DicelabError:
        return
    assert model.weights.shape[0] >= 1 and model.weights.shape[1:] == (N_FEATURES,)
    assert not model.weights.flags.writeable


# Anything but an int: a valid size or count drawn from st.integers() could ask for
# gigabytes, so every int below is drawn from a small range.
not_int = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=3),
                    st.lists(st.integers(), max_size=2))


def _spoiled(draw, valid: dict, anything: dict) -> dict:
    """valid with any of its entries, or of the names in anything, drawn from anything."""
    out = dict(valid)
    for name in draw(st.lists(st.sampled_from(sorted(anything)), unique=True, max_size=3)):
        out[name] = draw(anything[name])
    return out


unit_pair = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted)
SMALL_TASK_PARAMS = {  # a few 32 x 32 or 48 x 48 samples
    "binary": dict(n_grade_a=st.integers(1, 3), n_grade_b=st.integers(1, 3),
                   intensity_a=unit_pair, background_level=st.floats(0.0, 1.0),
                   noise_sigma=st.floats(0.0, 1.0)),
    "multiclass": dict(n_phase_a=st.integers(1, 3), n_phase_b=st.integers(1, 3),
                       shell_intensity=unit_pair, phase_b_shrink=st.floats(0.5, 1.0),
                       center_jitter=st.floats(0.0, 1.5)),
}


@st.composite
def dataset_overrides(draw):
    """A task and small valid generator parameters, any of them (or another key) replaced
    by any value."""
    task = draw(st.sampled_from(sorted(SMALL_TASK_PARAMS)))
    valid = draw(st.fixed_dictionaries(SMALL_TASK_PARAMS[task]))
    edge = st.sampled_from([math.nan, math.inf, -1.0, 0, 1, True, "1"])
    value = st.one_of(edge, st.lists(edge, min_size=2, max_size=2), st.integers(-2, 40),
                      not_int, st.lists(st.one_of(st.floats(), st.integers(-2, 40),
                                                  st.text(max_size=2)), max_size=3))
    names = [f.name for f in fields(harness.TASKS[task].params)] + ["mystery_knob"]
    return task, _spoiled(draw, valid, dict.fromkeys(names, value))


# a NaN jitter or radius passed every comparison and ended in an OverflowError
@example(("multiclass", {"center_jitter": math.nan}))
@example(("multiclass", {"core_radius": [math.nan, 5.0]}))
@PROPERTY_SETTINGS
@given(dataset_overrides())
def test_build_dataset_raises_only_dicelab_errors(case):
    """Any generator parameters given as config overrides: two datasets, or a DicelabError."""
    task, overrides = case
    try:
        full, partial = harness.build_dataset(harness.ExperimentConfig(task, dataset=overrides))
    except DicelabError:
        return
    assert len(full) == len(partial) > 0


any_dtype = st.sampled_from([np.float64, np.int64, bool, complex, "U2"])
any_scalar = st.one_of(st.integers(-2, 3), st.booleans(), st.floats(), st.text(max_size=2),
                       st.none())
any_array = nps.arrays(any_dtype, nps.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                   max_side=3))
any_field = st.one_of(any_array, any_array.map(np.ndarray.tolist), json_values,
                      st.lists(any_scalar, max_size=3))


@st.composite
def dataset_fields(draw):
    """Valid SyntheticDataset fields of up to 3 samples, 2 classes and 3 x 3 images, one
    or two of them replaced by any value: an array of any dtype, nested lists, n scalars
    of any type, or JSON."""
    n, c, size = draw(st.integers(0, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    labels = draw(nps.arrays(np.int64, (n, size, size), elements=st.integers(0, c)))
    valid = dict(task="t", class_names=tuple("ab"[:c]), subject_ids=np.arange(n),
                 tags=["x"] * n,
                 images=draw(nps.arrays(np.float64, (n, size, size), elements=st.floats(0, 1))),
                 gt=labels[:, None] == np.arange(1, c + 1)[:, None, None],  # 0 is no class
                 availability=draw(nps.arrays(bool, (n, c))))
    for name in draw(st.lists(st.sampled_from(sorted(valid)), min_size=1, max_size=2,
                              unique=True)):
        # values of the valid shape reach the checks past the shape checks
        same_shape = nps.arrays(any_dtype, np.shape(valid[name]))
        valid[name] = draw(st.one_of(same_shape, same_shape.map(np.ndarray.tolist),
                                     st.lists(any_scalar, min_size=n, max_size=n), any_field))
    return valid


def _two_samples(**changes):
    fields = dict(task="t", class_names=("a",), subject_ids=[0, 1], tags=["x", "y"],
                  images=np.zeros((2, 2, 2)), gt=np.zeros((2, 1, 2, 2)),
                  availability=np.ones((2, 1), dtype=bool))
    return {**fields, **changes}


@example(_two_samples(images=[[[0.0, np.nan], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
@example(_two_samples(tags=["x", 1]))
@example(_two_samples(subject_ids=[True, 1]))
@example(_two_samples(subject_ids=[0, -1]))
@example(_two_samples(subject_ids=[1, 1]))
@example(_two_samples(gt=np.zeros((2, 1, 2, 2)).tolist(), availability=[[True], [False]]))
@PROPERTY_SETTINGS
@given(dataset_fields())
def test_synthetic_dataset_raises_only_dicelab_errors(fields):
    """Any fields: a dataset whose arrays are read-only and agree, or a DicelabError."""
    try:
        ds = SyntheticDataset(**fields)
    except DicelabError:
        return
    n, c, size = len(ds), ds.n_classes, ds.image_size
    assert ds.images.shape == (n, size, size) and ds.gt.shape == (n, c, size, size)
    assert ds.availability.shape == (n, c) and ds.tags.shape == (n,)
    assert (ds.subject_ids.dtype, ds.gt.dtype, ds.availability.dtype) == (np.int64, bool, bool)
    assert len(set(ds.subject_ids.tolist())) == n and min(ds.subject_ids, default=0) >= 0
    assert all(isinstance(t, str) for t in ds.tags.tolist())
    assert np.isfinite(ds.images).all() and (ds.gt.sum(axis=1) <= 1).all()
    for name in ("subject_ids", "tags", "images", "gt", "availability"):
        assert not getattr(ds, name).flags.writeable, name


small_dim = st.one_of(st.integers(-1, 2), not_int)
CHECK_MATRIX_VALID = dict(  # at most 2 x 2 x 2 cells of two 8-element instances
    shapes=st.lists(st.tuples(*[st.integers(1, 2)] * 3), min_size=1, max_size=2),
    schemes=st.lists(st.sampled_from(list(ReductionScheme)), min_size=1, max_size=2),
    epsilons=st.lists(st.sampled_from(["calibrated", "0", "1e-7", "1"]), min_size=1, max_size=2),
    n_instances=st.integers(1, 2),
    base_seed=st.integers(0, 2 ** 70),
)
CHECK_MATRIX_ANY = dict(
    shapes=st.one_of(st.lists(st.one_of(st.tuples(small_dim, small_dim, small_dim),
                                        st.lists(small_dim, max_size=4)), max_size=2),
                     not_int, st.integers(-1, 2)),
    schemes=st.one_of(st.lists(enum_like, max_size=2), json_values),
    epsilons=st.one_of(st.lists(st.one_of(st.sampled_from(["calibrated", "0", "1", "-1", "nan",
                                                           "inf", "abc", ""]),
                                          number_like), max_size=2),
                       json_values),
    n_instances=st.one_of(st.integers(-1, 2), not_int),
    base_seed=st.one_of(st.integers(), not_int),
)


@st.composite
def check_matrix_calls(draw):
    """Valid run_check_matrix arguments, any of them replaced by any value."""
    return _spoiled(draw, draw(st.fixed_dictionaries(CHECK_MATRIX_VALID)), CHECK_MATRIX_ANY)


@PROPERTY_SETTINGS
@given(check_matrix_calls())
def test_run_check_matrix_raises_only_dicelab_errors(kwargs):
    """Any arguments: one record per instance, or a DicelabError."""
    try:
        records = run_check_matrix(**kwargs)
    except DicelabError:
        return
    cells = math.prod(len(kwargs[k]) for k in ("shapes", "schemes", "epsilons"))
    assert len(records) == cells * kwargs["n_instances"]


@PROPERTY_SETTINGS
@given(st.one_of(st.integers(-2, 50), not_int), st.one_of(st.integers(), not_int))
def test_bootstrap_compare_raises_only_dicelab_errors(n_resamples, seed):
    """Any resample count and seed: a p-value in [0, 1], or a DicelabError."""
    try:
        p = bootstrap_compare([0.1, 0.5, 0.9], [0.2, 0.4, 0.3], n_resamples, seed)
    except DicelabError:
        return
    assert 0.0 <= p <= 1.0


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    return save_small_binary(tmp_path_factory.mktemp("fuzz") / "d")


def _json_paths(node, path=()):
    """The key path to every value in a parsed JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, path + (key,))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_load_dataset_raises_only_dicelab_errors_on_edited_manifests(saved_dataset, data):
    manifest = json.loads((saved_dataset / MANIFEST_NAME).read_text())
    path = data.draw(st.sampled_from(list(_json_paths(manifest))))
    value = data.draw(json_values)
    if path:
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        manifest = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(shutil.copytree(saved_dataset, Path(tmp) / "d"))
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        try:
            load_dataset(root)
        except DicelabError:
            pass
