"""The four input rules in errors.py: what each accepts and what it raises, and
the typed errors that the entry points taking user arrays raise through them."""

import math
from fractions import Fraction

import numpy as np
import pytest

import dicelab
from dicelab.epsilon import BalanceParams, calibrate_epsilon, solve_balance_epsilon
from dicelab.errors import (DicelabError, InvalidConfigError, RangeViolationError,
                            ShapeMismatchError, require_array, require_binary, require_int,
                            require_number)
from dicelab.gradcheck import check_two_value, compare_grads, finite_diff_grad
from dicelab.harness import ExperimentConfig, default_config, run_experiment
from dicelab.loss import (DiceLossConfig, Variant, dice_value_and_grad, dice_values,
                          marginal_merge)
from dicelab.metrics import (binarize, bootstrap_compare, hard_dsc, roc_auc,
                             volume_difference)
from dicelab.synthdata import (BinaryTaskParams, MulticlassTaskParams, PartialAction,
                               PartialPolicy, apply_partial, generate_binary,
                               generate_multiclass, save_dataset)
from dicelab.tensor import ReductionScheme, write_tensor
from dicelab.trainer import LinearPixelModel, TrainConfig, featurize, predict, save_model


@pytest.mark.parametrize("value", [3, 5, np.int64(3), 10 ** 400])
def test_require_int_accepts_integers_at_least_minimum(value):
    require_int("n", value, 3)


@pytest.mark.parametrize("value", [2, True, np.True_, 3.0, "3", None, np.float64(4.0)])
def test_require_int_rejects_the_rest(value):
    with pytest.raises(InvalidConfigError, match=r"n must be an integer >= 3, got"):
        require_int("n", value, 3)


@pytest.mark.parametrize("value", [0, 1, 0.5, np.float64(1.0), np.int64(0), Fraction(1, 3)])
def test_require_number_accepts_numbers_in_range(value):
    require_number("x", value, 0, 1)


@pytest.mark.parametrize("value, low, high", [
    (math.nan, -math.inf, math.inf), (math.inf, 0, math.inf), (-math.inf, -math.inf, 0),
    (10 ** 400, 0, math.inf), (True, 0, 1), (np.False_, 0, 1), ("0.5", 0, 1), (None, 0, 1),
    ([0.5], 0, 1), (-0.1, 0, 1), (1.5, 0, 1)])
def test_require_number_rejects_the_rest(value, low, high):
    with pytest.raises(InvalidConfigError, match=r"x must be a finite number in \["):
        require_number("x", value, low, high)


@pytest.mark.parametrize("value", [1.5, [[1, 2], [3, 4]], [True, False], np.zeros((2, 0)),
                                   np.arange(3, dtype=np.uint8), [[]]])
def test_require_array_accepts_arrays_of_real_numbers(value):
    array = require_array("a", value)
    assert isinstance(array, np.ndarray) and array.tolist() == np.asarray(value).tolist()


def test_require_array_passes_an_array_through():
    a = np.zeros(3)
    assert require_array("a", a) is a


@pytest.mark.parametrize("value", [[[1, 0], [1]], [[0.1], [0.2, 0.3]], [1, [2]]])
def test_require_array_rejects_a_ragged_sequence(value):
    with pytest.raises(ShapeMismatchError, match="a must not be a ragged sequence"):
        require_array("a", value)


@pytest.mark.parametrize("value", ["abc", ["1", "2"], [1, None], {}, [1, 1j], b"ab",
                                   np.array([1, 2], dtype=object), 10 ** 400])
def test_require_array_rejects_cells_that_are_not_real_numbers(value):
    with pytest.raises(RangeViolationError, match="a must hold real numbers"):
        require_array("a", value)


def test_require_binary():
    require_binary("gt", np.array([[0.0, 1.0], [1.0, 0.0]]))
    for bad in (0.5, -1.0, 2.0, np.nan):
        with pytest.raises(RangeViolationError, match="gt values must be exactly 0 or 1"):
            require_binary("gt", np.array([0.0, bad]))


GT = np.array([[[1.0, 0.0, 1.0]]])
PRED = np.array([[[0.4, 0.5, 0.6]]])
SCHEME = ReductionScheme.IMAGE_WISE
CFG = DiceLossConfig(SCHEME)
# a two-class pair, the background first, for the marginal merge
GT2 = np.array([[[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]])
PRED2 = np.array([[[0.6, 0.5, 0.4], [0.4, 0.5, 0.6]]])
MASK2 = np.array([[True, True]])
SMALL_BINARY = BinaryTaskParams(image_size=16, n_grade_a=2, n_grade_b=1, radius_a=(3.0, 4.5),
                                radius_b=(2.0, 3.0))
SMALL_MULTI = MulticlassTaskParams(image_size=32, core_radius=(2.5, 3.5), shell_width=(1.5, 2.0),
                                   satellite_radius=(2.0, 3.0), n_phase_a=2, n_phase_b=1,
                                   center_jitter=1.0)
DATASET = generate_binary(SMALL_BINARY, seed=0)
POLICY = PartialPolicy(PartialAction.EMPTY_MAP, class_index=0)
MODEL = LinearPixelModel(np.zeros((1, 4)))
# two folds of the smallest binary matrix that trains: one cell, two iterations
EXPERIMENT = ExperimentConfig(task="binary", labelings=("full",), setups=("image-wise",),
                              batch_sizes=(1,), iterations=2, folds=2, bootstrap_resamples=10,
                              dataset={"image_size": 16, "n_grade_a": 4, "n_grade_b": 2,
                                       "radius_a": [3.0, 4.5], "radius_b": [2.0, 3.0]})

# each entry point with well-formed arguments, and the kind of each argument;
# a path argument ("p") is taken as well-formed, and write_tensor, save_dataset,
# save_model and run_experiment write into the test's own directory
ENTRY_POINTS = {
    "dice_values": (dice_values, (GT, PRED, CFG), "aac"),
    "dice_value_and_grad": (dice_value_and_grad, (GT, PRED, CFG), "aac"),
    "finite_diff_grad": (finite_diff_grad, (GT, PRED, CFG), "aac"),
    "compare_grads": (compare_grads, (PRED, PRED), "aa"),
    "check_two_value": (check_two_value, (GT, PRED, SCHEME), "aas"),
    "calibrate_epsilon": (calibrate_epsilon, (GT, SCHEME), "as"),
    "marginal_merge": (marginal_merge, (GT2, PRED2, MASK2), "gem"),
    "write_tensor": (write_tensor, ("t.drt", PRED), "pt"),
    "apply_partial": (apply_partial, (DATASET, POLICY), "dq"),
    "DiceLossConfig": (DiceLossConfig, (SCHEME, 1.0, Variant.STANDARD), "snv"),
    "BalanceParams": (BalanceParams, (0.5, 2.0, 10.0), "nnn"),
    "solve_balance_epsilon": (solve_balance_epsilon, (BalanceParams(0.5, 2.0, 10.0),), "B"),
    "generate_binary": (generate_binary, (SMALL_BINARY, 0), "bi"),
    "generate_multiclass": (generate_multiclass, (SMALL_MULTI, 0), "Mi"),
    "save_dataset": (save_dataset, (DATASET, "ds"), "dp"),
    "LinearPixelModel": (LinearPixelModel, (np.zeros((1, 4)),), "a"),
    "TrainConfig": (TrainConfig, (CFG,), "c"),
    "featurize": (featurize, (np.zeros((2, 4, 4)),), "f"),
    "predict": (predict, (MODEL, DATASET), "wd"),
    "save_model": (save_model, (MODEL, "m.model"), "wp"),
    "hard_dsc": (hard_dsc, (GT, GT), "aa"),
    "volume_difference": (volume_difference, (GT, GT), "aa"),
    "binarize": (binarize, (PRED,), "a"),
    "roc_auc": (roc_auc, ([0.1, 0.9, 0.4], [0, 1, 0]), "ll"),
    "bootstrap_compare": (bootstrap_compare, ([1.0, 2.0, 3.0], [0.0, 1.0, 1.0], 10, 0), "llii"),
    "default_config": (default_config, ("binary",), "k"),
    "run_experiment": (run_experiment, (EXPERIMENT, "out", 1), "xpi"),
}
ARRAYS = {"ragged": [[[1.0, 0.0], [1.0]]], "str": [[["1", "0", "1"]]], "complex": GT + 0j,
          "2-D": GT[0], "0-D": 1.0}
MALFORMED = {
    "a": ARRAYS,
    "g": {**ARRAYS, "0.5": GT2 * 0.5},  # merged unchanged
    "e": {**ARRAYS, "NaN": PRED2 * np.nan,  # merged into NaN
          "1.5 and -0.5": np.array([[[1.5, 0.5, 0.4], [-0.5, 0.5, 0.6]]])},  # merged unchanged
    "c": {"None": None, "str": "image-wise", "scheme": SCHEME},
    "s": {"None": None, "str": "image-wise", "config": CFG},
    "m": {"None": None, "list": MASK2.tolist(), "int": MASK2.astype(int), "1-D": MASK2[0]},
    "p": {},
    "t": {"ragged": [[[1.0, 0.0], [1.0]]], "str": [[["1", "0", "1"]]], "complex": PRED + 0j,
          "None": None, "2-D": PRED[0], "NaN": PRED * np.nan, "inf": np.full(PRED.shape, np.inf)},
    "d": {"None": None, "policy": POLICY, "images": DATASET.images},
    "q": {"None": None, "str": "empty-map", "dataset": DATASET},
    "n": {"None": None, "str": "1", "bool": True, "NaN": math.nan, "inf": math.inf},
    "v": {"None": None, "str": "standard"},
    "B": {"None": None, "tuple": (0.5, 2.0, 10.0), "number": 10.0},
    "b": {"None": None, "multiclass": SMALL_MULTI, "dict": {"image_size": 16}},
    "M": {"None": None, "binary": SMALL_BINARY, "dict": {"image_size": 32}},
    "i": {"None": None, "bool": True, "float": 1.5, "str": "1", "negative": -1},
    "f": {"ragged": [[0.1, 0.2], [0.3]], "str": [["a", "b"], ["c", "d"]], "None": None,
          "complex": np.zeros((4, 4)) + 0j, "NaN": np.full((4, 4), np.nan), "1-D": np.zeros(4)},
    "w": {"None": None, "array": np.zeros((1, 4)), "dataset": DATASET},
    "l": {"ragged": [[1.0, 2.0], [3.0]], "str": ["1", "2", "3"], "complex": [1j, 2.0, 3.0],
          "None": None, "2-D": [[1.0, 2.0, 3.0]], "NaN": [math.nan, 1.0, 0.0]},
    "k": {"None": None, "unknown": "ternary", "list": ["binary"]},
    "x": {"None": None, "task name": "binary", "dict": {"task": "binary"}},
}
CASES = [pytest.param(name, i, bad, id=f"{name}-{i}-{label}")
         for name, (_, args, kinds) in ENTRY_POINTS.items()
         for i, kind in enumerate(kinds)
         for label, bad in MALFORMED[kind].items()]
# exported callables that have no row yet; this set may only shrink. Error classes
# are what the rows raise, not entry points, so they need no row.
NOT_YET_COVERED = {
    "BinaryTaskParams", "ExperimentConfig", "GradCheckReport", "LossOutput",
    "MulticlassTaskParams", "PartialAction", "PartialPolicy", "ReductionScheme", "RocCurve",
    "SyntheticDataset", "TrainResult", "Variant", "load_config", "load_dataset", "load_model",
    "read_tensor", "run_check_matrix", "train",
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_accepts_its_well_formed_arguments(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    entry, args, _ = ENTRY_POINTS[name]
    entry(*args)


@pytest.mark.parametrize("name, position, bad", CASES)
def test_entry_point_turns_malformed_input_into_a_dicelab_error(name, position, bad, tmp_path,
                                                                  monkeypatch):
    # before any side effect: nothing is written, not even an output directory
    monkeypatch.chdir(tmp_path)
    entry, args, _ = ENTRY_POINTS[name]
    args = list(args)
    args[position] = bad
    with pytest.raises(DicelabError):
        entry(*args)
    assert not any(tmp_path.iterdir())


def test_every_exported_callable_has_a_row_or_is_not_yet_covered():
    exported = {name for name, value in vars(dicelab).items()
                if callable(value) and not name.startswith("_")
                and not (isinstance(value, type) and issubclass(value, BaseException))}
    assert NOT_YET_COVERED <= exported and not NOT_YET_COVERED & ENTRY_POINTS.keys()
    assert exported - NOT_YET_COVERED <= ENTRY_POINTS.keys()
    assert len(NOT_YET_COVERED) <= 18  # lower this bound as rows are added
