"""The four input rules in errors.py: what each accepts and what it raises, and
the typed errors that the entry points taking user arrays raise through them."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dicelab.epsilon import calibrate_epsilon
from dicelab.errors import (DicelabError, InvalidConfigError, RangeViolationError,
                            ShapeMismatchError, require_array, require_binary, require_int,
                            require_number)
from dicelab.gradcheck import check_two_value, compare_grads, finite_diff_grad
from dicelab.loss import DiceLossConfig, dice_value_and_grad, dice_values
from dicelab.tensor import ReductionScheme


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

# each entry point with well-formed arguments, and the kind of each argument
ENTRY_POINTS = {
    "dice_values": (dice_values, (GT, PRED, CFG), "aac"),
    "dice_value_and_grad": (dice_value_and_grad, (GT, PRED, CFG), "aac"),
    "finite_diff_grad": (finite_diff_grad, (GT, PRED, CFG), "aac"),
    "compare_grads": (compare_grads, (PRED, PRED), "aa"),
    "check_two_value": (check_two_value, (GT, PRED, SCHEME), "aas"),
    "calibrate_epsilon": (calibrate_epsilon, (GT, SCHEME), "as"),
}
MALFORMED = {
    "a": {"ragged": [[[1.0, 0.0], [1.0]]], "str": [[["1", "0", "1"]]], "complex": GT + 0j,
          "2-D": GT[0], "0-D": 1.0},
    "c": {"None": None, "str": "image-wise", "scheme": SCHEME},
    "s": {"None": None, "str": "image-wise", "config": CFG},
}
CASES = [pytest.param(name, i, bad, id=f"{name}-{i}-{label}")
         for name, (_, args, kinds) in ENTRY_POINTS.items()
         for i, kind in enumerate(kinds)
         for label, bad in MALFORMED[kind].items()]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_accepts_its_well_formed_arguments(name):
    entry, args, _ = ENTRY_POINTS[name]
    entry(*args)


@pytest.mark.parametrize("name, position, bad", CASES)
def test_entry_point_turns_malformed_input_into_a_dicelab_error(name, position, bad):
    entry, args, _ = ENTRY_POINTS[name]
    args = list(args)
    args[position] = bad
    with pytest.raises(DicelabError):
        entry(*args)
