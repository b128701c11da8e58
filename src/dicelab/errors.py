"""Exception taxonomy shared across the package, and the input rules that raise it.

Each class names a kind of fault that callers (and tests) can catch instead
of parsing messages.  README's "Errors" table lists what each covers and
the CLI exit code it gives.  require_int, require_number and require_binary
state once what a valid integer, number and 0/1 ground truth is.
"""

import math
import numbers
import sys


class DicelabError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(DicelabError, ValueError):
    """Shapes, lengths or dimensions that must agree do not."""


class RangeViolationError(DicelabError, ValueError):
    """Values outside the range allowed for their role."""


class InvalidConfigError(DicelabError, ValueError):
    """Loss, training, experiment or generator configuration is inconsistent."""


class TensorFileError(DicelabError, ValueError):
    """Portable tensor file is malformed."""


class EmptyDatasetError(DicelabError, ValueError):
    """Calibration or training requested on an empty dataset."""


class DegenerateLabelsError(DicelabError, ValueError):
    """ROC requested without both a positive and a negative subject."""


class NoRealRootError(DicelabError, ArithmeticError):
    """Balance equation has no real root for the given coefficients."""


class ZeroDenominatorError(DicelabError, ArithmeticError):
    """A counted Dice subset has S = 0: empty ground truth, zero prediction and epsilon 0."""


class NonFiniteTrainingError(DicelabError, ArithmeticError):
    """Training produced a NaN or infinite loss or weight gradient."""


def require_int(name: str, value, minimum: int) -> None:
    """InvalidConfigError unless value is an integer (bool excluded) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_number(name: str, value, low: float, high: float = math.inf) -> None:
    """InvalidConfigError unless value is a finite real number (bool excluded) in
    [low, high]; NaN fails, as does an int past the float range; NumPy floats compare as floats."""
    big = sys.float_info.max
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    v = value if not real or isinstance(value, numbers.Integral) else float(value)
    if not real or not max(low, -big) <= v <= min(high, big):
        raise InvalidConfigError(f"{name} must be a finite number in [{low}, {high}], "
                                 f"got {value!r}")


def require_binary(name: str, y) -> None:
    """RangeViolationError unless every value of the array y is 0 or 1 (NaN is neither)."""
    if not ((y == 0.0) | (y == 1.0)).all():
        raise RangeViolationError(f"{name} values must be exactly 0 or 1")
