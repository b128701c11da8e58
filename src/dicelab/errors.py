"""Exception taxonomy shared across the package.

Each class names a kind of fault that callers (and tests) can catch instead
of parsing messages.  README's "Errors" table lists what each covers and
the CLI exit code it gives.
"""


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
