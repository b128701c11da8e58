"""Exception taxonomy shared across the package.

Each class maps to one contract violation so callers (and tests) can catch
precisely what went wrong instead of parsing messages.
"""


class DicelabError(Exception):
    """Base class for all package errors."""


class LengthMismatchError(DicelabError, ValueError):
    """Flat value buffer or paired lists have the wrong length."""


class RangeViolationError(DicelabError, ValueError):
    """Tensor values outside the range allowed for their role."""


class ShapeMismatchError(DicelabError, ValueError):
    """Two tensors that must share a shape do not."""


class DimMismatchError(DicelabError, ValueError):
    """Feature dimension does not match model weights."""


class EpsilonShapeError(DicelabError, ValueError):
    """Per-class epsilon used with an incompatible scheme or length."""


class NotADistributionError(DicelabError, ValueError):
    """Prediction columns do not sum to one per pixel."""


class MissingLabelNotEmptyError(DicelabError, ValueError):
    """Ground truth of an unavailable class contains foreground."""


class NoRealRootError(DicelabError, ArithmeticError):
    """Balance equation has no real root for the given coefficients."""


class EmptyDatasetError(DicelabError, ValueError):
    """Calibration or training requested on an empty dataset."""


class StepOutOfRangeError(DicelabError, ValueError):
    """Finite-difference stencil would leave the valid prediction range."""


class DegenerateLabelsError(DicelabError, ValueError):
    """ROC requested without both a positive and a negative subject."""


class InvalidParamsError(DicelabError, ValueError):
    """Generator parameters violate their invariants."""


class TargetNotFoundError(DicelabError, ValueError):
    """Partial-labeling policy targets a class or tag absent from the dataset."""


class InvalidConfigError(DicelabError, ValueError):
    """Loss, training, or experiment configuration is inconsistent."""


class TensorFileError(DicelabError, ValueError):
    """Portable tensor file is malformed."""


class ZeroDenominatorError(DicelabError, ArithmeticError):
    """A counted Dice subset has S = 0: empty ground truth, zero prediction and epsilon 0."""


class NonFiniteTrainingError(DicelabError, ArithmeticError):
    """Training produced a NaN or infinite loss or weight gradient."""
