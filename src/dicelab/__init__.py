"""Dice loss with configurable reduction partitions, exact gradients, and a
synthetic partial-labeling experiment harness."""

from .errors import (
    DegenerateLabelsError,
    DicelabError,
    EmptyDatasetError,
    InvalidConfigError,
    NoRealRootError,
    NonFiniteTrainingError,
    RangeViolationError,
    ShapeMismatchError,
    TensorFileError,
    ZeroDenominatorError,
)
from .tensor import (
    ReductionScheme,
    read_tensor,
    write_tensor,
)
from .loss import (
    DiceLossConfig,
    LossOutput,
    Variant,
    dice_value_and_grad,
    dice_values,
    marginal_merge,
)
from .epsilon import BalanceParams, calibrate_epsilon, solve_balance_epsilon
from .gradcheck import (
    GradCheckReport,
    check_two_value,
    compare_grads,
    finite_diff_grad,
    run_check_matrix,
)
from .synthdata import (
    BinaryTaskParams,
    MulticlassTaskParams,
    PartialAction,
    PartialPolicy,
    SyntheticDataset,
    SyntheticSample,
    apply_partial,
    generate_binary,
    generate_multiclass,
    load_dataset,
    save_dataset,
)
from .trainer import (
    LinearPixelModel,
    TrainConfig,
    TrainResult,
    featurize,
    load_model,
    save_model,
    train,
)
from .metrics import RocCurve, binarize, bootstrap_compare, hard_dsc, roc_auc, volume_difference
from .harness import ExperimentConfig, default_config, load_config, run_experiment

__version__ = "0.1.0"
