"""Multilinear subspace learning for tensor-valued data.

Pipeline: HOSVD energy-threshold reduction of each data mode, then
alternating per-mode discriminant optimization, then nearest-neighbor
classification in the projected space.  Also ships the classical vector
baselines (PCA, Fisher), compression/quality metrics, dataset loaders, a
synthetic benchmark generator, and a batch CLI.
"""

from . import _malloc
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DatasetError,
    DegenerateModeError,
    DimensionError,
    InvalidModeError,
    NumericInputError,
    PgmParseError,
    SingularityError,
    TensorGdaError,
)
from .evaluation import (
    ExperimentReport,
    classify,
    classify_many,
    evaluate_loo,
    evaluate_split,
    export_projection_2d,
    train_method,
)
from .hosvd import (
    HosvdResult,
    hosvd,
    psnr,
    reconstruct,
    select_rank,
)
from .linalg import EigResult, SvdResult, ratio_trace_eig, svd, sym_eig
from .model_io import load_model, save_model
from .training import (
    GdaModel,
    LabeledTensorSet,
    TrainingConfig,
    k_mode_optimize,
    scatter_matrices,
    train_fisherface,
    train_gda,
    train_hopca,
    train_mda,
    train_pca,
)

__version__ = "0.1.0"

_malloc.fix_thresholds()

__all__ = [
    "ConfigurationError",
    "ConvergenceError",
    "DatasetError",
    "DegenerateModeError",
    "DimensionError",
    "EigResult",
    "ExperimentReport",
    "GdaModel",
    "HosvdResult",
    "InvalidModeError",
    "LabeledTensorSet",
    "NumericInputError",
    "PgmParseError",
    "SingularityError",
    "SvdResult",
    "TensorGdaError",
    "TrainingConfig",
    "classify",
    "classify_many",
    "evaluate_loo",
    "evaluate_split",
    "export_projection_2d",
    "hosvd",
    "k_mode_optimize",
    "load_model",
    "psnr",
    "ratio_trace_eig",
    "reconstruct",
    "save_model",
    "scatter_matrices",
    "select_rank",
    "svd",
    "sym_eig",
    "train_fisherface",
    "train_gda",
    "train_hopca",
    "train_mda",
    "train_method",
    "train_pca",
]
