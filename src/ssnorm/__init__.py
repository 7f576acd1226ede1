"""Sparse simplex projections with exact gradients, a gated normalization
layer built on them, and a toy training harness."""

from .errors import (InvalidInputError, InvalidStateError, NotConvergedError,
                     TrainingFailedError)
from .layer import (SsnParams, benchmark_forward, fold_bn_into_affine,
                    select_normalizer, ssn_backward, ssn_forward,
                    update_running_stats, validate_omega)
from .simplex import (ProjectionResult, RadiusSchedule, Stage, circumradius,
                      inradius, is_smooth_point, softmax, sparsemax,
                      sparsestmax, sparsestmax_vjp, vjp_gradcheck)
from .training import (OptimizerConfig, ToyModelConfig, TrajectoryLog,
                       make_synthetic_dataset,
                       schedule_insensitivity_experiment, selection_histogram,
                       train)

__version__ = "0.1.0"

__all__ = [
    "InvalidInputError", "InvalidStateError", "NotConvergedError",
    "TrainingFailedError",
    "SsnParams", "benchmark_forward", "fold_bn_into_affine", "select_normalizer",
    "ssn_backward", "ssn_forward", "update_running_stats", "validate_omega",
    "ProjectionResult", "RadiusSchedule", "Stage", "circumradius",
    "inradius", "is_smooth_point", "softmax", "sparsemax", "sparsestmax",
    "sparsestmax_vjp", "vjp_gradcheck",
    "OptimizerConfig", "ToyModelConfig", "TrajectoryLog",
    "make_synthetic_dataset", "schedule_insensitivity_experiment",
    "selection_histogram", "train",
    "__version__",
]
