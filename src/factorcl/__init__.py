"""Continual learning over a shared SVD-factorized representational space.

Tasks train in factorized form (U, sigma, V per conv layer) against a
frozen shared space, are compressed by singular-value energy pruning,
and appended; per-task cumulative ranks make every earlier task's
sub-network recoverable bitwise, so backward transfer is exactly zero.
"""

from .checkpoint import (
    load_dataset,
    load_dense_models,
    load_space,
    save_dataset,
    save_dense_models,
    save_space,
)
from .compression import PruneConfig, compress, retained_rank, sort_by_magnitude
from .datasets import TaskDataset, TaskStreamSpec, generate_stream
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .factorized import (
    LayerShape,
    NetworkSpec,
    SharedSpace,
    TaskFactors,
    TaskHead,
    append,
    dense_weight,
    empty_space,
    expand,
    extract_subnetwork,
    param_count,
    predict_logits,
    size_bytes,
)
from .metrics import MetricsReport, compute_metrics
from .regularizers import l_orth, l_sparse
from .trainer import MODES, DenseTaskModels, TrainConfig, run_continual, train_task

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DenseTaskModels",
    "FormatError",
    "LayerShape",
    "MetricsReport",
    "MODES",
    "NetworkSpec",
    "NumericError",
    "PruneConfig",
    "ShapeError",
    "SharedSpace",
    "TaskDataset",
    "TaskFactors",
    "TaskHead",
    "TaskStreamSpec",
    "TrainConfig",
    "TrainingError",
    "append",
    "compress",
    "compute_metrics",
    "dense_weight",
    "empty_space",
    "expand",
    "extract_subnetwork",
    "generate_stream",
    "l_orth",
    "l_sparse",
    "load_dataset",
    "load_dense_models",
    "load_space",
    "param_count",
    "predict_logits",
    "retained_rank",
    "run_continual",
    "save_dataset",
    "save_dense_models",
    "save_space",
    "size_bytes",
    "sort_by_magnitude",
    "train_task",
]
