"""shapelift: semi-supervised single-image 3D shape reconstruction, desk scale.

Subspace models for images and shapes are fitted by a truncated SVD (taken
from the Gram matrix, see ``linalg.leading_svd``) on unlabeled pools;
a mapping network (closed-form linear, direct least squares, or a small
MLP, each an ``MlpMap``) is fitted on paired data; everything is evaluated
by per-sample RMSE and per-point error heat maps on procedurally generated
solids.
"""

from .config import DatasetManifest, ExperimentConfig
from .errors import (
    FileFormatError,
    InvalidInputError,
    InvalidSpecError,
    NumericalFailureError,
)
from .linalg import SvdResult, least_squares, pseudo_inverse, svd
from .mapping import (
    MlpMap,
    TrainSchedule,
    fit_direct_map,
    fit_linear_map,
    mlp_forward,
    mlp_gradients,
    mlp_train,
)
from .pipeline import (
    EvaluationReport,
    HeatMap,
    compare_methods,
    evaluate_rmse,
    fit_mapping,
    generate_dataset,
    heatmap,
    predict,
    pretrain,
)
from .render import Pose, render_depth, rotate_z
from .shapes import (
    PointCloud,
    ShapeSpec,
    VoxelGrid,
    generate_point_shape,
    generate_voxel_shape,
    vectorize_shape,
)
from .subspace import SubspaceModel, fit_subspace, train_linear_autoencoder

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "EvaluationReport",
    "ExperimentConfig",
    "FileFormatError",
    "HeatMap",
    "InvalidInputError",
    "InvalidSpecError",
    "MlpMap",
    "NumericalFailureError",
    "PointCloud",
    "Pose",
    "ShapeSpec",
    "SubspaceModel",
    "SvdResult",
    "TrainSchedule",
    "VoxelGrid",
    "compare_methods",
    "evaluate_rmse",
    "fit_direct_map",
    "fit_linear_map",
    "fit_mapping",
    "fit_subspace",
    "generate_dataset",
    "generate_point_shape",
    "generate_voxel_shape",
    "heatmap",
    "least_squares",
    "mlp_forward",
    "mlp_gradients",
    "mlp_train",
    "predict",
    "pretrain",
    "pseudo_inverse",
    "render_depth",
    "rotate_z",
    "svd",
    "train_linear_autoencoder",
    "vectorize_shape",
]
