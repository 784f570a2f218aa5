"""Feature selection for correlated features on voxel grids.

Stability selection with constrained block subsampling and cluster-averaged
sparse logistic fits, plus reference baselines, a synthetic ground-truth
generator, and evaluation utilities.
"""

from .baselines import (
    RandL1Config,
    l1_weight_scores,
    l2_weight_scores,
    randomized_l1,
    ttest_scores,
)
from .clustering import (
    ClusterConfig,
    build_feature_vectors,
    kmeans,
    load_parcellation,
    save_parcellation,
)
from .data import (
    ContainerError,
    Dataset,
    GridGeometry,
    Parcellation,
    RngStream,
    SolverSolution,
    StabilityScores,
    load_dataset,
    save_dataset,
)
from .evaluation import (
    DEFAULT_THRESHOLD_GRID,
    PermutationReport,
    PRCurve,
    cv_threshold,
    permutation_fp_estimate,
    precision_recall_curve,
    prediction_accuracy,
    top_t_selection,
)
from .solver import SolverConfig, fit_l1_logistic, fit_l2_logistic
from .stability import (
    DEFAULT_LOSS_WEIGHT,
    StabilityConfig,
    load_scores_csv,
    run_stability_selection,
    save_scores_csv,
    threshold_scores,
)
from .synthgen import (
    GroundTruth,
    SynthConfig,
    generate_synthetic,
    load_ground_truth,
    save_ground_truth,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterConfig",
    "ContainerError",
    "DEFAULT_LOSS_WEIGHT",
    "DEFAULT_THRESHOLD_GRID",
    "Dataset",
    "GridGeometry",
    "GroundTruth",
    "PRCurve",
    "Parcellation",
    "PermutationReport",
    "RandL1Config",
    "RngStream",
    "SolverConfig",
    "SolverSolution",
    "StabilityConfig",
    "StabilityScores",
    "SynthConfig",
    "build_feature_vectors",
    "cv_threshold",
    "fit_l1_logistic",
    "fit_l2_logistic",
    "generate_synthetic",
    "kmeans",
    "l1_weight_scores",
    "l2_weight_scores",
    "load_dataset",
    "load_ground_truth",
    "load_parcellation",
    "load_scores_csv",
    "permutation_fp_estimate",
    "precision_recall_curve",
    "prediction_accuracy",
    "randomized_l1",
    "run_stability_selection",
    "save_dataset",
    "save_ground_truth",
    "save_parcellation",
    "save_scores_csv",
    "threshold_scores",
    "top_t_selection",
    "ttest_scores",
    "__version__",
]
