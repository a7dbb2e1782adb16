"""Weighted-data Gaussian mixture clustering.

Mixture models in which every point carries a precision weight scaling its
covariance.  Weights can be fixed values derived from local density or
gamma random variables inferred alongside the clustering, which makes the
fits robust to contamination and turns low posterior weights into an
outlier score.  Includes message-length model selection, benchmark data
generation, clustering metrics, and audio-visual fusion helpers.
"""

from . import av_fusion, datagen, em_fixed, em_weighted, errors, evaluation, initialization
from .av_fusion import (
    AvConfig,
    AvSegmentResult,
    ComponentTag,
    analyze_segment,
    classify_components,
    correct_detection,
    cross_modal_weights,
)
from .core import (
    AnnihilationEvent,
    CovarianceShape,
    Dataset,
    FitConfig,
    FitReport,
    GaussianComponent,
    MixtureModel,
    Responsibilities,
    WeightMode,
    WeightState,
    model_from_parameters,
    validate_dataset,
)
from .densities import (
    log_gamma_pdf,
    log_gaussian_scaled,
    log_pearson7,
    mahalanobis_sq,
)
from .datagen import contaminate_uniform, generate_sim
from .evaluation import OutlierScoreReport, davies_bouldin, micro_f1, outlier_score_report
from .initialization import (
    gamma_priors_from_weights,
    pipeline_gamma_priors,
    kmeans,
    knn_kernel_weights,
    model_from_labels,
)
from .model_selection import MmlConfig, message_length, select_model, truncated_proportions

__version__ = "0.1.0"

__all__ = [
    "AnnihilationEvent",
    "AvConfig",
    "AvSegmentResult",
    "ComponentTag",
    "CovarianceShape",
    "Dataset",
    "FitConfig",
    "FitReport",
    "GaussianComponent",
    "MixtureModel",
    "MmlConfig",
    "OutlierScoreReport",
    "Responsibilities",
    "WeightMode",
    "WeightState",
    "analyze_segment",
    "av_fusion",
    "classify_components",
    "contaminate_uniform",
    "correct_detection",
    "cross_modal_weights",
    "datagen",
    "davies_bouldin",
    "em_fixed",
    "em_weighted",
    "errors",
    "evaluation",
    "gamma_priors_from_weights",
    "generate_sim",
    "initialization",
    "kmeans",
    "knn_kernel_weights",
    "log_gamma_pdf",
    "log_gaussian_scaled",
    "log_pearson7",
    "mahalanobis_sq",
    "message_length",
    "micro_f1",
    "model_from_labels",
    "model_from_parameters",
    "outlier_score_report",
    "pipeline_gamma_priors",
    "select_model",
    "truncated_proportions",
    "validate_dataset",
]
