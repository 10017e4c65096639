"""Spectrally thresholded global Frechet regression.

Regression of metric-space responses (vectors, 1-D distributions,
correlation matrices) on Euclidean covariates, with hard spectral
truncation of the covariate covariance to stabilize the weights under
high dimension and covariate measurement error.
"""

from .diagnostics import diagnose
from .linalg import (
    SvdFactors,
    compute_svd,
    pinv_perturbation_residual,
    spectral_norm,
    svt,
)
from .metric_spaces import (
    CorrelationSpace,
    EuclideanSpace,
    L1Space,
    LinfSpace,
    MetricSpace,
    WassersteinSpace,
    isotonic_project,
    midpoint_grid,
    nearest_correlation,
    space_from_kind,
)
from .regression import (
    CovariateStats,
    Dataset,
    FittedModel,
    covariate_stats,
    fit,
    pcr_coefficients,
)
from .simulation import (
    AggregateReport,
    CellResult,
    SimConfig,
    TrialReport,
    add_noise,
    evaluate_trial,
    expected_tau,
    gen_covariates,
    gen_linear_responses,
    gen_wasserstein_responses,
    lambda_grid,
    make_spectrum,
    mspe_profile,
    run_campaign,
    run_cell,
    true_regression_quantile,
    tune_lambda,
)

__version__ = "0.1.0"
