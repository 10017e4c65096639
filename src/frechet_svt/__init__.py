"""Spectrally thresholded global Frechet regression.

Regression of metric-space responses (vectors, 1-D distributions,
correlation matrices) on Euclidean covariates, with hard spectral
truncation of the covariate covariance to stabilize the weights under
high dimension and covariate measurement error.

The public names below resolve on first access: ``import frechet_svt``
loads none of the modules, and each name loads only the module that
defines it, so a command-line call compiles only the code it runs.
"""

import importlib

__version__ = "0.1.0"

# The defining module of each public name.
_EXPORTS = {
    "diagnostics": ("diagnose",),
    "linalg": ("SvdFactors", "compute_svd", "pinv_perturbation_residual", "spectral_norm", "svt"),
    "metric_spaces": (
        "CorrelationSpace",
        "EuclideanSpace",
        "L1Space",
        "LinfSpace",
        "MetricSpace",
        "WassersteinSpace",
        "isotonic_project",
        "midpoint_grid",
        "nearest_correlation",
        "space_from_kind",
    ),
    "regression": (
        "CovariateStats", "Dataset", "FittedModel", "covariate_stats", "fit", "lambda_grid", "mspe_profile",
        "tune_lambda",
    ),
    "simulation": (
        "AggregateReport",
        "CellResult",
        "SimConfig",
        "TrialReport",
        "add_noise",
        "evaluate_trial",
        "expected_tau",
        "gen_covariates",
        "gen_linear_responses",
        "gen_wasserstein_responses",
        "make_spectrum",
        "run_campaign",
        "run_cell",
        "true_regression_quantile",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
