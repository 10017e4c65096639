import importlib

import pytest

import frechet_svt

# Every name the package exported when it imported all of them eagerly, by defining module.
EXPORTED = {
    "diagnostics": ["diagnose"],
    "linalg": ["SvdFactors", "compute_svd", "pinv_perturbation_residual", "spectral_norm", "svt"],
    "metric_spaces": [
        "CorrelationSpace", "EuclideanSpace", "L1Space", "LinfSpace", "MetricSpace", "WassersteinSpace",
        "isotonic_project", "midpoint_grid", "nearest_correlation", "space_from_kind",
    ],
    "regression": ["CovariateStats", "Dataset", "FittedModel", "covariate_stats", "fit", "pcr_coefficients"],
    "simulation": [
        "AggregateReport", "CellResult", "SimConfig", "TrialReport", "add_noise", "evaluate_trial",
        "expected_tau", "gen_covariates", "gen_linear_responses", "gen_wasserstein_responses",
        "lambda_grid", "make_spectrum", "mspe_profile", "run_campaign", "run_cell",
        "true_regression_quantile", "tune_lambda",
    ],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS)
def test_exported_name_is_its_defining_modules_object(module, name):
    home = importlib.import_module(f"frechet_svt.{module}")
    assert getattr(frechet_svt, name) is getattr(home, name)
    assert name in dir(frechet_svt)


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from frechet_svt import *", namespace)
    for module, name in PAIRS:
        assert namespace[name] is getattr(importlib.import_module(f"frechet_svt.{module}"), name)
    assert sorted(frechet_svt.__all__) == sorted(name for _, name in PAIRS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(frechet_svt, "no_such_name")
    assert not hasattr(frechet_svt, "no_such_name")
