import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
    "regression": [
        "CovariateStats", "Dataset", "FittedModel", "covariate_stats", "fit", "lambda_grid", "mspe_profile",
        "tune_lambda",
    ],
    "simulation": [
        "AggregateReport", "CellResult", "SimConfig", "TrialReport", "add_noise", "evaluate_trial",
        "expected_tau", "gen_covariates", "gen_linear_responses", "gen_wasserstein_responses",
        "make_spectrum", "run_campaign", "run_cell", "true_regression_quantile",
    ],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]
# The threshold choice moved from the harness to the estimator; the harness still names it,
# so each of these is checked against both modules.
THRESHOLD_CHOICE = ["lambda_grid", "mspe_profile", "tune_lambda"]
HARNESS_PAIRS = [("simulation", name) for name in THRESHOLD_CHOICE]
# Tracer targets perfbench/tracing.py names that the program no longer has.
ABSENT_TRACER_TARGETS = [
    "regression.thresholded_precision", "linalg.pseudoinverse",
    "metric_spaces.MetricSpace.frechet_mean_many", "metric_spaces.EuclideanSpace.frechet_mean_many",
    "metric_spaces._IterativeNormSpace.frechet_mean_many", "metric_spaces.WassersteinSpace.frechet_mean_many",
    "simulation.aggregate", "dataio.write_results_csv", "dataio.write_profile_csv",
    "diagnostics.denoising_report_for", "diagnostics.bias_term", "diagnostics.snr_reciprocal",
]


@pytest.mark.parametrize("module, name", PAIRS + HARNESS_PAIRS)
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


def test_tracer_finds_every_target_but_the_known_absent_ones():
    # The benchmark's tracer wraps functions by module and name; a target that
    # moves or goes away reads zero calls, so the absent list may only shrink.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.restore()\n"
        "print(json.dumps(tracer.missing))\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == ABSENT_TRACER_TARGETS


def test_readme_python_blocks_run():
    # Each fenced python block of README.md, in a namespace of its own.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
