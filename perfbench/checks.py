"""Output checks for one CLI call, and the comparison with reference values.

``check_op`` validates what any seed must satisfy (finite tables with the
expected rows, nondecreasing quantile predictions, valid correlation
matrices, passing identity checks) and returns the numbers that the
reference comparison uses. ``compare`` measures the largest relative
difference from values recorded for the default seed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Same slack the program uses when it accepts quantile rows.
MONOTONE_SLACK = 1e-10
CORR_SYM_TOL = 1e-10
CORR_DIAG_TOL = 1e-10
CORR_PSD_TOL = 1e-8
ESTIMATORS = ("REF", "EIV", "SVT")
DIAG_KEYS = (
    "b_lambda", "snr_reciprocal", "noise_norm", "signal_floor", "rowspace_ok",
    "precondition_ok", "bound_rhs", "observed_lhs", "weight_lhs", "weight_rhs",
)


def _rows(path: Path, comments: bool = False) -> list:
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh) if r and (comments or not r[0].startswith("#"))]


def _floats(cells) -> np.ndarray:
    return np.array([float(c) for c in cells])


def _sample(matrix: np.ndarray, rows: int = 20) -> list:
    """Evenly spaced rows plus column means: enough to notice any change."""
    step = max(1, matrix.shape[0] // rows)
    return list(matrix[::step].ravel()) + list(matrix.mean(axis=0))


def _check_simulate(op, errors: list) -> dict:
    cells = op.expect["cells"]
    rows = _rows(op.out / "results.csv")
    header = ["n", "p", "noise_kind", "estimator", "bias", "sqrt_var", "mse", "mspe", "lambda_hat", "cell"]
    if rows[0] != header:
        errors.append(f"results.csv header {rows[0]}")
        return {}
    body = rows[1:]
    expected = [(c, e) for c in cells for e in ESTIMATORS]
    if [(r[9], r[3]) for r in body] != expected:
        errors.append(f"results.csv rows {[(r[9], r[3]) for r in body]} != {expected}")
        return {}
    results = np.array([_floats(r[4:9]) for r in body])
    if not np.all(np.isfinite(results)) or np.any(results < 0):
        errors.append("results.csv has non-finite or negative errors")

    prof = _rows(op.out / "profile.csv")
    points = op.expect["lambda_points"]
    body = prof[1:]
    if len(body) != len(cells) * (2 + points):
        errors.append(f"profile.csv has {len(body)} rows, expected {len(cells) * (2 + points)}")
        return {"results": list(results.ravel())}
    lam = _floats(r[4] for r in body)
    nmspe = _floats(r[5] for r in body)
    if not np.all(np.isfinite(nmspe)) or np.any(nmspe <= 0):
        errors.append("profile.csv has non-finite or nonpositive nmspe")
    for k in range(len(cells)):
        grid = lam[k * (2 + points) + 2:(k + 1) * (2 + points)]
        if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
            errors.append(f"profile.csv cell {cells[k]}: threshold grid not increasing")
    profile = {"profile": list(lam) + list(nmspe)}
    if op.expect["iterative"]:
        # A different subgradient stopping rule can move the tuned threshold
        # to a neighbouring grid point, which shifts lambda_hat and the
        # one-trial bias by tens of percent; the profile moves a few percent.
        return profile
    return {"results": list(results.ravel()), **profile}


def _check_wasserstein(op, errors: list) -> dict:
    rows = _rows(op.out / "predictions.csv", comments=True)
    if not rows[0][0].startswith("# lambda_hat = "):
        errors.append("predictions.csv lacks the tuned lambda_hat line")
        return {}
    lam_hat = float(rows[0][0].split("=")[1])
    rows = rows[1:]
    m = len(rows[0])
    if rows[0] != [f"q{i}" for i in range(1, m + 1)]:
        errors.append("predictions.csv header is not q1..qm")
        return {}
    preds = np.array([_floats(r) for r in rows[2:]])
    if preds.shape != (op.expect["rows"], m):
        errors.append(f"predictions.csv shape {preds.shape}, expected {(op.expect['rows'], m)}")
        return {}
    if not np.all(np.isfinite(preds)) or not (math.isfinite(lam_hat) and lam_hat >= 0):
        errors.append("predictions.csv has non-finite values")
    worst = float(np.diff(preds, axis=1).min())
    if worst < -MONOTONE_SLACK:
        errors.append(f"quantile prediction decreases by {-worst:.3e}")
    return {"lambda_hat": [lam_hat], "predictions": _sample(preds)}


def _check_correlation(op, errors: list) -> dict:
    rows = _rows(op.out / "predictions.csv")
    r = op.expect["size"]
    if rows[0] != [f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)]:
        errors.append("predictions.csv header is not c11..crr")
        return {}
    flat = np.array([_floats(row) for row in rows[1:]])
    if flat.shape != (op.expect["rows"], r * r) or not np.all(np.isfinite(flat)):
        errors.append(f"predictions.csv shape {flat.shape} or non-finite values")
        return {}
    mats = flat.reshape(-1, r, r)
    asym = float(np.abs(mats - mats.transpose(0, 2, 1)).max())
    diag = float(np.abs(np.einsum("kii->ki", mats) - 1.0).max())
    low = float(np.linalg.eigvalsh(0.5 * (mats + mats.transpose(0, 2, 1))).min())
    if asym > CORR_SYM_TOL:
        errors.append(f"correlation prediction asymmetric by {asym:.3e}")
    if diag > CORR_DIAG_TOL:
        errors.append(f"correlation prediction diagonal off by {diag:.3e}")
    if low < -CORR_PSD_TOL:
        errors.append(f"correlation prediction has eigenvalue {low:.3e}")
    return {"predictions": _sample(flat)}


def _check_diagnose(op, errors: list) -> dict:
    rows = _rows(op.out / "diagnostics.csv")
    if len(rows) != 2 or tuple(rows[0]) != DIAG_KEYS:
        errors.append(f"diagnostics.csv layout {rows[:1]}")
        return {}
    rec = dict(zip(rows[0], rows[1]))
    flags = {k: rec[k] == "true" for k in ("rowspace_ok", "precondition_ok")}
    values = {k: float(v) for k, v in rec.items() if k not in flags}
    if not all(flags.values()):
        errors.append(f"diagnose preconditions failed: {flags}")
    if any(math.isnan(v) for v in values.values()):
        errors.append("diagnostics.csv has NaN values")
    if values["observed_lhs"] > values["bound_rhs"] + 1e-12:
        errors.append("de-noising bound violated")
    if values["weight_lhs"] > values["weight_rhs"] + 1e-12:
        errors.append("weight-stability bound violated")
    return {"diagnostics": list(values.values())}


def _check_verify(op, errors: list) -> dict:
    lines = (op.out / "verify_report.txt").read_text().splitlines()
    if len(lines) != 6 or not all(line.startswith("pass ") for line in lines):
        errors.append(f"verify-lemmas did not pass every check: {lines}")
    elif not all(f"instances={op.expect['instances']}" in line for line in lines):
        errors.append("verify-lemmas ran the wrong number of instances")
    return {}


_CHECKS = {
    "simulate": _check_simulate,
    "fit-predict-wasserstein": _check_wasserstein,
    "fit-predict-correlation": _check_correlation,
    "diagnose": _check_diagnose,
    "verify-lemmas": _check_verify,
}


def check_op(op, returncode: int) -> tuple[list, dict]:
    """Errors found in one call's outputs, and the values to compare."""
    if returncode != 0:
        return [f"{op.name}: exit code {returncode}"], {}
    errors: list = []
    try:
        values = _CHECKS[op.name](op, errors)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"{op.name}: unreadable output: {exc!r}"], {}
    return [f"{op.name}: {e}" for e in errors], values


def tolerance_class(op) -> str:
    """Which tolerance applies when comparing this call's numbers."""
    if op.name == "simulate" and op.expect["iterative"]:
        return "iterative"
    if op.name == "fit-predict-correlation":
        return "dykstra"
    return "exact"


def max_rel_err(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|, 1e-12); equal infinities count as 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    with np.errstate(invalid="ignore"):
        rel = np.where(same, 0.0, np.abs(a - b) / scale)
    return float(np.nan_to_num(rel, nan=math.inf).max(initial=0.0))


def compare(values: dict, reference: dict) -> float:
    """Largest relative difference over every key present in ``reference``."""
    worst = 0.0
    for key, ref in reference.items():
        worst = max(worst, max_rel_err(values.get(key, []), ref))
    return worst
