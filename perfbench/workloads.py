"""Benchmark workloads: generated inputs and the CLI calls that use them.

Every input is made here from the benchmark seed; the program only sees
the generated campaign configs and CSV files. A workload is a fixed list
of CLI calls (operations) that one pass runs in order, each waiting for
the previous one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Seed whose outputs are compared against perfbench/reference.json.
DEFAULT_SEED = 1

QUANTILE_POINTS = 101


@dataclass(frozen=True)
class Op:
    """One CLI call: ``python -m frechet_svt <argv>`` writing into ``out``."""

    name: str
    argv: tuple
    out: Path
    items: int  # work items counted by units_per_s: trials or predicted query rows
    expect: dict  # what the output checks need to know about this call


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int | None  # FRECHET_SVT_THREADS; None means one per usable core
    unit: str  # what one item of units_per_s is
    prepare: object  # (seed, input dir) -> ops(pass_dir) factory


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(values) -> list:
    return [repr(float(v)) for v in values]


def _spectrum_covariates(rng, n: int, p: int) -> np.ndarray:
    """Gaussian rows with a geometrically decaying covariance spectrum."""
    decay = np.geomspace(1.0, 1e-2, p)
    spectrum = p * decay / decay.sum()
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (rng.standard_normal((n, p)) * np.sqrt(spectrum)) @ basis.T


def _campaign(path: Path, shared: dict, cells: dict) -> None:
    lines = ["[campaign]"] + [f"{k} = {v}" for k, v in shared.items()]
    for name, fields in cells.items():
        lines += ["", f"[cell:{name}]"] + [f"{k} = {v}" for k, v in fields.items()]
    path.write_text("\n".join(lines) + "\n")


# --- simulate workloads ---------------------------------------------------

DESK = {
    "trials": 16,
    "test_size": 500,
    "eval_points": 100,
    "quantile_points": QUANTILE_POINTS,
    "sigma_eps": 0.05,
    "lambda_points": 40,
}

LINEAR = {
    "trials": 1,
    "test_size": 20,
    "eval_points": 2,
    "model": "linear",
    "linear_dim": 5,
    "sigma_eps": 0.5,
    "sigma_eta": 0.5,
    "lambda_points": 3,
}
LINEAR_CELLS = {"l1": {"n": 40, "p": 20, "metric": "l1"}, "linf": {"n": 40, "p": 20, "metric": "linf"}}


def _simulate_factory(shared: dict, cells: dict):
    def prepare(seed: int, inputs: Path):
        config = inputs / "campaign.cfg"
        _campaign(config, {"master_seed": seed, **shared}, cells)
        expect = {
            "cells": list(cells),
            "lambda_points": shared["lambda_points"],
            "iterative": any(c.get("metric") in ("l1", "linf") for c in cells.values()),
        }

        def ops(pass_dir: Path):
            out = pass_dir / "simulate"
            argv = ("simulate", "--config", str(config), "--out", str(out))
            return [Op("simulate", argv, out, shared["trials"] * len(cells), expect)]

        return ops

    return prepare


# --- cli-files ------------------------------------------------------------

FP_P = 20
FP_TRAIN = 2000
FP_HOLDOUT = 500
FP_QUERIES = 2000
CORR_SIZE = 6
CORR_P = 8
CORR_TRAIN = 100
CORR_QUERIES = 500
CORR_LAMBDA = 0.01
# Queries beyond the design give negative weights and blends outside the
# PSD cone, so Dykstra's projection has work to do.
CORR_QUERY_SCALE = 2.5
DIAG_N = 200
DIAG_P = 10
DIAG_DIM = 3
DIAG_LAMBDA = 0.1
VERIFY_INSTANCES = 100


def _quantile_rows(rng, x: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Gaussian quantile functions N(mu, tau^2), location linear in x."""
    mu = 1.0 + x @ np.full(x.shape[1], x.shape[1] ** -0.5)
    eta = 0.5 * rng.standard_normal(x.shape[0])
    tau = np.sqrt(17.0 / rng.gamma(18.0, 1.0, size=x.shape[0]))
    return (mu + eta)[:, None] + tau[:, None] * base[None, :]


def _wasserstein_file(path: Path, x: np.ndarray, y: np.ndarray, levels: np.ndarray) -> None:
    p = x.shape[1]
    header = [f"x{i}" for i in range(1, p + 1)] + [f"q{i}" for i in range(1, y.shape[1] + 1)]
    rows = [[""] * p + _fmt(levels)]
    rows += [_fmt(xi) + _fmt(yi) for xi, yi in zip(x, y)]
    _write_csv(path, header, rows)


def _covariate_file(path: Path, x: np.ndarray) -> None:
    _write_csv(path, [f"x{i}" for i in range(1, x.shape[1] + 1)], [_fmt(r) for r in x])


def _correlation_rows(rng, x: np.ndarray) -> np.ndarray:
    """Correlation matrices from a covariate-driven factor model."""
    n, r = x.shape[0], CORR_SIZE
    load = rng.standard_normal((x.shape[1], r, 2)) / np.sqrt(x.shape[1])
    factors = np.einsum("np,prk->nrk", x, load) + 0.3 * rng.standard_normal((n, r, 2))
    cov = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(r)
    d = np.sqrt(np.einsum("nii->ni", cov))
    corr = cov / (d[:, :, None] * d[:, None, :])
    corr = 0.5 * (corr + corr.transpose(0, 2, 1))
    corr[:, np.arange(r), np.arange(r)] = 1.0
    return corr.reshape(n, r * r)


def _prepare_cli_files(seed: int, inputs: Path):
    rng = np.random.default_rng([seed, 0xC11F])
    dist = NormalDist()
    levels = (np.arange(QUANTILE_POINTS) + 0.5) / QUANTILE_POINTS
    base = np.array([dist.inv_cdf(t) for t in levels])

    x = _spectrum_covariates(rng, FP_TRAIN + FP_HOLDOUT + FP_QUERIES, FP_P)
    y = _quantile_rows(rng, x, base)
    train, hold = slice(0, FP_TRAIN), slice(FP_TRAIN, FP_TRAIN + FP_HOLDOUT)
    _wasserstein_file(inputs / "w_train.csv", x[train], y[train], levels)
    _wasserstein_file(inputs / "w_holdout.csv", x[hold], y[hold], levels)
    _covariate_file(inputs / "w_queries.csv", x[FP_TRAIN + FP_HOLDOUT:])

    cx = _spectrum_covariates(rng, CORR_TRAIN + CORR_QUERIES, CORR_P)
    cy = _correlation_rows(rng, cx[:CORR_TRAIN])
    header = [f"x{i}" for i in range(1, CORR_P + 1)]
    header += [f"c{i}{j}" for i in range(1, CORR_SIZE + 1) for j in range(1, CORR_SIZE + 1)]
    _write_csv(inputs / "c_train.csv", header, [_fmt(a) + _fmt(b) for a, b in zip(cx, cy)])
    _covariate_file(inputs / "c_queries.csv", CORR_QUERY_SCALE * cx[CORR_TRAIN:])

    dx = _spectrum_covariates(rng, DIAG_N, DIAG_P)
    slopes = rng.standard_normal((DIAG_P, DIAG_DIM)) / np.sqrt(DIAG_P)
    dy = 1.0 + dx @ slopes + 0.3 * rng.standard_normal((DIAG_N, DIAG_DIM))
    dz = dx + 0.05 * rng.standard_normal(dx.shape)
    header = [f"x{i}" for i in range(1, DIAG_P + 1)] + [f"y{i}" for i in range(1, DIAG_DIM + 1)]
    _write_csv(inputs / "d_train.csv", header, [_fmt(a) + _fmt(b) for a, b in zip(dx, dy)])
    _covariate_file(inputs / "d_noisy.csv", dz)
    # The mean of the design keeps the centered query in the row space.
    query = ",".join(_fmt(dx.mean(axis=0)))

    def ops(pass_dir: Path):
        fp_w, fp_c, diag, verify = (pass_dir / d for d in ("fp_w", "fp_c", "diag", "verify"))
        return [
            Op("fit-predict-wasserstein",
               ("fit-predict", "--train", str(inputs / "w_train.csv"), "--queries", str(inputs / "w_queries.csv"),
                "--kind", "wasserstein", "--lambda", "auto", "--holdout", str(inputs / "w_holdout.csv"),
                "--out", str(fp_w)),
               fp_w, FP_QUERIES, {"rows": FP_QUERIES}),
            Op("fit-predict-correlation",
               ("fit-predict", "--train", str(inputs / "c_train.csv"), "--queries", str(inputs / "c_queries.csv"),
                "--kind", "correlation", "--lambda", repr(CORR_LAMBDA), "--out", str(fp_c)),
               fp_c, CORR_QUERIES, {"rows": CORR_QUERIES, "size": CORR_SIZE}),
            Op("diagnose",
               ("diagnose", "--train", str(inputs / "d_train.csv"), "--noisy", str(inputs / "d_noisy.csv"),
                "--kind", "euclidean", "--lambda", repr(DIAG_LAMBDA), "--x=" + query, "--out", str(diag)),
               diag, 0, {}),
            Op("verify-lemmas",
               ("verify-lemmas", "--seed", str(seed), "--instances", str(VERIFY_INSTANCES), "--out", str(verify)),
               verify, 0, {"instances": VERIFY_INSTANCES}),
        ]

    return ops


WORKLOADS = {
    "desk-wasserstein": Workload(
        "desk-wasserstein", None, "trial",
        _simulate_factory(DESK, {"desk": {"n": 100, "p": 150, "noise_kind": "gaussian"}}),
    ),
    "linear-norms": Workload("linear-norms", 1, "trial", _simulate_factory(LINEAR, LINEAR_CELLS)),
    "cli-files": Workload("cli-files", 1, "predicted query row", _prepare_cli_files),
}
