"""Command line front end.

Subcommands: ``simulate`` runs a Monte Carlo campaign from a config
file, ``fit-predict`` fits on a dataset CSV and predicts at query
points, ``diagnose`` evaluates the error-bound quantities for a
clean/noisy covariate pair, and ``verify-lemmas`` stress-tests the
matrix identities on random instances.

Exit codes: 0 success, 2 config or schema error (also ``fit-predict``'s
``--holdout`` or ``--grid-points`` without ``--lambda auto``) or an
output file that cannot be written (files written before it stay), 3
solver failure (also a worker process that died while a trial's outcome
was unread, a covariance that overflows, the ``FloatingPointError`` the
library raises on an overflow in a ``simulate`` trial or its cell
aggregation, the ``fit-predict`` tuning and prediction or ``diagnose``,
a ``simulate`` table value that is not finite, in which case neither
table is written, or a command that runs out of memory, named in the
message with the cell and trial where a ``simulate`` trial ran out), 4
verification failure. Worker count for simulations comes from the
FRECHET_SVT_THREADS environment variable (default: the cores this
process may run on); with more than one, a ``simulate`` campaign runs
all its trials on one pool of at most that many worker processes.
Every command, and every such worker under any start method, runs
numpy's BLAS on one thread and keeps OpenSSL out of its process
(``linalg.settle_process``); the manifest names the library and the
thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    KINDS,
    ConfigError,
    SchemaError,
    load_sim_configs,
    read_covariates,
    read_dataset,
    write_diagnostics_csv,
    write_manifest,
    write_predictions,
    write_tables,
)
from .diagnostics import diagnose
from .linalg import settle_process
from .metric_spaces import WassersteinSpace
from .regression import SOLVER_ERRORS, Dataset, fit
from .simulation import TrialFailure, lambda_grid, run_campaign, tune_lambda
from .verification import run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

THREADS_ENV = "FRECHET_SVT_THREADS"
AUTO_GRID_POINTS = 40  # fit-predict's threshold grid size for --lambda auto


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _out_dir(text: str) -> Path:
    """The ``--out`` directory, made if missing; a path that cannot be a directory is a config error."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {text!r} is not a usable directory: {exc}") from exc
    return out


def _cmd_simulate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.grid_points is not None and args.grid_points < 1:
        raise ConfigError(f"--grid-points must be at least 1, got {args.grid_points}")
    configs, snapshot = load_sim_configs(args.config, args.seed, args.grid_points)
    workers = _worker_count()
    out = _out_dir(args.out)
    write_manifest(
        out,
        "simulate",
        {
            "config": args.config,
            "seed": configs[0].master_seed,
            "out": str(out),
            "workers_env": os.environ.get(THREADS_ENV, ""),
            "workers": workers,
            **args.blas,
        },
        snapshot,
    )
    results = run_campaign(configs, workers=workers)
    write_tables(out, results)
    for cell in results:
        mspe = cell.report.mspe
        print(
            f"cell {cell.config.display_name()}: "
            f"MSPE REF={mspe['REF']:.4f} EIV={mspe['EIV']:.4f} SVT={mspe['SVT']:.4f} "
            f"(median lambda_hat={cell.lambda_hat_median:.4f})"
        )
    print(f"wrote {out / 'results.csv'} and {out / 'profile.csv'}")
    return EXIT_OK


def _check_lambda(value: float) -> float:
    if not value >= 0:  # also rejects NaN
        raise ConfigError(f"--lambda must be a nonnegative number, got {value!r}")
    return value


def _parse_lambda(text: str) -> float | None:
    """A nonnegative threshold, or None meaning tune on a holdout."""
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"--lambda must be a number or 'auto', got {text!r}") from exc
    return _check_lambda(value)


def _read_design(path, kind: str, role: str):
    """``read_dataset`` for a file that must hold a design: covariates and n >= 2 rows."""
    x, responses, space = read_dataset(path, kind)
    if x is None:
        raise SchemaError(f"{path}: {role} file has no covariate columns")
    if x.shape[0] < 2:
        raise SchemaError(f"{path}: {role} file needs at least two data rows, got {x.shape[0]}")
    return x, responses, space


def _cmd_fit_predict(args) -> int:
    lam = _parse_lambda(args.lam)
    if lam is None and not args.holdout:
        raise ConfigError("--lambda auto requires --holdout CSV")
    if lam is not None and args.holdout:
        raise ConfigError(f"--holdout goes only with --lambda auto, got --lambda {args.lam}")
    grid_points = ""  # as recorded in the manifest: only --lambda auto has a grid
    if lam is None:
        grid_points = AUTO_GRID_POINTS if args.grid_points is None else args.grid_points
        if grid_points < 1:
            raise ConfigError(f"--grid-points must be at least 1, got {grid_points}")
    elif args.grid_points is not None:
        raise ConfigError(f"--grid-points goes only with --lambda auto, got --lambda {args.lam}")
    x, responses, space = _read_design(args.train, args.kind, "training")
    train = Dataset(x, responses, space)
    queries = read_covariates(args.queries)
    if queries.shape[1] != x.shape[1]:
        raise SchemaError(
            f"queries have {queries.shape[1]} covariates but training data has {x.shape[1]}"
        )
    if lam is None:
        hx, hy, hspace = _read_design(args.holdout, args.kind, "holdout")
        if hx.shape[1] != x.shape[1]:
            raise SchemaError(
                f"holdout has {hx.shape[1]} covariates but training data has {x.shape[1]}"
            )
        if isinstance(space, WassersteinSpace) and not np.array_equal(hspace.grid, space.grid):
            raise SchemaError(f"{args.holdout}: holdout grid levels differ from the training grid")
        if hy.shape[1:] != responses.shape[1:]:
            raise SchemaError(
                f"{args.holdout}: holdout responses have shape {hy.shape[1:]}, training {responses.shape[1:]}"
            )
        holdout = Dataset(hx, hy, space)
        top = train.stats.eigenvalues[0]
        if top <= 0.0:
            raise SchemaError(f"{args.train}: training covariates are constant, so --lambda auto has no threshold grid")
        grid = lambda_grid(top, x.shape[1], x.shape[0], grid_points)
    out = _out_dir(args.out)
    write_manifest(
        out,
        "fit-predict",
        {
            "train": args.train,
            "queries": args.queries,
            "kind": args.kind,
            "lambda": args.lam,
            "holdout": args.holdout or "",
            "grid_points": grid_points,
            "out": str(out),
            **args.blas,
        },
    )
    lam_hat = None
    if lam is None:
        lam_hat = lam = tune_lambda(train, holdout, grid)
    preds = fit(train, lam).predict_many(queries)
    write_predictions(out / "predictions.csv", space, preds, lambda_hat=lam_hat)
    print(f"wrote {out / 'predictions.csv'}" + (f" (lambda_hat={lam_hat!r})" if lam_hat is not None else ""))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    x, responses, space = _read_design(args.train, args.kind, "training")
    z = read_covariates(args.noisy)
    if z.shape != x.shape:
        raise SchemaError(f"noisy covariates {z.shape} do not match training {x.shape}")
    try:
        query = np.array([float(v) for v in args.x.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--x must be comma-separated numbers, got {args.x!r}") from exc
    if query.size != x.shape[1]:
        raise ConfigError(f"--x has {query.size} entries but data has {x.shape[1]} covariates")
    if not np.all(np.isfinite(query)):
        raise ConfigError(f"--x must be finite, got {args.x!r}")
    lam = _check_lambda(args.lam)

    out = _out_dir(args.out)
    write_manifest(
        out,
        "diagnose",
        {
            "train": args.train,
            "noisy": args.noisy,
            "kind": args.kind,
            "lambda": lam,
            "x": args.x,
            "out": str(out),
            **args.blas,
        },
    )
    train, noisy = Dataset(x, responses, space), Dataset(z, responses, space)
    values = diagnose(train, noisy, lam, query)
    write_diagnostics_csv(out / "diagnostics.csv", values)
    print(f"wrote {out / 'diagnostics.csv'}")
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    out = _out_dir(args.out) if args.out else None
    results = run_suite(args.seed, args.instances, inject_fault=args.inject_fault)
    lines = [r.line() for r in results]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        (out / "verify_report.txt").write_text(text)
    if any(not r.passed for r in results):
        failing = [r for r in results if not r.passed]
        sys.stderr.write(
            f"verification failed: {failing[0].name} (instance seed {failing[0].failing_seed})\n"
        )
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frechet-svt",
        description="Spectrally thresholded global Frechet regression toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo campaign from a config file")
    sim.add_argument("--config", required=True, help="campaign config file")
    sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--grid-points", type=int, default=None, help="override threshold grid size")
    sim.set_defaults(func=_cmd_simulate)

    fp = sub.add_parser("fit-predict", help="fit on a training CSV and predict at query points")
    fp.add_argument("--train", required=True, help="training CSV (covariates + responses)")
    fp.add_argument("--queries", required=True, help="query covariates CSV")
    fp.add_argument("--kind", required=True, choices=KINDS)
    fp.add_argument("--lambda", dest="lam", default="0", help="threshold value or 'auto'")
    fp.add_argument("--holdout", default=None, help="holdout CSV, only with --lambda auto")
    fp.add_argument("--grid-points", type=int, help=f"grid size, only with --lambda auto (default {AUTO_GRID_POINTS})")
    fp.add_argument("--out", required=True, help="output directory")
    fp.set_defaults(func=_cmd_fit_predict)

    diag = sub.add_parser("diagnose", help="evaluate error-bound quantities for a noisy design")
    diag.add_argument("--train", required=True, help="training CSV (covariates + responses)")
    diag.add_argument("--noisy", required=True, help="CSV with the noisy covariates")
    diag.add_argument("--kind", required=True, choices=KINDS)
    diag.add_argument("--lambda", dest="lam", type=float, required=True, help="threshold")
    diag.add_argument("--x", required=True, help="query point, comma-separated")
    diag.add_argument("--out", required=True, help="output directory")
    diag.set_defaults(func=_cmd_diagnose)

    ver = sub.add_parser("verify-lemmas", help="verify matrix identities on random instances")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--instances", type=int, default=100)
    ver.add_argument("--inject-fault", action="store_true", help="negative control: corrupt one identity")
    ver.add_argument("--out", default=None, help="optional directory for the report file")
    ver.set_defaults(func=_cmd_verify_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # After parsing, since --version and --help compute nothing.
    args.blas = settle_process()
    try:
        return args.func(args)
    # OSError: an output file that cannot be written; its message names the path.
    except (ConfigError, SchemaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (TrialFailure, *SOLVER_ERRORS) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's message names the allocation it could not make
        sys.stderr.write(f"solver error: {args.command} ran out of memory{detail}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
