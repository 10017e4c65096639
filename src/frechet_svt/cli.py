"""Command line front end.

Subcommands: ``simulate`` runs a Monte Carlo campaign from a config
file, ``fit-predict`` fits on a dataset CSV and predicts at query
points, ``diagnose`` evaluates the error-bound quantities for a
clean/noisy covariate pair, and ``verify-lemmas`` stress-tests the
matrix identities on random instances.

Exit codes: 0 success, 2 config or schema error (also ``fit-predict``'s
``--holdout`` or ``--grid-points`` without ``--lambda auto``, or a
``FRECHET_SVT_THREADS`` that is not an integer of at least 1) or an
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
thread count. Each command imports only the modules it runs:
``simulation`` for ``simulate``, ``diagnostics`` for ``diagnose`` and
``verify-lemmas``, and ``verification`` for ``verify-lemmas``;
``fit-predict`` tunes its threshold with ``regression`` alone. A call
that writes no bytecode compiles every module it loads. An input rule
the library owns is checked by its owner before ``--out`` is made and
exits 2 as ``error: SOURCE: TEXT``, the file or flag at fault first.

``run`` is the process entry (``python -m frechet_svt`` and the
``frechet-svt`` script): it calls ``main``, freezes the heap and exits
with ``main``'s code. ``main(argv)`` is the in-process entry: it returns
the exit code and leaves the garbage collector alone.
"""

from __future__ import annotations

import argparse
import gc
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
from .linalg import settle_process
from .regression import GRID_POINTS, SOLVER_ERRORS, Dataset, check_queries, check_test_set, fit, lambda_grid
from .regression import tune_lambda

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

THREADS_ENV = "FRECHET_SVT_THREADS"


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
        if workers < 1:
            raise ConfigError(f"{THREADS_ENV} must be at least 1, got {raw!r}")
        return workers
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
    from .simulation import run_campaign

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


def _owned(source, check, *args):
    """``check(*args)``, the library check that owns an input rule; its ``ValueError`` exits 2 naming ``source``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from exc


def _read_design(path, kind: str, role: str) -> Dataset:
    """The ``Dataset`` of a file that must hold a design, so covariate columns too."""
    x, responses, space = read_dataset(path, kind)
    if x is None:
        raise SchemaError(f"{path}: {role} file has no covariate columns")
    return _owned(path, Dataset, x, responses, space)


def _cmd_fit_predict(args) -> int:
    lam = _parse_lambda(args.lam)
    if lam is None and not args.holdout:
        raise ConfigError("--lambda auto requires --holdout CSV")
    if lam is not None and args.holdout:
        raise ConfigError(f"--holdout goes only with --lambda auto, got --lambda {args.lam}")
    grid_points = ""  # as recorded in the manifest: only --lambda auto has a grid
    if lam is None:
        grid_points = GRID_POINTS if args.grid_points is None else args.grid_points
        if grid_points < 1:
            raise ConfigError(f"--grid-points must be at least 1, got {grid_points}")
    elif args.grid_points is not None:
        raise ConfigError(f"--grid-points goes only with --lambda auto, got --lambda {args.lam}")
    train = _read_design(args.train, args.kind, "training")
    queries = _owned(args.queries, check_queries, train.covariates.shape[1], read_covariates(args.queries))
    if lam is None:
        holdout = _read_design(args.holdout, args.kind, "holdout")
        _owned(args.holdout, check_test_set, train, holdout)
        grid = _owned(args.train, lambda_grid, train.stats.eigenvalues[0], train.stats.p, train.n, grid_points)
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
    write_predictions(out / "predictions.csv", train.space, preds, lambda_hat=lam_hat)
    print(f"wrote {out / 'predictions.csv'}" + (f" (lambda_hat={lam_hat!r})" if lam_hat is not None else ""))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    from .diagnostics import diagnose

    train = _read_design(args.train, args.kind, "training")
    z = read_covariates(args.noisy)
    _owned(args.noisy, train.with_covariates, z)
    try:
        query = np.array([float(v) for v in args.x.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--x must be comma-separated numbers, got {args.x!r}") from exc
    _owned("--x", check_queries, train.covariates.shape[1], query)
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
    values = diagnose(train, z, lam, query)
    write_diagnostics_csv(out / "diagnostics.csv", values)
    print(f"wrote {out / 'diagnostics.csv'}")
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    from .verification import run_suite

    if args.instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    out = _out_dir(args.out) if args.out else None
    results = run_suite(args.seed, args.instances, inject_fault=args.inject_fault)
    text = "".join(f"{r.line()}\n" for r in results)
    sys.stdout.write(text)
    if out is not None:
        (out / "verify_report.txt").write_text(text)
    failing = next((r for r in results if not r.passed), None)
    if failing is None:
        return EXIT_OK
    sys.stderr.write(f"verification failed: {failing.name} (instance seed {failing.failing_seed})\n")
    return EXIT_VERIFY


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
    fp.add_argument("--grid-points", type=int, help=f"grid size, only with --lambda auto (default {GRID_POINTS})")
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


def _solver_errors() -> tuple:
    """``SOLVER_ERRORS``, and ``TrialFailure`` once ``simulation`` is loaded: no other command can raise it."""
    simulation = sys.modules.get(f"{__package__}.simulation")
    return SOLVER_ERRORS if simulation is None else (simulation.TrialFailure, *SOLVER_ERRORS)


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
    except _solver_errors() as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's message names the allocation it could not make
        sys.stderr.write(f"solver error: {args.command} ran out of memory{detail}\n")
        return EXIT_SOLVER


def run() -> None:
    """``main``, then ``gc.freeze``, then ``sys.exit`` with ``main``'s code.

    Freezing moves every tracked object to the collector's permanent
    generation, so the interpreter's exit skips the cyclic collections that
    would free numpy's and this package's module graphs object by object,
    while the ``atexit`` handlers still run and stdio is still flushed. The
    ``finally`` also covers argparse's exits and a command that raises.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
