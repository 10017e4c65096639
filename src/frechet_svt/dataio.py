"""CSV schemas, the campaign config format, and run manifests.

Dataset files carry covariate columns ``x1..xp`` followed by response
columns named by kind: ``y1..yd`` for vectors, ``q1..qm`` for quantile
values (with a companion row of grid levels directly under the header),
or ``c11..crr`` for row-major flattened correlation matrices. Infinite
values serialize as the literal ``inf``. Lines starting with ``#`` are
comments and ignored on input.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

from .metric_spaces import InvalidPointError, MetricSpace, WassersteinSpace, space_from_kind
from .simulation import SimConfig

KINDS = ("euclidean", "l1", "linf", "wasserstein", "correlation")


class SchemaError(ValueError):
    """Malformed dataset CSV (bad header, bad value, bad point)."""


class ConfigError(ValueError):
    """Malformed campaign config file."""


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise SchemaError(f"row {row}: column {col}: cannot parse {text!r} as a number") from exc
    if not math.isfinite(value):
        raise SchemaError(f"row {row}: column {col}: non-finite value {text!r}")
    return value


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]


def _split_header(header: list[str]) -> tuple[list[str], list[str]]:
    names = [h.strip() for h in header]
    covs = [h for h in names if h.startswith("x")]
    if covs and covs != [f"x{i}" for i in range(1, len(covs) + 1)]:
        raise SchemaError(f"covariate columns must be named x1..xp in order, got {covs}")
    rest = names[len(covs):]
    if any(h.startswith("x") for h in rest):
        raise SchemaError("covariate columns must precede response columns")
    return covs, rest


def _response_kind(columns: list[str]) -> str:
    if not columns:
        raise SchemaError("no response columns found")
    first = columns[0]
    if first.startswith("y"):
        expected = [f"y{i}" for i in range(1, len(columns) + 1)]
        if columns != expected:
            raise SchemaError(f"vector response columns must be y1..yd, got {columns}")
        return "vector"
    if first.startswith("q"):
        expected = [f"q{i}" for i in range(1, len(columns) + 1)]
        if columns != expected:
            raise SchemaError(f"quantile response columns must be q1..qm, got {columns}")
        return "quantile"
    if first.startswith("c"):
        r = math.isqrt(len(columns))
        if r * r != len(columns):
            raise SchemaError(f"{len(columns)} correlation columns do not form a square matrix")
        expected = [f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)]
        if columns != expected:
            raise SchemaError(f"correlation columns must be c11..c{r}{r} row-major, got {columns}")
        return "correlation"
    raise SchemaError(f"unrecognized response column {first!r}")


def read_dataset(path, kind: str):
    """Read covariates plus responses; returns ``(X, responses, space)``.

    ``X`` is None when the file has no covariate columns (a pure
    response file, e.g. re-ingested predictions).
    """
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    rows = _read_rows(path)
    if not rows:
        raise SchemaError(f"{path}: empty file")
    covs, resp_cols = _split_header(rows[0])
    schema = _response_kind(resp_cols)
    wants = {"euclidean": "vector", "l1": "vector", "linf": "vector",
             "wasserstein": "quantile", "correlation": "correlation"}[kind]
    if schema != wants:
        raise SchemaError(f"kind {kind!r} expects {wants} responses but file has {schema} columns")

    p = len(covs)
    body = rows[1:]
    first_row = 2  # file row number of body[0], counting the header as row 1
    if kind == "wasserstein":
        if not body:
            raise SchemaError("missing companion grid row under the header")
        grid_row = body[0]
        if len(grid_row) != p + len(resp_cols):
            raise SchemaError("grid row has the wrong number of cells")
        if any(cell.strip() for cell in grid_row[:p]):
            raise SchemaError("grid row must leave covariate cells empty")
        grid = np.array([_parse_float(c, 2, resp_cols[j]) for j, c in enumerate(grid_row[p:])])
        try:
            space: MetricSpace = WassersteinSpace(grid)
        except ValueError as exc:
            raise SchemaError(f"row 2: bad grid levels: {exc}") from exc
        body = body[1:]
        first_row = 3
    elif kind == "correlation":
        r = math.isqrt(len(resp_cols))
        space = space_from_kind("correlation", size=r)
    else:
        space = space_from_kind(kind)

    if not body:
        raise SchemaError(f"{path}: no data rows")
    x_rows = []
    responses = []
    for offset, row in enumerate(body):
        rownum = first_row + offset
        if len(row) != p + len(resp_cols):
            raise SchemaError(f"row {rownum}: expected {p + len(resp_cols)} cells, got {len(row)}")
        x_rows.append([_parse_float(c, rownum, covs[j]) for j, c in enumerate(row[:p])])
        responses.append([_parse_float(c, rownum, resp_cols[j]) for j, c in enumerate(row[p:])])

    x = np.array(x_rows) if p else None
    stacked = np.array(responses)
    if kind == "correlation":
        stacked = stacked.reshape(len(body), r, r)
    try:
        stacked = space.check_points(stacked)
    except InvalidPointError as exc:
        where = "" if exc.index is None else f"row {first_row + exc.index}: "
        raise SchemaError(where + exc.reason) from exc
    return x, stacked, space


def read_covariates(path) -> np.ndarray:
    """Read only the x1..xp columns; extra columns are ignored."""
    rows = _read_rows(path)
    if not rows:
        raise SchemaError(f"{path}: empty file")
    covs, rest = _split_header(rows[0])
    if not covs:
        raise SchemaError(f"{path}: no covariate columns")
    body = rows[1:]
    first_row = 2  # file row number of body[0], counting the header as row 1
    # Skip a quantile companion grid row if present (empty covariate cells).
    if rest and body and not any(c.strip() for c in body[0][: len(covs)]):
        body = body[1:]
        first_row = 3
    if not body:
        raise SchemaError(f"{path}: no data rows")
    out = []
    for offset, row in enumerate(body):
        rownum = first_row + offset
        if len(row) < len(covs):
            raise SchemaError(f"row {rownum}: expected at least {len(covs)} cells, got {len(row)}")
        out.append([_parse_float(c, rownum, covs[j]) for j, c in enumerate(row[: len(covs)])])
    return np.array(out)


def write_predictions(path, kind: str, predictions, grid=None, lambda_hat=None) -> None:
    preds = np.asarray(predictions, dtype=float)
    with open(path, "w", newline="") as fh:
        if lambda_hat is not None:
            fh.write(f"# lambda_hat = {format_value(float(lambda_hat))}\n")
        writer = csv.writer(fh, lineterminator="\n")
        if kind == "wasserstein":
            m = preds.shape[1]
            writer.writerow([f"q{i}" for i in range(1, m + 1)])
            writer.writerow([format_value(v) for v in np.asarray(grid, dtype=float)])
            for row in preds:
                writer.writerow([format_value(v) for v in row])
        elif kind == "correlation":
            r = preds.shape[1]
            writer.writerow([f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)])
            for mat in preds:
                writer.writerow([format_value(v) for v in mat.ravel()])
        else:
            flat = preds if preds.ndim == 2 else preds[:, None]
            writer.writerow([f"y{i}" for i in range(1, flat.shape[1] + 1)])
            for row in flat:
                writer.writerow([format_value(v) for v in row])


def write_results_csv(path, cell_results) -> None:
    """Table-shaped summary: one row per cell and estimator."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["n", "p", "noise_kind", "estimator", "bias", "sqrt_var", "mse", "mspe", "lambda_hat", "cell"]
        )
        for cell in cell_results:
            cfg = cell.config
            for est in ("REF", "EIV", "SVT"):
                lam = cell.lambda_hat_median if est == "SVT" else 0.0
                writer.writerow(
                    [
                        cfg.n,
                        cfg.p,
                        cfg.noise_kind,
                        est,
                        format_value(math.sqrt(cell.report.bias_sq[est])),
                        format_value(math.sqrt(cell.report.var[est])),
                        format_value(cell.report.mse[est]),
                        format_value(cell.report.mspe[est]),
                        format_value(lam),
                        cfg.display_name(),
                    ]
                )


def write_profile_csv(path, cell_results) -> None:
    """Threshold profiles: normalized prediction error per estimator."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "p", "noise_kind", "estimator", "lambda", "nmspe", "cell"])
        for cell in cell_results:
            if cell.profile is None:
                continue
            cfg = cell.config
            name = cfg.display_name()
            writer.writerow([cfg.n, cfg.p, cfg.noise_kind, "REF", format_value(0.0), format_value(cell.profile.ref), name])
            writer.writerow([cfg.n, cfg.p, cfg.noise_kind, "EIV", format_value(0.0), format_value(cell.profile.eiv), name])
            for lam, val in zip(cell.profile.lambdas, cell.profile.svt):
                writer.writerow([cfg.n, cfg.p, cfg.noise_kind, "SVT", format_value(lam), format_value(val), name])


def write_diagnostics_csv(path, values: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(values.keys()))
        writer.writerow([format_value(v) for v in values.values()])


_CAMPAIGN_SECTION = "campaign"
_CELL_KEYS_REQUIRED = ("n", "p")

_FIELD_PARSERS = {
    "n": int,
    "p": int,
    "trials": int,
    "test_size": int,
    "eval_points": int,
    "quantile_points": int,
    "noise_kind": str,
    "sigma_eps": float,
    "sigma_eta": float,
    "ig_shape": float,
    "ig_scale": float,
    "alpha_intercept": float,
    "condition_number": float,
    "lambda_points": int,
    "master_seed": int,
    "laplace_variance_matched": lambda s: s.strip().lower() in ("1", "true", "yes"),
    "model": str,
    "linear_dim": int,
    "metric": str,
}


def load_sim_configs(path, seed_override=None, grid_points_override=None):
    """Parse a campaign file into one SimConfig per cell section.

    The ``[campaign]`` section holds shared keys; every other section is
    a cell and must define at least ``n`` and ``p``. Returns the configs
    and the resolved snapshot lines for the manifest.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    shared: dict = {}
    if parser.has_section(_CAMPAIGN_SECTION):
        shared = _parse_section(parser, _CAMPAIGN_SECTION)
    cells = [s for s in parser.sections() if s != _CAMPAIGN_SECTION]
    if not cells:
        raise ConfigError("config defines no cell sections")
    configs = []
    for section in cells:
        fields = dict(shared)
        fields.update(_parse_section(parser, section))
        fields["label"] = section.removeprefix("cell:").strip() or section
        for key in _CELL_KEYS_REQUIRED:
            if key not in fields:
                raise ConfigError(f"section [{section}]: missing required key {key!r}")
        if seed_override is not None:
            fields["master_seed"] = int(seed_override)
        if grid_points_override is not None:
            fields["lambda_points"] = int(grid_points_override)
        try:
            configs.append(SimConfig(**fields))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"section [{section}]: {exc}") from exc
    snapshot = []
    for i, cfg in enumerate(configs, start=1):
        for field in dataclasses.fields(cfg):
            snapshot.append(f"cell{i}.{field.name} = {format_value(getattr(cfg, field.name))}")
    return configs, snapshot


def _parse_section(parser, section) -> dict:
    out = {}
    for key, raw in parser.items(section):
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"section [{section}]: unknown key {key!r}")
        try:
            out[key] = _FIELD_PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"section [{section}]: key {key!r}: bad value {raw!r}") from exc
    return out


def write_manifest(out_dir, command: str, version: str, entries: dict, snapshot=()) -> Path:
    """Record the resolved run inputs before computation starts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.txt"
    with open(path, "w") as fh:
        fh.write(f"command = {command}\n")
        fh.write(f"version = {version}\n")
        for key, val in entries.items():
            fh.write(f"{key} = {format_value(val)}\n")
        for line in snapshot:
            fh.write(line + "\n")
    return path
