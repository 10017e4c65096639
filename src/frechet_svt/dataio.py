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
import itertools
import math
from pathlib import Path

import numpy as np

from .metric_spaces import InvalidPointError, MetricSpace, WassersteinSpace, space_from_kind
from .simulation import ESTIMATORS, SimConfig

# Response column prefix per kind: the one place the kind decides the layout.
_PREFIX = {"euclidean": "y", "l1": "y", "linf": "y", "wasserstein": "q", "correlation": "c"}
KINDS = tuple(_PREFIX)


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


def _parse_row(line: int, cells, names) -> list[float]:
    """The cells under ``names`` (the leading ones) as floats."""
    return [_parse_float(c, line, name) for c, name in zip(cells, names)]


def _parse_block(rows, names) -> np.ndarray:
    """The cells under ``names`` (the leading ones) of every row as one float array.

    One pass converts each row with ``float``; only a bad value sends the
    block through ``_parse_row``, whose error names its row and column.
    Both use ``float``, so they accept the same text and give the same bits.
    """
    k = len(names)
    try:
        block = np.array([list(map(float, cells[:k])) for _, cells in rows])
        if np.isfinite(block).all():
            return block
    except ValueError:
        pass
    return np.array([_parse_row(line, cells, names) for line, cells in rows])


def _response_names(prefix: str, width: int) -> list[str]:
    """Column names of a ``width``-wide block: ``x1..``, ``y1..``, ``q1..`` or row-major ``c11..``."""
    if prefix == "c":
        r = math.isqrt(width)
        return [f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)]
    return [f"{prefix}{i}" for i in range(1, width + 1)]


def _read_table(path):
    """Split a dataset CSV into ``(covariates, responses, grid, rows)``.

    ``covariates`` and ``responses`` are the checked column names,
    ``grid`` is the companion grid row when the responses are ``q``
    columns (None otherwise) and ``rows`` the data rows. Each row is a
    ``(line, cells)`` pair, ``line`` being its line number in the file,
    comments and blank lines included.
    """
    lines, records = [], []
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports put first.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # Blank out comments before csv sees them: a quote in a comment would open a
            # quoted field that swallows the lines after it. A blank line keeps the count.
            reader = csv.reader("\n" if text.lstrip().startswith("#") else text for text in fh)
            for row in reader:
                if row:
                    lines.append(reader.line_num)
                    records.append(row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: cannot read: {exc}") from exc
    if not records:
        raise SchemaError(f"{path}: empty file")
    # Pair line numbers with rows only after the read: (line, row) tuples made during
    # it kept ~14 MB of a 2000x121 file resident after the read returned.
    (_, header), *rows = zip(lines, records)
    names = [h.strip() for h in header]
    p = sum(h.startswith("x") for h in names)
    covs, resp = names[:p], names[p:]
    if covs != _response_names("x", p):
        raise SchemaError(f"covariate columns must be x1..xp, ahead of the responses, got {names}")
    if resp and (resp[0][:1] not in _PREFIX.values() or resp != _response_names(resp[0][0], len(resp))):
        raise SchemaError(f"response columns must be y1..yd, q1..qm or c11..crr row-major, got {resp}")
    for line, cells in rows:
        if len(cells) != len(names):
            raise SchemaError(f"row {line}: expected {len(names)} cells, got {len(cells)}")
    grid = None
    if resp and resp[0][0] == "q":
        if not rows:
            raise SchemaError(f"{path}: missing companion grid row under the header")
        grid, *rows = rows
        if any(c.strip() for c in grid[1][:p]):
            raise SchemaError(f"row {grid[0]}: grid row must leave covariate cells empty")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return covs, resp, grid, rows


def read_dataset(path, kind: str):
    """Read covariates plus responses; returns ``(X, responses, space)``.

    ``X`` is None when the file has no covariate columns (a pure
    response file, e.g. re-ingested predictions).
    """
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    covs, resp, grid, rows = _read_table(path)
    if not resp or resp[0][0] != _PREFIX[kind]:
        raise SchemaError(f"kind {kind!r} expects {_PREFIX[kind]} response columns, got {resp}")
    p = len(covs)
    if grid is None:
        space: MetricSpace = space_from_kind(kind, size=math.isqrt(len(resp)))
    else:
        line, cells = grid
        levels = np.array(_parse_row(line, cells[p:], resp))
        try:
            space = WassersteinSpace(levels)
        except ValueError as exc:
            raise SchemaError(f"row {line}: bad grid levels: {exc}") from exc

    table = _parse_block(rows, covs + resp)
    x = np.ascontiguousarray(table[:, :p]) if p else None
    responses = np.ascontiguousarray(table[:, p:])
    if kind == "correlation":
        responses = responses.reshape(len(rows), space.size, space.size)
    try:
        responses = space.check_points(responses)
    except InvalidPointError as exc:
        where = "" if exc.index is None else f"row {rows[exc.index][0]}: "
        raise SchemaError(where + exc.reason) from exc
    return x, responses, space


def read_covariates(path) -> np.ndarray:
    """Read only the x1..xp columns; response columns are checked, not parsed."""
    covs, _, _, rows = _read_table(path)
    if not covs:
        raise SchemaError(f"{path}: no covariate columns")
    return _parse_block(rows, covs)


def _write_csv(path, header, rows, comment=None) -> None:
    """One header row, then ``rows``; an optional ``# comment`` line goes first.

    A row is a list of cells, which ``csv`` quotes as needed, or a line
    already rendered in full, which is written as is.
    """
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow(row)


def write_predictions(path, kind: str, predictions, grid=None, lambda_hat=None) -> None:
    # Each float goes out as its repr, the text csv writes for it (and never quotes) and
    # format_value gives. Rows are rendered one at a time, so no copy of the block is held as text.
    preds = np.asarray(predictions, dtype=float)
    block = preds.reshape(len(preds), -1)
    grid_row = [np.asarray(grid, dtype=float).tolist()] if _PREFIX[kind] == "q" else []
    comment = None if lambda_hat is None else f"lambda_hat = {format_value(float(lambda_hat))}"
    values = itertools.chain(grid_row, map(np.ndarray.tolist, block))
    rows = (",".join(map(repr, row)) + "\n" for row in values)
    _write_csv(path, _response_names(_PREFIX[kind], block.shape[1]), rows, comment)


def _tables(cell_results) -> dict:
    """Each simulate table's value columns and rows, a row being ``(config, estimator, values)``."""
    results, profile = [], []
    for cell in cell_results:
        cfg, rep, prof = cell.config, cell.report, cell.profile
        for est in ESTIMATORS:
            lam = cell.lambda_hat_median if est == "SVT" else 0.0
            values = (math.sqrt(rep.bias_sq[est]), math.sqrt(rep.var[est]), rep.mse[est], rep.mspe[est], lam)
            results.append((cfg, est, values))
        svt = [("SVT", lam, val) for lam, val in zip(prof.lambdas, prof.svt)]
        for est, lam, val in [("REF", 0.0, prof.ref), ("EIV", 0.0, prof.eiv), *svt]:
            profile.append((cfg, est, (lam, val)))
    return {
        "results.csv": (("bias", "sqrt_var", "mse", "mspe", "lambda_hat"), results),
        "profile.csv": (("lambda", "nmspe"), profile),
    }


def check_tables(cell_results) -> None:
    """Raise ``FloatingPointError`` at the first value of either table that is not finite.

    The message names the table, the cell, the estimator and the column.
    """
    for table, (columns, rows) in _tables(cell_results).items():
        for cfg, est, values in rows:
            for column, v in zip(columns, values):
                if not math.isfinite(v):
                    name = cfg.display_name()
                    raise FloatingPointError(f"{table}: cell {name}, estimator {est}, column {column} is {v!r}")


def _write_table(path, columns, rows) -> None:
    body = [
        [cfg.n, cfg.p, cfg.noise_kind, est, *map(format_value, values), cfg.display_name()]
        for cfg, est, values in rows
    ]
    _write_csv(path, ["n", "p", "noise_kind", "estimator", *columns, "cell"], body)


def write_results_csv(path, cell_results) -> None:
    """Table-shaped summary: one row per cell and estimator."""
    _write_table(path, *_tables(cell_results)["results.csv"])


def write_profile_csv(path, cell_results) -> None:
    """Threshold profiles: normalized prediction error per estimator."""
    _write_table(path, *_tables(cell_results)["profile.csv"])


def write_diagnostics_csv(path, values: dict) -> None:
    _write_csv(path, list(values), [[format_value(v) for v in values.values()]])


_CAMPAIGN_SECTION = "campaign"
_CELL_KEYS_REQUIRED = ("n", "p")

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"not a boolean: {text!r}")
    return _BOOL_WORDS[word]


_PARSE_BY_TYPE = {"int": int, "float": float, "str": str, "bool": _parse_bool}
# Every SimConfig field but the label, which comes from the section name.
_FIELD_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in dataclasses.fields(SimConfig) if f.name != "label"}


def load_sim_configs(path, seed_override=None, grid_points_override=None):
    """Parse a campaign file into one SimConfig per cell section.

    The ``[campaign]`` section holds shared keys; every other section is
    a cell and must define at least ``n`` and ``p``. Returns the configs
    and the resolved snapshot lines for the manifest.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {s: parser.items(s) for s in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    shared = _parse_section(_CAMPAIGN_SECTION, sections.pop(_CAMPAIGN_SECTION, []))
    if not sections:
        raise ConfigError("config defines no cell sections")
    configs = []
    for section, items in sections.items():
        fields = dict(shared)
        fields.update(_parse_section(section, items))
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


def _parse_section(section, items) -> dict:
    out = {}
    for key, raw in items:
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"section [{section}]: unknown key {key!r}")
        try:
            out[key] = _FIELD_PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"section [{section}]: key {key!r}: bad value {raw!r}") from exc
    return out


def write_manifest(out_dir, command: str, version: str, entries: dict, snapshot=()) -> Path:
    """Record the resolved run inputs in the existing ``out_dir`` before computation starts."""
    path = Path(out_dir) / "manifest.txt"
    with open(path, "w") as fh:
        fh.write(f"command = {command}\n")
        fh.write(f"version = {version}\n")
        for key, val in entries.items():
            fh.write(f"{key} = {format_value(val)}\n")
        for line in snapshot:
            fh.write(line + "\n")
    return path
