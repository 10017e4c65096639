"""CSV schemas, the campaign config format, and run manifests.

Dataset files carry covariate columns ``x1..xp`` followed by response
columns named by kind: ``y1..yd`` for vectors, ``q1..qm`` for quantile
values (with a companion row of grid levels directly under the header),
or ``c11..crr`` for row-major flattened correlation matrices. Infinite
values serialize as the literal ``inf``. Lines starting with ``#`` are
comments and ignored on input.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import platform
from pathlib import Path

import numpy as np

from . import __version__
from .metric_spaces import InvalidPointError, MetricSpace, WassersteinSpace, space_from_kind

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


def _parse_block(lines, body, names) -> np.ndarray:
    """The columns under ``names`` (the leading ones) of a table body as one float array.

    ``body`` is the C reader's array, passed through, or ``_csv_body``'s
    rows of cells, parsed by ``_parse_row``, whose error names the row
    (its number in ``lines``) and the column. The cells are parsed here,
    not in ``_read_table``, so ``read_dataset`` checks the kind and the
    grid levels first.
    """
    if isinstance(body, np.ndarray):
        return np.ascontiguousarray(body[:, : len(names)])
    return np.array([_parse_row(line, cells, names) for line, cells in zip(lines, body)])


def _response_names(prefix: str, width: int) -> list[str]:
    """Column names of a ``width``-wide block: ``x1..``, ``y1..``, ``q1..`` or row-major ``c11..``."""
    if prefix == "c":
        r = math.isqrt(width)
        return [f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)]
    return [f"{prefix}{i}" for i in range(1, width + 1)]


def _records(fh):
    """A ``csv.reader`` over an open dataset file that reads comment lines as blank lines."""
    # Blank out comments before csv sees them: a quote in a comment would open a
    # quoted field that swallows the lines after it. A blank line keeps the count.
    return csv.reader("\n" if text.lstrip().startswith("#") else text for text in fh)


def _columns(header):
    """The covariate and the response column names of a header row, checked."""
    names = [h.strip() for h in header]
    p = sum(h.startswith("x") for h in names)
    covs, resp = names[:p], names[p:]
    if covs != _response_names("x", p):
        raise SchemaError(f"covariate columns must be x1..xp, ahead of the responses, got {names}")
    if resp and (resp[0][:1] not in _PREFIX.values() or resp != _response_names(resp[0][0], len(resp))):
        raise SchemaError(f"response columns must be y1..yd, q1..qm or c11..crr row-major, got {resp}")
    return covs, resp


def _check_width(line: int, cells, width: int) -> None:
    if len(cells) != width:
        raise SchemaError(f"row {line}: expected {width} cells, got {len(cells)}")


# Lines that csv reads as no row at all.
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))


def _data_lines(fh, start: int, numbers: list):
    """The rest of ``fh``'s lines that csv reads as rows, numbered into ``numbers`` as they go.

    Lines are counted from ``start`` + 1. A line with a comma-separated
    field longer than csv's field size limit is a ValueError, as csv could
    not read it; the last field counts the line end, which errs towards csv.
    """
    limit = csv.field_size_limit()
    for n, text in enumerate(fh, start + 1):
        if len(text) > limit and max(map(len, text.split(","))) > limit:
            raise ValueError(f"line {n} holds a field longer than csv's field size limit")
        if text not in _BLANK_LINES:
            numbers.append(n)
            yield text


def _csv_body(path, start: int, width: int):
    """``(lines, rows)`` of the data rows after line ``start``, read by ``csv`` alone: line numbers and cells.

    ``_read_table``'s fallback when the C reader refuses the body; each
    row's width is checked as it is read.
    """
    lines, rows = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _records(itertools.islice(fh, start, None))
        for cells in filter(None, reader):
            lines.append(start + reader.line_num)
            _check_width(lines[-1], cells, width)
            rows.append(cells)
    if not rows:
        raise SchemaError("no data rows")
    return lines, rows


def _read_table(path):
    """``(covariates, responses, grid, lines, body)`` of a dataset CSV; its first fault in file order raises.

    ``csv`` reads the header, giving the checked column names, and for
    ``q`` columns the companion grid row, a ``(line, cells)`` pair (else
    None), once. One ``np.loadtxt`` call takes the body line by line, so no
    copy of the text is kept, and ``body`` is its array of every column.
    Both parse numbers with CPython's ``PyOS_string_to_double``, and the C
    reader rejects what only ``float`` or csv accept (underscores,
    non-ASCII digits, comments, quotes), so the array is csv's to the bit.
    When the C reader refuses the body, or reads a width, a row count or a
    value csv would not, ``_csv_body`` reads the body again and ``body`` is
    its rows of cells. ``lines`` are the data rows' line numbers in the file.
    """
    lines = []
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports put first.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = _records(fh)
            records = filter(None, reader)
            header = next(records, None)
            if header is None:
                raise SchemaError("empty file")
            covs, resp = _columns(header)
            width = len(covs) + len(resp)
            grid = None
            if resp and resp[0][0] == "q":
                cells = next(records, None)
                if cells is None:
                    raise SchemaError("missing companion grid row under the header")
                grid = (reader.line_num, cells)
                _check_width(*grid, width)
                if any(c.strip() for c in cells[: len(covs)]):
                    raise SchemaError(f"row {grid[0]}: grid row must leave covariate cells empty")
            start = reader.line_num
            body = _data_lines(fh, start, lines)
            try:
                # Take the first data line here: on an empty body loadtxt warns "input contained no data".
                body = itertools.chain([next(body)], body)
                table = np.loadtxt(body, delimiter=",", comments=None, quotechar=None, ndmin=2)
            except (ValueError, StopIteration):  # an undecodable byte is a ValueError too
                table = None
        if table is None or table.shape != (len(lines), width) or not np.isfinite(table).all():
            lines, table = _csv_body(path, start, width)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"cannot read: {exc}") from exc
    return covs, resp, grid, lines, table


def read_dataset(path, kind: str):
    """Read covariates plus responses; returns ``(X, responses, space)``.

    ``X`` is None when the file has no covariate columns (a pure
    response file, e.g. re-ingested predictions).
    """
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    try:  # every fault in the file is reported after its path, once
        covs, resp, grid, lines, body = _read_table(path)
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

        table = _parse_block(lines, body, covs + resp)
        x = np.ascontiguousarray(table[:, :p]) if p else None
        responses = np.ascontiguousarray(table[:, p:])
        if kind == "correlation":
            responses = responses.reshape(len(lines), space.size, space.size)
        try:
            responses = space.check_points(responses)
        except InvalidPointError as exc:
            where = "" if exc.index is None else f"row {lines[exc.index]}: "
            raise SchemaError(where + exc.reason) from exc
        return x, responses, space
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def read_covariates(path) -> np.ndarray:
    """Read only the x1..xp columns; response columns are checked, but their cells need not be numbers."""
    try:
        covs, _, _, lines, body = _read_table(path)
        if not covs:
            raise SchemaError("no covariate columns")
        return _parse_block(lines, body, covs)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


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


def write_predictions(path, space: MetricSpace, predictions, lambda_hat=None) -> None:
    """Predictions as ``space``'s response columns (a Wasserstein grid row included), as ``read_dataset`` reads them."""
    # Each float goes out as its repr, the text csv writes for it (and never quotes) and
    # format_value gives. Rows are rendered one at a time, so no copy of the block is held as text.
    preds = np.asarray(predictions, dtype=float)
    block = preds.reshape(len(preds), -1)
    prefix = _PREFIX[space.kind]
    grid_row = [space.grid.tolist()] if prefix == "q" else []
    comment = None if lambda_hat is None else f"lambda_hat = {format_value(float(lambda_hat))}"
    values = itertools.chain(grid_row, map(np.ndarray.tolist, block))
    rows = (",".join(map(repr, row)) + "\n" for row in values)
    _write_csv(path, _response_names(prefix, block.shape[1]), rows, comment)


def write_tables(out_dir, cell_results) -> None:
    """Write ``results.csv`` (one row per cell and estimator) and ``profile.csv`` (the threshold profiles).

    Every value of both tables is checked first: the first one that is not
    finite raises ``FloatingPointError`` naming the table, the cell, the
    estimator and the column, and neither table is written.
    """
    from .simulation import ESTIMATORS  # imported here, so only simulate loads that module

    results, profile = [], []  # rows as (config, estimator, values)
    for cell in cell_results:
        cfg, rep, prof = cell.config, cell.report, cell.profile
        for est in ESTIMATORS:
            lam = cell.lambda_hat_median if est == "SVT" else 0.0
            values = (math.sqrt(rep.bias_sq[est]), math.sqrt(rep.var[est]), rep.mse[est], rep.mspe[est], lam)
            results.append((cfg, est, values))
        svt = [("SVT", lam, val) for lam, val in zip(prof.lambdas, prof.svt)]
        for est, lam, val in [("REF", 0.0, prof.ref), ("EIV", 0.0, prof.eiv), *svt]:
            profile.append((cfg, est, (lam, val)))
    tables = {
        "results.csv": (("bias", "sqrt_var", "mse", "mspe", "lambda_hat"), results),
        "profile.csv": (("lambda", "nmspe"), profile),
    }
    bodies = {}
    for table, (columns, rows) in tables.items():
        body = bodies[table] = [["n", "p", "noise_kind", "estimator", *columns, "cell"]]
        for cfg, est, values in rows:
            for column, v in zip(columns, values):
                if not math.isfinite(v):
                    name = cfg.display_name()
                    raise FloatingPointError(f"{table}: cell {name}, estimator {est}, column {column} is {v!r}")
            body.append([cfg.n, cfg.p, cfg.noise_kind, est, *map(format_value, values), cfg.display_name()])
    for table, (header, *body) in bodies.items():
        _write_csv(Path(out_dir) / table, header, body)


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


def load_sim_configs(path, seed_override=None, grid_points_override=None):
    """Parse a campaign file into one SimConfig per cell section.

    The ``[campaign]`` section holds shared keys; every other section is
    a cell and must define at least ``n`` and ``p``. Returns the configs
    and the resolved snapshot lines for the manifest.
    """
    # Imported here: only simulate reads a campaign file, so no other command loads these.
    import configparser

    from .simulation import SimConfig

    # Every SimConfig field but the label, which comes from the section name.
    field_parsers = {f.name: _PARSE_BY_TYPE[f.type] for f in dataclasses.fields(SimConfig) if f.name != "label"}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {s: parser.items(s) for s in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # Some configparser messages run over several lines; the error line is one.
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"{path}: {message}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    shared = _parse_section(_CAMPAIGN_SECTION, sections.pop(_CAMPAIGN_SECTION, []), field_parsers)
    if not sections:
        raise ConfigError("config defines no cell sections")
    configs, named = [], {}
    for section, items in sections.items():
        fields = dict(shared)
        fields.update(_parse_section(section, items, field_parsers))
        label = fields["label"] = section.removeprefix("cell:").strip() or section
        if label in named:
            raise ConfigError(f"sections [{named[label]}] and [{section}] both name cell {label!r}")
        named[label] = section
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


def _parse_section(section, items, field_parsers) -> dict:
    out = {}
    for key, raw in items:
        if key not in field_parsers:
            raise ConfigError(f"section [{section}]: unknown key {key!r}")
        try:
            out[key] = field_parsers[key](raw)
        except ValueError as exc:
            raise ConfigError(f"section [{section}]: key {key!r}: bad value {raw!r}") from exc
    return out


def write_manifest(out_dir, command: str, entries: dict, snapshot=()) -> Path:
    """Record the package, numpy and Python versions and the resolved run inputs in ``out_dir`` before computing."""
    path = Path(out_dir) / "manifest.txt"
    with open(path, "w") as fh:
        fh.write(f"command = {command}\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"numpy = {np.__version__}\n")
        fh.write(f"python = {platform.python_version()}\n")
        for key, val in entries.items():
            fh.write(f"{key} = {format_value(val)}\n")
        for line in snapshot:
            fh.write(line + "\n")
    return path
