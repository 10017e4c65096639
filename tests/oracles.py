"""Independent oracles the tests compare against.

Nothing here calls into the package's solvers: monotone projections are
solved by enumerating block partitions or by refining grid search, and
regressions by normal equations or numpy's lstsq. The l1/sup-norm
subgradient loop is kept frozen in its original form, which evaluates
norms and subgradients afresh at every step, so the package's solver can
be held to it bit for bit, and ``norm_objective`` scores a candidate
mean with the same norms. The spectral references (``sigma_lambda``,
``mahalanobis_seminorm``, ``bias_term_reference``) are the package's
former matrix-argument routes for the bound quantities: a fresh SVD of
a design or ``eigh`` of an explicit covariance, each cut at 1e-12 times
the top of the spectrum it reads. ``write_predictions_reference`` is
the original per-cell CSV writer, kept to hold the package's writer to
the same bytes. ``nearest_correlation_reference`` is the original
one-matrix Dykstra loop, kept to hold the stacked projection to the
same bits. ``blend_path_reference`` is the original one-ask rank path,
which forms the cross product and the query scores afresh for every ask
and divides each new slice of scores by its eigenvalues; it is the
package's own ``project_blends`` applied to blends made the old way.
``aggregate`` is the original stored-prediction route to a
cell's bias and variance. It is the one oracle here that calls the
package's solvers: one one-point ``frechet_mean_blocks`` call per
evaluation point (``one_point_centers``), as the package made them
before its trial fold, so the fold and the stacked l1/sup-norm solve
can be held to it. ``read_dataset_reference`` and
``read_covariates_reference`` are the original dataset reader, which
parsed every cell with ``float`` after ``csv`` split the file, kept
with its helpers to hold the package's reader to the same bits and the
same ``SchemaError`` text.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from frechet_svt.dataio import _PREFIX, KINDS, SchemaError
from frechet_svt.metric_spaces import (
    ConvergenceError,
    InvalidPointError,
    MetricSpace,
    WassersteinSpace,
    space_from_kind,
)
from frechet_svt.simulation import ESTIMATORS, AggregateReport


def monotone_lsq_partition_oracle(values, weights):
    """Exact weighted least-squares monotone fit by partition enumeration.

    Every candidate is piecewise constant on consecutive blocks with
    block values equal to weighted block means; all 2^(m-1) partitions
    are tried and the feasible one with the smallest objective returned.
    The true minimizer has this structure, so the search is exhaustive.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = v.size
    best = None
    best_obj = np.inf
    for cuts in itertools.product([0, 1], repeat=m - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [m]
        candidate = np.empty(m)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            candidate[lo:hi] = np.sum(w[lo:hi] * v[lo:hi]) / np.sum(w[lo:hi])
        if np.any(np.diff(candidate) < 0):
            continue
        obj = float(np.sum(w * (candidate - v) ** 2))
        if obj < best_obj:
            best_obj = obj
            best = candidate
    return best


def monotone_grid_search(objective, m, lo, hi, rounds=16, points=7):
    """Global minimizer over nondecreasing vectors by refined grid search.

    ``objective`` must accept a (k, m) array of candidate rows and return
    k values. Each round enumerates a per-coordinate grid around the
    incumbent, keeps the monotone candidates, and shrinks the boxes.
    """
    center = np.linspace(lo, hi, m)
    half = (hi - lo) / 2 + 1e-9
    for _ in range(rounds):
        axes = [np.linspace(c - half, c + half, points) for c in center]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        mono = mesh[np.all(np.diff(mesh, axis=1) >= 0.0, axis=1)]
        vals = objective(mono)
        center = mono[int(np.argmin(vals))]
        half *= 1.0 / 3.0
    return center


def ols_with_intercept(x, y):
    """Least squares fit of y on [1, x]; returns (intercept, slopes)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(x.shape[0]), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[0], coef[1:]


def pcr_fit_oracle(x, y, k):
    """Regression on the top-k principal scores of the covariates.

    Returns (ybar, beta in the original coordinates).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    mean = x.mean(axis=0)
    xc = x - mean
    evals, evecs = np.linalg.eigh(xc.T @ xc / n)
    order = np.argsort(evals)[::-1]
    v = evecs[:, order[:k]]
    scores = xc @ v
    gamma, *_ = np.linalg.lstsq(scores, y - y.mean(axis=0), rcond=None)
    return y.mean(axis=0), v @ gamma


def brute_covariance(x):
    """Explicit double-loop sample covariance with 1/n normalization."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    mu = x.mean(axis=0)
    out = np.zeros((p, p))
    for i in range(n):
        d = x[i] - mu
        out += np.outer(d, d)
    return out / n


def sigma_lambda(m, lam, zero_tolerance=1e-12):
    """Smallest singular value strictly above ``lam``; ``inf`` when none exists.

    Numerical zeros (below the relative cutoff) never qualify, so at
    ``lam = 0`` this is the smallest nonzero singular value.
    """
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return np.inf
    s = s[s > zero_tolerance * s[0]]
    above = s[s > lam]
    return float(above.min()) if above.size else np.inf


def _symmetric(s):
    a = np.asarray(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    return 0.5 * (a + a.T)


def mahalanobis_seminorm(x, s, zero_tolerance=1e-12):
    """Seminorm ``(x^T S^+ x)^(1/2)`` for positive semidefinite ``S``.

    Components of ``x`` in the null space of ``S`` contribute nothing.
    """
    v = np.asarray(x, dtype=float).ravel()
    a = _symmetric(s)
    if a.shape[0] != v.size:
        raise ValueError(f"vector length {v.size} does not match matrix size {a.shape[0]}")
    w, q = np.linalg.eigh(a)
    top = w[-1] if w.size else 0.0
    if top <= 0.0:
        return 0.0
    keep = w > zero_tolerance * top
    coords = q.T[keep] @ v
    return float(np.sqrt(max(float(np.sum(coords * coords / w[keep])), 0.0)))


def bias_term_reference(sigma, mu, lam, x, zero_tolerance=1e-12):
    """Truncation bias sqrt(rank(D)) * ||x - mu||_D from ``eigh`` of ``sigma``.

    ``D`` collects the eigencomponents above the numerical cutoff and at
    or below the threshold.
    """
    a = _symmetric(sigma)
    v = np.asarray(x, dtype=float).ravel() - np.asarray(mu, dtype=float).ravel()
    if v.size != a.shape[0]:
        raise ValueError("dimension mismatch between sigma and x - mu")
    w, q = np.linalg.eigh(a)
    top = w[-1] if w.size else 0.0
    if top <= 0.0:
        return 0.0
    removed = (w > zero_tolerance * top) & (w <= lam)
    rank = int(np.count_nonzero(removed))
    if rank == 0:
        return 0.0
    coords = q.T[removed] @ v
    return float(np.sqrt(rank) * np.sqrt(max(float(np.sum(coords * coords / w[removed])), 0.0)))


def random_correlation_matrix(r, rng):
    """A random valid correlation matrix via a Gram construction."""
    g = rng.standard_normal((r, r + 2))
    s = g @ g.T
    d = 1.0 / np.sqrt(np.diag(s))
    return s * np.outer(d, d)


def _l1_norms(diff):
    return np.abs(diff).sum(axis=-1)


def _l1_subgrad(diff):
    return np.sign(diff)


def _linf_norms(diff):
    return np.abs(diff).max(axis=-1)


def _linf_subgrad(diff):
    idx = np.argmax(np.abs(diff), axis=-1)[..., None]
    sub = np.zeros_like(diff)
    np.put_along_axis(sub, idx, np.take_along_axis(np.sign(diff), idx, axis=-1), axis=-1)
    return sub


def norm_objective(points, weights, y, norm):
    """The weighted squared-distance objective ``sum_i w_i ||points_i - y||^2``, l1 ("l1") or sup norm ("linf")."""
    norms_of = {"l1": _l1_norms, "linf": _linf_norms}[norm]
    w = np.asarray(weights, dtype=float).ravel()
    return float(w @ norms_of(np.asarray(points, dtype=float) - np.asarray(y, dtype=float)) ** 2)


def subgradient_reference(points, weights, norm, iterations=500):
    """Weighted l1 ("l1") or sup-norm ("linf") Frechet means, one per weight column.

    A frozen copy of the original solver: l2-mean initializer, step
    scale from the absolute-weight spread, steps c/sqrt(k) along a
    subgradient, best iterate kept per column, early exit once every
    gradient vanishes. Norms and subgradients are recomputed from the
    difference at every use.
    """
    norms_of, subgrad_of = {"l1": (_l1_norms, _l1_subgrad), "linf": (_linf_norms, _linf_subgrad)}[norm]
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    totals = w.sum(axis=0)
    assert np.all(totals > 0.0)
    if pts.ndim == 1:
        return (w.T @ pts) / totals
    y = (w.T @ pts) / totals[:, None]
    wt = w.T

    def objectives(cand):
        return np.einsum("kn,kn->k", wt, norms_of(cand[:, None, :] - pts) ** 2)

    best_y = y.copy()
    best_obj = objectives(y)
    spread = np.einsum("kn,kn->k", np.abs(wt), norms_of(y[:, None, :] - pts) ** 2)
    scales = np.sqrt(spread / np.maximum(np.abs(wt).sum(axis=1), 1e-300))
    for k in range(1, iterations + 1):
        diff = y[:, None, :] - pts
        norms = norms_of(diff)
        grad = 2.0 * np.einsum("kn,knd->kd", wt * norms, subgrad_of(diff))
        gn = np.linalg.norm(grad, axis=1)
        active = gn > 0.0
        if not np.any(active):
            break
        step = np.where(active, scales / (np.sqrt(k) * np.where(active, gn, 1.0)), 0.0)
        y = y - step[:, None] * grad
        obj = objectives(y)
        improved = obj < best_obj
        best_obj = np.where(improved, obj, best_obj)
        best_y[improved] = y[improved]
    return best_y


def write_predictions_reference(path, kind, predictions, grid=None, lambda_hat=None):
    """A frozen copy of the original prediction writer: one branch per layout, each cell as ``repr(float(v))``."""
    def fmt(v):
        return repr(float(v))

    preds = np.asarray(predictions, dtype=float)
    with open(path, "w", newline="") as fh:
        if lambda_hat is not None:
            fh.write(f"# lambda_hat = {fmt(lambda_hat)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        if kind == "wasserstein":
            m = preds.shape[1]
            writer.writerow([f"q{i}" for i in range(1, m + 1)])
            writer.writerow([fmt(v) for v in np.asarray(grid, dtype=float)])
            for row in preds:
                writer.writerow([fmt(v) for v in row])
        elif kind == "correlation":
            r = preds.shape[1]
            writer.writerow([f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)])
            for mat in preds:
                writer.writerow([fmt(v) for v in mat.ravel()])
        else:
            flat = preds if preds.ndim == 2 else preds[:, None]
            writer.writerow([f"y{i}" for i in range(1, flat.shape[1] + 1)])
            for row in flat:
                writer.writerow([fmt(v) for v in row])


def nearest_correlation_reference(a, tol=1e-10, max_iter=1000):
    """A frozen copy of the original one-matrix Dykstra loop.

    Returns the projection, or raises ``ConvergenceError`` carrying the
    last iterate after ``max_iter`` steps.
    """

    def sym(m):
        return 0.5 * (m + m.T)

    y = sym(np.asarray(a, dtype=float))
    correction = np.zeros_like(y)
    for _ in range(max_iter):
        r = y - correction
        w, q = np.linalg.eigh(sym(r))
        x = sym((q * np.clip(w, 0.0, None)) @ q.T)
        correction = x - r
        y_next = x.copy()
        np.fill_diagonal(y_next, 1.0)
        delta = float(np.linalg.norm(y_next - y, "fro"))
        y = y_next
        if delta < tol:
            return y
    raise ConvergenceError(
        f"nearest-correlation projection did not reach tol={tol} in {max_iter} iterations",
        last_iterate=y,
    )


def blend_path_reference(stats, responses, space, queries, ranks):
    """Affine-space predictions at ``queries`` for each of ``ranks`` (increasing), one ask alone."""
    y = np.asarray(responses, dtype=float)
    n, m = stats.n, queries.shape[0]
    flat = y.reshape(n, -1)
    us = stats.centered_svd.left * stats.centered_svd.values
    ev = stats.eigenvalues
    scores = (queries - stats.mean) @ stats.centered_svd.right_t.T
    cross = np.column_stack([us.T @ flat, us.sum(axis=0)])
    acc = np.tile(np.append(flat.sum(axis=0), float(n)), (m, 1))
    done = 0
    out = []
    for k in ranks:
        acc += np.dot(scores[:, done:k] / ev[done:k], cross[done:k])
        done = k
        totals = acc[:, -1]
        blended = acc[:, :-1] / totals[:, None]
        out.append(space.project_blends(blended.reshape(m, *y.shape[1:])))
    return out


def one_point_centers(space, preds):
    """The equal-weight Frechet mean of each column of a (trials, eval_points, ...) stack, one solver call each."""
    ones = np.ones(preds.shape[0])[:, None]
    return np.stack([space.frechet_mean_blocks(preds[:, m], [ones])[0][0] for m in range(preds.shape[1])])


def aggregate(trial_reports, eval_predictions, truths, space):
    """Fold per-trial results into bias-squared, variance, and mean errors.

    The across-trial center at each evaluation point is the equal-weight
    Frechet mean of the trial predictions; squared bias measures its
    distance to the truth and variance the spread of trials around it,
    both averaged over evaluation points.
    """
    if not trial_reports:
        raise ValueError("need at least one trial")
    truths = np.asarray(truths, dtype=float)
    n_eval = truths.shape[0]
    bias_sq: dict = {}
    var: dict = {}
    for est, preds in eval_predictions.items():
        preds = np.asarray(preds, dtype=float)
        if preds.shape[1] != n_eval:
            raise ValueError("prediction and truth evaluation points disagree")
        centers = one_point_centers(space, preds)
        bias_sq[est] = float(np.mean(space.distances_to(truths, centers) ** 2))
        var[est] = float(
            np.mean(
                [np.mean(space.distances_to(preds[:, m], centers[m]) ** 2) for m in range(n_eval)]
            )
        )
    mse = {est: float(np.mean([t.mse[est] for t in trial_reports])) for est in ESTIMATORS}
    mspe = {est: float(np.mean([t.mspe[est] for t in trial_reports])) for est in ESTIMATORS}
    return AggregateReport(bias_sq, var, mse, mspe)


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


def read_dataset_reference(path, kind: str):
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


def read_covariates_reference(path) -> np.ndarray:
    """Read only the x1..xp columns; response columns are checked, not parsed."""
    covs, _, _, rows = _read_table(path)
    if not covs:
        raise SchemaError(f"{path}: no covariate columns")
    return _parse_block(rows, covs)
