"""Globally weighted Frechet regression with spectral truncation.

``Dataset`` is the library boundary: it validates the responses with
the space's ``check_points``, and ``Dataset.with_covariates`` builds the
other design of a clean/noisy pair on its response array. Each other
input rule has one check, which the command line runs too:
``check_design``, ``check_queries``, ``check_test_set``,
``with_covariates``' shape check and ``lambda_grid``'s constant-design
check. A fit holds its ``Dataset`` and the rank its threshold keeps, so
its SVD factors and its responses are one design's. Every prediction, of
a fit, of the threshold sweep or of a simulation trial, goes through one
route, ``rank_predictions``, which reads the design's one thin SVD at
the asked ranks. Affine spaces stream the weighted response sums along
the rank path and never form a weight matrix; the l1 and sup-norm
solvers take the weights from ``rank_weights``, which
``FittedModel.weight_matrix`` also returns for diagnostics. For
Euclidean responses the prediction has the principal-component-regression
closed form; ``tests/oracles.py`` keeps it as ``pcr_coefficients``, a
reference the tests hold this route to. The threshold choice lives here
too: ``tune_lambda`` picks the first minimizer of the held-out error that
``mspe_profile`` sweeps on a ``lambda_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import RANK_RTOL, SvdFactors, compute_svd
from .metric_spaces import ConvergenceError, DegenerateWeightsError, MetricSpace

SOLVER_ERRORS = (ConvergenceError, DegenerateWeightsError, FloatingPointError)  # the CLI exits 3 on each
GRID_POINTS = 40  # a default threshold grid: lambda_grid, a simulate cell, fit-predict --lambda auto


def raising(func):
    """``func`` with numpy's overflow, invalid and divide events raising ``FloatingPointError``.

    One ``errstate`` per function; never for a generator, whose body runs
    after the call.
    """
    return np.errstate(over="raise", invalid="raise", divide="raise")(func)


@dataclass(frozen=True)
class CovariateStats:
    """Sample mean and the one thin SVD of the row-centered design.

    With ``x - mean = U diag(s) Vt`` the covariance is
    ``Vt' diag(s**2 / n) Vt``: its eigenvalues are ``s**2 / n`` and its
    eigenvectors the rows of ``Vt``, so no separate eigendecomposition is
    needed. Hard truncation at any threshold keeps a prefix of these
    components (``kept_rank``), which is what lets a threshold sweep walk
    the rank path instead of refitting at every threshold.
    ``eigenvalues`` holds ``s**2 / n``, descending, zero-padded to length p.
    The centered design itself is not kept: one copy of each design lives
    in its ``Dataset``.
    """

    mean: np.ndarray
    centered_svd: SvdFactors
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.centered_svd.left.shape[0]

    @property
    def p(self) -> int:
        return self.centered_svd.right_t.shape[1]


def check_design(x) -> np.ndarray:
    """Covariates as a float n-by-p matrix with n >= 2; the one check of a design's shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"covariates must be an n-by-p matrix with n >= 2, got shape {x.shape}")
    return x


def covariate_stats(x) -> CovariateStats:
    """The stats of an n-by-p design; ``FloatingPointError`` if they overflow."""
    x = check_design(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("covariates have non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        if not np.all(np.isfinite(centered)):
            raise FloatingPointError("the centered covariates overflow")
        svd = compute_svd(centered)
        ev = np.zeros(x.shape[1])
        ev[: svd.values.size] = svd.values * svd.values / x.shape[0]
    if not np.isfinite(ev[0]):
        raise FloatingPointError(f"the covariance eigenvalues overflow (top singular value {svd.values[0]:.3g})")
    return CovariateStats(mean=mean, centered_svd=svd, eigenvalues=ev)


def kept_rank(stats: CovariateStats, lam):
    """Number of leading covariance components that survive threshold ``lam``.

    A component survives when its eigenvalue exceeds both ``lam`` and the
    numerical-rank cutoff ``RANK_RTOL`` times the top eigenvalue. The
    eigenvalues are sorted, so the survivors are always a prefix. Accepts
    a scalar or an array of thresholds.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0):
        raise ValueError(f"threshold must be a nonnegative number, got {lam}")
    ev = stats.eigenvalues
    if ev[0] <= 0.0:
        return np.zeros(lam.shape, dtype=int)
    cut = np.maximum(lam, RANK_RTOL * ev[0])
    return np.count_nonzero(ev > cut[..., None], axis=-1)


def rank_weights(stats: CovariateStats, queries: np.ndarray, k: int) -> np.ndarray:
    """Regression weights keeping the ``k`` leading components, one column per query row.

    With ``centered = U diag(s) Vt`` the thresholded precision is
    ``V_k diag(n / s_k**2) V_k'``, so ``1 + centered [svt(cov, lam)]^+ (q - mean)``
    is ``1 + n U_k diag(1/s_k) V_k' (q - mean)``: no p-by-p matrix is formed.
    """
    f = stats.centered_svd
    scores = (queries - stats.mean) @ f.right_t[:k].T
    return 1.0 + (f.left[:, :k] * (stats.n / f.values[:k])) @ scores.T


def _blend_path(stats: CovariateStats, flat, cross, scores, ranks):
    """Weight-normalized response blends at the queries for each of ``ranks`` (increasing), streamed.

    With ``centered = U diag(s) Vt``, eigenvalues ``ev`` and query scores
    ``A = (queries - mean) Vt'``, the fit keeping k components weighs the
    training points by ``1 + (U diag(s))[:, :k] diag(1/ev[:k]) A[:, :k]'``,
    so a larger rank only adds terms. The weights are never formed: the
    weighted response sums of the (n, d) ``flat`` responses and the
    weight-column totals are updated as
    ``+= (A[:, k0:k1] / ev[k0:k1]) @ C[k0:k1]``, where ``cross`` is
    ``C = (U diag(s))' Y`` with the column sums of ``U diag(s)`` appended
    and ``scores`` is ``A``. ``A`` is divided by ``ev`` once, up to the
    last rank asked. Each stack is one contiguous division of the sums,
    totals included, by the totals, handed on as a view without its last
    column; each element rounds as its own division by its total would.
    """
    ev = stats.eigenvalues
    top = ranks[-1] if len(ranks) else 0
    scaled = scores[:, :top] / ev[:top]
    # The last column carries the weight totals along with the sums.
    acc = np.tile(np.append(flat.sum(axis=0), float(stats.n)), (scores.shape[0], 1))
    done = 0
    for k in ranks:
        # np.dot, not @: numpy's matmul is several times slower when a
        # single component is added.
        acc += np.dot(scaled[:, done:k], cross[done:k])
        done = k
        if np.any(acc[:, -1] <= 0.0):
            raise DegenerateWeightsError("every weight column must have a positive total")
        yield np.divide(acc, acc[:, -1:])[:, :-1]


def rank_predictions(space: MetricSpace, responses, asks):
    """Predictions from ``responses`` at each asked rank: one stack per rank, in order.

    Each ask is ``(stats, queries, ranks)``: a design's stats, checked
    query rows and increasing ranks; the fit keeping k components predicts
    with ``rank_weights(stats, queries, k)``, and rank 0 (a column of ones)
    is the unweighted mean. Affine spaces stream each ask's ranks along
    ``_blend_path`` and never form a weight matrix, so keep only the stacks
    still needed. Within one call each design's cross product
    ``(U diag(s))' Y`` is computed once, and so are the query scores of
    each (design, queries) pair, however many asks read them; asks match
    by the identity of their stats and query arrays. A simulation trial's
    nine asks on two designs then make two cross products instead of
    nine, and its EIV and SVT fits share their scores. Each stack equals
    its ask run alone, bit for bit. The l1 and sup-norm solvers need the
    weights, so those spaces solve every rank of every ask in one
    ``frechet_mean_blocks`` call. It runs under its consumer's numpy error
    setting: ``raising`` would cover only the call that makes the
    generator, and a ``with`` across a ``yield`` would leak into the consumer.
    """
    if not space.affine:
        weights = [rank_weights(stats, queries, k) for stats, queries, ranks in asks for k in ranks]
        yield from space.frechet_mean_blocks(responses, weights)
        return
    y = np.asarray(responses, dtype=float)
    flat = y.reshape(y.shape[0], -1)
    asks = list(asks)  # holds every ask's arrays, so no two of them share an id
    products = {}  # cross products by id(stats), query scores by (id(stats), id(queries))
    for stats, queries, ranks in asks:
        f = stats.centered_svd
        if id(stats) not in products:
            us = f.left * f.values
            products[id(stats)] = np.column_stack([us.T @ flat, us.sum(axis=0)])
        pair = (id(stats), id(queries))
        if pair not in products:
            products[pair] = (queries - stats.mean) @ f.right_t.T
        for blended in _blend_path(stats, flat, products[id(stats)], products[pair], ranks):
            yield space.project_blends(blended.reshape(len(queries), *y.shape[1:]))


def check_queries(p: int, queries) -> np.ndarray:
    """Queries as a finite (m, p) array, a 1-D query as one row; it takes the width, so nothing is factored."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.ndim != 2 or q.shape[1] != p:
        raise ValueError(f"queries must have {p} coordinates, got shape {np.shape(queries)}")
    if not np.all(np.isfinite(q)):
        raise ValueError("queries have non-finite entries")
    return q


@dataclass(frozen=True, eq=False)
class Dataset:
    """Covariate matrix paired with metric-space responses of one kind.

    Construction rejects responses outside the space (``check_points``).
    Datasets compare and hash by identity.
    """

    covariates: np.ndarray
    responses: np.ndarray
    space: MetricSpace

    def __post_init__(self):
        x = check_design(self.covariates)
        y = self.space.check_points(self.responses)
        if y.shape[0] != x.shape[0]:
            raise ValueError(f"{x.shape[0]} covariate rows but {y.shape[0]} responses")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @cached_property
    def stats(self) -> CovariateStats:
        """``covariate_stats`` of the covariates, computed once on first use."""
        return covariate_stats(self.covariates)

    def with_covariates(self, z) -> Dataset:
        """The same response array and space on covariates ``z`` of this design's shape.

        The one builder of a design's twin in an errors-in-variables pair,
        so the one owner of the rule that the two designs have one shape.
        """
        if np.shape(z) != self.covariates.shape:
            raise ValueError(f"shape mismatch: covariates {np.shape(z)}, design {self.covariates.shape}")
        return Dataset(z, self.responses, self.space)


@dataclass(frozen=True)
class FittedModel:
    """A design with the rank its threshold keeps; predictions are lazy solves."""

    data: Dataset
    rank: int

    def weight_matrix(self, queries) -> np.ndarray:
        """Regression weights 1 + (X_i - mean)' [svt(cov, lam)]^+ (x - mean).

        One column per query point, read off the ``rank`` leading SVD
        factors by ``rank_weights``. Each column averages to one up to
        roundoff because the centered rows sum to zero; single weights may
        be negative. ``predict_many`` forms these weights only for the l1
        and sup-norm solvers; affine spaces predict without them.
        """
        stats = self.data.stats
        return rank_weights(stats, check_queries(stats.p, queries), self.rank)

    def predict(self, x) -> np.ndarray:
        """Prediction at one query point."""
        return self.predict_many(np.ravel(x)[None])[0]

    @raising
    def predict_many(self, queries) -> np.ndarray:
        """Predictions at the query rows, through ``rank_predictions`` at the fit's rank."""
        data = self.data
        ask = (data.stats, check_queries(data.stats.p, queries), [self.rank])
        return next(rank_predictions(data.space, data.responses, [ask]))


def fit(data: Dataset, lam: float) -> FittedModel:
    return FittedModel(data, int(kept_rank(data.stats, lam)))


@raising
def lambda_grid(top_eigenvalue: float, p: int, n: int, points: int = GRID_POINTS) -> np.ndarray:
    """Evenly spaced thresholds on (0, sqrt(top * p / n)]; ``FloatingPointError`` if that bound overflows."""
    if top_eigenvalue <= 0:
        raise ValueError(f"constant covariates have no threshold grid (top eigenvalue {top_eigenvalue:.3g})")
    if points < 1:
        raise ValueError("need at least one grid point")
    upper = np.sqrt(top_eigenvalue * p / n)
    return np.linspace(upper / points, upper, points)


def check_test_set(train: Dataset, test: Dataset) -> None:
    """``ValueError`` unless ``test`` has the training width and responses of the training kind, grid and shape."""
    space, p = train.space, train.covariates.shape[1]
    if test.space.kind != space.kind:
        raise ValueError(f"test responses are {test.space.kind}, training responses {space.kind}")
    if test.covariates.shape[1] != p:
        raise ValueError(f"test covariates have {test.covariates.shape[1]} columns, training {p}")
    if space.kind == "wasserstein" and not np.array_equal(test.space.grid, space.grid):
        raise ValueError("test grid levels differ from the training grid")
    if test.responses.shape[1:] != train.responses.shape[1:]:
        raise ValueError(f"test responses have shape {test.responses.shape[1:]}, training {train.responses.shape[1:]}")


@raising
def mspe_profile(train_noisy: Dataset, test: Dataset, grid) -> np.ndarray:
    """Out-of-sample error of the noisy-covariate fit along a threshold grid.

    A threshold only decides how many leading covariance components the
    fit keeps (``kept_rank``), so each distinct rank on the grid is
    evaluated once, in increasing order, by one ``rank_predictions`` ask,
    and grid points that keep the same rank get bit-identical values. A
    test set that ``check_test_set`` refuses raises ``ValueError``, as an
    empty grid does.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("empty threshold grid")
    check_test_set(train_noisy, test)
    space, stats = train_noisy.space, train_noisy.stats
    ranks = kept_rank(stats, grid)
    # Not np.unique, which loads numpy.ma into every sweeping process.
    distinct = np.flatnonzero(np.bincount(ranks))
    ask = (stats, check_queries(stats.p, test.covariates), distinct)
    path = rank_predictions(space, train_noisy.responses, [ask])
    errors = np.array([np.mean(space.distances_to(test.responses, preds) ** 2) for preds in path])
    return errors[np.searchsorted(distinct, ranks)]


def tune_lambda(train_noisy: Dataset, test: Dataset, grid) -> float:
    """Threshold minimizing the out-of-sample error; ties pick the smallest."""
    grid = np.sort(np.asarray(grid, dtype=float).ravel())
    return float(grid[int(np.argmin(mspe_profile(train_noisy, test, grid)))])
