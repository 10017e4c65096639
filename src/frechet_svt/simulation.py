"""Monte Carlo harness for the estimator comparison study.

Each cell of the study fixes a sample size, covariate dimension, and
noise law, then runs independent trials comparing three fits: the
clean-covariate baseline (REF), the naive errors-in-variables fit (EIV,
threshold zero on noisy covariates), and the spectrally truncated fit
(SVT, threshold tuned on a grid). Responses are either random Gaussian
distributions in the Wasserstein geometry or vectors from a linear
model under a choice of norm.

Determinism: every random draw flows from ``default_rng`` seeded by
(master seed, cell key, purpose, trial index), so trial order and
worker count never change the results.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass
from statistics import NormalDist, median

import numpy as np

from .linalg import settle_process
from .metric_spaces import MetricSpace, midpoint_grid, space_from_kind
from .regression import SOLVER_ERRORS, Dataset, check_queries, fit, kept_rank, raising, rank_predictions

ESTIMATORS = ("REF", "EIV", "SVT")


class TrialFailure(RuntimeError):
    """A solver failed, or memory ran out, inside one Monte Carlo trial of the cell named ``cell``."""

    _event = "trial {} failed"

    def __init__(self, cell: str, trial_index: int, cause: Exception):
        event = "trial {} ran out of memory" if isinstance(cause, MemoryError) else self._event
        detail = f": {cause}" if str(cause) else ""  # a bare MemoryError has no message
        super().__init__(f"cell {cell}: {event.format(trial_index)}{detail}")
        self.cell = cell
        self.trial_index = trial_index
        self.cause = cause

    def __reduce__(self):
        # Rebuild from the constructor arguments, so a failure raised in a
        # worker process reaches the parent intact.
        return type(self), (self.cell, self.trial_index, self.cause)


class LostWorker(TrialFailure):
    """A pool worker died while trial ``trial_index`` was unread; the trial need not have run."""

    _event = "a worker process died while trial {} was still unread"


_NOISE_KINDS = ("gaussian", "laplace")
_MODELS = ("wasserstein", "linear")
_LINEAR_METRICS = ("euclidean", "l1", "linf")
_FLOAT_FIELDS = ("sigma_eps", "sigma_eta", "ig_shape", "ig_scale", "alpha_intercept", "condition_number")

# Purpose tags for deriving independent random streams within a cell.
_BASIS, _EVAL, _MODEL_PARAMS, _TRIAL = 1, 2, 3, 4


@dataclass(frozen=True)
class SimConfig:
    """One study cell plus all data-generating parameters."""

    n: int
    p: int
    trials: int = 50
    test_size: int = 500
    eval_points: int = 100
    quantile_points: int = 101
    noise_kind: str = "gaussian"
    sigma_eps: float = 0.05
    sigma_eta: float = 0.5
    ig_shape: float = 18.0
    ig_scale: float = 17.0
    alpha_intercept: float = 1.0
    condition_number: float = 1e3
    lambda_points: int = 40
    master_seed: int = 0
    laplace_variance_matched: bool = False
    model: str = "wasserstein"
    linear_dim: int = 5
    metric: str = "euclidean"
    label: str = ""  # display name for reports; never feeds the rng

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if min(self.trials, self.test_size, self.eval_points, self.quantile_points) < 1:
            raise ValueError("trials, test_size, eval_points, quantile_points must be positive")
        if self.test_size < 2:
            raise ValueError("test_size must be at least 2")
        if self.lambda_points < 1:
            raise ValueError("lambda_points must be positive")
        if self.ig_shape <= 2:
            raise ValueError("ig_shape must exceed 2 for the scale noise to have finite variance")
        if self.ig_scale <= 0:
            raise ValueError("ig_scale must be positive")
        if self.condition_number <= 1:
            raise ValueError("condition_number must exceed 1")
        if self.sigma_eps < 0 or self.sigma_eta < 0:
            raise ValueError("noise scales must be nonnegative")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.noise_kind not in _NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {_NOISE_KINDS}")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        if self.model == "linear" and self.metric not in _LINEAR_METRICS:
            raise ValueError(f"metric must be one of {_LINEAR_METRICS}")
        if self.model == "linear" and self.linear_dim < 1:
            raise ValueError("linear_dim must be positive")

    def cell_key(self) -> int:
        tag = f"{self.model}|{self.noise_kind}|{self.metric}|n={self.n}|p={self.p}|d={self.linear_dim}"
        return zlib.crc32(tag.encode())

    def display_name(self) -> str:
        if self.label:
            return self.label
        core = f"{self.noise_kind}-{self.n}x{self.p}"
        if self.model == "linear":
            return f"linear-{self.metric}-{core}"
        return core

    def rng(self, purpose: int, index: int | None = None):
        entropy = [int(self.master_seed), self.cell_key(), purpose]
        if index is not None:
            entropy.append(int(index))
        return np.random.default_rng(entropy)


@dataclass(frozen=True)
class TrialReport:
    """Per-trial training and prediction errors for the three fits."""

    index: int
    mse: dict
    mspe: dict
    lambda_hat: float


@dataclass(frozen=True)
class AggregateReport:
    """Monte-Carlo-aggregated squared bias, variance, and mean errors."""

    bias_sq: dict
    var: dict
    mse: dict
    mspe: dict


@dataclass(frozen=True)
class ThresholdProfile:
    """Trial-averaged normalized prediction error along the threshold grid."""

    lambdas: np.ndarray
    svt: np.ndarray
    ref: float
    eiv: float


@dataclass(frozen=True)
class CellResult:
    config: SimConfig
    trials: list
    report: AggregateReport
    profile: ThresholdProfile

    @property
    def lambda_hat_median(self) -> float:
        # statistics.median, not np.median: that loads numpy.ma into the process.
        return float(median([t.lambda_hat for t in self.trials]))


def make_spectrum(p: int, condition_number: float = 1e3) -> np.ndarray:
    """Geometrically decaying eigenvalues rescaled so they sum to p.

    Interpolates from 1 down to 1/condition_number, then rescales; with
    the default ratio the top third of the spectrum carries roughly 90%
    of the total mass.
    """
    if p < 2:
        raise ValueError("need at least two dimensions to build a spectrum")
    if condition_number <= 1:
        raise ValueError("condition_number must exceed 1")
    decay = condition_number ** (-np.arange(p) / (p - 1))
    return p * decay / decay.sum()


def random_orthogonal(p: int, rng) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def gen_covariates(n: int, p: int, spectrum, rng, basis: np.ndarray | None = None) -> np.ndarray:
    """Draw n Gaussian rows with covariance basis @ diag(spectrum) @ basis'.

    When no basis is supplied one is drawn from ``rng``; the harness
    fixes one basis per cell so every trial targets the same covariance.
    """
    spectrum = np.asarray(spectrum, dtype=float).ravel()
    if spectrum.size != p or np.any(spectrum <= 0):
        raise ValueError("spectrum must hold p positive eigenvalues")
    if basis is None:
        basis = random_orthogonal(p, rng)
    return (rng.standard_normal((n, p)) * np.sqrt(spectrum)) @ basis.T


def add_noise(x, kind: str, sigma_eps: float, rng, variance_matched: bool = False) -> np.ndarray:
    """Entrywise additive measurement noise, Gaussian or Laplace.

    The Laplace scale parameter is sigma_eps read literally (variance
    2 sigma_eps^2) unless ``variance_matched`` divides it by sqrt(2).
    """
    x = np.asarray(x, dtype=float)
    if sigma_eps < 0:
        raise ValueError("sigma_eps must be nonnegative")
    if sigma_eps == 0:
        return x.copy()
    if kind == "gaussian":
        return x + sigma_eps * rng.standard_normal(x.shape)
    if kind == "laplace":
        scale = sigma_eps / np.sqrt(2.0) if variance_matched else sigma_eps
        return x + rng.laplace(0.0, scale, size=x.shape)
    raise ValueError(f"unknown noise kind: {kind!r}")


def expected_tau(shape: float, scale: float) -> float:
    """Mean of tau where tau^2 is inverse-gamma: sqrt(s2) G(s1-1/2)/G(s1)."""
    if shape <= 0.5:
        raise ValueError("shape must exceed 1/2")
    if shape < 1e4:
        return math.exp(0.5 * math.log(scale) + math.lgamma(shape - 0.5) - math.lgamma(shape))
    # Past 1e4 the lgamma difference loses digits (and lgamma overflows near
    # 1.7e308); the ratio's series s^(-1/2) (1 + 3/(8s) + 25/(128s^2)) holds to rounding.
    return math.exp(0.5 * math.log(scale) - 0.5 * math.log(shape) + math.log1p((0.375 + 25 / 128 / shape) / shape))


def draw_tau_squared(shape: float, scale: float, size: int, rng) -> np.ndarray:
    """Inverse-gamma draws as the scale over standard gamma variates."""
    return scale / rng.gamma(shape, 1.0, size=size)


@functools.cache
def _normal_quantiles(m: int) -> np.ndarray:
    """The standard normal quantile function on the ``m``-point midpoint grid, read-only.

    Computed once per grid size: a desk-scale cell's 100 evaluation
    points would otherwise make 10,100 ``inv_cdf`` calls.
    """
    inv_cdf = NormalDist().inv_cdf
    row = np.array([inv_cdf(t) for t in midpoint_grid(m).tolist()])
    row.flags.writeable = False  # every caller shares this one array
    return row


def _slope_vector(p: int) -> np.ndarray:
    return np.full(p, p ** -0.5)


def gen_wasserstein_responses(x, config: SimConfig, rng) -> tuple[np.ndarray, dict]:
    """Random Gaussian distributions, one quantile row per covariate row.

    Row i is the quantile function of N(mu_i + eta_i, tau_i^2) on the
    midpoint grid, with mu_i = alpha + beta'x_i, beta = 1/sqrt(p),
    Gaussian location noise eta, and inverse-gamma scale noise tau^2.
    Returns the responses and the latent draws.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    base = _normal_quantiles(config.quantile_points)
    mu = config.alpha_intercept + x @ _slope_vector(config.p)
    eta = config.sigma_eta * rng.standard_normal(n)
    tau = np.sqrt(draw_tau_squared(config.ig_shape, config.ig_scale, n, rng))
    responses = (mu + eta)[:, None] + tau[:, None] * base[None, :]
    return responses, {"mu": mu, "eta": eta, "tau": tau}


def true_regression_quantile(x, config: SimConfig) -> np.ndarray:
    """The population regression surface at x: N(alpha + beta'x, E[tau]^2)."""
    x = np.asarray(x, dtype=float).ravel()
    base = _normal_quantiles(config.quantile_points)
    loc = config.alpha_intercept + float(x @ _slope_vector(config.p))
    return loc + expected_tau(config.ig_shape, config.ig_scale) * base


def gen_linear_responses(
    x,
    dim: int,
    rng,
    sigma_eta: float = 0.5,
    intercept: np.ndarray | None = None,
    slopes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector responses Y = intercept + X slopes + noise.

    Defaults draw intercept = 1 + 0.1 g and slopes = 1/sqrt(d) + 0.1 G
    with standard Gaussian g, G; pass both to pin the model. Returns
    (responses, intercept, slopes).
    """
    x = np.asarray(x, dtype=float)
    p = x.shape[1]
    if intercept is None:
        intercept = np.ones(dim) + 0.1 * rng.standard_normal(dim)
    if slopes is None:
        slopes = np.full((p, dim), dim ** -0.5) + 0.1 * rng.standard_normal((p, dim))
    noise = sigma_eta * rng.standard_normal((x.shape[0], dim)) if sigma_eta > 0 else 0.0
    return intercept + x @ slopes + noise, np.asarray(intercept), np.asarray(slopes)


def lambda_grid(top_eigenvalue: float, p: int, n: int, points: int = 40) -> np.ndarray:
    """Evenly spaced thresholds on (0, sqrt(top * p / n)]."""
    if top_eigenvalue <= 0:
        raise ValueError("top eigenvalue must be positive")
    if points < 1:
        raise ValueError("need at least one grid point")
    upper = np.sqrt(top_eigenvalue * p / n)
    return np.linspace(upper / points, upper, points)


@raising
def mspe_profile(train_noisy: Dataset, test: Dataset, grid) -> np.ndarray:
    """Out-of-sample error of the noisy-covariate fit along a threshold grid.

    A threshold only decides how many leading covariance components the
    fit keeps (``kept_rank``), so each distinct rank on the grid is
    evaluated once, in increasing order, by one ``rank_predictions`` ask,
    and grid points that keep the same rank get bit-identical values.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("empty threshold grid")
    stats = train_noisy.stats
    ranks = kept_rank(stats, grid)
    # Not np.unique, which loads numpy.ma into every sweeping process.
    distinct = np.flatnonzero(np.bincount(ranks))
    space = train_noisy.space
    ask = (stats, check_queries(stats, test.covariates), distinct)
    path = rank_predictions(space, train_noisy.responses, [ask])
    errors = np.array([np.mean(space.distances_to(test.responses, preds) ** 2) for preds in path])
    return errors[np.searchsorted(distinct, ranks)]


def tune_lambda(train_noisy: Dataset, test: Dataset, grid) -> float:
    """Threshold minimizing the out-of-sample error; ties pick the smallest."""
    grid = np.sort(np.asarray(grid, dtype=float).ravel())
    return float(grid[int(np.argmin(mspe_profile(train_noisy, test, grid)))])


@raising
def evaluate_trial(train: Dataset, train_noisy: Dataset, test: Dataset, grid, eval_x, profile_grid, index: int = 0):
    """Fit REF, EIV, and tuned SVT, reporting training and test errors.

    ``train`` and ``train_noisy`` must hold the same responses, on the
    clean and on the noisy covariates (the errors-in-variables setting);
    a mismatch raises ``ValueError``. In-sample errors are measured at the
    clean training covariates for every estimator (the noisy fits act as
    predictors of the responses at the true covariates); test covariates
    are noiseless too. One ``mspe_profile`` sweep covers the sorted
    tuning grid and ``profile_grid``; the tuned threshold is the first
    minimizer on the tuning part, so ties pick the smallest. Every other
    prediction goes through one ``rank_predictions`` call on the shared
    responses.

    Returns ``(report, eval_preds, (svt_curve, null_error))``:
    ``eval_preds`` maps each estimator to its predictions at ``eval_x``,
    ``svt_curve`` holds the SVT test errors on ``profile_grid``, and
    ``null_error`` is the test error of the unweighted mean of the
    training responses.
    """
    if not np.array_equal(train.responses, train_noisy.responses):
        raise ValueError("the clean and the noisy training sets must hold the same responses")
    grid = np.sort(np.asarray(grid, dtype=float).ravel())
    curves = mspe_profile(train_noisy, test, np.concatenate([grid, profile_grid]))
    tuning = curves[: grid.size]
    lam_hat = float(grid[int(np.argmin(tuning))])
    models = {
        "REF": fit(train, 0.0),
        "EIV": fit(train_noisy, 0.0),
        "SVT": fit(train_noisy, lam_hat),
    }
    space = train.space
    # Every prediction of the trial, in the order read below: in-sample for
    # each estimator, test for REF and EIV, eval, then the null model.
    asks = [(m, train.covariates) for m in models.values()]
    asks += [(models[est], test.covariates) for est in ("REF", "EIV")]
    asks += [(m, eval_x) for m in models.values()]
    asks = [(m.stats, check_queries(m.stats, q), [m.rank]) for m, q in asks]
    # Rank 0 weighs every training response by one: the null model.
    asks.append((train.stats, train.stats.mean[None], [0]))
    preds = rank_predictions(space, train.responses, asks)

    def next_error(responses) -> float:
        return float(np.mean(space.distances_to(responses, next(preds)) ** 2))

    mse = {est: next_error(train.responses) for est in ESTIMATORS}
    mspe = {est: next_error(test.responses) for est in ("REF", "EIV")}
    mspe["SVT"] = float(tuning.min())  # the SVT fit's test error is the sweep's minimum
    report = TrialReport(index=index, mse=mse, mspe=mspe, lambda_hat=lam_hat)
    eval_preds = {est: next(preds) for est in ESTIMATORS}
    return report, eval_preds, (curves[grid.size :], next_error(test.responses))


class _TrialFold:
    """Takes each trial's evaluation predictions as it arrives; ``report`` gives the cell's bias and variance.

    The center at an evaluation point is the trials' equal-weight Frechet
    mean there: squared bias is its distance to the truth, variance the
    trials' spread around it, each averaged over the evaluation points.

    In an affine space the center is ``project_blends`` of the trials'
    average, and the distance is a Euclidean norm of the difference. So
    the trials' mean squared distance to the center is
    m2 / T + d(average, center)^2, where m2 is their summed squared
    distance to the average. The average and m2 are updated one trial
    at a time, as in Welford (1962), and the fold holds one
    ``(eval_points, ...)`` average and one ``(eval_points,)`` m2 per
    estimator, whatever the number of trials. Its results equal a
    one-point mean per evaluation point up to rounding, in the last digits.

    The l1/sup-norm center is a solver's output over every trial at once,
    so for those spaces the fold stores the predictions in one
    ``(trials, eval_points, ...)`` array per estimator, and ``report``
    makes one ``frechet_mean_columns`` call per estimator.
    """

    def __init__(self, space: MetricSpace, truths: np.ndarray, trials: int):
        self.space = space
        self.truths = truths
        self.count = 0
        if space.affine:
            self.mean = {est: np.zeros(truths.shape) for est in ESTIMATORS}
            self.m2 = {est: np.zeros(truths.shape[0]) for est in ESTIMATORS}
        else:
            self.stored = {est: np.empty((trials, *truths.shape)) for est in ESTIMATORS}

    def add(self, eval_preds: dict) -> None:
        k = self.count = self.count + 1
        for est, x in eval_preds.items():
            if not self.space.affine:
                self.stored[est][k - 1] = x
                continue
            mean = self.mean[est]
            self.m2[est] += (k - 1) / k * self.space.distances_to(x, mean) ** 2
            mean += (x - mean) / k

    def report(self, trial_reports) -> AggregateReport:
        space = self.space
        bias_sq: dict = {}
        var: dict = {}
        for est in ESTIMATORS:
            if space.affine:
                mean = self.mean[est]
                centers = space.project_blends(mean.copy())  # all evaluation points in one call
                var[est] = float(np.mean(self.m2[est] / self.count + space.distances_to(mean, centers) ** 2))
            else:
                preds = self.stored[est]
                centers = space.frechet_mean_columns(preds)
                spreads = [np.mean(space.distances_to(preds[:, m], c) ** 2) for m, c in enumerate(centers)]
                var[est] = float(np.mean(spreads))
            bias_sq[est] = float(np.mean(space.distances_to(self.truths, centers) ** 2))
        mse = {est: float(np.mean([t.mse[est] for t in trial_reports])) for est in ESTIMATORS}
        mspe = {est: float(np.mean([t.mspe[est] for t in trial_reports])) for est in ESTIMATORS}
        return AggregateReport(bias_sq, var, mse, mspe)


def _cell_space(config: SimConfig) -> MetricSpace:
    kind = config.model if config.model == "wasserstein" else config.metric
    return space_from_kind(kind, quantile_points=config.quantile_points)


@functools.cache
def _cell_fixtures(config: SimConfig):
    """Spectrum, eigenbasis, evaluation points, truths, model params and profile grid, read-only.

    Cached until ``run_campaign`` returns or raises; a spawned worker derives the same bits.
    """
    spectrum = make_spectrum(config.p, config.condition_number)
    basis = random_orthogonal(config.p, config.rng(_BASIS))
    eval_x = gen_covariates(config.eval_points, config.p, spectrum, config.rng(_EVAL), basis)
    if config.model == "wasserstein":
        truths = np.stack([true_regression_quantile(x, config) for x in eval_x])
        params = ()
    else:
        truths, *params = gen_linear_responses(eval_x, config.linear_dim, config.rng(_MODEL_PARAMS), 0.0)
    profile_grid = lambda_grid(spectrum[0], config.p, config.n, config.lambda_points)
    for a in (spectrum, basis, eval_x, truths, profile_grid, *params):
        a.flags.writeable = False  # every trial of the cell shares these arrays
    return spectrum, basis, eval_x, truths, tuple(params), profile_grid


def _draw_responses(x, config: SimConfig, params, rng) -> np.ndarray:
    if config.model == "wasserstein":
        return gen_wasserstein_responses(x, config, rng)[0]
    return gen_linear_responses(x, config.linear_dim, rng, config.sigma_eta, *params)[0]


@raising
def _run_trial(config: SimConfig, b: int):
    """Draw trial ``b`` of the cell ``config`` and run it through ``evaluate_trial``."""
    try:
        spectrum, basis, eval_x, _, params, profile_grid = _cell_fixtures(config)
        rng = config.rng(_TRIAL, b)
        space = _cell_space(config)
        x = gen_covariates(config.n, config.p, spectrum, rng, basis)
        y = _draw_responses(x, config, params, rng)
        z = add_noise(x, config.noise_kind, config.sigma_eps, rng, config.laplace_variance_matched)
        x_new = gen_covariates(config.test_size, config.p, spectrum, rng, basis)
        y_new = _draw_responses(x_new, config, params, rng)
        noisy = Dataset(z, y, space)
        grid = lambda_grid(noisy.stats.eigenvalues[0], config.p, config.n, config.lambda_points)
        return evaluate_trial(Dataset(x, y, space), noisy, Dataset(x_new, y_new, space), grid, eval_x, profile_grid, b)
    except (*SOLVER_ERRORS, MemoryError) as exc:
        raise TrialFailure(config.display_name(), b, exc) from exc


@raising
def _fold_cell(config: SimConfig, outcomes, broken_pool) -> CellResult:
    """Read the cell's ``config.trials`` outcomes from ``outcomes``, in trial order, and aggregate them."""
    _, _, _, truths, _, profile_grid = _cell_fixtures(config)
    reports = []
    fold = _TrialFold(_cell_space(config), truths, config.trials)
    svt_curves = np.empty((config.trials, profile_grid.size))
    null_errors = np.empty(config.trials)
    for b in range(config.trials):
        # next(), not enumerate, and del preds: enumerate's cached result
        # tuple or a live name would keep trial b's outcome while trial
        # b + 1 runs.
        try:
            report, preds, (svt_curves[b], null_errors[b]) = next(outcomes)
        except broken_pool as exc:
            raise LostWorker(config.display_name(), b, exc) from exc
        reports.append(report)
        fold.add(preds)
        del preds

    report = fold.report(reports)
    null_mean = float(null_errors.mean())
    if null_mean == 0.0:
        raise FloatingPointError(
            f"profile.csv: cell {config.display_name()}: the null model's test error,"
            " which the profile is divided by, is 0 in every trial"
        )
    profile = ThresholdProfile(
        lambdas=profile_grid,
        svt=svt_curves.mean(axis=0) / null_mean,
        ref=report.mspe["REF"] / null_mean,
        eiv=report.mspe["EIV"] / null_mean,
    )
    return CellResult(config=config, trials=reports, report=report, profile=profile)


def run_campaign(configs, workers: int = 1) -> list:
    """Run every trial of every cell, in campaign order, and aggregate each cell.

    Each trial predicts at its cell's evaluation points and sweeps the
    cell's profile grid with its own tuning grid (``evaluate_trial``).
    Trials are independent given their derived seeds, so with several
    workers every task ``(config, b)`` of the campaign runs on one pool
    of ``min(workers, trials)`` processes, each set up by
    ``settle_process`` as the CLI is. The outcomes are read one at a
    time, in campaign order, as they arrive; each goes into its cell's
    ``_TrialFold`` (a running average and spread, or for l1 and sup-norm
    responses one ``(trials, eval_points, ...)`` array per estimator)
    and is dropped before the next is read. The first failed trial
    raises its ``TrialFailure``, and trials not yet started are dropped;
    a worker that dies breaks the pool, and the first unread trial
    raises ``LostWorker``. A profile is divided by the null model's mean
    test error; where that is 0 (every response one point),
    ``FloatingPointError`` names the cell.
    """
    configs = list(configs)
    tasks = [(config, b) for config in configs for b in range(config.trials)]
    # A forked pool starts every worker at once, so never ask for more than there are trials.
    workers = min(workers, len(tasks))
    pool, broken_pool = None, ()  # a serial run has no pool and no dead worker to catch
    try:
        for config in configs:
            _cell_fixtures(config)  # before the pool starts, so that forked workers inherit the cache
        if workers > 1:
            # Imported here: loading the pool module (multiprocessing, sockets, ...) costs every process.
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool as broken_pool

            pool = ProcessPoolExecutor(max_workers=workers, initializer=settle_process)
            outcomes = pool.map(_run_trial, *zip(*tasks))
        else:
            outcomes = (_run_trial(config, b) for config, b in tasks)
        return [_fold_cell(config, outcomes, broken_pool) for config in configs]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # after a failure, trials not yet started never run
        _cell_fixtures.cache_clear()


def run_cell(config: SimConfig, workers: int = 1) -> CellResult:
    """Run every trial of one study cell and aggregate the results: the one-cell ``run_campaign``."""
    return run_campaign([config], workers)[0]
