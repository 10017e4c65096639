"""Computable quantities behind the estimator's error bounds.

These functions turn the truncation-bias functional, the de-noising
bound, and the weight-stability bound into numbers that can be checked
on data. They take the clean and the noisy ``Dataset`` and read the one
thin SVD that each design caches in ``Dataset.stats``. The threshold is
always on the estimator's scale (it truncates the covariance eigenvalues
``s**2 / n``), and ``kept_rank`` alone decides which components count,
exactly as in the fit. The raw covariates are read only for the noise
norm ``||Z - X||``, which takes one SVD of the noise per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm
from .regression import CovariateStats, Dataset, check_queries, fit, kept_rank

ROWSPACE_RTOL = 1e-8


@dataclass(frozen=True)
class GrowthConstants:
    """Curvature constants of the response space's risk landscape.

    Defaults hold for Euclidean, 1-D Wasserstein, and correlation-matrix
    responses. An infinite ``d_growth`` removes the query-radius
    precondition from the de-noising bound.
    """

    c_growth: float = 1.0
    alpha: float = 2.0
    d_growth: float = np.inf

    def __post_init__(self):
        if self.c_growth <= 0:
            raise ValueError("c_growth must be positive")
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if self.d_growth <= 0:
            raise ValueError("d_growth must be positive")


@dataclass(frozen=True)
class DenoisingReport:
    """Inputs and output of the covariate de-noising bound."""

    noise_norm: float
    signal_floor: float
    precondition_ok: bool
    bound_rhs: float
    observed_lhs: float


def _noise_norm(clean: Dataset, noisy: Dataset) -> float:
    """Spectral norm of the covariate noise ``Z - X``."""
    if noisy.covariates.shape != clean.covariates.shape:
        raise ValueError(f"shape mismatch: {clean.covariates.shape} vs {noisy.covariates.shape}")
    return spectral_norm(noisy.covariates - clean.covariates)


def _centered_query(stats: CovariateStats, x) -> np.ndarray:
    return check_queries(stats, np.ravel(x))[0] - stats.mean


def _seminorm(stats: CovariateStats, v, lo: int, hi: int) -> float:
    """Covariance seminorm of ``v`` over the components ``lo .. hi - 1``."""
    coords = stats.centered_svd.right_t[lo:hi] @ v
    return float(np.sqrt(np.sum(coords * coords / stats.eigenvalues[lo:hi])))


def rowspace_residual(stats: CovariateStats, v) -> float:
    """Relative residual of ``v`` against the centered design's row space.

    The row space is spanned by the components ``kept_rank(stats, 0)`` keeps.
    """
    v = np.asarray(v, dtype=float).ravel()
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    basis = stats.centered_svd.right_t[: int(kept_rank(stats, 0))]
    return float(np.linalg.norm(v - basis.T @ (basis @ v))) / norm


def signal_floor(clean: Dataset, noisy: Dataset, lam: float) -> float:
    """Smallest singular value the fit keeps, across both centered designs.

    ``inf`` when the threshold removes every component of both.
    """
    floors = [np.inf]
    for stats in (clean.stats, noisy.stats):
        k = int(kept_rank(stats, lam))
        if k:
            floors.append(float(stats.centered_svd.values[k - 1]))
    return min(floors)


def snr_reciprocal(clean: Dataset, noisy: Dataset, lam: float) -> float:
    """Noise-to-retained-signal ratio ||Z - X|| / signal floor.

    Zero when noiseless; also zero (vacuous bound) when the floor is
    infinite, so callers should inspect the floor separately.
    """
    noise = _noise_norm(clean, noisy)
    if noise == 0.0:
        return 0.0
    floor = signal_floor(clean, noisy, lam)
    return 0.0 if np.isinf(floor) else noise / floor


def bias_term(stats: CovariateStats, lam: float, x) -> float:
    """Truncation bias sqrt(rank(D)) * ||x - mean||_D with D the removed part.

    ``D = cov - svt(cov, lam)`` collects the nonzero components that the
    threshold removes: those ``kept_rank(stats, 0)`` keeps but
    ``kept_rank(stats, lam)`` drops. Zero whenever the threshold sits
    below the smallest nonzero eigenvalue, and zero at the mean.
    """
    v = _centered_query(stats, x)
    kept, nonzero = int(kept_rank(stats, lam)), int(kept_rank(stats, 0))
    if kept >= nonzero:
        return 0.0
    return float(np.sqrt(nonzero - kept) * _seminorm(stats, v, kept, nonzero))


def weight_stability_check(clean: Dataset, noisy: Dataset, lam: float, x) -> tuple[float, float]:
    """Observed and bounding weight discrepancy under covariate noise.

    Returns ``(lhs, rhs)`` where ``lhs`` is the l2 distance between the
    clean and noisy weight vectors at the query and ``rhs`` is
    ``sqrt(n) ||Z - X|| / floor * (2 ||x - mean||_cov + 1)``. Requires
    the centered query to lie in the row space of the centered design.
    """
    stats = clean.stats
    q = check_queries(stats, np.ravel(x))
    v = q[0] - stats.mean
    resid = rowspace_residual(stats, v)
    if resid > ROWSPACE_RTOL:
        raise ValueError(
            f"query point leaves the design row space (relative residual {resid:.3e})"
        )
    maha = _seminorm(stats, v, 0, int(kept_rank(stats, 0)))
    rhs = np.sqrt(stats.n) * snr_reciprocal(clean, noisy, lam) * (2.0 * maha + 1.0)
    gap = fit(noisy, lam).weight_matrix(q)[:, 0] - fit(clean, lam).weight_matrix(q)[:, 0]
    return float(np.linalg.norm(gap)), float(rhs)


def denoising_bound(
    clean: Dataset,
    noisy: Dataset,
    lam: float,
    x,
    constants: GrowthConstants,
    dist_phi,
    dist_phi_tilde,
    observed_lhs: float = np.nan,
    diameter: float | None = None,
) -> DenoisingReport:
    """Evaluate the covariate de-noising bound at a query point.

    ``dist_phi`` and ``dist_phi_tilde`` are the squared distances from
    each training response to the clean-fit and noisy-fit predictions at
    the query. The bound right-hand side is

        ( noise/floor * (2 ||x - mean||_cov + 1)/c_growth
          * (||d~|| + ||d||)/sqrt(n) )^(1/alpha)

    reported as infinite when the threshold leaves no signal. The
    precondition flag records row-space membership of the query and,
    for finite ``d_growth`` (requires ``diameter``), the query-radius
    condition.
    """
    d_phi = np.asarray(dist_phi, dtype=float).ravel()
    d_phi_tilde = np.asarray(dist_phi_tilde, dtype=float).ravel()
    n = clean.n
    if d_phi.size != n or d_phi_tilde.size != n:
        raise ValueError("squared-distance vectors must have one entry per sample")

    stats = clean.stats
    v = _centered_query(stats, x)
    noise = _noise_norm(clean, noisy)
    floor = signal_floor(clean, noisy, lam)
    maha = _seminorm(stats, v, 0, int(kept_rank(stats, 0)))

    in_rowspace = rowspace_residual(stats, v) <= ROWSPACE_RTOL
    if np.isinf(constants.d_growth):
        radius_ok = True
    else:
        if diameter is None:
            raise ValueError("finite d_growth requires the space diameter")
        cap = 0.5 * (
            constants.c_growth
            * constants.d_growth**constants.alpha
            / (2.0 * diameter)
            * (floor / noise if noise > 0.0 else np.inf)
            - 1.0
        )
        radius_ok = maha <= cap

    if noise == 0.0:
        rhs = 0.0
    elif np.isinf(floor):
        rhs = np.inf
    else:
        rhs = (
            noise
            / floor
            * (2.0 * maha + 1.0)
            / constants.c_growth
            * (np.linalg.norm(d_phi_tilde) + np.linalg.norm(d_phi))
            / np.sqrt(n)
        ) ** (1.0 / constants.alpha)

    return DenoisingReport(
        noise_norm=float(noise),
        signal_floor=float(floor),
        precondition_ok=bool(in_rowspace and radius_ok),
        bound_rhs=float(rhs),
        observed_lhs=float(observed_lhs),
    )


def denoising_report_for(
    train: Dataset,
    noisy: Dataset,
    lam: float,
    x,
    constants: GrowthConstants = GrowthConstants(),
    diameter: float | None = None,
) -> DenoisingReport:
    """Fit on the clean and the noisy design and evaluate the bound end to end.

    ``noisy`` holds the training responses on the noisy covariates.
    """
    clean_pred = fit(train, lam).predict(x)
    noisy_pred = fit(noisy, lam).predict(x)
    space = train.space
    d_phi = space.distances_to(train.responses, clean_pred) ** 2
    d_phi_tilde = space.distances_to(train.responses, noisy_pred) ** 2
    return denoising_bound(
        train,
        noisy,
        lam,
        x,
        constants,
        d_phi,
        d_phi_tilde,
        observed_lhs=space.distance(noisy_pred, clean_pred),
        diameter=diameter,
    )
