"""Computable quantities behind the estimator's error bounds.

These functions turn the truncation-bias functional, the de-noising
bound, and the weight-stability bound into numbers that can be checked
on data. The threshold argument is always on the estimator's scale (it
truncates eigenvalues of the covariate covariance); when a bound needs
the spectrum of the centered design matrix, the equivalent design-scale
threshold sqrt(n * lam) is used, which retains exactly the same
components since eigenvalues are squared singular values over n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RANK_RTOL,
    mahalanobis_seminorm,
    row_projection,
    sigma_lambda,
    spectral_norm,
    symmetrize,
)
from .metric_spaces import EuclideanSpace
from .regression import CovariateStats, Dataset, FittedModel, covariate_stats, fit

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


def design_scale_threshold(lam: float, n: int) -> float:
    """Map a covariance-eigenvalue threshold to the design-matrix scale."""
    return float(np.sqrt(n * lam))


def rowspace_residual(stats: CovariateStats, v) -> float:
    """Relative residual of ``v`` against the centered design's row space."""
    v = np.asarray(v, dtype=float).ravel()
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    proj = row_projection(stats.centered)
    return float(np.linalg.norm(v - proj @ v)) / norm


def signal_floor(x_mat, z_mat, lam: float) -> float:
    """Smallest retained singular value across both centered designs.

    ``inf`` when the threshold removes every component of both.
    """
    xs = covariate_stats(x_mat)
    zs = covariate_stats(z_mat)
    lam_sv = design_scale_threshold(lam, xs.n)
    return min(
        sigma_lambda(xs.centered, lam_sv),
        sigma_lambda(zs.centered, lam_sv),
    )


def snr_reciprocal(x_mat, z_mat, lam: float) -> float:
    """Noise-to-retained-signal ratio ||Z - X|| / signal floor.

    Zero when noiseless; also zero (vacuous bound) when the floor is
    infinite, so callers should inspect the floor separately.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    z_mat = np.asarray(z_mat, dtype=float)
    if x_mat.shape != z_mat.shape:
        raise ValueError(f"shape mismatch: {x_mat.shape} vs {z_mat.shape}")
    noise = spectral_norm(z_mat - x_mat)
    if noise == 0.0:
        return 0.0
    floor = signal_floor(x_mat, z_mat, lam)
    if not np.isfinite(floor):
        return 0.0
    return noise / floor


def bias_term(sigma, mu, lam: float, x) -> float:
    """Truncation bias sqrt(rank(D)) * ||x - mu||_D with D the removed part.

    ``D = sigma - svt(sigma, lam)`` collects the eigencomponents at or
    below the threshold; computed directly from the spectrum of ``sigma``
    so nearly cancelled retained components cannot pollute the rank.
    Zero whenever the threshold sits below the smallest nonzero
    eigenvalue, and zero at ``x = mu``.
    """
    a = symmetrize(sigma)
    v = np.asarray(x, dtype=float).ravel() - np.asarray(mu, dtype=float).ravel()
    if v.size != a.shape[0]:
        raise ValueError("dimension mismatch between sigma and x - mu")
    w, q = np.linalg.eigh(a)
    top = w[-1] if w.size else 0.0
    if top <= 0.0:
        return 0.0
    removed = (w > RANK_RTOL * top) & (w <= lam)
    rank = int(np.count_nonzero(removed))
    if rank == 0:
        return 0.0
    coords = q.T[removed] @ v
    seminorm_sq = float(np.sum(coords * coords / w[removed]))
    return float(np.sqrt(rank) * np.sqrt(max(seminorm_sq, 0.0)))


def _weight_model(design, lam: float) -> FittedModel:
    """A fit whose only use is ``weight_matrix``; the weights never read the responses."""
    return fit(Dataset(design, np.zeros(len(design)), EuclideanSpace()), lam)


def weight_stability_check(x_mat, z_mat, lam: float, x) -> tuple[float, float]:
    """Observed and bounding weight discrepancy under covariate noise.

    Returns ``(lhs, rhs)`` where ``lhs`` is the l2 distance between the
    clean and noisy weight vectors at the query and ``rhs`` is
    ``sqrt(n) ||Z - X|| / floor * (2 ||x - mean||_cov + 1)``. Requires
    the centered query to lie in the row space of the centered design.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    z_mat = np.asarray(z_mat, dtype=float)
    if x_mat.shape != z_mat.shape:
        raise ValueError(f"shape mismatch: {x_mat.shape} vs {z_mat.shape}")
    clean, noisy = _weight_model(x_mat, lam), _weight_model(z_mat, lam)
    xs = clean.stats
    query = np.asarray(x, dtype=float).ravel()
    resid = rowspace_residual(xs, query - xs.mean)
    if resid > ROWSPACE_RTOL:
        raise ValueError(
            f"query point leaves the design row space (relative residual {resid:.3e})"
        )
    q = query[None]
    lhs = float(np.linalg.norm(noisy.weight_matrix(q)[:, 0] - clean.weight_matrix(q)[:, 0]))
    noise = spectral_norm(z_mat - x_mat)
    if noise == 0.0:
        return lhs, 0.0
    floor = signal_floor(x_mat, z_mat, lam)
    if not np.isfinite(floor):
        return lhs, 0.0
    maha = mahalanobis_seminorm(query - xs.mean, xs.covariance)
    rhs = np.sqrt(xs.n) * noise / floor * (2.0 * maha + 1.0)
    return lhs, float(rhs)


def denoising_bound(
    x_mat,
    z_mat,
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
    x_mat = np.asarray(x_mat, dtype=float)
    z_mat = np.asarray(z_mat, dtype=float)
    if x_mat.shape != z_mat.shape:
        raise ValueError(f"shape mismatch: {x_mat.shape} vs {z_mat.shape}")
    d_phi = np.asarray(dist_phi, dtype=float).ravel()
    d_phi_tilde = np.asarray(dist_phi_tilde, dtype=float).ravel()
    n = x_mat.shape[0]
    if d_phi.size != n or d_phi_tilde.size != n:
        raise ValueError("squared-distance vectors must have one entry per sample")

    xs = covariate_stats(x_mat)
    query = np.asarray(x, dtype=float).ravel()
    noise = spectral_norm(z_mat - x_mat)
    floor = signal_floor(x_mat, z_mat, lam)
    maha = mahalanobis_seminorm(query - xs.mean, xs.covariance)

    in_rowspace = rowspace_residual(xs, query - xs.mean) <= ROWSPACE_RTOL
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
    elif not np.isfinite(floor) or floor == 0.0:
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
    noisy_covariates,
    lam: float,
    x,
    constants: GrowthConstants = GrowthConstants(),
    diameter: float | None = None,
) -> DenoisingReport:
    """Fit on clean and noisy covariates and evaluate the bound end to end."""
    noisy = Dataset(covariates=noisy_covariates, responses=train.responses, space=train.space)
    clean_pred = fit(train, lam).predict(x)
    noisy_pred = fit(noisy, lam).predict(x)
    space = train.space
    d_phi = space.distances_to(train.responses, clean_pred) ** 2
    d_phi_tilde = space.distances_to(train.responses, noisy_pred) ** 2
    return denoising_bound(
        train.covariates,
        noisy.covariates,
        lam,
        x,
        constants,
        d_phi,
        d_phi_tilde,
        observed_lhs=space.distance(noisy_pred, clean_pred),
        diameter=diameter,
    )
