"""Computable quantities behind the estimator's error bounds.

``diagnose`` turns the truncation-bias functional, the de-noising bound
and the weight-stability bound into the ten columns of
``diagnostics.csv`` for one clean/noisy pair of designs, in one pass
that computes each piece once. ``signal_floor``, ``snr_reciprocal``,
``bias_term``, ``rowspace_residual`` and ``weight_stability_check``
return single pieces, for the verification suite and the tests; they
share ``diagnose``'s private formulas. Everything reads the one thin SVD
that each design caches in ``Dataset.stats``. The threshold is always on
the estimator's scale (it truncates the covariance eigenvalues
``s**2 / n``), and ``kept_rank`` alone decides which components count,
exactly as in the fit. The raw covariates are read only for the noise
norm ``||Z - X||``, one SVD of the noise per call, so ``diagnose`` takes
three SVDs: of X, of Z and of Z - X.
"""

from __future__ import annotations

import numpy as np

from .linalg import spectral_norm
from .regression import CovariateStats, Dataset, FittedModel, check_queries, fit, kept_rank

ROWSPACE_RTOL = 1e-8


def _noise_norm(clean: Dataset, noisy: Dataset) -> float:
    """Spectral norm of the covariate noise ``Z - X``."""
    if noisy.covariates.shape != clean.covariates.shape:
        raise ValueError(f"shape mismatch: {clean.covariates.shape} vs {noisy.covariates.shape}")
    return spectral_norm(noisy.covariates - clean.covariates)


def _seminorm(stats: CovariateStats, v, lo: int, hi: int) -> float:
    """Covariance seminorm of ``v`` over the components ``lo .. hi - 1``."""
    coords = stats.centered_svd.right_t[lo:hi] @ v
    return float(np.sqrt(np.sum(coords * coords / stats.eigenvalues[lo:hi])))


def _residual(stats: CovariateStats, v, nonzero: int) -> float:
    v = np.asarray(v, dtype=float).ravel()
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    basis = stats.centered_svd.right_t[:nonzero]
    return float(np.linalg.norm(v - basis.T @ (basis @ v))) / norm


def rowspace_residual(stats: CovariateStats, v) -> float:
    """Relative residual of ``v`` against the centered design's row space.

    The row space is spanned by the components ``kept_rank(stats, 0)`` keeps.
    """
    return _residual(stats, v, int(kept_rank(stats, 0)))


def _floor(*fits: FittedModel) -> float:
    return min([np.inf] + [float(m.stats.centered_svd.values[m.rank - 1]) for m in fits if m.rank])


def signal_floor(clean: Dataset, noisy: Dataset, lam: float) -> float:
    """Smallest singular value the fit keeps, across both centered designs.

    ``inf`` when the threshold removes every component of both.
    """
    return _floor(fit(clean, lam), fit(noisy, lam))


def _snr(noise: float, floor: float) -> float:
    return 0.0 if noise == 0.0 or np.isinf(floor) else noise / floor


def snr_reciprocal(clean: Dataset, noisy: Dataset, lam: float) -> float:
    """Noise-to-retained-signal ratio ||Z - X|| / signal floor.

    Zero when noiseless; also zero (vacuous bound) when the floor is
    infinite, so callers should inspect the floor separately.
    """
    return _snr(_noise_norm(clean, noisy), signal_floor(clean, noisy, lam))


def _bias(stats: CovariateStats, v, kept: int, nonzero: int) -> float:
    if kept >= nonzero:
        return 0.0
    return float(np.sqrt(nonzero - kept) * _seminorm(stats, v, kept, nonzero))


def bias_term(stats: CovariateStats, lam: float, x) -> float:
    """Truncation bias sqrt(rank(D)) * ||x - mean||_D with D the removed part.

    ``D = cov - svt(cov, lam)`` collects the nonzero components that the
    threshold removes: those ``kept_rank(stats, 0)`` keeps but
    ``kept_rank(stats, lam)`` drops. Zero whenever the threshold sits
    below the smallest nonzero eigenvalue, and zero at the mean.
    """
    v = check_queries(stats, np.ravel(x))[0] - stats.mean
    return _bias(stats, v, int(kept_rank(stats, lam)), int(kept_rank(stats, 0)))


def _weight_bound(clean_fit: FittedModel, noisy_fit: FittedModel, q, snr: float, maha: float):
    gap = noisy_fit.weight_matrix(q)[:, 0] - clean_fit.weight_matrix(q)[:, 0]
    rhs = np.sqrt(clean_fit.stats.n) * snr * (2.0 * maha + 1.0)
    return float(np.linalg.norm(gap)), float(rhs)


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
    nonzero = int(kept_rank(stats, 0))
    resid = _residual(stats, v, nonzero)
    if resid > ROWSPACE_RTOL:
        raise ValueError(
            f"query point leaves the design row space (relative residual {resid:.3e})"
        )
    fits = fit(clean, lam), fit(noisy, lam)
    snr = _snr(_noise_norm(clean, noisy), _floor(*fits))
    return _weight_bound(*fits, q, snr, _seminorm(stats, v, 0, nonzero))


def diagnose(clean: Dataset, noisy: Dataset, lam: float, x) -> dict:
    """The ``diagnostics.csv`` columns for one clean/noisy pair at threshold ``lam`` and query ``x``.

    ``noisy`` holds the training responses on the noisy covariates. Each
    design is fitted once, and the noise norm, the signal floor, the SNR,
    the kept ranks, the covariance seminorm and the row-space residual
    are each computed once. The columns, in order:

    - ``b_lambda``: ``bias_term`` of the clean design;
    - ``snr_reciprocal``, ``noise_norm`` (``||Z - X||``) and
      ``signal_floor``, as their namesake functions return them;
    - ``rowspace_ok``: the centered query lies in the clean design's row
      space, the bounds' precondition; ``precondition_ok`` repeats it;
    - ``bound_rhs``: the de-noising bound

          ( noise/floor * (2 ||x - mean||_cov + 1)
            * (||d~|| + ||d||)/sqrt(n) )^(1/2)

      with ``d`` and ``d~`` the squared distances from each training
      response to the clean-fit and the noisy-fit predictions at the
      query; zero when noiseless and infinite when the threshold leaves
      no signal. Its growth constants are fixed at C = 1, alpha = 2 and
      D = inf, which hold for Euclidean, 1-D Wasserstein and correlation
      responses; for l1 and sup-norm responses the column carries no
      guarantee;
    - ``observed_lhs``: the distance between the noisy-fit and the
      clean-fit predictions, which the bound caps;
    - ``weight_lhs`` and ``weight_rhs``: ``weight_stability_check``, or
      ``nan`` when the query leaves the row space.
    """
    stats = clean.stats
    q = check_queries(stats, np.ravel(x))
    v = q[0] - stats.mean
    clean_fit, noisy_fit = fit(clean, lam), fit(noisy, lam)
    clean_pred, noisy_pred = clean_fit.predict(q), noisy_fit.predict(q)
    space = clean.space
    d_phi = space.distances_to(clean.responses, clean_pred) ** 2
    d_phi_tilde = space.distances_to(clean.responses, noisy_pred) ** 2
    noise = _noise_norm(clean, noisy)
    floor = _floor(clean_fit, noisy_fit)
    snr = _snr(noise, floor)
    nonzero = int(kept_rank(stats, 0))
    maha = _seminorm(stats, v, 0, nonzero)
    rowspace_ok = _residual(stats, v, nonzero) <= ROWSPACE_RTOL
    if noise == 0.0:
        rhs = 0.0
    elif np.isinf(floor):
        rhs = np.inf  # the threshold leaves no signal
    else:
        spread = np.linalg.norm(d_phi_tilde) + np.linalg.norm(d_phi)
        # Left to right as written: a regrouping moves the last bit.
        rhs = (snr * (2.0 * maha + 1.0) * spread / np.sqrt(clean.n)) ** 0.5
    nan = float("nan")
    weight_lhs, weight_rhs = _weight_bound(clean_fit, noisy_fit, q, snr, maha) if rowspace_ok else (nan, nan)
    return {
        "b_lambda": _bias(stats, v, clean_fit.rank, nonzero),
        "snr_reciprocal": snr,
        "noise_norm": noise,
        "signal_floor": floor,
        "rowspace_ok": rowspace_ok,
        "precondition_ok": rowspace_ok,
        "bound_rhs": float(rhs),
        "observed_lhs": float(space.distance(noisy_pred, clean_pred)),
        "weight_lhs": weight_lhs,
        "weight_rhs": weight_rhs,
    }
