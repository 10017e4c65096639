"""Computable quantities behind the estimator's error bounds.

``diagnose`` turns the truncation-bias functional, the de-noising bound
and the weight-stability bound into the ten columns of
``diagnostics.csv`` for one clean/noisy pair of designs, in one pass
that computes each piece once; the verification suite and the tests read
the same columns. Everything reads the one thin SVD that each design
caches in ``Dataset.stats``. The threshold is always on the estimator's
scale (it truncates the covariance eigenvalues ``s**2 / n``), and
``kept_rank`` alone decides which components count, exactly as in the
fit. The raw covariates are read only for the noise norm ``||Z - X||``,
one SVD of the noise per call, so ``diagnose`` takes three SVDs: of X,
of Z and of Z - X.
"""

from __future__ import annotations

import numpy as np

from .linalg import spectral_norm
from .regression import CovariateStats, Dataset, check_queries, fit, kept_rank, raising

ROWSPACE_RTOL = 1e-8


def _seminorm(stats: CovariateStats, v, lo: int, hi: int) -> float:
    """Covariance seminorm of ``v`` over the components ``lo .. hi - 1``."""
    coords = stats.centered_svd.right_t[lo:hi] @ v
    return float(np.sqrt(np.sum(coords * coords / stats.eigenvalues[lo:hi])))


@raising
def diagnose(clean: Dataset, noisy: Dataset, lam: float, x) -> dict:
    """The ``diagnostics.csv`` columns for one clean/noisy pair at threshold ``lam`` and query ``x``.

    ``noisy`` holds the training responses on the noisy covariates; a
    pair whose shapes or responses differ raises ``ValueError``. Each
    design is fitted once, and the noise norm, the signal floor, the SNR,
    the kept ranks, the covariance seminorm and the row-space residual
    are each computed once. The columns, in order:

    - ``b_lambda``: the truncation bias ``sqrt(rank(D)) * ||x - mean||_D``
      of the clean design, with ``D = cov - svt(cov, lam)`` the nonzero
      components that ``kept_rank(stats, 0)`` keeps but
      ``kept_rank(stats, lam)`` drops; zero whenever the threshold sits
      below the smallest nonzero eigenvalue, and zero at the mean;
    - ``snr_reciprocal``: ``noise_norm / signal_floor``, zero when
      noiseless and also zero (a vacuous bound) when the floor is
      infinite;
    - ``noise_norm``: ``||Z - X||``;
    - ``signal_floor``: the smallest singular value the fit keeps across
      both centered designs, ``inf`` when it keeps none;
    - ``rowspace_ok``: the centered query lies in the clean design's row
      space (relative residual at most ``ROWSPACE_RTOL`` against the
      components ``kept_rank(stats, 0)`` keeps), the bounds'
      precondition; ``precondition_ok`` repeats it;
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
    - ``weight_lhs`` and ``weight_rhs``: the l2 distance between the
      clean and the noisy weight vectors at the query, and its bound
      ``sqrt(n) * snr_reciprocal * (2 ||x - mean||_cov + 1)``; ``nan``
      when the query leaves the row space.
    """
    if noisy.covariates.shape != clean.covariates.shape:
        raise ValueError(f"shape mismatch: {clean.covariates.shape} vs {noisy.covariates.shape}")
    if not np.array_equal(clean.responses, noisy.responses):
        raise ValueError("the clean and the noisy designs must hold the same responses")
    stats = clean.stats
    q = check_queries(stats, np.ravel(x))
    v = q[0] - stats.mean
    clean_fit, noisy_fit = fit(clean, lam), fit(noisy, lam)
    clean_pred, noisy_pred = clean_fit.predict(q), noisy_fit.predict(q)
    space = clean.space
    d_phi = space.distances_to(clean.responses, clean_pred) ** 2
    d_phi_tilde = space.distances_to(clean.responses, noisy_pred) ** 2
    noise = spectral_norm(noisy.covariates - clean.covariates)
    floor = min([np.inf] + [float(m.stats.centered_svd.values[m.rank - 1]) for m in (clean_fit, noisy_fit) if m.rank])
    snr = 0.0 if noise == 0.0 or np.isinf(floor) else noise / floor
    nonzero = int(kept_rank(stats, 0))
    maha = _seminorm(stats, v, 0, nonzero)
    basis = stats.centered_svd.right_t[:nonzero]
    v_norm = float(np.linalg.norm(v))
    resid = float(np.linalg.norm(v - basis.T @ (basis @ v))) / v_norm if v_norm else 0.0
    rowspace_ok = resid <= ROWSPACE_RTOL
    if noise == 0.0:
        rhs = 0.0
    elif np.isinf(floor):
        rhs = np.inf  # the threshold leaves no signal
    else:
        spread = np.linalg.norm(d_phi_tilde) + np.linalg.norm(d_phi)
        # Left to right as written: a regrouping moves the last bit.
        rhs = (snr * (2.0 * maha + 1.0) * spread / np.sqrt(clean.n)) ** 0.5
    kept = clean_fit.rank
    bias = 0.0 if kept >= nonzero else float(np.sqrt(nonzero - kept) * _seminorm(stats, v, kept, nonzero))
    weight_lhs = weight_rhs = float("nan")
    if rowspace_ok:
        gap = noisy_fit.weight_matrix(q)[:, 0] - clean_fit.weight_matrix(q)[:, 0]
        weight_lhs = float(np.linalg.norm(gap))
        weight_rhs = float(np.sqrt(stats.n) * snr * (2.0 * maha + 1.0))
    return {
        "b_lambda": bias,
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
