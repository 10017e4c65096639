"""Computable quantities behind the estimator's error bounds.

``diagnose`` turns the truncation-bias functional, the de-noising bound
and the weight-stability bound into the ten columns of
``diagnostics.csv`` for one clean/noisy pair of designs, in one pass
that computes each piece once. Its weight columns come from
``weight_stability_check``, which fits both designs at a list of
thresholds but predicts nothing; the verification suite reads a pair's
weight columns at all its thresholds from one such call. Everything
reads the one thin SVD that each design caches in ``Dataset.stats``.
The threshold is always on the estimator's scale (it truncates the
covariance eigenvalues ``s**2 / n``), and ``kept_rank`` alone decides
which components count, exactly as in the fit. The raw covariates are
read only for the noise norm ``||Z - X||``, one SVD of the noise per
pair, however many thresholds, which the caller takes and hands to the
check, so ``diagnose`` takes three SVDs: of X, of Z and of Z - X.
``diagnose`` builds the noisy design with ``Dataset.with_covariates``,
so both designs hold one response array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm
from .regression import CovariateStats, Dataset, FittedModel, check_queries, fit, kept_rank, raising

ROWSPACE_RTOL = 1e-8


def _seminorm(stats: CovariateStats, v, lo: int, hi: int) -> float:
    """Covariance seminorm of ``v`` over the components ``lo .. hi - 1``."""
    coords = stats.centered_svd.right_t[lo:hi] @ v
    return float(np.sqrt(np.sum(coords * coords / stats.eigenvalues[lo:hi])))


@dataclass(frozen=True)
class WeightStability:
    """The weight-stability columns and the pieces ``diagnose`` shares with them; no prediction is made.

    ``offset`` is the centered query ``x - mean`` of the checked query row
    ``query``, ``nonzero`` the components ``kept_rank(stats, 0)`` keeps and
    ``cov_norm`` the seminorm ``||x - mean||_cov`` over them.
    """

    clean_fit: FittedModel
    noisy_fit: FittedModel
    query: np.ndarray
    offset: np.ndarray
    signal_floor: float
    snr_reciprocal: float
    nonzero: int
    cov_norm: float
    rowspace_ok: bool
    weight_lhs: float
    weight_rhs: float


@raising
def weight_stability_check(clean: Dataset, noisy: Dataset, lams, x, noise: float) -> list:
    """Both fits and the weight-stability columns at query ``x``: one ``WeightStability`` per threshold of ``lams``.

    The one route to ``diagnose``'s ``signal_floor``, ``snr_reciprocal``,
    ``rowspace_ok``, ``weight_lhs`` and ``weight_rhs`` (defined there), and
    the verification suite's weight-stability check. ``noise`` is the
    pair's noise norm ``||Z - X||``, which the caller computes once; the
    query, seminorm and row-space residual are computed once here. Neither
    fit predicts, so the responses are never read.
    """
    stats = clean.stats
    q = check_queries(stats.p, np.ravel(x))
    v = q[0] - stats.mean
    fits = [(fit(clean, lam), fit(noisy, lam)) for lam in lams]
    nonzero = int(kept_rank(stats, 0))
    cov_norm = _seminorm(stats, v, 0, nonzero)
    basis = stats.centered_svd.right_t[:nonzero]
    v_norm = float(np.linalg.norm(v))
    resid = float(np.linalg.norm(v - basis.T @ (basis @ v))) / v_norm if v_norm else 0.0
    rowspace_ok = resid <= ROWSPACE_RTOL
    checks = []
    for clean_fit, noisy_fit in fits:
        kept = [m.data.stats.centered_svd.values[m.rank - 1] for m in (clean_fit, noisy_fit) if m.rank]
        floor = min([np.inf] + [float(s) for s in kept])
        snr = 0.0 if noise == 0.0 or np.isinf(floor) else noise / floor
        weight_lhs = weight_rhs = float("nan")
        if rowspace_ok:
            gap = noisy_fit.weight_matrix(q)[:, 0] - clean_fit.weight_matrix(q)[:, 0]
            weight_lhs = float(np.linalg.norm(gap))
            weight_rhs = float(np.sqrt(stats.n) * snr * (2.0 * cov_norm + 1.0))
        checks.append(WeightStability(clean_fit, noisy_fit, q, v, floor, snr, nonzero, cov_norm,
                                      rowspace_ok, weight_lhs, weight_rhs))
    return checks


@raising
def diagnose(clean: Dataset, z, lam: float, x) -> dict:
    """The ``diagnostics.csv`` columns of ``clean`` and its noisy covariates ``z`` at threshold ``lam`` and query ``x``.

    The noisy design is ``clean.with_covariates(z)``, the training
    responses on ``z``, so a ``z`` of another shape raises ``ValueError``.
    The noise norm is computed once, here; each design is fitted once, and
    the signal floor, the SNR, the kept ranks, the covariance seminorm and
    the row-space residual are each computed once, by
    ``weight_stability_check``.
    The columns, in order:

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
    noisy = clean.with_covariates(z)
    noise = spectral_norm(noisy.covariates - clean.covariates)
    (w,) = weight_stability_check(clean, noisy, [lam], x, noise)
    stats, v, space = clean.stats, w.offset, clean.space
    clean_pred, noisy_pred = w.clean_fit.predict(w.query), w.noisy_fit.predict(w.query)
    d_phi = space.distances_to(clean.responses, clean_pred) ** 2
    d_phi_tilde = space.distances_to(clean.responses, noisy_pred) ** 2
    if noise == 0.0:
        rhs = 0.0
    elif np.isinf(w.signal_floor):
        rhs = np.inf  # the threshold leaves no signal
    else:
        spread = np.linalg.norm(d_phi_tilde) + np.linalg.norm(d_phi)
        # Left to right as written: a regrouping moves the last bit.
        rhs = (w.snr_reciprocal * (2.0 * w.cov_norm + 1.0) * spread / np.sqrt(clean.n)) ** 0.5
    kept, nonzero = w.clean_fit.rank, w.nonzero
    bias = 0.0 if kept >= nonzero else float(np.sqrt(nonzero - kept) * _seminorm(stats, v, kept, nonzero))
    return {
        "b_lambda": bias,
        "snr_reciprocal": w.snr_reciprocal,
        "noise_norm": noise,
        "signal_floor": w.signal_floor,
        "rowspace_ok": w.rowspace_ok,
        "precondition_ok": w.rowspace_ok,
        "bound_rhs": float(rhs),
        "observed_lhs": float(space.distance(noisy_pred, clean_pred)),
        "weight_lhs": w.weight_lhs,
        "weight_rhs": w.weight_rhs,
    }
