"""Random-instance verification of the matrix identities and bounds.

Exact identities (pseudoinverse axioms, projection properties, the
pseudoinverse perturbation identity) must hold to roundoff on every
instance, including rank-deficient ones; the perturbation and
weight-stability bounds must never be violated. Instance ``i`` draws one
matrix pair from ``default_rng([seed, i])`` and takes one thin SVD of X
and one of Z, and forms each one's pseudoinverse once, which every check
reads: the threshold probes' truncated matrices are rebuilt from X's
triplets, and each distinct one is factored on its own. Only the rank
check takes a values-only SVD of X again, as an independent rank. The
weight-stability check draws from a fresh generator of the same seed,
takes one SVD of the noise for the shared-gap thresholds and the check,
and reads ``diagnose``'s weight columns at all those thresholds from one
``diagnostics.weight_stability_check`` call (no prediction); a query
that leaves the row space fails it with an infinite margin. The
fault-injection switch deliberately corrupts one identity so the harness
can prove it would catch a regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import weight_stability_check
from .linalg import (
    SvdFactors,
    compute_svd,
    numerical_rank,
    pinv_perturbation_residual,
    spectral_norm,
)
from .metric_spaces import EuclideanSpace
from .regression import CovariateStats, Dataset, kept_rank

IDENTITY_TOL = 1e-8
GAP_MARGIN = 5.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    worst: float
    limit: float
    passed: bool
    failing_seed: int | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{status}  {self.name}: worst={self.worst:.3e} limit={self.limit:.3e} instances={self.instances}"
        if self.failing_seed is not None:
            out += f" failing_seed={self.failing_seed}"
        return out


def _random_instance(rng):
    """A matrix pair (X, Z = X + noise) with assorted shapes and ranks."""
    n = int(rng.integers(3, 13))
    p = int(rng.integers(2, 11))
    style = int(rng.integers(0, 3))
    if style == 0:
        x = rng.standard_normal((n, p))
    elif style == 1:
        r = int(rng.integers(1, min(n, p) + 1))
        x = rng.standard_normal((n, r)) @ rng.standard_normal((r, p))
    else:
        x = rng.standard_normal((n, p))
        x[:, -1] = x[:, 0]  # exact column collinearity
    scale = float(rng.choice([1e-3, 1e-1, 1.0]))
    z = x + scale * rng.standard_normal((n, p))
    return x, z


def _lambda_probes(s) -> list:
    """Thresholds for kept singular values ``s``: zero, between the top two, below all.

    None above all: that truncation is the zero matrix, whose residual is exactly 0.
    """
    probes = [0.0]
    if s.size >= 2:
        probes.append(float(np.sqrt(s[0] * s[1])))
    if s.size:
        probes.append(float(s[-1] / 2))
    return probes


def _moore_penrose_residual(x, xp) -> float:
    scale = 1.0 + np.linalg.norm(x, "fro") + np.linalg.norm(xp, "fro")
    res = max(
        np.linalg.norm(x @ xp @ x - x, "fro"),
        np.linalg.norm(xp @ x @ xp - xp, "fro"),
        np.linalg.norm((x @ xp) - (x @ xp).T, "fro"),
        np.linalg.norm((xp @ x) - (xp @ x).T, "fro"),
    )
    return float(res / scale)


def _projection_residual(x, fx: SvdFactors) -> float:
    # the rank from a values-only SVD, independent of the factors under test
    rank = numerical_rank(x)
    worst = 0.0
    for proj in (fx.row_projection(), fx.col_projection()):
        worst = max(
            worst,
            float(np.linalg.norm(proj @ proj - proj, "fro")),
            float(np.linalg.norm(proj - proj.T, "fro")),
            abs(rank - round(float(np.trace(proj)))),
        )
    return worst


def _projection_identity_residual(x, xp, full: SvdFactors, fx: SvdFactors) -> float:
    scale = 1.0 + np.linalg.norm(xp, "fro")
    worst = 0.0
    # From all of X's triplets, as lam = 0 keeps those below the rank cutoff; probes can truncate alike.
    truncations = {t.tobytes(): t for t in (full.truncated(lam) for lam in _lambda_probes(fx.values))}
    for t in truncations.values():
        # each distinct truncated matrix is factored once, on its own, or the identity would test nothing
        ft = compute_svd(t).kept()
        rows, cols = ft.row_projection(), ft.col_projection()
        res1 = np.linalg.norm(x @ rows @ xp - cols, "fro")
        res2 = np.linalg.norm(xp @ cols @ x - rows, "fro")
        worst = max(worst, float(res1 / scale), float(res2 / scale))
    return worst


def _pinv_perturbation(x, z, xp, zp, fault: bool = False) -> float:
    res = pinv_perturbation_residual(x, z, xp, zp)
    if fault:
        res += 1e-3
    scale = 1.0 + np.linalg.norm(xp, "fro") + np.linalg.norm(zp, "fro")
    return float(res / scale)


def _projection_perturbation_margin(x, z, xp, zp, fx: SvdFactors, fz: SvdFactors) -> float:
    lhs = spectral_norm(fz.col_projection() - fx.col_projection())
    e = z - x
    rhs = max(spectral_norm(e @ xp), spectral_norm(e @ zp))
    return float(max(lhs - rhs, 0.0) / (1.0 + rhs))


def shared_gap_thresholds(stats: CovariateStats, noise_norm: float) -> list:
    """Covariance-scale thresholds whose design-scale images sit in
    spectral gaps of the centered design, at least ``GAP_MARGIN`` times
    the noise norm away from every singular value the design keeps.

    By Weyl's inequality the noisy design's singular values move by at
    most the noise norm, so both designs retain identical components at
    these thresholds and the stability bounds provably apply.
    """
    s = stats.centered_svd.values[: int(kept_rank(stats, 0))]
    if not s.size:
        return []
    candidates = [2.0 * s[0] + GAP_MARGIN * noise_norm]
    # mid-signal gaps only where the bracketing values are well separated;
    # near-ties make the retained subspace hypersensitive to the noise
    candidates += [(a + b) / 2 for a, b in zip(s[:-1], s[1:]) if b <= a / 2]
    candidates.append(s[-1] / 2)
    out = []
    for c in candidates:
        if c <= GAP_MARGIN * noise_norm:  # too close to the noise bulk
            continue
        if np.min(np.abs(s - c)) <= GAP_MARGIN * noise_norm:  # too close to the spectrum
            continue
        out.append(float(c**2 / stats.n))
    return out


def _weight_stability_margin(rng) -> float:
    # The bound requires the threshold to retain the same components of
    # the clean and noisy designs, so thresholds come from shared gaps.
    n = int(rng.integers(6, 16))
    p = int(rng.integers(2, 8))
    r = int(rng.integers(1, p + 1))
    x = rng.standard_normal((n, r)) @ rng.standard_normal((r, p))
    noise = 1e-3 * rng.standard_normal((n, p))
    # the weights never read the responses
    clean = Dataset(x, np.zeros(n), EuclideanSpace())
    noisy = clean.with_covariates(x + noise)
    stats = clean.stats
    coeff = rng.standard_normal(n)
    query = stats.mean + (x - stats.mean).T @ coeff / n  # stays in the design row space
    noise_norm = spectral_norm(noisy.covariates - clean.covariates)
    checks = weight_stability_check(clean, noisy, shared_gap_thresholds(stats, noise_norm), query, noise_norm)
    if checks and not checks[0].rowspace_ok:
        return np.inf  # the bound's precondition failed: a failure, never a skipped instance
    return float(max([0.0] + [(c.weight_lhs - c.weight_rhs) / (1.0 + c.weight_rhs) for c in checks]))


# (name, limit) of each check, in the order of _instance_residuals.
_CHECKS = (
    ("moore-penrose identities", IDENTITY_TOL),
    ("projection idempotence/symmetry/rank", IDENTITY_TOL),
    ("truncated projection identities", IDENTITY_TOL),
    ("pseudoinverse perturbation identity", IDENTITY_TOL),
    ("projection perturbation bound", 1e-10),
    ("weight stability bound", 1e-10),
)


def _instance_residuals(seed: int, i: int, inject_fault: bool) -> list:
    """Every check's residual on instance ``i``, in the order of ``_CHECKS``."""
    x, z = _random_instance(np.random.default_rng([seed, i]))
    full = compute_svd(x)
    fx, fz = full.kept(), compute_svd(z).kept()
    xp, zp = fx.pinv(), fz.pinv()
    return [
        _moore_penrose_residual(x, xp),
        _projection_residual(x, fx),
        _projection_identity_residual(x, xp, full, fx),
        _pinv_perturbation(x, z, xp, zp, fault=inject_fault),
        _projection_perturbation_margin(x, z, xp, zp, fx, fz),
        _weight_stability_margin(np.random.default_rng([seed, i])),
    ]


def run_suite(seed: int, instances: int = 100, inject_fault: bool = False) -> list:
    """Run every check; returns one CheckResult per identity or bound.

    ``failing_seed`` is the first instance with the worst residual, set
    only when that residual is over the limit.
    """
    rows = [_instance_residuals(int(seed), i, inject_fault) for i in range(instances)]
    results = []
    for k, (name, limit) in enumerate(_CHECKS):
        residuals = [row[k] for row in rows]
        worst = max([0.0, *residuals])
        failing = None if worst <= limit else residuals.index(worst)
        results.append(CheckResult(name, instances, worst, limit, worst <= limit, failing))
    return results
