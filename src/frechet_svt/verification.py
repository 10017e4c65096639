"""Random-instance verification of the matrix identities and bounds.

Exact identities (pseudoinverse axioms, projection properties, the
pseudoinverse perturbation identity) must hold to roundoff on every
instance, including rank-deficient ones; the perturbation and
weight-stability bounds must never be violated. The fault-injection
switch deliberately corrupts one identity so the harness can prove it
would catch a regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import weight_stability_check
from .linalg import (
    col_projection,
    numerical_rank,
    pinv_perturbation_residual,
    pseudoinverse,
    row_projection,
    spectral_norm,
    svt,
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


def _lambda_probes(m) -> list:
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    s = s[s > 1e-12 * s[0]] if s.size and s[0] > 0 else s
    probes = [0.0]
    if s.size >= 2:
        probes.append(float(np.sqrt(s[0] * s[1])))
    if s.size:
        probes.append(float(s[-1] / 2))
        probes.append(float(2 * s[0]))
    return probes


def _run_check(name, seed, instances, limit, residual_fn) -> CheckResult:
    worst = 0.0
    failing = None
    for i in range(instances):
        inst_seed = [int(seed), i]
        rng = np.random.default_rng(inst_seed)
        res = residual_fn(rng)
        if res > worst:
            worst = res
            if res > limit:
                failing = i
    return CheckResult(
        name=name,
        instances=instances,
        worst=worst,
        limit=limit,
        passed=worst <= limit,
        failing_seed=failing,
    )


def _moore_penrose_residual(rng) -> float:
    x, _ = _random_instance(rng)
    xp = pseudoinverse(x)
    scale = 1.0 + np.linalg.norm(x, "fro") + np.linalg.norm(xp, "fro")
    res = max(
        np.linalg.norm(x @ xp @ x - x, "fro"),
        np.linalg.norm(xp @ x @ xp - xp, "fro"),
        np.linalg.norm((x @ xp) - (x @ xp).T, "fro"),
        np.linalg.norm((xp @ x) - (xp @ x).T, "fro"),
    )
    return float(res / scale)


def _projection_residual(rng) -> float:
    x, _ = _random_instance(rng)
    worst = 0.0
    for proj in (row_projection(x), col_projection(x)):
        worst = max(
            worst,
            float(np.linalg.norm(proj @ proj - proj, "fro")),
            float(np.linalg.norm(proj - proj.T, "fro")),
            abs(numerical_rank(x) - round(float(np.trace(proj)))),
        )
    return worst


def _projection_identity_residual(rng) -> float:
    x, _ = _random_instance(rng)
    xp = pseudoinverse(x)
    worst = 0.0
    for lam in _lambda_probes(x):
        truncated = svt(x, lam)
        scale = 1.0 + np.linalg.norm(xp, "fro")
        res1 = np.linalg.norm(x @ row_projection(truncated) @ xp - col_projection(truncated), "fro")
        res2 = np.linalg.norm(xp @ col_projection(truncated) @ x - row_projection(truncated), "fro")
        worst = max(worst, float(res1 / scale), float(res2 / scale))
    return worst


def _pinv_perturbation(rng, fault: bool = False) -> float:
    x, z = _random_instance(rng)
    res = pinv_perturbation_residual(x, z)
    if fault:
        res += 1e-3
    xp = pseudoinverse(x)
    zp = pseudoinverse(z)
    scale = 1.0 + np.linalg.norm(xp, "fro") + np.linalg.norm(zp, "fro")
    return float(res / scale)


def _projection_perturbation_margin(rng) -> float:
    x, z = _random_instance(rng)
    lhs = spectral_norm(col_projection(z) - col_projection(x))
    e = z - x
    rhs = max(spectral_norm(e @ pseudoinverse(x)), spectral_norm(e @ pseudoinverse(z)))
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
    clean, noisy = (Dataset(m, np.zeros(n), EuclideanSpace()) for m in (x, x + noise))
    stats = clean.stats
    coeff = rng.standard_normal(n)
    query = stats.mean + stats.centered.T @ coeff / n  # stays in the design row space
    worst = 0.0
    for lam in shared_gap_thresholds(stats, spectral_norm(noise)):
        lhs, rhs = weight_stability_check(clean, noisy, lam, query)
        worst = max(worst, (lhs - rhs) / (1.0 + rhs))
    return float(worst)


def run_suite(seed: int, instances: int = 100, inject_fault: bool = False) -> list:
    """Run every check; returns one CheckResult per identity or bound."""
    checks = [
        ("moore-penrose identities", IDENTITY_TOL, _moore_penrose_residual),
        ("projection idempotence/symmetry/rank", IDENTITY_TOL, _projection_residual),
        ("truncated projection identities", IDENTITY_TOL, _projection_identity_residual),
        (
            "pseudoinverse perturbation identity",
            IDENTITY_TOL,
            lambda rng: _pinv_perturbation(rng, fault=inject_fault),
        ),
        ("projection perturbation bound", 1e-10, _projection_perturbation_margin),
        ("weight stability bound", 1e-10, _weight_stability_margin),
    ]
    return [_run_check(name, seed, instances, limit, fn) for name, limit, fn in checks]
