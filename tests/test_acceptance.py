"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with the measured quantities (run pytest with -s to see
the lines for passing tests)."""

import math
import time

import numpy as np
import pytest

from frechet_svt.diagnostics import diagnose
from frechet_svt.linalg import spectral_norm
from frechet_svt.metric_spaces import EuclideanSpace, WassersteinSpace
from frechet_svt.regression import Dataset, covariate_stats, fit
from frechet_svt.simulation import (
    SimConfig,
    gen_covariates,
    gen_wasserstein_responses,
    make_spectrum,
    random_orthogonal,
    run_cell,
    true_regression_quantile,
)
from frechet_svt.verification import run_suite, shared_gap_thresholds
from oracles import monotone_grid_search, ols_with_intercept, pcr_coefficients

MASTER_SEED = 1


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def desk_cell(noise_kind):
    return SimConfig(
        n=100,
        p=150,
        trials=50,
        test_size=500,
        eval_points=100,
        master_seed=MASTER_SEED,
        noise_kind=noise_kind,
    )


def table_orderings(cell):
    r = cell.report
    bias = {k: math.sqrt(v) for k, v in r.bias_sq.items()}
    var = {k: math.sqrt(v) for k, v in r.var.items()}
    return {
        "mspe": r.mspe["SVT"] < r.mspe["EIV"] < r.mspe["REF"],
        "var": var["SVT"] < var["EIV"] < var["REF"],
        "bias": bias["REF"] < bias["EIV"] < bias["SVT"],
        "mse": r.mse["REF"] < r.mse["EIV"] and r.mse["REF"] < r.mse["SVT"],
    }


def test_criterion_1_table_ordering_gaussian_cell():
    t0 = time.time()
    cell = run_cell(desk_cell("gaussian"))
    elapsed = time.time() - t0
    checks = table_orderings(cell)
    ratio = cell.report.mspe["SVT"] / cell.report.mspe["REF"]
    ok = all(checks.values()) and 0.25 <= ratio <= 0.75 and elapsed <= 600
    report(
        1,
        ok,
        f"gaussian cell orderings={checks}, MSPE(SVT)/MSPE(REF)={ratio:.3f} "
        f"(target [0.25, 0.75]), runtime={elapsed:.0f}s (limit 600s)",
    )


def test_criterion_2_table_ordering_laplace_cell():
    t0 = time.time()
    cell = run_cell(desk_cell("laplace"))
    elapsed = time.time() - t0
    checks = table_orderings(cell)
    ok = all(checks.values())
    report(2, ok, f"laplacian cell orderings={checks}, runtime={elapsed:.0f}s")


def test_criterion_3_pcr_equivalence():
    rng = np.random.default_rng(2024)
    space = EuclideanSpace()
    t0 = time.time()
    worst_closed = 0.0
    worst_ols = 0.0
    ols_checked = 0
    for _ in range(200):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(2, 21))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        data = Dataset(x, y, space)
        stats = covariate_stats(x)
        evals = stats.eigenvalues
        sweep = [0.0, float(evals[0] * 2)]
        gaps = [max((a + b) / 2, 0.0) for a, b in zip(evals[:-1], evals[1:])]
        sweep += [float(g) for g in gaps[:: max(1, len(gaps) // 3)]]
        q = rng.standard_normal(p)
        for lam in sweep:
            model = fit(data, lam)
            ybar, beta = pcr_coefficients(data, lam)
            closed = float(ybar + beta @ (q - stats.mean))
            worst_closed = max(
                worst_closed, abs(float(model.predict(q)) - closed) / (1 + abs(closed))
            )
        if n - 1 >= p and evals[-1] > 1e-10 * evals[0]:
            intercept, slopes = ols_with_intercept(x, y)
            truth = float(intercept + slopes @ q)
            worst_ols = max(
                worst_ols, abs(float(fit(data, 0.0).predict(q)) - truth) / (1 + abs(truth))
            )
            ols_checked += 1
    elapsed = time.time() - t0
    ok = worst_closed <= 1e-10 and worst_ols <= 1e-8 and elapsed <= 30
    report(
        3,
        ok,
        f"closed-form gap={worst_closed:.2e} (tol 1e-10), OLS gap={worst_ols:.2e} "
        f"(tol 1e-8, {ols_checked} full-rank instances), runtime={elapsed:.1f}s (limit 30s)",
    )


def test_criterion_4_plateau_below_smallest_eigenvalue():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(5, 30))
        p = int(rng.integers(2, 8))
        x = rng.standard_normal((n, p))
        if i % 5 == 0:
            space = WassersteinSpace.with_uniform_grid(15)
            responses = np.sort(rng.standard_normal((n, 15)), axis=1)
        else:
            space = EuclideanSpace()
            responses = rng.standard_normal(n)
        data = Dataset(x, responses, space)
        evals = covariate_stats(x).eigenvalues
        floor = float(evals[evals > 1e-10 * evals[0]][-1])
        q = rng.standard_normal(p)
        base = fit(data, 0.0).predict(q)
        for lam in (floor * 0.25, floor * 0.8):
            worst = max(worst, space.distance(fit(data, lam).predict(q), base))
    ok = worst <= 1e-10
    report(4, ok, f"max prediction gap vs zero threshold = {worst:.2e} (tol 1e-10), 100 instances")


def test_criterion_5_denoising_and_weight_stability_bounds():
    rng = np.random.default_rng(5)
    t0 = time.time()
    instances = 0
    violations = 0
    while instances < 120:
        euclid = instances % 5 != 0  # 96 Euclidean, 24 Wasserstein
        n = int(rng.integers(20, 40))
        p = int(rng.integers(5, 12))
        r = int(rng.integers(1, 5))
        x = rng.standard_normal((n, r)) @ rng.standard_normal((r, p))
        noise = float(rng.choice([1e-4, 1e-3, 1e-2])) * rng.standard_normal((n, p))
        z = x + noise
        stats = covariate_stats(x)
        lams = shared_gap_thresholds(stats, spectral_norm(noise))
        if not lams:
            continue
        query = stats.mean + (x - stats.mean).T @ rng.standard_normal(n) / n
        if euclid:
            space = EuclideanSpace()
            responses = x @ rng.standard_normal(p) + 0.2 * rng.standard_normal(n)
        else:
            space = WassersteinSpace.with_uniform_grid(25)
            from scipy.special import ndtri

            loc = x @ rng.standard_normal(p)
            responses = loc[:, None] + ndtri(space.grid)[None, :]
        data = Dataset(x, responses, space)
        for lam in lams[:2]:
            rep = diagnose(data, z, lam, query)
            if not rep["precondition_ok"]:
                continue
            if rep["observed_lhs"] > rep["bound_rhs"] + 1e-12:
                violations += 1
            if rep["weight_lhs"] > rep["weight_rhs"] + 1e-12:
                violations += 1
            instances += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed <= 120
    report(
        5,
        ok,
        f"{instances} instances, {violations} violations of the prediction/weight bounds, "
        f"runtime={elapsed:.1f}s (limit 120s)",
    )


def test_criterion_6_exact_identity_suite():
    results = run_suite(seed=11, instances=500)
    relevant = {r.name: r for r in results}
    pinv = relevant["pseudoinverse perturbation identity"]
    proj = relevant["truncated projection identities"]
    ok = all(r.passed for r in results)
    report(
        6,
        ok,
        f"500 instances: perturbation identity worst={pinv.worst:.2e}, "
        f"projection identities worst={proj.worst:.2e} (tol 1e-8); "
        f"all checks passed={ok}",
    )


def test_criterion_7_consistency_trend():
    p = 10
    cfg = SimConfig(n=50, p=p, quantile_points=101, master_seed=MASTER_SEED)
    spectrum = make_spectrum(p)
    basis = random_orthogonal(p, np.random.default_rng(70))
    queries = gen_covariates(10, p, spectrum, np.random.default_rng(71), basis)
    truths = np.stack([true_regression_quantile(q, cfg) for q in queries])
    space = WassersteinSpace.with_uniform_grid(cfg.quantile_points)
    medians = {}
    for n in (50, 100, 200):
        errs = []
        for rep in range(20):
            rng = np.random.default_rng([72, n, rep])
            x = gen_covariates(n, p, spectrum, rng, basis)
            y, _ = gen_wasserstein_responses(x, cfg, rng)
            model = fit(Dataset(x, y, space), 0.0)
            preds = model.predict_many(queries)
            errs.extend(space.distances_to(preds, truths).tolist())
        medians[n] = float(np.median(errs))
    ok = medians[50] > medians[100] > medians[200]
    report(7, ok, f"median Wasserstein error by n: {medians} (must decrease)")


def test_criterion_8_micro_scale_oracle_equivalence():
    rng = np.random.default_rng(8)
    space = WassersteinSpace.with_uniform_grid(5)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal((5, 2))
        q = np.sort(rng.standard_normal((5, 5)), axis=1)
        data = Dataset(x, q, space)
        model = fit(data, 0.0)
        query = rng.standard_normal(2)
        ours = model.predict(query)
        w = model.weight_matrix(query[None])[:, 0]

        def objective(cands):
            d2 = ((cands[:, None, :] - q[None, :, :]) ** 2) @ space.cell_weights
            return d2 @ w

        oracle = monotone_grid_search(objective, 5, float(q.min() - 1), float(q.max() + 1))
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
    ok = worst <= 1e-6
    report(8, ok, f"max deviation from exhaustive monotone grid search = {worst:.2e} (tol 1e-6)")


def test_criterion_9_threshold_profile_dip():
    cfg = SimConfig(
        n=100,
        p=50,
        trials=10,
        test_size=300,
        eval_points=5,
        master_seed=MASTER_SEED,
        model="linear",
        linear_dim=5,
        metric="euclidean",
        sigma_eps=0.5,
    )
    cell = run_cell(cfg)
    prof = cell.profile
    arg = int(np.argmin(prof.svt))
    dip_interior = arg > 0
    below_endpoint = float(prof.svt.min()) < prof.eiv
    ok = dip_interior and below_endpoint
    report(
        9,
        ok,
        f"NMSPE dip at lambda={prof.lambdas[arg]:.4f} (index {arg}>0), "
        f"min={prof.svt.min():.4f} < EIV endpoint={prof.eiv:.4f}: {below_endpoint}",
    )
