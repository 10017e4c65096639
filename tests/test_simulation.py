import dataclasses
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln, ndtri, poch

import frechet_svt
from frechet_svt import metric_spaces
from frechet_svt.dataio import write_tables
from frechet_svt.linalg import compute_svd
from frechet_svt.metric_spaces import (
    ConvergenceError,
    CorrelationSpace,
    DegenerateWeightsError,
    EuclideanSpace,
    L1Space,
    LinfSpace,
    WassersteinSpace,
    midpoint_grid,
)
from frechet_svt.regression import CovariateStats, Dataset, covariate_stats, fit, kept_rank, rank_predictions
from frechet_svt.simulation import (
    AggregateReport,
    SimConfig,
    add_noise,
    draw_tau_squared,
    evaluate_trial,
    expected_tau,
    gen_covariates,
    gen_linear_responses,
    gen_wasserstein_responses,
    lambda_grid,
    LostWorker,
    make_spectrum,
    mspe_profile,
    run_campaign,
    run_cell,
    TrialFailure,
    TrialReport,
    _normal_quantiles,
    _run_trial,
    true_regression_quantile,
    tune_lambda,
)
from oracles import aggregate, one_point_centers, random_correlation_matrix


def small_config(**overrides):
    base = dict(
        n=20,
        p=4,
        trials=3,
        test_size=25,
        eval_points=6,
        quantile_points=21,
        master_seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSpectrum:
    def test_two_dimensional_closed_form(self):
        spectrum = make_spectrum(2, 1e3)
        expected = 2 * np.array([1.0, 1e-3]) / 1.001
        assert np.allclose(spectrum, expected, atol=1e-12)

    def test_trace_normalization(self):
        for p in [2, 7, 150]:
            assert abs(make_spectrum(p).sum() - p) <= 1e-10 * p

    def test_effective_low_rank_mass(self):
        spectrum = make_spectrum(150, 1e3)
        assert 0.85 <= spectrum[:50].sum() / 150 <= 0.95

    def test_rejects_scalar_dimension(self):
        with pytest.raises(ValueError):
            make_spectrum(1)


class TestCovariateGeneration:
    def test_deterministic_given_seed(self):
        spectrum = make_spectrum(3)
        a = gen_covariates(5, 3, spectrum, np.random.default_rng(0))
        b = gen_covariates(5, 3, spectrum, np.random.default_rng(0))
        assert np.array_equal(a, b)

    def test_isotropic_spectrum_gives_uncorrelated_columns(self):
        x = gen_covariates(50_000, 3, np.ones(3), np.random.default_rng(1))
        corr = np.corrcoef(x.T)
        assert np.max(np.abs(corr - np.eye(3))) < 0.03

    def test_sample_covariance_matches_target(self):
        rng = np.random.default_rng(2)
        spectrum = make_spectrum(3, 100.0)
        basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        x = gen_covariates(100_000, 3, spectrum, rng, basis)
        target = basis @ np.diag(spectrum) @ basis.T
        emp = x.T @ x / x.shape[0]
        assert np.max(np.abs(emp - target)) <= 0.05 * np.max(np.abs(target))


class TestNoise:
    def test_zero_scale_returns_copy(self):
        x = np.ones((3, 2))
        z = add_noise(x, "gaussian", 0.0, np.random.default_rng(0))
        assert np.array_equal(z, x)
        assert z is not x

    def test_gaussian_standard_deviation(self):
        rng = np.random.default_rng(3)
        z = add_noise(np.zeros((1000, 1000)), "gaussian", 0.05, rng)
        assert abs(z.std() - 0.05) <= 0.05 * 0.01

    def test_laplace_literal_scale(self):
        rng = np.random.default_rng(4)
        z = add_noise(np.zeros((1000, 1000)), "laplace", 0.05, rng)
        assert abs(z.std() - 0.05 * np.sqrt(2)) <= 0.05 * np.sqrt(2) * 0.01

    def test_laplace_variance_matched(self):
        rng = np.random.default_rng(5)
        z = add_noise(np.zeros((1000, 1000)), "laplace", 0.05, rng, variance_matched=True)
        assert abs(z.std() - 0.05) <= 0.05 * 0.01

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros((2, 2)), "cauchy", 0.1, np.random.default_rng(0))


class TestScaleNoise:
    def test_inverse_gamma_moments(self):
        rng = np.random.default_rng(6)
        tau_sq = draw_tau_squared(18.0, 17.0, 200_000, rng)
        assert abs(tau_sq.mean() - 1.0) <= 0.01  # 17 / (18 - 1)
        assert abs(tau_sq.var() - 0.0625) <= 0.01  # 17^2 / (17^2 * 16)

    @pytest.mark.parametrize("shape, scale", [(18.0, 17.0), (17.5, 3.0), (2.5, 1.5), (100.0, 99.0)])
    def test_expected_tau_matches_the_gammaln_formula(self, shape, scale):
        want = float(np.exp(0.5 * np.log(scale) + gammaln(shape - 0.5) - gammaln(shape)))
        assert np.isclose(expected_tau(shape, scale), want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("shape", [1e3, 9999.0, 1e4, 1e5, 1e8, 1e13])
    def test_expected_tau_for_large_shapes_matches_poch(self, shape):
        # poch(s, -1/2) = G(s - 1/2) / G(s); the lgamma difference loses digits as the shape grows.
        assert np.isclose(expected_tau(shape, 3.0), np.sqrt(3.0) * poch(shape, -0.5), rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("shape", [1e13, 1e150, 1e300, 1.7e308])
    def test_expected_tau_for_huge_shapes_is_finite_and_exact(self, shape):
        # E[tau] = sqrt(scale / shape) (1 + O(1/shape)); lgamma once overflowed or cancelled to sqrt(scale).
        assert expected_tau(shape, shape) == pytest.approx(1.0, rel=1e-12)
        assert expected_tau(shape, 1e-300) == pytest.approx(1e-150 / np.sqrt(shape), rel=1e-12, abs=0.0)

    def test_expected_tau_closed_form_vs_monte_carlo(self):
        want = float(np.exp(0.5 * np.log(17.0) + gammaln(17.5) - gammaln(18.0)))
        assert np.isclose(expected_tau(18.0, 17.0), want)
        rng = np.random.default_rng(7)
        tau = np.sqrt(draw_tau_squared(18.0, 17.0, 100_000, rng))
        assert abs(tau.mean() - want) <= 0.01 * want


class TestResponses:
    @pytest.mark.parametrize("m", [21, 101, 1001])
    def test_normal_quantiles_match_ndtri(self, m):
        want = ndtri(midpoint_grid(m))
        assert np.all(np.abs(_normal_quantiles(m) - want) <= 4 * np.spacing(np.abs(want)))

    def test_rows_reconstruct_from_latents(self):
        cfg = small_config()
        rng = np.random.default_rng(8)
        x = gen_covariates(cfg.n, cfg.p, make_spectrum(cfg.p), rng)
        q, latents = gen_wasserstein_responses(x, cfg, rng)
        base = ndtri(midpoint_grid(cfg.quantile_points))
        rebuilt = (latents["mu"] + latents["eta"])[:, None] + latents["tau"][:, None] * base
        assert np.allclose(q, rebuilt, atol=1e-12)
        mu_expected = cfg.alpha_intercept + x @ np.full(cfg.p, cfg.p**-0.5)
        assert np.allclose(latents["mu"], mu_expected, atol=1e-12)

    def test_truth_at_origin_is_standardized_quantile(self):
        cfg = small_config()
        truth = true_regression_quantile(np.zeros(cfg.p), cfg)
        base = ndtri(midpoint_grid(cfg.quantile_points))
        want = cfg.alpha_intercept + expected_tau(cfg.ig_shape, cfg.ig_scale) * base
        assert np.allclose(truth, want, atol=1e-12)

    def test_truth_shift_equivariance(self):
        cfg = small_config()
        rng = np.random.default_rng(9)
        x = rng.standard_normal(cfg.p)
        delta = rng.standard_normal(cfg.p)
        shift = np.full(cfg.p, cfg.p**-0.5) @ delta
        a = true_regression_quantile(x, cfg)
        b = true_regression_quantile(x + delta, cfg)
        assert np.allclose(b - a, shift, atol=1e-12)

    def test_monte_carlo_mean_approaches_truth(self):
        cfg = small_config(n=10_000, p=3)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(cfg.p)
        q, _ = gen_wasserstein_responses(np.tile(x, (cfg.n, 1)), cfg, rng)
        space = WassersteinSpace.with_uniform_grid(cfg.quantile_points)
        mean = space.frechet_mean_blocks(q, [np.ones(cfg.n)[:, None]])[0][0]
        assert space.distance(mean, true_regression_quantile(x, cfg)) <= 0.02

    def test_linear_responses_exact_when_noiseless(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((12, 4))
        intercept = np.ones(3)
        slopes = np.full((4, 3), 3**-0.5)
        y, a, b = gen_linear_responses(x, 3, rng, sigma_eta=0.0, intercept=intercept, slopes=slopes)
        assert np.allclose(y, intercept + x @ slopes, atol=1e-12)

    def test_linear_recovery_with_zero_threshold(self):
        # well-conditioned design so the OLS error is sampling-limited
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20_000, 5))
        y, a, b = gen_linear_responses(x, 2, rng, sigma_eta=0.5)
        from frechet_svt.regression import pcr_coefficients
        from oracles import ols_with_intercept

        data = Dataset(x, y, EuclideanSpace())
        ybar, beta = pcr_coefficients(data, 0.0)
        _, slopes = ols_with_intercept(x, y)
        assert np.max(np.abs(beta - slopes)) <= 1e-8
        assert np.max(np.abs(beta - b)) <= 1e-2

    def test_linear_responses_deterministic(self):
        x = np.ones((4, 2))
        y1, *_ = gen_linear_responses(x, 2, np.random.default_rng(13))
        y2, *_ = gen_linear_responses(x, 2, np.random.default_rng(13))
        assert np.array_equal(y1, y2)


class TestLambdaGrid:
    def test_range_and_size(self):
        grid = lambda_grid(4.0, 10, 40, points=40)
        assert grid.size == 40
        assert grid[0] > 0
        assert np.isclose(grid[-1], np.sqrt(4.0 * 10 / 40))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            lambda_grid(0.0, 5, 10)


def make_trial_data(cfg, rng, sigma_eps=None):
    spectrum = make_spectrum(cfg.p)
    space = WassersteinSpace.with_uniform_grid(cfg.quantile_points)
    x = gen_covariates(cfg.n, cfg.p, spectrum, rng)
    q, _ = gen_wasserstein_responses(x, cfg, rng)
    z = add_noise(x, cfg.noise_kind, cfg.sigma_eps if sigma_eps is None else sigma_eps, rng)
    xt = gen_covariates(cfg.test_size, cfg.p, spectrum, rng)
    qt, _ = gen_wasserstein_responses(xt, cfg, rng)
    return Dataset(x, q, space), Dataset(z, q, space), Dataset(xt, qt, space)


class TestEvaluateTrial:
    def test_zero_noise_makes_ref_and_eiv_identical(self):
        cfg = small_config()
        train, noisy, test = make_trial_data(cfg, np.random.default_rng(14), sigma_eps=0.0)
        grid = lambda_grid(covariate_stats(train.covariates).eigenvalues[0], cfg.p, cfg.n, 8)
        report, _, _ = evaluate_trial(train, noisy, test, grid, test.covariates[:3], grid)
        assert report.mse["REF"] == report.mse["EIV"]
        assert report.mspe["REF"] == report.mspe["EIV"]

    def test_constant_responses_zero_errors(self):
        cfg = small_config()
        rng = np.random.default_rng(15)
        space = WassersteinSpace.with_uniform_grid(cfg.quantile_points)
        x = rng.standard_normal((cfg.n, cfg.p))
        q = np.tile(np.linspace(0, 1, cfg.quantile_points), (cfg.n, 1))
        xt = rng.standard_normal((10, cfg.p))
        qt = np.tile(np.linspace(0, 1, cfg.quantile_points), (10, 1))
        train = Dataset(x, q, space)
        test = Dataset(xt, qt, space)
        report, eval_preds, (curve, null_error) = evaluate_trial(train, train, test, [0.5], xt[:3], np.array([0.5]))
        for est in ("REF", "EIV", "SVT"):
            assert report.mse[est] <= 1e-16
            assert report.mspe[est] <= 1e-16
            np.testing.assert_allclose(eval_preds[est], qt[:3], atol=1e-12)
        assert curve.shape == (1,) and curve[0] <= 1e-16
        assert null_error <= 1e-16

    def test_micro_instance_matches_independent_reimplementation(self):
        # full独立 recomputation: explicit pinv, explicit weights, explicit
        # means, explicit monotone projection via the partition oracle
        from oracles import monotone_lsq_partition_oracle

        cfg = small_config(n=5, p=2, quantile_points=5, test_size=4)
        rng = np.random.default_rng(16)
        train, noisy, test = make_trial_data(cfg, rng)
        grid = [0.3]
        report, _, _ = evaluate_trial(train, noisy, test, grid, test.covariates[:2], np.array(grid))

        space = train.space
        w_levels = space.cell_weights

        def independent_mspe(covs, responses, lam, test_x, test_q):
            mu = covs.mean(axis=0)
            cen = covs - mu
            cov = cen.T @ cen / covs.shape[0]
            u, s, vt = np.linalg.svd(cov)
            s_inv = np.array([1 / v if v > lam else 0.0 for v in s])
            pinv = (vt.T * s_inv) @ u.T
            total = 0.0
            for xq, yq in zip(test_x, test_q):
                w = 1 + cen @ pinv @ (xq - mu)
                f = w @ responses / w.sum()
                proj = monotone_lsq_partition_oracle(f, w_levels)
                total += float(((proj - yq) ** 2) @ w_levels)
            return total / test_x.shape[0]

        expected = independent_mspe(
            noisy.covariates, noisy.responses, 0.3, test.covariates, test.responses
        )
        assert abs(report.mspe["SVT"] - expected) <= 1e-8

    def test_metrics_nonnegative(self):
        cfg = small_config()
        train, noisy, test = make_trial_data(cfg, np.random.default_rng(17))
        grid = lambda_grid(covariate_stats(noisy.covariates).eigenvalues[0], cfg.p, cfg.n, 5)
        report, _, _ = evaluate_trial(train, noisy, test, grid, test.covariates[:3], grid)
        assert all(v >= 0 for v in report.mse.values())
        assert all(v >= 0 for v in report.mspe.values())


def _linear_trial(space, seed):
    """One linear-model trial (training, noisy training, test, eval points) whose two designs share ``y``."""
    rng = np.random.default_rng(seed)
    n, p, dim = 18, 6, 4
    spectrum = make_spectrum(p)
    x = gen_covariates(n, p, spectrum, rng)
    y, intercept, slopes = gen_linear_responses(x, dim, rng)
    z = add_noise(x, "gaussian", 0.4, rng)
    xt = gen_covariates(7, p, spectrum, rng)
    yt = gen_linear_responses(xt, dim, rng, intercept=intercept, slopes=slopes)[0]
    eval_x = gen_covariates(3, p, spectrum, rng)
    return Dataset(x, y, space), Dataset(z, y, space), Dataset(xt, yt, space), eval_x


def _count_block_calls(monkeypatch, cls) -> list:
    """Record the number of blocks of every ``cls.frechet_mean_blocks`` call."""
    calls = []
    joint = cls.frechet_mean_blocks

    def counting(self, points, blocks):
        calls.append(len(blocks))
        return joint(self, points, blocks)

    monkeypatch.setattr(cls, "frechet_mean_blocks", counting)
    return calls


class TestJointSolveRoute:
    """A trial solves its l1/sup-norm predictions jointly, with the numbers of one fit per prediction."""

    @pytest.mark.parametrize("space", [L1Space(), LinfSpace()], ids=lambda s: s.kind)
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_per_model_route(self, space, seed, monkeypatch):
        train, noisy, test, eval_x = _linear_trial(space, seed)
        grid = lambda_grid(noisy.stats.eigenvalues[0], 6, train.n, 5)
        profile_grid = lambda_grid(2.0, 6, train.n, 4)
        calls = _count_block_calls(monkeypatch, type(space))
        report, eval_preds, profile_part = evaluate_trial(train, noisy, test, grid, eval_x, profile_grid, 5)
        assert len(calls) == 2  # the sweep, then every other prediction of the trial
        monkeypatch.undo()

        def error(model, covariates, responses):
            return float(np.mean(space.distances_to(responses, model.predict_many(covariates)) ** 2))

        tuning = [error(fit(noisy, lam), test.covariates, test.responses) for lam in grid]
        lam_hat = float(grid[int(np.argmin(tuning))])
        models = {"REF": fit(train, 0.0), "EIV": fit(noisy, 0.0), "SVT": fit(noisy, lam_hat)}
        mse = {est: error(m, train.covariates, train.responses) for est, m in models.items()}
        mspe = {est: error(models[est], test.covariates, test.responses) for est in ("REF", "EIV")}
        mspe["SVT"] = min(tuning)
        assert report == TrialReport(index=5, mse=mse, mspe=mspe, lambda_hat=lam_hat)
        for est, m in models.items():
            assert np.array_equal(eval_preds[est], m.predict_many(eval_x)), est
        curves = [error(fit(noisy, lam), test.covariates, test.responses) for lam in profile_grid]
        null_pred = space.frechet_mean_blocks(train.responses, [np.ones(train.n)[:, None]])[0][0]
        null_mspe = float(np.mean(space.distances_to(test.responses, null_pred) ** 2))
        assert np.array_equal(profile_part[0], curves)
        assert profile_part[1:] == (null_mspe,)

    def test_equal_response_copies_share_one_solve(self, monkeypatch):
        train, noisy, test, eval_x = _linear_trial(L1Space(), 4)
        clean = Dataset(train.covariates, train.responses.copy(), train.space)
        calls = _count_block_calls(monkeypatch, L1Space)
        profile_grid = np.array([0.2, 0.4])
        shared = evaluate_trial(train, noisy, test, [0.1, 0.5], eval_x, profile_grid)[0]
        split = evaluate_trial(clean, noisy, test, [0.1, 0.5], eval_x, profile_grid)[0]
        assert split == shared
        # The sweep, then one solve for REF, EIV and SVT together, whichever array holds the
        # responses: 3 in-sample blocks, 2 test blocks, 3 eval blocks and the null model's.
        assert calls == [calls[0], 9, calls[0], 9]

    def test_different_responses_raise(self):
        train, noisy, test, eval_x = _linear_trial(L1Space(), 4)
        clean = Dataset(train.covariates, train.responses + 1.0, train.space)
        with pytest.raises(ValueError, match="same responses"):
            evaluate_trial(clean, noisy, test, [0.1, 0.5], eval_x, np.array([0.2]))


class TestTuneLambda:
    def test_single_point_grid(self):
        cfg = small_config()
        train, noisy, test = make_trial_data(cfg, np.random.default_rng(18))
        assert tune_lambda(noisy, test, [0.42]) == 0.42

    def test_plateau_tie_breaks_to_smallest(self):
        cfg = small_config()
        train, noisy, test = make_trial_data(cfg, np.random.default_rng(19), sigma_eps=0.0)
        floor = covariate_stats(train.covariates).eigenvalues[-1]
        grid = [floor * 0.1, floor * 0.3, floor * 0.6]  # all below smallest eigenvalue
        assert tune_lambda(train, test, grid) == grid[0]

    def test_argmin_matches_exhaustive_scan(self):
        cfg = small_config()
        train, noisy, test = make_trial_data(cfg, np.random.default_rng(20))
        grid = lambda_grid(covariate_stats(noisy.covariates).eigenvalues[0], cfg.p, cfg.n, 12)
        profile = mspe_profile(noisy, test, grid)
        assert tune_lambda(noisy, test, grid) == grid[int(np.argmin(profile))]

    def test_empty_grid_rejected(self):
        cfg = small_config()
        train, noisy, test = make_trial_data(cfg, np.random.default_rng(21))
        with pytest.raises(ValueError):
            tune_lambda(noisy, test, [])


class TestAggregate:
    def euclid_reports(self, preds, truths):
        # scalar Euclidean toy: build reports with zero errors, aggregate
        space = EuclideanSpace()
        reports = [
            dataclasses.replace(
                type("T", (), {})() if False else _plain_report(i), index=i
            )
            for i in range(preds.shape[0])
        ]
        return aggregate(reports, {"REF": preds, "EIV": preds, "SVT": preds}, truths, space)

    def test_single_trial_zero_variance(self):
        preds = np.array([[[1.0], [2.0]]])  # (B=1, M=2, scalar)
        truths = np.array([[1.5], [2.0]])
        report = self.euclid_reports(preds, truths)
        assert report.var["REF"] == 0.0
        assert np.isclose(report.bias_sq["REF"], (0.25 + 0.0) / 2)

    def test_identical_trials_zero_variance(self):
        preds = np.tile(np.array([[[1.0], [2.0]]]), (4, 1, 1))
        truths = np.array([[0.0], [2.0]])
        report = self.euclid_reports(preds, truths)
        assert report.var["REF"] == 0.0
        assert np.isclose(report.bias_sq["REF"], 0.5)

    def test_three_trial_hand_computation(self):
        # predictions 1, 2, 3 at one point: center 2, var 2/3
        preds = np.array([[[1.0]], [[2.0]], [[3.0]]])
        truths = np.array([[2.5]])
        report = self.euclid_reports(preds, truths)
        assert np.isclose(report.bias_sq["REF"], 0.25)
        assert np.isclose(report.var["REF"], 2.0 / 3.0)


def _plain_report(i):
    from frechet_svt.simulation import TrialReport

    zeros = {"REF": 0.0, "EIV": 0.0, "SVT": 0.0}
    return TrialReport(index=i, mse=dict(zeros), mspe=dict(zeros), lambda_hat=0.0)


@pytest.fixture
def fold_inputs(monkeypatch):
    """Copies of the evaluation predictions ``run_cell`` hands its fold, one dict per trial."""
    import frechet_svt.simulation as sim

    seen = []
    real_add = sim._TrialFold.add

    def spy(fold, eval_preds):
        seen.append({est: preds.copy() for est, preds in eval_preds.items()})
        real_add(fold, eval_preds)

    monkeypatch.setattr(sim._TrialFold, "add", spy)
    return seen


def _fold_points(kind, rng, trials, n_eval=5):
    """Predictions (trials, n_eval, ...) and truths (n_eval, ...) of one space, off the space."""
    if kind in ("l1", "linf"):
        space = L1Space() if kind == "l1" else LinfSpace()
        return space, rng.standard_normal((trials, n_eval, 3)), rng.standard_normal((n_eval, 3))
    if kind == "euclidean-scalar":
        return EuclideanSpace(), rng.standard_normal((trials, n_eval)), rng.standard_normal(n_eval)
    if kind == "euclidean-vector":
        return EuclideanSpace(), rng.standard_normal((trials, n_eval, 3)), rng.standard_normal((n_eval, 3))
    if kind == "wasserstein":
        # Unsorted rows, so the centers need PAVA.
        space = WassersteinSpace.with_uniform_grid(21)
        return space, rng.standard_normal((trials, n_eval, 21)), np.sort(rng.standard_normal((n_eval, 21)), axis=1)
    # Unit-diagonal symmetric matrices off the PSD cone, so the centers need Dykstra.
    mats = [random_correlation_matrix(4, rng) for _ in range(trials * n_eval + n_eval)]
    noise = rng.standard_normal((trials * n_eval, 4, 4))
    noise = 0.8 * (noise + noise.transpose(0, 2, 1))
    noise[:, np.arange(4), np.arange(4)] = 0.0
    preds = (np.stack(mats[:-n_eval]) + noise).reshape(trials, n_eval, 4, 4)
    return CorrelationSpace(4), preds, np.stack(mats[-n_eval:])


def _fold(space, preds, truths):
    """The fold's report over stacked predictions, one trial at a time, for every estimator."""
    import frechet_svt.simulation as sim

    fold = sim._TrialFold(space, truths, len(preds))
    for x in preds:
        fold.add({est: x for est in sim.ESTIMATORS})
    return fold.report([_plain_report(i) for i in range(len(preds))])


def assert_close_reports(folded, stored, rtol=1e-12):
    for name in ("bias_sq", "var"):
        for est, want in getattr(stored, name).items():
            got = getattr(folded, name)[est]
            assert abs(got - want) <= rtol * abs(want), (name, est, got, want)
    assert (folded.mse, folded.mspe) == (stored.mse, stored.mspe)


class TestTrialFold:
    KINDS = ("euclidean-scalar", "euclidean-vector", "wasserstein", "correlation")

    @pytest.mark.parametrize("kind", [*KINDS, "l1", "linf"])
    def test_matches_aggregate_on_the_stored_predictions(self, kind):
        space, preds, truths = _fold_points(kind, np.random.default_rng(5), trials=7)
        stored = aggregate(
            [_plain_report(i) for i in range(len(preds))], dict.fromkeys(("REF", "EIV", "SVT"), preds), truths, space
        )
        folded = _fold(space, preds, truths)
        assert_close_reports(folded, stored)
        if not space.affine:  # the same one-point solves, stacked: equal bit for bit
            assert folded == stored
        assert folded.var["REF"] > 0.0 and folded.bias_sq["REF"] > 0.0

    @pytest.mark.parametrize("kind", ["euclidean-scalar", "euclidean-vector", "wasserstein"])
    @pytest.mark.parametrize("trials", [1, 4])
    def test_one_or_identical_trials_have_zero_variance(self, kind, trials):
        space, preds, truths = _fold_points(kind, np.random.default_rng(6), trials=1)
        if kind == "wasserstein":
            preds = np.sort(preds, axis=-1)  # in the space, as a trial's predictions are
        report = _fold(space, np.repeat(preds, trials, axis=0), truths)
        assert all(v == 0.0 for v in report.var.values())
        assert report.bias_sq == _fold(space, preds, truths).bias_sq

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(model="linear", metric="euclidean", linear_dim=1), dict(model="linear", metric="euclidean", linear_dim=3)],
        ids=["wasserstein", "euclidean-scalar", "euclidean-vector"],
    )
    def test_run_cell_matches_aggregate(self, fold_inputs, overrides):
        import frechet_svt.simulation as sim

        cfg = small_config(trials=4, **overrides)
        cell = run_cell(cfg)
        stacked = {est: np.stack([s[est] for s in fold_inputs]) for est in sim.ESTIMATORS}
        truths = sim._cell_fixtures(cfg)[3]
        assert_close_reports(cell.report, aggregate(cell.trials, stacked, truths, sim._cell_space(cfg)))

    @pytest.mark.parametrize("overrides", [{}, dict(model="linear", metric="euclidean", linear_dim=2)])
    def test_one_trial_cell_has_zero_variance(self, overrides):
        report = run_cell(small_config(trials=1, **overrides)).report
        assert all(v == 0.0 for v in report.var.values())

    def test_l1_cell_keeps_the_stored_route(self, fold_inputs, monkeypatch):
        # The stored (trials, eval_points, dim) predictions go to one stacked
        # solve per estimator, which gives the oracle's report bit for bit.
        import frechet_svt.simulation as sim

        shapes = []
        real_columns = L1Space.frechet_mean_columns

        def spy(space, stacks):
            shapes.append(stacks.shape)
            return real_columns(space, stacks)

        monkeypatch.setattr(L1Space, "frechet_mean_columns", spy)
        cfg = small_config(trials=2, eval_points=3, test_size=10, lambda_points=3, model="linear", metric="l1", linear_dim=2)
        cell = run_cell(cfg)
        assert shapes == [(2, 3, 2)] * len(sim.ESTIMATORS)
        stacked = {est: np.stack([s[est] for s in fold_inputs]) for est in sim.ESTIMATORS}
        assert cell.report == aggregate(cell.trials, stacked, sim._cell_fixtures(cfg)[3], sim._cell_space(cfg))

    @pytest.mark.parametrize(
        "overrides", [{}, dict(model="linear", metric="euclidean", linear_dim=30)], ids=["wasserstein", "euclidean"]
    )
    def test_affine_cell_memory_does_not_grow_with_trials(self, overrides):
        # Ten trials peak no higher than two, give or take less than one
        # trial's evaluation predictions: nothing of size (trials, ...) is held.
        import tracemalloc

        def cfg(trials):
            return small_config(trials=trials, eval_points=400, quantile_points=101, lambda_points=4, **overrides)

        run_cell(cfg(1))  # one-time allocations happen outside the measurement
        peaks = []
        for trials in (2, 10):
            tracemalloc.start()
            try:
                run_cell(cfg(trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_trial = 3 * 400 * overrides.get("linear_dim", 101) * 8  # bytes, for every estimator
        assert peaks[1] - peaks[0] < one_trial, peaks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_leaves_no_fixture_state_in_the_parent(self, workers):
        import frechet_svt.simulation as sim

        run_cell(small_config(trials=2), workers=workers)
        assert sim._cell_fixtures.cache_info().currsize == 0
        with pytest.raises(TrialFailure):
            run_cell(small_config(trials=2, alpha_intercept=1e308), workers=workers)
        assert sim._cell_fixtures.cache_info().currsize == 0


class LazyPool:
    """Stands in for the process pool: runs each trial in process when its outcome is read."""

    def __init__(self, max_workers, initializer=None):
        if initializer is not None:
            initializer()

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


class TestRunCell:
    def test_bit_identical_reruns(self):
        cfg = small_config()
        a = run_cell(cfg)
        b = run_cell(cfg)
        assert a.report == b.report
        assert [t.lambda_hat for t in a.trials] == [t.lambda_hat for t in b.trials]
        assert np.array_equal(a.profile.svt, b.profile.svt)
        assert a.profile.ref == b.profile.ref

    def test_bias_variance_decomposition_in_flat_geometry(self):
        # mean squared distance to truth = bias^2 + variance, pointwise
        cfg = small_config(trials=4)
        from frechet_svt.simulation import _cell_fixtures

        truths = _cell_fixtures(cfg)[3]
        outs = [_run_trial(cfg, b) for b in range(cfg.trials)]
        space = WassersteinSpace.with_uniform_grid(cfg.quantile_points)
        preds = np.stack([o[1]["SVT"] for o in outs])  # (B, M, m)
        for m in range(cfg.eval_points):
            center = preds[:, m].mean(axis=0)
            total = np.mean(space.distances_to(preds[:, m], truths[m]) ** 2)
            bias_sq = space.distance(center, truths[m]) ** 2
            var = np.mean(space.distances_to(preds[:, m], center) ** 2)
            assert abs(total - (bias_sq + var)) <= 1e-8

    def test_svt_beats_eiv_when_grid_contains_plateau_point(self):
        cfg = small_config(trials=2, sigma_eps=0.0)
        from frechet_svt.simulation import _cell_fixtures

        spectrum, basis, eval_x, truths, params, _ = _cell_fixtures(cfg)
        rng = cfg.rng(4, 0)
        x = gen_covariates(cfg.n, cfg.p, spectrum, rng, basis)
        q, _ = gen_wasserstein_responses(x, cfg, rng)
        z = add_noise(x, "gaussian", 0.02, rng)
        xt = gen_covariates(cfg.test_size, cfg.p, spectrum, rng, basis)
        qt, _ = gen_wasserstein_responses(xt, cfg, rng)
        space = WassersteinSpace.with_uniform_grid(cfg.quantile_points)
        train = Dataset(x, q, space)
        noisy = Dataset(z, q, space)
        test = Dataset(xt, qt, space)
        floor = covariate_stats(z).eigenvalues
        floor = floor[floor > 1e-10][-1]
        grid = np.concatenate([[floor * 0.5], lambda_grid(floor * 50, cfg.p, cfg.n, 6)])
        report, _, _ = evaluate_trial(train, noisy, test, grid, eval_x, grid)
        assert report.mspe["SVT"] <= report.mspe["EIV"] + 1e-12

    def test_two_workers_match_one(self, fold_inputs):
        import frechet_svt.simulation as sim

        cfg = small_config(trials=4)
        serial = run_cell(cfg, workers=1)
        pooled = run_cell(cfg, workers=2)
        assert serial.trials == pooled.trials
        assert len(fold_inputs) == 2 * cfg.trials
        for one, two in zip(fold_inputs[: cfg.trials], fold_inputs[cfg.trials :]):
            for est in sim.ESTIMATORS:
                assert np.array_equal(one[est], two[est])
        assert np.array_equal(serial.profile.lambdas, pooled.profile.lambdas)
        assert np.array_equal(serial.profile.svt, pooled.profile.svt)
        assert (serial.profile.ref, serial.profile.eiv) == (pooled.profile.ref, pooled.profile.eiv)
        assert serial.report == pooled.report

    def test_solver_failure_in_a_worker_reaches_the_caller(self):
        # The fault comes with the config, so every worker sees it whatever the start method.
        cfg = small_config(trials=2, alpha_intercept=1e308, label="huge")
        with pytest.raises(TrialFailure) as err:
            run_cell(cfg, workers=2)
        assert err.value.trial_index == 0
        assert err.value.cell == "huge"
        assert str(err.value).startswith("cell huge: trial 0 failed: ")
        assert isinstance(err.value.cause, FloatingPointError)

    def test_pool_never_exceeds_the_trial_count(self, monkeypatch):
        asked = []

        class Recorder(LazyPool):
            """Records the pool size asked for."""

            def __init__(self, max_workers, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
        run_cell(small_config(trials=2), workers=8)
        run_cell(small_config(trials=1), workers=8)
        # One pool for a whole campaign, sized by all of its trials.
        run_campaign([small_config(trials=2), small_config(trials=3, label="b")], workers=8)
        assert asked == [2, 5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_outcome_is_dropped_before_the_next_trial(self, monkeypatch, workers):
        # The cell folds each trial's evaluation predictions as they arrive
        # and keeps no outcome: trial b's predictions are gone before trial
        # b + 1 runs, serial or pooled.
        import frechet_svt.simulation as sim

        real_trial = sim._run_trial
        refs, alive = [], []

        def tracked(config, b):
            alive.append(sum(ref() is not None for ref in refs))
            outcome = real_trial(config, b)
            refs.extend(weakref.ref(preds) for preds in outcome[1].values())
            return outcome

        monkeypatch.setattr(sim, "_run_trial", tracked)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", LazyPool)
        cell = run_cell(small_config(trials=3), workers=workers)
        assert alive == [0, 0, 0]
        assert len(refs) == 3 * len(sim.ESTIMATORS)
        assert [t.index for t in cell.trials] == [0, 1, 2]

    def test_linear_model_cell_runs(self):
        cfg = small_config(model="linear", metric="euclidean", linear_dim=2, sigma_eps=0.3)
        cell = run_cell(cfg)
        assert set(cell.report.mspe) == {"REF", "EIV", "SVT"}
        assert np.all(np.isfinite(cell.profile.svt))


START_METHODS = ["fork", "forkserver", "spawn"]


@pytest.fixture(params=START_METHODS)
def start_method(request):
    """Runs the test with each multiprocessing start method, then restores the one set before."""
    import multiprocessing

    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param} start method on this platform")
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(before, force=True)


def _exit_worker(config, b):
    """Stands in for ``_run_trial``: the worker process dies at once."""
    os._exit(1)


# Evaluated in a pool worker: (numpy.random loaded before the draw, a draw, libcrypto mapped after it).
_OPENSSL_PROBE = (
    "('numpy.random' in __import__('sys').modules, __import__('numpy').random.default_rng(0).random(),"
    " 'libcrypto' in open('/proc/self/maps').read())"
)


class TestStartMethods:
    """The pool gives the same tables and failures, and keeps OpenSSL out, under every start method."""

    def test_two_workers_write_the_tables_of_one(self, tmp_path, start_method):
        cfg = small_config(trials=4)
        tables = []
        for workers in (1, 2):
            cells = [run_cell(cfg, workers=workers)]
            write_tables(tmp_path, cells)
            tables.append([(tmp_path / name).read_bytes() for name in ("results.csv", "profile.csv")])
        assert tables[0] == tables[1]

    def test_solver_failure_in_a_worker_names_the_cell_and_trial(self, start_method):
        cfg = small_config(trials=2, alpha_intercept=1e308, label="huge")
        with pytest.raises(TrialFailure, match="^cell huge: trial 0 failed: ") as err:
            run_cell(cfg, workers=2)
        assert isinstance(err.value.cause, FloatingPointError)

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    @pytest.mark.parametrize("method", START_METHODS)
    def test_a_worker_keeps_openssl_out_of_its_process(self, method):
        import multiprocessing

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        if importlib.util.find_spec("_hashlib") is None:
            pytest.skip("this Python has no OpenSSL module")
        # A fresh interpreter: this one may have loaded OpenSSL, which a forked worker would inherit.
        # The control pool has no initializer.
        code = (
            "import json, multiprocessing, sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from frechet_svt.linalg import settle_process\n"
            f"multiprocessing.set_start_method({method!r}, force=True)\n"
            "probes = {}\n"
            "for name, init in (('settled', settle_process), ('control', None)):\n"
            "    with ProcessPoolExecutor(1, initializer=init) as pool:\n"
            f"        probes[name] = pool.submit(eval, {_OPENSSL_PROBE!r}).result()\n"
            "print(json.dumps(probes))\n"
        )
        src = str(Path(frechet_svt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        probes = json.loads(done.stdout.splitlines()[-1])
        (eager, _, settled), (_, _, control) = probes["settled"], probes["control"]
        if eager:
            pytest.skip("numpy loaded numpy.random at import, before the initializer could block OpenSSL")
        if not control:
            pytest.skip("this Python maps no libcrypto library even with numpy.random loaded")
        assert not settled

    # Only a forked worker sees the replaced trial function.
    @pytest.mark.parametrize("start_method", ["fork"], indirect=True)
    def test_a_dead_worker_is_a_failed_trial(self, monkeypatch, start_method):
        from concurrent.futures.process import BrokenProcessPool

        import frechet_svt.simulation as sim

        monkeypatch.setattr(sim, "_run_trial", _exit_worker)
        expected = "^cell huge: a worker process died while trial 0 was still unread: A process in the process pool"
        with pytest.raises(TrialFailure, match=expected) as err:
            run_cell(small_config(trials=3, label="huge"), workers=2)
        assert isinstance(err.value, LostWorker) and err.value.trial_index == 0
        assert isinstance(err.value.cause, BrokenProcessPool)
        assert err.value.__cause__ is err.value.cause


# Names the directory where ``_logged_trial`` leaves a file per trial it starts.
_TRIAL_LOG = "FRECHET_SVT_TEST_TRIAL_LOG"


def _logged_trial(config, b):
    """Stands in for ``_run_trial``: leaves a file named after the trial, then runs it."""
    Path(os.environ[_TRIAL_LOG], f"{config.display_name()}-{b}").touch()
    return _run_trial(config, b)


class TestRunCampaign:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_empty_campaign_has_no_cells(self, workers):
        assert run_campaign([], workers=workers) == []

    def test_cells_on_one_pool_write_the_tables_of_each_cell_alone(self, tmp_path):
        configs = [
            small_config(trials=3, label="a"),
            small_config(trials=2, master_seed=3, model="linear", metric="euclidean", linear_dim=2, label="b"),
        ]
        tables = []
        for cells in (run_campaign(configs, workers=2), [run_cell(c) for c in configs]):
            write_tables(tmp_path, cells)
            tables.append([(tmp_path / name).read_bytes() for name in ("results.csv", "profile.csv")])
        assert tables[0] == tables[1]

    # Only a forked worker sees the replaced trial function.
    @pytest.mark.parametrize("start_method", ["fork"], indirect=True)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "bad, error, match, serial_started",
        [
            (dict(alpha_intercept=1e308), TrialFailure, "^cell bad: trial 0 failed: overflow", ["bad-0"]),
            # Every trial of this cell runs, and its profile has nothing to divide by.
            (
                dict(n=6, p=3, test_size=4, eval_points=2, quantile_points=5, lambda_points=3, alpha_intercept=-1e150),
                FloatingPointError,
                "^profile.csv: cell bad: ",
                ["bad-0", "bad-1"],
            ),
        ],
        ids=["trial", "aggregation"],
    )
    def test_a_failure_stops_the_campaign(
        self, monkeypatch, tmp_path, start_method, workers, bad, error, match, serial_started
    ):
        monkeypatch.setenv(_TRIAL_LOG, str(tmp_path))
        monkeypatch.setattr("frechet_svt.simulation._run_trial", _logged_trial)
        good = small_config(trials=40, label="good")
        with pytest.raises(error, match=match):
            run_campaign([small_config(trials=2, label="bad", **bad), good], workers=workers)
        started = sorted(path.name for path in tmp_path.iterdir())
        if workers == 1:
            assert started == serial_started
        else:
            # Only trials already handed to a worker when the failure was read may have started.
            assert sum(name.startswith("good-") for name in started) < good.trials // 2, started


class TestTrialFailure:
    def test_survives_pickling(self):
        cause = ConvergenceError("no convergence", last_iterate=np.eye(2))
        back = pickle.loads(pickle.dumps(TrialFailure("gaussian-20x4", 4, cause)))
        assert (back.cell, back.trial_index) == ("gaussian-20x4", 4)
        assert str(back) == "cell gaussian-20x4: trial 4 failed: no convergence"
        assert type(back.cause) is ConvergenceError
        assert np.array_equal(back.cause.last_iterate, np.eye(2))

    def test_a_lost_worker_survives_pickling(self):
        back = pickle.loads(pickle.dumps(LostWorker("smoke", 2, RuntimeError("terminated abruptly"))))
        assert type(back) is LostWorker and (back.cell, back.trial_index) == ("smoke", 2)
        assert str(back) == "cell smoke: a worker process died while trial 2 was still unread: terminated abruptly"

    def test_out_of_memory_says_so(self):
        back = pickle.loads(pickle.dumps(TrialFailure("smoke", 1, MemoryError("Unable to allocate 8 GiB"))))
        assert str(back) == "cell smoke: trial 1 ran out of memory: Unable to allocate 8 GiB"
        assert type(back.cause) is MemoryError
        assert str(TrialFailure("smoke", 1, MemoryError())) == "cell smoke: trial 1 ran out of memory"


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, p=3)
        with pytest.raises(ValueError):
            SimConfig(n=5, p=3, ig_shape=2.0)
        with pytest.raises(ValueError):
            SimConfig(n=5, p=3, noise_kind="uniform")
        with pytest.raises(ValueError):
            SimConfig(n=5, p=3, condition_number=1.0)
        with pytest.raises(ValueError):
            SimConfig(n=5, p=3, model="quadratic")


def _direct_profile(train, test, grid):
    """One refit and one weight matrix per threshold, blended by a one-block ``frechet_mean_blocks`` call."""
    out = []
    for lam in grid:
        preds = train.space.frechet_mean_blocks(train.responses, [fit(train, lam).weight_matrix(test.covariates)])[0]
        out.append(np.mean(train.space.distances_to(test.responses, preds) ** 2))
    return np.array(out)


def _sweep_instance(kind, n, p, m, seed):
    """Training and test data for one response kind, queries spread beyond the design.

    Queries three times wider than the design give negative weights, so
    Wasserstein blends can decrease (PAVA) and correlation blends can leave
    the PSD cone (Dykstra).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    xt = 3.0 * rng.standard_normal((m, p))
    slope = rng.standard_normal(p)

    def draw(cov):
        k = cov.shape[0]
        if kind == "euclidean-scalar":
            return cov @ slope + 0.5 * rng.standard_normal(k)
        if kind in ("euclidean-vector", "l1"):
            return cov @ rng.standard_normal((p, 2)) + 0.5 * rng.standard_normal((k, 2))
        if kind == "wasserstein":
            base = ndtri(midpoint_grid(7))
            tau = np.exp(0.5 * np.tanh(cov @ slope))
            return (cov @ slope + 0.3 * rng.standard_normal(k))[:, None] + tau[:, None] * base
        return np.stack([random_correlation_matrix(3, rng) for _ in range(k)])

    space = {
        "wasserstein": WassersteinSpace.with_uniform_grid(7),
        "correlation": CorrelationSpace(3),
        "l1": L1Space(),
    }.get(kind, EuclideanSpace())
    return Dataset(x, draw(x), space), Dataset(xt, draw(xt), space)


def _sweep_grid(train, fractions):
    """Thresholds at 0, above the top eigenvalue, between eigenvalues, and repeated."""
    ev = covariate_stats(train.covariates).eigenvalues
    inner = [float(ev[0]) * f for f in fractions]
    return np.array([0.0, 1.5 * float(ev[0]), *inner, *inner[:2], 0.0])


SWEEP_KINDS = ("euclidean-scalar", "euclidean-vector", "wasserstein", "correlation", "l1")


class TestRankPathSweep:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from(SWEEP_KINDS),
        st.integers(3, 12),
        st.integers(1, 8),
        st.integers(2, 6),
        st.integers(0, 10_000),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    @example("euclidean-scalar", 4, 8, 5, 1, [0.2, 0.5])  # n < p
    @example("euclidean-vector", 5, 7, 4, 2, [0.1, 0.6])
    @example("wasserstein", 6, 3, 6, 0, [0.05, 0.3, 0.9])
    @example("correlation", 5, 8, 4, 4, [0.1, 0.4])
    @example("l1", 4, 6, 3, 5, [0.2, 0.7])
    def test_matches_direct_route(self, kind, n, p, m, seed, fractions):
        train, test = _sweep_instance(kind, n, p, m, seed)
        grid = _sweep_grid(train, fractions)
        nested = mspe_profile(train, test, grid)
        np.testing.assert_allclose(nested, _direct_profile(train, test, grid), rtol=1e-12, atol=0)

    def test_shared_rank_values_are_bit_identical(self):
        train, test = _sweep_instance("wasserstein", 10, 4, 8, 11)
        grid = _sweep_grid(train, [0.3, 0.6])
        nested = mspe_profile(train, test, grid)
        ranks = kept_rank(covariate_stats(train.covariates), grid)
        for k in np.unique(ranks):
            assert len(set(nested[ranks == k].tolist())) == 1
        assert nested[0] == nested[-1]

    def test_wasserstein_design_that_needs_pava(self):
        train, test = _sweep_instance("wasserstein", 6, 3, 6, 0)
        grid = _sweep_grid(train, [0.05, 0.3])
        raw = fit(train, 0.0).weight_matrix(test.covariates).T @ train.responses
        assert np.any(np.diff(raw, axis=1) < 0.0)  # the blend decreases somewhere
        nested = mspe_profile(train, test, grid)
        np.testing.assert_allclose(nested, _direct_profile(train, test, grid), rtol=1e-12, atol=0)

    def test_degenerate_weight_totals_raise(self):
        # An uncentered design breaks the zero column sums, so the weight
        # totals can turn negative; the sweep must refuse like the direct route.
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        svd = compute_svd(x)
        stats = CovariateStats(mean=np.zeros(1), centered_svd=svd, eigenvalues=svd.values**2 / 4)
        path = rank_predictions(EuclideanSpace(), np.arange(4.0), [(stats, np.array([[-50.0]]), [1])])
        with pytest.raises(DegenerateWeightsError):
            next(path)

    def test_dykstra_failure_propagates(self, monkeypatch):
        train, test = _sweep_instance("correlation", 5, 2, 4, 4)
        monkeypatch.setattr(metric_spaces, "DYKSTRA_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            mspe_profile(train, test, [0.0])

    @pytest.mark.parametrize("bad", [np.ones((2, 1)), np.array([[0.0, np.nan, 1.0], [0.0, 0.0, 1.0]])])
    def test_rejects_bad_test_covariates(self, bad):
        train, test = _sweep_instance("euclidean-scalar", 6, 3, 2, 6)
        with pytest.raises(ValueError):
            mspe_profile(train, Dataset(bad, np.zeros(bad.shape[0]), train.space), [0.0])
