import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from frechet_svt import diagnose, evaluate_trial, mspe_profile, regression, tune_lambda
from frechet_svt.linalg import compute_svd, svt
from frechet_svt.metric_spaces import CorrelationSpace, EuclideanSpace, L1Space, MetricSpace, WassersteinSpace
from frechet_svt.regression import (
    Dataset,
    covariate_stats,
    fit,
    kept_rank,
    pcr_coefficients,
    rank_predictions,
)
from oracles import (
    blend_path_reference,
    brute_covariance,
    monotone_grid_search,
    ols_with_intercept,
    pcr_fit_oracle,
    random_correlation_matrix,
)

EUCLID = EuclideanSpace()


def linear_euclidean_dataset(rng, n=30, p=4, noise=0.0):
    x = rng.standard_normal((n, p))
    a = rng.standard_normal()
    b = rng.standard_normal(p)
    y = a + x @ b + noise * rng.standard_normal(n)
    return Dataset(x, y, EUCLID), a, b


def svd_covariance(stats):
    """The covariance as the stats' one SVD gives it: ``Vt' diag(s**2 / n) Vt``."""
    vt = stats.centered_svd.right_t
    return (vt.T * stats.eigenvalues[: vt.shape[0]]) @ vt


def generic_pcr_beta(x, y, lam):
    """The pseudoinverse of ``svt(cov, lam)`` times ``cross``, from the brute-force covariance."""
    cross = (x - x.mean(axis=0)).T @ (y - y.mean(axis=0)) / len(x)
    return compute_svd(svt(brute_covariance(x), lam)).kept().pinv() @ cross


def weights_at(x, lam, query):
    """Regression weights of design ``x`` at one query, via ``FittedModel.weight_matrix``."""
    model = fit(Dataset(x, np.zeros(len(x)), EUCLID), lam)
    return model.weight_matrix(np.reshape(query, (1, -1)))[:, 0]


class TestCovariateStats:
    def test_identical_rows_zero_covariance(self):
        stats = covariate_stats(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert np.allclose(svd_covariance(stats), 0.0, atol=1e-14)

    def test_hand_computed_two_samples(self):
        stats = covariate_stats(np.array([[0.0], [2.0]]))
        assert np.isclose(stats.mean[0], 1.0)
        assert np.isclose(svd_covariance(stats)[0, 0], 1.0)

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((20, 5))
        stats = covariate_stats(x)
        assert np.allclose(svd_covariance(stats), brute_covariance(x), atol=1e-10)

    def test_svd_consistency_with_covariance(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((15, 4))
        stats = covariate_stats(x)
        f = stats.centered_svd
        rebuilt = (f.right_t.T * f.values**2) @ f.right_t / stats.n
        assert np.allclose(rebuilt, brute_covariance(x), atol=1e-8)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            covariate_stats(np.ones((1, 3)))

    @pytest.mark.parametrize(
        "x",
        [
            1e200 * np.array([[1.0, 0.0], [-1.0, 2.0], [0.5, -1.0]]),  # s**2 overflows
            np.array([[1.7e308, 0.0], [1.7e308, 1.0], [-1e308, 2.0]]),  # the mean overflows
        ],
    )
    def test_overflow_raises_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                covariate_stats(x)

    def test_kept_rank_rejects_nan_threshold(self):
        stats = covariate_stats(np.random.default_rng(31).standard_normal((8, 3)))
        with pytest.raises(ValueError):
            kept_rank(stats, np.nan)
        with pytest.raises(ValueError):
            kept_rank(stats, np.array([0.1, np.nan]))


class TestWeights:
    def test_all_ones_at_the_mean(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((12, 3))
        stats = covariate_stats(x)
        w = weights_at(x, 0.7, stats.mean)
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_all_ones_when_threshold_kills_spectrum(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((12, 3))
        stats = covariate_stats(x)
        w = weights_at(x, stats.eigenvalues[0] * 2, rng.standard_normal(3))
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_matches_brute_force_at_zero_threshold(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((10, 3))
        stats = covariate_stats(x)
        query = rng.standard_normal(3)
        # independent pseudoinverse routine
        brute = 1.0 + (x - stats.mean) @ np.linalg.pinv(brute_covariance(x)) @ (query - stats.mean)
        assert np.allclose(weights_at(x, 0.0, query), brute, atol=1e-8)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.floats(0.0, 3.0))
    def test_weight_mean_is_one(self, seed, lam):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 15)), int(rng.integers(1, 6))
        x = rng.standard_normal((n, p))
        w = weights_at(x, lam, rng.standard_normal(p))
        assert abs(w.mean() - 1.0) <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.floats(1e-3, 1.5), st.booleans())
    def test_matches_generic_route_above_zero_and_below_full_rank(self, seed, frac, wide):
        # The SVD-factor weights against 1 + Xc pinv(svt(cov, lam)) (q - mean),
        # for a positive threshold on a tall design, or on one with n < p.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 12))
        n = int(rng.integers(2, p)) if wide else int(rng.integers(p + 1, 30))
        x = rng.standard_normal((n, p)) * rng.uniform(0.2, 3.0, p)
        stats = covariate_stats(x)
        lam = frac * stats.eigenvalues[0]
        # A threshold on an eigenvalue could keep different ranks in the two routes.
        assume(np.all(np.abs(stats.eigenvalues - lam) > 1e-6 * stats.eigenvalues[0]))
        q = rng.standard_normal((4, p))
        generic = 1.0 + (x - stats.mean) @ compute_svd(svt(brute_covariance(x), lam)).kept().pinv() @ (q - stats.mean).T
        ours = fit(Dataset(x, np.zeros(n), EUCLID), lam).weight_matrix(q)
        assert np.max(np.abs(ours - generic)) <= 1e-10 * np.max(np.abs(generic))


class TestFit:
    def test_zero_threshold_full_rank_inverts_covariance(self):
        rng = np.random.default_rng(25)
        data, _, _ = linear_euclidean_dataset(rng, n=40, p=4)
        model = fit(data, 0.0)
        q = rng.standard_normal((3, 4))
        centered = data.covariates - model.stats.mean
        inv = np.linalg.inv(brute_covariance(data.covariates))
        assert model.rank == 4
        assert np.allclose(model.weight_matrix(q), 1.0 + centered @ inv @ (q - model.stats.mean).T, atol=1e-8)

    def test_threshold_above_top_gives_zero(self):
        rng = np.random.default_rng(26)
        data, _, _ = linear_euclidean_dataset(rng)
        stats = covariate_stats(data.covariates)
        model = fit(data, stats.eigenvalues[0] * 1.5)
        assert model.rank == 0
        assert np.all(model.weight_matrix(rng.standard_normal((3, stats.p))) == 1.0)

    def test_diagonal_covariance_inverts_retained_directions_only(self):
        # orthogonal centered design -> exactly diagonal sample covariance
        s1, s2 = 4.0, 1.0
        u1 = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
        u2 = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2)
        x = s1 * np.outer(u1, [1, 0]) + s2 * np.outer(u2, [0, 1])
        y = np.array([1.0, -2.0, 0.5, 3.0])
        stats = covariate_stats(x)
        assert np.allclose(svd_covariance(stats), np.diag([s1**2 / 4, s2**2 / 4]), atol=1e-12)
        lam = (s2**2 / 4 + s1**2 / 4) / 2
        cross = x.T @ (y - y.mean()) / 4  # the design is already centered
        _, beta = pcr_coefficients(Dataset(x, y, EUCLID), lam)
        assert np.allclose(beta, np.diag([4 / s1**2, 0.0]) @ cross, atol=1e-12)
        assert np.allclose(beta, generic_pcr_beta(x, y, lam), atol=1e-12)

    def test_pcr_coefficients_match_generic_route(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((12, 5))
        y = rng.standard_normal((12, 2))
        stats = covariate_stats(x)
        for lam in [0.0, float(np.median(stats.eigenvalues)), 10.0]:
            _, beta = pcr_coefficients(Dataset(x, y, EUCLID), lam)
            assert np.allclose(beta, generic_pcr_beta(x, y, lam), atol=1e-9)


class TestPredict:
    def test_query_at_mean_gives_unweighted_mean(self):
        rng = np.random.default_rng(28)
        data, _, _ = linear_euclidean_dataset(rng, noise=1.0)
        model = fit(data, 0.4)
        assert np.isclose(
            float(model.predict(model.stats.mean)), float(np.mean(data.responses)), atol=1e-10
        )

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(29)
        data, a, b = linear_euclidean_dataset(rng, n=50, p=5, noise=0.0)
        model = fit(data, 0.0)
        for _ in range(5):
            q = rng.standard_normal(5)
            intercept, slopes = ols_with_intercept(data.covariates, data.responses)
            assert abs(float(model.predict(q)) - (a + b @ q)) <= 1e-6
            assert abs(float(model.predict(q)) - (intercept + slopes @ q)) <= 1e-6

    def test_sample_analogue_with_explicit_inverse(self):
        rng = np.random.default_rng(30)
        data, _, _ = linear_euclidean_dataset(rng, n=60, p=3, noise=0.5)
        model = fit(data, 0.0)
        stats = model.stats
        inv = np.linalg.inv(brute_covariance(data.covariates))
        q = rng.standard_normal(3)
        w = 1.0 + (data.covariates - stats.mean) @ inv @ (q - stats.mean)
        expected = float(w @ data.responses / w.sum())
        assert abs(float(model.predict(q)) - expected) <= 1e-8

    def test_wasserstein_micro_instance_matches_grid_search(self):
        rng = np.random.default_rng(31)
        space = WassersteinSpace.with_uniform_grid(5)
        x = rng.standard_normal((3, 2))
        q = np.sort(rng.standard_normal((3, 5)), axis=1)
        data = Dataset(x, q, space)
        model = fit(data, 0.0)
        query = rng.standard_normal(2)
        ours = model.predict(query)
        w = model.weight_matrix(query[None])[:, 0]

        def objective(cands):
            # weighted squared-distance objective, vectorized over candidates
            d2 = ((cands[:, None, :] - q[None, :, :]) ** 2) @ space.cell_weights
            return d2 @ w

        oracle = monotone_grid_search(objective, 5, q.min() - 1, q.max() + 1)
        assert np.max(np.abs(ours - oracle)) <= 1e-6

    def test_translation_equivariance(self):
        rng = np.random.default_rng(32)
        data, _, _ = linear_euclidean_dataset(rng, noise=0.3)
        shift = rng.standard_normal(data.covariates.shape[1])
        shifted = Dataset(data.covariates + shift, data.responses, EUCLID)
        q = rng.standard_normal(data.covariates.shape[1])
        for lam in [0.0, 0.5]:
            a = float(fit(data, lam).predict(q))
            b = float(fit(shifted, lam).predict(q + shift))
            assert abs(a - b) <= 1e-9

    def test_plateau_below_smallest_nonzero_eigenvalue(self):
        rng = np.random.default_rng(33)
        data, _, _ = linear_euclidean_dataset(rng, n=12, p=4, noise=0.2)
        stats = covariate_stats(data.covariates)
        floor = stats.eigenvalues[stats.eigenvalues > 1e-10].min()
        base = fit(data, 0.0)
        q = rng.standard_normal(4)
        for lam in [floor * 0.1, floor * 0.9]:
            assert abs(float(fit(data, lam).predict(q)) - float(base.predict(q))) <= 1e-10


def extrapolating_instance(kind, seed):
    """Training data of one response kind and queries four times wider than the design.

    The wide queries give negative weights, so Wasserstein blends can
    decrease (PAVA) and correlation blends can leave the PSD cone (Dykstra).
    """
    rng = np.random.default_rng(seed)
    n, p = 9, 3
    x = rng.standard_normal((n, p))
    queries = 4.0 * rng.standard_normal((6, p))
    slope = rng.standard_normal(p)
    if kind == "euclidean-scalar":
        return Dataset(x, x @ slope + rng.standard_normal(n), EUCLID), queries
    if kind in ("euclidean-vector", "l1"):
        y = x @ rng.standard_normal((p, 2)) + rng.standard_normal((n, 2))
        return Dataset(x, y, EUCLID if kind == "euclidean-vector" else L1Space()), queries
    if kind == "wasserstein":
        space = WassersteinSpace.with_uniform_grid(7)
        spread = np.exp(x @ slope)  # quantile slopes that extrapolate below zero
        y = (x @ slope)[:, None] + spread[:, None] * np.linspace(-1.0, 1.0, 7)
        return Dataset(x, y, space), queries
    y = np.stack([random_correlation_matrix(3, rng) for _ in range(n)])
    return Dataset(x, y, CorrelationSpace(3)), queries


AFFINE_KINDS = ("euclidean-scalar", "euclidean-vector", "wasserstein", "correlation")


class TestRankPredictions:
    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_affine_predict_many_forms_no_weights(self, kind, lam, monkeypatch):
        data, queries = extrapolating_instance(kind, 5)
        model = fit(data, lam)
        w = model.weight_matrix(queries)
        expected = data.space.frechet_mean_blocks(data.responses, [w])[0]
        raw = np.tensordot(w / w.sum(axis=0), data.responses, axes=(0, 0))
        if kind == "wasserstein":
            assert np.any(np.diff(raw, axis=1) < 0.0)  # PAVA runs
        if kind == "correlation":
            assert np.linalg.eigvalsh(raw)[:, 0].min() < -1e-3  # Dykstra runs

        def refuse(name):
            def call(*args):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(regression, "rank_weights", refuse("rank_weights"))
        monkeypatch.setattr(MetricSpace, "frechet_mean_blocks", refuse("frechet_mean_blocks"))
        preds = model.predict_many(queries)
        np.testing.assert_allclose(preds, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", [*AFFINE_KINDS, "l1"])
    def test_rank_zero_is_the_unweighted_mean(self, kind):
        data, queries = extrapolating_instance(kind, 6)
        null = next(rank_predictions(data.space, data.responses, [(data.stats, queries[:1], [0])]))
        mean = data.space.frechet_mean_blocks(data.responses, [np.ones(data.n)[:, None]])[0][0]
        np.testing.assert_allclose(null[0], mean, rtol=0, atol=1e-12)


class TestSharedProducts:
    """One ``rank_predictions`` call shares each design's cross product and each (design, queries) pair's scores."""

    @staticmethod
    def asks(kind, seed):
        data, wide = extrapolating_instance(kind, seed)
        rng = np.random.default_rng(seed + 100)
        clean = data.stats
        noisy = covariate_stats(data.covariates + 0.3 * rng.standard_normal(data.covariates.shape))
        own = data.covariates  # the same array object in every ask that reads it
        asks = [
            (clean, own, [3]),
            (noisy, own, [3]),  # shares its design with the next two asks
            (noisy, own, [1, 2]),  # shares the design and the queries
            (clean, wide, [0, 1, 3]),
            (noisy, wide, [2]),
            (noisy, wide, [0, 3]),
            (clean, clean.mean[None], [0]),
        ]
        return data, asks

    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_stack_equals_its_ask_alone_bit_for_bit(self, kind, seed):
        data, asks = self.asks(kind, seed)
        shared = list(rank_predictions(data.space, data.responses, asks))
        alone = [s for ask in asks for s in rank_predictions(data.space, data.responses, [ask])]
        before = [s for st, q, ranks in asks for s in blend_path_reference(st, data.responses, data.space, q, ranks)]
        assert len(shared) == len(alone) == len(before) == sum(len(ranks) for *_, ranks in asks)
        for got, one, old in zip(shared, alone, before):
            assert got.shape == one.shape == old.shape
            assert got.tobytes() == one.tobytes() == old.tobytes()

    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    def test_products_are_made_once_per_design_and_pair(self, kind, monkeypatch):
        data, asks = self.asks(kind, 2)
        seen = []
        blend_path = regression._blend_path

        def spy(stats, flat, cross, scores, ranks):
            seen.append((id(cross), id(scores)))
            return blend_path(stats, flat, cross, scores, ranks)

        monkeypatch.setattr(regression, "_blend_path", spy)
        list(rank_predictions(data.space, data.responses, asks))
        crosses = [c for c, _ in seen]
        scores = [s for _, s in seen]
        # Two designs; five (design, queries) pairs: clean-own, noisy-own, clean-wide, noisy-wide, clean-mean.
        assert crosses[1] == crosses[2] == crosses[4] == crosses[5] and crosses[0] == crosses[3] == crosses[6]
        assert crosses[0] != crosses[1]
        assert scores[1] == scores[2] and scores[4] == scores[5]
        assert len({scores[i] for i in (0, 1, 3, 4, 6)}) == 5


class TestPcr:
    def test_constant_responses(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((15, 3))
        data = Dataset(x, np.full(15, 3.3), EUCLID)
        ybar, beta = pcr_coefficients(data, 0.0)
        assert np.isclose(ybar, 3.3)
        assert np.allclose(beta, 0.0, atol=1e-10)

    def test_zero_threshold_full_rank_equals_ols(self):
        rng = np.random.default_rng(35)
        data, _, _ = linear_euclidean_dataset(rng, n=40, p=4, noise=0.7)
        ybar, beta = pcr_coefficients(data, 0.0)
        intercept, slopes = ols_with_intercept(data.covariates, data.responses)
        assert np.allclose(beta, slopes, atol=1e-8)
        assert np.isclose(ybar - beta @ covariate_stats(data.covariates).mean, intercept, atol=1e-8)

    def test_matches_principal_score_regression_oracle(self):
        rng = np.random.default_rng(36)
        data, _, _ = linear_euclidean_dataset(rng, n=30, p=5, noise=0.5)
        stats = covariate_stats(data.covariates)
        evals = stats.eigenvalues
        for k in [1, 2, 4]:
            lam = (evals[k] + evals[k - 1]) / 2  # retain exactly k components
            _, beta = pcr_coefficients(data, lam)
            _, beta_oracle = pcr_fit_oracle(data.covariates, data.responses, k)
            assert np.allclose(beta, beta_oracle, atol=1e-8)

    def test_euclidean_predict_equals_closed_form(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n, p = int(rng.integers(8, 30)), int(rng.integers(2, 6))
            data, _, _ = linear_euclidean_dataset(rng, n=n, p=p, noise=1.0)
            stats = covariate_stats(data.covariates)
            lam = float(rng.uniform(0, stats.eigenvalues[0] * 1.2))
            model = fit(data, lam)
            ybar, beta = pcr_coefficients(data, lam)
            q = rng.standard_normal(p)
            closed = ybar + beta @ (q - stats.mean)
            assert abs(float(model.predict(q)) - closed) <= 1e-10 * (1 + abs(closed))

    def test_vector_responses(self):
        rng = np.random.default_rng(38)
        x = rng.standard_normal((25, 4))
        y = rng.standard_normal((25, 3))
        data = Dataset(x, y, EUCLID)
        ybar, beta = pcr_coefficients(data, 0.0)
        model = fit(data, 0.0)
        q = rng.standard_normal(4)
        closed = ybar + beta.T @ (q - covariate_stats(x).mean)
        assert np.allclose(model.predict(q), closed, atol=1e-9)

    def test_rejects_non_euclidean(self):
        space = WassersteinSpace.with_uniform_grid(5)
        data = Dataset(np.random.default_rng(0).standard_normal((4, 2)), np.zeros((4, 5)), space)
        with pytest.raises(ValueError):
            pcr_coefficients(data, 0.0)


class TestDatasetValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4), EUCLID)

    def test_non_monotone_quantiles_rejected(self):
        space = WassersteinSpace.with_uniform_grid(4)
        q = np.tile([0.0, 1.0, 2.0, 3.0], (5, 1))
        q[3] = [0.0, 2.0, 1.0, 3.0]
        with pytest.raises(ValueError, match="point 3"):
            Dataset(np.random.default_rng(0).standard_normal((5, 2)), q, space)

    def test_quantile_rows_of_wrong_width_rejected(self):
        # Seven values per row on a four-level grid once gave seven-column
        # "quantile functions" from predict_many.
        space = WassersteinSpace.with_uniform_grid(4)
        q = np.sort(np.random.default_rng(1).standard_normal((6, 7)), axis=1)
        with pytest.raises(ValueError):
            Dataset(np.random.default_rng(2).standard_normal((6, 2)), q, space)

    def test_non_finite_responses_rejected(self):
        x = np.random.default_rng(3).standard_normal((4, 2))
        with pytest.raises(ValueError):
            Dataset(x, np.array([1.0, np.nan, 0.0, 2.0]), EUCLID)
        q = np.tile([0.0, 1.0, 2.0], (4, 1))
        q[1, 2] = np.inf
        with pytest.raises(ValueError):
            Dataset(x, q, WassersteinSpace.with_uniform_grid(3))

    def test_non_psd_correlation_rejected(self):
        # symmetric with a unit diagonal, but one eigenvalue is negative
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(bad)[0] < -0.5
        ys = np.stack([np.eye(3), bad, np.eye(3)])
        with pytest.raises(ValueError):
            Dataset(np.random.default_rng(4).standard_normal((3, 2)), ys, CorrelationSpace(3))


class TestQueryValidation:
    @staticmethod
    def model():
        data, _, _ = linear_euclidean_dataset(np.random.default_rng(40), n=20, p=3, noise=0.1)
        return fit(data, 0.0)

    def assert_rejected(self, single, batch):
        model = self.model()
        for call, arg in [
            (model.predict, single),
            (model.weight_matrix, [single]),
            (model.weight_matrix, batch),
            (model.predict_many, batch),
        ]:
            with pytest.raises(ValueError):
                call(arg)

    def test_wrong_width_rejected(self):
        # A one-coordinate query used to broadcast against p = 3.
        self.assert_rejected([0.5], np.full((4, 1), 0.5))
        self.assert_rejected([0.5, 0.1, 0.2, 0.3], np.zeros((2, 4)))

    def test_non_finite_rejected(self):
        self.assert_rejected([0.1, np.nan, 0.2], np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]))

    def test_valid_queries_unchanged(self):
        model = self.model()
        q = np.array([0.3, -0.2, 0.1])
        assert np.array_equal(model.predict(q), model.predict_many(q[None, :])[0])
        assert np.array_equal(model.weight_matrix(q[None, :]), model.weight_matrix(q))


def policy_data(scale):
    """20 rows of 3 covariates with Euclidean responses of +-``scale``, a noisy copy and two query rows."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    y = scale * np.where(rng.random(20) < 0.5, -1.0, 1.0)
    noisy = x + 0.01 * rng.standard_normal(x.shape)
    return Dataset(x, y, EUCLID), Dataset(noisy, y, EUCLID), rng.standard_normal((2, 3))


POLICY_GRID = np.linspace(0.01, 0.5, 40)

# Each computing entry of the library, called on (clean, noisy, queries).
POLICY_ENTRIES = {
    "predict_many": lambda clean, noisy, q: fit(clean, 0.0).predict_many(q),
    "predict": lambda clean, noisy, q: fit(clean, 0.0).predict(q[0]),
    "mspe_profile": lambda clean, noisy, q: mspe_profile(noisy, clean, POLICY_GRID),
    "tune_lambda": lambda clean, noisy, q: tune_lambda(noisy, clean, POLICY_GRID),
    "evaluate_trial": lambda clean, noisy, q: evaluate_trial(clean, noisy, clean, POLICY_GRID, q, POLICY_GRID),
    "diagnose": lambda clean, noisy, q: diagnose(clean, noisy, 0.0, q[0]),
}


class TestRaisePolicy:
    """Finite responses of +-1e308 overflow in the blends: the library raises, as the CLI exits 3.

    These entries once returned nan (``tune_lambda`` an argmin over nan
    errors) with only a ``RuntimeWarning``.
    """

    @pytest.mark.parametrize("entry", list(POLICY_ENTRIES))
    def test_entry_raises_on_overflow(self, entry):
        with pytest.raises(FloatingPointError, match="overflow"):
            POLICY_ENTRIES[entry](*policy_data(1e308))

    @pytest.mark.parametrize("entry", list(POLICY_ENTRIES))
    def test_entry_restores_the_callers_setting(self, entry):
        # evaluate_trial nests mspe_profile: the inner entry's exit must not
        # end the outer one's policy, nor the outer's leave it on.
        with np.errstate(all="ignore"):
            caller = np.geterr()
            POLICY_ENTRIES[entry](*policy_data(1.0))
            assert np.geterr() == caller
            with pytest.raises(FloatingPointError):
                POLICY_ENTRIES[entry](*policy_data(1e308))
            assert np.geterr() == caller
        assert np.geterr() != caller

    def test_rank_predictions_runs_under_its_consumers_setting(self):
        clean, _, q = policy_data(1e308)
        ask = (clean.stats, q, [1, 2, 3])
        with np.errstate(all="ignore"):
            caller = np.geterr()
            for stack in rank_predictions(EUCLID, clean.responses, [ask]):
                assert np.geterr() == caller
                assert np.isnan(stack).all()  # ignored, as the consumer asked
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            list(rank_predictions(EUCLID, clean.responses, [ask]))
