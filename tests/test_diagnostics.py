import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from frechet_svt import diagnostics
from frechet_svt.diagnostics import ROWSPACE_RTOL, _seminorm, diagnose
from frechet_svt.linalg import compute_svd, spectral_norm
from frechet_svt.metric_spaces import EuclideanSpace, WassersteinSpace
from frechet_svt.regression import Dataset, covariate_stats, fit, kept_rank
from oracles import bias_term_reference, brute_covariance, mahalanobis_seminorm, sigma_lambda


def crafted_design():
    """Centered orthogonal design with singular values exactly (4, 1)."""
    u1 = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    u2 = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2)
    x = 4.0 * np.outer(u1, [1.0, 0.0]) + 1.0 * np.outer(u2, [0.0, 1.0])
    z = x + 0.1 * np.outer(u1, [0.0, 1.0])
    return x, z


def designs(*mats):
    """One Euclidean Dataset per covariate matrix; the weights never read the responses."""
    return [Dataset(m, np.zeros(len(m)), EuclideanSpace()) for m in mats]


def noisy_twin(train, z):
    """The training responses on the noisy covariates ``z``."""
    return Dataset(z, train.responses, train.space)


def columns(clean, noisy, lam, x=None):
    """``diagnose``'s columns, at the clean design's mean unless a query ``x`` is given."""
    return diagnose(clean, noisy, lam, clean.stats.mean if x is None else x)


def b_lambda(x, lam, query):
    """``diagnose``'s truncation bias of the design ``x`` (noiseless pair)."""
    (train,) = designs(x)
    return columns(train, train, lam, query)["b_lambda"]


def weight_columns(clean, noisy, lam, query):
    cols = columns(clean, noisy, lam, query)
    return cols["weight_lhs"], cols["weight_rhs"]


def rowspace_ok_at(rtol, clean, noisy, lam, query):
    """``diagnose``'s row-space verdict with the residual tolerance set to ``rtol``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "ROWSPACE_RTOL", rtol)
        return columns(clean, noisy, lam, query)["rowspace_ok"]


def diag41_design(mu=(0.0, 0.0)):
    """A four-row design with mean ``mu`` and covariance exactly diag(4, 1)."""
    u1 = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    u2 = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2)
    x = 4.0 * np.outer(u1, [1.0, 0.0]) + 2.0 * np.outer(u2, [0.0, 1.0])
    return x + np.asarray(mu)


def spectral_design(rng, n, p, values):
    """A design with a random mean whose centered part has exactly ``values``
    as its nonzero singular values."""
    r = len(values)
    cols = rng.standard_normal((n, r))
    u, _ = np.linalg.qr(cols - cols.mean(axis=0))  # orthogonal to the ones vector
    v, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return (u * values) @ v.T + rng.standard_normal(p)


def rowspace_query(x, rng):
    stats = covariate_stats(x)
    return stats.mean + (x - stats.mean).T @ rng.standard_normal(x.shape[0]) / x.shape[0]


def low_rank_pair(rng, n=30, p=10, rank=2, scale=1e-3):
    x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
    z = x + scale * rng.standard_normal((n, p))
    return x, z


class TestBiasTerm:
    def test_zero_below_smallest_nonzero_eigenvalue(self):
        assert b_lambda(diag41_design(), 0.5, [3.0, -2.0]) == 0.0

    def test_zero_at_the_mean(self):
        mu = np.array([1.0, 2.0])
        assert b_lambda(diag41_design(mu), 2.0, mu) == 0.0

    def test_diagonal_hand_computation(self):
        # truncated part is diag(0, 1): rank 1, seminorm of (1,1) equals 1
        assert np.isclose(b_lambda(diag41_design(), 2.0, [1.0, 1.0]), 1.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(40)
        g = rng.standard_normal((6, 4))
        mu = rng.standard_normal(4)
        x = rng.standard_normal(4)
        lams = np.linspace(0, covariate_stats(g + mu).eigenvalues[0] * 1.2, 25)
        vals = [b_lambda(g + mu, lam, x) for lam in lams]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


class TestSnrReciprocal:
    def test_noiseless(self):
        x, _ = crafted_design()
        assert columns(*designs(x, x), 0.3)["snr_reciprocal"] == 0.0

    def test_hand_computed_ratio(self):
        x, z = crafted_design()
        clean, noisy = designs(x, z)
        # estimator threshold 0.5 sits between the covariance eigenvalues
        # 4**2 / 4 and 1**2 / 4, so only the top singular value (4) is retained
        assert kept_rank(clean.stats, 0.5) == kept_rank(noisy.stats, 0.5) == 1
        assert np.isclose(columns(clean, noisy, 0.5)["snr_reciprocal"], 0.1 / 4.0, atol=1e-6)

    def test_infinite_floor_surfaced_separately(self):
        x, z = crafted_design()
        cols = columns(*designs(x, z), 5.0)
        assert cols["signal_floor"] == np.inf
        assert cols["snr_reciprocal"] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            columns(*designs(np.ones((3, 2)), np.ones((2, 2))), 0.0)


class TestWeightStability:
    def test_noiseless_lhs_zero(self):
        rng = np.random.default_rng(41)
        x, _ = low_rank_pair(rng)
        lhs, rhs = weight_columns(*designs(x, x), 0.2, rowspace_query(x, rng))
        assert lhs <= 1e-10
        assert rhs == 0.0

    def test_at_the_mean_rhs_reduces(self):
        rng = np.random.default_rng(42)
        x, z = low_rank_pair(rng)
        stats = covariate_stats(x)
        lam = 0.1
        lhs, rhs = weight_columns(*designs(x, z), lam, stats.mean)
        n = x.shape[0]
        lam_sv = np.sqrt(n * lam)  # the covariance threshold on the design scale
        floor = min(
            sigma_lambda(x - stats.mean, lam_sv),
            sigma_lambda(z - covariate_stats(z).mean, lam_sv),
        )
        assert np.isclose(rhs, np.sqrt(n) * spectral_norm(z - x) / floor)
        assert lhs <= rhs

    def test_inequality_over_threshold_sweep(self):
        # Thresholds sit in spectral gaps shared by the clean and noisy
        # designs; a threshold that splits the two spectra differently
        # changes the retained subspace of one side only and the bound
        # does not apply there.
        rng = np.random.default_rng(43)
        for _ in range(10):
            x, z = low_rank_pair(rng, scale=float(rng.choice([1e-3, 1e-2])))
            query = rowspace_query(x, rng)
            evals = covariate_stats(x).eigenvalues
            sweep = [
                float(evals[1]) / 2,  # keeps both retained components
                float((evals[0] + evals[1]) / 2),  # keeps the top one
                float(evals[0]) * 4,  # keeps nothing
            ]
            for lam in sweep:
                lhs, rhs = weight_columns(*designs(x, z), lam, query)
                assert lhs <= rhs + 1e-12

    def test_inequality_full_rank_at_zero_threshold(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            x = rng.standard_normal((25, 4))
            z = x + 1e-3 * rng.standard_normal((25, 4))
            lhs, rhs = weight_columns(*designs(x, z), 0.0, rowspace_query(x, rng))
            assert lhs <= rhs + 1e-12

    def test_rowspace_precondition_enforced(self):
        rng = np.random.default_rng(44)
        x, z = low_rank_pair(rng, n=10, p=6, rank=2)
        outside = covariate_stats(x).mean + rng.standard_normal(6)
        cols = columns(*designs(x, z), 0.1, outside)
        assert not cols["rowspace_ok"]
        assert np.isnan(cols["weight_lhs"]) and np.isnan(cols["weight_rhs"])


class TestDenoisingBound:
    def test_noiseless_is_exactly_zero(self):
        rng = np.random.default_rng(45)
        x, _ = low_rank_pair(rng)
        y = x @ rng.standard_normal(10) + 0.1 * rng.standard_normal(30)
        train = Dataset(x, y, EuclideanSpace())
        report = diagnose(train, noisy_twin(train, x), 0.1, rowspace_query(x, rng))
        assert report["noise_norm"] == 0.0
        assert report["bound_rhs"] == 0.0
        assert report["observed_lhs"] <= 1e-12

    def test_euclidean_toy_inequality(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            x, z = low_rank_pair(rng)
            y = x @ rng.standard_normal(10) + 0.1 * rng.standard_normal(30)
            train = Dataset(x, y, EuclideanSpace())
            evals = covariate_stats(x).eigenvalues
            lam = float((evals[1] + evals[2]) / 2)  # inside the spectral gap
            report = diagnose(train, noisy_twin(train, z), lam, rowspace_query(x, rng))
            assert report["precondition_ok"]
            assert report["observed_lhs"] <= report["bound_rhs"] + 1e-12

    def test_wasserstein_toy_inequality(self):
        rng = np.random.default_rng(47)
        space = WassersteinSpace.with_uniform_grid(31)
        for _ in range(5):
            x, z = low_rank_pair(rng)
            loc = x @ rng.standard_normal(10)
            from scipy.special import ndtri

            q = loc[:, None] + ndtri(space.grid)[None, :]
            train = Dataset(x, q, space)
            evals = covariate_stats(x).eigenvalues
            lam = float((evals[1] + evals[2]) / 2)
            report = diagnose(train, noisy_twin(train, z), lam, rowspace_query(x, rng))
            assert report["precondition_ok"]
            assert report["observed_lhs"] <= report["bound_rhs"] + 1e-12

    def test_infinite_floor_reports_vacuous_bound(self):
        rng = np.random.default_rng(48)
        x, z = low_rank_pair(rng)
        y = x @ rng.standard_normal(10)
        train = Dataset(x, y, EuclideanSpace())
        evals = covariate_stats(x).eigenvalues
        lam = float(evals[0] * 4)
        report = diagnose(train, noisy_twin(train, z), lam, rowspace_query(x, rng))
        assert report["signal_floor"] == np.inf
        assert report["bound_rhs"] == np.inf

    def test_rowspace_violation_flagged_not_fatal(self):
        rng = np.random.default_rng(49)
        x, z = low_rank_pair(rng, n=10, p=6, rank=2)
        y = x @ rng.standard_normal(6)
        train = Dataset(x, y, EuclideanSpace())
        report = diagnose(train, noisy_twin(train, z), 0.1, covariate_stats(x).mean + rng.standard_normal(6))
        assert not report["precondition_ok"]

    def test_noisy_responses_must_be_the_clean_ones(self):
        # other responses would give finite observed_lhs/bound_rhs values that bound nothing
        rng = np.random.default_rng(50)
        x, z = low_rank_pair(rng)
        y = x @ rng.standard_normal(10)
        train = Dataset(x, y, EuclideanSpace())
        with pytest.raises(ValueError, match="same responses"):
            diagnose(train, Dataset(z, y + 1.0, train.space), 0.1, rowspace_query(x, rng))


class TestDiagnose:
    """``diagnose``'s columns are their formulas over the two fits, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(["euclidean", "wasserstein"]),
        st.booleans(),
        st.floats(0.0, 1.2),
        st.booleans(),
    )
    def test_columns_equal_the_pieces(self, seed, kind, full_rank, frac, inside):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(8, 30)), int(rng.integers(2, 7))
        if full_rank:
            x = rng.standard_normal((n, p))
        else:
            x, _ = low_rank_pair(rng, n=n, p=p, rank=int(rng.integers(1, p)))
        z = x + 1e-2 * rng.standard_normal((n, p))
        loc = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
        if kind == "euclidean":
            space, y = EuclideanSpace(), loc
        else:
            space = WassersteinSpace.with_uniform_grid(11)
            y = loc[:, None] + np.linspace(-2.0, 2.0, 11)[None, :]
        clean, noisy = Dataset(x, y, space), Dataset(z, y, space)
        stats = clean.stats
        lam = frac * stats.eigenvalues[0]
        query = rowspace_query(x, rng) if inside else stats.mean + rng.standard_normal(p)

        cols = diagnose(clean, noisy, lam, query)
        assert list(cols) == [
            "b_lambda", "snr_reciprocal", "noise_norm", "signal_floor", "rowspace_ok",
            "precondition_ok", "bound_rhs", "observed_lhs", "weight_lhs", "weight_rhs",
        ]
        clean_fit, noisy_fit = fit(clean, lam), fit(noisy, lam)
        v = query - stats.mean
        nonzero, kept = int(kept_rank(stats, 0)), clean_fit.rank
        assert kept == kept_rank(stats, lam)
        bias = 0.0 if kept >= nonzero else np.sqrt(nonzero - kept) * _seminorm(stats, v, kept, nonzero)
        assert cols["b_lambda"] == bias
        noise = spectral_norm(z - x)
        assert cols["noise_norm"] == noise
        floor = min([np.inf] + [m.stats.centered_svd.values[m.rank - 1] for m in (clean_fit, noisy_fit) if m.rank])
        assert cols["signal_floor"] == floor
        assert cols["snr_reciprocal"] == (0.0 if np.isinf(floor) else noise / floor)
        basis = stats.centered_svd.right_t[:nonzero]
        in_rowspace = float(np.linalg.norm(v - basis.T @ (basis @ v)) / np.linalg.norm(v)) <= ROWSPACE_RTOL
        assert in_rowspace or not (inside or full_rank)
        assert cols["rowspace_ok"] is cols["precondition_ok"] is in_rowspace
        clean_pred, noisy_pred = clean_fit.predict(query), noisy_fit.predict(query)
        assert cols["observed_lhs"] == space.distance(noisy_pred, clean_pred)
        if in_rowspace:
            gap = noisy_fit.weight_matrix(query)[:, 0] - clean_fit.weight_matrix(query)[:, 0]
            assert cols["weight_lhs"] == np.linalg.norm(gap)
            maha = _seminorm(stats, v, 0, nonzero)
            assert cols["weight_rhs"] == np.sqrt(n) * cols["snr_reciprocal"] * (2.0 * maha + 1.0)
        else:
            assert np.isnan(cols["weight_lhs"]) and np.isnan(cols["weight_rhs"])


class TestRateTrend:
    def test_euclidean_error_decays_with_sample_size(self):
        # log median error vs log n slope well below -0.3 (variance term)
        rng = np.random.default_rng(51)
        p = 5
        beta = rng.standard_normal(p)
        queries = rng.standard_normal((5, p))
        sizes = [50, 100, 200, 400]
        medians = []
        for n in sizes:
            errs = []
            for _ in range(20):
                x = rng.standard_normal((n, p))
                y = 1.0 + x @ beta + 0.5 * rng.standard_normal(n)
                model = fit(Dataset(x, y, EuclideanSpace()), 0.0)
                for q in queries:
                    errs.append(abs(float(model.predict(q)) - (1.0 + q @ beta)))
            medians.append(np.median(errs))
        slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
        assert slope <= -0.3


class TestRowspaceResidual:
    def test_zero_for_rowspace_vectors(self):
        rng = np.random.default_rng(52)
        x, _ = low_rank_pair(rng)
        (train,) = designs(x)
        stats = train.stats
        v = (x - stats.mean).T @ rng.standard_normal(30)
        assert rowspace_ok_at(1e-10, train, train, 0.0, stats.mean + v)
        assert rowspace_ok_at(0.0, train, train, 0.0, stats.mean)


class TestStatsRouteMatchesOracles:
    """The stats route against the former matrix-argument routes in oracles.py.

    The two agree whenever no singular value sits in (1e-12 s0, 1e-6 s0]:
    the former routes cut singular values at 1e-12 s0, ``kept_rank`` cuts
    covariance eigenvalues at 1e-12 ev0, which is 1e-6 s0.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.2).filter(lambda f: f != 1.0))
    def test_floor_seminorm_bias_and_residual(self, seed, frac):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(4, 14)), int(rng.integers(2, 8))
        values = np.sort(rng.uniform(0.1, 10.0, int(rng.integers(1, min(n - 1, p) + 1))))[::-1]
        x = spectral_design(rng, n, p, values)
        clean, noisy = designs(x, x + 1e-2 * rng.standard_normal((n, p)))
        for data in (clean, noisy):
            s = data.stats.centered_svd.values
            assume(not np.any((s > 1e-12 * s[0]) & (s <= 1e-6 * s[0])))
        stats = clean.stats
        lam = frac * stats.eigenvalues[0]
        query = rng.standard_normal(p)
        v = query - stats.mean
        cov = brute_covariance(x)

        cols = columns(clean, noisy, lam, query)
        lam_sv = np.sqrt(n * lam)
        floor = min(sigma_lambda(x - stats.mean, lam_sv), sigma_lambda(noisy.covariates - noisy.stats.mean, lam_sv))
        np.testing.assert_allclose(cols["signal_floor"], floor, rtol=1e-10)
        np.testing.assert_allclose(
            _seminorm(stats, v, 0, int(kept_rank(stats, 0))), mahalanobis_seminorm(v, cov), rtol=1e-10
        )
        np.testing.assert_allclose(
            cols["b_lambda"], bias_term_reference(cov, stats.mean, lam, query), rtol=1e-10
        )
        resid = np.linalg.norm(v - compute_svd(x - stats.mean).kept().row_projection() @ v) / np.linalg.norm(v)
        # diagnose's residual lies within assert_allclose(rtol=1e-10, atol=1e-12) of resid
        tol = 1e-12 + 1e-10 * resid
        assert rowspace_ok_at(resid + tol, clean, noisy, lam, query)
        assert not rowspace_ok_at(resid - tol, clean, noisy, lam, query)

    def test_floor_is_smallest_singular_value_the_fit_keeps(self):
        # 2.7e-9 is above the former cut 1e-12 * 8.19 but its eigenvalue
        # is below 1e-12 times the top one, so no fit uses that component
        rng = np.random.default_rng(53)
        x = spectral_design(rng, 5, 4, np.array([8.19, 5.34, 3.95, 2.7e-9]))
        f = covariate_stats(x).centered_svd
        clean, noisy = designs(x, x + 0.01 * np.outer(f.left[:, 0], f.right_t[0]))
        assert kept_rank(clean.stats, 0.0) == kept_rank(noisy.stats, 0.0) == 3
        assert sigma_lambda(x - clean.stats.mean, 0.0) == pytest.approx(2.7e-9, rel=1e-3)
        cols = columns(clean, noisy, 0.0)
        assert cols["signal_floor"] == pytest.approx(3.95, rel=1e-10)
        assert cols["snr_reciprocal"] == pytest.approx(0.01 / 3.95, rel=1e-8)
