import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

from frechet_svt import metric_spaces
from frechet_svt.metric_spaces import (
    ConvergenceError,
    CorrelationSpace,
    DegenerateWeightsError,
    EuclideanSpace,
    InvalidPointError,
    L1Space,
    LinfSpace,
    WassersteinSpace,
    grid_cell_weights,
    isotonic_project,
    midpoint_grid,
    nearest_correlation,
    space_from_kind,
)
from oracles import (
    _l1_norms,
    _linf_norms,
    monotone_lsq_partition_oracle,
    one_point_centers,
    nearest_correlation_reference,
    norm_objective,
    random_correlation_matrix,
    subgradient_reference,
)

ALL_VECTOR_SPACES = [EuclideanSpace(), L1Space(), LinfSpace()]


def one_mean(space, points, weights):
    """The weighted mean for one weight vector: a one-column block."""
    return space.frechet_mean_blocks(points, [np.asarray(weights, dtype=float)[:, None]])[0][0]


class TestGrid:
    def test_midpoint_grid_is_uniform_cells(self):
        g = midpoint_grid(101)
        w = grid_cell_weights(g)
        assert np.allclose(w, 1 / 101, atol=1e-15)
        assert np.isclose(w.sum(), 1.0)

    def test_irregular_grid_weights_partition_unit_interval(self):
        g = np.array([0.05, 0.2, 0.5, 0.9])
        w = grid_cell_weights(g)
        assert np.isclose(w.sum(), 1.0)
        assert np.allclose(w[1:-1], (g[2:] - g[:-2]) / 2)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            grid_cell_weights([0.0, 0.5])
        with pytest.raises(ValueError):
            grid_cell_weights([0.5, 0.4])


class TestDistances:
    @pytest.mark.parametrize("space", ALL_VECTOR_SPACES, ids=lambda s: s.kind)
    def test_identical_points(self, space):
        y = np.array([1.0, -2.0, 3.0])
        assert space.distance(y, y) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(1, 13))
    def test_norm_distances_match_oracle_norms(self, seed, dim):
        # Integer-valued coordinates (one common scale) tie often for the largest |coordinate|.
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 10.0)
        pts = scale * rng.integers(-3, 4, (int(rng.integers(1, 20)), dim))
        for y in (scale * rng.integers(-3, 4, dim), pts[::-1]):
            assert np.array_equal(L1Space().distances_to(pts, y), _l1_norms(pts - y))
            assert np.array_equal(LinfSpace().distances_to(pts, y), _linf_norms(pts - y))

    def test_wasserstein_constant_shift(self):
        space = WassersteinSpace.with_uniform_grid(101)
        zero = np.zeros(101)
        c = 2.7 * np.ones(101)
        assert np.isclose(space.distance(zero, c), 2.7, atol=1e-12)

    def test_wasserstein_gaussian_mean_shift(self):
        # d between N(0,1) and N(1,1) is the mean difference.
        space = WassersteinSpace.with_uniform_grid(1001)
        q = ndtri(space.grid)
        assert abs(space.distance(q, q + 1.0) - 1.0) < 1e-3

    def test_correlation_frobenius(self):
        space = CorrelationSpace(2)
        a = np.array([[1.0, 0.2], [0.2, 1.0]])
        b = np.array([[1.0, -0.1], [-0.1, 1.0]])
        assert np.isclose(space.distance(a, b), np.sqrt(2 * 0.3**2))

    def test_kind_dimension_mismatch(self):
        space = WassersteinSpace.with_uniform_grid(5)
        with pytest.raises(ValueError):
            space.check_points(np.zeros((1, 7)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_metric_axioms_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((3, 4))
        for space in ALL_VECTOR_SPACES:
            a, b, c = pts
            assert space.distance(a, b) == space.distance(b, a)
            assert space.distance(a, c) <= space.distance(a, b) + space.distance(b, c) + 1e-10
            assert space.distance(a, a) <= 1e-12
        wspace = WassersteinSpace.with_uniform_grid(16)
        qa, qb, qc = np.sort(rng.standard_normal((3, 16)), axis=1)
        assert wspace.distance(qa, qb) == wspace.distance(qb, qa)
        assert wspace.distance(qa, qc) <= wspace.distance(qa, qb) + wspace.distance(qb, qc) + 1e-10
        cspace = CorrelationSpace(3)
        ca, cb, cc = (random_correlation_matrix(3, rng) for _ in range(3))
        assert cspace.distance(ca, cb) == cspace.distance(cb, ca)
        assert cspace.distance(ca, cc) <= cspace.distance(ca, cb) + cspace.distance(cb, cc) + 1e-10
        assert cspace.distance(ca, ca) == 0.0


class TestIsotonicProjection:
    def test_sorted_input_unchanged(self):
        v = np.array([1.0, 1.0, 2.0, 5.0])
        assert np.array_equal(isotonic_project(v, np.ones(4)), v)

    def test_two_point_pool(self):
        assert np.allclose(isotonic_project([2.0, 1.0], [1.0, 1.0]), [1.5, 1.5])

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(12)
        w = np.array([1.0, 2.0, 1.0, 1.0, 3.0, 1.0])
        for _ in range(25):
            v = rng.standard_normal(6)
            ours = isotonic_project(v, w)
            oracle = monotone_lsq_partition_oracle(v, w)
            assert np.allclose(ours, oracle, atol=1e-8)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            isotonic_project([1.0, 2.0], [1.0, 0.0])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_idempotent_and_lipschitz(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        w = rng.uniform(0.5, 3.0, m)
        a = rng.standard_normal(m)
        b = rng.standard_normal(m)
        pa = isotonic_project(a, w)
        pb = isotonic_project(b, w)
        assert np.allclose(isotonic_project(pa, w), pa, atol=1e-12)
        dist = lambda u, v: np.sqrt(np.sum(w * (u - v) ** 2))
        assert dist(pa, pb) <= dist(a, b) + 1e-10


class TestWassersteinBlendProjection:
    def test_projects_exactly_the_rows_with_a_negative_step(self, monkeypatch):
        # The reference rule is np.diff(row) < 0 somewhere; project_blends,
        # which compares neighbours, must send exactly those rows to PAVA.
        rng = np.random.default_rng(21)
        tiny, big, inf, nan = 5e-324, 1e308, np.inf, np.nan
        special = [
            [1.0, 1.0, 1.0, 1.0],
            [0.0, -0.0, 0.0, -0.0],
            [-0.0, 0.0, 0.0, 1.0],
            [0.0, tiny, 2 * tiny, 2 * tiny],
            [0.0, tiny, 0.0, tiny],
            [-tiny, -2 * tiny, 0.0, 1.0],
            [-big, big, big, big],
            [big, -big, 0.0, 1.0],
            [-inf, 0.0, inf, inf],
            [inf, inf, inf, inf],
            [-inf, -inf, 0.0, -inf],
            [inf, 0.0, 1.0, 2.0],
            [nan, 0.0, 1.0, 2.0],
            [0.0, nan, -1.0, 2.0],
            [2.0, 1.0, nan, nan],
            [nan, nan, nan, nan],
        ]
        random_rows = rng.standard_normal((40, 4))
        random_rows[::3] = np.sort(random_rows[::3], axis=1)
        ties = np.round(rng.standard_normal((40, 4)))
        ties[::2] = np.sort(ties[::2], axis=1)
        blends = np.vstack([special, random_rows, ties])
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.any(np.diff(blends, axis=1) < 0.0, axis=1)
        assert expected.any() and not expected.all()

        marker = np.pi  # no test row is all pi
        monkeypatch.setattr(metric_spaces, "isotonic_project", lambda row, w: np.full_like(row, marker))
        with np.errstate(all="raise"):
            out = WassersteinSpace.with_uniform_grid(4).project_blends(blends.copy())
        assert np.array_equal(np.all(out == marker, axis=1), expected)
        assert np.array_equal(out[~expected], blends[~expected], equal_nan=True)


    def test_a_stack_without_a_decreasing_row_comes_back_unchanged(self, monkeypatch):
        rng = np.random.default_rng(22)
        blends = np.sort(rng.standard_normal((30, 7)), axis=1)
        blends[::4] = np.round(blends[::4])  # ties are not decreases
        expected = blends.copy()

        def refuse(row, w):
            raise AssertionError("isotonic_project called")

        monkeypatch.setattr(metric_spaces, "isotonic_project", refuse)
        out = WassersteinSpace.with_uniform_grid(7).project_blends(blends)
        assert out is blends
        assert out.tobytes() == expected.tobytes()

    def test_a_mixed_stack_equals_pava_row_by_row(self):
        rng = np.random.default_rng(23)
        space = WassersteinSpace.with_uniform_grid(9)
        blends = rng.standard_normal((40, 9))
        blends[::3] = np.sort(blends[::3], axis=1)
        expected = np.stack([isotonic_project(row, space.cell_weights) for row in blends])
        out = space.project_blends(blends.copy())
        assert out.tobytes() == expected.tobytes()


class TestNearestCorrelation:
    def test_valid_input_unmoved(self):
        a = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, -0.2], [0.1, -0.2, 1.0]])
        assert np.allclose(nearest_correlation(a), a, atol=1e-9)

    def test_clipping_to_boundary_vs_grid_oracle(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        out = nearest_correlation(a)
        # 2x2 correlation matrices are parameterized by the off-diagonal.
        rhos = np.linspace(-1, 1, 200_001)
        best_rho = rhos[np.argmin((rhos - 2.0) ** 2)]
        assert np.allclose(out, np.array([[1.0, best_rho], [best_rho, 1.0]]), atol=1e-5)

    def test_indefinite_input_beats_random_candidates(self):
        rng = np.random.default_rng(13)
        a = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        out = nearest_correlation(a)
        CorrelationSpace(3).check_points(out[None])  # invariants hold
        obj = np.linalg.norm(out - a, "fro")
        for _ in range(10_000):
            cand = random_correlation_matrix(3, rng)
            assert obj <= np.linalg.norm(cand - a, "fro") + 1e-9

    def test_dominates_single_projection_sanity(self):
        # Dominance against clip-then-reset is only meaningful when that
        # crude candidate is itself a valid correlation matrix; a mild
        # perturbation of a valid one keeps it feasible.
        rng = np.random.default_rng(14)
        base = random_correlation_matrix(4, rng)
        bump = rng.standard_normal((4, 4)) * 5e-3
        a = base + (bump + bump.T) / 2
        np.fill_diagonal(a, 1.0)
        out = nearest_correlation(a)
        w, q = np.linalg.eigh(a)
        crude = (q * np.clip(w, 0, None)) @ q.T
        np.fill_diagonal(crude, 1.0)
        assert np.linalg.eigvalsh((crude + crude.T) / 2)[0] >= -1e-8
        assert np.linalg.norm(out - a, "fro") <= np.linalg.norm(crude - a, "fro") + 1e-8

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(metric_spaces, "DYKSTRA_TOL", 1e-16)
        monkeypatch.setattr(metric_spaces, "DYKSTRA_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as err:
            nearest_correlation(a)
        assert err.value.last_iterate.shape == (2, 2)

    def test_convergence_error_survives_pickling(self, monkeypatch):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(metric_spaces, "DYKSTRA_TOL", 1e-16)
        monkeypatch.setattr(metric_spaces, "DYKSTRA_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as err:
            nearest_correlation(a)
        back = pickle.loads(pickle.dumps(err.value))
        assert type(back) is ConvergenceError
        assert str(back) == str(err.value)
        assert np.array_equal(back.last_iterate, err.value.last_iterate)


def _outcome(project, *args):
    """What a projection gives: its result, or the message and last iterate it fails with."""
    try:
        return project(*args)
    except ConvergenceError as exc:
        return str(exc), exc.last_iterate


def _same_outcome(got, expected) -> bool:
    if isinstance(expected, tuple):
        return isinstance(got, tuple) and got[0] == expected[0] and np.array_equal(got[1], expected[1])
    return not isinstance(got, tuple) and np.array_equal(got, expected)


class TestStackedDykstra:
    """The stacked projection against the frozen one-matrix loop, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 40))
    def test_blends_match_the_loop(self, seed, size, count):
        rng = np.random.default_rng(seed)
        pts = np.stack([random_correlation_matrix(size, rng) for _ in range(4)])
        # Negative weights push blends outside the space, so most need projecting.
        w = rng.uniform(-1.5, 2.0, (4, count))
        w[:, w.sum(axis=0) <= 0.0] *= -1.0
        blends = np.einsum("nk,nij->kij", w, pts) / w.sum(axis=0)[:, None, None]
        blends[:, 0, -1] += rng.uniform(-0.5, 0.5, count)  # not exactly symmetric either
        singles = [_outcome(nearest_correlation_reference, b) for b in blends]
        failed = [o for o in singles if isinstance(o, tuple)]  # the loop stops at the first
        expected = failed[0] if failed else np.stack(singles)
        assert _same_outcome(_outcome(CorrelationSpace(size).project_blends, blends.copy()), expected)
        for b, single in zip(blends, singles):
            assert _same_outcome(_outcome(nearest_correlation, b), single)

    def test_nonconverging_matrix_raises_as_the_loop(self, monkeypatch):
        rng = np.random.default_rng(5)
        stack = np.stack([random_correlation_matrix(3, rng) for _ in range(5)])
        stack[1] = stack[3] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 1.0]]
        stack[3, 0, 2] = stack[3, 2, 0] = -0.3
        # The valid matrices converge within 3 steps; the two indefinite ones need more.
        with pytest.raises(ConvergenceError) as loop:
            for a in stack:
                nearest_correlation_reference(a, max_iter=3)
        monkeypatch.setattr(metric_spaces, "DYKSTRA_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as stacked:
            CorrelationSpace(3).project_blends(stack.copy())
        assert str(stacked.value) == str(loop.value)
        assert np.array_equal(stacked.value.last_iterate, loop.value.last_iterate)

    def test_rejects_what_the_loop_rejected(self):
        for bad in (np.ones((2, 3)), np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(3)):
            with pytest.raises(ValueError):
                nearest_correlation(bad)


class TestFrechetMeans:
    def test_single_point(self):
        for space in ALL_VECTOR_SPACES:
            y = np.array([[1.0, 2.0]])
            assert np.allclose(one_mean(space, y, [1.0]), y[0])

    def test_euclidean_unweighted_mean(self):
        space = EuclideanSpace()
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(one_mean(space, pts, [1.0, 1.0]), [1.0, 0.0])

    def test_euclidean_stationarity(self):
        rng = np.random.default_rng(15)
        space = EuclideanSpace()
        pts = rng.standard_normal((6, 3))
        w = rng.uniform(-0.5, 2.0, 6)
        w += 1 - w.mean()  # regression-style weights averaging one
        mean = one_mean(space, pts, w)
        assert np.linalg.norm(w @ (pts - mean)) <= 1e-10

    def test_wasserstein_negative_weights_match_pava_and_oracle(self):
        space = WassersteinSpace.with_uniform_grid(5)
        rng = np.random.default_rng(16)
        q1 = np.sort(rng.standard_normal(5))
        q2 = np.sort(rng.standard_normal(5))
        w = np.array([1.5, -0.5])
        combo = 1.5 * q1 - 0.5 * q2
        ours = one_mean(space, np.stack([q1, q2]), w)
        assert np.allclose(ours, isotonic_project(combo, space.cell_weights), atol=1e-12)
        oracle = monotone_lsq_partition_oracle(combo, space.cell_weights)
        assert np.allclose(ours, oracle, atol=1e-8)

    def test_wasserstein_monotone_combo_passes_through(self):
        space = WassersteinSpace.with_uniform_grid(7)
        base = np.linspace(0, 1, 7)
        pts = np.stack([base, base + 1.0])
        out = one_mean(space, pts, [0.3, 0.7])
        assert np.array_equal(out, 0.3 * base + 0.7 * (base + 1.0))

    def test_correlation_mean_of_psd_average_is_average(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        b = np.array([[1.0, -0.3], [-0.3, 1.0]])
        space = CorrelationSpace(2)
        out = one_mean(space, np.stack([a, b]), [1.0, 1.0])
        assert np.allclose(out, (a + b) / 2, atol=1e-9)

    @pytest.mark.parametrize("space", [L1Space(), LinfSpace()], ids=lambda s: s.kind)
    def test_iterative_solver_descends_from_l2_mean(self, space):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((8, 3))
        w = rng.uniform(-0.5, 2.0, 8)
        w += 1 - w.mean()
        init = w @ pts / w.sum()
        out = one_mean(space, pts, w)
        assert norm_objective(pts, w, out, space.kind) <= norm_objective(pts, w, init, space.kind) + 1e-12

    def test_degenerate_weights_rejected(self):
        space = EuclideanSpace()
        with pytest.raises(DegenerateWeightsError):
            one_mean(space, np.ones((2, 2)), [-1.0, 0.5])


class TestBatchedMeans:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_batched_means_match_columnwise(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(3, 10)), int(rng.integers(1, 5))
        w = 1 + 0.4 * rng.standard_normal((n, k))
        w = w - w.mean(axis=0) + 1.0  # regression-style columns
        cases = [
            (EuclideanSpace(), rng.standard_normal((n, 3))),
            (EuclideanSpace(), rng.standard_normal(n)),  # scalar responses
            (L1Space(), rng.standard_normal((n, 3))),
            (LinfSpace(), rng.standard_normal((n, 3))),
            (WassersteinSpace.with_uniform_grid(8), np.sort(rng.standard_normal((n, 8)), axis=1)),
        ]
        for space, pts in cases:
            batch = space.frechet_mean_blocks(pts, [w])[0]
            for j in range(k):
                single = one_mean(space, pts, w[:, j])
                assert np.allclose(batch[j], single, atol=1e-12), space.kind

    def test_correlation_batch_uses_default_loop(self):
        rng = np.random.default_rng(3)
        space = CorrelationSpace(3)
        pts = np.stack([random_correlation_matrix(3, rng) for _ in range(4)])
        w = np.ones((4, 2))
        batch = space.frechet_mean_blocks(pts, [w])[0]
        assert np.allclose(batch[0], one_mean(space, pts, w[:, 0]), atol=1e-12)
        # Reference: one tensordot blend and one projection per column. The
        # batched blend sums in another order; Dykstra's 1e-10 tolerance
        # absorbs the difference.
        w = np.column_stack([np.ones(4), [2.0, -1.5, 1.5, 1.0]])
        batch = space.frechet_mean_blocks(pts, [w])[0]
        for j in range(w.shape[1]):
            loop = nearest_correlation(np.tensordot(w[:, j], pts, axes=(0, 0)) / w[:, j].sum())
            assert np.allclose(batch[j], loop, atol=1e-9)

    def test_degenerate_column_rejected(self):
        space = EuclideanSpace()
        w = np.array([[1.0, -1.0], [1.0, 0.5]])
        with pytest.raises(DegenerateWeightsError):
            space.frechet_mean_blocks(np.ones((2, 2)), [w])

    def test_negative_objective_initializer_still_descends(self):
        # negative weights can make the signed objective negative at the
        # l2-mean initializer; the step length must come from the point
        # spread so the solver still explores and improves when the
        # initializer is not stationary
        space = L1Space()
        rng = np.random.default_rng(0)
        improved = 0
        checked = 0
        for _ in range(5000):
            n = int(rng.integers(3, 7))
            pts = rng.standard_normal((n, 2)) * rng.choice([1, 10], size=(n, 1))
            w = rng.uniform(-1, 2, n)
            if w.sum() <= 0.1:
                continue
            init = w @ pts / w.sum()
            diff = init - pts
            norms = np.abs(diff).sum(axis=1)
            obj0 = float(w @ norms**2)
            grad = 2.0 * (w * norms) @ np.sign(diff)
            if obj0 >= 0 or np.linalg.norm(grad) <= 1.0:
                continue
            checked += 1
            out = one_mean(space, pts, w)
            assert norm_objective(pts, w, out, "l1") <= obj0 + 1e-12
            if norm_objective(pts, w, out, "l1") < obj0 - 1e-9:
                improved += 1
            if checked >= 10:
                break
        assert checked == 10
        assert improved >= 8  # descent actually happens, not just no-ops


class TestSubgradientMatchesReference:
    """The l1/sup-norm solver reproduces the frozen reference loop bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 20),
        dim=st.integers(0, 13),  # 0: scalar responses
        queries=st.integers(1, 12),
        integer_points=st.booleans(),  # ties in |diff|: the first largest coordinate wins
        spread=st.floats(0.0, 3.0),
    )
    @example(seed=1, n=12, dim=13, queries=12, integer_points=True, spread=2.0)
    @example(seed=2, n=9, dim=8, queries=1, integer_points=False, spread=1.5)
    @example(seed=3, n=6, dim=0, queries=4, integer_points=True, spread=2.5)
    def test_bit_identical(self, seed, n, dim, queries, integer_points, spread):
        rng = np.random.default_rng(seed)
        shape = (n,) if dim == 0 else (n, dim)
        pts = rng.integers(-2, 3, size=shape).astype(float) if integer_points else rng.standard_normal(shape)
        # Columns average one, as regression weights do; the spread makes many negative.
        w = spread * rng.standard_normal((n, queries))
        w = w - w.mean(axis=0) + 1.0
        for space in (L1Space(), LinfSpace()):
            out = space.frechet_mean_blocks(pts, [w])[0]
            assert np.array_equal(out, subgradient_reference(pts, w, space.kind)), space.kind

    @pytest.mark.parametrize("space", [L1Space(), LinfSpace()], ids=lambda s: s.kind)
    def test_vanishing_gradient(self, space):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((5, 3))
        # Column 0 sits on one point, so its gradient vanishes while column 1 moves.
        w = np.column_stack([[1.0, 0.0, 0.0, 0.0, 0.0], rng.uniform(0.5, 1.5, 5)])
        out = space.frechet_mean_blocks(pts, [w])[0]
        assert np.array_equal(out, subgradient_reference(pts, w, space.kind))
        assert np.array_equal(out[0], pts[0])
        # Coincident points: every gradient vanishes at the start and the loop exits.
        same = np.repeat(pts[:1], 4, axis=0)
        out = space.frechet_mean_blocks(same, [w[:4]])[0]
        assert np.array_equal(out, subgradient_reference(same, w[:4], space.kind))
        assert np.array_equal(out, same[:2])


class TestFrechetMeanBlocks:
    """One joint solve over several weight matrices equals a solve per matrix, bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 20),
        dim=st.sampled_from([0, 1, 3, 5, 8, 13]),  # 0: scalar responses
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        integer_points=st.booleans(),  # ties in |diff|
        spread=st.floats(0.0, 3.0),
        stalled_at=st.integers(0, 4),
    )
    @example(seed=1, n=12, dim=13, sizes=[1, 5, 1], integer_points=True, spread=2.0, stalled_at=1)
    @example(seed=2, n=9, dim=8, sizes=[3, 1], integer_points=False, spread=1.5, stalled_at=0)
    @example(seed=3, n=6, dim=0, sizes=[1, 4], integer_points=True, spread=2.5, stalled_at=2)
    @example(seed=4, n=15, dim=5, sizes=[1], integer_points=False, spread=0.5, stalled_at=4)
    def test_each_block_matches_its_own_solve(self, seed, n, dim, sizes, integer_points, spread, stalled_at):
        rng = np.random.default_rng(seed)
        shape = (n,) if dim == 0 else (n, dim)
        pts = rng.integers(-2, 3, size=shape).astype(float) if integer_points else rng.standard_normal(shape)
        blocks = []
        for size in sizes:
            w = spread * rng.standard_normal((n, size))
            blocks.append(w - w.mean(axis=0) + 1.0)  # columns average one, as regression weights do
        # A column that sits on one point: its gradient vanishes at the first
        # step while the other blocks keep moving.
        stalled = np.zeros((n, 1))
        stalled[int(rng.integers(n))] = 1.0
        blocks.insert(min(stalled_at, len(blocks)), stalled)
        for space in (L1Space(), LinfSpace()):
            joint = space.frechet_mean_blocks(pts, blocks)
            assert len(joint) == len(blocks)
            for w, out in zip(blocks, joint):
                assert np.array_equal(out, subgradient_reference(pts, w, space.kind)), space.kind
                assert np.array_equal(out, space.frechet_mean_blocks(pts, [w])[0]), space.kind

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 16),
        dim=st.integers(0, 12),  # 0: scalar responses; from 8 on numpy sums a row pairwise
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        integer_points=st.booleans(),  # coordinate ties: the sup norm's first largest one wins
        repeats=st.integers(0, 3),
        spread=st.floats(0.0, 3.0),
    )
    @example(seed=5, n=10, dim=9, sizes=[1, 4, 2], integer_points=False, repeats=1, spread=2.0)
    @example(seed=6, n=12, dim=12, sizes=[3, 1], integer_points=True, repeats=2, spread=1.5)
    @example(seed=7, n=8, dim=1, sizes=[1, 1, 5], integer_points=True, repeats=3, spread=2.5)
    def test_bits_and_zero_signs_match_reference(self, seed, n, dim, sizes, integer_points, repeats, spread):
        # The solver holds its work arrays (points, dim, queries); every block
        # must still equal the frozen query-major loop, signs of zero included.
        rng = np.random.default_rng(seed)
        shape = (n,) if dim == 0 else (n, dim)
        pts = rng.integers(-2, 3, size=shape).astype(float) if integer_points else rng.standard_normal(shape)
        pts[rng.integers(n, size=repeats)] = pts[0]  # repeated points
        blocks = []
        for size in sizes:
            w = spread * rng.standard_normal((n, size))
            blocks.append(w - w.mean(axis=0) + 1.0)  # columns average one; many weights are negative
        for space in (L1Space(), LinfSpace()):
            for w, out in zip(blocks, space.frechet_mean_blocks(pts, blocks)):
                ref = subgradient_reference(pts, w, space.kind)
                assert np.array_equal(out, ref), space.kind
                assert np.array_equal(np.signbit(out), np.signbit(ref)), space.kind

    def test_workload_widths_match_reference(self):
        # The cases above stop at a few columns. A linear-norms trial solves
        # 166 columns and a lone one on 40 points at dim 5; the dim-9 block
        # runs the pairwise row sums at a width of its own.
        rng = np.random.default_rng(23)
        for n, dim, sizes in ((40, 5, [166, 1]), (24, 9, [120])):
            pts = rng.standard_normal((n, dim))
            pts[1] = pts[0]  # a repeated point
            blocks = []
            for size in sizes:
                w = 1.5 * rng.standard_normal((n, size))
                blocks.append(w - w.mean(axis=0) + 1.0)  # columns average one; many weights are negative
            for space in (L1Space(), LinfSpace()):
                for w, out in zip(blocks, space.frechet_mean_blocks(pts, blocks)):
                    ref = subgradient_reference(pts, w, space.kind)
                    assert np.array_equal(out, ref), (space.kind, dim)
                    assert np.array_equal(np.signbit(out), np.signbit(ref)), (space.kind, dim)

    @pytest.mark.parametrize("space", ALL_VECTOR_SPACES + [WassersteinSpace.with_uniform_grid(5)], ids=lambda s: s.kind)
    def test_no_blocks_and_degenerate_blocks(self, space):
        pts = np.sort(np.random.default_rng(5).standard_normal((4, 5)), axis=1)
        assert space.frechet_mean_blocks(pts, []) == []
        with pytest.raises(DegenerateWeightsError):
            space.frechet_mean_blocks(pts, [np.ones((4, 2)), np.array([[1.0], [-1.0], [-1.0], [0.5]])])


class TestFrechetMeanColumns:
    """One stacked solve over per-query point sets equals a one-point call per query, bit for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        trials=st.integers(1, 12),
        queries=st.integers(1, 6),
        dim=st.sampled_from([1, 2, 3, 5, 8, 9, 12]),  # from 8 on numpy sums a row pairwise
        integer_points=st.booleans(),  # ties in |diff|: the sup norm's first largest one wins
        shift=st.sampled_from([0.0, -3.0, -1e6, -1e15]),  # negative and large negative coordinates
    )
    @example(seed=1, trials=1, queries=4, dim=3, integer_points=False, shift=-3.0)  # one trial
    @example(seed=2, trials=9, queries=1, dim=8, integer_points=True, shift=0.0)  # one query
    @example(seed=3, trials=12, queries=5, dim=12, integer_points=True, shift=-1e15)
    @example(seed=4, trials=10, queries=6, dim=9, integer_points=False, shift=-1e6)
    def test_each_column_matches_its_one_point_call(self, seed, trials, queries, dim, integer_points, shift):
        rng = np.random.default_rng(seed)
        shape = (trials, queries, dim)
        stacks = rng.integers(-2, 3, size=shape).astype(float) if integer_points else rng.standard_normal(shape)
        stacks += shift
        for space in (L1Space(), LinfSpace()):
            out = space.frechet_mean_columns(stacks)
            ref = one_point_centers(space, stacks)
            assert out.shape == (queries, dim)
            assert np.array_equal(out, ref), space.kind
            assert np.array_equal(np.signbit(out), np.signbit(ref)), space.kind


class TestMeansStayInSpace:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.floats(0.5, 3.0))
    def test_every_mean_passes_check_points(self, seed, spread):
        # Columns average one, as regression weights do; with this spread
        # many weights are negative, so blends leave the space and the
        # projections (PAVA, Dykstra) have to bring them back.
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        w = spread * rng.standard_normal((n, k))
        w = w - w.mean(axis=0) + 1.0
        cases = [
            (EuclideanSpace(), rng.standard_normal((n, 3))),
            (EuclideanSpace(), rng.standard_normal(n)),
            (L1Space(), rng.standard_normal((n, 2))),
            (LinfSpace(), rng.standard_normal((n, 2))),
            (WassersteinSpace.with_uniform_grid(9), np.sort(rng.standard_normal((n, 9)), axis=1)),
            (CorrelationSpace(3), np.stack([random_correlation_matrix(3, rng) for _ in range(n)])),
        ]
        for space, pts in cases:
            out = space.frechet_mean_blocks(space.check_points(pts), [w])[0]
            assert out.shape == (k, *pts.shape[1:]), space.kind
            space.check_points(out)


class TestCheckPoints:
    def test_names_first_bad_quantile_row(self):
        space = WassersteinSpace(midpoint_grid(4))
        rows = np.tile([0.0, 1.0, 2.0, 3.0], (6, 1))
        rows[2] = [0.0, 1.0, 0.5, 2.0]
        rows[4] = rows[4][::-1]
        with pytest.raises(InvalidPointError) as err:
            space.check_points(rows)
        assert err.value.index == 2
        assert str(err.value) == "point 2: quantile values are not nondecreasing"

    def test_monotone_slack(self):
        space = WassersteinSpace(midpoint_grid(3))
        space.check_points([[0.0, 1.0, 1.0 - 1e-11]])
        with pytest.raises(InvalidPointError):
            space.check_points([[0.0, 1.0, 1.0 - 1e-9]])

    def test_non_finite_points_rejected_in_every_space(self):
        cases = [
            (EuclideanSpace(), np.array([0.0, np.nan, 1.0])),
            (L1Space(), np.array([[0.0, 1.0], [0.0, np.inf]])),
            (WassersteinSpace(midpoint_grid(2)), np.array([[0.0, 1.0], [np.nan, 1.0]])),
            (CorrelationSpace(2), np.array([np.eye(2), [[1.0, np.nan], [np.nan, 1.0]]])),
        ]
        for space, pts in cases:
            with pytest.raises(InvalidPointError) as err:
                space.check_points(pts)
            assert err.value.index == 1, space.kind

    def test_wrong_shapes_rejected(self):
        with pytest.raises(InvalidPointError) as err:
            WassersteinSpace(midpoint_grid(4)).check_points(np.zeros((3, 7)))
        assert err.value.index is None
        with pytest.raises(InvalidPointError):
            CorrelationSpace(3).check_points(np.stack([np.eye(2)] * 3))
        with pytest.raises(InvalidPointError):
            EuclideanSpace().check_points(np.zeros((2, 2, 2)))

    def test_names_first_non_psd_matrix(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(InvalidPointError) as err:
            CorrelationSpace(3).check_points(np.stack([np.eye(3), np.eye(3), bad]))
        assert err.value.index == 2
        assert "positive semidefinite" in err.value.reason

    def test_returns_float_array(self):
        out = EuclideanSpace().check_points([[1, 2], [3, 4]])
        assert out.dtype == float and out.shape == (2, 2)

    def test_error_survives_pickling(self):
        back = pickle.loads(pickle.dumps(InvalidPointError("bad", 3)))
        assert (back.reason, back.index, str(back)) == ("bad", 3, "point 3: bad")


class TestValidation:
    def test_quantile_function_monotonicity(self):
        space = WassersteinSpace(midpoint_grid(4))
        space.check_points([[0.0, 0.0, 1.0, 2.0]])
        with pytest.raises(ValueError):
            space.check_points([[0.0, 1.0, 0.5, 2.0]])

    def test_correlation_matrix_invariants(self):
        space = CorrelationSpace(2)
        with pytest.raises(ValueError):
            space.check_points(np.array([[[1.0, 0.2], [0.3, 1.0]]]))
        with pytest.raises(ValueError):
            space.check_points(np.array([[[1.0, 0.2], [0.2, 0.9]]]))
        with pytest.raises(ValueError):
            space.check_points(np.array([[[1.0, 2.0], [2.0, 1.0]]]))

    def test_space_factory(self):
        assert space_from_kind("euclidean").kind == "euclidean"
        assert space_from_kind("wasserstein", quantile_points=11).grid.size == 11
        assert space_from_kind("correlation", size=3).size == 3
        with pytest.raises(ValueError):
            space_from_kind("hyperbolic")
