"""Response-space abstraction: distances and weighted Frechet means.

Supported spaces: Euclidean vectors under the l2, l1, or sup norm,
one-dimensional distributions represented by quantile functions on a
fixed grid (2-Wasserstein geometry), and correlation matrices under the
Frobenius metric.

Weights may be negative. The closed-form solvers are projections of
affine combinations and only require the weight total to be positive,
which the regression weights guarantee (they average to one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import symmetrize

# Slack allowed when checking that quantile values are nondecreasing.
MONOTONE_SLACK = 1e-10


class DegenerateWeightsError(ValueError):
    """Raised when the weight total is nonpositive and no mean exists."""


class ConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate

    def __reduce__(self):
        # Rebuild from both constructor arguments, so the error survives the
        # trip back from a worker process.
        return type(self), (str(self), self.last_iterate)


def midpoint_grid(m: int = 101) -> np.ndarray:
    """Uniform probability levels (k - 1/2)/m for k = 1..m."""
    if m < 1:
        raise ValueError("grid size must be positive")
    return (np.arange(m) + 0.5) / m


def grid_cell_weights(grid) -> np.ndarray:
    """Quadrature weights for the L2 inner product on [0, 1].

    Interior weights are the trapezoid widths (t_{k+1} - t_{k-1})/2; the
    boundary cells are extended to cover [0, t_1] and [t_m, 1] so the
    weights partition the whole unit interval. On the uniform midpoint
    grid every weight equals 1/m exactly.
    """
    t = np.asarray(grid, dtype=float).ravel()
    if t.size == 0:
        raise ValueError("empty grid")
    if t.size == 1:
        return np.ones(1)
    if np.any(t <= 0.0) or np.any(t >= 1.0) or np.any(np.diff(t) <= 0.0):
        raise ValueError("grid levels must be strictly increasing inside (0, 1)")
    mid = 0.5 * (t[:-1] + t[1:])
    edges = np.concatenate(([0.0], mid, [1.0]))
    return np.diff(edges)


def isotonic_project(values, grid_weights) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing sequences.

    Pool-adjacent-violators: blocks that violate monotonicity are merged
    and replaced by their weighted means. Idempotent, and 1-Lipschitz in
    the weighted L2 norm.
    """
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(grid_weights, dtype=float).ravel()
    if v.size != w.size:
        raise ValueError("values and weights must have equal length")
    if np.any(w <= 0.0):
        raise ValueError("grid weights must be positive")
    means: list[float] = []
    wsum: list[float] = []
    counts: list[int] = []
    for val, wt in zip(v, w):
        means.append(float(val))
        wsum.append(float(wt))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, c2 = means.pop(), wsum.pop(), counts.pop()
            m1, w1, c1 = means.pop(), wsum.pop(), counts.pop()
            tot = w1 + w2
            means.append((m1 * w1 + m2 * w2) / tot)
            wsum.append(tot)
            counts.append(c1 + c2)
    return np.repeat(means, counts)


def nearest_correlation(a, tol: float = 1e-10, max_iter: int = 1000) -> np.ndarray:
    """Frobenius-nearest correlation matrix via Dykstra's projections.

    Alternates between the PSD cone (eigenvalue clipping, with Dykstra's
    correction) and the unit-diagonal affine set, stopping when the
    successive-iterate Frobenius change drops below ``tol``.
    """
    y = symmetrize(a)
    correction = np.zeros_like(y)
    for _ in range(max_iter):
        r = y - correction
        w, q = np.linalg.eigh(symmetrize(r))
        x = symmetrize((q * np.clip(w, 0.0, None)) @ q.T)
        correction = x - r
        y_next = x.copy()
        np.fill_diagonal(y_next, 1.0)
        delta = float(np.linalg.norm(y_next - y, "fro"))
        y = y_next
        if delta < tol:
            return y
    raise ConvergenceError(
        f"nearest-correlation projection did not reach tol={tol} in {max_iter} iterations",
        last_iterate=y,
    )


@dataclass(frozen=True)
class QuantileFunction:
    """Quantile values on a shared grid of probability levels."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        grid_cell_weights(grid)  # validates the levels
        if grid.size != values.size:
            raise ValueError("grid and values must have equal length")
        if np.any(np.diff(values) < -MONOTONE_SLACK):
            raise ValueError("quantile values must be nondecreasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric unit-diagonal matrix with spectrum bounded below by -1e-8."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("correlation matrix must be square")
        if np.max(np.abs(a - a.T), initial=0.0) > 1e-10:
            raise ValueError("correlation matrix must be symmetric")
        if np.max(np.abs(np.diag(a) - 1.0), initial=0.0) > 1e-10:
            raise ValueError("correlation matrix must have a unit diagonal")
        if np.linalg.eigvalsh(0.5 * (a + a.T))[0] < -1e-8:
            raise ValueError("correlation matrix must be positive semidefinite")
        object.__setattr__(self, "values", a)


def as_array(point) -> np.ndarray:
    if isinstance(point, QuantileFunction):
        return point.values
    if isinstance(point, CorrelationMatrix):
        return point.values
    return np.asarray(point, dtype=float)


def _weight_total(weights) -> tuple[np.ndarray, float]:
    w = np.asarray(weights, dtype=float).ravel()
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateWeightsError(f"weight total {total} is not positive")
    return w, total


def _column_totals(weight_matrix) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weight_matrix, dtype=float)
    totals = w.sum(axis=0)
    if np.any(totals <= 0.0):
        raise DegenerateWeightsError("every weight column must have a positive total")
    return w, totals


class MetricSpace:
    """Distance plus weighted Frechet mean for one response geometry."""

    kind: str = "abstract"
    # True when the weighted Frechet mean is the weight-normalized average
    # of the points followed by ``project_blends``. The threshold sweep then
    # updates the averages along the rank path and never forms weights.
    affine: bool = False

    def check_point(self, y) -> np.ndarray:
        raise NotImplementedError

    def distance(self, y1, y2) -> float:
        d = self.distances_to(as_array(y1)[None], y2)
        return float(d[0])

    def distances_to(self, points, y) -> np.ndarray:
        """Distances from each stacked point to ``y``, vectorized."""
        raise NotImplementedError

    def frechet_mean(self, points, weights) -> np.ndarray:
        raise NotImplementedError

    def frechet_mean_many(self, points, weight_matrix) -> np.ndarray:
        """One weighted mean per column of ``weight_matrix``, stacked."""
        w = np.asarray(weight_matrix, dtype=float)
        return np.stack([self.frechet_mean(points, w[:, j]) for j in range(w.shape[1])])

    def project_blends(self, blended) -> np.ndarray:
        """Map stacked weight-normalized averages of points into the space.

        Only affine spaces have this step; it may overwrite ``blended``.
        """
        raise NotImplementedError


class _VectorSpace(MetricSpace):
    def check_point(self, y) -> np.ndarray:
        v = as_array(y).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("point has non-finite entries")
        return v


class EuclideanSpace(_VectorSpace):
    kind = "euclidean"
    affine = True

    def project_blends(self, blended) -> np.ndarray:
        return blended

    def distances_to(self, points, y) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - as_array(y)
        if diff.ndim <= 1:  # stacked scalar responses
            return np.abs(diff)
        return np.sqrt(np.sum(diff * diff, axis=-1))

    def frechet_mean(self, points, weights) -> np.ndarray:
        w, total = _weight_total(weights)
        return w @ np.asarray(points, dtype=float) / total

    def frechet_mean_many(self, points, weight_matrix) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        w, totals = _column_totals(weight_matrix)
        out = (w.T @ pts)
        return self.project_blends(out / (totals[:, None] if pts.ndim > 1 else totals))


class _IterativeNormSpace(_VectorSpace):
    """Subgradient minimizer of the weighted squared-distance objective.

    With negative weights the objective may be nonconvex; the solver
    starts at the weighted l2 mean, runs a fixed iteration budget with
    step c/sqrt(k), and returns the best iterate seen, so the result
    never does worse than the initializer. Queries are solved in a
    batch, one step size and incumbent per column.
    """

    iterations = 500

    def _norms(self, diff: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _norm_subgrad(self, diff: np.ndarray) -> np.ndarray:
        """A subgradient of ||.|| at each point along the last axis."""
        raise NotImplementedError

    def distances_to(self, points, y) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - as_array(y)
        if diff.ndim <= 1:
            return np.abs(diff)
        return self._norms(diff)

    def objective(self, points, weights, y) -> float:
        w = np.asarray(weights, dtype=float).ravel()
        return float(w @ self.distances_to(points, y) ** 2)

    def frechet_mean(self, points, weights) -> np.ndarray:
        w = np.asarray(weights, dtype=float).ravel()
        out = self.frechet_mean_many(points, w[:, None])
        return out[0]

    def frechet_mean_many(self, points, weight_matrix) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        w, totals = _column_totals(weight_matrix)
        if pts.ndim == 1:  # scalar responses: every norm coincides, mean is exact
            return (w.T @ pts) / totals
        y = (w.T @ pts) / totals[:, None]  # (queries, dim)
        wt = w.T  # (queries, n)

        def objectives(cand):
            return np.einsum("kn,kn->k", wt, self._norms(cand[:, None, :] - pts) ** 2)

        best_y = y.copy()
        best_obj = objectives(y)
        # Step length from the absolute-weight objective: with negative
        # weights the signed objective can vanish or go negative at the
        # initializer while the spread of the points is still large.
        spread = np.einsum("kn,kn->k", np.abs(wt), self._norms(y[:, None, :] - pts) ** 2)
        scales = np.sqrt(spread / np.maximum(np.abs(wt).sum(axis=1), 1e-300))
        for k in range(1, self.iterations + 1):
            diff = y[:, None, :] - pts  # (queries, n, dim)
            norms = self._norms(diff)
            grad = 2.0 * np.einsum("kn,knd->kd", wt * norms, self._norm_subgrad(diff))
            gn = np.linalg.norm(grad, axis=1)
            active = gn > 0.0
            if not np.any(active):
                break
            step = np.where(active, scales / (np.sqrt(k) * np.where(active, gn, 1.0)), 0.0)
            y = y - step[:, None] * grad
            obj = objectives(y)
            improved = obj < best_obj
            best_obj = np.where(improved, obj, best_obj)
            best_y[improved] = y[improved]
        return best_y


class L1Space(_IterativeNormSpace):
    kind = "l1"

    def _norms(self, diff):
        return np.abs(diff).sum(axis=-1)

    def _norm_subgrad(self, diff):
        return np.sign(diff)


class LinfSpace(_IterativeNormSpace):
    kind = "linf"

    def _norms(self, diff):
        return np.abs(diff).max(axis=-1)

    def _norm_subgrad(self, diff):
        idx = np.argmax(np.abs(diff), axis=-1)[..., None]
        sub = np.zeros_like(diff)
        np.put_along_axis(sub, idx, np.take_along_axis(np.sign(diff), idx, axis=-1), axis=-1)
        return sub


class WassersteinSpace(MetricSpace):
    """1-D distributions as quantile functions on a fixed grid."""

    kind = "wasserstein"
    affine = True

    def __init__(self, grid):
        self.grid = np.asarray(grid, dtype=float).ravel()
        self.cell_weights = grid_cell_weights(self.grid)

    @classmethod
    def with_uniform_grid(cls, m: int = 101) -> "WassersteinSpace":
        return cls(midpoint_grid(m))

    def check_point(self, y) -> np.ndarray:
        v = as_array(y).ravel()
        if v.size != self.grid.size:
            raise ValueError(f"expected {self.grid.size} quantile values, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise ValueError("quantile values must be finite")
        if np.any(np.diff(v) < -MONOTONE_SLACK):
            raise ValueError("quantile values must be nondecreasing")
        return v

    def distances_to(self, points, y) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - as_array(y)
        return np.sqrt((diff * diff) @ self.cell_weights)

    def project_blends(self, blended) -> np.ndarray:
        """PAVA on each row that decreases somewhere; other rows pass as is."""
        bad = np.any(np.diff(blended, axis=1) < 0.0, axis=1)
        for j in np.flatnonzero(bad):
            blended[j] = isotonic_project(blended[j], self.cell_weights)
        return blended

    def frechet_mean(self, points, weights) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        w, total = _weight_total(weights)
        return self.project_blends((w @ pts / total)[None])[0]

    def frechet_mean_many(self, points, weight_matrix) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        w, totals = _column_totals(weight_matrix)
        return self.project_blends((w.T @ pts) / totals[:, None])


class CorrelationSpace(MetricSpace):
    """Correlation matrices of a fixed size under the Frobenius metric."""

    kind = "correlation"
    affine = True

    def __init__(self, size: int, tol: float = 1e-10, max_iter: int = 1000):
        if size < 1:
            raise ValueError("matrix size must be positive")
        self.size = size
        self.tol = tol
        self.max_iter = max_iter

    def check_point(self, y) -> np.ndarray:
        a = as_array(y)
        if a.shape != (self.size, self.size):
            raise ValueError(f"expected a {self.size}x{self.size} matrix, got {a.shape}")
        return CorrelationMatrix(a).values

    def distances_to(self, points, y) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - as_array(y)
        return np.sqrt(np.sum(diff * diff, axis=(-2, -1)))

    def project_blends(self, blended) -> np.ndarray:
        """Nearest correlation matrix to each stacked blend (Dykstra)."""
        return np.stack(
            [nearest_correlation(b, tol=self.tol, max_iter=self.max_iter) for b in blended]
        )

    def frechet_mean(self, points, weights) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        w, total = _weight_total(weights)
        return self.project_blends((np.tensordot(w, pts, axes=(0, 0)) / total)[None])[0]


def space_from_kind(kind: str, *, grid=None, quantile_points: int = 101, size: int | None = None) -> MetricSpace:
    """Build a metric space from its CLI name."""
    name = kind.lower()
    if name == "euclidean":
        return EuclideanSpace()
    if name == "l1":
        return L1Space()
    if name == "linf":
        return LinfSpace()
    if name == "wasserstein":
        if grid is not None:
            return WassersteinSpace(grid)
        return WassersteinSpace.with_uniform_grid(quantile_points)
    if name == "correlation":
        if size is None:
            raise ValueError("correlation space needs the matrix size")
        return CorrelationSpace(size)
    raise ValueError(f"unknown metric space kind: {kind!r}")
