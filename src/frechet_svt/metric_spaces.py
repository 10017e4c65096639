"""Response-space abstraction: validation, distances and weighted Frechet means.

Supported spaces: Euclidean vectors under the l2, l1, or sup norm,
one-dimensional distributions represented by quantile functions on a
fixed grid (2-Wasserstein geometry), and correlation matrices under the
Frobenius metric.

Each space has one validation path, ``check_points``, which checks a
whole stack of points at once and names the first one outside the space.

Weights may be negative. For the Euclidean, Wasserstein and correlation
spaces the weighted Frechet mean is one computation, shared by single and
batched queries: the weight-normalized blend of the points, then the
space's ``project_blends`` (identity, PAVA, Dykstra). It only requires
each weight total to be positive, which the regression weights guarantee
(they average to one). The l1 and sup-norm spaces run a batched
subgradient solver instead, which also takes a point set per query
(``frechet_mean_columns``), as a simulation cell's trial centers need.
"""

from __future__ import annotations

import math

import numpy as np

# Slack allowed when checking that quantile values are nondecreasing.
MONOTONE_SLACK = 1e-10

# Dykstra's stopping tolerance and iteration cap for the nearest correlation matrix.
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 1000


class DegenerateWeightsError(ValueError):
    """Raised when the weight total is nonpositive and no mean exists."""


class InvalidPointError(ValueError):
    """A stacked point lies outside its space; ``index`` is the first bad one.

    ``index`` is None when the stack as a whole has the wrong shape.
    """

    def __init__(self, reason: str, index: int | None = None):
        super().__init__(reason if index is None else f"point {index}: {reason}")
        self.reason = reason
        self.index = index

    def __reduce__(self):
        return type(self), (self.reason, self.index)


def _reject_first(bad, reason: str) -> None:
    """Raise for the first point flagged in the per-point mask ``bad``."""
    if np.any(bad):
        raise InvalidPointError(reason, int(np.argmax(bad)))


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


def _nearest_correlations(stack) -> np.ndarray:
    """Frobenius-nearest correlation matrix to each of a stack of matrices, by Dykstra's projections.

    Alternates between the PSD cone (eigenvalue clipping, with Dykstra's
    correction) and the unit-diagonal affine set. Each step runs one
    stacked ``eigh`` and one stacked product over the matrices still
    moving; numpy makes the same LAPACK and BLAS call per matrix as for
    one matrix alone. A matrix stops on the step where its own
    successive-iterate Frobenius change drops below ``DYKSTRA_TOL``, so
    its result does not depend on the rest of the stack; a matrix still
    moving after ``DYKSTRA_MAX_ITER`` steps raises ``ConvergenceError``.
    """
    stack = np.asarray(stack, dtype=float)
    if not np.isfinite(stack).all():
        raise ValueError("matrix has non-finite entries")
    y = 0.5 * (stack + stack.swapaxes(1, 2))
    out = np.empty_like(y)
    live = np.arange(len(y))  # stack index of each matrix still moving, in order
    correction = np.zeros_like(y)
    diag = np.arange(y.shape[-1])
    for _ in range(DYKSTRA_MAX_ITER):
        if not live.size:
            break
        r = y - correction
        w, q = np.linalg.eigh(0.5 * (r + r.swapaxes(1, 2)))
        x = (q * np.clip(w, 0.0, None)[:, None, :]) @ q.swapaxes(1, 2)
        x = 0.5 * (x + x.swapaxes(1, 2))
        correction = x - r
        x[:, diag, diag] = 1.0
        d = (x - y).reshape(len(x), 1, -1)
        delta = np.sqrt((d @ d.swapaxes(1, 2))[:, 0, 0])  # a dot per matrix, as np.linalg.norm(., "fro")
        y = x
        done = delta < DYKSTRA_TOL
        if done.any():
            out[live[done]] = y[done]
            live, y, correction = live[~done], y[~done], correction[~done]
    if live.size:
        raise ConvergenceError(
            f"nearest-correlation projection did not reach tol={DYKSTRA_TOL} in {DYKSTRA_MAX_ITER} iterations",
            last_iterate=y[0].copy(),
        )
    return out


def nearest_correlation(a) -> np.ndarray:
    """Frobenius-nearest correlation matrix to the square matrix ``a``; see ``_nearest_correlations``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return _nearest_correlations(a[None])[0]


def _column_totals(weight_matrix) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weight_matrix, dtype=float)
    totals = w.sum(axis=0)
    if np.any(totals <= 0.0):
        raise DegenerateWeightsError("every weight column must have a positive total")
    return w, totals


class MetricSpace:
    """Validation, distance and weighted Frechet mean for one response geometry."""

    kind: str = "abstract"
    # True when the weighted Frechet mean is the weight-normalized average
    # of the points followed by ``project_blends``. ``rank_predictions`` then
    # updates the averages along the rank path and never forms weights.
    affine: bool = False

    def check_points(self, points) -> np.ndarray:
        """The stacked points as a float array, if every one lies in the space.

        Raises ``InvalidPointError`` (a ``ValueError``) naming the first
        point that does not.
        """
        raise NotImplementedError

    def distance(self, y1, y2) -> float:
        d = self.distances_to(np.asarray(y1, dtype=float)[None], y2)
        return float(d[0])

    def distances_to(self, points, y) -> np.ndarray:
        """Distances from each stacked point to ``y``, vectorized."""
        raise NotImplementedError

    def frechet_mean_blocks(self, points, blocks) -> list:
        """One stack of means per weight matrix in ``blocks``, each independent of the others.

        Affine spaces blend the points with each weight column, normalized
        by its total, and map the blends into the space.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(pts.shape[0], -1)
        blends = [(w.T @ flat) / totals[:, None] for w, totals in map(_column_totals, blocks)]
        return [self.project_blends(b.reshape(-1, *pts.shape[1:])) for b in blends]

    def project_blends(self, blended) -> np.ndarray:
        """Map stacked weight-normalized averages of points into the space.

        Only affine spaces have this step; it may overwrite ``blended``.
        """
        raise NotImplementedError


class _VectorSpace(MetricSpace):
    def check_points(self, points) -> np.ndarray:
        a = np.asarray(points, dtype=float)
        if a.ndim not in (1, 2):
            raise InvalidPointError(f"expected stacked scalars or vectors, got shape {a.shape}")
        finite = np.isfinite(a) if a.ndim == 1 else np.isfinite(a).all(axis=1)
        _reject_first(~finite, "non-finite entries")
        return a


class EuclideanSpace(_VectorSpace):
    kind = "euclidean"
    affine = True

    def project_blends(self, blended) -> np.ndarray:
        return blended

    def distances_to(self, points, y) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - np.asarray(y, dtype=float)
        if diff.ndim <= 1:  # stacked scalar responses
            return np.abs(diff)
        return np.sqrt(np.sum(diff * diff, axis=-1))


class _IterativeNormSpace(_VectorSpace):
    """Subgradient minimizer of the weighted squared-distance objective.

    With negative weights the objective may be nonconvex; the solver
    starts at the weighted l2 mean, runs a fixed iteration budget with
    step c/sqrt(k), and returns the best iterate seen, so the result
    never does worse than the initializer. Norms and subgradient are
    evaluated once per iterate: the ones that score an iterate also give
    the next step.

    Both entries run one loop, ``_descend``, with one step size and
    incumbent per query. ``frechet_mean_blocks`` solves the columns of
    every weight matrix it is given on shared points, and each block's
    result equals a call with that block alone, bit for bit.
    ``frechet_mean_columns`` solves an equal-weight mean of each column
    of a point stack, and each equals that column's one-point call. Two
    things keep a query independent of its batch mates. Each block, or
    column, is its own initializer product with the points: BLAS rounds
    a column differently depending on how many columns share the call.
    And a lone weight row (a one-column block's, or any row of the
    stack's C-ordered weights) sums contiguously, as a call of its own
    does; rows of wider blocks sum in order over the points.

    The loop's two work arrays, the offsets and the subgradient, are
    held query-minor, as (points, dim, queries), so every elementwise
    pass over them runs one long contiguous inner loop however small
    ``dim`` is. Each reduction keeps the order of the query-major loop
    that ``tests/oracles.subgradient_reference`` freezes, so the result
    is the same bit for bit. A step copies the iterate once into a
    contiguous (dim, queries) buffer, broadcasts it into the offsets and
    subtracts the points in place. The gradient is one
    ``einsum("nq,ndq->dq")`` of the weighted norms and the subgradient,
    doubled into a C-ordered (queries, dim) array: it adds the points'
    (dim, queries) planes in order from +0.0, as the reference's
    ``einsum("kn,knd->kd")`` does, so a sum of signed zeros is +0.0 in
    both. The objective runs the reference's
    ``einsum("kn,kn->k")`` on a C-ordered (queries, points) copy of the
    squared norms. The norms reduce over ``dim`` as a contiguous row of
    the query-major layout would; see ``L1Space._norm_parts``. Beyond the
    two work arrays, only the sup norm's boolean mask of each offset's
    largest coordinate has their shape, one buffer per solve.
    """

    iterations = 500
    _combine: np.ufunc  # folds the |coordinates| of an offset into its norm
    _masked = False  # True when ``_norm_parts`` takes a bool work array shaped as the offsets

    def distances_to(self, points, y) -> np.ndarray:
        a = np.abs(np.asarray(points, dtype=float) - np.asarray(y, dtype=float))
        return a if a.ndim <= 1 else self._combine.reduce(a, axis=-1)

    def _norm_parts(self, diff: np.ndarray, subgrad: np.ndarray, hot) -> np.ndarray:
        """Norms of the (points, dim, queries) offsets ``diff``, as (points, queries).

        A subgradient of ||.|| at each offset goes into ``subgrad``, laid
        out as ``diff``; ``diff`` may be overwritten, and so may ``hot``,
        a bool array of that shape when ``_masked`` is set, else None.
        """
        raise NotImplementedError

    def frechet_mean_blocks(self, points, blocks) -> list:
        pts = np.asarray(points, dtype=float)
        parts = [_column_totals(w) for w in blocks]
        if not parts:
            return []
        if pts.ndim == 1:  # scalar responses: every norm coincides, mean is exact
            return [(w.T @ pts) / totals for w, totals in parts]
        y = np.concatenate([(w.T @ pts) / totals[:, None] for w, totals in parts])  # (queries, dim)
        # (n, queries), C-ordered; one block is used as it is, without a copy
        w = np.ascontiguousarray(parts[0][0]) if len(parts) == 1 else np.hstack([w for w, _ in parts])
        ends = np.cumsum([w.shape[1] for w, _ in parts])
        # numpy sums a lone contiguous weight row pairwise, a strided row in order.
        lone = [(end - 1, w.T) for end, (w, _) in zip(ends, parts) if w.shape[1] == 1]
        return np.split(self._descend(pts[:, :, None], w, y, lone), ends[:-1])

    def frechet_mean_columns(self, stacks) -> np.ndarray:
        """Equal-weight mean of each column of a (points, queries, dim) stack, as (queries, dim)."""
        stacks = np.asarray(stacks, dtype=float)
        n, queries = stacks.shape[:2]
        ones = np.ones((1, n))
        y = np.concatenate([ones @ stacks[:, m] / n for m in range(queries)])
        pts = np.ascontiguousarray(stacks.transpose(0, 2, 1))  # (points, dim, queries)
        return self._descend(pts, np.ones((queries, n)).T, y, [])

    def _descend(self, pts, w, y, lone) -> np.ndarray:
        """Best iterate per query from initializers ``y`` (queries, dim) and weights ``w`` (n, queries).

        ``pts`` is (n, dim, 1) when the queries share the points, else
        (n, dim, queries). ``lone`` pairs a query with its own (1, n) weight row.
        """
        wt = w.T  # one weight row per query

        def weighted(weights, lone_rows, sq):  # per query: sum of weight * squared norm
            out = np.einsum("kn,kn->k", weights, sq)
            for row, w_row in lone_rows:
                out[row] = np.einsum("kn,kn->k", w_row, sq[row : row + 1])[0]
            return out

        def squares(norms):  # (queries, n), C-ordered as the einsums above expect
            sq = norms.T.copy()
            return np.square(sq, out=sq)

        diff = np.empty((*pts.shape[:2], y.shape[0]))  # offsets y - pts, reused by every iterate
        subgrad = np.empty_like(diff)
        hot = np.empty(diff.shape, dtype=bool) if self._masked else None
        yt = np.empty(diff.shape[1:])  # the iterate, (dim, queries) and contiguous

        def offsets(y):
            # A broadcast copy and an in-place subtract measured faster than
            # one out-of-place subtract while the work arrays fit in cache.
            np.copyto(yt, y.T)
            np.copyto(diff, yt)
            return np.subtract(diff, pts, out=diff)

        def gradient(norms):  # 2 sum_i w_i ||y - p_i|| g_i per query, as (queries, dim); overwrites norms
            norms *= w
            # numpy's contiguous einsum loop may fuse each multiply-add, but the
            # subgradient's entries are +-1 or +-0, so every product is exact and
            # the sum rounds as the reference's does. A C-ordered result keeps
            # the step norm's row sums pairwise, as np.linalg.norm's are there.
            return np.multiply(np.einsum("nq,ndq->dq", norms, subgrad).T, 2.0, order="C")

        norms = self._norm_parts(offsets(y), subgrad, hot)  # (n, queries)
        sq = squares(norms)
        grad = gradient(norms)
        del norms  # from here on no more (n, queries) arrays are alive than in a step
        best_y = y.copy()
        best_obj = weighted(wt, lone, sq)
        # Step length from the absolute-weight objective: with negative
        # weights the signed objective can vanish or go negative at the
        # initializer while the spread of the points is still large.
        abs_wt = np.abs(wt)
        abs_lone = [(row, np.abs(w_row)) for row, w_row in lone]
        spread = weighted(abs_wt, abs_lone, sq)
        mass = abs_wt.sum(axis=1)
        for row, w_row in abs_lone:
            mass[row] = w_row.sum(axis=1)[0]
        scales = np.sqrt(spread / np.maximum(mass, 1e-300))
        del sq, abs_wt
        for k in range(1, self.iterations + 1):
            gn = np.sqrt(np.add.reduce(grad * grad, axis=1))  # np.linalg.norm(grad, axis=1), bit for bit
            active = gn > 0.0
            if not active.any():
                break
            step = np.divide(scales, math.sqrt(k) * gn, out=np.zeros_like(gn), where=active)
            y = y - step[:, None] * grad
            norms = self._norm_parts(offsets(y), subgrad, hot)
            obj = weighted(wt, lone, squares(norms))
            improved = obj < best_obj
            np.copyto(best_obj, obj, where=improved)
            np.copyto(best_y, y, where=improved[:, None])
            grad = gradient(norms)
        return best_y


class L1Space(_IterativeNormSpace):
    kind = "l1"
    _combine = np.add

    def _norm_parts(self, diff, subgrad, hot):
        # numpy sums fewer than 8 terms in order whatever the layout, but a
        # longer contiguous row pairwise. For those rows the subgradient
        # buffer first holds |diff| row-contiguous, so no third array is made.
        if diff.shape[1] < 8:
            np.sign(diff, out=subgrad)
            return np.abs(diff, out=diff).sum(axis=1)
        rows = subgrad.reshape(diff.shape[0], diff.shape[2], diff.shape[1])
        np.abs(diff, out=rows.transpose(0, 2, 1))
        norms = rows.sum(axis=-1)
        np.sign(diff, out=subgrad)
        return norms


class LinfSpace(_IterativeNormSpace):
    kind = "linf"
    _combine = np.maximum
    _masked = True

    def _norm_parts(self, diff, subgrad, hot):
        # Sign at the first largest |coordinate|, a signed zero elsewhere (a
        # masked negative sign gives -0.0). The sign of a zero reaches the
        # gradient only through products and the in-order sum over the
        # points, which starts from +0.0 and so turns a sum of zeros into
        # +0.0: the result is the same bit for bit.
        np.sign(diff, out=subgrad)
        a = np.abs(diff, out=diff)
        top = a.max(axis=1)
        np.equal(a, top[:, None, :], out=hot)
        if np.count_nonzero(hot) > top.size:  # ties: only the first one counts
            hot &= np.cumsum(hot, axis=1) == 1
        subgrad *= hot
        return top


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

    def check_points(self, points) -> np.ndarray:
        a = np.asarray(points, dtype=float)
        m = self.grid.size
        if a.ndim != 2 or a.shape[1] != m:
            raise InvalidPointError(f"expected rows of {m} quantile values, got shape {a.shape}")
        _reject_first(~np.isfinite(a).all(axis=1), "quantile values must be finite")
        _reject_first(
            np.any(np.diff(a, axis=1) < -MONOTONE_SLACK, axis=1),
            "quantile values are not nondecreasing",
        )
        return a

    def distances_to(self, points, y) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - np.asarray(y, dtype=float)
        return np.sqrt(np.multiply(diff, diff, out=diff) @ self.cell_weights)

    def project_blends(self, blended) -> np.ndarray:
        """PAVA on each row that decreases somewhere; other rows pass as is."""
        # a < b exactly when a - b < 0 for doubles, without np.diff's temporary.
        steps_down = np.less(blended[:, 1:], blended[:, :-1])
        if steps_down.any():  # most stacks have no such row: skip the per-row pass
            for j in np.flatnonzero(steps_down.any(axis=1)):
                blended[j] = isotonic_project(blended[j], self.cell_weights)
        return blended


class CorrelationSpace(MetricSpace):
    """Correlation matrices of a fixed size under the Frobenius metric."""

    kind = "correlation"
    affine = True

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("matrix size must be positive")
        self.size = size

    def check_points(self, points) -> np.ndarray:
        """Symmetric, unit diagonal, spectrum bounded below by -1e-8."""
        a = np.asarray(points, dtype=float)
        r = self.size
        if a.ndim != 3 or a.shape[1:] != (r, r):
            raise InvalidPointError(f"expected stacked {r}x{r} matrices, got shape {a.shape}")
        _reject_first(~np.isfinite(a).all(axis=(1, 2)), "correlation matrix has non-finite entries")
        at = a.transpose(0, 2, 1)
        _reject_first(np.abs(a - at).max(axis=(1, 2)) > 1e-10, "correlation matrix must be symmetric")
        off_unit = np.abs(np.diagonal(a, axis1=1, axis2=2) - 1.0).max(axis=1)
        _reject_first(off_unit > 1e-10, "correlation matrix must have a unit diagonal")
        _reject_first(
            np.linalg.eigvalsh(0.5 * (a + at))[:, 0] < -1e-8,
            "correlation matrix must be positive semidefinite",
        )
        return a

    def distances_to(self, points, y) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - np.asarray(y, dtype=float)
        return np.sqrt(np.sum(diff * diff, axis=(-2, -1)))

    def project_blends(self, blended) -> np.ndarray:
        """Nearest correlation matrix to each stacked blend, in one stacked Dykstra loop."""
        return _nearest_correlations(blended)


def space_from_kind(kind: str, *, quantile_points: int = 101, size: int | None = None) -> MetricSpace:
    """Build a metric space from its CLI name."""
    name = kind.lower()
    if name == "euclidean":
        return EuclideanSpace()
    if name == "l1":
        return L1Space()
    if name == "linf":
        return LinfSpace()
    if name == "wasserstein":
        return WassersteinSpace.with_uniform_grid(quantile_points)
    if name == "correlation":
        if size is None:
            raise ValueError("correlation space needs the matrix size")
        return CorrelationSpace(size)
    raise ValueError(f"unknown metric space kind: {kind!r}")
