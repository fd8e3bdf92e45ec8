"""Empirical measures, their means, and exact Wasserstein-2 distances.

Uniformly weighted point clouds stand in for the laws that the coefficient
functions and the error metrics consume.  Distances are computed exactly:
order statistics in one dimension, minimum-cost assignment in general
dimension, and per-quantile-cell quadrature against the standard normal.
Approximate transport solvers are deliberately avoided so convergence
measurements are not contaminated by solver error.

The assignment solver starts from column-then-row reduced costs (Jonker and
Volgenant, Computing 38, 1987): subtracting each column's and then each
row's minimum leaves a zero in every row and column, so scipy's
shortest-augmenting-path solver, which starts from zero duals, finds
shorter paths.  Adding a constant to a whole row or column changes no
permutation's rank, so the optimal matching is the same (the tests pin the
plain solver's distance bit for bit).  The distance is still read from the
unreduced ``cdist`` costs, whose rounding the reduction would alter.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .errors import CapacityError, ShapeError

DEFAULT_ASSIGNMENT_CAP = 512

_QUANTILE_CLIP = 1e-12  # keeps the inverse normal CDF finite at cell edges


class EmpiricalMeasure:
    """Uniform probability measure on a finite point set in R^d.

    Weights are implicitly 1/size.  Every coordinate must be finite.  The
    point array is exposed read-only and the mean is computed once on first
    use, so one measure instance can be shared by every particle update
    within a step.
    """

    __slots__ = ("points", "_mean")

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ShapeError(f"points must be (size, dim), got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ShapeError("an empirical measure needs at least one point")
        if not np.isfinite(pts).all():
            raise ShapeError("an empirical measure needs finite points")
        pts = pts.view()
        pts.flags.writeable = False
        self.points = pts
        self._mean = None

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def mean(self) -> np.ndarray:
        """Mean vector, cached after the first evaluation."""
        if self._mean is None:
            self._mean = self.points.mean(axis=0)
        return self._mean

    def __repr__(self) -> str:
        return f"EmpiricalMeasure(size={self.size}, dim={self.dim})"


class BatchMeasure:
    """The empirical measures of a batch of particle systems at one step.

    ``points`` is the whole batch, (rows, dim), and system k owns the rows
    ``bounds[k]`` = (start, stop).  ``mean`` broadcasts by row: row i holds
    the mean of its own system's points, summed exactly as
    ``EmpiricalMeasure(points[start:stop]).mean`` sums them, and computed once
    on first use.  The integrator builds one per step, so there are no checks
    and no read-only view.
    """

    __slots__ = ("points", "bounds", "_mean")

    def __init__(self, points: np.ndarray, bounds):
        self.points, self.bounds, self._mean = points, bounds, None

    @property
    def mean(self) -> np.ndarray:
        if self._mean is None:
            pts = self.points
            mean = np.empty_like(pts)
            for start, stop in self.bounds:
                # not np.add.reduceat, which sums in another order
                total = np.add.reduce(pts[start:stop], axis=0)
                mean[start:stop] = total / (stop - start)
            self._mean = mean
        return self._mean


def _require_same_size(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    if mu.size != nu.size:
        raise ShapeError(f"size mismatch: {mu.size} vs {nu.size}")


def w2_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact Wasserstein-2 distance of equal-size 1-D empirical measures.

    The optimal coupling of two equal-size uniform atomic measures on the
    line pairs order statistics, so the distance reduces to the rms gap of
    the sorted samples.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ShapeError(f"w2_1d needs dim 1, got {mu.dim} and {nu.dim}")
    _require_same_size(mu, nu)
    xs = np.sort(mu.points[:, 0], kind="stable")
    ys = np.sort(nu.points[:, 0], kind="stable")
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


def w2_assignment(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> float:
    """Exact Wasserstein-2 distance via minimum-cost bipartite assignment.

    Works in any dimension; cubic cost in the point count, hence the cap.
    Raising :class:`CapacityError` signals the caller to subsample rather
    than silently approximating.

    The solver gets the column-then-row reduced costs, which give the same
    matching with shorter augmenting paths (see the module docstring).  The
    distance averages the matched entries of the unreduced ``cdist`` matrix,
    because the reduced entries carry other rounding.
    """
    if mu.dim != nu.dim:
        raise ShapeError(f"dim mismatch: {mu.dim} vs {nu.dim}")
    _require_same_size(mu, nu)
    if mu.size > assignment_cap:
        raise CapacityError(
            f"size {mu.size} exceeds assignment cap {assignment_cap}"
        )
    # imported here, not at the top: they roughly double the time and the
    # memory of importing the package, and only this function needs them
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(mu.points, nu.points, "sqeuclidean")
    reduced = cost - cost.min(axis=0)
    reduced -= reduced.min(axis=1, keepdims=True)
    rows, cols = linear_sum_assignment(reduced)
    return float(np.sqrt(cost[rows, cols].mean()))


@lru_cache(maxsize=64)
def _normal_cell_moments(size: int, nodes: int):
    """Per-cell integrals of the standard normal quantile function.

    Returns (a, b) with a_i = integral of ndtri(u) and b_i = integral of
    ndtri(u)^2 over the i-th cell ((i-1)/size, i/size), by Gauss-Legendre
    quadrature with ``nodes`` points per cell.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, 1.0, size + 1)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    u = lo + (x[None, :] + 1.0) * 0.5 * (hi - lo)
    ww = w[None, :] * 0.5 * (hi - lo)
    q = ndtri(np.clip(u, _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP))
    a = (ww * q).sum(axis=1)
    b = (ww * q * q).sum(axis=1)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def w2sq_to_standard_normal_1d(
    mu: EmpiricalMeasure, nodes_per_cell: int = 64
) -> float:
    """Squared W2 distance from a 1-D empirical measure to N(0, 1).

    Integrates (x_(i) - ndtri(u))^2 over each quantile cell of width
    1/size, with u clipped away from {0, 1} to keep the quantile function
    finite.  At least 32 quadrature nodes per cell are required.
    """
    if mu.dim != 1:
        raise ShapeError(f"normal distance needs dim 1, got {mu.dim}")
    if nodes_per_cell < 32:
        raise ValueError(f"nodes_per_cell must be >= 32, got {nodes_per_cell}")
    xs = np.sort(mu.points[:, 0], kind="stable")
    a, b = _normal_cell_moments(mu.size, nodes_per_cell)
    value = float(np.dot(xs, xs) / mu.size - 2.0 * np.dot(xs, a) + b.sum())
    return max(value, 0.0)
