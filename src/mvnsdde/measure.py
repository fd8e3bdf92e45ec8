"""Empirical measures, their means, and exact Wasserstein-2 distances.

Uniformly weighted point clouds stand in for the laws that the coefficient
functions and the error metrics consume: the coefficients read a step's
:class:`EmpiricalMeasure`, and the distances take the point arrays
themselves (samples).  Distances are computed exactly: minimum-cost
assignment between two samples in any dimension, and per-quantile-cell
quadrature against the standard normal.
Approximate transport solvers are deliberately avoided so convergence
measurements are not contaminated by solver error.

The assignment solver is scipy's shortest-augmenting-path
``linear_sum_assignment`` (Crouse, IEEE TAES 52(4), 2016), loaded alone
from its extension module: importing ``scipy.optimize`` would run that
package's whole ``__init__``, ``scipy.spatial`` included, for one C
function.  The squared distances are summed in numpy one coordinate at a
time, in the order ``cdist(x, y, "sqeuclidean")`` sums them, so they are
its bits.

The solver starts from column-then-row reduced costs (Jonker and
Volgenant, Computing 38, 1987): subtracting each column's and then each
row's minimum leaves a zero in every row and column, so the solver, which
starts from zero duals, finds shorter paths.  Adding a constant to a whole
row or column changes no permutation's rank, so the optimal matching is
the same (the tests pin the plain solver's distance bit for bit).  The
distance is still read from the unreduced costs, whose rounding the
reduction would alter, so it is recomputed from the matched points.  The
reduction runs in place, in the cost buffer a caller may lend
(``w2_assignment(x, y, out=buf)``), so repeated solves allocate no n x n
array.

The costs of an n-point solve are built in tiles of ``_TILE_VALUES // n``
rows (64 at the cap), with one scratch tile per solve (256 KiB at the
cap), in two passes: the first sums a tile's squared distances and folds
it into the column minima while it is in cache, the second subtracts the
column and then the row minima.  Each entry sees the whole-matrix
operations in their order and minima are exact, so the bits are those.
At the cap and dim 5 that is about 150 numpy calls, few points at which a
rate study's two solver threads trade the GIL.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ShapeError
from .noise import SCIPY_DIR, ndtri, scipy_extension

# The largest sample the assignment solver takes (its cost is cubic in size).
ASSIGNMENT_CAP = 512

# The assignment solver's extension module and the directory it is loaded from.
_SOLVER = "scipy.optimize._lsap"
_SOLVER_DIR = os.path.join(SCIPY_DIR, "optimize")

_QUANTILE_CLIP = 1e-12  # keeps the inverse normal CDF finite at cell edges
_NORMAL_NODES = 64  # Gauss-Legendre nodes per quantile cell
_CELL_BLOCK = 4096  # quantile cells per quadrature block: 8 MiB of nodes
_TILE_VALUES = 2**15  # cost entries per tile: 64 rows and 256 KiB at the cap
_FLOAT_MAX = float(np.finfo(np.float64).max)


class EmpiricalMeasure:
    """The empirical measures of a batch of particle systems at one step.

    ``points`` is the whole batch, (rows, dim), and system k owns the rows
    ``bounds[k]`` = (start, stop), each a uniform measure on its points.
    ``mean`` broadcasts by row: row i holds the mean of its own system's
    points, computed once on first use.  The integrator builds one per
    step, so there are no checks; the W2 distances take sample arrays.
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


def _samples(*samples) -> list[np.ndarray]:
    """The samples as (size, dim) float64 arrays, a (size,) one as dim 1; a
    :class:`ShapeError` for another rank, an empty sample, a non-finite
    coordinate, samples of different shapes, or samples so large that a
    sum of size * dim squared differences of their coordinates could
    overflow float64 (each difference is bounded by the samples' largest
    magnitudes added, a check linear in their size)."""
    out = []
    for sample in samples:
        pts = np.asarray(sample, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ShapeError(f"a sample must be (size, dim), got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ShapeError("a sample needs at least one point")
        if not np.isfinite(pts).all():
            raise ShapeError("a sample needs finite points")
        if out and pts.shape != out[0].shape:
            raise ShapeError(f"shape mismatch: {out[0].shape} vs {pts.shape}")
        out.append(pts)
    span = sum(float(np.abs(pts).max()) for pts in out)
    if span * span * out[0].size > _FLOAT_MAX:  # an overflowing product is inf
        raise ShapeError(f"coordinates up to {span:g} apart could overflow float64")
    return out


@lru_cache(maxsize=1)
def _assignment_solver():
    """scipy's ``linear_sum_assignment``, loaded once from ``_SOLVER`` alone,
    without running ``scipy.optimize``'s ``__init__``; an ImportError that
    names the module and ``_SOLVER_DIR`` when it is not there."""
    return scipy_extension(_SOLVER, _SOLVER_DIR).linear_sum_assignment


def _sq_sum(a, b, out: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``out`` filled with the squared Euclidean distances of the points
    ``a`` and ``b``, given coordinate first (``a[k]`` holds the k-th
    coordinates, broadcast against ``b[k]``), summed coordinate by
    coordinate from the first, as ``cdist(x, y, "sqeuclidean")`` sums them,
    so they are its bits; a square that overflows is inf, as there.
    ``part``, of ``out``'s shape, holds each further coordinate's squares."""
    with np.errstate(over="ignore"):
        np.subtract(a[0], b[0], out=out)
        np.multiply(out, out, out=out)  # what np.square and ** 2 compute
        for k in range(1, len(a)):
            np.subtract(a[k], b[k], out=part)
            np.multiply(part, part, out=part)
            out += part
    return out


def _tiles(rows: int, cols: int) -> list[slice]:
    """The row slices of a (rows, cols) matrix, ``_TILE_VALUES // cols``
    rows each (at least one), the last one possibly shorter."""
    step = max(1, _TILE_VALUES // cols)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _sq_distances(x: np.ndarray, y: np.ndarray, out=None):
    """The (len(x), len(y)) squared Euclidean distances of two (size, dim)
    samples (:func:`_sq_sum`), in ``out`` if given, and their column
    minima, built a tile (:func:`_tiles`) at a time from the transposed
    coordinates, each tile folded into the minima while it is in cache."""
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)[:, None]
    if out is None:
        out = np.empty((len(x), len(y)))
    tiles = _tiles(len(x), len(y))
    part = np.empty_like(out[tiles[0]])
    col_min = np.full(len(y), np.inf)
    for span in tiles:
        tile = out[span]
        _sq_sum(xt[:, span, None], yt, tile, part[: len(tile)])
        np.minimum(col_min, tile.min(axis=0), out=col_min)
    return out, col_min


def w2_assignment(x, y, out=None) -> float:
    """Exact Wasserstein-2 distance of two equal-size samples via
    minimum-cost bipartite assignment.

    Works in any dimension; cubic cost in the point count, hence
    ``ASSIGNMENT_CAP``.  Raising :class:`CapacityError` signals the caller to
    subsample rather than silently approximating.

    The solver gets the column-then-row reduced costs, which give the same
    matching with shorter augmenting paths (see the module docstring).  The
    distance averages the matched squared distances, recomputed from the
    matched points, because the reduced entries carry other rounding.

    ``out``, a writeable C-contiguous float64 (size, size) array, holds the
    reduced costs instead of a new one, so a caller solving many samples of
    one size reuses one buffer; its contents are overwritten, and a buffer of
    another shape, dtype or layout is a :class:`ShapeError`, as are
    samples whose squared distances could overflow (:func:`_samples`).
    """
    x, y = _samples(x, y)
    size = len(x)
    if size > ASSIGNMENT_CAP:
        raise CapacityError(f"size {size} exceeds assignment cap {ASSIGNMENT_CAP}")
    if out is not None and not (
        isinstance(out, np.ndarray) and out.shape == (size, size)
        and out.dtype == np.float64 and out.flags.carray
    ):
        raise ShapeError(
            f"out must be a writeable C-contiguous float64 ({size}, {size}) array"
        )
    cost, col_min = _sq_distances(x, y, out)
    for span in _tiles(size, size):
        tile = cost[span]
        tile -= col_min
        tile -= tile.min(axis=1, keepdims=True)
    rows, cols = _assignment_solver()(cost)
    sq = _sq_sum(x[rows].T, y[cols].T, *np.empty((2, size)))
    return float(np.sqrt(sq.mean()))


@lru_cache(maxsize=64)
def _normal_cell_moments(size: int):
    """Per-cell integrals of the standard normal quantile function.

    Returns (a, b) with a_i = integral of ndtri(u) and b_i = integral of
    ndtri(u)^2 over the i-th cell ((i-1)/size, i/size), by Gauss-Legendre
    quadrature with ``_NORMAL_NODES`` points per cell.  The cells are summed
    ``_CELL_BLOCK`` at a time, so the node arrays stay bounded.
    """
    x, w = np.polynomial.legendre.leggauss(_NORMAL_NODES)
    edges = np.linspace(0.0, 1.0, size + 1)
    a, b = np.empty(size), np.empty(size)
    for start in range(0, size, _CELL_BLOCK):
        stop = min(start + _CELL_BLOCK, size)
        lo, hi = edges[start:stop, None], edges[start + 1 : stop + 1, None]
        u = lo + (x[None, :] + 1.0) * 0.5 * (hi - lo)
        ww = w[None, :] * 0.5 * (hi - lo)
        q = ndtri(np.clip(u, _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP))
        a[start:stop] = (ww * q).sum(axis=1)
        b[start:stop] = (ww * q * q).sum(axis=1)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def w2sq_to_standard_normal_1d(x) -> float:
    """Squared W2 distance from the empirical measure of a 1-D sample to N(0, 1).

    Integrates (x_(i) - ndtri(u))^2 over each quantile cell of width
    1/size, with u clipped away from {0, 1} to keep the quantile function
    finite.  A sample whose sum of squares could overflow is a
    :class:`ShapeError` (:func:`_samples`).
    """
    (x,) = _samples(x)
    if x.shape[1] != 1:
        raise ShapeError(f"normal distance needs dim 1, got {x.shape[1]}")
    xs = np.sort(x[:, 0], kind="stable")
    a, b = _normal_cell_moments(len(xs))
    value = float(np.dot(xs, xs) / len(xs) - 2.0 * np.dot(xs, a) + b.sum())
    return max(value, 0.0)
