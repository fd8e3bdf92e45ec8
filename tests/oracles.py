"""Reference code the tests compare the package against."""

from dataclasses import dataclass

import numpy as np

from mvnsdde import (
    EmpiricalMeasure, ErrorRow, ErrorTable, ParticleGrid, ShapeError, experiments,
    noise, w2_assignment,
)
from mvnsdde.model import ModelSpec
from mvnsdde.scheme import Stepper, sample_moments


def run_on(model, grid, increments) -> ParticleGrid:
    """The grid of a run of one system advanced once on hand-made
    increments, its rows kept by the record :func:`mvnsdde.simulate` keeps
    them by.

    ``increments`` is the whole (steps, particles, bm_dim) path, such as
    zeros, permuted columns or :func:`mvnsdde.noise.generate`'s array.
    """
    rows = ParticleGrid(grid)
    Stepper(model, grid, [(0, increments.shape[1])], record=rows).advance(increments)
    return rows


def recorded(states, grid) -> ParticleGrid:
    """The :class:`~mvnsdde.ParticleGrid` at ``grid`` that has recorded
    ``states`` (rows, particles, dim) row by row, from grid index
    -delay_steps on."""
    rows = ParticleGrid(grid)
    for i, row in enumerate(states):
        rows(row, i - grid.delay_steps)
    return rows


def total_steps(grid: ParticleGrid) -> int:
    """The last grid index of ``grid``."""
    return grid.states.shape[0] - grid.delay_steps - 1


def column(grid: ParticleGrid, index: int) -> np.ndarray:
    """All particle states at grid index ``index`` (particles, dim)."""
    row = index + grid.delay_steps
    if not 0 <= row < grid.states.shape[0]:
        raise IndexError(
            f"grid index {index} outside [{-grid.delay_steps}, {total_steps(grid)}]"
        )
    return grid.states[row]


def w2_1d(x, y) -> float:
    """Exact Wasserstein-2 distance of two equal-size 1-D samples, (size,)
    or (size, 1).

    The optimal coupling of two equal-size uniform atomic measures on the
    line pairs order statistics, so the distance reduces to the rms gap of
    the sorted samples.
    """
    x, y = (np.asarray(s, dtype=np.float64) for s in (x, y))
    if x.shape != y.shape or x.ndim > 2 or x.size != len(x):
        raise ShapeError(f"w2_1d needs two equal 1-D samples, got {x.shape}, {y.shape}")
    xs = np.sort(x.ravel(), kind="stable")
    ys = np.sort(y.ravel(), kind="stable")
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


def rate_draws(xis, mc_reps: int, seed: int):
    """The dim-5 pairs of :func:`mvnsdde.empirical_measure_rate` in draw
    order: (size, repetition, x, y) for each size of ``xis``, ascending,
    and each repetition, x drawn before y."""
    rng = noise.derived_generator(seed, experiments._RATE_TAG + 5)
    for size in sorted(xis):
        for r in range(mc_reps):
            x = rng.standard_normal((size, 5))
            yield size, r, x, rng.standard_normal((size, 5))


def rate_table_sequential(xis, mc_reps: int, seed: int) -> ErrorTable:
    """:func:`mvnsdde.empirical_measure_rate`'s dim-5 table, one repetition
    at a time in one thread: draw x, then y, then ``w2_assignment(x, y) ** 2``."""
    squares: dict[int, list[float]] = {}
    for size, _, x, y in rate_draws(xis, mc_reps, seed):
        squares.setdefault(size, []).append(w2_assignment(x, y) ** 2)
    rows = []
    for size, vals in squares.items():
        vals = np.array(vals)
        stderr = float(vals.std(ddof=1) / np.sqrt(mc_reps)) if mc_reps > 1 else 0.0
        rows.append(ErrorRow(float(size), float(vals.mean()), stderr, mc_reps))
    return ErrorTable(rows)


def seeds_per_block_search(particles: int, bm_dim: int, multiple: int = 1) -> int:
    """:func:`mvnsdde.noise.seeds_per_block` by search: add one seed at a
    time while the shared block, a :func:`~mvnsdde.noise.chunk_steps` long,
    fits the element budget and keeps at least half the steps of the block
    one seed gets alone."""
    half = noise.chunk_steps(particles, bm_dim, multiple) // 2
    seeds = 1
    while True:
        width = (seeds + 1) * particles
        chunk = noise.chunk_steps(width, bm_dim, multiple)
        if chunk < half or chunk * width * bm_dim > noise._CHUNK_ELEMENTS:
            return seeds
        seeds += 1


def linear_meanfield_mean(
    t: float, a_coef: float = -1.0, b_coef: float = 0.5, x0: float = 0.0
) -> float:
    """Exact mean m(t) = x0 * exp((a_coef + b_coef) t) of
    :func:`mvnsdde.linear_meanfield`."""
    return x0 * float(np.exp((a_coef + b_coef) * t))


def one_system(points) -> EmpiricalMeasure:
    """The empirical measure of one particle system, (particles, dim)."""
    return EmpiricalMeasure(points, ((0, len(points)),))


def planar_meanfield(beta: float = 0.5) -> ModelSpec:
    """A two-dimensional model driven by two Brownian components.

    The built-in models are all scalar; this one makes a run take the
    stepping core's d > 1 paths: the Euclidean-norm taming of a cubic drift
    and the matrix noise term of a full 2x2 diffusion, whose columns are
    the current state and half the delayed state's distance to the mean.
    """
    beta3 = beta**3

    def neutral(y):
        return -beta * y

    def drift(x, y, mu):
        r2 = np.sum(x * x, axis=-1, keepdims=True)
        turn = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        return x - r2 * x + turn + beta * y - beta3 * (y * y * y) + mu.mean

    def diffusion(x, y, mu):
        return np.stack([x, 0.5 * (y - mu.mean)], axis=-1)

    def segment(t):
        return np.array([1.0 + t, -2.0 * t])

    return ModelSpec(
        name="planar_meanfield",
        state_dim=2,
        bm_dim=2,
        neutral=neutral,
        drift=drift,
        diffusion=diffusion,
        initial_segment=segment,
        contraction=beta,
        growth_power=2.0,
    )


@dataclass(frozen=True)
class MomentMonitor:
    value: float
    argmax_index: int


def moment_monitor(grid: ParticleGrid, p: int) -> MomentMonitor:
    """Largest sample p-th moment of the state norm over the whole grid.

    Returns the maximum of (1/particles) * sum_a |U_n^a|^p over grid indices
    n (initial-segment rows included) and where it occurs: the full-grid
    oracle of the :class:`~mvnsdde.scheme.MomentMax` record.
    """
    moments = sample_moments(grid.states, p)
    row = int(np.argmax(moments))
    return MomentMonitor(
        value=float(moments[row]), argmax_index=row - grid.delay_steps
    )
