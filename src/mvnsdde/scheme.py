"""Tamed explicit integrator for the interacting particle system.

One step advances every particle simultaneously from a frozen snapshot: the
empirical measure is built from the current states before any update, the
drift is tamed as a whole vector by one scalar denominator per particle, and
the neutral combination is unwound by adding back the neutral map of the
already-known lookback state, so no implicit solve ever occurs.  States are
stored time-major; grid index n runs from -delay_steps (start of the initial
segment) to total_steps.

A run is a :class:`~mvnsdde.model.Grid` and its ``(seed, particles)``
segments.  :func:`coupled_pass` runs a study's segments at one or more
grids in passes of one :class:`Stepper` per grid; it only steps, on the
Brownian blocks :func:`~mvnsdde.noise.stream_seeds` lays out.
:func:`simulate` and :func:`simulate_terminal` are a pass over one grid and
one segment, so the path follows from its seed, step and horizon.
A record keeps what a run keeps besides its delay window; the grid
:func:`simulate` returns is its :class:`ParticleGrid` record.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from ._g17 import BLOCK_VALUES, g17_texts
from .errors import GridError, OverflowAbort, ValidationFailure
from .measure import EmpiricalMeasure
from .model import Grid, ModelSpec, validate
from .noise import coarsen, seeds_per_block, stream_seeds

# A Divergence record counts a particle as diverged once its norm exceeds this.
DIVERGENCE_THRESHOLD = 1e10


def tame_drift(b_value: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """Divide a drift vector by 1 + delta^alpha * |drift|.

    The norm is the Euclidean norm of the whole vector (one shared scalar
    denominator), so the output is a nonnegative scalar multiple of the
    input with |output| <= min(delta^-alpha, |input|).  A 1-D input is one
    vector; a 2-D input is a batch of vectors tamed row by row.  A finite
    drift whose squared norm overflows is still capped at about
    delta^-alpha, never zeroed.
    """
    b = np.ascontiguousarray(b_value, dtype=np.float64)  # so reshapes are views
    scale = delta**alpha
    dim = b.shape[-1]
    if dim == 1:
        # equals sqrt(b * b) bit for bit wherever b * b neither overflows nor
        # underflows, and where it underflows the denominator is 1 either way
        denom = np.abs(b)
    else:
        axis = None if b.ndim == 1 else -1
        with np.errstate(over="ignore"):
            denom = np.linalg.norm(b, axis=axis, keepdims=True)
    denom *= scale
    denom += 1.0
    # a 1-D denominator has the drift's shape, so it takes the quotient
    tamed = np.divide(b, denom, out=denom if dim == 1 else None)
    if dim > 1:
        vectors, out = b.reshape(-1, dim), tamed.reshape(-1, dim)
        rows = np.isinf(denom.ravel()) & np.isfinite(vectors).all(axis=1)
        if rows.any():
            # the squared norm overflowed: divide through by the largest component
            big = vectors[rows]
            top = np.abs(big).max(axis=1, keepdims=True)
            unit = big / top
            unit_norm = np.linalg.norm(unit, axis=1, keepdims=True)
            out[rows] = unit / (1.0 / top + scale * unit_norm)
    return tamed


class ParticleGrid:
    """Piecewise-constant numerical solution on the full time grid: the
    record that keeps every row of a run, allocated at the first row.

    ``states`` are the rows recorded so far, shape (rows, particles,
    state_dim); row i holds grid index n = i - delay_steps, and rows for
    n <= 0 are the sampled initial segment.  After a finished run that is
    the whole grid; after an :class:`OverflowAbort` it is the finite prefix
    before the aborted step, whose row is never recorded.
    """

    def __init__(self, grid: Grid):
        self.grid, self.states = grid, None

    def __call__(self, row: np.ndarray, index: int) -> None:
        n0 = self.grid.delay_steps
        if self.states is None:
            self._rows = np.empty((n0 + self.grid.total_steps + 1, *row.shape))
        self._rows[index + n0] = row
        self.states = self._rows[: index + n0 + 1]

    @property
    def delay_steps(self) -> int:
        return self.grid.delay_steps

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def write_csv(self, fh) -> None:
        """Stream the CSV export to a text file handle, a block of time rows
        at a time.

        Header t,particle,comp*; particle ids are 1-based; every float is
        written as its %.17g text.  One write holds the whole time rows that
        fit in ``BLOCK_VALUES`` states, or one row when a row alone holds
        more.  The per-particle line tails are built once, so a block is one
        %-format of its states' texts.
        """
        _, particles, dim = self.states.shape
        header = "t,particle," + ",".join(f"comp{i}" for i in range(dim))
        fh.write(header + "\n")
        values = ",".join(["%s"] * dim)
        # the leading b"" makes t.join(pieces) put t before every tail
        pieces = [b""] + [
            f",{a + 1},{values}\n".encode() for a in range(particles)
        ]
        n0, delta = self.delay_steps, self.grid.delta
        rows = max(1, BLOCK_VALUES // max(1, particles * dim))
        for start in range(0, len(self.states), rows):
            block = self.states[start : start + rows]
            texts = tuple(g17_texts(block))
            template = b"".join(
                (b"%.17g" % ((start + i - n0) * delta)).join(pieces)
                for i in range(len(block))
            )
            text = template % texts
            del texts, template  # freed before decoding copies the text
            fh.write(text.decode())

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


def em_step(
    current: np.ndarray,
    delayed: np.ndarray,
    model: ModelSpec,
    grid: Grid,
    measure: EmpiricalMeasure,
    increments: np.ndarray,
    neutral: tuple[np.ndarray, np.ndarray],
    out: np.ndarray,
) -> np.ndarray:
    """Advance all particles one step from a frozen snapshot.

    ``current`` and ``delayed`` are the states at grid indices n and
    n - delay_steps; ``measure`` must be the empirical measure of
    ``current`` (frozen before any update); ``increments`` are the Brownian
    increments of the step, shape (particles, bm_dim); ``neutral`` is the
    neutral map of ``delayed`` and of the state at n + 1 - delay_steps; and
    ``out`` receives the new states (it must not be an input).
    """
    b = model.drift(current, delayed, measure)
    if grid.taming:
        drift_step = tame_drift(b, grid.delta, grid.alpha)
        drift_step *= grid.delta
    else:  # float64, as tame_drift makes it, so the noise term fits in it
        drift_step = np.multiply(b, grid.delta, dtype=np.float64)
    sigma = model.diffusion(current, delayed, measure)
    # neutral[1] + (current - neutral[0] + b_eff * delta + noise_term),
    # summed in that order; the noise term goes into the drift step's
    # array, which this step owns, once that is added
    new = np.subtract(current, neutral[0], out=out)
    new += drift_step
    if model.state_dim == 1 and model.bm_dim == 1:
        noise_term = np.multiply(sigma[..., 0], increments, out=drift_step)
    else:
        noise_term = np.einsum("pdm,pm->pd", sigma, increments, out=drift_step)
    new += noise_term
    return np.add(neutral[1], new, out=new)


def sample_moments(states: np.ndarray, p: int) -> np.ndarray:
    """Sample p-th moment of the state norm per time row, mean_a |U^a|^p."""
    return np.mean(np.linalg.norm(states, axis=-1) ** p, axis=-1)


class MomentMax:
    """Record of the largest :func:`sample_moments` value over a run's rows
    (``value``) and the first grid index where it occurs (``index``)."""

    def __init__(self, p: int):
        self.p, self.value, self.index = p, -np.inf, None

    def __call__(self, row: np.ndarray, index: int) -> None:
        value = float(sample_moments(row, self.p))
        if value > self.value:
            self.value, self.index = value, index


class Divergence:
    """Record of the particles whose stepped state ever went non-finite or
    exceeded :data:`DIVERGENCE_THRESHOLD` (``diverged``, a mask sized at the
    first row), and the first step where one did (``first_step``); its run
    steps on past non-finite rows."""

    def __init__(self):
        self.diverged = self.first_step = None

    def __call__(self, row: np.ndarray, index: int) -> None:
        if self.diverged is None:
            self.diverged = np.zeros(len(row), bool)
        if index > 0:  # the initial segment is given, not stepped
            # a nan or inf coordinate makes the norm nan or inf
            bad = ~(np.linalg.norm(row, axis=1) <= DIVERGENCE_THRESHOLD)
            if bad.any() and self.first_step is None:
                self.first_step = index
            self.diverged |= bad


class Stepper:
    """The one stepping loop: a resumable run fed blocks of increments, and
    its ``terminal`` once it has finished.

    A run is one ``grid`` and its ``segments``, ``(seed, particles)`` pairs:
    each is a segment of rows (``bounds``) of one state array, and one
    Python step advances them all.  The step's
    :class:`~mvnsdde.measure.EmpiricalMeasure` gives every row its own
    segment's mean, so each segment ends bit for bit where a run of its own
    would.  It neither validates nor converts: :func:`coupled_pass`
    validates every run it builds before the first and hands it int counts.

    States live in a ring of delay_steps + 2 rows (the current state and
    both lookbacks).  ``record(row, index)`` is called once for each row as
    it is finished, in grid index order: the initial segment's rows in the
    constructor, then each stepped row right after its finiteness check.
    The row is a view of the ring, so a record copies what it keeps
    (:class:`ParticleGrid`, :class:`MomentMax`, :class:`Divergence`).  The
    first non-finite row raises :class:`OverflowAbort`, naming its segment's
    seed and that segment's offending particles, before it is recorded; a
    run whose record is a :class:`Divergence` steps on past it.
    """

    def __init__(
        self, model: ModelSpec, grid: Grid, segments: Sequence[tuple[int, int]],
        record=None,
    ):
        self.model, self.grid, self.segments = model, grid, segments
        stops = list(accumulate(n for _, n in self.segments))
        self.bounds = tuple(zip([0] + stops[:-1], stops))
        self.particles = stops[-1]
        n0 = grid.delay_steps
        self._buf = np.empty((n0 + 2, self.particles, model.state_dim))
        self._record, self._aborts = record, not isinstance(record, Divergence)
        self.steps_done = 0
        for i in range(n0 + 1):
            self._buf[i] = np.asarray(model.initial_segment((i - n0) * grid.delta))
            if record is not None:
                record(self._buf[i], i - n0)
        self._neutral = model.neutral(self._buf[0])  # the first step's delayed row

    def advance(self, increments: np.ndarray) -> None:
        """Take one step per row of ``increments`` (steps, particles, bm_dim)."""
        n0, total = self.grid.delay_steps, self.grid.total_steps
        want = (self.particles, self.model.bm_dim)
        if increments.shape[1:] != want:
            raise GridError(f"increment rows {increments.shape[1:]}, run needs {want}")
        if self.steps_done + len(increments) > total:
            raise GridError(f"more than {total} steps of noise for this run")
        model, grid, bounds = self.model, self.grid, self.bounds
        buf, cap, record = self._buf, len(self._buf), self._record
        # the per-step isfinite check is the overflow detector; the float flags
        # the overflowing arithmetic raises on the way there are redundant noise
        with np.errstate(over="ignore", invalid="ignore"):
            for inc in increments:
                n = self.steps_done
                x, delayed = buf[(n + n0) % cap], buf[n % cap]
                # callbacks are pure: this step's neutral(delayed) is the last
                # step's neutral of the next delayed row
                neutral = self._neutral, model.neutral(buf[(n + 1) % cap])
                new = em_step(
                    x, delayed, model, grid, EmpiricalMeasure(x, bounds), inc,
                    neutral, buf[(n + 1 + n0) % cap],
                )
                self._neutral = neutral[1]
                self.steps_done = n + 1
                if self._aborts and not np.isfinite(new).all():
                    self._abort(new, n + 1)
                if record is not None:
                    record(new, n + 1)

    def _abort(self, new: np.ndarray, step: int):
        """Raise :class:`OverflowAbort` for the first segment with a bad row."""
        bad = np.flatnonzero(~np.isfinite(new).all(axis=1))
        k = bisect_right([stop for _, stop in self.bounds], bad[0])
        start, stop = self.bounds[k]
        raise OverflowAbort(
            step=step, particles=bad[bad < stop] - start, seed=self.segments[k][0],
            delta=self.grid.delta,
        )

    @property
    def terminal(self) -> np.ndarray:
        """States at the horizon, (particles, state_dim), once the run is done."""
        n0, total = self.grid.delay_steps, self.grid.total_steps
        if self.steps_done != total:
            raise GridError(f"run stopped at step {self.steps_done} of {total}")
        return self._buf[(total + n0) % len(self._buf)]


def coupled_pass(
    model: ModelSpec, segments: Sequence[tuple[int, int]], grids: Sequence[Grid],
    records=None,
) -> list[np.ndarray]:
    """Run a study's ``segments`` at every ``grids`` entry on their seeds'
    streamed Brownian paths, each grid with its record from ``records``;
    return each grid's terminal states, the segments' rows in order.

    One :func:`~mvnsdde.model.validate` call judges the whole study before
    anything is drawn or recorded, so every grid's step count divides the
    first grid's by a power of two, its factor; then the judged segments
    (a count of 2.0 among them) become ints, the one conversion.  Segments
    run in passes of at most :func:`~mvnsdde.noise.seeds_per_block` seeds
    (one pass given ``records``), one :class:`Stepper` per grid, on the blocks
    :func:`~mvnsdde.noise.stream_seeds` lays out at the first grid's step,
    a multiple of every factor long, so each run sees
    :func:`~mvnsdde.noise.coarsen`'s sums of the path.
    """
    if violations := validate(model, grids, segments):
        raise ValidationFailure(violations)
    segments = [(int(seed), int(n)) for seed, n in segments]  # judged whole
    whole = records is not None  # a record keeps one run's rows: one pass
    records = records if whole else [None] * len(grids)
    pairs = list(zip(grids, records, strict=True))
    fine = grids[0]
    factors = [fine.total_steps // grid.total_steps for grid in grids]
    size = seeds_per_block(max(n for _, n in segments), model.bm_dim, max(factors))
    passes = [[]]
    for seed, n in segments:
        held = {s for s, _ in passes[-1]}
        if not whole and seed not in held and len(held) == size:
            passes.append([])
        passes[-1].append((seed, n))
    rows = sum(n for _, n in segments)
    path = model.bm_dim, fine.delta, fine.horizon, max(factors)
    terminals = [np.empty((rows, model.state_dim)) for _ in grids]
    start = 0
    for part in passes:
        runs = [Stepper(model, grid, part, record) for grid, record in pairs]
        for block in stream_seeds(part, *path):
            for run, factor in zip(runs, factors):
                run.advance(coarsen(block, factor))
            del block  # free it before the next block is gathered
        # copied: a run's terminal is a view that would keep its ring alive
        for terminal, run in zip(terminals, runs):
            terminal[start : start + run.particles] = run.terminal
        start += runs[0].particles
    return terminals


def simulate(model: ModelSpec, grid: Grid, seed: int, particles: int) -> ParticleGrid:
    """Run one system on the path of ``seed`` at ``grid``; return the
    :class:`ParticleGrid` that recorded every row.

    Raises :class:`ValidationFailure` when the configuration violates the
    structural conditions, and :class:`OverflowAbort` when a state goes
    non-finite; its ``prefix`` is then that grid: the rows before that step.
    """
    rows = ParticleGrid(grid)
    try:
        coupled_pass(model, [(seed, particles)], [grid], [rows])
    except OverflowAbort as abort:
        abort.prefix = rows
        raise
    return rows


def simulate_terminal(model: ModelSpec, grid: Grid, seed: int, particles: int):
    """Run the scheme keeping only a delay ring buffer; return the states at
    the horizon, bit-identical to the ``terminal`` of :func:`simulate`."""
    return coupled_pass(model, [(seed, particles)], [grid])[0]
