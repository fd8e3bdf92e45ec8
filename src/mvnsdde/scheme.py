"""Tamed explicit integrator for the interacting particle system.

One step advances every particle simultaneously from a frozen snapshot: the
empirical measure is built from the current states before any update, the
drift is tamed as a whole vector by one scalar denominator per particle, and
the neutral combination is unwound by adding back the neutral map of the
already-known lookback state, so no implicit solve ever occurs.  States are
stored time-major; grid index n runs from -delay_steps (start of the initial
segment) to total_steps.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import GridError, OverflowAbort, ValidationFailure
from .measure import EmpiricalMeasure
from .model import ModelSpec, SchemeParams, validate
from .noise import BrownianGrid


def tame_drift(b_value: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """Divide a drift vector by 1 + delta^alpha * |drift|.

    The norm is the Euclidean norm of the whole vector (one shared scalar
    denominator), so the output is a nonnegative scalar multiple of the
    input with |output| <= min(delta^-alpha, |input|).  A 1-D input is one
    vector; a 2-D input is a batch of vectors tamed row by row.
    """
    b = np.asarray(b_value, dtype=np.float64)
    if b.ndim == 1:
        denom = 1.0 + delta**alpha * np.linalg.norm(b)
    else:
        denom = 1.0 + delta**alpha * np.linalg.norm(b, axis=-1, keepdims=True)
    return b / denom


@dataclass(frozen=True)
class ParticleGrid:
    """Piecewise-constant numerical solution on the full time grid.

    ``states`` has shape (delay_steps + total_steps + 1, particles,
    state_dim); row i holds grid index n = i - delay_steps.  Rows for
    n <= 0 are the sampled initial segment.
    """

    states: np.ndarray
    params: SchemeParams
    model_name: str

    @property
    def particles(self) -> int:
        return self.states.shape[1]

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]

    @property
    def delay_steps(self) -> int:
        return self.params.delay_steps

    @property
    def total_steps(self) -> int:
        return self.states.shape[0] - self.params.delay_steps - 1

    def _row(self, index: int) -> int:
        row = index + self.delay_steps
        if not 0 <= row < self.states.shape[0]:
            raise IndexError(
                f"grid index {index} outside [{-self.delay_steps}, "
                f"{self.total_steps}]"
            )
        return row

    def column(self, index: int) -> np.ndarray:
        """All particle states at grid index ``index`` (particles, dim)."""
        return self.states[self._row(index)]

    def state(self, particle: int, index: int) -> np.ndarray:
        return self.states[self._row(index), particle]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def times(self) -> np.ndarray:
        n0 = self.delay_steps
        return np.arange(-n0, self.total_steps + 1) * self.params.delta

    def write_csv(self, fh) -> None:
        """Stream the CSV export to a text file handle, one time row at a time.

        Header t,particle,comp*; particle ids are 1-based; every float is
        formatted with %.17g.  The per-particle line tails are built once,
        so each time row is one %-format of all its states.
        """
        dim = self.state_dim
        header = "t,particle," + ",".join(f"comp{i}" for i in range(dim))
        fh.write(header + "\n")
        values = ",".join(["%.17g"] * dim)
        # the leading "" makes t.join(pieces) put t before every tail
        pieces = [""] + [f",{a + 1},{values}\n" for a in range(self.particles)]
        n0 = self.delay_steps
        for row_i, row in enumerate(self.states):
            t = f"{(row_i - n0) * self.params.delta:.17g}"
            fh.write(t.join(pieces) % tuple(row.ravel().tolist()))

    def csv_text(self) -> str:
        """The CSV export of :meth:`write_csv` as one string."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


def delayed_state(grid: ParticleGrid, particle: int, index: int):
    """Current state and the state delay_steps back for one particle.

    For index < delay_steps the lookback lands in the initial segment.
    """
    if index < 0:
        raise IndexError(f"delayed_state needs index >= 0, got {index}")
    return (
        grid.state(particle, index),
        grid.state(particle, index - grid.delay_steps),
    )


def em_step(
    current: np.ndarray,
    delayed: np.ndarray,
    delayed_next: np.ndarray,
    model: ModelSpec,
    params: SchemeParams,
    measure: EmpiricalMeasure,
    increments: np.ndarray,
) -> np.ndarray:
    """Advance all particles one step from a frozen snapshot.

    ``current``, ``delayed``, ``delayed_next`` are the states at grid
    indices n, n - delay_steps, n + 1 - delay_steps; ``measure`` must be the
    empirical measure of ``current`` (frozen before any update); and
    ``increments`` are the Brownian increments of the step, shape
    (particles, bm_dim).
    """
    b = model.drift(current, delayed, measure)
    if params.taming_enabled:
        b_eff = tame_drift(b, params.delta, params.alpha)
    else:
        b_eff = b
    sigma = model.diffusion(current, delayed, measure)
    if model.state_dim == 1 and model.bm_dim == 1:
        noise_term = sigma[..., 0] * increments
    else:
        noise_term = np.einsum("pdm,pm->pd", sigma, increments)
    return model.neutral(delayed_next) + (
        current - model.neutral(delayed) + b_eff * params.delta + noise_term
    )


def _check_noise(model: ModelSpec, params: SchemeParams, noise: BrownianGrid):
    if not np.isclose(noise.delta_base, params.delta, rtol=1e-12, atol=0.0):
        raise GridError(
            f"noise step {noise.delta_base!r} != scheme step {params.delta!r}"
        )
    if noise.particles != params.particles:
        raise GridError(
            f"noise carries {noise.particles} particles, scheme needs "
            f"{params.particles}"
        )
    if noise.bm_dim != model.bm_dim:
        raise GridError(
            f"noise dimension {noise.bm_dim} != model Brownian dimension "
            f"{model.bm_dim}"
        )
    if noise.steps != params.total_steps:
        raise GridError(
            f"noise has {noise.steps} steps, scheme needs {params.total_steps}"
        )


def _segment_rows(model: ModelSpec, params: SchemeParams) -> np.ndarray:
    n0 = params.delay_steps
    rows = np.empty((n0 + 1, params.particles, model.state_dim))
    for i in range(n0 + 1):
        rows[i] = np.asarray(model.initial_segment((i - n0) * params.delta))
    return rows


def simulate(
    model: ModelSpec,
    params: SchemeParams,
    noise: BrownianGrid,
    check: bool = True,
) -> ParticleGrid:
    """Run the scheme with full state storage.

    Raises :class:`ValidationFailure` when the configuration violates the
    structural conditions, :class:`GridError` on noise/scheme mismatch, and
    :class:`OverflowAbort` (carrying the last finite prefix) when a state
    goes non-finite.
    """
    if check:
        report = validate(model, params)
        if not report.ok:
            raise ValidationFailure(report.violations)
    _check_noise(model, params, noise)

    n0 = params.delay_steps
    n_steps = params.total_steps
    states = np.empty((n0 + n_steps + 1, params.particles, model.state_dim))
    states[: n0 + 1] = _segment_rows(model, params)

    # the per-step isfinite check is the overflow detector; the float flags
    # the overflowing arithmetic raises on the way there are redundant noise
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            mu = EmpiricalMeasure(states[n + n0])
            new = em_step(
                states[n + n0],
                states[n],
                states[n + 1],
                model,
                params,
                mu,
                noise.step_slice(n),
            )
            states[n + 1 + n0] = new
            if not np.isfinite(new).all():
                bad = np.where(~np.isfinite(new).all(axis=1))[0]
                prefix = ParticleGrid(
                    states=states[: n + 1 + n0].copy(),
                    params=params,
                    model_name=model.name,
                )
                raise OverflowAbort(step=n + 1, particles=bad, prefix=prefix)

    return ParticleGrid(states=states, params=params, model_name=model.name)


@dataclass(frozen=True)
class TerminalRun:
    """Terminal states of a ring-buffer run, plus divergence bookkeeping."""

    terminal: np.ndarray
    diverged: np.ndarray | None = None
    first_divergence_step: int | None = None

    @property
    def divergence_fraction(self) -> float:
        if self.diverged is None:
            return 0.0
        return float(self.diverged.mean())


def simulate_terminal(
    model: ModelSpec,
    params: SchemeParams,
    noise: BrownianGrid,
    check: bool = True,
    track_divergence: bool = False,
    divergence_threshold: float = 1e10,
) -> TerminalRun:
    """Run the scheme keeping only a delay ring buffer; return U(T).

    Produces bit-identical terminal states to :func:`simulate`.  With
    ``track_divergence`` the run continues through non-finite states
    (expected for untamed demonstrations) and reports which particles ever
    exceeded the threshold or went non-finite, instead of raising.
    """
    if check:
        report = validate(model, params)
        if not report.ok:
            raise ValidationFailure(report.violations)
    _check_noise(model, params, noise)

    n0 = params.delay_steps
    n_steps = params.total_steps
    cap = n0 + 2
    buf = np.empty((cap, params.particles, model.state_dim))
    for i in range(n0 + 1):
        buf[i % cap] = np.asarray(model.initial_segment((i - n0) * params.delta))

    diverged = np.zeros(params.particles, dtype=bool)
    first_bad: int | None = None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            x = buf[(n + n0) % cap]
            mu = EmpiricalMeasure(x)
            new = em_step(
                x,
                buf[n % cap],
                buf[(n + 1) % cap],
                model,
                params,
                mu,
                noise.step_slice(n),
            )
            buf[(n + 1 + n0) % cap] = new
            if track_divergence:
                bad = ~np.isfinite(new).all(axis=1) | (
                    np.linalg.norm(new, axis=1) > divergence_threshold
                )
                if bad.any() and first_bad is None:
                    first_bad = n + 1
                diverged |= bad
            elif not np.isfinite(new).all():
                bad = np.where(~np.isfinite(new).all(axis=1))[0]
                raise OverflowAbort(step=n + 1, particles=bad, prefix=None)

    terminal = buf[(n_steps + n0) % cap].copy()
    return TerminalRun(
        terminal=terminal,
        diverged=diverged if track_divergence else None,
        first_divergence_step=first_bad,
    )
