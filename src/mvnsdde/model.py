"""Coefficient interface, built-in models, and structural validation.

A model bundles the neutral map, drift, diffusion, and initial segment of a
mean-field neutral delay equation together with the two constants the
validation layer needs: the contraction modulus of the neutral map and the
polynomial growth power of the drift.  Coefficient callbacks are vectorized:
state arguments arrive as (batch, state_dim) arrays, the diffusion returns
(batch, state_dim, bm_dim), and the measure argument is shared by the whole
step and caches its functionals (currently the mean).

A batch may hold several particle systems, each a segment of rows (the
replicate seeds and particle counts of one study).  The integrator passes a
:class:`~mvnsdde.measure.EmpiricalMeasure`: ``mu.points`` is the whole batch,
and ``mu.mean`` broadcasts by row, with shape (batch, state_dim), row i
holding the mean of particle i's own system.  Callbacks must therefore use
the measure's functionals row by row and never reduce over the batch
themselves, so a call on several systems equals the calls on each system
alone, bit for bit.  Callbacks must be pure: the integrator computes
``neutral(y)`` for a lookback row once and reuses it at the next step.
"""

from __future__ import annotations

import inspect
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .errors import ConfigError, GridError
from .measure import EmpiricalMeasure
from .noise import check_seed, derived_generator, is_integer_ratio, is_whole

_PROBE_TAG = 0xA55E55  # validation probe stream, disjoint from particle keys
_PROBE_PAIRS = 1000
_PROBE_BOX = 10.0
_PROBE_SLACK = 1e-9

# The most delay steps (tau/delta) a grid may have: validate probes the
# initial segment at each of them, and a run keeps them all in its ring.
MAX_DELAY_STEPS = 2**20

# The error-exponent window q <= p / (2 (c + 1)) at the strong error's q = 2
# and the initial segment's moment order p = 12 (every built-in segment is
# deterministic, so it has every moment): the drift's growth power c <= 2.
MAX_GROWTH_POWER = 2.0


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and metadata of one equation."""

    name: str
    state_dim: int
    bm_dim: int
    neutral: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray, np.ndarray, EmpiricalMeasure], np.ndarray]
    diffusion: Callable[[np.ndarray, np.ndarray, EmpiricalMeasure], np.ndarray]
    initial_segment: Callable[[float], np.ndarray]
    contraction: float
    growth_power: float


@dataclass(frozen=True)
class Grid:
    """Time grid and scheme switches of one run, shared by all its segments.

    ``delay_steps`` and ``total_steps`` are rounded ratios; ``validate``
    reports when the ratios are not integers.
    """

    delta: float
    tau: float
    alpha: float
    horizon: float
    taming: bool = True

    @property
    def delay_steps(self) -> int:
        return int(round(self.tau / self.delta))

    @property
    def total_steps(self) -> int:
        return int(round(self.horizon / self.delta))


def _same_bits(a: np.ndarray, b) -> bool:
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _probe(model: ModelSpec) -> list[str]:
    """The violations :func:`validate` finds by calling the callbacks of a
    ``model`` whose fields have the right types."""
    v = []
    zero = np.zeros((1, model.state_dim))
    try:
        d0 = np.asarray(model.neutral(zero))
        if not np.allclose(d0, 0.0, atol=1e-12):
            v.append(f"neutral map at zero is {d0.ravel()}, expected 0")
    except Exception as exc:  # report, do not crash the validator
        v.append(f"neutral map failed at zero: {exc!r}")

    rng = derived_generator(0, _PROBE_TAG)
    y1 = rng.uniform(-_PROBE_BOX, _PROBE_BOX, (_PROBE_PAIRS, model.state_dim))
    y2 = rng.uniform(-_PROBE_BOX, _PROBE_BOX, (_PROBE_PAIRS, model.state_dim))
    lam = model.contraction
    try:
        gap = np.linalg.norm(model.neutral(y1) - model.neutral(y2), axis=1)
        bound = lam * np.linalg.norm(y1 - y2, axis=1) + _PROBE_SLACK
        bad = int(np.sum(gap > bound))
        if bad:
            v.append(
                f"neutral map violates the stated contraction modulus "
                f"{lam} on {bad}/{_PROBE_PAIRS} probe pairs"
            )
    except Exception as exc:
        v.append(f"neutral map probe failed: {exc!r}")

    # each callback on a probe batch of two one-row systems, then again, bit
    # for bit: neutral on the same batch, drift and diffusion on each system
    x, y = rng.uniform(-_PROBE_BOX, _PROBE_BOX, (2, 2, model.state_dim))
    mu = EmpiricalMeasure(x, ((0, 1), (1, 2)))
    alone = [
        (x[k : k + 1], y[k : k + 1], EmpiricalMeasure(x[k : k + 1], ((0, 1),)))
        for k in (0, 1)
    ]
    state = (2, model.state_dim)
    pure = "is not pure: a second call on the probe batch gave other bits"
    split = (
        "is not batch independent: on the probe batch of two systems it gave "
        "other bits than on each system alone"
    )
    for name, call, shape, again, fault in (
        ("neutral", lambda x, y, mu: model.neutral(y), state, [(x, y, mu)], pure),
        ("drift", model.drift, state, alone, split),
        ("diffusion", model.diffusion, state + (model.bm_dim,), alone, split),
    ):
        try:
            out = call(x, y, mu)
            outs = [call(*args) for args in again]
        except Exception as exc:
            v.append(f"{name} failed on the probe batch: {exc!r}")
            continue
        if not isinstance(out, np.ndarray):
            got = f"a {type(out).__name__}"
        elif out.dtype.kind != "f" or out.shape != shape:
            got = f"a {out.dtype} array of shape {out.shape}"
        else:
            if not all(map(_same_bits, np.split(out, len(outs)), outs)):
                v.append(f"{name} {fault}")
            continue
        v.append(
            f"{name} returned {got} on the probe batch, expected a float "
            f"array of shape {shape}"
        )
    return v


def validate(
    model: ModelSpec, grids: Sequence[Grid], segments: Sequence[tuple[int, int]]
) -> list[str]:
    """Every violated structural condition of a study, an empty list when
    it may start; never raises.

    A study is the :class:`Grid` values one pass runs on one path and their
    ``(seed, particles)`` segments.  The shapes and the fields come first:
    ``grids`` a non-empty sequence of Grid values, ``segments`` a non-empty
    sequence, ``state_dim`` and ``bm_dim`` integers >= 1 (not bools),
    ``contraction``, ``growth_power`` and each grid's ``delta``, ``tau``,
    ``alpha`` and ``horizon`` real numbers (not bools), and ``taming`` a bool.  A
    mistyped field ends the report: those violations are all it lists.
    Otherwise the model is checked once: the contraction modulus, the growth
    power (at most ``MAX_GROWTH_POWER``, the error-exponent window), the
    neutral map probes (zero at zero, contractivity on pairs drawn from one
    fixed stream, so every seed gets the same verdict) and the callbacks on
    a probe batch of two one-row systems from that stream (float arrays of
    shape (2, state_dim), and (2, state_dim, bm_dim) from ``diffusion``;
    ``neutral`` pure; ``drift`` and ``diffusion`` giving each system the
    bits of a call on it alone).  Then each grid (integrality of tau/delta
    and horizon/delta, the step/exponent ranges, the initial segment: a
    finite array of shape (state_dim,) at each grid point) and,
    if all pass, the pass rules: the first grid's horizon, and a step count
    that divides the first's by a power of two.  Then each segment: a
    ``(seed, particles)`` pair of integers.  Each violation is listed once.
    """
    v = []
    if not isinstance(segments, Sequence):
        v.append(f"a run's segments must be a sequence, got {segments!r}")
    elif not segments:
        v.append("a run needs at least one segment")
    if not isinstance(grids, Sequence) or not all(isinstance(g, Grid) for g in grids):
        v.append(f"a pass's grids must be a sequence of Grid values, got {grids!r}")
        grids = ()
    elif not grids:
        v.append("a pass needs at least one grid")
    for name in ("state_dim", "bm_dim"):
        value = getattr(model, name)
        if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
            v.append(f"{name} must be an integer >= 1, got {value!r}")
    fields = [(model, "contraction"), (model, "growth_power")]
    for grid in grids:
        fields += [(grid, name) for name in ("delta", "tau", "alpha", "horizon")]
        if not isinstance(grid.taming, bool):
            v.append(f"taming must be a bool, got {grid.taming!r}")
    for owner, name in fields:
        value = getattr(owner, name)
        if not isinstance(value, Real) or isinstance(value, bool):
            v.append(f"{name} must be a real number, got {value!r}")
    if v:
        return list(dict.fromkeys(v))

    lam = model.contraction
    if not 0.0 < lam < 1.0:
        v.append(f"contraction modulus must lie in (0, 1), got {lam}")
    if not 0 <= model.growth_power <= MAX_GROWTH_POWER:
        v.append(
            f"growth power must lie in [0, {MAX_GROWTH_POWER:g}] (the window "
            f"q <= p/(2(c+1)) at q = 2, p = 12), got {model.growth_power}"
        )
    v += _probe(model)

    checked = len(v)
    for grid in grids:
        if not grid.tau > 0:  # also true for nan
            v.append(f"tau must be positive, got {grid.tau}")
        if not 0.0 < grid.delta < min(1.0, grid.tau):
            v.append(
                f"delta must lie in (0, min(1, tau)) = "
                f"(0, {min(1.0, grid.tau)}), got {grid.delta}"
            )
        delay = grid.tau / grid.delta if grid.delta > 0 else 0.0
        if delay > 0 and not is_integer_ratio(grid.tau, grid.delta):
            v.append(f"tau/delta = {delay!r} is not a positive integer")
        elif delay > MAX_DELAY_STEPS:
            cap = f"the cap of {MAX_DELAY_STEPS} steps"
            v.append(f"tau/delta = {delay!r} exceeds {cap}")
        if not 0.0 < grid.alpha <= 0.5:
            v.append(f"alpha must lie in (0, 1/2], got {grid.alpha}")
        if not grid.horizon > 0:
            v.append(f"horizon must be positive, got {grid.horizon}")
        elif grid.delta > 0 and not is_integer_ratio(grid.horizon, grid.delta):
            v.append(
                f"horizon/delta = {grid.horizon / grid.delta!r} is not a "
                "positive integer"
            )

        # probe the initial segment at its grid points, if at most the cap of them
        if 0 < delay <= MAX_DELAY_STEPS:
            n0 = grid.delay_steps
            try:
                for n in range(-n0, 1):
                    val = np.asarray(model.initial_segment(n * grid.delta))
                    if val.shape != (model.state_dim,):
                        v.append(
                            f"initial segment at t = {n * grid.delta} has shape "
                            f"{val.shape}, expected ({model.state_dim},)"
                        )
                        break
                    if not np.isfinite(val.astype(float)).all():  # as a run reads it
                        t = n * grid.delta
                        v.append(f"initial segment at t = {t} is {val}, not finite")
                        break
            except Exception as exc:
                v.append(f"initial segment not evaluable on [-tau, 0]: {exc!r}")

    if grids and len(v) == checked:  # every step count is a positive integer
        fine = grids[0]
        for grid in grids[1:]:
            factor, rest = divmod(fine.total_steps, grid.total_steps)
            if grid.horizon != fine.horizon:
                v.append(f"horizon {grid.horizon} is not {fine.horizon}")
            elif rest or factor & (factor - 1):
                v.append(f"delta {grid.delta} is not {fine.delta} times a power of two")

    for segment in segments:
        try:
            seed, particles = segment
        except (TypeError, ValueError):
            v.append(f"a segment must be a (seed, particles) pair, got {segment!r}")
            continue
        try:
            check_seed(seed)
        except GridError as exc:
            v.append(str(exc))
        if not is_whole(particles):
            v.append(f"particles must be an integer, got {particles}")
        elif particles < 1:
            v.append(f"particles must be >= 1, got {particles}")
    return list(dict.fromkeys(v))


# The neutral coefficient of the cubic models: D(y) = -BETA * y.
BETA = 0.5
_BETA3 = BETA**3


def _cubic_neutral(y):
    return -BETA * y


def _cubic_drift(x, y):
    """x - x*x*x + BETA*y - _BETA3*(y*y*y), the same operations in the same
    order, built in two arrays it allocates."""
    out = x * x
    out *= x
    np.subtract(x, out, out=out)
    term = np.multiply(BETA, y)
    out += term
    np.multiply(y, y, out=term)
    term *= y
    term *= _BETA3
    out -= term
    return out


def _cubic_diffusion(x, y, mu):
    out = np.multiply(BETA, y)
    np.add(x, out, out=out)
    return out[..., None]


def _refuse_non_finite(**params) -> None:
    """A :class:`ConfigError` naming the first of a factory's float
    parameters that is not a finite real number: True is refused, not read
    as 1, and nan or inf, not stepped into an overflow."""
    for key, value in params.items():
        if isinstance(value, (bool, np.bool_)):
            raise ConfigError(f"{key} must be a number, got the bool {value!r}")
        if not (isinstance(value, Real) and -np.inf < value < np.inf):
            raise ConfigError(f"{key} must be a finite real number, got {value!r}")


def _cubic_model(name, drift, segment) -> ModelSpec:
    return ModelSpec(
        name=name,
        state_dim=1,
        bm_dim=1,
        neutral=_cubic_neutral,
        drift=drift,
        diffusion=_cubic_diffusion,
        initial_segment=segment,
        contraction=BETA,
        growth_power=2.0,
    )


def example51() -> ModelSpec:
    """Scalar cubic mean-field model with neutral delay coupling.

    Differences the combination state + BETA * delayed state; the drift adds
    the mean of the current law to a dissipative cubic, and the diffusion is
    linear in the current and delayed state.  The initial segment is the
    identity path t -> t.  Spells out the standing assumptions with
    contraction BETA and cubic growth (power 2).
    """

    def drift(x, y, mu):
        out = _cubic_drift(x, y)
        out += mu.mean
        return out

    return _cubic_model("example51", drift, lambda t: np.array([t]))


def linear_meanfield(
    a_coef: float = -1.0,
    b_coef: float = 0.5,
    sigma0: float = 0.2,
    x0: float = 0.0,
) -> ModelSpec:
    """Linear model with additive noise and a closed-form mean.

    No neutral term, the delay argument is ignored, and the mean satisfies
    m'(t) = (a_coef + b_coef) m(t) with m(0) = x0, so it is
    x0 * exp((a_coef + b_coef) t).
    """
    _refuse_non_finite(a_coef=a_coef, b_coef=b_coef, sigma0=sigma0, x0=x0)

    def neutral(y):
        return np.zeros_like(y)

    def drift(x, y, mu):
        return a_coef * x + b_coef * mu.mean

    def diffusion(x, y, mu):
        return np.full(x.shape + (1,), sigma0)

    def segment(t):
        return np.array([x0])

    return ModelSpec(
        name="linear_meanfield",
        state_dim=1,
        bm_dim=1,
        neutral=neutral,
        drift=drift,
        diffusion=diffusion,
        initial_segment=segment,
        contraction=0.5,
        growth_power=0.0,
    )


def cubic_no_mf(x0: float = 0.0) -> ModelSpec:
    """Cubic model without the mean term, from a constant initial segment.

    Particles never interact, which makes it the control case for chaos
    studies and the drift for taming demonstrations: from |x0| >= 3 the
    untamed update overshoots super-exponentially at coarse steps.
    """
    _refuse_non_finite(x0=x0)

    def drift(x, y, mu):
        return _cubic_drift(x, y)

    return _cubic_model("cubic_no_mf", drift, lambda t: np.array([x0]))


# Each built-in model's factory by CLI name.
MODELS = {f.__name__: f for f in (example51, linear_meanfield, cubic_no_mf)}


def model_keys(name: str) -> tuple[str, ...]:
    """The config keys model ``name`` takes: its factory's parameters."""
    return tuple(inspect.signature(MODELS[name]).parameters)


def build_model(name: str, **keys) -> ModelSpec:
    """Construct a built-in model by CLI name from the keys it takes
    (``model_keys``); a key left out takes the factory's default."""
    if name not in MODELS:
        raise ConfigError(
            f"unknown model {name!r}; valid models: {', '.join(MODELS)}"
        )
    return MODELS[name](**keys)
