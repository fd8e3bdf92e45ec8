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

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, GridError
from .measure import EmpiricalMeasure
from .noise import check_seed, derived_generator, is_integer_ratio

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
class SchemeParams:
    """Time grid, particle count, and scheme switches for one run.

    ``delay_steps`` and ``total_steps`` are rounded ratios; ``validate``
    reports when the ratios are not integers.
    """

    delta: float
    tau: float
    alpha: float
    particles: int
    horizon: float
    seed: int
    taming: bool = True

    @property
    def delay_steps(self) -> int:
        return int(round(self.tau / self.delta))

    @property
    def total_steps(self) -> int:
        return int(round(self.horizon / self.delta))


def validate(
    model: ModelSpec, params: SchemeParams | Sequence[SchemeParams]
) -> list[str]:
    """Every violated structural condition of one run, an empty list when
    the run may start; never raises.

    ``params`` is the run's one :class:`SchemeParams` or its segments, which
    may differ only in ``seed`` and ``particles``.  The model and the grid
    are checked once: the contraction modulus, the growth power (at most
    ``MAX_GROWTH_POWER``, the error-exponent window), the neutral map probes
    (zero at zero, contractivity on pairs drawn from one fixed stream, so
    every seed gets the same verdict), the shapes of ``neutral``, ``drift``
    and ``diffusion`` on a two-row probe batch from that stream (float
    arrays of (2, state_dim), (2, state_dim) and (2, state_dim, bm_dim)),
    grid integrality (tau/delta and horizon/delta) and the step/exponent
    ranges.  Then each segment's seed and particle count; a violation
    several segments share is listed once.
    """
    segments = (params,) if isinstance(params, SchemeParams) else tuple(params)
    if not segments:
        return ["a run needs at least one segment"]
    params = segments[0]  # the grid every segment must share
    v = []

    lam = model.contraction
    if not 0.0 < lam < 1.0:
        v.append(f"contraction modulus must lie in (0, 1), got {lam}")
    if not 0 <= model.growth_power <= MAX_GROWTH_POWER:
        v.append(
            f"growth power must lie in [0, {MAX_GROWTH_POWER:g}] (the window "
            f"q <= p/(2(c+1)) at q = 2, p = 12), got {model.growth_power}"
        )

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

    # each callback once on a probe batch of two one-row systems
    x, y = rng.uniform(-_PROBE_BOX, _PROBE_BOX, (2, 2, model.state_dim))
    mu = EmpiricalMeasure(x, ((0, 1), (1, 2)))
    state = (2, model.state_dim)
    for name, call, shape in (
        ("neutral", lambda: model.neutral(y), state),
        ("drift", lambda: model.drift(x, y, mu), state),
        ("diffusion", lambda: model.diffusion(x, y, mu), state + (model.bm_dim,)),
    ):
        try:
            out = call()
        except Exception as exc:
            v.append(f"{name} failed on the probe batch: {exc!r}")
            continue
        if not isinstance(out, np.ndarray):
            got = f"a {type(out).__name__}"
        elif out.dtype.kind != "f" or out.shape != shape:
            got = f"a {out.dtype} array of shape {out.shape}"
        else:
            continue
        v.append(
            f"{name} returned {got} on the probe batch, expected a float "
            f"array of shape {shape}"
        )

    if params.tau <= 0:
        v.append(f"tau must be positive, got {params.tau}")
    if not 0.0 < params.delta < min(1.0, params.tau):
        v.append(
            f"delta must lie in (0, min(1, tau)) = "
            f"(0, {min(1.0, params.tau)}), got {params.delta}"
        )
    delay = params.tau / params.delta if params.delta > 0 else 0.0
    if params.delta > 0 and params.tau > 0 and not is_integer_ratio(
        params.tau, params.delta
    ):
        v.append(f"tau/delta = {delay!r} is not a positive integer")
    elif delay > MAX_DELAY_STEPS:
        v.append(f"tau/delta = {delay!r} exceeds the cap of {MAX_DELAY_STEPS} steps")
    if not 0.0 < params.alpha <= 0.5:
        v.append(f"alpha must lie in (0, 1/2], got {params.alpha}")
    if params.horizon <= 0:
        v.append(f"horizon must be positive, got {params.horizon}")
    elif params.delta > 0 and not is_integer_ratio(params.horizon, params.delta):
        v.append(
            f"horizon/delta = {params.horizon / params.delta!r} is not a positive "
            "integer"
        )

    # probe the initial segment at its grid points, if at most the cap of them
    if 0 < delay <= MAX_DELAY_STEPS:
        n0 = params.delay_steps
        try:
            for n in range(-n0, 1):
                val = np.asarray(model.initial_segment(n * params.delta))
                if val.shape != (model.state_dim,):
                    v.append(
                        f"initial segment at t = {n * params.delta} has shape "
                        f"{val.shape}, expected ({model.state_dim},)"
                    )
                    break
        except Exception as exc:
            v.append(f"initial segment not evaluable on [-tau, 0]: {exc!r}")

    for seg in segments:
        if replace(seg, seed=params.seed, particles=params.particles) != params:
            v.append("the segments of one run may differ only in seed and particles")
        try:
            check_seed(seg.seed)
        except GridError as exc:
            v.append(str(exc))
        if seg.particles < 1:
            v.append(f"particles must be >= 1, got {seg.particles}")
    return list(dict.fromkeys(v))


# The neutral coefficient of the cubic models: D(y) = -BETA * y.
BETA = 0.5
_BETA3 = BETA**3


def _cubic_neutral(y):
    return -BETA * y


def _cubic_drift(x, y):
    return x - x * x * x + BETA * y - _BETA3 * (y * y * y)


def _cubic_diffusion(x, y, mu):
    return (x + BETA * y)[..., None]


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
        return _cubic_drift(x, y) + mu.mean

    return _cubic_model("example51", drift, lambda t: np.array([t]))


def linear_meanfield(
    a_coef: float = -1.0,
    b_coef: float = 0.5,
    sigma0: float = 0.2,
    x0: float = 1.0,
) -> ModelSpec:
    """Linear model with additive noise and a closed-form mean.

    No neutral term, the delay argument is ignored, and the mean satisfies
    m'(t) = (a_coef + b_coef) m(t) with m(0) = x0, so it is
    x0 * exp((a_coef + b_coef) t).
    """

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

    def drift(x, y, mu):
        return _cubic_drift(x, y)

    return _cubic_model("cubic_no_mf", drift, lambda t: np.array([x0]))


# Each built-in model by CLI name: its factory and the config keys it takes.
MODELS = {
    "example51": (example51, ()),
    "linear_meanfield": (linear_meanfield, ("a_coef", "b_coef", "sigma0", "x0")),
    "cubic_no_mf": (cubic_no_mf, ("x0",)),
}


def build_model(name: str, **keys) -> ModelSpec:
    """Construct a built-in model by CLI name from the keys it takes
    (``MODELS``); a key left out takes the factory's default."""
    if name not in MODELS:
        raise ConfigError(
            f"unknown model {name!r}; valid models: {', '.join(MODELS)}"
        )
    return MODELS[name][0](**keys)
