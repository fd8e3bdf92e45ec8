"""Convergence, chaos, moment, and taming studies with coupled noise.

The exact solution is unobservable, so every study compares against a proxy
on the *same* Brownian path: the step-size study feeds each coarse step the
block sums of one fine path, the particle study shares per-particle streams
between runs of different sizes (stream derivation is keyed by absolute
particle id, so the smaller system is a prefix of the larger), and the
moment study couples its runs the same way so the monitored bound is
compared across step sizes on one path.  Errors are root mean squares across
the particles of a single coupled run; the reported standard error comes
from the particle-wise squared-error sample variance (particles are
exchangeable but weakly correlated through the measure, which the reports
state).

The studies stream their noise: one pass draws the fine path block by
block and advances every run through each block.  The runs of one step
size share one :class:`~mvnsdde.scheme.Stepper` as row segments: the
replicate seeds of the pass, and in the particle study every particle
count.  A pass takes as many replicate seeds as
:func:`~mvnsdde.noise.seeds_per_block` lets share one noise budget, so
memory is that budget plus each segment's delay window.  Results equal
those of one run per seed and size on the materialized ``BrownianGrid``
oracle bit for bit.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import CapacityError, ConfigError, DegenerateFitError
from .measure import (
    DEFAULT_ASSIGNMENT_CAP,
    EmpiricalMeasure,
    w2_assignment,
    w2sq_to_standard_normal_1d,
)
from .model import ModelSpec, SchemeParams, cubic_no_mf
from .noise import (
    block_sums,
    chunk_steps,
    derived_generator,
    seeds_per_block,
    stream_seeds,
)
from .scheme import ParticleGrid, Stepper, TerminalRun, sample_moments

_RATE_TAG = 0x3A7E  # auxiliary stream namespace for sampling experiments

D5_PROXY_NOTE = (
    "dim-5 values are mean squared assignment distances between two "
    "independent samples of equal size; by the triangle inequality this "
    "proxy dominates the one-sample distance to the sampled law up to a "
    "factor of 2"
)


@dataclass(frozen=True)
class ErrorRow:
    resolution: float
    rms_error: float
    stderr: float
    samples: int


@dataclass
class ErrorTable:
    """Rows of (resolution, rms error, Monte Carlo stderr, sample count)."""

    rows: list[ErrorRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def resolutions(self) -> np.ndarray:
        return np.array([r.resolution for r in self.rows])

    def errors(self) -> np.ndarray:
        return np.array([r.rms_error for r in self.rows])

    def stderrs(self) -> np.ndarray:
        return np.array([r.stderr for r in self.rows])

    def nonzero(self) -> "ErrorTable":
        """Table with exact-zero rows (self-comparisons) dropped."""
        return ErrorTable([r for r in self.rows if r.rms_error > 0.0])

    def csv_text(self) -> str:
        lines = ["resolution,rms_error,stderr,samples"]
        for r in self.rows:
            lines.append(
                f"{r.resolution:.17g},{r.rms_error:.17g},"
                f"{r.stderr:.17g},{r.samples}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def fit_loglog_slope(table: ErrorTable) -> tuple[float, float]:
    """Least squares of log2(rms_error) against log2(resolution).

    Zero-error rows make the fit meaningless; callers drop self-comparison
    rows first (:meth:`ErrorTable.nonzero`).
    """
    if len(table) < 2:
        raise DegenerateFitError(
            f"slope fit needs at least 2 rows, got {len(table)}"
        )
    if any(r.rms_error <= 0.0 for r in table.rows):
        raise DegenerateFitError(
            "slope fit on a zero error row; drop self-comparison rows first"
        )
    slope, intercept = np.polyfit(
        np.log2(table.resolutions()), np.log2(table.errors()), 1
    )
    return float(slope), float(intercept)


def _row_from_sq_errors(resolution, e2: np.ndarray) -> ErrorRow:
    mse = float(e2.mean())
    rms = float(np.sqrt(mse))
    if rms > 0.0 and e2.size > 1:
        stderr = float(e2.std(ddof=1) / np.sqrt(e2.size) / (2.0 * rms))
    else:
        stderr = 0.0
    return ErrorRow(
        resolution=float(resolution),
        rms_error=rms,
        stderr=stderr,
        samples=int(e2.size),
    )


def _replicate_seeds(seed: int, replicates: int) -> list[int]:
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    return [(int(seed) + r) % 2**64 for r in range(replicates)]


def _power_of_two_factor(coarse: float, fine: float, what: str) -> int:
    ratio = coarse / fine
    factor = int(round(ratio))
    if (
        factor < 1
        or abs(ratio - factor) > 1e-9 * factor
        or factor & (factor - 1)
    ):
        raise ConfigError(
            f"{what} = {coarse!r} is not a power-of-two multiple of {fine!r}"
        )
    return factor


def _passes(seeds: list[int], particles: int, bm_dim: int, multiple: int):
    """The replicate seeds in groups, one per pass (:func:`seeds_per_block`)."""
    size = seeds_per_block(particles, bm_dim, multiple)
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


def _coupled_pass(
    delta: float, horizon: float, levels: list[tuple[Stepper, int]]
) -> list[TerminalRun]:
    """Advance every run of a study on its seeds' streamed Brownian paths.

    ``levels`` pairs each run with its step as a multiple of ``delta``;
    every run has the same segments.  A segment takes the leading columns
    of its seed's stream, gathered once per block, so a smaller system
    reuses a larger one's streams.  The seeds share one block budget, and
    blocks are a multiple of every factor long, so each coarse run sees
    ``coarsen``'s sums.
    """
    layout = [(seg.seed, seg.particles) for seg in levels[0][0].segments]
    columns: dict[int, int] = {}
    for seed, particles in layout:
        columns[seed] = max(columns.get(seed, 0), particles)
    first = dict(zip(columns, accumulate([0, *columns.values()])))
    gather = np.concatenate([first[seed] + np.arange(n) for seed, n in layout])
    width = sum(columns.values())
    if np.array_equal(gather, np.arange(width)):
        gather = None  # every drawn column, in order
    bm_dim = levels[0][0].model.bm_dim
    chunk = chunk_steps(width, bm_dim, max(f for _, f in levels))
    for block in stream_seeds(columns, bm_dim, delta, horizon, chunk):
        if gather is not None:
            block = block.take(gather, axis=1)
        for run, factor in levels:
            run.advance(block_sums(block, factor))
        del block  # free it before the next block is drawn
    return [run.result() for run, _ in levels]


def strong_error_vs_dt(
    model: ModelSpec,
    particles: int,
    delta_ref: float,
    deltas: list[float],
    tau: float,
    alpha: float,
    horizon: float,
    seed: int,
    taming: bool = True,
    replicates: int = 1,
) -> ErrorTable:
    """Coupled strong error at the horizon as a function of the step size.

    One Brownian path is streamed at ``delta_ref``; the reference run uses
    its increments directly and every test step size consumes their block
    sums, so all runs share one path and advance together in one pass.  Each
    test step must be a power-of-two multiple of the reference step.

    ``replicates`` repeats the whole coupled study on independent master
    seeds (seed, seed + 1, ...) and pools the particle-wise squared errors,
    for sensitivity checks of the single-run estimate.  Replicates that
    share a pass are segments of each step size's one run.
    """
    deltas = sorted(float(d) for d in deltas)
    factors = [
        _power_of_two_factor(d, delta_ref, "test step") for d in deltas
    ]
    sq_errors: list[list[np.ndarray]] = [[] for _ in deltas]
    seeds = _replicate_seeds(seed, replicates)
    for group in _passes(seeds, particles, model.bm_dim, max(factors, default=1)):
        base = [
            SchemeParams(
                delta=delta_ref, tau=tau, alpha=alpha, particles=particles,
                horizon=horizon, seed=run_seed, taming_enabled=taming,
            )
            for run_seed in group
        ]
        levels = [(Stepper(model, base), 1)] + [
            (Stepper(model, [replace(p, delta=delta) for p in base]), factor)
            for delta, factor in zip(deltas, factors)
        ]
        ref, *tests = _coupled_pass(delta_ref, horizon, levels)
        for e2s, test in zip(sq_errors, tests):
            e2s.append(np.sum((ref.terminal - test.terminal) ** 2, axis=1))
    return ErrorTable(
        [
            _row_from_sq_errors(delta, np.concatenate(e2s))
            for delta, e2s in zip(deltas, sq_errors)
        ]
    )


def chaos_error_vs_particles(
    model: ModelSpec,
    xis: list[int],
    delta: float,
    tau: float,
    alpha: float,
    horizon: float,
    seed: int,
    taming: bool = True,
    replicates: int = 1,
) -> ErrorTable:
    """Coupled error between systems of different sizes at the horizon.

    The largest size is the reference; smaller systems reuse the leading
    per-particle streams and initial segments, so particle a sees identical
    noise in every run and the only difference is the empirical measure it
    interacts with.  Measure-independent models therefore give exact zeros.
    ``replicates`` pools independent master seeds as in the step-size study.
    Every system of the seeds that share a pass is a segment of one run.
    """
    xis = [int(x) for x in xis]
    if any(b <= a for a, b in zip(xis, xis[1:])) or len(xis) < 1:
        raise ConfigError(f"particle counts must be strictly increasing: {xis}")
    sq_errors: list[list[np.ndarray]] = [[] for _ in xis]
    seeds = _replicate_seeds(seed, replicates)
    for group in _passes(seeds, xis[-1], model.bm_dim, 1):
        segments = [
            SchemeParams(
                delta=delta, tau=tau, alpha=alpha, particles=xi,
                horizon=horizon, seed=run_seed, taming_enabled=taming,
            )
            for run_seed in group
            for xi in xis
        ]
        run = Stepper(model, segments)
        (result,) = _coupled_pass(delta, horizon, [(run, 1)])
        systems = [result.terminal[start:stop] for start, stop in run.bounds]
        for k in range(len(group)):
            *tests, ref = systems[k * len(xis) : (k + 1) * len(xis)]
            for e2s, test in zip(sq_errors, tests):
                xi = len(test)
                e2s.append(np.sum((ref[:xi] - test) ** 2, axis=1))
            sq_errors[-1].append(np.zeros(xis[-1]))
    return ErrorTable(
        [
            _row_from_sq_errors(xi, np.concatenate(e2s))
            for xi, e2s in zip(xis, sq_errors)
        ]
    )


@dataclass(frozen=True)
class MomentMonitor:
    value: float
    argmax_index: int


def moment_monitor(grid: ParticleGrid, p: int) -> MomentMonitor:
    """Largest sample p-th moment of the state norm over the whole grid.

    Returns the maximum of (1/particles) * sum_a |U_n^a|^p over grid indices
    n (initial-segment rows included) and where it occurs.  Intended for
    even integer p >= 2.
    """
    moments = sample_moments(grid.states, p)
    row = int(np.argmax(moments))
    return MomentMonitor(
        value=float(moments[row]), argmax_index=row - grid.delay_steps
    )


def moment_bound_vs_dt(
    model: ModelSpec,
    particles: int,
    deltas: list[float],
    tau: float,
    alpha: float,
    horizon: float,
    seed: int,
    p: int = 4,
    taming: bool = True,
) -> list[tuple[float, float, int]]:
    """Moment monitor across step sizes on one coupled Brownian path.

    Couples the runs exactly like the strong-error study (finest step is the
    streamed path); the sample p-th moment is heavy-tailed, so independent
    paths per step would swamp the step-size dependence the bound is about.
    Each run keeps a running maximum, equal to :func:`moment_monitor` on
    its full grid.  Returns (delta, monitor value, argmax grid index) per step size.
    """
    deltas = sorted(float(d) for d in deltas)
    finest = deltas[0]
    factors = [_power_of_two_factor(d, finest, "step") for d in deltas]
    params = SchemeParams(
        delta=finest, tau=tau, alpha=alpha, particles=particles,
        horizon=horizon, seed=seed, taming_enabled=taming,
    )
    runs = [Stepper(model, replace(params, delta=d), moment_p=p) for d in deltas]
    _coupled_pass(finest, horizon, list(zip(runs, factors)))
    return [(d, run.moment_max, run.moment_argmax) for d, run in zip(deltas, runs)]


@dataclass(frozen=True)
class TamingReport:
    """Paired tamed/untamed run summary on identical noise."""

    tamed_max_moment: float
    tamed_argmax_index: int
    untamed_divergence_fraction: float
    untamed_diverged_count: int
    first_divergence_step: int | None
    particles: int
    divergence_threshold: float

    def as_dict(self) -> dict:
        return {
            "tamed_max_moment": self.tamed_max_moment,
            "tamed_argmax_index": self.tamed_argmax_index,
            "untamed_divergence_fraction": self.untamed_divergence_fraction,
            "untamed_diverged_count": self.untamed_diverged_count,
            "first_divergence_step": self.first_divergence_step,
            "particles": self.particles,
            "divergence_threshold": self.divergence_threshold,
        }


def taming_comparison(
    x0: float,
    delta_coarse: float,
    particles: int,
    tau: float,
    horizon: float,
    seed: int,
    alpha: float = 0.5,
    divergence_threshold: float = 1e10,
) -> TamingReport:
    """Tamed vs untamed runs of the cubic model from a constant segment.

    Both runs consume identical increments.  The tamed run reports its p=2
    moment monitor; the untamed run reports the fraction of particles whose
    state ever exceeds the threshold or goes non-finite before the horizon
    (the measured event, not an error).  Meant for coarse steps 1/4 or 1/8
    and |x0| >= 3; smaller starting points stay subcritical.
    """
    model = cubic_no_mf(x0=x0)
    params = SchemeParams(
        delta=delta_coarse, tau=tau, alpha=alpha, particles=particles,
        horizon=horizon, seed=seed, taming_enabled=True,
    )
    tamed = Stepper(model, params, moment_p=2)
    untamed = Stepper(
        model,
        replace(params, taming_enabled=False),
        track_divergence=True,
        divergence_threshold=divergence_threshold,
    )
    _, divergence = _coupled_pass(
        delta_coarse, horizon, [(tamed, 1), (untamed, 1)]
    )
    assert divergence.diverged is not None
    return TamingReport(
        tamed_max_moment=tamed.moment_max,
        tamed_argmax_index=tamed.moment_argmax,
        untamed_divergence_fraction=divergence.divergence_fraction,
        untamed_diverged_count=int(divergence.diverged.sum()),
        first_divergence_step=divergence.first_divergence_step,
        particles=particles,
        divergence_threshold=divergence_threshold,
    )


def empirical_measure_rate(
    dim: int,
    xis: list[int],
    mc_reps: int,
    seed: int,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> ErrorTable:
    """Mean squared W2 distance of standard normal samples vs sample size.

    dim = 1 integrates each sorted sample against the exact N(0,1) quantile
    function; dim = 5 uses the two-independent-samples assignment proxy (see
    ``D5_PROXY_NOTE``).  The rms_error column holds the mean squared
    distance; stderr is its Monte Carlo standard error over the repetitions.
    """
    if dim not in (1, 5):
        raise ConfigError(f"supported dims are 1 and 5, got {dim}")
    xis = sorted(int(x) for x in xis)
    if any(b <= a for a, b in zip(xis, xis[1:])):
        raise ConfigError(f"sample sizes must be distinct: {xis}")
    if dim == 5 and xis and xis[-1] > assignment_cap:
        raise CapacityError(
            f"size {xis[-1]} exceeds assignment cap {assignment_cap}"
        )
    rng = derived_generator(seed, _RATE_TAG + dim)
    rows = []
    if mc_reps <= 0:
        return ErrorTable([])
    for xi in xis:
        vals = np.empty(mc_reps)
        for r in range(mc_reps):
            if dim == 1:
                mu = EmpiricalMeasure(rng.standard_normal(xi))
                vals[r] = w2sq_to_standard_normal_1d(mu)
            else:
                mu = EmpiricalMeasure(rng.standard_normal((xi, dim)))
                nu = EmpiricalMeasure(rng.standard_normal((xi, dim)))
                vals[r] = w2_assignment(mu, nu, assignment_cap) ** 2
        mean = float(vals.mean())
        stderr = (
            float(vals.std(ddof=1) / np.sqrt(mc_reps)) if mc_reps > 1 else 0.0
        )
        rows.append(
            ErrorRow(
                resolution=float(xi),
                rms_error=mean,
                stderr=stderr,
                samples=mc_reps,
            )
        )
    return ErrorTable(rows)


@dataclass
class ExperimentReport:
    """Config echo, error table, slope fit, and runtime of one experiment."""

    name: str
    config: dict
    table: ErrorTable
    slope: float | None
    intercept: float | None
    runtime_seconds: float
    reference_slope: float = 0.5
    notes: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None

    def summary_dict(self) -> dict:
        return {
            "experiment": self.name,
            "config": self.config,
            "slope": self.slope,
            "intercept": self.intercept,
            "runtime_seconds": self.runtime_seconds,
            "peak_rss_mb": self.peak_rss_mb,
            "notes": self.notes,
        }

    def gnuplot_text(self) -> str:
        s = self.reference_slope
        lines = [
            f"# log-log plot for {self.name} with a slope-1/2 reference line",
            "set datafile separator ','",
            "set logscale xy 2",
            "set key left top",
            "set xlabel 'resolution'",
            "set ylabel 'rms error'",
        ]
        anchor = self.table.nonzero()
        plot = (
            f"plot '{self.name}.csv' skip 1 using 1:2 with linespoints "
            "pointtype 7 title 'measured'"
        )
        if len(anchor) > 0:
            r = anchor.rows[-1]
            c = r.rms_error / r.resolution**s
            lines.append(f"ref(x) = {c:.17g} * x**({s})")
            plot += (
                ", ref(x) with lines dashtype 2 title "
                f"'slope {s} reference'"
            )
        lines.append(plot)
        return "\n".join(lines) + "\n"

    def write(self, outdir) -> None:
        """Emit <name>.csv, <name>.summary.json, and <name>.gp."""
        base = f"{outdir}/{self.name}"
        self.table.write_csv(base + ".csv")
        with open(base + ".summary.json", "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(base + ".gp", "w") as fh:
            fh.write(self.gnuplot_text())


def build_report(
    name: str,
    config: dict,
    table: ErrorTable,
    runtime_seconds: float,
    reference_slope: float = 0.5,
    notes: dict | None = None,
    peak_rss_mb: float | None = None,
) -> ExperimentReport:
    """Assemble a report; the slope is fit on the positive-error rows."""
    usable = table.nonzero()
    try:
        slope, intercept = fit_loglog_slope(usable)
    except DegenerateFitError:
        slope, intercept = None, None
    return ExperimentReport(
        name=name,
        config=config,
        table=table,
        slope=slope,
        intercept=intercept,
        runtime_seconds=runtime_seconds,
        reference_slope=reference_slope,
        notes=notes or {},
        peak_rss_mb=peak_rss_mb,
    )


class Stopwatch:
    """Wall-clock timer for experiment reports; also reads the process's
    peak resident set size (MiB, everything up to the exit) as peak_rss_mb."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return False
