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

The studies stream their noise: a study is a list of
:class:`~mvnsdde.model.Grid` values and its ``(seed, particles)`` segments
(the replicate seeds, and in the particle study every seed × particle
count), checked and laid out from its keys alone by its plan
(``strong_error_plan`` and so on), which the CLI's ``validate`` judges.  A
study is one :func:`~mvnsdde.scheme.coupled_pass` call, which runs every
grid on the block sums of one streamed fine path and returns the terminal
states.  That call groups the seeds into passes of as many as
:func:`~mvnsdde.noise.seeds_per_block` lets share one noise budget, so
memory is that budget plus each segment's delay window and the terminals.
Results equal those of one run per seed and size bit for bit.
"""

from __future__ import annotations

import json
import math
import resource
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, DegenerateFitError
from .measure import (
    ASSIGNMENT_CAP, _assignment_solver, w2_assignment, w2sq_to_standard_normal_1d,
)
from .model import Grid, ModelSpec
from .noise import check_seed, derived_generator, is_whole
from .scheme import DIVERGENCE_THRESHOLD, Divergence, MomentMax, coupled_pass

_RATE_TAG = 0x3A7E  # auxiliary stream namespace for sampling experiments

D5_PROXY_NOTE = (
    "dim-5 values are mean squared assignment distances between two "
    "independent samples of equal size; by the triangle inequality this "
    "proxy dominates the one-sample distance to the sampled law up to a "
    "factor of 2"
)


# Log-log slope in the sample size of the mean squared W2 distance between
# N(0, I_dim) and its empirical measure: -1 in dim 1, up to a log log factor
# (Bobkov and Ledoux), and -2/dim for dim > 4 (Fournier and Guillin).
W2SQ_RATE = {1: -1.0, 5: -0.4}


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
    distinct = len(set(table.resolutions()))
    if distinct < 2:
        raise DegenerateFitError(
            f"slope fit needs at least 2 distinct resolutions, got {distinct}"
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


def check_at_least(key: str, value, least: int) -> int:
    """``value`` as an int; a :class:`ConfigError` naming ``key`` unless it
    is a whole number of at least ``least`` (True is refused, not read as 1)."""
    if not is_whole(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return int(value)


def check_sizes(key: str, sizes) -> list:
    """The one rule for a study's list of sizes, ``xis`` or ``deltas``: the
    list, sorted, with at least one entry, none repeated, each positive and
    finite, none a bool, and each of ``xis`` an integer.  ``delta_ref`` is a
    one-entry list."""
    whole = key == "xis"
    noun, bound = ("sample sizes", ">= 1") if whole else (key, "positive and finite")
    if len(sizes) == 0:
        unit = "sample size" if whole else "step size"
        raise ConfigError(f"{key} is empty: give at least one {unit}")
    for size in sizes:
        if isinstance(size, (bool, np.bool_)):
            raise ConfigError(f"{key} must hold numbers, got the bool {size!r}")
        if not 0 < size < math.inf:  # also false for nan
            raise ConfigError(f"{noun} must be {bound}, got {size}")
        if whole and not is_whole(size):
            raise ConfigError(f"sample sizes must be integers, got {size}")
    sizes = sorted(int(s) if whole else float(s) for s in sizes)
    if any(b == a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"{noun} must be distinct: {sizes}")
    return sizes


def _replicate_seeds(seed: int, replicates: int) -> list[int]:
    replicates = check_at_least("replicates", replicates, 1)
    return [(check_seed(seed) + r) % 2**64 for r in range(replicates)]


def strong_error_plan(
    particles: int, delta_ref: float, deltas: list[float], tau: float, alpha: float,
    horizon: float, seed: int, taming: bool, replicates: int,
) -> tuple[list[tuple[int, int]], list[Grid]]:
    """Each replicate seed's segment; the delta_ref grid, then the sorted deltas'."""
    check_sizes("delta_ref", [delta_ref])
    deltas = check_sizes("deltas", deltas)
    segments = [(s, particles) for s in _replicate_seeds(seed, replicates)]
    grids = [Grid(d, tau, alpha, horizon, taming) for d in [delta_ref, *deltas]]
    return segments, grids


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
    segments, grids = strong_error_plan(
        particles, delta_ref, deltas, tau, alpha, horizon, seed, taming, replicates
    )
    ref, *tests = coupled_pass(model, segments, grids)
    return ErrorTable(
        [
            _row_from_sq_errors(grid.delta, np.sum((ref - test) ** 2, axis=1))
            for grid, test in zip(grids[1:], tests)
        ]
    )


def chaos_error_plan(
    xis: list[int], delta: float, tau: float, alpha: float, horizon: float,
    seed: int, taming: bool, replicates: int,
) -> tuple[list[tuple[int, int]], list[Grid]]:
    """Each replicate seed's systems at the sorted xis, seed by seed; one grid."""
    xis = check_sizes("xis", xis)
    segments = [(s, xi) for s in _replicate_seeds(seed, replicates) for xi in xis]
    return segments, [Grid(delta, tau, alpha, horizon, taming)]


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
    segments, grids = chaos_error_plan(
        xis, delta, tau, alpha, horizon, seed, taming, replicates
    )
    [terminal] = coupled_pass(model, segments, grids)
    xis = sorted({xi for _, xi in segments})
    # one row per replicate seed: its systems side by side, the reference last
    by_seed = terminal.reshape(-1, sum(xis), model.state_dim)
    systems = np.split(by_seed, np.cumsum(xis)[:-1], axis=1)
    ref = systems[-1]
    e2s = [np.sum((ref[:, :xi] - test) ** 2, axis=2) for xi, test in zip(xis, systems)]
    return ErrorTable([_row_from_sq_errors(xi, e2.ravel()) for xi, e2 in zip(xis, e2s)])


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
    Each run's :class:`~mvnsdde.scheme.MomentMax` record keeps the maximum
    of the sample moment over its grid, initial segment included.  Returns
    (delta, monitor value, argmax grid index) per step size.
    """
    deltas = check_sizes("deltas", deltas)
    grids = [Grid(d, tau, alpha, horizon, taming) for d in deltas]
    moments = [MomentMax(p) for _ in deltas]
    coupled_pass(model, [(seed, particles)], grids, moments)
    return [(d, m.value, m.index) for d, m in zip(deltas, moments)]


@dataclass(frozen=True)
class TamingReport:
    """Paired tamed/untamed run summary on identical noise.

    ``tamed_max_moment`` is the tamed run's p = 2 moment monitor: the
    largest sample second moment over its grid, reached at grid index
    ``tamed_argmax_index``.
    """

    tamed_max_moment: float
    tamed_argmax_index: int
    untamed_divergence_fraction: float
    untamed_diverged_count: int
    first_divergence_step: int | None
    particles: int
    divergence_threshold: float


def taming_plan(
    delta: float, particles: int, tau: float, horizon: float, seed: int, alpha: float,
) -> tuple[list[tuple[int, int]], list[Grid]]:
    """One segment; its grid tamed, then untamed."""
    grids = [Grid(delta, tau, alpha, horizon, taming) for taming in (True, False)]
    return [(seed, particles)], grids


def taming_comparison(
    model: ModelSpec,
    delta: float,
    particles: int,
    tau: float,
    horizon: float,
    seed: int,
    alpha: float = 0.5,
) -> TamingReport:
    """Tamed vs untamed runs of ``model`` on identical increments.

    The tamed run reports its p=2 moment monitor; the untamed run reports
    the fraction of particles whose state ever exceeds the threshold or
    goes non-finite before the horizon (the measured event, not an error).
    Meant for :func:`~mvnsdde.model.cubic_no_mf` at coarse steps 1/4 or 1/8
    and |x0| >= 3; smaller starting points stay subcritical.
    """
    segments, grids = taming_plan(delta, particles, tau, horizon, seed, alpha)
    moment, divergence = MomentMax(2), Divergence()
    coupled_pass(model, segments, grids, [moment, divergence])
    return TamingReport(
        tamed_max_moment=moment.value,
        tamed_argmax_index=moment.index,
        untamed_divergence_fraction=float(divergence.diverged.mean()),
        untamed_diverged_count=int(divergence.diverged.sum()),
        first_divergence_step=divergence.first_step,
        particles=len(divergence.diverged),  # the int the pass ran
        divergence_threshold=DIVERGENCE_THRESHOLD,
    )


def rate_plan(dim: int, xis: list[int], mc_reps: int) -> tuple[int, list[int], int]:
    """The rate study's checked dim (1 or 5, not True), sorted xis (at most
    ``ASSIGNMENT_CAP`` at dim 5) and mc_reps: it runs no pass."""
    xis = check_sizes("xis", xis)
    mc_reps = check_at_least("mc_reps", mc_reps, 0)
    if not is_whole(dim) or dim not in W2SQ_RATE:
        raise ConfigError(f"supported dims are 1 and 5, got {dim!r}")
    if dim == 5 and max(xis) > ASSIGNMENT_CAP:
        raise CapacityError(f"size {max(xis)} exceeds assignment cap {ASSIGNMENT_CAP}")
    return int(dim), xis, mc_reps


def _assignment_squares(rng, size: int, dim: int, reps: int) -> np.ndarray:
    """``reps`` squared assignment distances between two samples of
    ``size`` standard normal points in ``dim`` dimensions, the r-th from the
    r-th pair drawn from ``rng``: x, then y.

    The calling thread and one helper thread solve them (scipy's solver
    releases the GIL), each with its own cost buffer.  A solver takes the
    next index and draws its pair under one lock, so the values are those
    of one thread solving in order, bit for bit.  An exception in either
    solver stops the other and is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import

    vals = np.empty(reps)
    lock, indices, failed = threading.Lock(), iter(range(reps)), False

    def solve():
        nonlocal failed
        buf = np.empty((size, size))
        try:
            while not failed:
                with lock:
                    r = next(indices, None)
                    if r is None:
                        return
                    x = rng.standard_normal((size, dim))
                    y = rng.standard_normal((size, dim))
                vals[r] = w2_assignment(x, y, out=buf) ** 2
        except BaseException:
            failed = True
            raise

    # loading the solver swaps sys.modules entries: one thread only
    _assignment_solver()
    with ThreadPoolExecutor(1) as helper:
        other = helper.submit(solve)
        solve()
        other.result()
    return vals


def empirical_measure_rate(
    dim: int,
    xis: list[int],
    mc_reps: int,
    seed: int,
) -> ErrorTable:
    """Mean squared W2 distance of standard normal samples vs sample size.

    dim = 1 integrates each sorted sample against the exact N(0,1) quantile
    function; dim = 5 uses the two-independent-samples assignment proxy (see
    ``D5_PROXY_NOTE``), with sizes up to ``ASSIGNMENT_CAP``, on two solvers
    (:func:`_assignment_squares`).  The rms_error column holds the mean
    squared distance; stderr is its Monte Carlo standard error over the
    repetitions.
    """
    dim, xis, mc_reps = rate_plan(dim, xis, mc_reps)
    rng = derived_generator(seed, _RATE_TAG + dim)
    if mc_reps == 0:
        return ErrorTable([])
    rows = []
    for xi in xis:
        if dim == 5:
            vals = _assignment_squares(rng, xi, dim, mc_reps)
        else:
            vals = np.empty(mc_reps)
            for r in range(mc_reps):
                vals[r] = w2sq_to_standard_normal_1d(rng.standard_normal(xi))
        stderr = float(vals.std(ddof=1) / np.sqrt(mc_reps)) if mc_reps > 1 else 0.0
        rows.append(ErrorRow(float(xi), float(vals.mean()), stderr, mc_reps))
    return ErrorTable(rows)


def write_summary(path, name, config, runtime_seconds, peak_rss_mb, **fields):
    """Write an experiment's ``summary.json``: the keys every experiment
    shares, then its own ``fields``, as indented JSON with sorted keys and a
    final newline."""
    fields.update(experiment=name, config=config)
    fields.update(runtime_seconds=runtime_seconds, peak_rss_mb=peak_rss_mb)
    with open(path, "w") as fh:
        json.dump(fields, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class ExperimentReport:
    """Config echo, error table, slope fit, and runtime of one experiment.

    The slope and intercept are fit on the table's positive-error rows, and
    are ``None`` when fewer than two remain.
    """

    name: str
    config: dict
    table: ErrorTable
    runtime_seconds: float
    reference_slope: float = 0.5
    notes: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None
    slope: float | None = field(init=False)
    intercept: float | None = field(init=False)

    def __post_init__(self):
        try:
            self.slope, self.intercept = fit_loglog_slope(self.table.nonzero())
        except DegenerateFitError:
            self.slope, self.intercept = None, None

    def gnuplot_text(self) -> str:
        s = self.reference_slope
        lines = [
            f"# log-log plot for {self.name} with a slope {s} reference line",
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
        write_summary(
            base + ".summary.json", self.name, self.config, self.runtime_seconds,
            self.peak_rss_mb, slope=self.slope, intercept=self.intercept,
            notes=self.notes,
        )
        with open(base + ".gp", "w") as fh:
            fh.write(self.gnuplot_text())


def peak_rss_mb() -> float:
    """The process's peak resident set size in MiB, everything up to now:
    ``VmHWM`` where /proc/self/status exists, else ``ru_maxrss``.  On Linux a
    process started by vfork+exec (``subprocess``) inherits its parent's
    ``ru_maxrss``, while ``VmHWM`` is the peak of its own address space."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
