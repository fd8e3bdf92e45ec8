"""Experiment harnesses: coupling, tables, slope fits, and report files."""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mvnsdde import (
    CapacityError,
    ConfigError,
    DegenerateFitError,
    ErrorRow,
    ErrorTable,
    ExperimentReport,
    Grid,
    GridError,
    ValidationFailure,
    chaos_error_vs_particles,
    cubic_no_mf,
    empirical_measure_rate,
    example51,
    experiments,
    fit_loglog_slope,
    linear_meanfield,
    moment_bound_vs_dt,
    noise,
    scheme,
    simulate,
    strong_error_vs_dt,
    taming_comparison,
    validate,
    w2_assignment,
)
from mvnsdde.noise import derived_generator, stream_seeds
from oracles import moment_monitor, rate_draws, rate_table_sequential, recorded


def forbidden(*args, **kwargs):
    raise AssertionError("drew noise before checking the input")


STUDY_KEYS = dict(tau=0.5, alpha=0.5, horizon=1.0, seed=1)


class TestCountsAndSizes:
    """A bool is not a number, and a count is a whole one: each study
    argument that would be misread is refused, naming its key."""

    @pytest.mark.parametrize(
        "key, run",
        [
            ("xis", lambda: chaos_error_vs_particles(
                cubic_no_mf(), xis=[np.True_, 4], delta=0.25, **STUDY_KEYS)),
            ("deltas", lambda: experiments.check_sizes("deltas", [True])),
            ("replicates", lambda: strong_error_vs_dt(
                cubic_no_mf(), 4, 0.125, [0.25], replicates=True, **STUDY_KEYS)),
            ("replicates", lambda: strong_error_vs_dt(
                cubic_no_mf(), 4, 0.125, [0.25], replicates=1.5, **STUDY_KEYS)),
            ("dim", lambda: empirical_measure_rate(dim=True, xis=[4], mc_reps=2, seed=1)),
            ("dim", lambda: empirical_measure_rate(dim=5.5, xis=[4], mc_reps=2, seed=1)),
            ("mc_reps", lambda: empirical_measure_rate(dim=1, xis=[4], mc_reps=True, seed=1)),
            ("mc_reps", lambda: empirical_measure_rate(dim=1, xis=[4], mc_reps=2.5, seed=1)),
        ],
    )
    def test_refused_naming_the_key(self, key, run, monkeypatch):
        monkeypatch.setattr(experiments, "derived_generator", forbidden)
        monkeypatch.setattr(scheme, "stream_seeds", forbidden)
        with pytest.raises(ConfigError, match=key):
            run()

    def test_whole_floats_are_read_as_ints(self):
        assert experiments.check_at_least("mc_reps", 2.0, 0) == 2
        assert type(experiments.check_at_least("mc_reps", np.int64(3), 0)) is int
        table = empirical_measure_rate(dim=5.0, xis=[4], mc_reps=2.0, seed=1)
        assert table == empirical_measure_rate(dim=5, xis=[4], mc_reps=2, seed=1)
        assert table.rows[0].samples == 2 and type(table.rows[0].samples) is int


class TestFitLoglogSlope:
    def test_exact_unit_slope(self):
        table = ErrorTable(
            [ErrorRow(2.0**-3, 2.0**-3, 0.0, 1), ErrorRow(2.0**-4, 2.0**-4, 0.0, 1)]
        )
        slope, intercept = fit_loglog_slope(table)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_two_point_half_slope(self):
        table = ErrorTable([ErrorRow(4.0, 8.0, 0.0, 1), ErrorRow(16.0, 16.0, 0.0, 1)])
        slope, _ = fit_loglog_slope(table)
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_constant_errors_zero_slope(self):
        table = ErrorTable([ErrorRow(r, 0.125, 0.0, 1) for r in (1.0, 2.0, 4.0)])
        slope, _ = fit_loglog_slope(table)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateFitError):
            fit_loglog_slope(ErrorTable([ErrorRow(1.0, 1.0, 0.0, 1)]))
        with pytest.raises(DegenerateFitError):
            fit_loglog_slope(
                ErrorTable([ErrorRow(1.0, 0.0, 0.0, 1), ErrorRow(2.0, 1.0, 0.0, 1)])
            )

    def test_rows_sharing_a_resolution_are_degenerate(self):
        # polyfit would return a slope from a rank-deficient system
        rows = [ErrorRow(2.0**-6, 0.5, 0.0, 1), ErrorRow(2.0**-6, 0.25, 0.0, 1)]
        with pytest.raises(DegenerateFitError, match="2 distinct resolutions, got 1"):
            fit_loglog_slope(ErrorTable(rows))

    def test_nonzero_filter(self):
        table = ErrorTable([ErrorRow(1.0, 0.0, 0.0, 1), ErrorRow(2.0, 1.0, 0.0, 1)])
        assert len(table.nonzero()) == 1


class TestStrongErrorVsDt:
    def test_self_comparison_row_is_zero(self):
        table = strong_error_vs_dt(
            example51(), particles=8, delta_ref=2.0**-8,
            deltas=[2.0**-8, 2.0**-7], tau=2.0**-5, alpha=0.5, horizon=0.25,
            seed=5,
        )
        assert table.rows[0].resolution == 2.0**-8
        assert table.rows[0].rms_error == 0.0
        assert table.rows[1].rms_error > 0.0

    def test_non_power_of_two_rejected(self, monkeypatch):
        monkeypatch.setattr(scheme, "stream_seeds", forbidden)
        with pytest.raises(ConfigError):
            strong_error_vs_dt(
                example51(), particles=4, delta_ref=2.0**-8,
                deltas=[3.0 * 2.0**-8], tau=2.0**-5, alpha=0.5, horizon=0.25,
                seed=5,
            )
        # a valid grid finer than the path: the study's verdict refuses it
        with pytest.raises(ValidationFailure, match="power of two"):
            strong_error_vs_dt(
                example51(), particles=4, delta_ref=2.0**-8,
                deltas=[2.0**-9], tau=2.0**-5, alpha=0.5, horizon=0.25, seed=5,
            )

    @pytest.mark.parametrize(
        "delta_ref, deltas",
        [
            (2.0**-8, [math.inf]), (2.0**-8, [math.nan]), (2.0**-8, [0.0]),
            (-1.0, [2.0**-7]), (math.inf, [2.0**-7]), (math.nan, [2.0**-7]),
        ],
    )
    def test_steps_must_be_positive_and_finite(self, delta_ref, deltas):
        with pytest.raises(ConfigError, match="must be positive and finite"):
            strong_error_vs_dt(
                example51(), particles=4, delta_ref=delta_ref, deltas=deltas,
                tau=2.0**-5, alpha=0.5, horizon=0.25, seed=5,
            )

    def test_step_ratio_beyond_float_range_is_a_validation_failure(self):
        # 2**-7 / 5e-324 overflows to inf; the reference run refuses its grid
        with pytest.raises(ValidationFailure, match="horizon/delta = inf"):
            strong_error_vs_dt(
                example51(), particles=4, delta_ref=5e-324, deltas=[2.0**-7],
                tau=2.0**-5, alpha=0.5, horizon=0.25, seed=5,
            )

    def test_no_particles_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(scheme, "stream_seeds", forbidden)
        match = "particles must be >= 1, got 0"
        with pytest.raises(ValidationFailure, match=match):
            strong_error_vs_dt(
                example51(), particles=0, delta_ref=0.125, deltas=[0.25],
                tau=0.5, alpha=0.5, horizon=1.0, seed=1,
            )
        with pytest.raises(ConfigError, match="sample sizes must be >= 1, got 0"):
            chaos_error_vs_particles(
                example51(), xis=[0], delta=0.125, tau=0.5, alpha=0.5,
                horizon=1.0, seed=1,
            )

    def test_errors_grow_with_step(self):
        table = strong_error_vs_dt(
            example51(), particles=200, delta_ref=2.0**-12,
            deltas=[2.0**-10, 2.0**-9, 2.0**-8], tau=2.0**-5, alpha=0.5,
            horizon=0.5, seed=1234,
        )
        errs = table.errors()
        ses = [r.stderr for r in table.rows]
        for i in range(len(errs) - 1):
            combined = math.hypot(ses[i], ses[i + 1])
            assert errs[i] <= errs[i + 1] + 2.0 * combined

    def test_deterministic_euler_first_order(self):
        # no noise, no interaction: coupled error is pure Euler bias, slope ~1
        model = linear_meanfield(a_coef=-1.0, b_coef=0.0, sigma0=0.0, x0=1.0)
        table = strong_error_vs_dt(
            model, particles=2, delta_ref=2.0**-12,
            deltas=[2.0**-9, 2.0**-8, 2.0**-7, 2.0**-6], tau=2.0**-5,
            alpha=0.5, horizon=1.0, seed=3, taming=False,
        )
        slope, _ = fit_loglog_slope(table.nonzero())
        assert slope >= 0.9

    def test_same_seed_reproduces_table(self):
        kw = dict(
            particles=30, delta_ref=2.0**-9, deltas=[2.0**-8, 2.0**-7],
            tau=2.0**-5, alpha=0.5, horizon=0.25, seed=77,
        )
        a = strong_error_vs_dt(example51(), **kw)
        b = strong_error_vs_dt(example51(), **kw)
        assert a.csv_text() == b.csv_text()

    def test_one_validation_per_study_whatever_the_passes(self, monkeypatch):
        # 4 numbers a block put each seed of 4 particles in a pass of its own
        kw = dict(
            particles=4, delta_ref=2.0**-9, deltas=[2.0**-8, 2.0**-7],
            tau=2.0**-5, alpha=0.5, horizon=0.25, seed=77, replicates=3,
        )
        shared = strong_error_vs_dt(example51(), **kw)
        seen, passes = [], []

        def counted(model, grids, segments):
            seen.append(([grid.delta for grid in grids], segments))
            return validate(model, grids, segments)

        def streamed(part, *args):
            passes.append(list(part))
            return stream_seeds(part, *args)

        monkeypatch.setattr(scheme, "validate", counted)
        monkeypatch.setattr(scheme, "stream_seeds", streamed)
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 4)
        table = strong_error_vs_dt(example51(), **kw)
        segments = [(77, 4), (78, 4), (79, 4)]
        assert seen == [([2.0**-9, 2.0**-8, 2.0**-7], segments)]
        assert passes == [[(77, 4)], [(78, 4)], [(79, 4)]]
        assert table.csv_text() == shared.csv_text()


class TestStreamedMemory:
    def test_dt_study_holds_no_fine_grid(self):
        # the fine grid alone would be 4096 steps x 200 particles x 8 bytes
        grid_mib = 4096 * 200 * 8 / 2**20
        tracemalloc.start()
        try:
            strong_error_vs_dt(
                example51(), particles=200, delta_ref=2.0**-12,
                deltas=[2.0**-k for k in (11, 10, 9, 8)], tau=2.0**-5,
                alpha=0.5, horizon=1.0, seed=7,
            )
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert grid_mib == 6.25
        assert peak < grid_mib / 2


class TestChaosErrorVsParticles:
    def test_reference_row_zero(self):
        table = chaos_error_vs_particles(
            example51(), xis=[4, 16], delta=2.0**-7, tau=2.0**-5, alpha=0.5,
            horizon=0.25, seed=8,
        )
        assert table.rows[-1].resolution == 16.0
        assert table.rows[-1].rms_error == 0.0
        assert table.rows[0].rms_error > 0.0

    def test_sorts_its_sizes(self):
        kw = dict(delta=2.0**-7, tau=2.0**-5, alpha=0.5, horizon=0.25, seed=8)
        table = chaos_error_vs_particles(example51(), xis=[16, 4, 8], **kw)
        ascending = chaos_error_vs_particles(example51(), xis=[4, 8, 16], **kw)
        assert table.csv_text() == ascending.csv_text()

    def test_one_validation_per_pass(self, monkeypatch):
        calls = {"validate": 0, "pass": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(scheme, "validate", counted("validate", scheme.validate))
        monkeypatch.setattr(
            experiments, "coupled_pass", counted("pass", experiments.coupled_pass)
        )
        chaos_error_vs_particles(
            example51(), xis=[4, 8], delta=2.0**-7, tau=2.0**-5, alpha=0.5,
            horizon=0.25, seed=8, replicates=4,
        )
        # one study, one grid: one pass call validates it once, whatever
        # its seeds' passes
        assert calls == {"validate": 1, "pass": 1}

    def test_memory_across_passes_grows_by_the_terminals_only(self, monkeypatch):
        # a block of 1024 numbers puts each seed in a pass of its own; a
        # finished pass keeps a copy of its terminal states, not its ring
        xis = [64, 256, 1024]
        kw = dict(
            xis=xis, delta=2.0**-7, tau=2.0**-4, alpha=0.5, horizon=2.0**-4, seed=8
        )
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", xis[-1])
        assert noise.seeds_per_block(xis[-1], 1) == 1
        chaos_error_vs_particles(example51(), replicates=2, **kw)  # warm caches
        peaks = []
        for replicates in (2, 16):
            tracemalloc.start()
            try:
                chaos_error_vs_particles(example51(), replicates=replicates, **kw)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        terminals = 16 * sum(xis) * 8  # (particles, state_dim) float64
        assert peaks[1] - peaks[0] <= terminals

    def test_measure_independent_model_exact_zero(self):
        table = chaos_error_vs_particles(
            cubic_no_mf(x0=1.0), xis=[4, 8, 32], delta=2.0**-7, tau=2.0**-5,
            alpha=0.5, horizon=0.5, seed=9,
        )
        assert all(r.rms_error == 0.0 for r in table.rows)

    def test_errors_decay_with_size(self):
        # a single coupled realization: the small-system error is one draw
        # of the mean-offset process, so the clean decay ordering is only a
        # fixed-seed property (the expectation decays, single runs scatter)
        table = chaos_error_vs_particles(
            example51(), xis=[8, 32, 128, 512], delta=2.0**-7, tau=2.0**-5,
            alpha=0.5, horizon=0.5, seed=30,
        )
        errs = table.errors()[:-1]  # drop reference row
        ses = [r.stderr for r in table.rows][:-1]
        assert np.all(errs > 0.0)
        for i in range(len(errs) - 1):
            combined = math.hypot(ses[i], ses[i + 1])
            assert errs[i + 1] < errs[i] + 2.0 * combined


def _constant_grid(value, particles=3, rows=5, dim=1):
    states = np.full((rows, particles, dim), float(value))
    params = Grid(delta=0.25, tau=0.25, alpha=0.5, horizon=(rows - 2) * 0.25)
    return recorded(states, params)


class TestMomentMonitor:
    def test_zero_grid(self):
        mon = moment_monitor(_constant_grid(0.0), p=4)
        assert mon.value == 0.0

    def test_constant_state(self):
        mon = moment_monitor(_constant_grid(-2.0, particles=1), p=4)
        assert mon.value == 16.0

    def test_argmax_location(self):
        grid = _constant_grid(0.0, particles=2, rows=6)
        grid.states[4, :, 0] = 3.0  # grid index 4 - delay_steps = 3
        mon = moment_monitor(grid, p=2)
        assert mon.value == 9.0
        assert mon.argmax_index == 3

    def test_example51_bounded(self):
        params = Grid(delta=2.0**-8, tau=2.0**-5, alpha=0.5, horizon=1.0)
        grid = simulate(example51(), params, 12, 500)
        mon = moment_monitor(grid, p=4)
        assert np.isfinite(mon.value)
        assert mon.value < 1e2


class TestMomentBoundVsDt:
    def test_coupled_ratio_small(self):
        rows = moment_bound_vs_dt(
            example51(), particles=200, deltas=[2.0**-8, 2.0**-7, 2.0**-6],
            tau=2.0**-5, alpha=0.5, horizon=1.0, seed=99, p=4,
        )
        values = [v for _, v, _ in rows]
        assert all(np.isfinite(v) for v in values)
        assert max(values) / min(values) < 3.0

    def test_rows_sorted_by_delta(self):
        rows = moment_bound_vs_dt(
            example51(), particles=10, deltas=[2.0**-6, 2.0**-7],
            tau=2.0**-5, alpha=0.5, horizon=0.5, seed=3, p=2,
        )
        assert [d for d, _, _ in rows] == [2.0**-7, 2.0**-6]

    def test_no_step_size_refused(self):
        with pytest.raises(ConfigError, match="at least one step size"):
            moment_bound_vs_dt(
                example51(), particles=10, deltas=[], tau=2.0**-5, alpha=0.5,
                horizon=0.5, seed=3,
            )


class TestTamingComparison:
    def test_quiet_start_rarely_diverges(self):
        rep = taming_comparison(
            cubic_no_mf(x0=0.0), delta=0.125, particles=200, tau=0.5,
            horizon=1.0, seed=6,
        )
        assert rep.untamed_divergence_fraction < 0.05

    def test_large_start_diverges_untamed_only(self):
        rep = taming_comparison(
            cubic_no_mf(x0=5.0), delta=0.25, particles=200, tau=0.5,
            horizon=1.0, seed=2,
        )
        assert rep.untamed_divergence_fraction >= 0.99
        assert rep.tamed_max_moment < 1e2
        assert rep.first_divergence_step is not None

    def test_report_dict_round_trips_json(self):
        rep = taming_comparison(
            cubic_no_mf(x0=5.0), delta=0.25, particles=20, tau=0.5,
            horizon=1.0, seed=2,
        )
        blob = json.dumps(dataclasses.asdict(rep))
        assert json.loads(blob)["particles"] == 20


class TestEmpiricalMeasureRate:
    def test_fractional_size_refused(self):
        with pytest.raises(ConfigError, match="sample sizes must be integers, got 8.5"):
            empirical_measure_rate(dim=1, xis=[8.5, 16], mc_reps=2, seed=1)

    def test_zero_reps_empty(self):
        table = empirical_measure_rate(dim=1, xis=[8, 16], mc_reps=0, seed=1)
        assert len(table) == 0

    def test_unsupported_dim(self):
        with pytest.raises(ConfigError):
            empirical_measure_rate(dim=2, xis=[8], mc_reps=1, seed=1)

    def test_single_point_expectation(self):
        # E[W2^2(point mass at X, N(0,1))] = E[X^2] + 1 = 2 for X ~ N(0,1)
        table = empirical_measure_rate(dim=1, xis=[1], mc_reps=10_000, seed=4)
        assert table.rows[0].rms_error == pytest.approx(2.0, rel=0.05)

    def test_one_dim_rate(self):
        table = empirical_measure_rate(
            dim=1, xis=[16, 64, 256], mc_reps=50, seed=5
        )
        slope, _ = fit_loglog_slope(table)
        assert slope <= -0.45

    def test_cap_checked_before_any_draw_or_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew or solved before checking the cap")

        monkeypatch.setattr(experiments, "w2_assignment", forbidden)
        monkeypatch.setattr(experiments, "derived_generator", forbidden)
        with pytest.raises(CapacityError, match="1024"):
            empirical_measure_rate(
                dim=5, xis=[16, 64, 1024], mc_reps=2, seed=1,
            )

    @pytest.mark.parametrize("xis, size", [([-3, 4], -3), ([0, 4], 0)])
    def test_sizes_below_one_refused_before_any_draw(self, monkeypatch, xis, size):
        monkeypatch.setattr(experiments, "derived_generator", forbidden)
        with pytest.raises(ConfigError, match=f"sizes must be >= 1, got {size}"):
            empirical_measure_rate(dim=1, xis=xis, mc_reps=2, seed=1)

    def test_negative_reps_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(experiments, "derived_generator", forbidden)
        with pytest.raises(ConfigError, match="mc_reps must be >= 0, got -5"):
            empirical_measure_rate(dim=1, xis=[8, 16], mc_reps=-5, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(GridError, match=f"seed .* got {seed}"):
            empirical_measure_rate(dim=1, xis=[16, 32], mc_reps=3, seed=seed)

    def test_five_dim_decays(self):
        table = empirical_measure_rate(dim=5, xis=[16, 64], mc_reps=10, seed=6)
        assert table.rows[0].rms_error > table.rows[1].rms_error


class TestTwoSolvers:
    """The dim-5 repetitions are solved on two threads, with the bits of one
    thread solving them in order."""

    @pytest.mark.parametrize("seed", [0, 555, 2**64 - 1])
    @pytest.mark.parametrize("mc_reps", [1, 2, 7])
    def test_table_equals_the_sequential_oracle(self, seed, mc_reps):
        xis = [1, 5, 16, 33]
        table = empirical_measure_rate(dim=5, xis=xis, mc_reps=mc_reps, seed=seed)
        assert table.rows == rate_table_sequential(xis, mc_reps, seed).rows

    @staticmethod
    def _reversed(monkeypatch, xis, seed):
        """Wrap ``experiments.w2_assignment`` so that the first repetition of
        each size waits until the second is solved; return the list that
        records the (size, repetition) of each finished solve."""
        index = {x.tobytes(): (size, r) for size, r, x, _ in rate_draws(xis, 2, seed)}
        second_done = {size: threading.Event() for size in xis}
        finished = []
        solve = experiments.w2_assignment

        def reversed_solve(x, y, out=None):
            size, r = index[x.tobytes()]
            if r == 0:
                assert second_done[size].wait(timeout=10)
            value = solve(x, y, out=out)
            finished.append((size, r))
            if r == 1:
                second_done[size].set()
            return value

        monkeypatch.setattr(experiments, "w2_assignment", reversed_solve)
        return finished

    def test_values_keep_draw_order_when_the_solves_finish_in_reverse(self, monkeypatch):
        xis, seed = [4, 16, 40], 31
        want = [w2_assignment(x, y) ** 2 for _, _, x, y in rate_draws(xis, 2, seed)]
        finished = self._reversed(monkeypatch, xis, seed)
        rng = derived_generator(seed, experiments._RATE_TAG + 5)
        got = [experiments._assignment_squares(rng, size, 5, 2) for size in xis]
        assert finished == [(size, r) for size in xis for r in (1, 0)]
        assert np.concatenate(got).tolist() == want

    def test_table_unchanged_when_the_solves_finish_in_reverse(self, monkeypatch):
        xis, seed = [4, 16, 40], 32
        finished = self._reversed(monkeypatch, xis, seed)
        table = empirical_measure_rate(dim=5, xis=xis, mc_reps=2, seed=seed)
        assert finished == [(size, r) for size in xis for r in (1, 0)]
        assert table.rows == rate_table_sequential(xis, 2, seed).rows

    def test_many_small_solves_under_fast_thread_switches(self, monkeypatch):
        # a switch every microsecond interleaves the solvers at every
        # bytecode; a repetition solved twice, or a pair drawn out of turn,
        # breaks the count or the table
        xis, seed = [1, 2, 3, 5, 8], 77
        calls = []
        solve = experiments.w2_assignment

        def counted(x, y, out=None):
            calls.append(None)
            return solve(x, y, out=out)

        monkeypatch.setattr(experiments, "w2_assignment", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = empirical_measure_rate(dim=5, xis=xis, mc_reps=64, seed=seed)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 64 * len(xis)
        assert table.rows == rate_table_sequential(xis, 64, seed).rows

    def test_a_failing_solve_stops_both_solvers_and_is_raised(self, monkeypatch):
        calls, lock = [], threading.Lock()
        solve = experiments.w2_assignment

        def third_call_fails(x, y, out=None):
            with lock:
                calls.append(x)
                if len(calls) == 3:
                    raise RuntimeError("third solve failed")
            return solve(x, y, out=out)

        monkeypatch.setattr(experiments, "w2_assignment", third_call_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third solve failed"):
            empirical_measure_rate(dim=5, xis=[64], mc_reps=50, seed=3)
        assert threading.active_count() == before
        # the other solver finishes the solve it holds, then takes no more
        assert len(calls) <= 4


class TestReports:
    def _table(self):
        return ErrorTable(
            [
                ErrorRow(2.0**-4, 1.0e-3, 1e-5, 100),
                ErrorRow(2.0**-3, 1.5e-3, 2e-5, 100),
                ErrorRow(2.0**-2, 2.2e-3, 3e-5, 100),
            ]
        )

    def test_csv_format(self):
        text = self._table().csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "resolution,rms_error,stderr,samples"
        assert lines[1].split(",")[3] == "100"
        assert float(lines[1].split(",")[1]) == 1.0e-3

    def test_write_files(self, tmp_path):
        report = ExperimentReport(
            "demo", {"seed": 1}, self._table(), runtime_seconds=0.5
        )
        report.write(tmp_path)
        assert (tmp_path / "demo.csv").exists()
        summary = json.loads((tmp_path / "demo.summary.json").read_text())
        assert summary["experiment"] == "demo"
        assert summary["config"] == {"seed": 1}
        assert summary["slope"] == pytest.approx(report.slope)
        assert "runtime_seconds" in summary
        gp = (tmp_path / "demo.gp").read_text()
        assert "plot 'demo.csv'" in gp
        assert "logscale xy 2" in gp
        assert "ref(x)" in gp

    def test_degenerate_report_has_null_slope(self, tmp_path):
        table = ErrorTable([ErrorRow(1.0, 0.0, 0.0, 4)])
        report = ExperimentReport("flat", {}, table, runtime_seconds=0.1)
        assert report.slope is None
        report.write(tmp_path)
        summary = json.loads((tmp_path / "flat.summary.json").read_text())
        assert summary["slope"] is None


class TestReplicates:
    def test_pooled_samples_and_determinism(self):
        kw = dict(
            particles=20, delta_ref=2.0**-9, deltas=[2.0**-8, 2.0**-7],
            tau=2.0**-5, alpha=0.5, horizon=0.25, seed=50,
        )
        single = strong_error_vs_dt(example51(), **kw)
        pooled = strong_error_vs_dt(example51(), replicates=3, **kw)
        assert [r.samples for r in single.rows] == [20, 20]
        assert [r.samples for r in pooled.rows] == [60, 60]
        again = strong_error_vs_dt(example51(), replicates=3, **kw)
        assert pooled.csv_text() == again.csv_text()

    def test_first_replicate_matches_single_run(self):
        # replicate r consumes master seed seed + r, so the pooled study
        # embeds the single-seed study as its first block
        kw = dict(
            xis=[8, 32], delta=2.0**-7, tau=2.0**-5, alpha=0.5,
            horizon=0.25, seed=60,
        )
        first = chaos_error_vs_particles(example51(), **kw)
        shifted = chaos_error_vs_particles(
            example51(), xis=[8, 32], delta=2.0**-7, tau=2.0**-5, alpha=0.5,
            horizon=0.25, seed=61,
        )
        pooled = chaos_error_vs_particles(example51(), replicates=2, **kw)
        expect = math.sqrt(
            (first.rows[0].rms_error ** 2 + shifted.rows[0].rms_error ** 2) / 2
        )
        assert pooled.rows[0].rms_error == pytest.approx(expect, rel=1e-12)

    def test_replicates_validated(self):
        with pytest.raises(ConfigError):
            strong_error_vs_dt(
                example51(), particles=4, delta_ref=2.0**-7,
                deltas=[2.0**-6], tau=2.0**-5, alpha=0.5, horizon=0.25,
                seed=1, replicates=0,
            )

    @pytest.mark.parametrize("seed", [3.5, 2**64])
    def test_a_master_seed_is_neither_truncated_nor_wrapped(self, seed, monkeypatch):
        # 3.5 would run seed 3's path and 2**64 seed 0's
        monkeypatch.setattr(scheme, "stream_seeds", forbidden)
        with pytest.raises(GridError, match=f"seed .* got {seed}"):
            chaos_error_vs_particles(
                example51(), xis=[4, 8], delta=2.0**-7, tau=2.0**-5, alpha=0.5,
                horizon=0.25, seed=seed, replicates=2,
            )


class TestSeedReproducibility:
    def test_rate_table_bit_exact(self):
        a = empirical_measure_rate(dim=1, xis=[8, 16], mc_reps=5, seed=9)
        b = empirical_measure_rate(dim=1, xis=[8, 16], mc_reps=5, seed=9)
        assert a.csv_text() == b.csv_text()

    def test_chaos_table_bit_exact(self):
        kw = dict(
            xis=[4, 8], delta=2.0**-6, tau=2.0**-5, alpha=0.5, horizon=0.25,
            seed=14,
        )
        a = chaos_error_vs_particles(example51(), **kw)
        b = chaos_error_vs_particles(example51(), **kw)
        assert a.csv_text() == b.csv_text()
