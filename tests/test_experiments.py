"""Experiment harnesses: coupling, tables, slope fits, and report files."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from mvnsdde import (
    CapacityError,
    ConfigError,
    DegenerateFitError,
    ErrorRow,
    ErrorTable,
    ParticleGrid,
    SchemeParams,
    build_report,
    chaos_error_vs_particles,
    cubic_no_mf,
    empirical_measure_rate,
    example51,
    experiments,
    fit_loglog_slope,
    linear_meanfield,
    moment_bound_vs_dt,
    moment_monitor,
    strong_error_vs_dt,
    taming_comparison,
)


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

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            strong_error_vs_dt(
                example51(), particles=4, delta_ref=2.0**-8,
                deltas=[3.0 * 2.0**-8], tau=2.0**-5, alpha=0.5, horizon=0.25,
                seed=5,
            )
        with pytest.raises(ConfigError):
            strong_error_vs_dt(
                example51(), particles=4, delta_ref=2.0**-8,
                deltas=[2.0**-9], tau=2.0**-5, alpha=0.5, horizon=0.25, seed=5,
            )

    def test_errors_grow_with_step(self):
        table = strong_error_vs_dt(
            example51(), particles=200, delta_ref=2.0**-12,
            deltas=[2.0**-10, 2.0**-9, 2.0**-8], tau=2.0**-5, alpha=0.5,
            horizon=0.5, seed=1234,
        )
        errs = table.errors()
        ses = table.stderrs()
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

    def test_requires_ascending(self):
        with pytest.raises(ConfigError):
            chaos_error_vs_particles(
                example51(), xis=[16, 8], delta=2.0**-7, tau=2.0**-5,
                alpha=0.5, horizon=0.25, seed=8,
            )

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
        ses = table.stderrs()[:-1]
        assert np.all(errs > 0.0)
        for i in range(len(errs) - 1):
            combined = math.hypot(ses[i], ses[i + 1])
            assert errs[i + 1] < errs[i] + 2.0 * combined


def _constant_grid(value, particles=3, rows=5, dim=1):
    states = np.full((rows, particles, dim), float(value))
    params = SchemeParams(
        delta=0.25, tau=0.25, alpha=0.5, particles=particles,
        horizon=(rows - 2) * 0.25, seed=0,
    )
    return ParticleGrid(states=states, params=params, model_name="test")


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
        from mvnsdde import generate, simulate

        params = SchemeParams(
            delta=2.0**-8, tau=2.0**-5, alpha=0.5, particles=500, horizon=1.0,
            seed=12,
        )
        grid = simulate(example51(), params, generate(12, 500, 1, 2.0**-8, 1.0))
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


class TestTamingComparison:
    def test_quiet_start_rarely_diverges(self):
        rep = taming_comparison(
            x0=0.0, delta_coarse=0.125, particles=200, tau=0.5, horizon=1.0,
            seed=6,
        )
        assert rep.untamed_divergence_fraction < 0.05

    def test_large_start_diverges_untamed_only(self):
        rep = taming_comparison(
            x0=5.0, delta_coarse=0.25, particles=200, tau=0.5, horizon=1.0,
            seed=2,
        )
        assert rep.untamed_divergence_fraction >= 0.99
        assert rep.tamed_max_moment < 1e2
        assert rep.first_divergence_step is not None

    def test_report_dict_round_trips_json(self):
        rep = taming_comparison(
            x0=5.0, delta_coarse=0.25, particles=20, tau=0.5, horizon=1.0,
            seed=2,
        )
        blob = json.dumps(rep.as_dict())
        assert json.loads(blob)["particles"] == 20


class TestEmpiricalMeasureRate:
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
                assignment_cap=512,
            )

    def test_five_dim_decays(self):
        table = empirical_measure_rate(dim=5, xis=[16, 64], mc_reps=10, seed=6)
        assert table.rows[0].rms_error > table.rows[1].rms_error


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
        report = build_report(
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
        report = build_report("flat", {}, table, runtime_seconds=0.1)
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
