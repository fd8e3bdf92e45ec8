"""Integrator step, delay indexing, full runs, and export determinism."""

import dataclasses
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvnsdde import (
    Grid,
    GridError,
    OverflowAbort,
    ParticleGrid,
    ValidationFailure,
    coarsen,
    cubic_no_mf,
    em_step,
    example51,
    generate,
    linear_meanfield,
    scheme,
    simulate,
    simulate_terminal,
    tame_drift,
    validate,
)
from mvnsdde._g17 import BLOCK_VALUES
from mvnsdde.model import ModelSpec
from mvnsdde.noise import chunk_steps, stream_seeds
from mvnsdde.scheme import Divergence, MomentMax, Stepper, coupled_pass
from oracles import (
    column, moment_monitor, one_system, planar_meanfield, recorded, run_on,
    total_steps,
)


def _csv_text(grid):
    buf = io.StringIO()
    grid.write_csv(buf)
    return buf.getvalue()


def _trivial_model(name="still"):
    return ModelSpec(
        name=name,
        state_dim=1,
        bm_dim=1,
        neutral=lambda y: np.zeros_like(y),
        drift=lambda x, y, mu: np.zeros_like(x),
        diffusion=lambda x, y, mu: np.zeros(x.shape + (1,)),
        initial_segment=lambda t: np.array([1.5]),
        contraction=0.5,
        growth_power=0.0,
    )


class TestTameDrift:
    def test_zero_vector(self):
        out = tame_drift(np.array([0.0, 0.0]), 0.25, 0.5)
        assert np.array_equal(out, np.zeros(2))

    def test_scalar_example(self):
        # 2 / (1 + 0.25^0.5 * 2) = 1, exactly
        out = tame_drift(np.array([2.0]), 0.25, 0.5)
        assert out[0] == 1.0

    def test_huge_drift_capped(self):
        out = tame_drift(np.array([1e6]), 0.01, 0.5)
        assert abs(out[0]) < 0.01**-0.5

    def test_huge_scalar_drift_capped_not_zeroed(self):
        # |b| * |b| overflows above ~1.3e154; the cap is delta^-alpha = 2
        out = tame_drift(np.array([1e200]), 0.25, 0.5)
        assert out.tolist() == [2.0]
        batch = tame_drift(np.array([[1e200], [-1.7e308], [3.0]]), 0.25, 0.5)
        assert batch[:2, 0].tolist() == [2.0, -2.0]
        assert batch[2, 0] == 3.0 / (1.0 + 0.5 * 3.0)

    def test_huge_vector_drift_capped_not_zeroed(self):
        for b in ([[1e200, 1e200, 0.0]], [[1.7e308, -1.7e308, 1e308]]):
            out = tame_drift(np.array(b), 0.25, 0.5)
            np.testing.assert_allclose(np.linalg.norm(out), 2.0, rtol=1e-12)
            np.testing.assert_array_equal(np.sign(out), np.sign(b))
        single = tame_drift(np.array([1e200, 1e200, 0.0]), 0.25, 0.5)
        np.testing.assert_allclose(single, [2**0.5, 2**0.5, 0.0], rtol=1e-12)
        # rows whose norm is finite keep the plain formula bit for bit, and a
        # non-finite drift stays non-finite
        rows = np.array([[3.0, 4.0, 0.0], [1e200, 0.0, 1e200], [np.inf, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            out = tame_drift(rows, 0.25, 0.5)
        assert out[0].tolist() == (rows[0] / (1.0 + 0.5 * 5.0)).tolist()
        np.testing.assert_allclose(np.linalg.norm(out[1]), 2.0, rtol=1e-12)
        assert not np.isfinite(out[2]).all()

    def test_batch_matches_single(self):
        vs = np.array([[1.0, -2.0], [100.0, 0.5], [0.0, 0.0]])
        batch = tame_drift(vs, 0.1, 0.4)
        for i in range(3):
            single = tame_drift(vs[i], 0.1, 0.4)
            assert np.array_equal(batch[i], single)

    def test_whole_vector_norm_shared(self):
        # one scalar denominator per vector, not componentwise
        v = np.array([3.0, 4.0])
        out = tame_drift(v, 0.25, 0.5)
        denom = 1.0 + 0.5 * 5.0
        np.testing.assert_allclose(out, v / denom, rtol=0, atol=0)

    # magnitude floor 1e-3 keeps delta^alpha * |v| >= 1e-6, where the real
    # margins of the bounds dominate float rounding and exact comparisons
    # are sound
    @given(
        st.floats(min_value=1e-3, max_value=1e10),
        st.floats(min_value=1e-6, max_value=0.99),
        st.floats(min_value=1e-3, max_value=0.5),
        st.integers(min_value=1, max_value=4),
        st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_direction_consistency(self, mag, delta, alpha, dim, seed):
        g = np.random.default_rng(seed)
        v = g.normal(size=dim)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return
        v *= mag / norm
        out = tame_drift(v, delta, alpha)
        out_norm = np.linalg.norm(out)
        assert out_norm <= min(delta**-alpha, np.linalg.norm(v))
        assert np.all(np.sign(out) == np.sign(v))
        assert np.dot(out, v) >= 0.0
        assert np.linalg.norm(out - v) <= delta**alpha * np.linalg.norm(v) ** 2


class TestDelayedState:
    """The current state and its lookback delay_steps back, read by indexing."""

    def _grid(self, delta=0.25, tau=0.5, horizon=2.0, particles=2):
        model = example51()
        params = Grid(delta=delta, tau=tau, alpha=0.5, horizon=horizon)
        noise = np.zeros((params.total_steps, particles, 1))
        return run_on(model, params, noise), params

    def test_at_start(self):
        grid, params = self._grid()
        cur, dly = column(grid, 0)[0], column(grid, -grid.delay_steps)[0]
        assert cur[0] == 0.0  # segment value at t = 0
        assert dly[0] == -params.tau  # segment value one delay back

    def test_at_segment_boundary(self):
        grid, _ = self._grid()
        n0 = grid.delay_steps
        cur, dly = column(grid, n0)[1], column(grid, 0)[1]
        assert np.array_equal(cur, grid.states[n0 + n0, 1])
        assert dly[0] == 0.0  # segment value at t = 0

    def test_interior_indexing(self):
        grid, _ = self._grid()
        n0 = grid.delay_steps
        cur, dly = column(grid, n0 + 3)[0], column(grid, 3)[0]
        assert np.array_equal(cur, grid.states[n0 + n0 + 3, 0])
        assert np.array_equal(dly, grid.states[n0 + 3, 0])

    def test_negative_index_rejected(self):
        # a negative index has its lookback before the initial segment
        grid, _ = self._grid()
        with pytest.raises(IndexError):
            column(grid, -1 - grid.delay_steps)


class TestEmStep:
    def test_all_zero_coefficients_identity(self):
        model = _trivial_model()
        params = Grid(delta=0.25, tau=0.5, alpha=0.5, horizon=1.0)
        cur = np.arange(4.0).reshape(4, 1)
        mu = one_system(cur)
        neutral = model.neutral(cur), model.neutral(cur)
        out = em_step(
            cur, cur, model, params, mu, np.ones((4, 1)), neutral, np.empty_like(cur)
        )
        assert np.array_equal(out, cur)

    def test_hand_computed_first_step(self):
        # example51 from the identity segment, one particle, no noise:
        # recompute the tamed update by direct scalar arithmetic
        model = example51()
        delta = 1.0 / 32.0
        params = Grid(delta=delta, tau=delta, alpha=0.5, horizon=1.0)
        cur = np.array([[0.0]])
        dly = np.array([[-delta]])
        dly_next = np.array([[0.0]])
        mu = one_system(cur)
        neutral = model.neutral(dly), model.neutral(dly_next)
        out = em_step(
            cur, dly, model, params, mu, np.zeros((1, 1)), neutral, np.empty_like(cur)
        )

        b = 0.5 * (-delta) - 0.125 * (-delta) ** 3
        b_tamed = b / (1.0 + delta**0.5 * abs(b))
        expect = -(0.5 * delta) + b_tamed * delta  # D-terms: 0 - (-0.5*(-d))
        assert out[0, 0] == expect
        assert out[0, 0] == pytest.approx(-0.0161118, abs=5e-8)

    def test_noise_displacement_linear(self):
        model = dataclasses.replace(
            _trivial_model(), diffusion=lambda x, y, mu: np.full(x.shape + (1,), 2.0)
        )
        params = Grid(delta=0.25, tau=0.5, alpha=0.5, horizon=1.0)
        cur = np.zeros((3, 1))
        mu = one_system(cur)
        neutral = model.neutral(cur), model.neutral(cur)
        db = np.array([[0.1], [-0.2], [0.4]])
        d1 = em_step(cur, cur, model, params, mu, db, neutral, np.empty_like(cur)) - cur
        d2 = em_step(
            cur, cur, model, params, mu, 2.0 * db, neutral, np.empty_like(cur)
        ) - cur
        assert np.array_equal(d2, 2.0 * d1)

    def test_frozen_measure_order_independence(self):
        model = example51()
        params = Grid(delta=2.0**-6, tau=2.0**-5, alpha=0.5, horizon=1.0)
        g = np.random.default_rng(1)
        cur = g.normal(size=(16, 1))
        dly = g.normal(size=(16, 1))
        dly_next = g.normal(size=(16, 1))
        db = g.normal(size=(16, 1)) * 0.1
        mu = one_system(cur)
        neutral = model.neutral(dly), model.neutral(dly_next)
        batch = em_step(cur, dly, model, params, mu, db, neutral, np.empty_like(cur))
        for order in (range(16), reversed(range(16))):
            single = np.empty_like(batch)
            for a in order:
                # particle a's row of the frozen measure
                row = SimpleNamespace(points=cur, mean=mu.mean[a : a + 1])
                one = slice(a, a + 1)
                single[a] = em_step(
                    cur[one], dly[one], model, params, row, db[one],
                    (model.neutral(dly[one]), model.neutral(dly_next[one])),
                    np.empty((1, 1)),
                )[0]
            assert np.array_equal(single, batch)


class TestSimulate:
    def test_single_particle_self_interaction(self):
        # with one particle the measure is the particle's own state; replay
        # the recursion with plain floats as an independent oracle
        model = example51()
        delta = 2.0**-6
        params = Grid(delta=delta, tau=2.0**-5, alpha=0.5, horizon=0.5)
        noise = generate(21, 1, 1, delta, 0.5)
        grid = simulate(model, params, 21, 1)

        n0 = params.delay_steps
        path = [(i - n0) * delta for i in range(n0 + 1)]
        sq = delta**0.5
        for n in range(params.total_steps):
            x, y, y1 = path[n + n0], path[n], path[n + 1]
            b = x - x**3 + 0.5 * y - 0.125 * y**3 + x  # mean is own state
            b /= 1.0 + sq * abs(b)
            sig = x + 0.5 * y
            path.append(
                -0.5 * y1 + (x + 0.5 * y + b * delta + sig * noise[n, 0][0])
            )
        got = grid.states[:, 0, 0]
        np.testing.assert_allclose(got, path, rtol=1e-13, atol=1e-16)

    def test_deterministic_linear_decay(self):
        # sigma0 = 0, no mean-field term: plain explicit Euler on dx = -x dt
        # (taming off; its relative bias delta^alpha |b| ~ 3% would swamp
        # the Euler error at this step size)
        model = linear_meanfield(a_coef=-1.0, b_coef=0.0, sigma0=0.0, x0=1.0)
        delta = 2.0**-10
        params = Grid(
            delta=delta, tau=2.0**-5, alpha=0.5, horizon=1.0, taming=False
        )
        grid = run_on(model, params, np.zeros((params.total_steps, 1, 1)))
        assert grid.terminal[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_zero_equilibrium(self):
        model = dataclasses.replace(
            example51(), initial_segment=lambda t: np.array([0.0])
        )
        params = Grid(delta=2.0**-6, tau=2.0**-5, alpha=0.5, horizon=0.5)
        grid = run_on(model, params, np.zeros((params.total_steps, 5, 1)))
        assert np.all(grid.states == 0.0)

    def test_segment_rows_match_initial_path(self):
        model = example51()
        params = Grid(delta=2.0**-7, tau=2.0**-5, alpha=0.5, horizon=0.25)
        grid = simulate(model, params, 9, 3)
        n0 = params.delay_steps
        for n in range(-n0, 1):
            expect = model.initial_segment(n * params.delta)
            np.testing.assert_array_equal(column(grid, n), np.tile(expect, (3, 1)))

    def test_grid_point_identity_replay(self):
        # the stored row n is exactly what later steps consume: replaying
        # any step from stored rows reproduces the next stored row
        model = example51()
        params = Grid(delta=2.0**-6, tau=2.0**-5, alpha=0.5, horizon=0.5)
        noise = generate(33, 8, 1, 2.0**-6, 0.5)
        grid = simulate(model, params, 33, 8)
        n0 = params.delay_steps
        for n in (0, 1, n0, params.total_steps - 1):
            mu = one_system(column(grid, n))
            dly, dly_next = column(grid, n - n0), column(grid, n + 1 - n0)
            replay = em_step(
                column(grid, n), dly, model, params, mu, noise[n],
                (model.neutral(dly), model.neutral(dly_next)), np.empty_like(dly),
            )
            assert np.array_equal(replay, column(grid, n + 1))

    def test_terminal_run_matches_the_whole_grid(self):
        model = example51()
        params = Grid(delta=2.0**-8, tau=2.0**-5, alpha=0.5, horizon=1.0)
        full = simulate(model, params, 77, 40)
        ring = simulate_terminal(model, params, 77, 40)
        assert np.array_equal(full.terminal, ring)

    @pytest.mark.parametrize("model", [example51(), linear_meanfield()])
    def test_streamed_path_equals_the_whole_grid(self, model):
        # 3000 particles take 43-step blocks, so the 128 steps arrive in 3
        params = Grid(delta=2.0**-7, tau=2.0**-5, alpha=0.5, horizon=1.0)
        seed, particles = 2**64 - 3, 3000
        assert -(-params.total_steps // chunk_steps(particles, 1)) == 3
        noise = generate(seed, particles, 1, params.delta, 1.0)
        whole = run_on(model, params, noise)
        grid = simulate(model, params, seed, particles)
        assert grid.states.tobytes() == whole.states.tobytes()

    def test_permutation_equivariance_exact_without_mean_field(self):
        model = cubic_no_mf(x0=1.0)
        params = Grid(delta=2.0**-6, tau=0.5, alpha=0.5, horizon=1.0)
        noise = generate(13, 12, 1, 2.0**-6, 1.0)
        base = run_on(model, params, noise)

        perm = np.random.default_rng(0).permutation(12)
        out = run_on(model, params, np.ascontiguousarray(noise[:, perm, :]))
        assert np.array_equal(out.states, base.states[:, perm, :])

    def test_permutation_equivariance_mean_field(self):
        # the measure mean is a float reduction, so permuting operands can
        # move the last ulp; everything else is elementwise
        model = example51()
        params = Grid(delta=2.0**-6, tau=2.0**-5, alpha=0.5, horizon=1.0)
        noise = generate(13, 12, 1, 2.0**-6, 1.0)
        base = run_on(model, params, noise)
        perm = np.random.default_rng(1).permutation(12)
        out = run_on(model, params, np.ascontiguousarray(noise[:, perm, :]))
        np.testing.assert_allclose(
            out.states, base.states[:, perm, :], rtol=1e-12, atol=1e-15
        )

    def test_validation_failure_raises(self):
        model = example51()
        params = Grid(delta=0.3, tau=1.0, alpha=0.5, horizon=1.0)
        with pytest.raises(ValidationFailure):
            simulate(model, params, 0, 2)


class TestStepper:
    def _setup(self, particles=30, delta=2.0**-7, seed=5):
        model = example51()
        params = Grid(delta=delta, tau=2.0**-5, alpha=0.5, horizon=1.0)
        segment = (seed, particles)
        return model, params, segment, generate(seed, particles, 1, delta, 1.0)

    @given(cuts=st.lists(st.integers(0, 128), max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_resumes_across_any_block_split(self, cuts):
        model, params, segment, noise = self._setup()
        whole = simulate(model, params, *segment)
        rows = ParticleGrid(params)
        run = Stepper(model, params, [segment], record=rows)
        edges = [0] + sorted(cuts) + [params.total_steps]
        for a, b in zip(edges, edges[1:]):
            run.advance(noise[a:b])
        assert rows.states.tobytes() == whole.states.tobytes()
        assert run.terminal.tobytes() == whole.terminal.tobytes()

    def test_moment_matches_monitor_on_full_grid(self):
        for p in (2, 4, 12):
            model, params, segment, noise = self._setup(particles=17, seed=p)
            moment = MomentMax(p)
            Stepper(model, params, [segment], record=moment).advance(noise)
            mon = moment_monitor(simulate(model, params, *segment), p)
            assert moment.value == mon.value
            assert moment.index == mon.argmax_index

    def test_moment_argmax_in_initial_segment(self):
        # a constant path ties on every row; the first one, -delay_steps, wins
        model = _trivial_model()
        params = Grid(delta=0.25, tau=0.5, alpha=0.5, horizon=1.0)
        moment = MomentMax(2)
        Stepper(model, params, [(0, 3)], record=moment)
        assert (moment.value, moment.index) == (2.25, -2)

    def test_block_errors(self):
        model, params, (seed, particles), noise = self._setup()
        run = Stepper(model, params, [(seed, particles)])
        with pytest.raises(GridError):
            run.advance(np.zeros((2, particles + 1, 1)))
        with pytest.raises(GridError):
            run.advance(np.zeros((params.total_steps + 1, particles, 1)))

    def test_terminal_before_the_last_step_errors(self):
        model, params, segment, noise = self._setup()
        run = Stepper(model, params, [segment])
        run.advance(noise[:-1])
        with pytest.raises(GridError, match="stopped at step"):
            run.terminal
        run.advance(noise[-1:])
        assert run.terminal.shape == (segment[1], 1)

    # a Stepper does not validate; the pass that builds it does

    def test_validates_every_segment(self):
        model, params, segment, _ = self._setup()
        with pytest.raises(ValidationFailure, match="alpha"):
            coupled_pass(model, [segment], [dataclasses.replace(params, alpha=0.9)])
        with pytest.raises(ValidationFailure, match="particles must be >= 1"):
            coupled_pass(model, [segment, (6, 0)], [params])

    def test_validates_a_run_once(self, monkeypatch):
        # 3 numbers a block put each seed of 3 particles in a pass of its own
        model, params, _, _ = self._setup(particles=3)
        seen = []

        def counted(model, grids, segments):
            seen.append((grids, segments))
            return validate(model, grids, segments)

        monkeypatch.setattr(scheme, "validate", counted)
        monkeypatch.setattr("mvnsdde.noise._CHUNK_ELEMENTS", 3)
        segments = [(seed, 3) for seed in range(8)]
        coupled_pass(model, segments, [params])
        assert seen == [([params], segments)]

    def test_a_run_without_segments_is_refused(self):
        model, params, _, _ = self._setup()
        with pytest.raises(ValidationFailure, match="at least one segment"):
            coupled_pass(model, [], [params])


class TestRecord:
    """A run hands its record every row once, in grid index order."""

    SEGMENT = (8, 4)

    def _params(self, **changes):
        params = Grid(delta=2.0**-6, tau=2.0**-5, alpha=0.5, horizon=0.25)
        return dataclasses.replace(params, **changes)

    def test_every_row_once_in_index_order(self):
        model, params = example51(), self._params()
        seen = []
        run = Stepper(
            model, params, [self.SEGMENT],
            record=lambda row, n: seen.append((n, row.copy())),
        )
        n0, total = params.delay_steps, params.total_steps
        # the initial segment is recorded as the run is built
        assert [n for n, _ in seen] == list(range(-n0, 1))
        noise = generate(*self.SEGMENT, 1, params.delta, params.horizon)
        for a, b in ((0, 3), (3, 3), (3, total)):
            run.advance(noise[a:b])
        assert [n for n, _ in seen] == list(range(-n0, total + 1))
        rows = np.stack([row for _, row in seen])
        assert rows.tobytes() == simulate(model, params, *self.SEGMENT).states.tobytes()

    def test_nothing_is_recorded_before_validation(self):
        seen = []
        with pytest.raises(ValidationFailure):
            coupled_pass(
                example51(), [self.SEGMENT], [self._params(alpha=0.9)],
                [lambda row, n: seen.append(n)],
            )
        assert seen == []

    def test_a_non_finite_row_aborts_unrecorded_unless_told_to_go_on(self):
        # a run goes on past a non-finite row exactly when its record is a
        # Divergence, which records that row
        model = dataclasses.replace(
            _trivial_model(), diffusion=lambda x, y, mu: np.ones(x.shape + (1,))
        )
        params = self._params(tau=0.5, delta=0.25, horizon=1.0)
        increments = np.zeros((4, 4, 1))
        increments[1, 2, 0] = np.inf
        seen = []
        run = Stepper(
            model, params, [self.SEGMENT], record=lambda row, n: seen.append(n)
        )
        with pytest.raises(OverflowAbort) as info:
            run.advance(increments)
        assert info.value.step == 2
        assert seen == [-2, -1, 0, 1]
        divergence = Divergence()
        run = Stepper(model, params, [self.SEGMENT], record=divergence)
        run.advance(increments)
        assert run.steps_done == 4
        assert divergence.first_step == 2
        assert divergence.diverged.tolist() == [False, False, True, False]
        assert not np.isfinite(run.terminal).all()


class TestSegments:
    """Several particle systems as row segments of one Stepper."""

    GRID = Grid(delta=2.0**-7, tau=2.0**-5, alpha=0.5, horizon=0.5)
    SEGMENTS = [(3, 5), (2**64 - 1, 17), (3, 9)]

    def _paths(self):
        grid = self.GRID
        return [generate(*seg, 1, grid.delta, grid.horizon) for seg in self.SEGMENTS]

    def test_each_segment_ends_where_its_own_run_does(self):
        for model in (example51(), linear_meanfield()):
            batch = Stepper(model, self.GRID, self.SEGMENTS)
            assert batch.bounds == ((0, 5), (5, 22), (22, 31))
            increments = np.concatenate(self._paths(), axis=1)
            batch.advance(increments[:20])
            batch.advance(increments[20:])
            terminal = batch.terminal
            for (start, stop), seg in zip(batch.bounds, self.SEGMENTS):
                alone = simulate(model, self.GRID, *seg).terminal
                assert terminal[start:stop].tobytes() == alone.tobytes()

    def test_a_run_of_several_segments_takes_a_record(self):
        model = example51()
        rows = ParticleGrid(self.GRID)
        run = Stepper(model, self.GRID, self.SEGMENTS, record=rows)
        run.advance(np.concatenate(self._paths(), axis=1))
        for (start, stop), seg in zip(run.bounds, self.SEGMENTS):
            alone = simulate(model, self.GRID, *seg).states
            assert rows.states[:, start:stop].tobytes() == alone.tobytes()

    def test_overflow_names_the_segments_seed_and_particles(self):
        model = dataclasses.replace(
            _trivial_model(), diffusion=lambda x, y, mu: np.ones(x.shape + (1,))
        )
        run = Stepper(model, self.GRID, self.SEGMENTS)
        increments = np.zeros((4, 31, 1))
        increments[2, [5 + 1, 5 + 3, 22 + 2], 0] = np.inf
        with pytest.raises(OverflowAbort, match="seed 18446744073709551615") as info:
            run.advance(increments)
        abort = info.value
        assert (abort.step, abort.seed) == (3, 2**64 - 1)
        assert abort.delta == self.GRID.delta
        assert abort.particles.tolist() == [1, 3]


class TestCoupledPass:
    """A pass streams its first grid's path, so every grid must fit that path."""

    def _params(self, **changes):
        params = Grid(delta=2.0**-7, tau=2.0**-5, alpha=0.5, horizon=0.5)
        return dataclasses.replace(params, **changes)

    def _refused(
        self, monkeypatch, grids, match, records=None, error=ValidationFailure
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a refused pass drew noise")

        monkeypatch.setattr(scheme, "stream_seeds", forbidden)
        with pytest.raises(error, match=match):
            coupled_pass(example51(), [(5, 6)], grids, records)

    def test_every_run_needs_the_first_runs_horizon(self, monkeypatch):
        coarse = self._params(delta=2.0**-6, horizon=0.25)
        self._refused(monkeypatch, [self._params(), coarse], "horizon")

    def test_a_run_finer_than_the_path_is_refused(self, monkeypatch):
        finer = self._params(delta=2.0**-8)
        self._refused(monkeypatch, [self._params(), finer], "power of two")

    def test_a_step_ratio_of_three_is_refused(self, monkeypatch):
        # both grids are valid: 0.75 is 96 steps of 2**-7 and 32 of 3 * 2**-7
        fine = self._params(tau=3 * 2.0**-5, horizon=0.75)
        coarse = self._params(delta=3 * 2.0**-7, tau=3 * 2.0**-5, horizon=0.75)
        self._refused(monkeypatch, [fine, coarse], "power of two")

    def test_each_grid_takes_one_record(self, monkeypatch):
        # not truncated to the shorter list: refused before any run is built
        seen = []
        grids = [self._params(), self._params(delta=2.0**-6)]
        for records in ([], [None], [None, None, lambda row, n: seen.append(n)]):
            self._refused(
                monkeypatch, grids, "argument 2 is (shorter|longer)", records,
                ValueError,
            )
        assert seen == []

    def test_a_pass_needs_a_grid(self, monkeypatch):
        self._refused(monkeypatch, [], "a pass needs at least one grid")

    @given(
        segments=st.lists(
            st.tuples(st.sampled_from([4, 2**64 - 1]), st.integers(1, 6)),
            min_size=1, max_size=6,
        ),
        coarse=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_grouping_of_the_seeds_gives_each_segments_own_bits(
        self, segments, coarse
    ):
        # widest numbers a block put each seed in a pass of its own, so a
        # seed that recurs after another runs in two passes; 4 * widest fit
        # both seeds in one pass, with or without a coarse grid
        model, fine = example51(), self._params(horizon=2.0**-4)
        grids = [fine, self._params(delta=2.0**-6, horizon=2.0**-4)][: 1 + coarse]
        seeds = [seed for seed, _ in segments]
        widest = max(n for _, n in segments)
        alone = [coupled_pass(model, [segment], grids) for segment in segments]
        changes = sum(a != b for a, b in zip(seeds, seeds[1:]))
        for budget, passes in ((widest, 1 + changes), (4 * widest, 1)):
            calls = []

            def counted(columns, *args):
                calls.append(columns)
                return stream_seeds(columns, *args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("mvnsdde.noise._CHUNK_ELEMENTS", budget)
                patch.setattr(scheme, "stream_seeds", counted)
                terminals = coupled_pass(model, segments, grids)
            assert len(calls) == passes
            start = 0
            for (seed, n), own in zip(segments, alone):
                for terminal, own_terminal in zip(terminals, own):
                    rows = terminal[start : start + n]
                    assert rows.tobytes() == own_terminal.tobytes()
                ring = simulate_terminal(model, fine, seed, n)
                assert terminals[0][start : start + n].tobytes() == ring.tobytes()
                start += n

    def test_each_run_ends_where_its_own_run_does(self):
        model, fine = example51(), self._params()
        coarse = self._params(delta=2.0**-6)
        terminals = coupled_pass(model, [(5, 6)], [fine, coarse])
        path = generate(5, 6, 1, fine.delta, fine.horizon)
        for terminal, params, factor in zip(terminals, (fine, coarse), (1, 2)):
            alone = run_on(model, params, coarsen(path, factor))
            assert terminal.tobytes() == alone.terminal.tobytes()


class TestTwoDimensional:
    """A 2-D state under 2-D noise: norm taming, the matrix noise term and
    blocks that are strided views in every component."""

    # 1000 particles x 2 components take 65-step blocks: the 128 steps
    # arrive in 2
    SEGMENT = (2**63 + 7, 1000)

    def _params(self, **changes):
        params = Grid(delta=2.0**-7, tau=2.0**-5, alpha=0.5, horizon=1.0)
        return dataclasses.replace(params, **changes)

    def test_streamed_run_equals_the_whole_grid(self):
        model, params = planar_meanfield(), self._params()
        assert -(-params.total_steps // chunk_steps(self.SEGMENT[1], 2)) == 2
        noise = generate(*self.SEGMENT, 2, params.delta, 1.0)
        whole = run_on(model, params, noise)
        assert np.all(np.isfinite(whole.states))
        grid = simulate(model, params, *self.SEGMENT)
        assert grid.states.tobytes() == whole.states.tobytes()

    def test_coarse_run_sees_the_coarsened_path(self):
        model, fine = planar_meanfield(), self._params()
        coarse = self._params(delta=2.0**-6)
        rows = ParticleGrid(coarse)
        coupled_pass(model, [self.SEGMENT], [fine, coarse], [None, rows])
        noise = generate(*self.SEGMENT, 2, fine.delta, 1.0)
        alone = run_on(model, coarse, coarsen(noise, 2))
        assert rows.states.tobytes() == alone.states.tobytes()


class TestOverflow:
    def _setup(self, taming, horizon=1.0):
        model = cubic_no_mf(x0=5.0)
        params = Grid(
            delta=0.25, tau=0.5, alpha=0.5, horizon=horizon, taming=taming
        )
        return model, params

    def test_untamed_aborts_with_prefix(self):
        # the doubly exponential cubic recursion needs ~7 steps to pass the
        # float64 ceiling, hence the longer horizon
        model, params = self._setup(taming=False, horizon=4.0)
        with np.errstate(all="ignore"):
            with pytest.raises(OverflowAbort) as info:
                simulate(model, params, 11, 20)
        abort = info.value
        assert abort.step >= 1
        assert abort.seed == 11
        assert abort.particles.size > 0
        assert abort.prefix is not None
        assert np.all(np.isfinite(abort.prefix.states))
        assert abort.prefix.states.shape[0] == params.delay_steps + abort.step

    def test_tamed_run_completes(self):
        model, params = self._setup(taming=True)
        grid = simulate(model, params, 11, 20)
        assert np.all(np.isfinite(grid.states))

    def test_tracked_run_reports_divergence(self):
        model, params = self._setup(taming=False)
        divergence = Divergence()
        coupled_pass(model, [(11, 20)], [params], [divergence])
        assert divergence.diverged.mean() == 1.0
        assert divergence.first_step is not None


class TestCsvExport:
    def _small_grid(self):
        model = example51()
        params = Grid(delta=0.25, tau=0.5, alpha=0.5, horizon=0.5)
        return simulate(model, params, 4, 2)

    def test_header_and_shape(self):
        grid = self._small_grid()
        lines = _csv_text(grid).strip().split("\n")
        assert lines[0] == "t,particle,comp0"
        assert len(lines) == 1 + (grid.delay_steps + total_steps(grid) + 1) * 2

    def test_first_rows_are_segment(self):
        grid = self._small_grid()
        lines = _csv_text(grid).strip().split("\n")
        assert lines[1] == "-0.5,1,-0.5"
        assert lines[2] == "-0.5,2,-0.5"

    def test_values_round_trip(self, tmp_path):
        grid = self._small_grid()
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        n0 = grid.delay_steps
        for i, row in enumerate(rows):
            n = i // 2 - n0
            a = i % 2
            assert float(row[0]) == n * grid.grid.delta
            assert int(row[1]) == a + 1
            assert float(row[2]) == column(grid, n)[a][0]

    def test_rerun_is_byte_identical(self):
        a = _csv_text(self._small_grid())
        b = _csv_text(self._small_grid())
        assert a == b


def reference_csv_text(grid):
    """The line-by-line f-string export that ``write_csv`` replaced."""
    _, particles, dim = grid.states.shape
    header = "t,particle," + ",".join(f"comp{i}" for i in range(dim))
    lines = [header]
    n0 = grid.delay_steps
    for row_i in range(grid.states.shape[0]):
        t = (row_i - n0) * grid.grid.delta
        for a in range(particles):
            vals = ",".join(f"{x:.17g}" for x in grid.states[row_i, a])
            lines.append(f"{t:.17g},{a + 1},{vals}")
    return "\n".join(lines) + "\n"


# -0.0, smallest and largest subnormals, +-inf, quiet nan and a negative nan
# with a payload, as float64 bit patterns
_SPECIAL_BITS = [
    0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
    0xFFF8000000000001,
]


class TestStreamingExport:
    @given(
        data=st.data(),
        dim=st.integers(1, 3),
        particles=st.integers(1, 40),
        delay_steps=st.integers(0, 4),
        total_steps=st.integers(0, 6),
        delta=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_loop(
        self, data, dim, particles, delay_steps, total_steps, delta
    ):
        bits = data.draw(
            arrays(
                np.uint64,
                (delay_steps + total_steps + 1, particles, dim),
                elements=st.one_of(
                    st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS)
                ),
            )
        )
        params = Grid(
            delta=delta, tau=delay_steps * delta, alpha=0.5,
            horizon=total_steps * delta,
        )
        grid = recorded(bits.view(np.float64), params)
        assert grid.delay_steps == delay_steps
        buf = io.StringIO()
        grid.write_csv(buf)
        assert buf.getvalue() == reference_csv_text(grid)

    def test_writes_whole_time_rows_within_the_block_budget(self):
        # many rows per write, one row of 2100 values per write, and a row
        # of 5000 values, more than the budget alone
        for particles, dim, rows in ((3, 2, 1500), (700, 3, 5), (5000, 1, 3)):
            params = Grid(delta=0.5, tau=0.5, alpha=0.5, horizon=(rows - 2) * 0.5)
            states = np.arange(rows * particles * dim, dtype=np.float64)
            grid = recorded(states.reshape(rows, particles, dim), params)
            writes = []

            class Recorder:
                def write(self, text):
                    writes.append(text)

            grid.write_csv(Recorder())
            assert "".join(writes) == reference_csv_text(grid)
            assert writes[0].count("\n") == 1  # the header
            budget = max(BLOCK_VALUES, particles * dim)
            for text in writes[1:]:
                lines = text.count("\n")
                assert text.endswith("\n") and lines % particles == 0
                assert 0 < lines * dim <= budget
            assert len(writes) > 2

    def test_matches_reference_on_a_dim_3_grid(self):
        # values in the range the array code formats, and a few it leaves to
        # Python, over more than one block
        rng = np.random.default_rng(3)
        states = rng.standard_normal((9, 400, 3)) * 10.0 ** rng.integers(
            -4, 17, (9, 400, 3)
        )
        states[0, :2] = [[0.0, -0.0, 1e-5], [1e17, -np.inf, np.nan]]
        params = Grid(
            delta=2.0**-7, tau=3 * 2.0**-7, alpha=0.5, horizon=5 * 2.0**-7
        )
        grid = recorded(states, params)
        assert _csv_text(grid) == reference_csv_text(grid)
