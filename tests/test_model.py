"""Built-in models, assumption probes, and parameter validation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import mvnsdde.model
import mvnsdde.scheme

from mvnsdde import (
    ConfigError,
    EmpiricalMeasure,
    Grid,
    GridError,
    ValidationFailure,
    build_model,
    chaos_error_vs_particles,
    cubic_no_mf,
    example51,
    linear_meanfield,
    simulate,
    simulate_terminal,
    validate,
)
from mvnsdde.model import MODELS, model_keys
from mvnsdde.noise import derived_generator
from oracles import linear_meanfield_mean, one_system, planar_meanfield


def _zeros_measure(x):
    """The measure of a system the size of ``x`` with every point at 0."""
    return one_system(np.zeros_like(x))


def _params(**kw):
    defaults = dict(delta=2.0**-11, tau=2.0**-5, alpha=0.5, horizon=1.0)
    defaults.update(kw)
    return Grid(**defaults)


# the one segment of the runs below: (seed, particles)
SEGMENT = [(314, 10)]


def _forbid_draws(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a refused run drew noise")

    monkeypatch.setattr(mvnsdde.scheme, "stream_seeds", forbidden)


class TestExample51:
    def setup_method(self):
        self.model = example51()

    def test_neutral_at_zero(self):
        assert self.model.neutral(np.zeros((1, 1)))[0, 0] == 0.0

    def test_origin_is_equilibrium(self):
        x = np.zeros((1, 1))
        mu = one_system(x)
        assert self.model.drift(x, x, mu)[0, 0] == 0.0
        assert self.model.diffusion(x, x, mu)[0, 0, 0] == 0.0

    def test_cubic_cancellation(self):
        x = np.array([[1.0]])
        y = np.zeros((1, 1))
        assert self.model.drift(x, y, _zeros_measure(x))[0, 0] == 0.0

    def test_delayed_drift_value(self):
        # 0.5*(-1/32) - 0.125*(-1/32)^3 = -2^-6 + 2^-18, exact in binary
        x = np.zeros((1, 1))
        y = np.array([[-1.0 / 32.0]])
        got = self.model.drift(x, y, _zeros_measure(x))[0, 0]
        assert got == -(2.0**-6) + 2.0**-18
        assert got == pytest.approx(-0.0156212, abs=5e-8)

    def test_diffusion_value(self):
        x = np.array([[1.0]])
        y = np.array([[2.0]])
        assert self.model.diffusion(x, y, _zeros_measure(x))[0, 0, 0] == 2.0

    def test_segment_is_identity_path(self):
        for t in (-1.0 / 32.0, -0.01, 0.0):
            assert self.model.initial_segment(t) == pytest.approx([t])

    def test_segment_hoelder_on_grid(self):
        # |xi(t) - xi(r)| = |t - r| <= |t - r|^(1/2) whenever |t - r| <= 1
        ts = np.arange(-32, 1) * (1.0 / 1024.0)
        seg = np.array([self.model.initial_segment(t)[0] for t in ts])
        for i in range(len(ts)):
            gaps = np.abs(seg - seg[i])
            assert np.all(gaps <= np.sqrt(np.abs(ts - ts[i])) + 1e-15)

    def test_one_sided_drift_condition_probe(self):
        # (x1 - D(y1) - x2 + D(y2)) (b(x1,y1,mu) - b(x2,y2,mu))
        #   <= 4 (|x1-x2|^2 + |y1-y2|^2) on 1e4 uniform tuples in [-5, 5]
        g = derived_generator(424242, 17)
        x1, y1, x2, y2 = g.uniform(-5.0, 5.0, size=(4, 10_000, 1))
        mu = _zeros_measure(x1)
        lead = (x1 - self.model.neutral(y1)) - (x2 - self.model.neutral(y2))
        db = self.model.drift(x1, y1, mu) - self.model.drift(x2, y2, mu)
        lhs = np.sum(lead * db, axis=1)
        rhs = 4.0 * (
            np.sum((x1 - x2) ** 2, axis=1) + np.sum((y1 - y2) ** 2, axis=1)
        )
        assert np.all(lhs <= rhs)

    def test_mean_field_term_uses_measure_mean(self):
        x = np.zeros((2, 1))
        mu = one_system(np.array([[1.0], [3.0]]))
        got = self.model.drift(x, x, mu)
        np.testing.assert_allclose(got, [[2.0], [2.0]])


class TestLinearMeanfield:
    def test_mean_oracle(self):
        assert linear_meanfield_mean(1.0, x0=1.0) == pytest.approx(math.exp(-0.5))
        assert linear_meanfield_mean(1.0, a_coef=-1.0, b_coef=0.0, x0=2.0) == (
            pytest.approx(2.0 * math.exp(-1.0))
        )
        assert linear_meanfield_mean(5.0, x0=0.0) == 0.0

    def test_no_neutral_term(self):
        model = linear_meanfield()
        y = np.array([[3.0], [-2.0]])
        np.testing.assert_array_equal(model.neutral(y), np.zeros((2, 1)))

    def test_drift_ignores_delay(self):
        model = linear_meanfield(a_coef=-1.0, b_coef=0.5)
        x = np.array([[2.0]])
        mu = one_system(np.array([[4.0]]))
        for y in (np.array([[0.0]]), np.array([[100.0]])):
            assert model.drift(x, y, mu)[0, 0] == -2.0 + 0.5 * 4.0

    def test_constant_diffusion(self):
        model = linear_meanfield(sigma0=0.3)
        x = np.zeros((4, 1))
        out = model.diffusion(x, x, _zeros_measure(x))
        assert out.shape == (4, 1, 1)
        assert np.all(out == 0.3)


class TestCubicNoMf:
    def test_measure_independent(self):
        model = cubic_no_mf(x0=1.0)
        x = np.array([[0.7]])
        y = np.array([[-0.2]])
        mu1 = one_system(np.array([[0.0]]))
        mu2 = one_system(np.array([[100.0]]))
        assert np.array_equal(model.drift(x, y, mu1), model.drift(x, y, mu2))

    def test_constant_segment(self):
        model = cubic_no_mf(x0=5.0)
        for t in (-0.5, -0.1, 0.0):
            assert model.initial_segment(t)[0] == 5.0


class TestCallbackContract:
    """The stepping core passes several particle systems in one batch, so a
    callback must give each system what it gives that system alone."""

    @pytest.mark.parametrize(
        "model",
        [factory() for factory in MODELS.values()] + [planar_meanfield()],
        ids=lambda model: model.name,
    )
    def test_two_systems_equal_each_system_alone(self, model):
        g = np.random.default_rng(17)
        x, y = g.normal(size=(2, 12, model.state_dim)) * 3.0
        bounds = ((0, 5), (5, 12))
        both = EmpiricalMeasure(x, bounds)
        for callback in (model.drift, model.diffusion):
            batch = callback(x, y, both)
            for start, stop in bounds:
                own = one_system(x[start:stop])
                alone = callback(x[start:stop], y[start:stop], own)
                assert batch[start:stop].tobytes() == alone.tobytes()


class TestBuildModel:
    def test_names(self):
        assert build_model("example51").name == "example51"
        assert build_model("linear_meanfield", sigma0=0.7).name == "linear_meanfield"
        assert build_model("cubic_no_mf", x0=2.0).initial_segment(0.0)[0] == 2.0

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            build_model("heat_equation")

    @pytest.mark.parametrize(
        "name, key",
        [(name, key) for name in MODELS for key in model_keys(name)],
    )
    @pytest.mark.parametrize("true", [True, np.True_], ids=["bool", "np_bool"])
    def test_a_bool_parameter_is_refused(self, name, key, true):
        # True was once read as 1.0
        with pytest.raises(ConfigError, match=f"^{key} must be a number, got the bool"):
            MODELS[name](**{key: true})


class TestGrid:
    def test_derived_counts(self):
        p = _params(delta=2.0**-11, tau=2.0**-5, horizon=1.0)
        assert p.delay_steps == 64
        assert p.total_steps == 2048


class TestValidate:
    def test_example51_acceptance_setup_ok(self):
        assert validate(example51(), [_params()], SEGMENT) == []

    def test_non_integer_delay_ratio(self):
        report = validate(example51(), [_params(tau=1.0, delta=0.3)], SEGMENT)
        assert report
        assert any("tau/delta" in v for v in report)

    def test_contraction_at_one_rejected(self):
        model = dataclasses.replace(example51(), contraction=1.0)
        report = validate(model, [_params()], SEGMENT)
        assert any("contraction" in v for v in report)

    def test_contractivity_probe_catches_lies(self):
        # claim a modulus below the map's true one: probe must object
        model = dataclasses.replace(example51(), contraction=0.25)
        report = validate(model, [_params()], SEGMENT)
        assert any("probe" in v or "modulus" in v for v in report)

    def test_neutral_nonzero_at_zero(self):
        model = dataclasses.replace(
            example51(), neutral=lambda y: -0.5 * y + 0.125
        )
        report = validate(model, [_params()], SEGMENT)
        assert any("zero" in v for v in report)

    def test_delta_range(self):
        report = validate(example51(), [_params(delta=0.5, tau=2.0**-5)], SEGMENT)
        assert any("min(1, tau)" in v for v in report)

    def test_alpha_range(self):
        report = validate(example51(), [_params(alpha=0.75)], SEGMENT)
        assert any("alpha" in v for v in report)
        report = validate(example51(), [_params(alpha=0.0)], SEGMENT)
        assert any("alpha" in v for v in report)

    def test_horizon_ratio(self):
        report = validate(example51(), [_params(horizon=1.0 + 2.0**-12)], SEGMENT)
        assert any("horizon/delta" in v for v in report)

    def test_exponent_window(self):
        # q = 2, p = 12: q <= p/(2(c+1)) holds up to growth power c = 2
        assert example51().growth_power == 2.0
        assert validate(example51(), [_params()], SEGMENT) == []
        quartic = dataclasses.replace(example51(), growth_power=3.0)
        bad_c = validate(quartic, [_params()], SEGMENT)
        assert any("p/(2(c+1))" in v for v in bad_c)

    def test_linear_model_wide_window(self):
        # growth power 0 sits well inside the window
        assert validate(linear_meanfield(), [_params()], SEGMENT) == []

    def test_seed_outside_64_bits_is_a_violation(self):
        report = validate(example51(), [_params()], [(2**64, 10)])
        expect = f"seed must be a 64-bit unsigned integer, got {2**64}"
        assert report == [expect]

    def test_a_fractional_seed_is_a_violation_not_a_truncation(self, monkeypatch):
        assert validate(example51(), [_params()], [(3.0, 10)]) == []
        report = validate(example51(), [_params()], [(3.5, 10)])
        assert report == ["seed must be a 64-bit unsigned integer, got 3.5"]
        _forbid_draws(monkeypatch)
        with pytest.raises(ValidationFailure, match="got 3.5"):
            simulate(example51(), _params(), 3.5, 10)

    def test_a_fractional_particle_count_is_a_violation(self, monkeypatch):
        report = validate(example51(), [_params()], [(314, 2.5)])
        assert report == ["particles must be an integer, got 2.5"]
        _forbid_draws(monkeypatch)
        with pytest.raises(ValidationFailure, match="particles must be an integer"):
            simulate(example51(), _params(), 314, 2.5)

    @pytest.mark.parametrize("true", [True, np.True_], ids=["bool", "np_bool"])
    def test_a_bool_seed_or_particle_count_is_a_violation(self, true, monkeypatch):
        # True would run seed 1 with one particle
        assert validate(example51(), [_params()], [(true, 10), (314, true)]) == [
            "seed must be a 64-bit unsigned integer, got True",
            "particles must be an integer, got True",
        ]
        _forbid_draws(monkeypatch)
        with pytest.raises(ValidationFailure, match="got True"):
            simulate_terminal(example51(), _params(), true, true)
        with pytest.raises(GridError, match="seed must be .* got True"):
            derived_generator(true, 1)
        with pytest.raises(GridError, match="seed must be .* got True"):
            chaos_error_vs_particles(
                example51(), xis=[4, 8], delta=2.0**-7, tau=2.0**-5, alpha=0.5,
                horizon=0.25, seed=true,
            )

    def test_a_study_is_judged_whole(self, monkeypatch):
        # the model is probed once for all the grids, and each grid is checked
        probes = []
        monkeypatch.setattr(
            mvnsdde.model, "_probe", lambda model: probes.append(model) or []
        )
        grids = [_params(delta=2.0**-k) for k in (11, 9, 7)]
        assert validate(example51(), grids, SEGMENT) == []
        assert len(probes) == 1
        report = validate(example51(), [*grids, _params(alpha=0.75)], SEGMENT)
        assert report == ["alpha must lie in (0, 1/2], got 0.75"]

    def test_the_pass_rules_are_violations_naming_both_grids(self):
        # every grid is valid alone: 0.75 is 96 steps of 2**-7 and 32 of 3 * 2**-7
        fine = _params(delta=2.0**-7, tau=3 * 2.0**-5, horizon=0.75)
        coarse = _params(delta=3 * 2.0**-7, tau=3 * 2.0**-5, horizon=0.75)
        finer = _params(delta=2.0**-8, tau=3 * 2.0**-5, horizon=0.75)
        shorter = _params(delta=2.0**-6, tau=3 * 2.0**-5, horizon=0.375)
        assert validate(example51(), [fine, coarse, finer, shorter], SEGMENT) == [
            "delta 0.0234375 is not 0.0078125 times a power of two",
            "delta 0.00390625 is not 0.0078125 times a power of two",
            "horizon 0.375 is not 0.75",
        ]
        assert validate(example51(), [coarse, fine], SEGMENT) == [
            "delta 0.0078125 is not 0.0234375 times a power of two"
        ]

    @pytest.mark.parametrize(
        "grids", [_params(), [_params(), "grid"], 5], ids=["one_grid", "str", "int"]
    )
    def test_grids_not_a_sequence_of_grids_is_one_violation(self, grids):
        assert validate(example51(), grids, SEGMENT) == [
            f"a pass's grids must be a sequence of Grid values, got {grids!r}"
        ]
        assert validate(example51(), [], SEGMENT) == ["a pass needs at least one grid"]

    def test_delay_window_above_the_cap_is_not_probed(self, monkeypatch):
        probed = []
        model = dataclasses.replace(
            example51(), initial_segment=lambda t: probed.append(t) or np.array([t])
        )
        monkeypatch.setattr(mvnsdde.model, "MAX_DELAY_STEPS", 64)
        assert validate(model, [_params(tau=64 * 2.0**-11)], SEGMENT) == []
        assert len(probed) == 65
        probed.clear()
        report = validate(model, [_params(tau=128 * 2.0**-11)], SEGMENT)
        assert report == ["tau/delta = 128.0 exceeds the cap of 64 steps"]
        assert probed == []

    def test_particles_positive(self):
        report = validate(example51(), [_params()], [(314, 0)])
        assert any("particles" in v for v in report)

    def test_segment_shape_violation(self):
        model = dataclasses.replace(
            example51(), initial_segment=lambda t: np.array([t, t])
        )
        report = validate(model, [_params()], SEGMENT)
        assert any("segment" in v for v in report)

    def test_one_verdict_for_every_seed(self):
        # D(0) = 0, but the jump at 5 breaks the contraction: the probes find
        # it on one fixed stream, whatever the run's seed
        model = dataclasses.replace(
            example51(), neutral=lambda y: -0.5 * y + 0.5 * (y >= 5.0)
        )
        verdicts = [validate(model, [_params()], [(seed, 10)]) for seed in range(16)]
        assert all(v == verdicts[0] for v in verdicts)
        assert any("contraction modulus" in v for v in verdicts[0])

    def test_a_run_of_segments_lists_a_shared_violation_once(self):
        segments = [(s, 0) for s in (1, 2, 2**64, 2**64 + 1)]
        assert validate(example51(), [_params()], segments) == [
            "particles must be >= 1, got 0",
            f"seed must be a 64-bit unsigned integer, got {2**64}",
            f"seed must be a 64-bit unsigned integer, got {2**64 + 1}",
        ]

    def test_segments_differ_only_in_seed_and_particles(self):
        # a segment is nothing but a seed and a particle count
        segments = [(314, 10), (7, 3)]
        assert validate(example51(), [_params()], segments) == []
        assert validate(example51(), [_params()], []) == [
            "a run needs at least one segment"
        ]

    @pytest.mark.parametrize("segment", [5, (1, 2, 3)], ids=["int", "triple"])
    def test_a_segment_not_a_pair_is_one_violation(self, segment):
        report = validate(example51(), [_params()], [segment, (314, 10), segment])
        assert report == [
            f"a segment must be a (seed, particles) pair, got {segment!r}"
        ]

    def test_segments_not_a_sequence_is_one_violation(self):
        report = validate(example51(), [_params()], 5)
        assert report == ["a run's segments must be a sequence, got 5"]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("contraction", "x", "contraction must be a real number, got 'x'"),
            ("growth_power", None, "growth_power must be a real number, got None"),
            ("state_dim", "1", "state_dim must be an integer >= 1, got '1'"),
            ("state_dim", True, "state_dim must be an integer >= 1, got True"),
        ],
        ids=["contraction_str", "growth_power_none", "state_dim_str", "state_dim_bool"],
    )
    def test_a_model_field_of_the_wrong_type_is_one_violation(
        self, field, value, message
    ):
        # the checks and probes that read the field are skipped
        model = dataclasses.replace(example51(), **{field: value})
        assert validate(model, [_params()], SEGMENT) == [message]

    def test_a_model_without_noise_is_refused_before_any_draw(self, monkeypatch):
        model = dataclasses.replace(
            example51(), bm_dim=0, diffusion=lambda x, y, mu: np.zeros(x.shape + (0,))
        )
        message = "bm_dim must be an integer >= 1, got 0"
        assert validate(model, [_params()], SEGMENT) == [message]
        _forbid_draws(monkeypatch)
        with pytest.raises(ValidationFailure, match=message):
            simulate_terminal(model, _params(), *SEGMENT[0])

    @pytest.mark.parametrize(
        "field, value", [("tau", -0.5), ("horizon", -1.0)], ids=["tau", "horizon"]
    )
    def test_a_negative_time_is_a_violation(self, field, value):
        report = validate(example51(), [_params(**{field: value})], SEGMENT)
        assert f"{field} must be positive, got {value}" in report

    @pytest.mark.parametrize(
        "field, message",
        [
            ("neutral", "neutral map failed at zero: "),
            ("initial_segment", "initial segment not evaluable on [-tau, 0]: "),
        ],
        ids=["neutral", "initial_segment"],
    )
    def test_a_raising_callback_is_a_violation(self, field, message):
        def fails(*args):
            raise RuntimeError("no value here")

        model = dataclasses.replace(example51(), **{field: fails})
        report = validate(model, [_params()], SEGMENT)
        assert f"{message}RuntimeError('no value here')" in report

    def test_a_grid_field_not_a_real_number_is_one_violation(self):
        # a mistyped field ends the report: no later check runs
        report = validate(example51(), [Grid("0.1", 2**-5, 0.5, 0.25)], SEGMENT)
        assert report == ["delta must be a real number, got '0.1'"]
        report = validate(example51(), [Grid(2**-11, None, 0.75, 0.25)], SEGMENT)
        assert report == ["tau must be a real number, got None"]
        # a truthy string is not read as "tamed"
        grid = Grid(0.25, 0.5, 0.5, 1.0, taming="no")
        report = validate(cubic_no_mf(x0=5.0), [grid], [(2, 5)])
        assert report == ["taming must be a bool, got 'no'"]
        with pytest.raises(ValidationFailure, match="taming must be a bool"):
            simulate_terminal(cubic_no_mf(x0=5.0), grid, 2, 5)


# example51 with one callback of the wrong shape, each as one violation:
# (model, the callback it names, the shape it gets, the shape it needs)
_E51 = example51()
MISSHAPEN = {
    "drift_of_shape_P": (
        dataclasses.replace(_E51, drift=lambda x, y, mu: _E51.drift(x, y, mu)[:, 0]),
        "drift", "(2,)", "(2, 1)",
    ),
    "diffusion_of_shape_P_1": (
        dataclasses.replace(
            _E51, diffusion=lambda x, y, mu: _E51.diffusion(x, y, mu)[..., 0]
        ),
        "diffusion", "(2, 1)", "(2, 1, 1)",
    ),
    "diffusion_of_shape_P_1_1_at_bm_dim_2": (
        dataclasses.replace(_E51, bm_dim=2),  # its diffusion stays (P, 1, 1)
        "diffusion", "(2, 1, 1)", "(2, 1, 2)",
    ),
}


class TestCallbackShapes:
    """validate calls each callback once on a two-row probe batch and lists
    a result that is not a float array of the run's shape."""

    @pytest.mark.parametrize(
        "model",
        [factory() for factory in MODELS.values()] + [planar_meanfield()],
        ids=lambda model: model.name,
    )
    def test_well_shaped_models_pass(self, model):
        assert validate(model, [_params()], SEGMENT) == []

    @pytest.mark.parametrize("case", MISSHAPEN, ids=str)
    def test_misshapen_callback_is_one_violation_naming_it(self, case):
        model, name, got, want = MISSHAPEN[case]
        assert validate(model, [_params()], SEGMENT) == [
            f"{name} returned a float64 array of shape {got} on the probe "
            f"batch, expected a float array of shape {want}"
        ]

    @pytest.mark.parametrize("case", MISSHAPEN, ids=str)
    def test_misshapen_run_refused_before_any_draw(self, case, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a refused run drew noise")

        monkeypatch.setattr(mvnsdde.scheme, "stream_seeds", forbidden)
        model, name, _, _ = MISSHAPEN[case]
        match = f"^validation failed: {name} returned"
        with pytest.raises(ValidationFailure, match=match):
            simulate(model, _params(), 314, 8)

    def test_each_callback_called_once_on_two_rows(self):
        calls = []

        def counted(name, callback):
            def wrapped(*args):
                calls.append((name, args[0].shape))
                return callback(*args)
            return wrapped

        base = example51()
        model = dataclasses.replace(
            base,
            neutral=counted("neutral", base.neutral),
            drift=counted("drift", base.drift),
            diffusion=counted("diffusion", base.diffusion),
        )
        validate(model, [_params()], [(1, 10), (2, 10)])
        probes = [call for call in calls if call[1] == (2, 1)]
        # neutral twice, for purity
        names = ("neutral", "neutral", "drift", "diffusion")
        assert probes == [(name, (2, 1)) for name in names]

    @pytest.mark.parametrize(
        "callback, result, got",
        [
            ("drift", lambda x, y, mu: 1.0, "a float"),
            ("drift", lambda x, y, mu: [[0.0], [0.0]], "a list"),
            (
                "diffusion", lambda x, y, mu: np.ones((2, 1, 1), np.int64),
                "a int64 array of shape (2, 1, 1)",
            ),
            (
                "neutral", lambda y: np.zeros((2, 1), np.complex128),
                "a complex128 array of shape (2, 1)",
            ),
        ],
        ids=["scalar", "list", "integer", "complex"],
    )
    def test_non_float_array_is_a_violation(self, callback, result, got):
        model = dataclasses.replace(example51(), **{callback: result})
        assert f"{callback} returned {got} on the probe batch" in "\n".join(
            validate(model, [_params()], SEGMENT)
        )

    def test_failing_callback_is_a_violation(self):
        model = dataclasses.replace(
            example51(), diffusion=lambda x, y, mu: np.linalg.inv(x)
        )
        report = validate(model, [_params()], SEGMENT)
        assert len(report) == 1
        assert report[0].startswith("diffusion failed on the probe batch: LinAlgError")


_SPLIT = (
    "is not batch independent: on the probe batch of two systems it gave "
    "other bits than on each system alone"
)


def _alternating_neutral():
    """example51's neutral map, one ulp off on every other call."""
    calls = itertools.count()

    def neutral(y):
        out = -0.5 * y
        return np.nextafter(out, np.inf) if next(calls) % 2 else out

    return neutral


class TestBatchIndependenceAndPurity:
    """validate calls drift and diffusion again on each probe system alone,
    and neutral again on the same batch; other bits are one violation
    naming the callback."""

    def test_a_pooled_mean_drift_is_refused_before_any_draw(self, monkeypatch):
        # x.mean(axis=0) where mu.mean belongs: every system sees the pooled mean
        model = dataclasses.replace(
            _E51,
            drift=lambda x, y, mu: mvnsdde.model._cubic_drift(x, y) + x.mean(axis=0),
        )
        assert validate(model, [_params()], SEGMENT) == [f"drift {_SPLIT}"]
        _forbid_draws(monkeypatch)
        with pytest.raises(ValidationFailure, match="^validation failed: drift is not"):
            chaos_error_vs_particles(
                model, xis=[4, 8], delta=2.0**-7, tau=2.0**-5, alpha=0.5,
                horizon=0.25, seed=8,
            )

    def test_a_pooled_diffusion_is_one_violation_naming_it(self):
        model = dataclasses.replace(
            _E51, diffusion=lambda x, y, mu: (x - x.mean(axis=0) + 0.5 * y)[..., None]
        )
        assert validate(model, [_params()], SEGMENT) == [f"diffusion {_SPLIT}"]

    def test_an_impure_neutral_is_one_violation_naming_it(self):
        model = dataclasses.replace(_E51, neutral=_alternating_neutral())
        assert validate(model, [_params()], SEGMENT) == [
            "neutral is not pure: a second call on the probe batch gave other bits"
        ]
