"""Measure operations against brute-force and closed-form oracles."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from mvnsdde import (
    CapacityError,
    EmpiricalMeasure,
    ParticleGrid,
    SchemeParams,
    ShapeError,
    w2_1d,
    w2_assignment,
    w2sq_to_standard_normal_1d,
)
import mvnsdde
from mvnsdde.measure import BatchMeasure
from mvnsdde.noise import derived_generator


def rng(tag=0):
    return derived_generator(8603, 9000 + tag)


def moment_wq(mu, q):
    """q-th moment ((1/size) * sum |x_j|^q)^(1/q) of the point norms."""
    norms = np.linalg.norm(mu.points, axis=1)
    return float(np.mean(norms**q) ** (1.0 / q))


def brute_force_w2(xs, ys):
    """Minimum over all permutations, for tiny point sets only."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float).T).T
    ys = np.atleast_2d(np.asarray(ys, dtype=float).T).T
    n = xs.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(
            float(np.sum((xs[i] - ys[p]) ** 2)) for i, p in enumerate(perm)
        )
        best = min(best, cost)
    return math.sqrt(best / n)


class TestEmpiricalMeasure:
    def test_one_dim_input_is_normalized(self):
        mu = EmpiricalMeasure([1.0, 2.0, 3.0])
        assert mu.points.shape == (3, 1)
        assert mu.size == 3 and mu.dim == 1

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            EmpiricalMeasure(np.empty((0, 2)))

    def test_bad_rank_rejected(self):
        with pytest.raises(ShapeError):
            EmpiricalMeasure(np.zeros((2, 2, 2)))

    def test_points_read_only(self):
        mu = EmpiricalMeasure([[1.0, 2.0]])
        with pytest.raises(ValueError):
            mu.points[0, 0] = 5.0

    def test_source_array_stays_writable(self):
        arr = np.zeros((4, 2))
        EmpiricalMeasure(arr)
        arr[0, 0] = 1.0  # must not raise

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_1d(self, bad):
        with pytest.raises(ShapeError, match="finite"):
            EmpiricalMeasure([0.5, bad, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_nd(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(ShapeError, match="finite"):
            EmpiricalMeasure(pts)

    def test_mean_cached(self):
        mu = EmpiricalMeasure([[0.0], [2.0]])
        m1 = mu.mean
        assert m1 is mu.mean
        np.testing.assert_array_equal(m1, [1.0])


class TestBatchMeasure:
    def test_mean_is_each_segments_own_mean(self):
        g = np.random.default_rng(3)
        for dim in (1, 3):
            points = g.normal(size=(1360, dim)) * 10.0
            bounds = ((0, 16), (16, 80), (80, 336), (336, 1360))
            mean = BatchMeasure(points, bounds).mean
            assert mean.shape == points.shape
            for start, stop in bounds:
                own = EmpiricalMeasure(points[start:stop]).mean
                expect = np.broadcast_to(own, (stop - start, dim))
                assert mean[start:stop].tobytes() == expect.tobytes()

    def test_points_are_the_whole_batch(self):
        points = np.arange(6.0).reshape(6, 1)
        mu = BatchMeasure(points, ((0, 2), (2, 6)))
        assert mu.points is points
        assert mu.mean.ravel().tolist() == [0.5, 0.5, 3.5, 3.5, 3.5, 3.5]
        assert mu.mean is mu.mean  # computed once


class TestMomentWq:
    """Hand values for the test-side moment oracle."""

    def test_all_zero_points(self):
        assert moment_wq(EmpiricalMeasure([0.0, 0.0, 0.0]), 2.0) == 0.0

    def test_unit_points(self):
        assert moment_wq(EmpiricalMeasure([1.0, 1.0, 1.0]), 2.0) == 1.0

    def test_two_point_value(self):
        # ((0 + 4)/2)^(1/2)
        assert moment_wq(EmpiricalMeasure([0.0, 2.0]), 2.0) == math.sqrt(2.0)


class TestW21d:
    def test_identity(self):
        mu = EmpiricalMeasure([3.0, -1.0, 0.5])
        assert w2_1d(mu, mu) == 0.0

    def test_zero_measure_gives_moment(self):
        g = rng(1)
        pts = g.normal(size=17) * 2.0
        mu = EmpiricalMeasure(pts)
        zeros = EmpiricalMeasure(np.zeros(17))
        assert w2_1d(mu, zeros) == pytest.approx(moment_wq(mu, 2.0), rel=1e-14)

    def test_two_point_example(self):
        # pairings: sorted (1+1)/2 = 1 beats crossed (9+1)/2 = 5
        mu = EmpiricalMeasure([0.0, 2.0])
        nu = EmpiricalMeasure([1.0, 3.0])
        assert w2_1d(mu, nu) == 1.0
        assert brute_force_w2([0.0, 2.0], [1.0, 3.0]) == 1.0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            w2_1d(EmpiricalMeasure([[1.0, 2.0]]), EmpiricalMeasure([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            w2_1d(EmpiricalMeasure([1.0, 2.0]), EmpiricalMeasure([1.0]))

    def test_metric_axioms_random_triples(self):
        g = rng(2)
        for _ in range(300):
            size = int(g.integers(1, 40))
            a, b, c = (EmpiricalMeasure(g.normal(size=size) * 4) for _ in range(3))
            dab, dba = w2_1d(a, b), w2_1d(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert w2_1d(a, c) <= dab + w2_1d(b, c) + 1e-12

    def test_zero_iff_sorted_points_coincide(self):
        mu = EmpiricalMeasure([1.0, 0.0])
        nu = EmpiricalMeasure([0.0, 1.0])  # same multiset, different order
        assert w2_1d(mu, nu) == 0.0
        rho = EmpiricalMeasure([0.0, 1.0 + 1e-9])
        assert w2_1d(mu, rho) > 0.0


class TestW2Assignment:
    def test_cli_import_leaves_assignment_solver_unloaded(self):
        code = (
            "import sys, mvnsdde.cli; "
            "print('scipy.optimize' in sys.modules, 'scipy.spatial' in sys.modules)"
        )
        src = Path(mvnsdde.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        )
        assert out.stdout.split() == ["False", "False"]

    def test_identity(self):
        mu = EmpiricalMeasure([[0.0, 1.0], [2.0, -1.0]])
        assert w2_assignment(mu, mu) == 0.0

    def test_singletons(self):
        mu = EmpiricalMeasure([[0.0, 0.0]])
        nu = EmpiricalMeasure([[3.0, 4.0]])
        assert w2_assignment(mu, nu) == pytest.approx(5.0, rel=1e-15)

    def test_swapped_pair_is_zero(self):
        mu = EmpiricalMeasure([[0.0, 0.0], [1.0, 0.0]])
        nu = EmpiricalMeasure([[1.0, 0.0], [0.0, 0.0]])
        assert w2_assignment(mu, nu) == 0.0

    def test_capacity_error(self):
        pts = np.zeros((5, 1))
        with pytest.raises(CapacityError):
            w2_assignment(
                EmpiricalMeasure(pts), EmpiricalMeasure(pts), assignment_cap=4
            )

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            w2_assignment(
                EmpiricalMeasure([[1.0]]), EmpiricalMeasure([[1.0, 2.0]])
            )

    def test_matches_sorted_oracle_in_1d(self):
        g = rng(3)
        for _ in range(100):
            size = int(g.integers(1, 50))
            mu = EmpiricalMeasure(g.normal(size=size) * 3)
            nu = EmpiricalMeasure(g.normal(size=size) * 3)
            a, b = w2_assignment(mu, nu), w2_1d(mu, nu)
            assert abs(a - b) <= 1e-12 * max(a, b, 1e-30)

    def test_matches_brute_force_in_2d(self):
        g = rng(4)
        for _ in range(40):
            size = int(g.integers(1, 6))
            x = g.normal(size=(size, 2))
            y = g.normal(size=(size, 2))
            got = w2_assignment(EmpiricalMeasure(x), EmpiricalMeasure(y))
            want = brute_force_w2(x, y)
            assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _plain(x, y):
        """The distance from scipy's solver on the unreduced costs."""
        cost = cdist(x, y, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        return float(np.sqrt(cost[rows, cols].mean()))

    @given(
        st.integers(1, 128), st.integers(1, 6), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_reduced_costs_give_the_plain_solvers_bits(self, size, dim, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal((size, dim))
        y = g.standard_normal((size, dim))
        got = w2_assignment(EmpiricalMeasure(x), EmpiricalMeasure(y))
        assert got == self._plain(x, y)  # bit for bit

    def test_reduced_costs_with_duplicated_target_rows(self):
        # repeated rows of nu make equal cost columns, so the optimum ties
        g = rng(9)
        for size, dim in ((2, 1), (7, 2), (40, 3), (128, 5)):
            x = g.standard_normal((size, dim))
            y = g.standard_normal((max(1, size // 4), dim))
            y = y[g.integers(0, y.shape[0], size=size)]
            got = w2_assignment(EmpiricalMeasure(x), EmpiricalMeasure(y))
            assert got == self._plain(x, y)

    def test_zero_measure_gives_moment(self):
        g = rng(5)
        pts = g.normal(size=(23, 3))
        mu = EmpiricalMeasure(pts)
        zeros = EmpiricalMeasure(np.zeros((23, 3)))
        assert w2_assignment(mu, zeros) == pytest.approx(
            moment_wq(mu, 2.0), rel=1e-13
        )


class TestNormalDistance:
    def test_dirac_at_zero_is_second_moment(self):
        # integral of the squared standard normal quantile over (0,1) is 1;
        # the 64-node-per-cell quadrature carries a ~6e-4 singular-tail bias
        val = w2sq_to_standard_normal_1d(EmpiricalMeasure([0.0]))
        assert val == pytest.approx(1.0, abs=2e-3)

    def test_large_sample_is_small(self):
        g = rng(6)
        mu = EmpiricalMeasure(g.standard_normal(100_000))
        assert w2sq_to_standard_normal_1d(mu) < 1e-3

    def test_decreasing_in_sample_size(self):
        g = rng(7)
        vals = []
        for size in (16, 256, 4096):
            reps = [
                w2sq_to_standard_normal_1d(EmpiricalMeasure(g.standard_normal(size)))
                for _ in range(20)
            ]
            vals.append(np.mean(reps))
        assert vals[0] > vals[1] > vals[2]

    def test_shift_monotone(self):
        g = rng(8)
        base = g.standard_normal(64)
        vals = [
            w2sq_to_standard_normal_1d(EmpiricalMeasure(base + s))
            for s in (3.0, 5.0, 8.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_dim_error(self):
        with pytest.raises(ShapeError):
            w2sq_to_standard_normal_1d(EmpiricalMeasure([[0.0, 0.0]]))

    def test_node_floor(self):
        with pytest.raises(ValueError):
            w2sq_to_standard_normal_1d(EmpiricalMeasure([0.0]), nodes_per_cell=16)


def _tiny_grid(states):
    states = np.asarray(states, dtype=float)
    params = SchemeParams(
        delta=0.25, tau=0.25, alpha=0.5, particles=states.shape[1],
        horizon=(states.shape[0] - 2) * 0.25, seed=0,
    )
    return ParticleGrid(states=states, params=params, model_name="test")


class TestMeasureFromColumn:
    def test_singleton(self):
        grid = _tiny_grid(np.arange(6.0).reshape(6, 1, 1))
        mu = EmpiricalMeasure(grid.column(0))
        assert mu.size == 1
        assert mu.points[0, 0] == 1.0  # row index delay_steps = 1

    def test_identical_particles(self):
        states = np.full((4, 5, 1), 2.0)
        grid = _tiny_grid(states)
        mu = EmpiricalMeasure(grid.column(1))
        assert mu.size == 5
        assert moment_wq(mu, 2.0) == 2.0

    def test_two_particles(self):
        states = np.zeros((3, 2, 1))
        states[2, 0, 0], states[2, 1, 0] = 3.0, -1.0
        grid = _tiny_grid(states)
        mu = EmpiricalMeasure(grid.column(1))
        assert sorted(mu.points[:, 0]) == [-1.0, 3.0]
        assert w2_1d(mu, mu) == 0.0

    def test_out_of_range(self):
        grid = _tiny_grid(np.zeros((3, 2, 1)))
        with pytest.raises(IndexError):
            EmpiricalMeasure(grid.column(5))
