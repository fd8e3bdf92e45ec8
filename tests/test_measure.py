"""Measure operations against brute-force and closed-form oracles."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from mvnsdde import (
    CapacityError,
    EmpiricalMeasure,
    Grid,
    ShapeError,
    w2_assignment,
    w2sq_to_standard_normal_1d,
)
import mvnsdde
from mvnsdde import measure
from mvnsdde.noise import derived_generator
from oracles import column, one_system, recorded, w2_1d


def rng(tag=0):
    return derived_generator(8603, 9000 + tag)


def moment_wq(x, q):
    """q-th moment ((1/size) * sum |x_j|^q)^(1/q) of a sample's point norms."""
    norms = np.linalg.norm(np.reshape(x, (len(x), -1)), axis=1)
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


# Every W2 entry point as a call on one sample (the two-sample distances
# take it as both), for the checks each makes on its samples.
ENTRY_POINTS = (
    lambda x: w2_assignment(x, x),
    w2sq_to_standard_normal_1d,
)


class TestEmpiricalMeasure:
    """The one measure class, and the rules on the samples of an empirical
    measure that every W2 entry point checks."""

    def test_one_dim_input_is_normalized(self):
        x, y = [1.0, 2.0, 3.0], np.array([0.5, -1.0, 4.0])
        col_x, col_y = np.reshape(x, (3, 1)), y[:, None]
        assert w2_assignment(x, y) == w2_assignment(col_x, col_y)
        assert w2sq_to_standard_normal_1d(x) == w2sq_to_standard_normal_1d(col_x)

    def test_empty_rejected(self):
        for entry in ENTRY_POINTS:
            with pytest.raises(ShapeError, match="at least one point"):
                entry(np.empty((0, 2)))

    def test_bad_rank_rejected(self):
        for entry in ENTRY_POINTS:
            with pytest.raises(ShapeError, match="must be"):
                entry(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_1d(self, bad):
        for entry in ENTRY_POINTS:
            with pytest.raises(ShapeError, match="finite"):
                entry([0.5, bad, -1.0])
        with pytest.raises(ShapeError, match="finite"):
            w2_assignment([0.5, 0.0, -1.0], [0.5, bad, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_nd(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        for entry in ENTRY_POINTS:
            with pytest.raises(ShapeError, match="finite"):
                entry(pts)
        with pytest.raises(ShapeError, match="finite"):
            w2_assignment(np.zeros((4, 3)), pts)

    def test_source_array_stays_writable(self):
        arr = np.arange(4.0).reshape(4, 1)
        for entry in ENTRY_POINTS:
            entry(arr)
        assert arr.ravel().tolist() == [0.0, 1.0, 2.0, 3.0]
        arr[0, 0] = 5.0  # must not raise

    def test_mean_cached(self):
        mu = one_system(np.array([[0.0], [2.0]]))
        m1 = mu.mean
        assert m1 is mu.mean
        np.testing.assert_array_equal(m1, [[1.0], [1.0]])

    def test_mean_is_each_segments_own_mean(self):
        g = np.random.default_rng(3)
        for dim in (1, 3):
            points = g.normal(size=(1360, dim)) * 10.0
            bounds = ((0, 16), (16, 80), (80, 336), (336, 1360))
            mean = EmpiricalMeasure(points, bounds).mean
            assert mean.shape == points.shape
            for start, stop in bounds:
                own = points[start:stop].mean(axis=0)
                expect = np.broadcast_to(own, (stop - start, dim))
                assert mean[start:stop].tobytes() == expect.tobytes()

    def test_points_are_the_whole_batch(self):
        points = np.arange(6.0).reshape(6, 1)
        mu = EmpiricalMeasure(points, ((0, 2), (2, 6)))
        assert mu.points is points
        assert mu.mean.ravel().tolist() == [0.5, 0.5, 3.5, 3.5, 3.5, 3.5]


class TestMomentWq:
    """Hand values for the test-side moment oracle."""

    def test_all_zero_points(self):
        assert moment_wq([0.0, 0.0, 0.0], 2.0) == 0.0

    def test_unit_points(self):
        assert moment_wq([1.0, 1.0, 1.0], 2.0) == 1.0

    def test_two_point_value(self):
        # ((0 + 4)/2)^(1/2)
        assert moment_wq([0.0, 2.0], 2.0) == math.sqrt(2.0)


class TestW21d:
    """The test-side order-statistics oracle of the assignment distance."""

    def test_identity(self):
        mu = [3.0, -1.0, 0.5]
        assert w2_1d(mu, mu) == 0.0

    def test_zero_measure_gives_moment(self):
        g = rng(1)
        x = g.normal(size=17) * 2.0
        assert w2_1d(x, np.zeros(17)) == pytest.approx(moment_wq(x, 2.0), rel=1e-14)

    def test_two_point_example(self):
        # pairings: sorted (1+1)/2 = 1 beats crossed (9+1)/2 = 5
        mu = [0.0, 2.0]
        nu = [1.0, 3.0]
        assert w2_1d(mu, nu) == 1.0
        assert brute_force_w2([0.0, 2.0], [1.0, 3.0]) == 1.0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            w2_1d([[1.0, 2.0]], [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            w2_1d([1.0, 2.0], [1.0])

    def test_metric_axioms_random_triples(self):
        g = rng(2)
        for _ in range(300):
            size = int(g.integers(1, 40))
            a, b, c = (g.normal(size=size) * 4 for _ in range(3))
            dab, dba = w2_1d(a, b), w2_1d(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert w2_1d(a, c) <= dab + w2_1d(b, c) + 1e-12

    def test_zero_iff_sorted_points_coincide(self):
        mu = [1.0, 0.0]
        nu = [0.0, 1.0]  # same multiset, different order
        assert w2_1d(mu, nu) == 0.0
        rho = [0.0, 1.0 + 1e-9]
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

    def test_first_call_loads_only_the_solver(self):
        code = (
            "import sys\nimport numpy as np\nfrom mvnsdde import w2_assignment\n"
            "g = np.random.default_rng(0)\n"
            "print(w2_assignment(g.normal(size=(3, 5)), g.normal(size=(3, 5))) > 0)\n"
            "print('scipy.optimize' in sys.modules, 'scipy.spatial' in sys.modules)"
        )
        src = Path(mvnsdde.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        )
        assert out.stdout.split() == ["True", "False", "False"]

    def test_solver_is_scipys_own(self):
        # fails loudly if scipy moves the solver out of its extension module
        assert measure._assignment_solver() is linear_sum_assignment

    def test_missing_solver_names_its_cause(self, tmp_path, monkeypatch):
        monkeypatch.setattr(measure, "_SOLVER_DIR", str(tmp_path))
        measure._assignment_solver.cache_clear()
        try:
            with pytest.raises(ImportError) as info:
                w2_assignment([1.0, 2.0], [2.0, 1.0])
        finally:
            measure._assignment_solver.cache_clear()
        assert str(info.value) == (
            f"no extension module scipy.optimize._lsap in {tmp_path}"
        )
        assert info.value.name == "scipy.optimize._lsap"

    def test_identity(self):
        mu = [[0.0, 1.0], [2.0, -1.0]]
        assert w2_assignment(mu, mu) == 0.0

    def test_singletons(self):
        mu = [[0.0, 0.0]]
        nu = [[3.0, 4.0]]
        assert w2_assignment(mu, nu) == pytest.approx(5.0, rel=1e-15)

    def test_swapped_pair_is_zero(self):
        mu = [[0.0, 0.0], [1.0, 0.0]]
        nu = [[1.0, 0.0], [0.0, 0.0]]
        assert w2_assignment(mu, nu) == 0.0

    def test_capacity_error(self):
        pts = np.zeros((513, 1))
        with pytest.raises(CapacityError, match="size 513 exceeds assignment cap 512"):
            w2_assignment(pts, pts)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            w2_assignment([[1.0]], [[1.0, 2.0]])

    def test_overflowing_distances_are_refused(self):
        # refused before any arithmetic: an inf cost would meet inf - inf
        with pytest.raises(ShapeError, match="could overflow float64"):
            w2_assignment([[1e200], [0.0]], [[-1e200], [0.0]])
        # two squares of up to 4e300 still fit in float64
        assert w2_assignment([[1e150], [0.0]], [[-1e150], [0.0]]) == pytest.approx(1e150)

    def test_matches_sorted_oracle_in_1d(self):
        g = rng(3)
        for _ in range(100):
            size = int(g.integers(1, 50))
            mu = g.normal(size=size) * 3
            nu = g.normal(size=size) * 3
            a, b = w2_assignment(mu, nu), w2_1d(mu, nu)
            assert abs(a - b) <= 1e-12 * max(a, b, 1e-30)

    def test_matches_brute_force_in_2d(self):
        g = rng(4)
        for _ in range(40):
            size = int(g.integers(1, 6))
            x = g.normal(size=(size, 2))
            y = g.normal(size=(size, 2))
            got = w2_assignment(x, y)
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
        got = w2_assignment(x, y)
        assert got == self._plain(x, y)  # bit for bit

    def test_reduced_costs_with_duplicated_target_rows(self):
        # repeated rows of nu make equal cost columns, so the optimum ties
        g = rng(9)
        for size, dim in ((2, 1), (7, 2), (40, 3), (128, 5)):
            x = g.standard_normal((size, dim))
            y = g.standard_normal((max(1, size // 4), dim))
            y = y[g.integers(0, y.shape[0], size=size)]
            got = w2_assignment(x, y)
            assert got == self._plain(x, y)

    @pytest.mark.parametrize("size, dim", [(1, 1), (3, 5), (16, 2), (17, 5), (512, 5)])
    def test_a_lent_buffer_gives_the_same_bits(self, size, dim):
        g = rng(11)
        x, y = g.standard_normal((2, size, dim))
        buf = np.full((size, size), np.nan)
        assert w2_assignment(x, y, out=buf) == w2_assignment(x, y)
        x, y = g.standard_normal((2, size, dim))  # a second solve in one buffer
        assert w2_assignment(x, y, out=buf) == w2_assignment(x, y)

    @pytest.mark.parametrize(
        "buf",
        [
            np.empty((4, 5)),
            np.empty((5, 5)),
            np.empty((4, 4), dtype=np.float32),
            np.empty((4, 4), order="F"),
            np.empty((4, 8))[:, ::2],
            np.empty(16),
            [[0.0] * 4] * 4,
        ],
        ids=["rectangular", "other size", "float32", "fortran", "strided", "flat", "list"],
    )
    def test_a_wrong_buffer_is_refused(self, buf):
        x = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ShapeError, match="out must be"):
            w2_assignment(x, x[::-1], out=buf)

    def test_a_read_only_buffer_is_refused(self):
        buf = np.empty((3, 3))
        buf.flags.writeable = False
        with pytest.raises(ShapeError, match="out must be"):
            w2_assignment(np.zeros(3), np.ones(3), out=buf)

    def test_zero_measure_gives_moment(self):
        g = rng(5)
        x = g.normal(size=(23, 3))
        assert w2_assignment(x, np.zeros((23, 3))) == pytest.approx(
            moment_wq(x, 2.0), rel=1e-13
        )


# Coordinates at the edges of float64: signed zeros, subnormals, and values
# whose squared differences overflow to inf.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e200, -1e200, 1.7e308)


def _coordinates():
    return st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False, allow_infinity=False),
    )


class TestSquaredDistances:
    """The cost matrix is cdist's squared Euclidean distances, bit for bit."""

    @given(st.integers(1, 12), st.integers(1, 64), st.integers(1, 64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_cdist_bit_for_bit(self, dim, rows, cols, data):
        x = data.draw(arrays(np.float64, (rows, dim), elements=_coordinates()))
        y = data.draw(arrays(np.float64, (cols, dim), elements=_coordinates()))
        got, col_min = measure._sq_distances(x, y)
        want = cdist(x, y, "sqeuclidean")
        assert got.tobytes() == want.tobytes()
        assert col_min.tobytes() == want.min(axis=0).tobytes()

    @pytest.mark.parametrize("dim", [1, 5])
    def test_equals_cdist_bit_for_bit_at_the_cap(self, dim):
        g = rng(10 + dim)
        x, y = g.normal(size=(2, 512, dim)) * 10.0 ** g.integers(-320, 200, (2, 512, dim))
        x[g.random(x.shape) < 0.05] = -0.0
        y[g.random(y.shape) < 0.05] = 0.0
        got, col_min = measure._sq_distances(x, y)
        want = cdist(x, y, "sqeuclidean")
        assert np.isinf(want).any() and (want == 0.0).any()
        assert got.tobytes() == want.tobytes()
        assert col_min.tobytes() == want.min(axis=0).tobytes()

    @given(
        st.integers(1, 6),
        st.integers(1, 300),
        st.integers(1, 1024),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_tiles_equal_the_whole_sum(self, dim, rows, cols, data):
        # the rows are built _TILE_VALUES // cols at a time (32 rows at 1024
        # columns); a last partial tile changes nothing
        assume(rows % max(1, measure._TILE_VALUES // cols))
        x = data.draw(arrays(np.float64, (rows, dim), elements=_coordinates()))
        y = data.draw(arrays(np.float64, (cols, dim), elements=_coordinates()))
        with np.errstate(over="ignore"):
            whole = (x[:, 0, None] - y[None, :, 0]) ** 2
            for k in range(1, dim):
                whole += (x[:, k, None] - y[None, :, k]) ** 2
        got, _ = measure._sq_distances(x, y, np.full((rows, cols), np.nan))
        assert got.tobytes() == whole.tobytes()

    # sizes in one tile (up to 181 = _TILE_VALUES // 181 rows), in several
    # with a shorter last one (200: 163 + 37 rows), and at the cap (8 x 64)
    @given(
        st.one_of(st.integers(1, 181), st.integers(182, 511), st.just(512)),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @example(size=1, dim=1, seed=0)
    @example(size=181, dim=5, seed=1)
    @example(size=200, dim=5, seed=2)
    @example(size=512, dim=5, seed=3)
    @settings(max_examples=30, deadline=None)
    def test_a_lent_buffer_holds_cdists_reduced_costs(self, size, dim, seed):
        g = np.random.default_rng(seed)
        x, y = g.standard_normal((2, size, dim))
        buf = np.full((size, size), np.nan)
        got = w2_assignment(x, y, out=buf)
        want = cdist(x, y, "sqeuclidean")
        want -= want.min(axis=0)
        want -= want.min(axis=1, keepdims=True)
        assert buf.tobytes() == want.tobytes()
        assert got == TestW2Assignment._plain(x, y)  # bit for bit


class TestNormalDistance:
    def test_dirac_at_zero_is_second_moment(self):
        # integral of the squared standard normal quantile over (0,1) is 1;
        # the 64-node-per-cell quadrature carries a ~6e-4 singular-tail bias
        val = w2sq_to_standard_normal_1d([0.0])
        assert val == pytest.approx(1.0, abs=2e-3)

    def test_large_sample_is_small(self):
        g = rng(6)
        assert w2sq_to_standard_normal_1d(g.standard_normal(100_000)) < 1e-3

    def test_decreasing_in_sample_size(self):
        g = rng(7)
        vals = []
        for size in (16, 256, 4096):
            reps = [
                w2sq_to_standard_normal_1d(g.standard_normal(size))
                for _ in range(20)
            ]
            vals.append(np.mean(reps))
        assert vals[0] > vals[1] > vals[2]

    def test_shift_monotone(self):
        g = rng(8)
        base = g.standard_normal(64)
        vals = [w2sq_to_standard_normal_1d(base + s) for s in (3.0, 5.0, 8.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_dim_error(self):
        with pytest.raises(ShapeError):
            w2sq_to_standard_normal_1d([[0.0, 0.0]])

    def test_an_overflowing_sum_of_squares_is_refused(self):
        with pytest.raises(ShapeError, match="could overflow float64"):
            w2sq_to_standard_normal_1d([1e200, -1e200])
        assert w2sq_to_standard_normal_1d([1e150, -1e150]) == pytest.approx(1e300)

    def test_blocked_table_equals_the_whole_one(self, monkeypatch):
        # the table sums its cells in blocks; 10007 cells span three of 4096
        size = 10007
        x, w = np.polynomial.legendre.leggauss(measure._NORMAL_NODES)
        edges = np.linspace(0.0, 1.0, size + 1)
        lo, hi = edges[:-1, None], edges[1:, None]
        u = lo + (x[None, :] + 1.0) * 0.5 * (hi - lo)
        ww = w[None, :] * 0.5 * (hi - lo)
        clip = measure._QUANTILE_CLIP
        q = measure.ndtri(np.clip(u, clip, 1.0 - clip))
        whole = [(ww * q).sum(axis=1), (ww * q * q).sum(axis=1)]
        for block in (4096, 1000, 1):
            monkeypatch.setattr(measure, "_CELL_BLOCK", block)
            table = measure._normal_cell_moments.__wrapped__(size)
            assert [t.tobytes() for t in table] == [t.tobytes() for t in whole]

    def test_table_memory_stays_bounded(self):
        # the unblocked table's node arrays took about 259 MiB at 2**17 cells
        tracemalloc.start()
        try:
            measure._normal_cell_moments.__wrapped__(2**17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def _tiny_grid(states):
    states = np.asarray(states, dtype=float)
    params = Grid(
        delta=0.25, tau=0.25, alpha=0.5, horizon=(states.shape[0] - 2) * 0.25
    )
    return recorded(states, params)


class TestMeasureFromColumn:
    def test_singleton(self):
        grid = _tiny_grid(np.arange(6.0).reshape(6, 1, 1))
        mu = one_system(column(grid, 0))
        assert mu.points.shape == (1, 1)
        assert mu.points[0, 0] == mu.mean[0, 0] == 1.0  # row delay_steps = 1

    def test_identical_particles(self):
        states = np.full((4, 5, 1), 2.0)
        grid = _tiny_grid(states)
        mu = one_system(column(grid, 1))
        assert mu.points.shape == (5, 1)
        assert moment_wq(mu.points, 2.0) == 2.0

    def test_two_particles(self):
        states = np.zeros((3, 2, 1))
        states[2, 0, 0], states[2, 1, 0] = 3.0, -1.0
        grid = _tiny_grid(states)
        mu = one_system(column(grid, 1))
        assert sorted(mu.points[:, 0]) == [-1.0, 3.0]
        assert mu.mean.ravel().tolist() == [1.0, 1.0]
        assert w2_assignment(mu.points, mu.points) == 0.0

    def test_out_of_range(self):
        grid = _tiny_grid(np.zeros((3, 2, 1)))
        with pytest.raises(IndexError):
            column(grid, 5)
