"""Brownian stream generation and coarsening, and the load of ``ndtri``."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from mvnsdde import (
    Grid, GridError, OverflowAbort, coarsen, cubic_no_mf, example51, generate,
    simulate, simulate_terminal,
)
from mvnsdde import noise
from mvnsdde.noise import seeds_per_block, stream_seeds
from oracles import seeds_per_block_search


def particle_block(seed, particle, steps, bm_dim, delta):
    """Reference draw of one particle's increments (steps, bm_dim).

    Reads the particle's Philox stream from counter 0 in one call, apart
    from the stream code it checks.
    """
    count = steps * bm_dim
    n_raw = -(-count // 4) * 4  # Philox emits 4 raws per counter tick
    key = np.array([seed, particle], dtype=np.uint64)  # exact 64-bit words
    raw = Philox(counter=[0, 0, 0, 0], key=key).random_raw(n_raw)
    u = (raw[:count] >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return (ndtri(u) * np.sqrt(delta)).reshape(steps, bm_dim)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = generate(123, particles=7, bm_dim=2, delta_base=0.125, horizon=2.0)
        b = generate(123, particles=7, bm_dim=2, delta_base=0.125, horizon=2.0)
        assert np.array_equal(a, b)

    def test_adjacent_seeds_differ(self):
        a = generate(5, particles=10, bm_dim=1, delta_base=0.01, horizon=1.0)
        b = generate(6, particles=10, bm_dim=1, delta_base=0.01, horizon=1.0)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed_a, seed_b", [(2**64 - 1, 2**64 - 2), (2**63, 2**63 + 5)]
    )
    def test_high_seeds_draw_distinct_streams(self, seed_a, seed_b):
        # key words >= 2**63 must reach Philox exactly, not through float64
        a = generate(seed_a, particles=2, bm_dim=1, delta_base=0.25, horizon=1.0)
        b = generate(seed_b, particles=2, bm_dim=1, delta_base=0.25, horizon=1.0)
        assert not np.array_equal(a, b)
        for seed, grid in ((seed_a, a), (seed_b, b)):
            block = particle_block(seed, 1, steps=4, bm_dim=1, delta=0.25)
            assert np.array_equal(grid[:, 1, :], block)

    def test_moment_bounds_single_step(self):
        n = 10_000
        grid = generate(77, particles=n, bm_dim=1, delta_base=0.25, horizon=0.25)
        incs = grid[0][:, 0]
        assert abs(incs.mean()) <= 4.0 * np.sqrt(0.25 / n)
        assert abs(incs.var(ddof=1) / 0.25 - 1.0) <= 0.05

    def test_particle_prefix_property(self, monkeypatch):
        big = generate(42, particles=8, bm_dim=2, delta_base=0.5, horizon=4.0)
        small = generate(42, particles=3, bm_dim=2, delta_base=0.5, horizon=4.0)
        assert np.array_equal(big[:, :3, :], small)
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 3 * 8 * 2)  # 3-step blocks
        streamed = np.concatenate(list(stream_seeds([(42, 8)], 2, 0.5, 4.0)))
        assert np.array_equal(streamed[:, :3, :], small)

    def test_entry_matches_per_particle_block(self):
        grid = generate(9, particles=4, bm_dim=3, delta_base=0.2, horizon=1.0)
        block = particle_block(9, 2, steps=5, bm_dim=3, delta=0.2)
        assert np.array_equal(grid[:, 2, :], block)
        assert np.array_equal(grid[4, 2], block[4])

    def test_cross_correlations_small(self):
        n = 100_000
        grid = generate(11, particles=2, bm_dim=2, delta_base=1.0, horizon=n)
        flat = grid.reshape(n, 4)
        corr = np.corrcoef(flat.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 5.0 / np.sqrt(n)

    def test_non_integer_step_count(self):
        with pytest.raises(GridError):
            generate(1, particles=1, bm_dim=1, delta_base=0.3, horizon=1.0)

    def test_bad_arguments(self):
        # whole floats are read as their integers, bools are not
        whole = generate(1.0, particles=2.0, bm_dim=2.0, delta_base=0.5, horizon=1.0)
        assert whole.tobytes() == generate(1, 2, 2, 0.5, 1.0).tobytes()
        with pytest.raises(GridError):
            generate(1, particles=2, bm_dim=True, delta_base=0.5, horizon=1.0)
        with pytest.raises(GridError):
            generate(-1, particles=1, bm_dim=1, delta_base=0.5, horizon=1.0)
        with pytest.raises(GridError):
            generate(1, particles=0, bm_dim=1, delta_base=0.5, horizon=1.0)
        with pytest.raises(GridError):
            generate(1, particles=1, bm_dim=1, delta_base=-0.5, horizon=1.0)


class TestCoarsen:
    def test_factor_one_is_identity(self):
        grid = generate(3, particles=2, bm_dim=1, delta_base=0.25, horizon=1.0)
        assert coarsen(grid, 1) is grid

    def test_two_steps_sum(self):
        grid = generate(4, particles=3, bm_dim=2, delta_base=0.5, horizon=1.0)
        out = coarsen(grid, 2)
        assert out.shape == (1, 3, 2)
        expect = grid[0] + grid[1]
        assert np.array_equal(out[0], expect)

    def test_endpoint_sums_preserved(self):
        grid = generate(8, particles=5, bm_dim=2, delta_base=0.125, horizon=4.0)
        base_end = grid.sum(axis=0)
        for k in (2, 4, 8, 16):
            end = coarsen(grid, k).sum(axis=0)
            np.testing.assert_allclose(end, base_end, rtol=1e-12, atol=1e-14)

    def test_composition(self):
        grid = generate(15, particles=4, bm_dim=1, delta_base=0.0625, horizon=4.0)
        a = coarsen(coarsen(grid, 2), 4)
        b = coarsen(grid, 8)
        assert a.shape == b.shape == (8, 4, 1)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("factor", [2.5, True, np.True_], ids=["2.5", "True", "np_True"])
    def test_a_factor_not_a_whole_number_is_refused(self, factor):
        # 2.5 would sum pairs, and True would be read as 1
        grid = np.arange(8.0).reshape(4, 2, 1)
        with pytest.raises(GridError, match="factor must be an integer >= 1"):
            coarsen(grid, factor)
        assert coarsen(grid, 2.0).tobytes() == coarsen(grid, 2).tobytes()

    def test_divisibility_error(self):
        grid = generate(2, particles=1, bm_dim=1, delta_base=0.2, horizon=1.0)
        with pytest.raises(GridError):
            coarsen(grid, 3)
        with pytest.raises(GridError):
            coarsen(grid, 0)

    def test_variance_scales_with_factor(self):
        grid = generate(21, particles=2000, bm_dim=1, delta_base=0.01, horizon=1.0)
        out = coarsen(grid, 10)
        var = out.var(ddof=1)
        assert abs(var / 0.1 - 1.0) < 0.05


class TestStream:
    @given(
        seed=st.integers(0, 2**64 - 1),
        particles=st.integers(1, 40),
        bm_dim=st.integers(1, 3),
        steps=st.integers(1, 64),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunks_equal_grid_and_coarsening(
        self, seed, particles, bm_dim, steps, data
    ):
        chunk = data.draw(st.integers(1, steps), label="chunk")
        delta = 2.0**-6
        grid = generate(seed, particles, bm_dim, delta, steps * delta)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "_CHUNK_ELEMENTS", chunk * particles * bm_dim)
            blocks = list(
                stream_seeds([(seed, particles)], bm_dim, delta, steps * delta)
            )
        assert [len(b) for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)
        full = np.concatenate(blocks)
        assert full.tobytes() == grid.tobytes()
        factors = [
            f for f in (1, 2, 4, 8, 16, 32, 64) if chunk % f == 0 and steps % f == 0
        ]
        for f in factors:
            coarse = coarsen(grid, f)
            sums = np.concatenate([coarsen(b, f) for b in blocks])
            assert sums.tobytes() == coarse.tobytes()

    def test_block_shape_and_last_chunk(self, monkeypatch):
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 4 * 3 * 2)  # 4-step blocks
        blocks = list(stream_seeds([(4, 3)], 2, 0.25, 2.5))
        assert [b.shape for b in blocks] == [(4, 3, 2), (4, 3, 2), (2, 3, 2)]

    def test_seeds_side_by_side(self, monkeypatch):
        # each seed's columns are its own stream, whatever the neighbours
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 4 * 8 * 2)  # 4-step blocks
        blocks = list(stream_seeds([(9, 3), (2**64 - 1, 5)], 2, 0.25, 2.5))
        assert [b.shape for b in blocks] == [(4, 8, 2), (4, 8, 2), (2, 8, 2)]
        full = np.concatenate(blocks)
        nine = np.concatenate(list(stream_seeds([(9, 3)], 2, 0.25, 2.5)))
        last = np.concatenate(list(stream_seeds([(2**64 - 1, 5)], 2, 0.25, 2.5)))
        assert full[:, :3].tobytes() == nine.tobytes()
        assert full[:, 3:].tobytes() == last.tobytes()

    @pytest.mark.parametrize("bm_dim", [1, 2])
    def test_a_block_is_its_only_array(self, bm_dim, monkeypatch):
        # the generators are built before the first block, so trace after
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 64 * 256 * bm_dim)
        blocks = stream_seeds([(6, 256)], bm_dim, 2.0**-6, 1.0)
        tracemalloc.start()
        try:
            block = next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (64, 256, bm_dim)
        assert peak <= 1.1 * block.nbytes

    def test_a_gathered_block_frees_its_draw(self, monkeypatch):
        # one seed in two segments: its 256 streams are drawn once and each
        # block gathers 64 + 256 columns of them; a draw is gone once it is
        # gathered, and a consumed block before the next gather, so no
        # second draw or gathered block is alive
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 64 * 256)
        blocks = stream_seeds([(6, 64), (6, 256)], 1, 2.0**-6, 2.0)
        drawn, gathered = 64 * 256 * 8, 64 * 320 * 8
        tracemalloc.start()
        try:
            for _ in range(2):
                block = next(blocks)
                assert block.shape == (64, 320, 1)
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (drawn + gathered)

    def test_no_third_block_is_alive(self, monkeypatch):
        # every stream in order: a block is its draw, and the next one is
        # drawn while it is out, so two blocks are alive, never three
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 64 * 256)
        blocks = stream_seeds([(6, 256)], 1, 2.0**-6, 4.0)
        drawn = 64 * 256 * 8
        tracemalloc.start()
        try:
            for _ in range(3):
                block = next(blocks)
                assert block.shape == (64, 256, 1)
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            blocks.close()
        assert peak <= 1.1 * 2 * drawn

    @given(
        segments=st.lists(
            st.tuples(st.sampled_from([5, 2**64 - 1]), st.integers(1, 8)),
            min_size=1, max_size=6,
        ),
        bm_dim=st.integers(1, 2),
        multiple=st.sampled_from([1, 2, 4, 8]),
        blocks=st.integers(1, 4),
        budget=st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_segments_read_prefixes_and_blocks_coarsen_whole(
        self, segments, bm_dim, multiple, blocks, budget
    ):
        # seeds recur in any order; a small budget gives short blocks
        delta, steps = 2.0**-6, multiple * blocks
        horizon = steps * delta
        paths = [generate(seed, n, bm_dim, delta, horizon) for seed, n in segments]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "_CHUNK_ELEMENTS", budget)
            stream = list(stream_seeds(segments, bm_dim, delta, horizon, multiple))
        assert all(len(block) % multiple == 0 for block in stream[:-1])
        full = np.concatenate(stream)
        start = 0
        for (_, n), path in zip(segments, paths):
            assert full[:, start : start + n].tobytes() == path.tobytes()
            start += n
        for f in (f for f in (1, 2, 4, 8) if multiple % f == 0):
            coarse = np.concatenate([coarsen(path, f) for path in paths], axis=1)
            row = 0
            for block in stream:
                rows = coarse[row // f : (row + len(block)) // f]
                assert coarsen(block, f).tobytes() == rows.tobytes()
                row += len(block)

    def test_bad_arguments(self):
        with pytest.raises(GridError):
            stream_seeds([(1, 2)], 1, 0.5, 1.0, 0)
        with pytest.raises(GridError):
            stream_seeds([(1, 0)], 1, 0.5, 1.0, 4)
        with pytest.raises(GridError):
            stream_seeds([(1, 2)], 1, 0.3, 1.0, 4)


class TestHelperThread:
    """Each block's transform runs on a helper thread while the block
    before it is out: same bits, no thread left behind, errors raised here."""

    @pytest.fixture
    def threads(self, monkeypatch):
        # a slow transform: a helper not joined would still be running
        def slow(u, out):
            time.sleep(0.02)
            return ndtri(u, out=out)

        monkeypatch.setattr(noise, "ndtri", slow)
        start = threading.active_count()
        yield
        assert threading.active_count() == start

    def test_a_finished_pass_leaves_no_thread(self, threads, monkeypatch):
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 8)
        grid = Grid(delta=2.0**-5, tau=2.0**-4, alpha=0.5, horizon=0.5)
        simulate_terminal(example51(), grid, 3, 4)

    def test_an_overflow_mid_pass_leaves_no_thread(self, threads, monkeypatch):
        # 2-step blocks: the abort comes blocks before the last one
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 2 * 4)
        grid = Grid(delta=0.125, tau=0.25, alpha=0.5, horizon=4.0, taming=False)
        with pytest.raises(OverflowAbort) as info:
            simulate(cubic_no_mf(x0=5.0), grid, 11, 4)
        assert info.value.step < grid.total_steps - 2

    def test_closing_a_half_read_stream_leaves_no_thread(self, threads, monkeypatch):
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 4 * 3)
        blocks = stream_seeds([(4, 3)], 1, 0.25, 4.0)
        next(blocks)
        next(blocks)
        blocks.close()

    def test_a_transform_error_is_raised_once_on_the_calling_thread(self, monkeypatch):
        # the second block's transform fails while the first block is out
        calls, reported = [], []

        def failing(u, out):
            calls.append(threading.current_thread())
            if len(calls) == 2:
                raise FloatingPointError("ndtri failed")
            return ndtri(u, out=out)

        monkeypatch.setattr(noise, "ndtri", failing)
        monkeypatch.setattr(threading, "excepthook", reported.append)
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 4 * 3)
        start = threading.active_count()
        blocks = stream_seeds([(4, 3)], 1, 0.25, 4.0)
        assert next(blocks).shape == (4, 3, 1)
        with pytest.raises(FloatingPointError, match="ndtri failed"):
            next(blocks)
        assert next(blocks, None) is None
        assert threading.active_count() == start
        assert len(calls) == 2 and threading.main_thread() not in calls
        assert reported == []

    @pytest.mark.parametrize("segments", [[(6, 5)], [(6, 2), (6, 5), (7, 3)]])
    def test_a_block_is_not_written_after_it_is_yielded(self, segments, monkeypatch):
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 4 * 8)
        blocks = stream_seeds(segments, 2, 0.25, 4.0)
        first = next(blocks)
        kept = first.copy()
        next(blocks)
        next(blocks)
        assert first.tobytes() == kept.tobytes()
        blocks.close()

    @given(
        segments=st.lists(
            st.tuples(st.sampled_from([5, 2**64 - 1]), st.integers(1, 6)),
            min_size=1, max_size=5,
        ),
        bm_dim=st.integers(1, 3),
        budget=st.integers(1, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_equal_the_direct_philox_reference(self, segments, bm_dim, budget):
        # many short blocks, each drawn while the one before is out
        steps, delta = 12, 2.0**-4
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "_CHUNK_ELEMENTS", budget)
            full = np.concatenate(
                list(stream_seeds(segments, bm_dim, delta, steps * delta))
            )
        columns = [
            particle_block(seed, a, steps, bm_dim, delta)
            for seed, n in segments for a in range(n)
        ]
        assert full.tobytes() == np.stack(columns, axis=1).tobytes()

    def test_streams_read_at_once_keep_their_bits(self, monkeypatch):
        # four streams read side by side, eight threads with their helpers,
        # switching every 10 us: each hand-over still gives its own block
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", 2 * 3)
        steps, delta = 40, 2.0**-4
        results = {}

        def read(seed):
            blocks = stream_seeds([(seed, 3)], 1, delta, steps * delta)
            results[seed] = np.concatenate(list(blocks))

        start = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read, args=(s,)) for s in range(4)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert threading.active_count() == start
        for seed in range(4):
            columns = [particle_block(seed, a, steps, 1, delta) for a in range(3)]
            assert results[seed].tobytes() == np.stack(columns, axis=1).tobytes()


class TestSeedsPerBlock:
    def test_shipped_study_sizes(self):
        # 1000 particles at factor 32: one seed alone gets 128 steps, two
        # share 64, three would get 32
        assert seeds_per_block(1000, 1, 32) == 2
        assert noise.chunk_steps(2000, 1, 32) == 64
        assert seeds_per_block(1024, 1) == 2
        # 10 particles alone get 13107 steps, and two seeds 6553 each
        assert seeds_per_block(10, 1) == 2

    def test_no_seed_joins_an_overfull_block(self):
        # one seed already overruns the budget at the floor of one factor
        assert noise.chunk_steps(2**17, 1, 4) == 4
        assert seeds_per_block(2**17, 1, 4) == 1
        assert seeds_per_block(2**16 + 1, 2, 1) == 1

    @given(
        particles=st.integers(1, 3000),
        bm_dim=st.integers(1, 3),
        multiple=st.sampled_from([1, 2, 8, 32]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rule(self, particles, bm_dim, multiple):
        half = noise.chunk_steps(particles, bm_dim, multiple) // 2
        seeds = seeds_per_block(particles, bm_dim, multiple)
        chunk = noise.chunk_steps(seeds * particles, bm_dim, multiple)
        budget = noise._CHUNK_ELEMENTS
        assert chunk >= half
        assert seeds == 1 or chunk * seeds * particles * bm_dim <= budget
        more = noise.chunk_steps((seeds + 1) * particles, bm_dim, multiple)
        assert more < half or more * (seeds + 1) * particles * bm_dim > budget

    @given(
        particles=st.integers(1, 2**18),
        bm_dim=st.integers(1, 5),
        multiple=st.integers(0, 10).map(lambda k: 2**k),
    )
    @settings(max_examples=500, deadline=None)
    def test_formula_equals_the_search(self, particles, bm_dim, multiple):
        assert seeds_per_block(particles, bm_dim, multiple) == seeds_per_block_search(
            particles, bm_dim, multiple
        )


def _fresh(code: str) -> list[str]:
    """The words a fresh interpreter prints after running ``code``."""
    src = Path(noise.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestNdtriLoad:
    """``ndtri`` comes from scipy's ``_ufuncs`` alone, and is scipy's own."""

    @pytest.mark.parametrize("first", ["scipy.special", "mvnsdde.noise"])
    def test_is_scipys_own_ndtri_in_either_import_order(self, first):
        code = (
            f"import {first}, mvnsdde.noise, scipy.special\n"
            "print(mvnsdde.noise.ndtri is scipy.special.ndtri)"
        )
        assert _fresh(code) == ["True"]

    def test_missing_ufuncs_names_its_cause_and_leaves_no_stub(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delitem(sys.modules, "scipy.special", raising=False)
        with pytest.raises(ImportError) as info:
            noise.scipy_extension("scipy.special._ufuncs", str(tmp_path))
        assert str(info.value) == (
            f"no extension module scipy.special._ufuncs in {tmp_path}"
        )
        assert info.value.name == "scipy.special._ufuncs"
        assert "scipy.special" not in sys.modules

    def test_a_module_that_fails_to_load_leaves_no_stub(self, tmp_path, monkeypatch):
        (tmp_path / "_ufuncs.py").write_text("raise ImportError('no ufuncs')\n")
        monkeypatch.delitem(sys.modules, "scipy.special", raising=False)
        monkeypatch.delitem(sys.modules, "scipy.special._ufuncs", raising=False)
        with pytest.raises(ImportError, match="no ufuncs"):
            noise.scipy_extension("scipy.special._ufuncs", str(tmp_path))
        assert "scipy.special" not in sys.modules
        assert "scipy.special._ufuncs" not in sys.modules


def test_a_half_read_stream_left_in_a_global_lets_the_interpreter_exit():
    # the helper is not a daemon: the executor's exit hook stops it, with
    # the next block's transform still submitted when the program ends
    code = (
        "from mvnsdde import noise\n"
        "noise._CHUNK_ELEMENTS = 4 * 3\n"
        "blocks = noise.stream_seeds([(4, 3)], 1, 0.25, 4.0)\n"
        "print(next(blocks).shape[0], next(blocks).shape[0])\n"
    )
    assert _fresh(code) == ["4", "4"]
