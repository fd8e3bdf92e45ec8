"""Reproducible Brownian increments, streamed in time-major blocks.

Increments are derived from a counter-based pseudo-random function so that
any entry is computable independently of generation order: particle ``a``
owns the Philox4x64 stream keyed ``[seed, a]``, raw 64-bit outputs are
consumed in flat ``step * bm_dim + component`` order, mapped to uniforms in
(0, 1), and pushed through the inverse normal CDF.  Coarse-step and
fine-step runs therefore share one Brownian path: summing blocks of fine
increments reproduces the coarse increments of the same path exactly.

Every run reads the path as a stream of time-major blocks, a pass's
segments laid out by :func:`stream_seeds`, so no full grid exists in
memory.  Two blocks are in flight: while one is out, the calling thread
draws the next one's uniforms and a ``ThreadPoolExecutor``'s one helper
transforms them, which gives the same bits because each number is a pure
function of its key and counter.  With :func:`coarsen`, the one
coarsening rule, this module owns the whole determinism contract: streams
keyed by particle id, a smaller system reading a prefix of a larger
one's, and block sums.  :func:`generate` concatenates one segment's
stream, the oracle of the tests.

``ndtri``, the one scipy.special function the package uses, comes from
scipy's ``_ufuncs`` extension alone (:func:`scipy_extension`), so the 51
more modules and about 13 MiB of ``scipy.special``'s ``__init__`` never load.
"""

from __future__ import annotations

import importlib.machinery
import math
import os
import sys
import types
from itertools import accumulate

import numpy as np
import scipy
from numpy.random import Generator, Philox

from .errors import GridError

# The directory of scipy's own subpackages.
SCIPY_DIR = scipy.__path__[0]


def scipy_extension(module: str, directory: str):
    """scipy's extension ``module`` from ``directory``, loaded without its
    package's ``__init__``: unless the package is loaded, a stub of it stands
    in while the module and the siblings it imports relatively load.  A
    module not in ``directory`` is an ImportError naming both."""
    if importlib.machinery.PathFinder.find_spec(module, [directory]) is None:
        raise ImportError(f"no extension module {module} in {directory}", name=module)
    package = module.rpartition(".")[0]
    if package in sys.modules:
        return importlib.import_module(module)
    stub = types.ModuleType(package)
    stub.__path__ = [directory]
    sys.modules[package] = stub
    try:
        return importlib.import_module(module)
    finally:
        del sys.modules[package]


ndtri = scipy_extension(
    "scipy.special._ufuncs", os.path.join(SCIPY_DIR, "special")
).ndtri

# Particle streams use key=[seed, particle] with particle < 2**63; auxiliary
# streams (validation probes, sampling experiments) live in the high half so
# the two namespaces cannot collide.
_AUX_NAMESPACE = 1 << 63

# Numbers per streamed block (steps x particles x bm_dim), shared by all the
# seeds drawn side by side: 1 MiB of float64, and a pass keeps two blocks
# alive, the one being stepped and the next being transformed.
_CHUNK_ELEMENTS = 2**17


def is_whole(value) -> bool:
    """Whether ``value`` is an int or a whole float; a bool is neither."""
    try:
        return not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def check_seed(seed) -> int:
    """``seed`` as an int; a :class:`GridError` unless it is a whole number
    that fits 64 unsigned bits (3.5 and True are refused, not read as 3 and 1)."""
    whole = int(seed) if is_whole(seed) else -1
    if not 0 <= whole < 2**64:
        raise GridError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return whole


def is_integer_ratio(num: float, den: float) -> bool:
    """Whether ``num / den`` is a positive integer, to 1e-9 relative."""
    ratio = num / den
    if not 0.5 <= ratio < math.inf:  # also false for nan
        return False
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)


def derived_generator(seed: int, tag: int) -> Generator:
    """Auxiliary RNG stream, disjoint from every particle stream."""
    check_seed(seed)
    # Known defect: numpy rounds this list key's high word through float64,
    # so nearby tags collide; exact uint64 words, as in :func:`stream_seeds`,
    # would change the empirical-rate samples, the only outputs drawn here
    # (validation's probe stream decides a verdict, never an output byte).
    return Generator(Philox(key=[seed, _AUX_NAMESPACE + tag]))


def chunk_steps(particles: int, bm_dim: int, multiple: int = 1) -> int:
    """Steps per streamed block: the element budget, a multiple of ``multiple``."""
    fit = _CHUNK_ELEMENTS // (particles * bm_dim) // multiple * multiple
    return max(multiple, fit)


def seeds_per_block(particles: int, bm_dim: int, multiple: int = 1) -> int:
    """How many seeds' streams of ``particles`` columns share one block.

    Seeds join while the shared block still fits the element budget and
    keeps at least half (rounded down) the steps of the block one seed gets
    alone; both block lengths are :func:`chunk_steps`.  So the shared
    block, a multiple of ``multiple`` long, must keep ``least`` steps, the
    first multiple not below that half (nor below ``multiple``), and as
    many seeds join as fit ``least`` steps of their columns in the budget.
    """
    half = chunk_steps(particles, bm_dim, multiple) // 2
    least = -(-max(half, multiple) // multiple) * multiple
    return max(1, _CHUNK_ELEMENTS // (least * particles * bm_dim))


def stream_seeds(segments, bm_dim, delta_base, horizon, multiple=1):
    """The increments of a pass's ``(seed, particles)`` segments as blocks
    of time rows, each segment's columns in segment order.

    Each seed's streams are drawn once, as many as its largest segment
    takes, and each segment takes the leading ones.  Blocks are (steps,
    particles, bm_dim), :func:`chunk_steps` of the drawn width and
    ``multiple`` long (the last one shorter if need be); each is a
    time-major view of stream-major memory (of the draw's gathered rows
    unless the segments take every stream in order), so not C-ordered.
    Each particle keeps one Philox generator, and successive draws continue
    its stream, so the blocks are the same path whatever their length.
    Each block is drawn, and transformed on one helper thread, while the
    one before it is out (:func:`_blocks`), so a caller that drops a block
    before asking for the next holds at most two.
    """
    counts = [bm_dim, multiple, *(particles for _, particles in segments)]
    if not segments or not all(is_whole(n) and n >= 1 for n in counts):
        raise GridError("a stream needs segments; particles, bm_dim and multiple >= 1")
    if not (delta_base > 0 and is_integer_ratio(horizon, delta_base)):
        raise GridError(f"horizon {horizon} is not whole steps of {delta_base}")
    bm_dim, multiple = int(bm_dim), int(multiple)
    steps, columns = round(horizon / delta_base), {}
    for seed, particles in segments:
        seed = check_seed(seed)
        columns[seed] = max(columns.get(seed, 0), int(particles))
    first = dict(zip(columns, accumulate([0, *columns.values()])))
    width = sum(columns.values())
    gather = [first[int(seed)] + np.arange(int(n)) for seed, n in segments]
    gather = np.concatenate(gather)
    if np.array_equal(gather, np.arange(width)):
        gather = None  # every drawn stream, in order
    # exact uint64 words: numpy rounds a list key's words >= 2**63 through
    # float64, so distinct seeds would share a stream; building the keys as a
    # list first raised particle_sweep's peak RSS by 0.9 MiB
    streams = [Generator(Philox(key=np.array((seed, a), dtype=np.uint64)))
               for seed, particles in columns.items() for a in range(particles)]
    chunk = chunk_steps(width, bm_dim, multiple)
    lengths = [min(chunk, steps - n) for n in range(0, steps, chunk)]
    return _blocks(streams, lengths, bm_dim, np.sqrt(delta_base), gather)


def _transform(u, scale) -> None:
    """Turn the uniforms ``u`` into increments of standard deviation
    ``scale``, in place: the offset, ``ndtri`` and the scale."""
    u += 2.0**-54
    ndtri(u, out=u)
    u *= scale


def _blocks(streams, lengths, bm_dim, scale, gather):
    """The blocks of ``lengths`` rows of every stream (or of the ``gather``
    streams), each drawn while the one before it is out.

    This thread fills a block's uniforms, each stream its own row in stream
    order, and submits their :func:`_transform` to one helper thread while
    it yields the block before; the gather copies whole rows once that
    block is dropped.  So at most two blocks are alive: two draws, or a
    draw and a gathered block.  The transform calls only ``ndtri`` and
    ndarray methods, each a pure function of its numbers, so the bits are
    those of this thread.  A block waits for its transform, an error the
    helper hits is raised here, and the executor joins the helper when the
    stream ends or is closed, or at interpreter exit.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import

    block = None
    with ThreadPoolExecutor(1) as helper:
        for steps in lengths:
            u = np.empty((len(streams), steps * bm_dim))
            for i, rng in enumerate(streams):  # no row view outlives the fill
                rng.random(out=u[i])  # (raw >> 11) * 2**-53, one raw per number
            transformed = helper.submit(_transform, u, scale)
            if block is not None:
                yield block
                block = None  # freed before the gather, if the caller is done
            transformed.result()
            if gather is not None:
                u = u.take(gather, axis=0)  # rebound, so the draw is freed here
            block = u.reshape(len(u), steps, bm_dim).transpose(1, 0, 2)
    yield block


def generate(
    seed: int, particles: int, bm_dim: int, delta_base: float, horizon: float
) -> np.ndarray:
    """The whole stream of one seed as one (steps, particles, bm_dim) array.

    Each entry is N(0, delta_base) i.i.d.; entry (n, a, k) depends only on
    (seed, a, n, k), so regeneration with any particle count reproduces the
    shared streams bit-for-bit.
    """
    blocks = stream_seeds([(seed, particles)], bm_dim, delta_base, horizon)
    return np.concatenate(list(blocks))


def coarsen(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum blocks of ``factor`` consecutive time rows, left to right.

    The one coarsening rule, so a coarse run sees the same sums whether its
    fine path arrives whole or in blocks of a multiple of ``factor`` rows.
    ``factor`` must be a whole number (not a bool) dividing the row count;
    1 returns the input.
    """
    if not is_whole(factor) or factor < 1:
        raise GridError(f"coarsening factor must be an integer >= 1, got {factor!r}")
    factor = int(factor)
    if len(increments) % factor != 0:
        raise GridError(
            f"factor {factor} does not divide step count {len(increments)}"
        )
    if factor == 1:
        return increments
    blocks = increments.reshape(
        len(increments) // factor, factor, *increments.shape[1:]
    )
    acc = blocks[:, 0].copy()
    for j in range(1, factor):
        acc += blocks[:, j]
    return acc
