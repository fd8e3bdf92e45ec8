"""Reference code the tests compare the package against."""

from dataclasses import dataclass

import numpy as np

from mvnsdde import ParticleGrid, Stepper
from mvnsdde.scheme import sample_moments


def run_on(model, params, increments, check=True) -> ParticleGrid:
    """A full-storage run advanced once on hand-made increments.

    ``increments`` is the whole (steps, particles, bm_dim) path, such as
    zeros, permuted columns or :func:`mvnsdde.generate`'s array.
    """
    run = Stepper(model, params, check=check, full_storage=True)
    run.advance(increments)
    return ParticleGrid(states=run.states, params=params)


@dataclass(frozen=True)
class MomentMonitor:
    value: float
    argmax_index: int


def moment_monitor(grid: ParticleGrid, p: int) -> MomentMonitor:
    """Largest sample p-th moment of the state norm over the whole grid.

    Returns the maximum of (1/particles) * sum_a |U_n^a|^p over grid indices
    n (initial-segment rows included) and where it occurs: the full-grid
    oracle of ``Stepper(moment_p=p)``.
    """
    moments = sample_moments(grid.states, p)
    row = int(np.argmax(moments))
    return MomentMonitor(
        value=float(moments[row]), argmax_index=row - grid.delay_steps
    )
