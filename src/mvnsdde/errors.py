"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class MvnsddeError(Exception):
    """Base class for all package errors."""


class ShapeError(MvnsddeError, ValueError):
    """A sample of the wrong rank, dimension or size, one that is empty or
    has a non-finite point, or one whose squared distances could overflow;
    or a cost buffer that does not fit them."""


class CapacityError(MvnsddeError):
    """Input exceeds a hard size cap; the caller should subsample."""


class GridError(MvnsddeError, ValueError):
    """Inconsistent time-grid bookkeeping (step counts, coarsening factors)
    or a seed that is not a 64-bit unsigned integer."""


class ConfigError(MvnsddeError, ValueError):
    """Malformed or unusable run configuration."""


class ValidationFailure(ConfigError):
    """Validation found violations in a run's model and parameters."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("validation failed: " + "; ".join(self.violations))


class DegenerateFitError(MvnsddeError, ValueError):
    """Slope fit requested on a table with too few usable (positive) rows."""


class OverflowAbort(MvnsddeError, RuntimeError):
    """A simulation produced a non-finite state.

    Carries the step index at which the first non-finite coordinate appeared,
    the step size ``delta`` of the grid it appeared on (a study runs several),
    the seed of the particle system it appeared in and that system's
    offending particle indices (0-based).  ``prefix`` is ``None``, or, when
    :func:`~mvnsdde.simulate` ran, the :class:`~mvnsdde.ParticleGrid` that
    recorded every row before that step.
    """

    def __init__(self, step: int, particles: np.ndarray, seed: int, delta: float):
        self.step = int(step)
        self.particles = np.asarray(particles, dtype=np.int64)
        self.prefix = None
        self.seed = seed
        self.delta = delta
        ids = ", ".join(str(p) for p in self.particles[:8])
        more = "..." if self.particles.size > 8 else ""
        where = f"seed {seed}, particles {ids}{more}"
        super().__init__(
            f"non-finite state at step {self.step} of the delta {delta!r} grid, "
            f"t = {self.step * delta!r} ({where})"
        )
