"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class MvnsddeError(Exception):
    """Base class for all package errors."""


class ShapeError(MvnsddeError, ValueError):
    """Dimension or size mismatch between measures or arrays, or a measure
    with a non-finite point."""


class CapacityError(MvnsddeError):
    """Input exceeds a hard size cap; the caller should subsample."""


class GridError(MvnsddeError, ValueError):
    """Inconsistent time-grid bookkeeping (step counts, coarsening factors)."""


class ConfigError(MvnsddeError, ValueError):
    """Malformed or unusable run configuration."""


class ValidationFailure(ConfigError):
    """A model/parameter validation report came back with violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("validation failed: " + "; ".join(self.violations))


class DegenerateFitError(MvnsddeError, ValueError):
    """Slope fit requested on a table with too few usable (positive) rows."""


class OverflowAbort(MvnsddeError, RuntimeError):
    """A simulation produced a non-finite state.

    Carries the step index at which the first non-finite coordinate appeared,
    the seed of the particle system it appeared in and that system's
    offending particle indices (0-based), and the last fully finite grid
    prefix when the caller kept full storage.
    """

    def __init__(
        self, step: int, particles: np.ndarray, prefix=None, seed: int | None = None
    ):
        self.step = int(step)
        self.particles = np.asarray(particles, dtype=np.int64)
        self.prefix = prefix
        self.seed = seed
        ids = ", ".join(str(p) for p in self.particles[:8])
        more = "..." if self.particles.size > 8 else ""
        where = "" if seed is None else f"seed {seed}, "
        super().__init__(
            f"non-finite state at step {self.step} ({where}particles {ids}{more})"
        )
