"""Tamed Euler-Maruyama particle simulator for mean-field neutral
stochastic differential delay equations, with coupled convergence studies.
"""

from .errors import (
    CapacityError,
    ConfigError,
    DegenerateFitError,
    GridError,
    MvnsddeError,
    OverflowAbort,
    ShapeError,
    ValidationFailure,
)
from .experiments import (
    ErrorRow,
    ErrorTable,
    ExperimentReport,
    TamingReport,
    chaos_error_vs_particles,
    empirical_measure_rate,
    fit_loglog_slope,
    moment_bound_vs_dt,
    strong_error_vs_dt,
    taming_comparison,
)
from .measure import EmpiricalMeasure, w2_assignment, w2sq_to_standard_normal_1d
from .model import (
    Grid,
    ModelSpec,
    build_model,
    cubic_no_mf,
    example51,
    linear_meanfield,
    validate,
)
from .noise import coarsen
from .scheme import ParticleGrid, simulate, simulate_terminal

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "DegenerateFitError",
    "EmpiricalMeasure",
    "ErrorRow",
    "ErrorTable",
    "ExperimentReport",
    "Grid",
    "GridError",
    "ModelSpec",
    "MvnsddeError",
    "OverflowAbort",
    "ParticleGrid",
    "ShapeError",
    "TamingReport",
    "ValidationFailure",
    "build_model",
    "chaos_error_vs_particles",
    "coarsen",
    "cubic_no_mf",
    "empirical_measure_rate",
    "example51",
    "fit_loglog_slope",
    "linear_meanfield",
    "moment_bound_vs_dt",
    "simulate",
    "simulate_terminal",
    "strong_error_vs_dt",
    "taming_comparison",
    "validate",
    "w2_assignment",
    "w2sq_to_standard_normal_1d",
]
