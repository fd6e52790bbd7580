"""Closed queueing network substrate: specifications and MVA solvers."""

from .bounds import AsymptoticBounds, asymptotic_bounds, balanced_job_bounds
from .convolution import convolution_solve, normalization_constants
from .mva_approx import bard_schweitzer, linearizer
from .mva_batch import solve_batch, solve_symmetric_batch
from .mva_exact import exact_mva, exact_mva_single_class, lattice_size
from .mva_symmetric import SymmetricSolution, solve_symmetric
from .network import ClosedNetwork, StationKind
from .solution import (
    BatchTelemetry,
    ConvergenceError,
    ConvergenceWarning,
    QNSolution,
    SolverTelemetry,
)

__all__ = [
    "ClosedNetwork",
    "StationKind",
    "QNSolution",
    "SolverTelemetry",
    "BatchTelemetry",
    "ConvergenceWarning",
    "ConvergenceError",
    "exact_mva",
    "exact_mva_single_class",
    "lattice_size",
    "bard_schweitzer",
    "linearizer",
    "solve_batch",
    "solve_symmetric_batch",
    "SymmetricSolution",
    "solve_symmetric",
    "AsymptoticBounds",
    "asymptotic_bounds",
    "balanced_job_bounds",
    "convolution_solve",
    "normalization_constants",
]
