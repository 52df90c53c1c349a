"""Multisplitting solvers for linear complementarity problems.

Solves x >= 0, A x - f >= 0, x . (A x - f) = 0 for H-matrix coefficients by
relaxed nonstationary multisplitting iterations, synchronously or
asynchronously, with runtime validation of the convergence hypotheses.
"""

from .errors import ConvergenceError
from .sparse import SparseMatrix, abs_matrix, comparison_matrix, spmv
from .hmatrix import (MatrixClass, SpectralRadiusEstimate, classify,
                      solve_m_matrix, spectral_radius_nonneg, weighted_max_norm)
from .splitting import (ContractionOperator, MultisplittingSet,
                        MultisplittingValidation, Partition, Splitting,
                        WeightingScheme, build_block_splitting, compute_eta,
                        min_inner_count, validate_multisplitting)
from .sublcp import (LcpProblem, LcpSolution, brute_force_lcp, natural_residual,
                     projected_gauss_seidel, solve_sub_lcp)
from .sync import (InnerSchedule, IterationReport, SolverConfig, StepEvent,
                   schedule_inner_count, solve_sync)
from .asynchronous import (AllEveryStep, AsyncSchedule, RandomFair, RoundRobin,
                           solve_async_sim, solve_async_threaded)
from .problems import GridLcpSpec, make_grid_lcp, reference_solve

__all__ = [
    "AllEveryStep", "AsyncSchedule", "ConvergenceError",
    "ContractionOperator", "GridLcpSpec", "InnerSchedule", "IterationReport",
    "LcpProblem", "LcpSolution", "MatrixClass", "MultisplittingSet",
    "MultisplittingValidation", "Partition", "RandomFair", "RoundRobin",
    "SolverConfig", "SparseMatrix", "SpectralRadiusEstimate", "Splitting",
    "StepEvent", "WeightingScheme", "abs_matrix", "brute_force_lcp",
    "build_block_splitting", "classify", "comparison_matrix", "compute_eta",
    "make_grid_lcp", "min_inner_count", "natural_residual",
    "projected_gauss_seidel", "reference_solve", "schedule_inner_count",
    "solve_async_sim", "solve_async_threaded", "solve_m_matrix",
    "solve_sub_lcp", "solve_sync", "spectral_radius_nonneg", "spmv",
    "validate_multisplitting", "weighted_max_norm",
]

__version__ = "0.1.0"
