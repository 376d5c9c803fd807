"""Space-time finite element solver for the Westervelt equation.

Continuous piecewise-polynomial trial functions in time tested against
discontinuous ones of one degree less, marched slab by slab with a
linearized fixed-point iteration; arbitrary-order simplicial Lagrange
elements in space.
"""

from .analysis import data_functional, energy_norm, eoc, err_linf_l2, jump_functional
from .cases import (CASES, ManufacturedCase, ProblemConfig, get_case,
                    run_problem, verify_manufactured)
from .errors import DegenerateCoefficient, SolverFailure
from .mesh import Mesh, mesh_size, unit_square_mesh
from .projection import combined_project
from .solution import DiscreteSolution
from .solver import SolverReport, slab_residuals, solve_westervelt
from .spacefe import FESpace, evaluate, interpolate, ritz_project
from .studies import StudySpec, run_study, write_study_outputs
from .timefe import TimePartition, zeta
from .verify import VerifyReport, run_verify
from .version import __version__

__all__ = [
    "CASES",
    "DegenerateCoefficient",
    "DiscreteSolution",
    "FESpace",
    "ManufacturedCase",
    "Mesh",
    "ProblemConfig",
    "SolverFailure",
    "SolverReport",
    "StudySpec",
    "TimePartition",
    "VerifyReport",
    "__version__",
    "combined_project",
    "data_functional",
    "energy_norm",
    "eoc",
    "err_linf_l2",
    "evaluate",
    "get_case",
    "interpolate",
    "jump_functional",
    "mesh_size",
    "ritz_project",
    "run_problem",
    "run_study",
    "run_verify",
    "slab_residuals",
    "solve_westervelt",
    "unit_square_mesh",
    "verify_manufactured",
    "write_study_outputs",
    "zeta",
]
