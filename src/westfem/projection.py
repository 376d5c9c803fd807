"""Combined space-time projection: Ritz in space composed with the
degree-q temporal projection, applied dof-wise.

The result lives in the same trial space as the discrete solution, so the
error functionals in `analysis` apply to it unchanged.  Used by the
verification suites to check the projection approximation rates that the
solver's convergence rests on.
"""
from __future__ import annotations

import numpy as np

from .solution import DiscreteSolution
from .spacefe import FESpace, ritz_project
from .timefe import TimePartition, ptau_project


def combined_project(space: FESpace, partition: TimePartition, q: int,
                     case) -> DiscreteSolution:
    """Project the exact solution of `case` onto the discrete trial space.

    Spatial Ritz projection at each temporal quadrature node, then the
    slab-wise degree-q temporal projection P_tau (start value chained, end
    slope matched, interior moments of the time derivative matched).
    Requires the case to carry closed-form gradients of u and dt(u).
    """
    if case.grad_u is None or case.grad_dtu is None:
        raise ValueError("combined projection needs grad_u and grad_dtu")
    if q < 2:
        raise ValueError(f"temporal projection needs q >= 2, got {q}")
    start = ritz_project(space, lambda x, y: case.grad_u(x, y, partition.breakpoints[0]))

    def ritz_dtu(t):
        """Ritz projection of dt u at a time, or stacked over an array of times."""
        if np.ndim(t):
            return np.stack([ritz_dtu(s) for s in t])
        return ritz_project(space, lambda x, y: case.grad_dtu(x, y, t))

    proj = ptau_project(q, lambda t: start, ritz_dtu, partition)
    return DiscreteSolution(space, partition, q, proj.coeffs[:, 1:], start)
