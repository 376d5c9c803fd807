"""Slab marching and the linearized fixed-point solver.

Each slab is solved by freezing the nonlinearity at the previous iterate:
the constant-coefficient system is LU-factored once (reused across
iterations and across slabs of equal length, and freed after the last slab
of its length) while the lagged terms
-k (dt(u^s dtu^s), w) - k (u(t-) dtu^s(t+), w(t+)) update the right-hand
side.  The initial guess is the k = 0 solve, so a linear problem converges
in exactly one iteration.

A new slab length is factored before its slab's data is built.  The first
slab LU is a solve's largest allocation and sets its peak memory, so it
comes before the start traces, the loads and the nonlinear rule's element
data exist: beside it live only the space's matrices and the operator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .errors import DegenerateCoefficient, SolverFailure
from . import slab
from .slab import (SlabState, SlabWorkspace, assemble_slab_rhs, coupling_blocks, first_state,
                   lagged_rhs, next_state, nonlinear_residual)
from .solution import DiscreteSolution
from .spacefe import FESpace
from .timefe import TimePartition

# the fixed-point policy: at most S_MAX iterations per slab until the
# relative L2(Q_n) increment is at most TOL, and 1 + k u must stay above GUARD
S_MAX = 15
TOL = 1e-12
GUARD = 0.1


class Factorization:
    """Sparse LU of the constant-coefficient slab operator, built once per
    slab length and shared by all slabs of that length on a fixed space."""

    def __init__(self, ws: SlabWorkspace, tau: float):
        # the LHS is built through the module binding, which the benchmark's
        # trace wraps (bench/westbench/layers.py)
        self._lu = splu(slab.assemble_slab_lhs(ws.space, *coupling_blocks(
            ws.basis.q, tau, ws.case.c, ws.case.delta)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@dataclass
class SlabSolveInfo:
    slab: int
    iterations: int
    increment: float
    coeff_min: float


@dataclass
class SolverReport:
    slabs: list = field(default_factory=list)
    n_factorizations: int = 0
    factorization_reuses: int = 0
    runtime_s: float = 0.0

    @property
    def iterations(self):
        return [s.iterations for s in self.slabs]

    @property
    def iters_mean(self) -> float:
        return float(np.mean(self.iterations)) if self.slabs else 0.0

    @property
    def iters_max(self) -> int:
        return int(np.max(self.iterations)) if self.slabs else 0


def _qn_norms(ws, tau, *modals):
    """L2(Q_n) norms of full modal coefficients (mass-weighted), one mass
    product for all of them; each equals its own single-argument call."""
    rows = np.concatenate(modals)
    weights = tau / ws.basis.inv_norm2
    sq = np.einsum("jd,jd->j", rows, (ws.space.mass @ rows.T).T).reshape(len(modals), -1)
    return [float(np.sqrt(np.sum(weights * s))) for s in sq]


def solve_slab_fixed_point(fact: Factorization, ws: SlabWorkspace,
                           state: SlabState) -> tuple[np.ndarray, SlabSolveInfo]:
    """Solve one slab; returns (modes (q, n_dof), info).

    Raises DegenerateCoefficient if 1 + k u drops to GUARD or below, or is
    NaN, on the slab's space-time quadrature grid, SolverFailure if a lagged
    load is not finite or the increment is still above TOL (relative
    L2(Q_n)) after S_MAX iterations.
    """
    space, q, tau = ws.space, ws.basis.q, state.tau
    free = space.free_dofs
    interval = (state.t_start, state.t_start + tau)
    where = "slab {} (t in [{:g}, {:g}])".format(state.n, *interval)

    rhs_const = assemble_slab_rhs(ws, state)

    def embed(x):
        modes = np.zeros((q, space.n_dof))
        modes[:, free] = x.reshape(q, space.n_free)
        return modes

    modes = embed(fact.solve(rhs_const.ravel()))
    modal = ws.basis.to_modal(state.u_start, modes)
    info = SlabSolveInfo(slab=state.n, iterations=0, increment=np.inf, coeff_min=np.inf)

    for it in range(1, S_MAX + 1):
        lag, coeff_min = lagged_rhs(ws, state, modal)
        info.coeff_min = min(info.coeff_min, coeff_min)
        if not coeff_min > GUARD:                 # NaN included
            raise DegenerateCoefficient(
                f"coefficient 1 + k u reached {coeff_min:.3g}, not above {GUARD}, on {where}",
                slab=state.n, coeff_min=coeff_min, interval=interval)
        if not np.isfinite(lag).all():
            raise SolverFailure(f"lagged load is not finite on {where}",
                                slab=state.n, increment=info.increment, interval=interval)
        new_modes = embed(fact.solve((rhs_const + lag).ravel()))
        new_modal = ws.basis.to_modal(state.u_start, new_modes)
        num, den = _qn_norms(ws, tau, new_modal - modal, new_modal)
        modes, modal = new_modes, new_modal
        info.iterations = it
        info.increment = num / den if den > 0 else num
        if num <= TOL * den or num == 0.0:
            return modes, info
    raise SolverFailure(
        f"fixed-point iteration did not converge on {where} "
        f"(relative increment {info.increment:.3e} after {S_MAX} iterations)",
        slab=state.n, increment=info.increment, interval=interval)


def solve_westervelt(space: FESpace, partition: TimePartition, q: int,
                     case) -> tuple[DiscreteSolution, SolverReport]:
    """March the DG-CG scheme for `case` (a cases.ManufacturedCase) over the slabs
    of `partition`; slab.first_state and slab.next_state build each slab's data."""
    if q < 2:
        raise ValueError(f"the scheme needs temporal degree q >= 2, got {q}")
    t_start = time.perf_counter()
    ws = SlabWorkspace(space, q, case)
    report = SolverReport()
    factors: dict[float, Factorization] = {}
    last = {tau: n for n, tau in enumerate(partition.taus)}   # last slab of each length
    all_modes = np.empty((partition.n_slabs, q, space.n_dof))

    for n in range(partition.n_slabs):
        tau = float(partition.taus[n])
        if tau not in factors:
            factors[tau] = Factorization(ws, tau)
            report.n_factorizations += 1
        if n == 0:
            state = start = first_state(ws, partition)
        else:
            state = next_state(ws, state, all_modes[n - 1], partition)
        all_modes[n], info = solve_slab_fixed_point(factors[tau], ws, state)
        report.slabs.append(info)
        if last[tau] == n:
            del factors[tau]

    report.factorization_reuses = partition.n_slabs - report.n_factorizations
    sol = DiscreteSolution(space, partition, q, all_modes, start.u_start)
    report.runtime_s = time.perf_counter() - t_start
    return sol, report


def slab_residuals(sol: DiscreteSolution, case) -> list[float]:
    """Residual of the full nonlinear system (slab.nonlinear_residual) on each
    slab of a finished solution, as max |residual| / max |fixed RHS|."""
    ws = SlabWorkspace(sol.space, sol.q, case)
    state, out = first_state(ws, sol.partition), []
    for n in range(sol.partition.n_slabs):
        if n > 0:
            state = next_state(ws, state, sol.modes[n - 1], sol.partition)
        res = nonlinear_residual(ws, state, sol.modal(n))
        scale = max(np.abs(assemble_slab_rhs(ws, state)).max(), 1e-300)
        out.append(float(np.abs(res).max() / scale))
    return out
