"""Slab marching and the linearized fixed-point solver.

Each slab is solved by freezing the nonlinearity at the previous iterate:
the constant-coefficient system is LU-factored once (and reused across
iterations and across slabs of equal length) while the lagged terms
-k (dt(u^s dtu^s), w) - k (u(t-) dtu^s(t+), w(t+)) update the right-hand
side.  The initial guess is the k = 0 solve, so a linear problem converges
in exactly one iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .errors import DegenerateCoefficient, SolverFailure
from .slab import (SlabState, SlabSystem, SlabWorkspace, assemble_slab_rhs,
                   lagged_rhs, nonlinear_residual)
from .solution import DiscreteSolution
from .spacefe import FESpace, ritz_project, ritz_project_fd
from .timefe import TimePartition

S_MAX_DEFAULT = 15
TOL_DEFAULT = 1e-12
GUARD_DEFAULT = 0.1


class Factorization:
    """A slab operator together with its sparse LU, built once per slab length."""

    def __init__(self, system: SlabSystem):
        self.system = system
        self._lu = splu(system.lhs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@dataclass
class SlabSolveInfo:
    slab: int
    iterations: int
    increment: float
    coeff_min: float
    residual: float = np.nan


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
        it = self.iterations
        return float(np.mean(it)) if it else 0.0

    @property
    def iters_max(self) -> int:
        it = self.iterations
        return int(np.max(it)) if it else 0


def _qn_norm(space, tau, modal):
    """L2(Q_n) norm from full modal coefficients (mass-weighted)."""
    weights = tau / (2.0 * np.arange(modal.shape[0]) + 1.0)
    mv = (space.mass @ modal.T).T
    return float(np.sqrt(np.sum(weights * np.einsum("jd,jd->j", modal, mv))))


def solve_slab_fixed_point(fact: Factorization, ws: SlabWorkspace, state: SlabState,
                           f_loads: np.ndarray, k: float,
                           s_max: int = S_MAX_DEFAULT, tol: float = TOL_DEFAULT,
                           guard: float = GUARD_DEFAULT,
                           check_residual: bool = False) -> tuple[np.ndarray, SlabSolveInfo]:
    """Solve one slab; returns (modes (q, n_dof), info).

    Raises DegenerateCoefficient if 1 + k u drops to `guard` or below on the
    slab's space-time quadrature grid, SolverFailure if the increment is
    still above `tol` (relative L2(Q_n)) after `s_max` iterations.
    """
    system = fact.system
    space, q, tau = ws.space, ws.basis.q, system.tau
    free = space.free_dofs

    rhs_const = assemble_slab_rhs(ws, state, tau, system.c, f_loads)

    def embed(x):
        modes = np.zeros((q, space.n_dof))
        modes[:, free] = x.reshape(q, space.n_free)
        return modes

    modes = embed(fact.solve(rhs_const.ravel()))
    modal = ws.basis.to_modal(state.u_start, modes)
    info = SlabSolveInfo(slab=state.n, iterations=0, increment=np.inf, coeff_min=np.inf)

    for it in range(1, s_max + 1):
        lag, coeff_min = lagged_rhs(ws, state, tau, k, modal)
        info.coeff_min = min(info.coeff_min, coeff_min)
        if coeff_min <= guard:
            raise DegenerateCoefficient(
                f"coefficient 1 + k u reached {coeff_min:.3g} <= {guard} on slab {state.n}",
                slab=state.n, coeff_min=coeff_min)
        new_modes = embed(fact.solve((rhs_const + lag).ravel()))
        new_modal = ws.basis.to_modal(state.u_start, new_modes)
        num = _qn_norm(space, tau, new_modal - modal)
        den = _qn_norm(space, tau, new_modal)
        modes, modal = new_modes, new_modal
        info.iterations = it
        info.increment = num / den if den > 0 else num
        if num <= tol * den or num == 0.0:
            break
    else:
        raise SolverFailure(
            f"fixed-point iteration did not converge on slab {state.n} "
            f"(relative increment {info.increment:.3e} after {s_max} iterations)",
            slab=state.n, increment=info.increment)

    if check_residual:
        res = nonlinear_residual(ws, state, tau, system.c, system.delta, k,
                                 modal, f_loads)
        scale = max(np.abs(rhs_const).max(), 1e-300)
        info.residual = float(np.abs(res).max() / scale)
    return modes, info


def solve_westervelt(space: FESpace, partition: TimePartition, q: int, *,
                     c: float, k: float, delta: float, f,
                     u0=None, u0_grad=None, u1=None,
                     s_max: int = S_MAX_DEFAULT, tol: float = TOL_DEFAULT,
                     guard: float = GUARD_DEFAULT,
                     check_residual: bool = False) -> tuple[DiscreteSolution, SolverReport]:
    """March the DG-CG scheme over all slabs.

    Initial data: u(0) is the Ritz projection of u0 (needing u0_grad; a
    finite-difference fallback is used when only u0 is given), and u1 enters
    weakly through ((1+k u0) u1, w(0)).  Zero data may be passed as None.
    """
    if q < 2:
        raise ValueError(f"the scheme needs temporal degree q >= 2, got {q}")
    t_start = time.perf_counter()
    ws = SlabWorkspace(space, q)

    if u0_grad is not None:
        ustart = ritz_project(space, u0_grad)
    elif u0 is not None:
        ustart = ritz_project_fd(space, u0)
    else:
        ustart = np.zeros(space.n_dof)

    # weak initial-velocity load ((1+k u0) u1, phi) from the exact data
    ed = ws.ed_lin
    x, y = ed.phys[:, :, 0], ed.phys[:, :, 1]
    if u1 is not None:
        u0v = np.broadcast_to(u0(x, y), x.shape) if u0 is not None else 0.0
        u1v = np.broadcast_to(u1(x, y), x.shape)
        trace_load = ed.assemble_pointwise_load((1.0 + k * u0v) * u1v)
    else:
        trace_load = np.zeros(space.n_dof)

    report = SolverReport()
    factors: dict[float, Factorization] = {}
    all_modes = np.empty((partition.n_slabs, q, space.n_dof))
    sol_bp = ustart
    state = SlabState(n=1, u_start=ustart, trace_load=trace_load)

    for n in range(1, partition.n_slabs + 1):
        tau = float(partition.taus[n - 1])
        if tau in factors:
            report.factorization_reuses += 1
        else:
            factors[tau] = Factorization(SlabSystem(space, q, tau, c, delta))
            report.n_factorizations += 1

        f_loads = ws.f_time_loads(f, float(partition.breakpoints[n - 1]), tau)
        modes, info = solve_slab_fixed_point(
            factors[tau], ws, state, f_loads, k, s_max=s_max, tol=tol, guard=guard,
            check_residual=check_residual)
        report.slabs.append(info)
        all_modes[n - 1] = modes

        # hand the traces to the next slab
        if n < partition.n_slabs:
            v_minus = ws.basis.rows(sol_bp, modes, 1.0, tau, deriv=1)
            sol_bp = ws.basis.end_value(sol_bp, modes)
            uq = ws.ed_nl.function_values(sol_bp)
            vq = ws.ed_nl.function_values(v_minus)
            tl = ws.ed_nl.assemble_pointwise_load((1.0 + k * uq) * vq)
            state = SlabState(n=n + 1, u_start=sol_bp, trace_load=tl)

    sol = DiscreteSolution(space, partition, q, all_modes, ustart)
    report.runtime_s = time.perf_counter() - t_start
    return sol, report
