"""Slab systems of the DG-CG scheme.

Trial functions on a slab are continuous in time with degree q, test
functions discontinuous with degree q-1 (both in `timefe.TrialBasis`), so
after eliminating the known start trace each slab is a q x q block system
over the free spatial dofs.
The constant-coefficient left-hand side

    (dtt u, w) + (dt u(t+), w(t+)) + c^2 (grad u, grad w) + delta (grad dt u, grad w)

is a Kronecker combination of temporal coupling blocks with the spatial
mass and stiffness matrices.  The nonlinearity enters only on the
right-hand side through the lagged terms of the fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .spacefe import FESpace
from .timefe import trial_basis


def coupling_blocks(q: int, tau: float, c: float, delta: float):
    """Dense (q,q) temporal coefficient blocks (C_M, C_K) for the LHS, in the
    start-anchored trial basis B_j = Lt_j - (-1)^j, j = 1..q."""
    b = trial_basis(q)
    cm = (b.a2[:, 1:] + np.outer(b.test_start, b.d0[1:])) / tau
    a0b = b.a0[:, 1:].copy()
    a0b[0, :] -= b.lt_start[1:]            # <Lt_0, B_j> correction
    ck = c * c * tau * a0b + delta * b.a1[:, 1:]
    return cm, ck


def assemble_slab_lhs(space: FESpace, cm: np.ndarray, ck: np.ndarray) -> sp.csc_matrix:
    """kron(C_M, M_ff) + kron(C_K, K_ff), temporal-mode-major ordering."""
    lhs = (sp.kron(sp.csr_matrix(cm), space.mass_ff)
           + sp.kron(sp.csr_matrix(ck), space.stiffness_ff))
    return lhs.tocsc()


@dataclass
class SlabState:
    """Known data entering slab n: the shared start trace and the assembled
    trace load.  For n = 1 the trace load is the weak initial-velocity term
    ((1+k u0) u1, phi); for n >= 2 it is ((1+k u(t_{n-1})) dtu(t_{n-1}^-), phi)."""

    n: int                    # 1-based slab index
    u_start: np.ndarray       # (n_dof,)
    trace_load: np.ndarray    # (n_dof,)


class SlabWorkspace:
    """Spatial quadrature data and the temporal trial basis shared by RHS
    assembly, residuals, and the guard."""

    def __init__(self, space: FESpace, q: int):
        self.space = space
        self.basis = trial_basis(q)
        self.ed_lin = space.ed_lin
        self.ed_nl = space.ed_nl

    def f_time_loads(self, f, t_start: float, tau: float) -> np.ndarray:
        """Spatial loads of f at the slab's temporal Gauss nodes; (2q, n_dof)."""
        ed = self.ed_lin
        vals = np.stack([ed.sample(f, t_start + tau * gk) for gk in self.basis.nodes])
        return ed.assemble_pointwise_load_multi(vals)

    def time_integrate(self, loads: np.ndarray, tau: float) -> np.ndarray:
        """tau * int_0^1 Lt_i(s) load(s) ds from nodal loads; (2q, dof) -> (q, dof)."""
        return tau * (self.basis.test_w @ loads)


def assemble_slab_rhs(ws: SlabWorkspace, state: SlabState, tau: float,
                      c: float, f_loads: np.ndarray) -> np.ndarray:
    """Fixed part of the slab right-hand side (no lagged terms); (q, n_free)."""
    space = ws.space
    rhs = ws.time_integrate(f_loads, tau)[:, space.free_dofs]
    rhs += np.outer(ws.basis.test_start, state.trace_load[space.free_dofs])
    rhs[0] -= c * c * tau * (space.stiffness @ state.u_start)[space.free_dofs]
    return rhs


def slab_fields(ws: SlabWorkspace, state: SlabState, tau: float, modal: np.ndarray):
    """Iterate given in full modal form (q+1, n_dof) at the nonlinear
    quadrature points: u, dt u and dtt u on the space-time grid (each
    (2q, nt, nq)), then u(t_{n-1}) and dt u(t_{n-1}^+) in space (nt, nq)."""
    b, ed = ws.basis, ws.ed_nl
    uq = ed.function_values_multi(b.values.T @ modal)
    dtq = ed.function_values_multi((b.ds.T @ modal) / tau)
    dttq = ed.function_values_multi((b.dss.T @ modal) / tau ** 2)
    uprev_q = ed.function_values(state.u_start)
    dtu0_q = ed.function_values((b.d0 @ modal) / tau)
    return uq, dtq, dttq, uprev_q, dtu0_q


def lagged_rhs(ws: SlabWorkspace, state: SlabState, tau: float, k: float,
               modal: np.ndarray):
    """Lagged nonlinear terms -k (dt(u dtu), w) - k (u(t-) dtu(t+), w(t+))
    for the current iterate given in full modal form (q+1, n_dof).

    Returns (rhs_contribution (q, n_free), coeff_min) where coeff_min is the
    minimum of 1 + k u over the slab's space-time quadrature grid.
    """
    ed, free = ws.ed_nl, ws.space.free_dofs
    uq, dtq, dttq, uprev_q, dtu0_q = slab_fields(ws, state, tau, modal)
    coeff_min = float((1.0 + k * uq).min())
    # dt(u dtu) = (dtu)^2 + u dttu, exact for the polynomial integrand
    loads = ed.assemble_pointwise_load_multi(dtq * dtq + uq * dttq)
    out = -k * ws.time_integrate(loads, tau)[:, free]
    tload = ed.assemble_pointwise_load(uprev_q * dtu0_q)[free]
    out -= k * np.outer(ws.basis.test_start, tload)
    return out, coeff_min


def nonlinear_residual(ws: SlabWorkspace, state: SlabState, tau: float,
                       c: float, delta: float, k: float,
                       modal: np.ndarray, f_loads: np.ndarray) -> np.ndarray:
    """Residual of the full nonlinear slab system at a slab polynomial given
    in modal form; assembled through the expanded identity
    dt((1+k u) dtu) = (1+k u) dttu + k (dtu)^2 rather than the lagged split.
    Returns (q, n_free)."""
    b, ed, free = ws.basis, ws.ed_nl, ws.space.free_dofs
    uq, dtq, dttq, uprev_q, dtu0_q = slab_fields(ws, state, tau, modal)
    loads = ed.assemble_pointwise_load_multi((1.0 + k * uq) * dttq + k * dtq * dtq)
    res = ws.time_integrate(loads, tau)[:, free]

    # trace coupling: ((1+k u(t_{n-1})) dtu(t_{n-1}^+), w(t_{n-1}^+))
    tlhs = ed.assemble_pointwise_load((1.0 + k * uprev_q) * dtu0_q)[free]
    res += np.outer(b.test_start, tlhs)

    # stiffness terms with exact temporal integration
    ku = (ws.space.stiffness @ modal.T)[free].T    # (q+1, n_free)
    res += c * c * tau * (b.a0 @ ku) + delta * (b.a1 @ ku)

    # data side
    res -= ws.time_integrate(f_loads, tau)[:, free]
    res -= np.outer(b.test_start, state.trace_load[free])
    return res
