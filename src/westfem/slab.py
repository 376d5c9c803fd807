"""Slab systems of the DG-CG scheme.

Trial functions on a slab are continuous in time with degree q, test
functions discontinuous with degree q-1 (both in `timefe.TrialBasis`), so
after eliminating the known start trace each slab is a q x q block system
over the free spatial dofs.
The constant-coefficient left-hand side

    (dtt u, w) + (dt u(t+), w(t+)) + c^2 (grad u, grad w) + delta (grad dt u, grad w)

is a Kronecker combination of temporal coupling blocks with the spatial
mass and stiffness matrices.  Those share one free-dof pattern, so block
(a, b) is C_M[a, b] M + C_K[a, b] K on it, written straight into CSC.  C_M
has no zero entry, so all q^2 blocks are stored, and no exact zero is.
The nonlinearity enters only on the right-hand side through the lagged
terms of the fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .spacefe import FESpace, ritz_project
from .timefe import TimePartition, trial_basis


def coupling_blocks(q: int, tau: float, c: float, delta: float):
    """Dense (q,q) temporal coefficient blocks (C_M, C_K) for the LHS, in the
    start-anchored trial basis B_j = Lt_j - (-1)^j, j = 1..q."""
    b = trial_basis(q)
    cm = (b.a2[:, 1:] + np.outer(b.test_start, b.d0[1:])) / tau
    ck = c * c * tau * b.a0_trial + delta * b.a1[:, 1:]
    return cm, ck


def assemble_slab_lhs(space: FESpace, cm: np.ndarray, ck: np.ndarray) -> sp.csc_matrix:
    """kron(C_M, M_ff) + kron(C_K, K_ff), temporal-mode-major ordering, written
    straight into CSC on the free-dof pattern that M_ff and K_ff share.

    Block (a, b) is cm[a, b] * M_ff.data + ck[a, b] * K_ff.data on that
    pattern, both gathered through its `take` from the global matrices' data:
    the products and the sum of scipy's sparse kron and add.  All q^2 blocks
    are stored, as C_M has no zero entry: column j of block column b lists
    block a's column j from b q nnz + q ptr[j] + a counts[j], so its rows run
    a-major, then in the pattern's order, which is the canonical CSC order.
    Exact zeros (a caller's zero block among them) are dropped if any occur.
    Temporaries are a few arrays of the pattern's size, 1/q^2 of the result each."""
    ptr, rows, take = space._ff_pattern()
    mass, stiff = space.mass.data, space.stiffness.data
    q, nf = len(cm), space.n_free
    take = take.astype(np.intp, copy=False)          # else each np.take makes an intp copy
    width = q * len(take)                            # entries of one block column
    idx = np.int32 if q * width <= np.iinfo(np.int32).max else np.int64
    indptr = np.append(np.add.outer(width * np.arange(q), q * ptr[:-1].astype(np.int64)),
                       q * width).astype(idx)
    counts = np.diff(ptr)
    step = np.repeat(counts, counts)
    pos = np.arange(len(take)) + np.repeat((q - 1) * ptr[:-1].astype(np.int64), counts)
    data, indices = np.empty(q * width), np.empty(q * width, dtype=idx)
    vals, term = np.empty(len(take)), np.empty(len(take))
    for a in range(q):
        indices[pos] = rows + idx(a * nf)
        for b in range(q):
            # mode "clip" lets np.take write into `out` without a buffer
            np.multiply(np.take(mass, take, out=vals, mode="clip"), cm[a, b], out=vals)
            np.multiply(np.take(stiff, take, out=term, mode="clip"), ck[a, b], out=term)
            vals += term
            data[b * width:][pos] = vals
        pos += step
    indices[width:].reshape(q - 1, width)[:] = indices[:width]   # the same in every block column
    lhs = sp.csc_matrix((data, indices, indptr), shape=(q * nf, q * nf))
    if not data.all():
        lhs.eliminate_zeros()
    return lhs


@dataclass
class SlabState:
    """Everything known about slab n before it is solved: its start and length,
    the start trace (also at the nonlinear quadrature points), the trace load
    ((1+k u0) u1, phi) for n = 1 and ((1+k u(t_{n-1})) dtu(t_{n-1}^-), phi) for
    n >= 2, and f's loads at the temporal nodes.  Built by first/next_state."""

    n: int                    # 1-based slab index
    t_start: float
    tau: float
    u_start: np.ndarray       # (n_dof,)
    u_start_q: np.ndarray     # (nt, nq), ed_nl.function_values(u_start)
    trace_load: np.ndarray    # (n_dof,)
    f_loads: np.ndarray       # (2q, n_dof), SlabWorkspace.f_time_loads


class SlabWorkspace:
    """The problem (a cases.ManufacturedCase: c, k, delta, f), its spatial
    quadrature data and the temporal trial basis, shared by RHS assembly,
    residuals, and the guard.  The quadrature rules are the space's
    (`ws.space.ed_lin`, `ed_nl`), built there on first use, so a new
    workspace has the space build no element data."""

    def __init__(self, space: FESpace, q: int, case):
        self.space = space
        self.case = case
        self.basis = trial_basis(q)

    def f_time_loads(self, t_start: float, tau: float) -> np.ndarray:
        """Spatial loads of f at the slab's temporal Gauss nodes; (2q, n_dof)."""
        ed, times = self.space.ed_lin, t_start + tau * self.basis.nodes
        return ed.assemble_loads(lambda cells: ed.sample(self.case.f, times, cells=cells))

    def time_integrate(self, loads: np.ndarray, tau: float) -> np.ndarray:
        """tau * int_0^1 Lt_i(s) load(s) ds from nodal loads; (2q, dof) -> (q, dof)."""
        return tau * (self.basis.test_w @ loads)


def first_state(ws: SlabWorkspace, partition: TimePartition) -> SlabState:
    """Slab 1: u(0) is the Ritz projection of case.u0 through case.u0_grad, and
    case.u1 enters weakly through ((1+k u0) u1, phi).  Zero data is None."""
    space, case, ed = ws.space, ws.case, ws.space.ed_lin
    u0 = np.zeros(space.n_dof) if case.u0_grad is None else ritz_project(space, case.u0_grad)
    trace_load = np.zeros(space.n_dof)
    if case.u1 is not None:
        u0v = ed.sample(case.u0) if case.u0 is not None else 0.0
        trace_load = ed.assemble_pointwise_load((1.0 + case.k * u0v) * ed.sample(case.u1))
    t, tau = float(partition.breakpoints[0]), float(partition.taus[0])
    return SlabState(1, t, tau, u0, ws.space.ed_nl.function_values(u0), trace_load,
                     ws.f_time_loads(t, tau))


def next_state(ws: SlabWorkspace, state: SlabState, modes: np.ndarray,
               partition: TimePartition) -> SlabState:
    """Slab n+1 from the solved modes (q, n_dof) of slab n = state.n: the
    start trace u(t_n) and the trace load ((1+k u(t_n)) dtu(t_n^-), phi)."""
    b, ed, n = ws.basis, ws.space.ed_nl, state.n
    u_end = b.end_value(state.u_start, modes)
    uq = ed.function_values(u_end)
    vq = ed.function_values(b.rows(state.u_start, modes, 1.0, state.tau, deriv=1))
    t, tau = float(partition.breakpoints[n]), float(partition.taus[n])
    trace_load = ed.assemble_pointwise_load((1.0 + ws.case.k * uq) * vq)
    return SlabState(n + 1, t, tau, u_end, uq, trace_load, ws.f_time_loads(t, tau))


def assemble_slab_rhs(ws: SlabWorkspace, state: SlabState) -> np.ndarray:
    """Fixed part of the slab right-hand side (no lagged terms); (q, n_free)."""
    space, c, tau = ws.space, ws.case.c, state.tau
    rhs = ws.time_integrate(state.f_loads, tau)[:, space.free_dofs]
    rhs += np.outer(ws.basis.test_start, state.trace_load[space.free_dofs])
    rhs[0] -= c * c * tau * (space.stiffness @ state.u_start)[space.free_dofs]
    return rhs


def _time_fields(ws: SlabWorkspace, state: SlabState, modal: np.ndarray):
    """Coefficient stacks (2q, n_dof) of u, dt u and dtt u at the slab's
    temporal nodes for an iterate in full modal form (q+1, n_dof), and
    dt u(t_{n-1}^+) at the nonlinear quadrature points (nt, nq)."""
    b, tau = ws.basis, state.tau
    stacks = (b.values.T @ modal, (b.ds.T @ modal) / tau, (b.dss.T @ modal) / tau ** 2)
    return stacks, ws.space.ed_nl.function_values((b.d0 @ modal) / tau)


def lagged_rhs(ws: SlabWorkspace, state: SlabState, modal: np.ndarray):
    """Lagged nonlinear terms -k (dt(u dtu), w) - k (u(t-) dtu(t+), w(t+))
    for the current iterate given in full modal form (q+1, n_dof).

    Returns (rhs_contribution (q, n_free), coeff_min) where coeff_min is the
    minimum of 1 + k u over the slab's space-time quadrature grid.  Rounding
    is monotone, so that minimum is exactly 1 + k min(u) for k >= 0 and
    1 + k max(u) for k < 0 (NaN if u has a NaN).
    """
    ed, free, k = ws.space.ed_nl, ws.space.free_dofs, ws.case.k
    stacks, dtu0_q = _time_fields(ws, state, modal)
    extremes = []     # per block; np.min / np.max keep a NaN of any block

    def integrand(cells, uq, dtq, dttq):
        extremes.append(uq.min() if k >= 0 else uq.max())
        # dt(u dtu) = (dtu)^2 + u dttu, exact for the polynomial integrand
        dttq *= uq
        dtq *= dtq
        dtq += dttq
        return dtq

    loads = ed.assemble_loads(integrand, *stacks)
    coeff_min = 1.0 + k * float(np.min(extremes) if k >= 0 else np.max(extremes))
    out = -k * ws.time_integrate(loads, state.tau)[:, free]
    tload = ed.assemble_pointwise_load(state.u_start_q * dtu0_q)[free]
    out -= k * np.outer(ws.basis.test_start, tload)
    return out, coeff_min


def nonlinear_residual(ws: SlabWorkspace, state: SlabState, modal: np.ndarray) -> np.ndarray:
    """Residual of the full nonlinear slab system at a slab polynomial given
    in modal form; assembled through the expanded identity
    dt((1+k u) dtu) = (1+k u) dttu + k (dtu)^2 rather than the lagged split.
    Returns (q, n_free)."""
    b, ed, free, tau = ws.basis, ws.space.ed_nl, ws.space.free_dofs, state.tau
    c, k, delta = ws.case.c, ws.case.k, ws.case.delta
    stacks, dtu0_q = _time_fields(ws, state, modal)
    loads = ed.assemble_loads(
        lambda cells, uq, dtq, dttq: (1.0 + k * uq) * dttq + k * dtq * dtq, *stacks)
    res = ws.time_integrate(loads, tau)[:, free]

    # trace coupling: ((1+k u(t_{n-1})) dtu(t_{n-1}^+), w(t_{n-1}^+))
    tlhs = ed.assemble_pointwise_load((1.0 + k * state.u_start_q) * dtu0_q)[free]
    res += np.outer(b.test_start, tlhs)

    # stiffness terms with exact temporal integration
    ku = (ws.space.stiffness @ modal.T)[free].T    # (q+1, n_free)
    res += c * c * tau * (b.a0 @ ku) + delta * (b.a1 @ ku)

    # data side
    res -= ws.time_integrate(state.f_loads, tau)[:, free]
    res -= np.outer(b.test_start, state.trace_load[free])
    return res
