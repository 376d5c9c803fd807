"""Error functionals, the upwind jump functional, the delta-weighted energy
norm, and empirical order-of-convergence helpers."""

from __future__ import annotations

import numpy as np

from .solution import DiscreteSolution
from .timefe import gauss_interval, shifted_legendre_table


def _sample_s(q: int, samples_per_slab: int | None) -> np.ndarray:
    m = 2 * q + 3 if samples_per_slab is None else samples_per_slab
    if m < 2:
        raise ValueError(f"need at least two samples per slab, got {m}")
    return np.linspace(0.0, 1.0, m)


def err_linf_l2(sol: DiscreteSolution, ref, mode: str,
                samples_per_slab: int | None = None,
                quad_degree: int | None = None) -> float:
    """max over sampled times of the spatial L2 norm of the error.

    mode "dt": error in the time derivative; mode "grad": error in the
    spatial gradient.  `ref` is a case with exact dtu/grad_u callables, or a
    second DiscreteSolution on the same discretization (then norms are the
    exact quadratic forms of the coefficient difference).  Times are sampled
    uniformly per slab, endpoints included, so breakpoint values enter with
    both one-sided limits.
    """
    if mode not in ("dt", "grad"):
        raise ValueError(f"mode must be 'dt' or 'grad', got {mode!r}")
    space = sol.space
    svec = _sample_s(sol.q, samples_per_slab)
    deriv = 1 if mode == "dt" else 0

    if isinstance(ref, DiscreteSolution):
        if ref.space is not space or ref.q != sol.q \
                or ref.partition.n_slabs != sol.partition.n_slabs:
            raise ValueError("discrete reference must share the discretization")
        form = space.mass if mode == "dt" else space.stiffness
        worst = 0.0
        for n in range(sol.partition.n_slabs):
            d = sol.rows(n, svec, deriv) - ref.rows(n, svec, deriv)
            worst = max(worst, float(np.einsum("sd,sd->s", d, (form @ d.T).T).max()))
        return float(np.sqrt(worst))

    ed = space.ed_err if quad_degree is None else space.element_data(quad_degree)
    worst = 0.0
    for n in range(sol.partition.n_slabs):
        t0, tau = sol.partition.breakpoints[n], sol.partition.taus[n]
        rows = sol.rows(n, svec, deriv)
        if mode == "dt":
            vals = ed.function_values_multi(rows)
            for s, fe in zip(svec, vals):
                e = fe - ed.sample(ref.dtu, t0 + tau * s)
                worst = max(worst, ed.integrate(e * e))
        else:
            for s, row in zip(svec, rows):
                g = ed.function_gradients(row)
                gx, gy = ed.sample(ref.grad_u, t0 + tau * s)
                e = (g[:, :, 0] - gx) ** 2 + (g[:, :, 1] - gy) ** 2
                worst = max(worst, ed.integrate(e))
    return float(np.sqrt(worst))


def jump_functional(sol: DiscreteSolution) -> float:
    """Upwind jump functional of dt u:

        |v|_J^2 = 1/2 ( ||v(T)||^2 + sum_n ||[v]_n||^2 + ||v(0+)||^2 ).
    """
    mm = sol.space.mass
    nsl = sol.partition.n_slabs

    def m_norm2(v):
        return float(v @ (mm @ v))

    total = m_norm2(sol.dt_slab(nsl - 1, 1.0)) + m_norm2(sol.dt_slab(0, 0.0))
    for n in range(1, nsl):
        total += m_norm2(sol.dt_slab(n, 0.0) - sol.dt_slab(n - 1, 1.0))
    return float(np.sqrt(0.5 * total))


def energy_norm(sol: DiscreteSolution, c: float = 1.0, delta: float = 0.0,
                samples_per_slab: int | None = None) -> float:
    """delta-weighted energy norm:

        ||dtu||^2_{LinfL2} + c^2 ||grad u||^2_{LinfL2} + |dtu|_J^2
        + c^2 ||grad u(T)||^2 + c^2 ||grad u(0)||^2 + delta ||grad dtu||^2_{L2(Q)}

    with the two L-infinity terms sampled on the per-slab grid and the
    space-time term integrated exactly in time.
    """
    space = sol.space
    mm, kk = space.mass, space.stiffness
    c2 = c * c
    svec = _sample_s(sol.q, samples_per_slab)

    linf_dt = 0.0
    linf_grad = 0.0
    qt_grad_dt = 0.0
    # exact temporal Gram of Lt_j' on the unit slab
    g, w = gauss_interval(sol.q + 1)
    d1 = shifted_legendre_table(sol.q, g, nderiv=1)[1]
    gram = (d1 * w) @ d1.T                       # (q+1, q+1)
    for n in range(sol.partition.n_slabs):
        tau = sol.partition.taus[n]
        dt_rows = sol.rows(n, svec, 1)
        u_rows = sol.rows(n, svec, 0)
        linf_dt = max(linf_dt, float(np.einsum("sd,sd->s", dt_rows, (mm @ dt_rows.T).T).max()))
        linf_grad = max(linf_grad, float(np.einsum("sd,sd->s", u_rows, (kk @ u_rows.T).T).max()))
        modal = sol.modal(n)
        ku = (kk @ modal.T).T
        qt_grad_dt += float(np.einsum("ij,id,jd->", gram, modal, ku)) / tau

    u_at_0 = sol.bp_values[0]
    u_at_T = sol.bp_values[-1]
    total = (linf_dt + c2 * linf_grad + jump_functional(sol) ** 2
             + c2 * float(u_at_T @ (kk @ u_at_T))
             + c2 * float(u_at_0 @ (kk @ u_at_0))
             + delta * qt_grad_dt)
    return float(np.sqrt(total))


def eoc(errors, params) -> np.ndarray:
    """Empirical orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    e = np.asarray(errors, dtype=float)
    h = np.asarray(params, dtype=float)
    if e.size != h.size or e.size < 2:
        raise ValueError("need matching sequences of length >= 2")
    return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])


def data_functional(space, partition, case) -> float:
    """Data size sqrt(||f||^2_{L1L2} + ||(1+k u0) u1||^2 + c^2 ||grad u0||^2)
    entering the continuous stability bound."""
    ed = space.ed_err
    g, w = gauss_interval(6)
    f_l1l2 = 0.0
    for n in range(partition.n_slabs):
        t0, tau = partition.breakpoints[n], partition.taus[n]
        for gs, ws_ in zip(g, w):
            fv = ed.sample(case.f, t0 + tau * gs)
            f_l1l2 += tau * ws_ * np.sqrt(ed.integrate(fv * fv))

    total = f_l1l2 ** 2
    if case.u1 is not None:
        u0v = ed.sample(case.u0) if case.u0 is not None else 0.0
        gv = (1.0 + case.k * u0v) * ed.sample(case.u1)
        total += ed.integrate(gv * gv)
    if case.u0_grad is not None:
        gx, gy = ed.sample(case.u0_grad)
        total += case.c ** 2 * ed.integrate(gx * gx + gy * gy)
    return float(np.sqrt(total))
