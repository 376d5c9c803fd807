"""Slab marching: iteration counts, failure modes, factorization reuse, the
slab hand-off.  Exactness, zero data, k = 0 and determinism: verify suites;
exactness is reported here from the `polynomial-exactness` checks."""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from westfem import solver
from westfem.errors import DegenerateCoefficient, SolverFailure
from westfem.cases import get_case, run_problem, ProblemConfig
from westfem.mesh import unit_square_mesh
from westfem.slab import (SlabWorkspace, assemble_slab_lhs, coupling_blocks, first_state,
                          lagged_rhs, next_state, nonlinear_residual)
from westfem.solution import DiscreteSolution
from westfem.solver import slab_residuals, solve_westervelt
from westfem import spacefe
from westfem.spacefe import FESpace
from westfem.timefe import TimePartition


# graded: slab lengths 0.25, 0.25, 0.1, 0.4 need three factorizations
@pytest.mark.parametrize("part", ["uniform", "graded"])
def test_polynomial_solution_is_exact(suite_checks, part):
    reuse = "single-factorization" if part == "uniform" else "one-factorization-per-length"
    suite_checks("polynomial-exactness",
                 *(f"q3-{part}-{check}" for check in
                   ("nodal-values", "nodal-dt", "slab-residuals", reuse)))


def test_nonlinear_problem_iterates():
    cfg = ProblemConfig(case=get_case("smooth"), n=4, p=2, q=2, tau=0.25)
    _, _, _, rep = run_problem(cfg)
    assert rep.iters_max >= 2
    assert all(it <= 15 for it in rep.iterations)


def test_degenerate_coefficient_raises():
    # enormous negative k drives 1 + k u through the admissibility guard
    cfg = ProblemConfig(case=get_case("smooth", k=-2e4), n=3, p=1, q=2, tau=0.25)
    with pytest.raises(DegenerateCoefficient) as exc_info:
        run_problem(cfg)
    exc = exc_info.value
    assert exc.coeff_min <= 0.1
    t0, t1 = 0.25 * (exc.slab - 1), 0.25 * exc.slab
    assert exc.interval == pytest.approx((t0, t1), abs=1e-15)
    assert f"slab {exc.slab} (t in [{t0:g}, {t1:g}])" in str(exc)


def test_nan_coefficient_stops_at_the_guard(monkeypatch):
    # A = 1e140 overflows the first lagged load while 1 + k u is still 1.0:
    # the solver stops at that load, after the one triangular solve of the
    # initial guess, instead of solving on a NaN right-hand side
    calls, solves = [], []
    real_solve = solver.Factorization.solve

    def counted(ws, state, modal):
        calls.append(np.isfinite(modal).all())
        return lagged_rhs(ws, state, modal)

    def counted_solve(self, rhs):
        solves.append(np.isfinite(rhs).all())
        return real_solve(self, rhs)

    monkeypatch.setattr(solver, "lagged_rhs", counted)
    monkeypatch.setattr(solver.Factorization, "solve", counted_solve)
    cfg = ProblemConfig(case=get_case("smooth", A=1e140), n=4, p=1, q=2, tau=0.5)
    with pytest.raises(SolverFailure) as exc_info, np.errstate(all="ignore"):
        run_problem(cfg)
    exc = exc_info.value
    assert type(exc) is SolverFailure
    assert "lagged load is not finite on slab 1 (t in [0, 0.5])" in str(exc)
    assert exc.slab == 1 and exc.interval == (0.0, 0.5)
    assert calls == [True] and solves == [True]


def test_nan_coefficient_trips_the_guard(monkeypatch):
    # a finite load with a NaN 1 + k u still stops at the coefficient guard
    def nan_coefficient(ws, state, modal):
        return np.zeros((ws.basis.q, ws.space.n_free)), float("nan")

    monkeypatch.setattr(solver, "lagged_rhs", nan_coefficient)
    cfg = ProblemConfig(case=get_case("smooth"), n=3, p=1, q=2, tau=0.5)
    with pytest.raises(DegenerateCoefficient) as exc_info:
        run_problem(cfg)
    exc = exc_info.value
    assert np.isnan(exc.coeff_min) and "reached nan, not above 0.1" in str(exc)
    assert exc.slab == 1 and exc.interval == (0.0, 0.5)


@pytest.mark.parametrize("k", [0.5, -10.0, 0.0])
def test_lagged_coeff_min_is_the_grid_minimum(k):
    # 1 + k min(u) (k >= 0) or 1 + k max(u) (k < 0) is min(1 + k u) exactly
    case = get_case("smooth", k=k)
    space = FESpace(unit_square_mesh(4), 2)
    ws = SlabWorkspace(space, 3, case)
    sol, _ = solve_westervelt(space, TimePartition.uniform(1.0, 0.5), 3, case)
    state = first_state(ws, sol.partition)
    for n in range(sol.partition.n_slabs):
        if n > 0:
            state = next_state(ws, state, sol.modes[n - 1], sol.partition)
        uq = _values(ws.space.ed_nl, ws.basis.values.T @ sol.modal(n))
        assert lagged_rhs(ws, state, sol.modal(n))[1] == float((1.0 + k * uq).min())


def _values(ed, rows):
    """FE fields (m, nt, nq) of coefficient rows: the element-major einsum."""
    return np.einsum("mtl,ql->mtq", rows[:, ed.gdofs], ed.vals)


def _loads(ed, f_qp):
    """Loads (m, n_dof) of f_qp (m, nt, nq): the element-major einsum with an
    np.add.at scatter in element order."""
    loc = np.einsum("mtq,q,qi->mti", f_qp, ed.w, ed.vals) * ed.detj[None, :, None]
    out = np.zeros((len(loc), ed.n_dof))
    for row, lrow in zip(out, loc):
        np.add.at(row, ed.gdofs.ravel(), lrow.ravel())
    return out


def _unblocked_slab_terms(ws, state, modal):
    """lagged_rhs and nonlinear_residual written out on whole (2q, nt, nq)
    fields, in the order of the element-major einsums."""
    b, ed, free, tau = ws.basis, ws.space.ed_nl, ws.space.free_dofs, state.tau
    c, k, delta = ws.case.c, ws.case.k, ws.case.delta
    u = _values(ed, b.values.T @ modal)
    dt = _values(ed, (b.ds.T @ modal) / tau)
    dtt = _values(ed, (b.dss.T @ modal) / tau ** 2)
    dtu0 = ed.function_values((b.d0 @ modal) / tau)

    lag = -k * ws.time_integrate(_loads(ed, dt * dt + dtt * u), tau)[:, free]
    lag -= k * np.outer(b.test_start, _loads(ed, (state.u_start_q * dtu0)[None])[0][free])
    coeff_min = 1.0 + k * float(u.min() if k >= 0 else u.max())

    res = ws.time_integrate(_loads(ed, (1.0 + k * u) * dtt + k * dt * dt), tau)[:, free]
    tlhs = _loads(ed, ((1.0 + k * state.u_start_q) * dtu0)[None])[0][free]
    res += np.outer(b.test_start, tlhs)
    ku = (ws.space.stiffness @ modal.T)[free].T
    res += c * c * tau * (b.a0 @ ku) + delta * (b.a1 @ ku)
    res -= ws.time_integrate(state.f_loads, tau)[:, free]
    res -= np.outer(b.test_start, state.trace_load[free])
    return lag, coeff_min, res


def _slab_on_blocks(k, p=2, q=3):
    """Workspace, slab-2 state and an iterate on n = 17 (578 triangles: a
    block of 512 and one of 66)."""
    case = get_case("smooth", k=k)
    space = FESpace(unit_square_mesh(17), p)
    assert space.mesh.n_triangles == 578 > spacefe.BLOCK
    ws = SlabWorkspace(space, q, case)
    part = TimePartition.uniform(1.0, 0.25)
    rng = np.random.default_rng(17)
    state = next_state(ws, first_state(ws, part), 1e-2 * rng.standard_normal((q, space.n_dof)),
                       part)
    return ws, state, 1e-2 * rng.standard_normal((q + 1, space.n_dof))


@pytest.mark.parametrize("k", [0.5, -2.0])
def test_blocked_slab_loads_equal_the_unblocked_forms(k):
    ws, state, modal = _slab_on_blocks(k)
    lag, coeff_min, res = _unblocked_slab_terms(ws, state, modal)
    got_lag, got_min = lagged_rhs(ws, state, modal)
    assert np.array_equal(got_lag, lag) and got_min == coeff_min
    assert np.array_equal(nonlinear_residual(ws, state, modal), res)
    ed, times = ws.space.ed_lin, state.t_start + state.tau * ws.basis.nodes
    f_loads = _loads(ed, ed.sample(ws.case.f, times))
    assert np.array_equal(ws.f_time_loads(state.t_start, state.tau), f_loads)
    assert np.array_equal(state.f_loads, f_loads)


@pytest.mark.parametrize("k", [0.5, -2.0])
def test_nan_in_the_last_block_reaches_the_guard(k):
    # the real lagged_rhs: a NaN coefficient on a dof that only the last
    # block's triangles touch makes coeff_min NaN on both the min (k >= 0)
    # and the max (k < 0) path, so the guard still sees it
    ws, state, modal = _slab_on_blocks(k, p=1, q=2)
    cells = ws.space.cell_dofs
    last_only = np.setdiff1d(cells[spacefe.BLOCK:], cells[:spacefe.BLOCK])
    assert last_only.size
    modal[:, last_only[0]] = np.nan
    with np.errstate(invalid="ignore"):
        _, coeff_min = lagged_rhs(ws, state, modal)
    assert np.isnan(coeff_min)
    assert np.isfinite(lagged_rhs(ws, state, np.nan_to_num(modal))[1])


def test_slab_loads_never_hold_two_whole_fields():
    # one (2q, nt, nq) field of ed_nl is 5.3 MB at n = 48, p = 2, q = 3, and
    # one of ed_lin 3.5 MB; a call's traced peak stays below two of them
    q = 3
    case = get_case("smooth")
    space = FESpace(unit_square_mesh(48), 2)
    ws = SlabWorkspace(space, q, case)
    state = first_state(ws, TimePartition.uniform(1.0, 0.2))
    modal = 1e-2 * np.random.default_rng(48).standard_normal((q + 1, space.n_dof))

    def peak(call):
        call()                                       # caches built outside the trace
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for ed, call in ((ws.space.ed_nl, lambda: lagged_rhs(ws, state, modal)),
                     (ws.space.ed_lin, lambda: ws.f_time_loads(0.2, 0.2))):
        field = 2 * q * ed.wdetj.size * 8
        assert peak(call) < 2 * field


def _kron_form(space, cm, ck):
    # scipy's kron stores dense blocks, zeros and all, for an M_ff at least
    # half dense ((3, 1) and (2, 2) below); the operator stores no zero
    lhs = (sp.kron(sp.csr_matrix(cm), space.mass_ff)
           + sp.kron(sp.csr_matrix(ck), space.stiffness_ff)).tocsc()
    lhs.eliminate_zeros()
    return lhs


def _blocks_with_zeros(space, q):
    """Coupling blocks with block (0, q-1) exactly zero, block (1, 0) without
    its mass part, and block (1, 1) cancelling exactly in its first entry."""
    cm, ck = coupling_blocks(q, 0.2, 1.0, 1e-2)
    cm[0, q - 1] = ck[0, q - 1] = 0.0
    cm[1, 0] = 0.0
    cm[1, 1], ck[1, 1] = space.stiffness_ff.data[0], -space.mass_ff.data[0]
    return cm, ck


@pytest.mark.parametrize("tau,c,delta", [(0.2, 1.0, 0.0), (0.2, 1.0, 1e-2),
                                         (1e-3, 3.0, 0.5), (2.0, 0.1, 1e-4)])
def test_every_temporal_block_is_stored(tau, c, delta):
    # assemble_slab_lhs stores all q^2 blocks because C_M has no zero
    # entry; a zero would still be dropped, through eliminate_zeros
    space = FESpace(unit_square_mesh(2), 1)
    nf = space.n_free
    for q in range(2, 13):
        cm, ck = coupling_blocks(q, tau, c, delta)
        assert np.all(cm != 0), (q, np.argwhere(cm == 0))
        lhs = assemble_slab_lhs(space, cm, ck)
        for a in range(q):
            for b in range(q):
                assert lhs[a * nf:(a + 1) * nf, b * nf:(b + 1) * nf].nnz > 0, (q, a, b)


@pytest.mark.parametrize("n,p", [(3, 1), (5, 1), (2, 2), (5, 2), (5, 5)])
@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("blocks", [0.0, 1e-2, "zeros"])
def test_slab_lhs_equals_kron_form(n, p, q, blocks):
    space = FESpace(unit_square_mesh(n), p)
    cm, ck = (_blocks_with_zeros(space, q) if blocks == "zeros"
              else coupling_blocks(q, 0.2, 1.0, blocks))
    got, ref = assemble_slab_lhs(space, cm, ck), _kron_form(space, cm, ck)
    assert got.shape == ref.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(ref, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    if blocks == "zeros":
        nf = space.n_free
        assert got[:nf, (q - 1) * nf:].nnz == 0
        # the first entry of M_ff, in column 0, cancels in block (1, 1)
        col = got.indices[got.indptr[nf]:got.indptr[nf + 1]]
        assert nf + space.mass_ff.indices[0] not in col


def test_slab_lhs_without_free_dofs():
    space = FESpace(unit_square_mesh(1), 1)
    cm, ck = coupling_blocks(2, 0.2, 1.0, 0.0)
    got, ref = assemble_slab_lhs(space, cm, ck), _kron_form(space, cm, ck)
    assert got.shape == ref.shape == (0, 0)
    assert np.array_equal(got.indptr, ref.indptr)


def test_slab_lhs_peak_memory():
    # the kron form peaked at 6.6x the matrix (n = 32, p = 2, q = 3)
    space = FESpace(unit_square_mesh(32), 2)
    cm, ck = coupling_blocks(3, 0.2, 1.0, 0.0)
    space._ff_pattern(), space.stiffness             # caches built outside the trace
    tracemalloc.start()
    try:
        lhs = assemble_slab_lhs(space, cm, ck)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (lhs.data.nbytes + lhs.indices.nbytes + lhs.indptr.nbytes)


def _nbytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def test_first_slab_lu_comes_before_the_slab_data(monkeypatch):
    # at the first factorization only the space's matrices and the operator
    # are alive: no nonlinear rule, no sampling geometry, no slab data.  The
    # space holds each global matrix once, on one shared pattern, and no
    # free-free block.  The margin holds the dofmap, ed_lin's Jacobians and
    # the modes array: 0.21 A at n = 32, p = 2, q = 3; building the first
    # slab's state before its LU leaves 0.50 A
    class Probed(Exception):
        pass

    seen = {}

    def probe(lhs):
        seen["live"] = tracemalloc.get_traced_memory()[0]
        seen["lhs"] = _nbytes(lhs)
        seen["ed_nl"] = ("edata", 3 * space.p + 2) in space._cache
        seen["xy"] = space.ed_lin._xy is not None
        raise Probed

    monkeypatch.setattr(solver, "splu", probe)
    tracemalloc.start()
    try:
        space = FESpace(unit_square_mesh(32), 2)
        with pytest.raises(Probed):
            solve_westervelt(space, TimePartition.uniform(1.0, 0.2), 3, get_case("smooth"))
    finally:
        tracemalloc.stop()
    assert not seen["ed_nl"] and not seen["xy"]
    indptr, indices, take = space._cache["ff_pattern"]
    pattern = indptr.nbytes + indices.nbytes + take.nbytes
    held = _nbytes(space.mass) + space.stiffness.data.nbytes + pattern
    assert seen["live"] <= seen["lhs"] + held + 0.35 * seen["lhs"]


def test_stacked_qn_norms_equal_separate_calls():
    ws = SlabWorkspace(FESpace(unit_square_mesh(5), 3), 3, get_case("smooth"))
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 4, ws.space.n_dof))
    pair = solver._qn_norms(ws, 0.3, b - a, b)
    assert pair == solver._qn_norms(ws, 0.3, b - a) + solver._qn_norms(ws, 0.3, b)


@pytest.mark.parametrize("q", range(2, 9))
def test_trial_basis_facts_keep_their_inline_bits(q):
    # the forms that coupling_blocks and _qn_norms spelled out before
    # TrialBasis held them, which every benchmark number rests on
    ws = SlabWorkspace(FESpace(unit_square_mesh(3), 2), q, get_case("smooth"))
    b = ws.basis
    a0b = b.a0[:, 1:].copy()
    a0b[0, :] -= b.lt_start[1:]
    assert np.array_equal(b.a0_trial, a0b)
    modal = np.random.default_rng(q).standard_normal((q + 1, ws.space.n_dof))
    sq = np.einsum("jd,jd->j", modal, (ws.space.mass @ modal.T).T)
    for tau in (0.2, 0.25, 1e-4):
        weights = tau / (2.0 * np.arange(q + 1) + 1.0)
        assert np.array_equal(tau / b.inv_norm2, weights)
        assert solver._qn_norms(ws, tau, modal) == [float(np.sqrt(np.sum(weights * sq)))]


def test_solver_failure_names_slab_and_interval(monkeypatch):
    # one fixed-point iteration cannot reach TOL on a nonlinear slab
    monkeypatch.setattr(solver, "S_MAX", 1)
    cfg = ProblemConfig(case=get_case("smooth"), n=3, p=2, q=2, tau=0.25)
    with pytest.raises(SolverFailure) as exc_info:
        run_problem(cfg)
    exc = exc_info.value
    assert type(exc) is SolverFailure
    assert exc.slab == 1 and exc.interval == (0.0, 0.25)
    assert exc.increment > solver.TOL
    assert "slab 1 (t in [0, 0.25])" in str(exc)


def test_factorization_reused_on_uniform_partition(suite_checks):
    suite_checks("polynomial-exactness", "single-factorization", "q3-uniform-single-factorization")


def test_evenly_spaced_breakpoints_share_one_factorization():
    space = FESpace(unit_square_mesh(3), 2)
    part = TimePartition.from_breakpoints([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    _, rep = solve_westervelt(space, part, 2, get_case("smooth"))
    assert rep.n_factorizations == 1 and rep.factorization_reuses == 4


def test_factorization_freed_after_its_last_slab(monkeypatch):
    # four distinct lengths: each LU is dropped before the next is built
    alive, peak = weakref.WeakSet(), []

    class Tracked(solver.Factorization):
        def __init__(self, ws, tau):
            super().__init__(ws, tau)
            alive.add(self)
            peak.append(len(alive))

    monkeypatch.setattr(solver, "Factorization", Tracked)
    space = FESpace(unit_square_mesh(3), 2)
    part = TimePartition.from_breakpoints([0.0, 0.1, 0.3, 0.6, 1.0])
    _, rep = solve_westervelt(space, part, 2, get_case("smooth"))
    assert rep.n_factorizations == 4 and rep.factorization_reuses == 0
    assert peak == [1, 1, 1, 1] and len(alive) == 0


def test_solution_continuous_across_slabs():
    cfg = ProblemConfig(case=get_case("smooth"), n=3, p=2, q=3, tau=0.25)
    _, part, sol, _ = run_problem(cfg)
    for t_n in part.breakpoints[1:-1]:
        left = sol.value(t_n, side="left")
        right = sol.value(t_n, side="right")
        assert np.array_equal(left, right)  # shared representation, exact


def test_breakpoint_values_are_read_only():
    # value() at a breakpoint is a view of bp_values, so a caller's in-place
    # write must not reach the solution
    cfg = ProblemConfig(case=get_case("smooth"), n=2, p=1, q=2, tau=0.25)
    _, part, sol, _ = run_problem(cfg)
    before = sol.bp_values.copy()
    for t_n in part.breakpoints:
        for v in (sol.value(t_n), sol.value(t_n, side="left")):
            with pytest.raises(ValueError):
                v *= 0.0
    for n in range(part.n_slabs):
        for s in (0.0, 1.0):
            with pytest.raises(ValueError):
                sol.value_slab(n, s)[0] = 1.0
    assert np.array_equal(sol.bp_values, before)
    assert np.array_equal(sol.value(0.25), before[1])


@pytest.mark.parametrize("bad", [1, 2])
def test_slab_residuals_flag_a_perturbed_slab(bad):
    cfg = ProblemConfig(case=get_case("smooth"), n=4, p=2, q=3, tau=0.25)
    space, part, sol, _ = run_problem(cfg)
    modes = sol.modes.copy()
    modes[bad] *= 1.0 + 1e-6
    res = slab_residuals(DiscreteSolution(space, part, 3, modes, sol.bp_values[0]), cfg.case)
    assert len(res) == part.n_slabs
    assert max(res[:bad]) < 1e-9
    assert res[bad] > 1e-8


def test_next_state_hands_off_traces():
    case = get_case("smooth")
    part = TimePartition.from_breakpoints([0.0, 0.25, 0.5, 0.6, 1.0])
    space = FESpace(unit_square_mesh(4), 2)
    sol, _ = solve_westervelt(space, part, 3, case)
    ws = SlabWorkspace(space, 3, case)
    ed = space.ed_nl
    state = first_state(ws, part)
    assert (state.n, state.t_start, state.tau) == (1, 0.0, 0.25)
    assert np.array_equal(state.u_start, sol.bp_values[0])
    for n in range(part.n_slabs - 1):
        state = next_state(ws, state, sol.modes[n], part)
        assert (state.n, state.t_start, state.tau) == (n + 2, part.breakpoints[n + 1],
                                                        part.taus[n + 1])
        assert np.allclose(state.u_start, sol.bp_values[n + 1], rtol=0, atol=1e-14)
        assert np.allclose(state.u_start_q, ed.function_values(sol.bp_values[n + 1]),
                           rtol=0, atol=1e-14)
        # ((1 + k u(t_n)) dtu(t_n^-), phi) from the solution's own traces
        uq = ed.function_values(sol.bp_values[n + 1])
        load = ed.assemble_pointwise_load((1.0 + case.k * uq)
                                          * ed.function_values(sol.dt_slab(n, 1.0)))
        assert np.allclose(state.trace_load, load, rtol=0,
                           atol=1e-13 * np.abs(load).max())
        assert np.array_equal(state.f_loads,
                              ws.f_time_loads(part.breakpoints[n + 1], part.taus[n + 1]))


@pytest.mark.parametrize("label", ["smooth", "gaussian-pulse", "standing-wave"])
def test_f_time_loads_stack_per_node_loads(label):
    case = get_case(label)
    space = FESpace(unit_square_mesh(3), 2)
    ws = SlabWorkspace(space, 3, case)
    t0, tau = 0.3 * case.T, 0.25 * case.T
    ed = space.ed_lin
    # reference: one sample and one load per temporal node, stacked
    ref = np.stack([ed.assemble_pointwise_load(ed.sample(case.f, t0 + tau * g))
                    for g in ws.basis.nodes])
    assert np.array_equal(ws.f_time_loads(t0, tau), ref)
