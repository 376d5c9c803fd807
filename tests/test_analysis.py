"""Error functionals, EOC computation, jump and energy quantities."""

import numpy as np
import pytest

from westfem.analysis import (energy_norm, eoc, err_linf_l2, jump_functional,
                              data_functional)
from westfem.cases import ProblemConfig, get_case, run_problem


@pytest.fixture(scope="module")
def smooth_run():
    cfg = ProblemConfig(case=get_case("smooth"), n=4, p=2, q=3, tau=0.25)
    return run_problem(cfg)


def test_eoc_recovers_exact_power():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    errs = 3.7 * h ** 2.5
    rates = eoc(errs, h)
    assert np.allclose(rates, 2.5, atol=1e-12)
    assert len(rates) == 3


def test_eoc_handles_increasing_parameter_lists():
    # same data, parameter list reversed: rates must agree
    h = [0.4, 0.2, 0.1]
    errs = [1.6e-2, 4e-3, 1e-3]
    a = eoc(errs, h)
    b = eoc(errs[::-1], h[::-1])
    assert np.allclose(a, b[::-1], atol=1e-12)


def test_err_linf_l2_of_solution_against_itself(smooth_run):
    _, _, sol, _ = smooth_run
    assert err_linf_l2(sol, sol, "dt") == 0.0
    assert err_linf_l2(sol, sol, "grad") == 0.0


def test_err_linf_l2_modes(smooth_run):
    _, _, sol, _ = smooth_run
    case = get_case("smooth")
    e_dt = err_linf_l2(sol, case, "dt")
    e_gr = err_linf_l2(sol, case, "grad")
    assert 0 < e_dt < 1e-3
    assert 0 < e_gr < 1e-2
    with pytest.raises(ValueError):
        err_linf_l2(sol, case, "value")


@pytest.mark.parametrize("label", ["gaussian-pulse", "standing-wave"])
@pytest.mark.parametrize("mode,field", [("dt", "dtu"), ("grad", "grad_u")])
def test_err_linf_l2_needs_a_closed_form_field(smooth_run, label, mode, field):
    _, _, sol, _ = smooth_run
    with pytest.raises(ValueError, match=f"{label}.*{field}"):
        err_linf_l2(sol, get_case(label), mode)


def _err_per_time(sol, case, mode):
    # reference: one exact-data sample per sampled time
    ed, svec = sol.space.ed_err, np.linspace(0.0, 1.0, 2 * sol.q + 3)
    worst = 0.0
    for n in range(sol.partition.n_slabs):
        t0, tau = sol.partition.breakpoints[n], sol.partition.taus[n]
        rows = sol.rows(n, svec, 1 if mode == "dt" else 0)
        if mode == "dt":
            for s, fe in zip(svec, np.einsum("mtl,ql->mtq", rows[:, ed.gdofs], ed.vals)):
                e = fe - ed.sample(case.dtu, t0 + tau * s)
                worst = max(worst, ed.integrate(e * e))
        else:
            for s, row in zip(svec, rows):
                g = np.einsum("tqd,tde->tqe",
                              np.einsum("tl,qld->tqd", row[ed.gdofs], ed.grads_ref), ed.jinv)
                gx, gy = ed.sample(case.grad_u, t0 + tau * s)
                worst = max(worst, ed.integrate((g[:, :, 0] - gx) ** 2 + (g[:, :, 1] - gy) ** 2))
    return float(np.sqrt(worst))


@pytest.mark.parametrize("label", ["smooth", "smooth-fast"])
def test_err_linf_l2_equals_per_time_sampling(label):
    case = get_case(label)
    _, _, sol, _ = run_problem(ProblemConfig(case=case, n=4, p=2, q=3, tau=0.25))
    for mode in ("dt", "grad"):
        assert err_linf_l2(sol, case, mode) == _err_per_time(sol, case, mode)


def _endpoint_traces(space, part, sol):
    mm = space.mass
    v_end = sol.dt_slab(part.n_slabs - 1, 1.0)
    v_start = sol.dt_slab(0, 0.0)
    return np.sqrt(0.5 * (v_end @ (mm @ v_end) + v_start @ (mm @ v_start)))


def test_jump_functional_dominates_endpoint_traces(smooth_run):
    # dt u may jump at interior breakpoints (only u itself is continuous),
    # so the functional is at least the two endpoint traces
    space, part, sol, _ = smooth_run
    assert jump_functional(sol) >= _endpoint_traces(space, part, sol)


def test_jump_functional_reduces_to_traces_for_exact_polynomial():
    # a solution reproduced exactly has continuous dt; interior terms vanish
    from westfem.cases import ManufacturedCase
    from westfem.solver import solve_westervelt
    from westfem.spacefe import FESpace
    from westfem.mesh import unit_square_mesh
    from westfem.timefe import TimePartition

    def bubble(x, y):
        return x * (1 - x) * y * (1 - y)

    space = FESpace(unit_square_mesh(2), 4)
    part = TimePartition.uniform(1.0, 0.25)
    case = ManufacturedCase(
        name="t2-bubble", c=1.0, k=0.0, delta=0.0, T=1.0,
        f=lambda x, y, t: 2.0 * bubble(x, y)
        + t * t * 2.0 * (y * (1 - y) + x * (1 - x)))
    sol, _ = solve_westervelt(space, part, 3, case)
    expect = _endpoint_traces(space, part, sol)
    assert jump_functional(sol) == pytest.approx(expect, rel=1e-9)


def test_discrete_reference_must_share_breakpoints():
    from westfem.solver import solve_westervelt
    from westfem.timefe import TimePartition

    case = get_case("smooth")
    space, uniform, sol, _ = run_problem(ProblemConfig(case=case, n=3, p=2, q=3, tau=0.25))
    graded = TimePartition.from_breakpoints([0.0, 0.2, 0.45, 0.7, 1.0])
    other, _ = solve_westervelt(space, graded, 3, case)
    assert other.partition.n_slabs == uniform.n_slabs
    for mode in ("dt", "grad"):
        with pytest.raises(ValueError):
            err_linf_l2(sol, other, mode)
    same, _ = solve_westervelt(space, TimePartition.uniform(1.0, 0.25), 3, case)
    assert err_linf_l2(sol, same, "dt") == 0.0


def test_energy_norm_positive_and_monotone_in_delta(smooth_run):
    _, _, sol, _ = smooth_run
    e0 = energy_norm(sol, c=1.0, delta=0.0)
    e1 = energy_norm(sol, c=1.0, delta=0.1)
    assert 0 < e0 < e1


def test_data_functional_positive(smooth_run):
    space, part, _, _ = smooth_run
    assert data_functional(space, part, get_case("smooth")) > 0


def test_err_linf_l2_builds_each_factor_once_per_rule(monkeypatch):
    import westfem.cases as cases

    case = get_case("smooth")
    _, part, sol, _ = run_problem(ProblemConfig(case=case, n=3, p=2, q=2, tau=0.25))
    builds = []
    for name, build in list(cases._FACTOR_BUILDS.items()):
        monkeypatch.setitem(cases._FACTOR_BUILDS, name,
                            lambda ell, *a, name=name, build=build:
                            builds.append((name, tuple(map(id, a)))) or build(ell, *a))
    assert part.n_slabs == 4
    for mode in ("dt", "grad"):
        err_linf_l2(sol, case, mode)
    x, y = (id(a) for a in sol.space.ed_err.xy)
    # dt builds S once; grad builds the two sines and the two cosines once
    assert sorted(builds) == sorted([("S", (x, y)), ("sin", (x,)), ("sin", (y,)),
                                     ("cos", (x,)), ("cos", (y,))])
    builds.clear()
    for mode in ("dt", "grad"):
        err_linf_l2(sol, case, mode)
    assert builds == []
