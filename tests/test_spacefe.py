"""Assembly, interpolation, Ritz projection, and point evaluation."""

import sys
import threading
import time

import numpy as np
import pytest

import westfem.spacefe as spacefe
from westfem.mesh import unit_square_mesh
from westfem.spacefe import (FESpace, discrete_laplacian, evaluate, interpolate,
                             ritz_project, ritz_project_fd)


def make_space(n, p):
    return FESpace(unit_square_mesh(n), p)


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (2, 4), (5, 3)])
def test_dof_counts(n, p):
    space = make_space(n, p)
    assert space.n_dof == (p * n + 1) ** 2
    assert space.n_free == (p * n - 1) ** 2
    assert space.free_dofs.size == space.n_free


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (2, 4), (5, 3)])
def test_dofmap_matches_loop_numbering(n, p):
    # reference: triangle-by-triangle numbering of edges by first appearance
    space = make_space(n, p)
    mesh, nv = space.mesh, space.mesh.n_vertices
    edges, rows = {}, []
    for a, b, c in mesh.triangles.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault((min(u, v), max(u, v)), len(edges))
    int_base = nv + len(edges) * (p - 1)
    n_int = space.ref.n_interior
    for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
        row = [a, b, c]
        for u, v in ((a, b), (b, c), (c, a)):
            slots = list(range(p - 1))[::-1] if u > v else list(range(p - 1))
            row += [nv + edges[(min(u, v), max(u, v))] * (p - 1) + k for k in slots]
        rows.append(row + [int_base + t * n_int + k for k in range(n_int)])
    assert space.cell_dofs.tolist() == rows
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    dirichlet = set(np.flatnonzero(mesh.boundary_vertex).tolist())
    for (u, v), e in edges.items():
        if any(x[u] == x[v] == s or y[u] == y[v] == s for s in (0.0, 1.0)):
            dirichlet |= set(range(nv + e * (p - 1), nv + (e + 1) * (p - 1)))
    assert space.free_dofs.tolist() == sorted(set(range(space.n_dof)) - dirichlet)


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (2, 5)])
def test_mass_matrix_total(n, p):
    space = make_space(n, p)
    ones = np.ones(space.n_dof)
    assert abs(ones @ (space.mass @ ones) - 1.0) < 1e-13  # |Omega| = 1
    assert np.max(np.abs(space.stiffness @ ones)) < 1e-11  # constants in kernel


def test_mass_quadratic_form_exact():
    # g = x y has degree 1 per variable; exact in V_h for p >= 2
    space = make_space(3, 2)
    g = interpolate(space, lambda x, y: x * y)
    assert abs(g @ (space.mass @ g) - 1.0 / 9.0) < 1e-14


def test_stiffness_quadratic_form_exact():
    # g = x(1-x)y(1-y):  int |grad g|^2 = 2 * (1/3) * (1/30) = 1/45
    space = make_space(2, 4)
    g = interpolate(space, lambda x, y: x * (1 - x) * y * (1 - y))
    assert abs(g @ (space.stiffness @ g) - 1.0 / 45.0) < 1e-14


@pytest.mark.parametrize("p", [1, 2, 3])
def test_interpolate_is_nodal(p):
    space = make_space(3, p)

    def g(x, y):
        return np.sin(x + 0.3) * np.cos(2 * y)

    coeffs = interpolate(space, g)
    xc, yc = space.dof_coords[:, 0], space.dof_coords[:, 1]
    assert np.max(np.abs(coeffs - g(xc, yc))) < 1e-14


def test_evaluate_reproduces_fe_function():
    space = make_space(4, 2)
    g = interpolate(space, lambda x, y: (x - 0.2) * y + x * x)
    rng = np.random.default_rng(5)
    x, y = rng.random(60), rng.random(60)
    exact = (x - 0.2) * y + x * x
    assert np.max(np.abs(evaluate(space, g, x, y) - exact)) < 1e-13


def test_ritz_projection_reproduces_fe_function():
    # bubble x(1-x)y(1-y) lies in V_h for p = 4 and vanishes on the boundary
    space = make_space(2, 4)
    exact = interpolate(space, lambda x, y: x * (1 - x) * y * (1 - y))

    def grad(x, y):
        return ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y))

    proj = ritz_project(space, grad)
    assert np.max(np.abs(proj - exact)) < 1e-12


def test_ritz_projection_galerkin_orthogonality():
    space = make_space(4, 2)
    gp = ritz_project(space, lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                                           np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)))
    # residual of the defining linear system on free dofs
    ed = space.element_data(2 * space.p + 2)
    x, y = ed.phys[:, :, 0], ed.phys[:, :, 1]
    load = ed.assemble_gradient_load(np.stack(
        [np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1))
    res = (space.stiffness @ gp)[space.free_dofs] - load[space.free_dofs]
    scale = np.max(np.abs(load)) or 1.0
    assert np.max(np.abs(res)) < 1e-12 * scale


def test_ritz_fd_matches_exact_gradient_variant():
    space = make_space(3, 2)

    def g(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad(x, y):
        return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))

    assert np.max(np.abs(ritz_project(space, grad) - ritz_project_fd(space, g))) < 1e-7


def test_discrete_laplacian_of_eigenfunction():
    # -Delta sin(pi x) sin(pi y) = 2 pi^2 sin(pi x) sin(pi y); h-refinement converges
    errs = []
    for n in (4, 8, 16):
        space = make_space(n, 2)
        g = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        lap = discrete_laplacian(space, g)
        d = lap + 2 * np.pi ** 2 * g
        errs.append(np.sqrt(d @ (space.mass @ d)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[0] < 0.45 and errs[2] / errs[1] < 0.45


def test_boundary_rows_fixed():
    space = make_space(3, 3)
    free = np.zeros(space.n_dof, dtype=bool)
    free[space.free_dofs] = True
    on_bnd = np.any((space.dof_coords <= 1e-12) | (space.dof_coords >= 1 - 1e-12),
                    axis=1)
    assert np.array_equal(~free, on_bnd)


def _kernel_cases():
    for p in range(1, 6):
        for deg in sorted({2 * p + 2, 3 * p + 2, max(2 * p + 2, 12)}):
            yield p, deg


@pytest.mark.parametrize("p,deg", list(_kernel_cases()))
def test_kernels_match_element_major_einsum(p, deg):
    # the element-major einsum forms the relaid kernels replaced; these must
    # stay equal bit for bit, so the comparison is exact
    space = make_space(3, p)
    ed = space.element_data(deg)
    rng = np.random.default_rng(10 * p + deg)
    rows = rng.standard_normal((4, space.n_dof))
    strided = rng.standard_normal((4, 2 * space.n_dof))[:, ::2]
    f_qp = rng.standard_normal((4,) + ed.wdetj.shape)

    def scatter(loc):
        out = np.zeros((len(loc), space.n_dof))
        for row, lrow in zip(out, loc):
            np.add.at(row, space.cell_dofs.ravel(), lrow.ravel())
        return out

    for coeffs in (rows, strided):
        ref = np.einsum("mtl,ql->mtq", coeffs[:, space.cell_dofs], ed.vals)
        assert np.array_equal(ed.function_values_multi(coeffs), ref)
        for row in coeffs:
            gref = np.einsum("tl,qld->tqd", row[space.cell_dofs], ed.grads_ref)
            ref = np.einsum("tqd,tde->tqe", gref, ed.jinv)
            assert np.array_equal(ed.function_gradients(row), ref)
    ref = scatter(np.einsum("mtq,q,qi->mti", f_qp, ed.w, ed.vals) * ed.detj[None, :, None])
    assert np.array_equal(ed.assemble_pointwise_load_multi(f_qp), ref)
    single = np.einsum("tq,q,qi->ti", f_qp[1], ed.w, ed.vals) * ed.detj[:, None]
    assert np.array_equal(ed.assemble_pointwise_load(f_qp[1]), scatter(single[None])[0])
    assert np.array_equal(ed.assemble_pointwise_load(f_qp[1]), ref[1])
    assert np.array_equal(ed.wdetj, ed.w[None, :] * ed.detj[:, None])

    # sampling, integration and the shared load scatter (gradient load
    # against its einsum with an np.add.at scatter written inline)
    x, y = ed.phys[:, :, 0], ed.phys[:, :, 1]
    g = lambda x, y, t: np.sin(x + t) * y
    assert np.array_equal(ed.sample(g, 0.3), g(x, y, 0.3))
    assert np.array_equal(ed.sample(lambda x, y: 2.0), np.full(x.shape, 2.0))
    gx, gy = ed.sample(lambda x, y: (np.cos(x), 1.0))
    assert np.array_equal(gx, np.cos(x)) and np.array_equal(gy, np.ones(x.shape))
    assert ed.integrate(f_qp[0]) == float(np.sum(f_qp[0] * (ed.w[None, :] * ed.detj[:, None])))
    field = rng.standard_normal(ed.wdetj.shape + (2,))
    gphys = np.einsum("qld,tde->tqle", ed.grads_ref, ed.jinv)
    loc = np.einsum("tqe,q,tqle->tl", field, ed.w, gphys) * ed.detj[:, None]
    ref = np.zeros(space.n_dof)
    np.add.at(ref, space.cell_dofs.ravel(), loc.ravel())
    assert np.array_equal(ed.assemble_gradient_load(field), ref)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_named_rules_are_the_cached_rules(p):
    space = make_space(2, p)
    assert space.ed_lin is space.element_data(2 * p + 2)
    assert space.ed_nl is space.element_data(3 * p + 2)
    assert space.ed_err is space.element_data(max(2 * p + 2, 12))


def test_lazy_cache_builds_once_under_thread_contention(monkeypatch):
    # more threads than cores, a short switch interval and a slow build, so
    # that an unlocked check-then-build would let several threads build it
    builds = []
    real = spacefe.assemble_stiffness

    def counted(space):
        builds.append(space)
        time.sleep(0.01)
        return real(space)

    monkeypatch.setattr(spacefe, "assemble_stiffness", counted)
    space = make_space(4, 2)
    seen = []

    def work():
        seen.append((space.stiffness, space.stiffness_ff, space.element_data(7)))
        space.solve_stiffness(np.ones(space.n_free))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 and len(builds) == 1
    assert all(all(a is b for a, b in zip(s, seen[0])) for s in seen)
