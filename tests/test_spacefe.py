"""Assembly, interpolation and point evaluation; the Ritz projection is
checked by the `ritz-projection` verify suite."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

import westfem.spacefe as spacefe
from westfem.cases import ProblemConfig, get_case, run_problem
from westfem.mesh import edge_table, unit_square_mesh
from westfem.refelem import reference_element, triangle_quadrature
from westfem.spacefe import FESpace, evaluate, interpolate


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


@pytest.mark.parametrize("p", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_free_dofs_match_the_vertex_grid_rule(n, p):
    # the earlier rule: an edge is Dirichlet when both endpoints sit on one
    # side of the square, read from the row-major vertex grid
    space = make_space(n, p)
    nv = space.mesh.n_vertices
    edges = edge_table(space.mesh)[0]
    ix, iy = np.arange(nv) % (n + 1), np.arange(nv) // (n + 1)
    u, v = edges[:, 0], edges[:, 1]
    on_side = (((ix[u] == ix[v]) & ((ix[u] == 0) | (ix[u] == n)))
               | ((iy[u] == iy[v]) & ((iy[u] == 0) | (iy[u] == n))))
    is_dirichlet = np.zeros(space.n_dof, dtype=bool)
    is_dirichlet[:nv] = space.mesh.boundary_vertex
    side_dofs = nv + np.flatnonzero(on_side)[:, None] * (p - 1) + np.arange(p - 1)
    is_dirichlet[side_dofs.ravel()] = True
    assert np.array_equal(space.free_dofs, np.flatnonzero(~is_dirichlet))


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


@pytest.mark.parametrize("x,y", [(1.5, 0.5), (0.5, -1e-12), (np.nan, 0.5), (0.5, np.inf)],
                         ids=["x-above-1", "y-below-0", "x-nan", "y-infinite"])
def test_evaluate_rejects_points_outside_the_square(x, y):
    space = make_space(4, 2)
    g = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    with pytest.raises(ValueError, match="outside"):
        evaluate(space, g, np.array([0.5, x]), np.array([0.5, y]))
    # the closed square's corners and edges are inside
    edge = evaluate(space, g, np.array([0.0, 1.0, 1.0, 0.5]), np.array([0.0, 1.0, 0.5, 1.0]))
    assert np.max(np.abs(edge)) < 1e-15


def test_evaluate_reproduces_fe_function():
    space = make_space(4, 2)
    g = interpolate(space, lambda x, y: (x - 0.2) * y + x * x)
    rng = np.random.default_rng(5)
    x, y = rng.random(60), rng.random(60)
    exact = (x - 0.2) * y + x * x
    assert np.max(np.abs(evaluate(space, g, x, y) - exact)) < 1e-13


def test_ritz_projection_reproduces_fe_function(suite_checks):
    suite_checks("ritz-projection", "n2-idempotence-p4", "idempotence-p4")


def test_ritz_projection_galerkin_orthogonality(suite_checks):
    suite_checks("ritz-projection", "galerkin-orthogonality")


def test_boundary_rows_fixed():
    space = make_space(3, 3)
    free = np.zeros(space.n_dof, dtype=bool)
    free[space.free_dofs] = True
    on_bnd = np.any((space.dof_coords <= 1e-12) | (space.dof_coords >= 1 - 1e-12),
                    axis=1)
    assert np.array_equal(~free, on_bnd)


def jittered_space(n, p):
    # interior vertices moved at random: every element has its own geometry
    mesh = unit_square_mesh(n)
    inner = ~mesh.boundary_vertex
    vertices = mesh.vertices.copy()
    vertices[inner] += np.random.default_rng(0).uniform(-0.2, 0.2, (inner.sum(), 2)) / n
    return FESpace(dataclasses.replace(mesh, vertices=vertices), p)


def test_evaluate_refuses_a_jittered_mesh():
    space = jittered_space(4, 2)
    with pytest.raises(ValueError, match="unit_square_mesh"):
        evaluate(space, np.zeros(space.n_dof), np.array([0.5]), np.array([0.5]))


@pytest.mark.parametrize("n,p,jitter", [
    *(pytest.param(n, p, False, id=f"{n}-{p}")
      for n, p in [(3, p) for p in range(1, 7)] + [(16, 2), (24, 2)]),
    pytest.param(5, 3, True, id="5-3-jittered")])
def test_stiffness_matches_einsum(n, p, jitter):
    # the four-operand einsum over every element, scattered by the same
    # _scatter: the kernel run on one row per geometry class must give equal
    # CSR arrays bit for bit, with 2 classes (n = 16), 72 (n = 24) or one per
    # element (jittered)
    space = jittered_space(n, p) if jitter else make_space(n, p)
    ed = space.ed_lin
    c = np.einsum("tde,tfe->tdf", ed.jinv, ed.jinv) * ed.detj[:, None, None]
    local = np.einsum("q,qid,tdf,qjf->tij", ed.w, ed.grads_ref, c, ed.grads_ref)
    ref = spacefe._scatter(space, local)
    got = spacefe.assemble_stiffness(space)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


@pytest.mark.parametrize("n,jitter,rows", [
    pytest.param(16, False, 2, id="16"), pytest.param(24, False, 72, id="24"),
    pytest.param(5, True, 50, id="5-jittered")])
def test_stiffness_kernel_runs_once_per_geometry(monkeypatch, n, jitter, rows):
    # the kernel sees one row per distinct (J^{-1}, det J), not one per element
    seen = []
    real = spacefe._element_stiffness

    def spy(ed, jinv, detj):
        seen.append(len(detj))
        return real(ed, jinv, detj)

    monkeypatch.setattr(spacefe, "_element_stiffness", spy)
    space = jittered_space(n, 2) if jitter else make_space(n, 2)
    spacefe.assemble_stiffness(space)
    assert seen == [rows]


def test_stiffness_exact_when_every_hash_collides(monkeypatch):
    # a zero hash ties every row, so the sort may interleave the classes: they
    # split, but each element still gets the matrix of its own geometry
    space = make_space(24, 2)
    ref = spacefe.assemble_stiffness(space)
    monkeypatch.setattr(spacefe, "_MIX", np.zeros(5, dtype=np.uint64))
    got = spacefe.assemble_stiffness(space)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_free_free_blocks_share_one_pattern(p):
    # each block is the sliced global matrix, byte for byte, and the two
    # hold one indptr and one indices array between them
    space = make_space(4, p)
    free = space.free_dofs
    blocks = {}
    for name in ("stiffness", "mass"):      # the pattern is built from the first
        got = getattr(space, f"{name}_ff")
        ref = getattr(space, name)[free][:, free].tocsc()
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(ref, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, attr)
        blocks[name] = got
    for attr in ("indices", "indptr"):
        assert np.shares_memory(getattr(blocks["mass"], attr), getattr(blocks["stiffness"], attr))


def test_global_matrices_are_stored_once():
    # n = 5, p = 2 has shared dofs, so the COO of the scatter has duplicates
    # that tocsr sums into views of its longer buffers
    space = make_space(5, 2)
    mass, stiff = space.mass, space.stiffness
    assert space.cell_dofs.size * space.cell_dofs.shape[1] > mass.nnz
    assert stiff.indices is mass.indices and stiff.indptr is mass.indptr
    for arr in (mass.data, mass.indices, stiff.data):
        owner = arr if arr.base is None else arr.base
        assert arr.size == mass.nnz and owner.nbytes == mass.nnz * arr.itemsize
    run_problem(ProblemConfig(case=get_case("smooth"), n=5, p=2, q=2, tau=0.5), space)
    held = sorted(k for k, v in space._cache.items() if sp.issparse(v))
    assert held == ["mass", "stiffness"]           # no free-free block kept


def _kernel_cases():
    for p in range(1, 7):
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
        seen = []

        def keep(cells, u):
            seen.append(u.copy())
            return u

        ed.assemble_loads(keep, coeffs)
        assert np.array_equal(np.concatenate(seen, axis=1), ref)
        for row in coeffs:
            gref = np.einsum("tl,qld->tqd", row[space.cell_dofs], ed.grads_ref)
            ref = np.einsum("tqd,tde->tqe", gref, ed.jinv)
            got = ed._gradient_components(row[space.cell_dofs], ed.jinv)
            assert np.array_equal(np.stack(got, axis=2), ref)
    ref = scatter(np.einsum("mtq,q,qi->mti", f_qp, ed.w, ed.vals) * ed.detj[None, :, None])
    assert np.array_equal(ed.assemble_loads(lambda cells: f_qp[:, cells]), ref)
    single = np.einsum("tq,q,qi->ti", f_qp[1], ed.w, ed.vals) * ed.detj[:, None]
    assert np.array_equal(ed.assemble_pointwise_load(f_qp[1]), scatter(single[None])[0])
    assert np.array_equal(ed.assemble_pointwise_load(f_qp[1]), ref[1])
    assert np.array_equal(ed.wdetj, ed.w[None, :] * ed.detj[:, None])

    # sampling, integration and the shared load scatter (gradient load
    # against its einsum with an np.add.at scatter written inline)
    x, y = ed.xy
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


@pytest.mark.parametrize("n,p,deg", [(3, 1, 5), (4, 2, 8), (2, 5, 17)])
def test_load_kernel_on_every_caller_layout(n, p, deg, monkeypatch):
    # the load kernel contracts on an element-last view whose cost depends on
    # the memory layout of the integrand; the result must not: each layout a
    # caller hands back equals the element-major einsum with an inline
    # np.add.at scatter, also over several blocks of 3 elements
    monkeypatch.setattr(spacefe, "BLOCK", 3)
    space = make_space(n, p)
    ed = space.element_data(deg)
    rng = np.random.default_rng(deg)

    def ref(f_qp):
        loc = np.einsum("mtq,q,qi->mti", f_qp, ed.w, ed.vals) * ed.detj[None, :, None]
        out = np.zeros((len(loc), space.n_dof))
        for row, lrow in zip(out, loc):
            np.add.at(row, space.cell_dofs.ravel(), lrow.ravel())
        return out

    def values(rows):
        return np.einsum("mtl,ql->mtq", rows[:, space.cell_dofs], ed.vals)

    def lagged(cells, a, b):                         # block fields laid out (nq, nb, m)
        assert a.strides[0] < a.strides[1] < a.strides[2]
        return a * a + b * a

    rows_a, rows_b = rng.standard_normal((2, 6, space.n_dof))
    whole = values(rows_a) * values(rows_a) + values(rows_b) * values(rows_a)
    assert np.array_equal(ed.assemble_loads(lagged, rows_a, rows_b), ref(whole))
    assert np.array_equal(ed.assemble_loads(lambda cells, a, b: lagged(cells, a, b)[::2],
                                            rows_a, rows_b), ref(whole[::2]))
    contiguous = rng.standard_normal((3,) + ed.wdetj.shape)
    standing = get_case("standing-wave")             # f ignores t: a broadcast view
    times = np.array([0.0, 0.1, 0.2])
    broadcast = ed.sample(standing.f, times)
    assert not broadcast.flags.writeable
    assert np.array_equal(ed.assemble_loads(
        lambda cells: ed.sample(standing.f, times, cells=cells)), ref(broadcast))
    nt, nq = ed.wdetj.shape
    strided = rng.standard_normal((4, nt, 2 * nq))[:, :, ::2]
    for f_qp in (contiguous, broadcast, strided):
        before = f_qp.copy()
        assert np.array_equal(ed.assemble_loads(lambda cells: f_qp[:, cells]), ref(f_qp))
        assert np.array_equal(ed.assemble_pointwise_load(f_qp[1]), ref(f_qp[1:2])[0])
        assert np.array_equal(f_qp, before)


@pytest.mark.parametrize("label", ["smooth", "smooth-fast", "standing-wave", "gaussian-pulse"])
def test_vector_time_sample_stacks_scalar_time_samples(label):
    # every time-dependent callable of the case, vector fields included and
    # standing-wave's f, which ignores t
    case = get_case(label)
    ed = make_space(3, 2).ed_err
    ts = np.linspace(0.0, case.T, 5)
    for g in (case.f, case.u, case.dtu, case.grad_u, case.grad_dtu):
        if g is None:
            continue
        one = ed.sample(g, ts[2])
        many = ed.sample(g, ts)
        if isinstance(one, tuple):
            assert len(many) == len(one) == 2
            for c in range(2):
                assert one[c].shape == ed.wdetj.shape
                assert np.array_equal(many[c], np.stack([ed.sample(g, t)[c] for t in ts]))
        else:
            assert one.shape == ed.wdetj.shape
            assert np.array_equal(many, np.stack([ed.sample(g, t) for t in ts]))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [1, 2, 5])
def test_named_rules_are_the_cached_rules(p):
    # each space caches its rules and one geometry, which the rules share; the
    # reference tables are built once per process, read-only, and shared by
    # every space of that p
    space, other = make_space(2, p), make_space(3, p)
    ref = reference_element(p)
    rules = {"ed_lin": 2 * p + 2, "ed_nl": 3 * p + 2, "ed_err": max(2 * p + 2, 12)}
    for name, degree in rules.items():
        ed, twin = getattr(space, name), getattr(other, name)
        assert ed is space.element_data(degree)
        pts, w = triangle_quadrature(degree)
        assert ed._pts is pts and ed.w is w
        tables = (ed.vals, ed.grads_ref, ed.grads_lqd, ed.mass_ref)
        assert all(a is b for a, b in zip(tables, (twin.vals, twin.grads_ref,
                                                   twin.grads_lqd, twin.mass_ref)))
        assert _same_bits(ed.vals, ref.eval_basis(pts))
        assert _same_bits(ed.grads_ref, ref.eval_basis_grad(pts))
        assert ed.grads_lqd.flags.c_contiguous
        assert _same_bits(ed.grads_lqd, ed.grads_ref.transpose(1, 0, 2))
        assert _same_bits(ed.mass_ref, np.einsum("q,qi,qj->ij", w, ed.vals, ed.vals))
        assert ed.detj is space.ed_lin.detj and ed.jinv is space.ed_lin.jinv
        assert ed.detj is not twin.detj
        for a in (pts, w, *tables, ed.detj, ed.jinv):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0


def test_rules_share_one_read_only_dofmap_layout():
    # gdofs_lt is built once per space beside det J and J^{-1}
    space = make_space(3, 2)
    lt = space.ed_lin.gdofs_lt
    assert lt is space.ed_nl.gdofs_lt is space.ed_err.gdofs_lt
    assert lt is not make_space(3, 2).ed_lin.gdofs_lt
    assert lt.flags.c_contiguous and np.array_equal(lt, space.cell_dofs.T)
    with pytest.raises(ValueError, match="read-only"):
        lt[0, 0] = 0


def test_lazy_cache_builds_once_under_thread_contention(monkeypatch):
    # more threads than cores, a short switch interval and a slow build, so
    # that an unlocked check-then-build would let several threads build it
    builds = []
    real = spacefe.assemble_stiffness

    def counted(space):
        builds.append("stiffness")
        time.sleep(0.01)
        return real(space)

    monkeypatch.setattr(spacefe, "assemble_stiffness", counted)
    space = make_space(4, 2)
    real_map = spacefe.map_to_cells

    def counted_map(mesh, pts):                      # the sampling geometry xy
        builds.append("xy")
        time.sleep(0.01)
        return real_map(mesh, pts)

    monkeypatch.setattr(spacefe, "map_to_cells", counted_map)
    seen = []

    def work():
        ed = space.element_data(7)
        xy = []
        ed.sample(lambda x, y: xy.extend((x, y)) or 0.0)
        seen.append((space.stiffness, space._ff_pattern(), ed, *xy))
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
    assert len(seen) == 8 and sorted(builds) == ["stiffness", "xy"]
    assert all(all(a is b for a, b in zip(s, seen[0])) for s in seen)


@pytest.mark.parametrize("n,p,deg", [(3, 1, 12), (3, 2, 12), (2, 5, 17), (17, 1, 12)])
def test_error_kernels_match_their_written_out_forms(n, p, deg):
    # per-row values equal the element-major einsum's row; the squared errors
    # are summed over the same C-ordered (nt, nq) products as before, also
    # when the kernels work in element blocks (n = 17: 578 triangles)
    space = make_space(n, p)
    ed = space.element_data(deg)
    assert (n == 17) == (space.mesh.n_triangles > spacefe.BLOCK)
    rng = np.random.default_rng(deg + p)
    rows = rng.standard_normal((3, space.n_dof))
    exact = rng.standard_normal((3,) + ed.wdetj.shape)
    values = np.einsum("mtl,ql->mtq", rows[:, space.cell_dofs], ed.vals)
    for row, fe, ex in zip(rows, values, exact):
        assert ed.value_error(row, ex) == float(np.sum((fe - ex) * (fe - ex) * ed.wdetj))
        g = np.einsum("tqd,tde->tqe",
                      np.einsum("tl,qld->tqd", row[space.cell_dofs], ed.grads_ref), ed.jinv)
        e = (g[:, :, 0] - ex) ** 2 + (g[:, :, 1] - 2.0 * ex) ** 2
        assert ed.gradient_error(row, (ex, 2.0 * ex)) == float(np.sum(e * ed.wdetj))
    # a broadcast exact value (a callable that ignores x, y) is read, never written
    const = ed.sample(lambda x, y: 0.5)
    assert not const.flags.writeable
    fe = values[0]
    assert ed.value_error(rows[0], const) == float(np.sum((fe - 0.5) ** 2 * ed.wdetj))
