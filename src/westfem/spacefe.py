"""Conforming Lagrange spaces V_h^p on triangulated unit squares.

Global dof order: vertex dofs first (vertex id), then p-1 dofs per edge
(ordered from the lower-numbered vertex), then per-triangle interior dofs.
On the structured n x n mesh this gives exactly (p*n+1)^2 dofs.
Homogeneous Dirichlet conditions are imposed by restriction to free dofs.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import Mesh, edge_table
from .refelem import reference_element, triangle_quadrature


class FESpace:
    """H^1_0-conforming space of continuous piecewise degree-p polynomials."""

    def __init__(self, mesh: Mesh, p: int):
        self.mesh = mesh
        self.p = p
        self.ref = reference_element(p)
        self._build_dofmap()
        self._cache: dict = {}
        # one lock for every lazy entry: studies share a space across threads,
        # and an entry may build another one (mass needs element data)
        self._lock = threading.RLock()

    # -- construction -------------------------------------------------

    def _build_dofmap(self):
        mesh, p, ref = self.mesh, self.p, self.ref
        nv = mesh.n_vertices
        edges, tri_edges = edge_table(mesh)
        ne = len(edges)
        n_int = ref.n_interior
        self.n_dof = nv + ne * (p - 1) + mesh.n_triangles * n_int

        # vertex dofs, then the p-1 dofs of each local edge (u, v) counted
        # from its lower-numbered vertex, then the interior dofs
        edge_base = nv
        int_base = nv + ne * (p - 1)
        tri = mesh.triangles
        slots = np.where((tri > tri[:, [1, 2, 0]])[:, :, None],
                         np.arange(p - 1)[::-1], np.arange(p - 1))
        edge_dofs = edge_base + tri_edges[:, :, None] * (p - 1) + slots
        interior = int_base + np.arange(len(tri) * n_int).reshape(len(tri), n_int)
        self.cell_dofs = cell_dofs = np.concatenate(
            [tri, edge_dofs.reshape(len(tri), -1), interior], axis=1)

        # physical node coordinates (shared dofs written consistently)
        coords = np.empty((self.n_dof, 2))
        va = mesh.vertices[mesh.triangles[:, 0]]
        vb = mesh.vertices[mesh.triangles[:, 1]]
        vc = mesh.vertices[mesh.triangles[:, 2]]
        xi = ref.nodes[:, 0]
        eta = ref.nodes[:, 1]
        phys = (va[:, None, :]
                + xi[None, :, None] * (vb - va)[:, None, :]
                + eta[None, :, None] * (vc - va)[:, None, :])
        coords[cell_dofs.ravel()] = phys.reshape(-1, 2)
        self.dof_coords = coords

        # Dirichlet dofs by topology: boundary vertices, plus edge dofs on
        # edges whose endpoints share a side of the square (a diagonal may
        # join two boundary vertices through the interior)
        n = mesh.n
        is_dirichlet = np.zeros(self.n_dof, dtype=bool)
        is_dirichlet[:nv] = mesh.boundary_vertex
        ix = np.arange(nv) % (n + 1)
        iy = np.arange(nv) // (n + 1)
        u, v = edges[:, 0], edges[:, 1]
        on_side = (((ix[u] == ix[v]) & ((ix[u] == 0) | (ix[u] == n)))
                   | ((iy[u] == iy[v]) & ((iy[u] == 0) | (iy[u] == n))))
        side_dofs = edge_base + np.flatnonzero(on_side)[:, None] * (p - 1) + np.arange(p - 1)
        is_dirichlet[side_dofs.ravel()] = True
        self.is_free = ~is_dirichlet
        self.free_dofs = np.flatnonzero(self.is_free)
        self.n_free = self.free_dofs.size

    # -- cached operators ----------------------------------------------

    def _cached(self, key, build):
        """The entry under `key`, built once by `build()` on first use."""
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    def element_data(self, degree: int) -> "ElementData":
        return self._cached(("edata", degree), lambda: ElementData(self, degree))

    # the three rules of the scheme; see ElementData for the terms each serves
    @property
    def ed_lin(self) -> "ElementData":
        return self.element_data(2 * self.p + 2)

    @property
    def ed_nl(self) -> "ElementData":
        return self.element_data(3 * self.p + 2)

    @property
    def ed_err(self) -> "ElementData":
        return self.element_data(max(2 * self.p + 2, 12))

    @property
    def mass(self) -> sp.csr_matrix:
        return self._cached("mass", lambda: assemble_mass(self))

    @property
    def stiffness(self) -> sp.csr_matrix:
        return self._cached("stiffness", lambda: assemble_stiffness(self))

    def _ff(self, name):
        def build():
            mat = getattr(self, name)
            return mat[self.free_dofs][:, self.free_dofs].tocsc()
        return self._cached((name, "ff"), build)

    @property
    def mass_ff(self):
        return self._ff("mass")

    @property
    def stiffness_ff(self):
        return self._ff("stiffness")

    def _solver(self, name):
        return self._cached((name, "lu"), lambda: splu(self._ff(name)))

    def solve_stiffness(self, rhs_free):
        return self._solver("stiffness").solve(rhs_free)

    def solve_mass(self, rhs_free):
        return self._solver("mass").solve(rhs_free)


class ElementData:
    """Reference basis tables and geometry factors for one quadrature rule.

    Every spatial quadrature of the package goes through this class, on one
    of three rules of FESpace:

    - `ed_lin`, degree 2p+2: mass, stiffness, the Ritz projection and the
      data loads (source f, initial velocity);
    - `ed_nl`, degree 3p+2: the lagged nonlinear terms, the nonlinear
      residual and the trace loads handed between slabs;
    - `ed_err`, degree max(2p+2, 12): the error and data functionals.

    Callers sample data with `sample`, integrate with `integrate` and
    assemble through the kernels below; the geometry and weights stay inside
    this module.

    Layout rule: the per-call kernels (values, gradients, loads) hand einsum
    operands laid out so that its loops are vectorised over the element axis
    instead of running over the short local axes.  For this the data keeps
    two contiguous copies next to the natural layouts: `gdofs_lt` =
    cell_dofs.T (nl, nt) and `grads_lqd` = grads_ref as (nl, nq, 2).
    Reference gradients come out component-major (2, nt, nq) and J^{-1} is
    applied by elementwise products; loads fold the weights into f before
    contracting.  Each kernel forms the same products and sums them in the
    same order as the element-major einsum it replaces, so results are equal
    bit for bit (pinned in tests/test_spacefe.py).  `function_values` is a
    BLAS matmul instead, which orders its sums differently: it agrees with
    `function_values_multi` only to round-off, so a call site must not
    switch between the two.
    """

    def __init__(self, space: FESpace, degree: int):
        mesh, ref = space.mesh, space.ref
        pts, w = triangle_quadrature(degree)
        self.qpts, self.w = pts, w
        self.vals = ref.eval_basis(pts)                  # (nq, nl)
        self.grads_ref = ref.eval_basis_grad(pts)        # (nq, nl, 2)
        self.grads_lqd = np.ascontiguousarray(self.grads_ref.transpose(1, 0, 2))

        tri = mesh.triangles
        va, vb, vc = (mesh.vertices[tri[:, k]] for k in range(3))
        jac = np.stack([vb - va, vc - va], axis=2)       # (nt, 2, 2), columns
        self.detj = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        self.wdetj = w[None, :] * self.detj[:, None]     # (nt, nq) weights
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= self.detj[:, None, None]
        self.jinv = inv                                  # J^{-1}
        self.phys = (va[:, None, :]
                     + pts[None, :, 0, None] * (vb - va)[:, None, :]
                     + pts[None, :, 1, None] * (vc - va)[:, None, :])
        self.gdofs = space.cell_dofs
        self.gdofs_lt = np.ascontiguousarray(space.cell_dofs.T)
        self.n_dof = space.n_dof

    def sample(self, g, *t):
        """g(x, y, *t) at the quadrature points, broadcast to (nt, nq); a
        callable returning a tuple (a vector field) gets each entry broadcast."""
        v = g(self.phys[:, :, 0], self.phys[:, :, 1], *t)
        if isinstance(v, tuple):
            return tuple(np.broadcast_to(c, self.wdetj.shape) for c in v)
        return np.broadcast_to(v, self.wdetj.shape)

    def integrate(self, v: np.ndarray) -> float:
        """Integral over the domain of v given at the quadrature points (nt, nq)."""
        return float(np.sum(v * self.wdetj))

    def function_values(self, coeffs: np.ndarray) -> np.ndarray:
        """FE function at all quadrature points; (nt, nq)."""
        local = coeffs[self.gdofs]                       # (nt, nl)
        return local @ self.vals.T

    def function_gradients(self, coeffs: np.ndarray) -> np.ndarray:
        """Physical gradients at quadrature points; (nt, nq, 2)."""
        gref = np.einsum("tl,lqd->dtq", coeffs[self.gdofs], self.grads_lqd)
        out = np.empty(gref.shape[1:] + (2,))
        for e in range(2):                               # sum_d gref_d J^{-1}_de
            np.multiply(gref[0], self.jinv[:, 0, e, None], out=out[:, :, e])
            out[:, :, e] += gref[1] * self.jinv[:, 1, e, None]
        return out

    def function_values_multi(self, coeffs: np.ndarray) -> np.ndarray:
        """Batched function_values for coefficient rows; (m, n_dof) -> (m, nt, nq)."""
        local = coeffs[:, self.gdofs_lt]                 # (m, nl, nt)
        return np.einsum("mlt,ql->mtq", local, self.vals)

    def assemble_pointwise_load(self, f_qp: np.ndarray) -> np.ndarray:
        """(f, phi_i) for f given by its values at quadrature points."""
        return self.assemble_pointwise_load_multi(f_qp[None])[0]

    def assemble_pointwise_load_multi(self, f_qp: np.ndarray) -> np.ndarray:
        """Batched load assembly; f_qp (m, nt, nq) -> (m, n_dof)."""
        loc = np.einsum("mtq,qi->mti", f_qp * self.w, self.vals) * self.detj[None, :, None]
        return self._scatter_loads(loc)

    def assemble_gradient_load(self, g_qp: np.ndarray) -> np.ndarray:
        """(g, grad phi_i) for a vector field g at quadrature points; g_qp (nt, nq, 2)."""
        gphys = np.einsum("qld,tde->tqle", self.grads_ref, self.jinv)
        loc = np.einsum("tqe,q,tqle->tl", g_qp, self.w, gphys) * self.detj[:, None]
        return self._scatter_loads(loc[None])[0]

    def _scatter_loads(self, loc: np.ndarray) -> np.ndarray:
        """Sum element load rows (m, nt, nl) into global rows (m, n_dof).
        bincount adds in index order, as np.add.at does, so sums are equal."""
        idx = self.gdofs.ravel()
        return np.stack([np.bincount(idx, weights=row.ravel(), minlength=self.n_dof)
                         for row in loc])


def _scatter(space: FESpace, local: np.ndarray) -> sp.csr_matrix:
    """Accumulate per-element matrices (nt, nl, nl) into a global CSR."""
    gd = space.cell_dofs
    nl = gd.shape[1]
    rows = np.repeat(gd, nl, axis=1).ravel()
    cols = np.tile(gd, (1, nl)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(space.n_dof, space.n_dof))
    return mat.tocsr()


def assemble_mass(space: FESpace) -> sp.csr_matrix:
    """Global mass matrix (phi_j, phi_i)."""
    ed = space.ed_lin
    m_ref = np.einsum("q,qi,qj->ij", ed.w, ed.vals, ed.vals)
    local = ed.detj[:, None, None] * m_ref[None, :, :]
    return _scatter(space, local)


def assemble_stiffness(space: FESpace) -> sp.csr_matrix:
    """Global stiffness matrix (grad phi_j, grad phi_i)."""
    ed = space.ed_lin
    # C_e = detJ * J^{-1} J^{-T}
    c = np.einsum("tde,tfe->tdf", ed.jinv, ed.jinv) * ed.detj[:, None, None]
    local = np.einsum("q,qid,tdf,qjf->tij", ed.w, ed.grads_ref, c, ed.grads_ref)
    return _scatter(space, local)


def interpolate(space: FESpace, g) -> np.ndarray:
    """Nodal interpolant I_h g (coefficients = values at dof nodes)."""
    return np.asarray(g(space.dof_coords[:, 0], space.dof_coords[:, 1]), dtype=float)


def ritz_project(space: FESpace, grad_g) -> np.ndarray:
    """Ritz projection R_h g of a function with g|_{boundary} = 0.

    Defined by (grad(R_h g - g), grad v_h) = 0 for all v_h; needs only the
    gradient of g, passed as grad_g(x, y) -> (gx, gy).
    """
    ed = space.ed_lin
    rhs = ed.assemble_gradient_load(np.stack(ed.sample(grad_g), axis=2))
    out = np.zeros(space.n_dof)
    out[space.free_dofs] = space.solve_stiffness(rhs[space.free_dofs])
    return out


def ritz_project_fd(space: FESpace, g) -> np.ndarray:
    """Ritz projection with a central-difference gradient of g (diagnostic path
    for data supplied without a closed-form gradient)."""
    step = 1e-6

    def grad(x, y):
        return ((g(x + step, y) - g(x - step, y)) / (2 * step),
                (g(x, y + step) - g(x, y - step)) / (2 * step))
    return ritz_project(space, grad)


def discrete_laplacian(space: FESpace, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of Delta_h v, defined by (Delta_h v, z) = -(grad v, grad z)."""
    rhs = -(space.stiffness @ coeffs)[space.free_dofs]
    out = np.zeros(space.n_dof)
    out[space.free_dofs] = space.solve_mass(rhs)
    return out


def evaluate(space: FESpace, coeffs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Point evaluation of a FE function on the structured mesh."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = space.mesh.n
    cx = np.clip(np.floor(x * n).astype(int), 0, n - 1)
    cy = np.clip(np.floor(y * n).astype(int), 0, n - 1)
    fx = x * n - cx
    fy = y * n - cy
    lower = fy <= fx
    tri = 2 * (cy * n + cx) + np.where(lower, 0, 1)
    xi = np.where(lower, fx - fy, fx)
    eta = np.where(lower, fy, fy - fx)
    vals = space.ref.eval_basis(np.column_stack([xi, eta]))  # (npts, nl)
    local = coeffs[space.cell_dofs[tri]]                     # (npts, nl)
    return np.sum(vals * local, axis=1)
