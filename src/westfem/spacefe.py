"""Conforming Lagrange spaces V_h^p on triangulated unit squares.

Global dof order: vertex dofs first (vertex id), then p-1 dofs per edge
(ordered from the lower-numbered vertex), then per-triangle interior dofs.
On the structured n x n mesh this gives exactly (p*n+1)^2 dofs.
Homogeneous Dirichlet conditions are imposed by restriction to free dofs.

A quadrature rule's reference tables depend on p and its degree alone: they
are built once per process, read-only, and shared by every space of that p.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import Mesh, affine_maps, edge_table, locate, map_to_cells
from .refelem import cached_once, reference_element, triangle_quadrature


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
        _, tri_edges, on_boundary = edge_table(mesh)
        ne = len(on_boundary)
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
        self.dof_coords = np.empty((self.n_dof, 2))
        self.dof_coords[cell_dofs.ravel()] = map_to_cells(mesh, ref.nodes).reshape(-1, 2)

        # Dirichlet dofs: boundary vertices, plus the dofs of boundary edges
        is_dirichlet = np.zeros(self.n_dof, dtype=bool)
        is_dirichlet[:nv] = mesh.boundary_vertex
        side_dofs = edge_base + np.flatnonzero(on_boundary)[:, None] * (p - 1) + np.arange(p - 1)
        is_dirichlet[side_dofs.ravel()] = True
        self.free_dofs = np.flatnonzero(~is_dirichlet)
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

    def _geometry(self) -> tuple:
        """det J (nt,), J^{-1} (nt, 2, 2) and a contiguous cell_dofs.T (nl, nt),
        read-only and shared by the space's rules."""
        def build():
            jac = affine_maps(self.mesh)[1]              # (nt, 2, 2), columns
            detj = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            inv = np.empty_like(jac)
            inv[:, 0, 0] = jac[:, 1, 1]
            inv[:, 0, 1] = -jac[:, 0, 1]
            inv[:, 1, 0] = -jac[:, 1, 0]
            inv[:, 1, 1] = jac[:, 0, 0]
            inv /= detj[:, None, None]
            dofs_lt = np.ascontiguousarray(self.cell_dofs.T)
            detj.flags.writeable = inv.flags.writeable = dofs_lt.flags.writeable = False
            return detj, inv, dofs_lt
        return self._cached("geometry", build)

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
        return self._cached("matrices", lambda: assemble_matrices(self))[0]

    @property
    def stiffness(self) -> sp.csr_matrix:
        return self._cached("matrices", lambda: assemble_matrices(self))[1]

    def _ff_pattern(self):
        """The free-dof pattern: (indptr, indices) of the free-free block in
        CSC order, and `take`, the position of each of its entries in the
        data of mass and of stiffness, which share one global pattern."""
        def build():
            mat = self.mass
            ids = sp.csr_matrix((np.arange(mat.nnz, dtype=mat.indices.dtype), mat.indices,
                                 mat.indptr), shape=mat.shape)
            ff = ids[self.free_dofs][:, self.free_dofs].tocsc()
            return ff.indptr, ff.indices, ff.data
        return self._cached("ff_pattern", build)

    def _ff(self, name):
        """The free-free block of `name`, gathered anew at each call onto the
        cached free-dof pattern, whose indptr and indices it shares."""
        indptr, indices, take = self._ff_pattern()
        return sp.csc_matrix((getattr(self, name).data[take], indices, indptr),
                             shape=(self.n_free, self.n_free))

    @property
    def mass_ff(self):
        return self._ff("mass")

    @property
    def stiffness_ff(self):
        return self._ff("stiffness")

    def solve_stiffness(self, rhs_free):
        return self._cached("stiffness_lu", lambda: splu(self.stiffness_ff)).solve(rhs_free)


@cached_once
def _reference_tables(p: int, degree: int) -> tuple:
    """Read-only tables of the degree-`degree` rule for degree-p elements:
    points, weights, basis values and gradients, the gradients as a
    contiguous (nl, nq, 2), and the reference mass; see ElementData."""
    ref = reference_element(p)
    pts, w = triangle_quadrature(degree)
    vals = ref.eval_basis(pts)
    grads_ref = ref.eval_basis_grad(pts)
    grads_lqd = np.ascontiguousarray(grads_ref.transpose(1, 0, 2))
    mass = np.einsum("q,qi,qj->ij", w, vals, vals)
    for a in (vals, grads_ref, grads_lqd, mass):
        a.flags.writeable = False
    return pts, w, vals, grads_ref, grads_lqd, mass


# elements per block of the load and error kernels: a block's fields and
# temporaries stay in cache, and only the scatter or the final sum runs over
# all elements, in the order it did unblocked
BLOCK = 512


class ElementData:
    """Reference basis tables and geometry factors for one quadrature rule.

    Every spatial quadrature of the package goes through this class, on one
    of three rules of FESpace:

    - `ed_lin`, degree 2p+2: mass, stiffness, the Ritz projection and the
      data loads (source f, initial velocity);
    - `ed_nl`, degree 3p+2: the lagged nonlinear terms, the nonlinear
      residual and the trace loads handed between slabs;
    - `ed_err`, degree max(2p+2, 12): the error and data functionals.

    Callers sample data with `sample`, integrate with `integrate`, score
    errors with `value_error` and `gradient_error` (one coefficient row and
    one sampled time per call) and assemble through the kernels below; the
    geometry and weights stay inside this module.

    Lifetime rule: the reference tables (the weights w, `vals`, `grads_ref`,
    `grads_lqd` and the reference mass `mass_ref`) are built once per
    process for each (p, degree) by `_reference_tables`, read-only and shared
    by every space of that p.  det J, J^{-1} and `gdofs_lt` are built once
    per space, read-only and shared by its three rules.  The sampling
    geometry `xy` and the weights `wdetj`, two (nt, nq) fields, are built on
    first use under the space's lock, so every caller and every thread still
    gets the same objects.  Mass, stiffness and the slab operator never read them, and the
    solver factors its first slab LU before anything samples data: that LU
    sets a solve's peak memory, and every array alive beside it adds to the
    peak (there: the dofmap, the space's Jacobians, mass, stiffness, the
    free-dof pattern, the operator).

    Layout rule: the kernels hand einsum operands laid out so that its loops
    are vectorised over the element axis instead of running over the short
    local axes.  For this the data keeps two contiguous copies next to the
    natural layouts: `gdofs_lt` = cell_dofs.T (nl, nt), one per space, and
    `grads_lqd` = grads_ref as (nl, nq, 2), a shared reference table.
    Reference gradients come out component-major (2, nt, nq) and J^{-1} is
    applied by elementwise products.  The load and error kernels walk blocks
    of BLOCK elements, so no caller holds a whole (m, nt, nq) field.  The
    one pointwise load kernel, `assemble_loads`,
    evaluates the FE fields of its coefficient stacks on a block, lets the
    caller form the integrand on them in place or sample data on the block's
    points, folds the weights into the integrand in Fortran order (the
    C-contiguous (nq, nb, m) layout) and contracts over q on the element-last
    (nq, nb*m) view of that product, so einsum's inner loop runs over
    elements.  Each block's element rows go into one (m, nt, nl) array,
    scattered once.  The kernel never writes into the integrand, which may be
    a read-only broadcast from `sample`.  The gradient load is a loop over
    the quadrature points, each step vectorised over the elements.  The
    stiffness matrix is the element-major einsum itself, with w folded into
    the first gradient table, run once per geometry class: 2 rows at n = 64,
    72 at n = 24.

    Exactness rule: einsum adds the rounded products of each output entry one
    at a time, in the order of its loops, so a kernel that forms the same
    products and adds them in that order is equal bit for bit.  Every kernel
    here keeps the order of the element-major einsum it replaces (pinned in
    tests/test_spacefe.py and, for the slab loads, tests/test_solver.py).
    Blocking keeps that order: the sum over l of each value and the sum over
    q of each load do not depend on the block, an integrand is elementwise,
    the scatter adds the element rows in element order, and an error kernel
    writes each block's weighted squared error into one C-ordered (nt, nq)
    array, whose final np.sum adds as the unblocked form did.  Two einsum
    forms are traps: an operand made contiguous along a summed axis lets
    einsum sum in a different order, which changes bits, and `out=` into a
    buffer whose layout is not the one einsum would pick is slower.
    `function_values` is a BLAS matmul instead, which orders its sums
    differently: it agrees with the block values only to round-off, so a
    call site must not switch between the two.
    """

    def __init__(self, space: FESpace, degree: int):
        pts, self.w, self.vals, self.grads_ref, self.grads_lqd, self.mass_ref = \
            _reference_tables(space.p, degree)
        self.detj, self.jinv, self.gdofs_lt = space._geometry()
        self.gdofs = space.cell_dofs
        self.n_dof = space.n_dof
        # built on first use, see `xy` and `wdetj`
        self._mesh, self._pts, self._lock = space.mesh, pts, space._lock
        self._xy = self._wdetj = None

    @property
    def xy(self) -> tuple:
        """The quadrature points' x and y, (nt, nq) each: two read-only views
        of one array.  `sample` hands every callable these same two views, so
        a callable may memoise what it computes from them (cases.py does)."""
        with self._lock:
            if self._xy is None:
                phys = map_to_cells(self._mesh, self._pts)   # (nt, nq, 2)
                phys.flags.writeable = False
                self._xy = (phys[:, :, 0], phys[:, :, 1])
            return self._xy

    @property
    def wdetj(self) -> np.ndarray:
        """Quadrature weights times |J| per point; (nt, nq)."""
        with self._lock:
            if self._wdetj is None:
                self._wdetj = self.w[None, :] * self.detj[:, None]
            return self._wdetj

    def sample(self, g, *t, cells: slice | None = None):
        """g(x, y, *t) at the quadrature points, broadcast to (nt, nq); a
        callable returning a tuple (a vector field) gets each entry broadcast.

        x and y are the two read-only views `xy`, the same objects at every
        call, or with `cells` their rows on that block of elements.  A 1-D
        array of m times gives (m, nt, nq): g sees them as t[:, None, None],
        and a broadcasting g forms each entry by the same operations as a
        scalar-time call."""
        xy = self.xy if cells is None else tuple(a[cells] for a in self.xy)
        t = [np.asarray(s)[:, None, None] if np.ndim(s) == 1 else s for s in t]
        shape = np.broadcast_shapes(xy[0].shape, *map(np.shape, t))
        v = g(*xy, *t)
        if isinstance(v, tuple):
            return tuple(np.broadcast_to(c, shape) for c in v)
        return np.broadcast_to(v, shape)

    def integrate(self, v: np.ndarray) -> float:
        """Integral over the domain of v given at the quadrature points (nt, nq)."""
        return float(np.sum(v * self.wdetj))

    def function_values(self, coeffs: np.ndarray) -> np.ndarray:
        """FE function at all quadrature points; (nt, nq)."""
        local = coeffs[self.gdofs]                       # (nt, nl)
        return local @ self.vals.T

    def _gradient_components(self, local: np.ndarray, jinv: np.ndarray) -> list:
        """The two physical gradient components of element coefficients local
        (nt, nl) with inverse Jacobians jinv, each a C-contiguous (nt, nq)."""
        gref = np.einsum("tl,lqd->dtq", local, self.grads_lqd)
        out = []
        for e in range(2):                               # sum_d gref_d J^{-1}_de
            c = np.multiply(gref[0], jinv[:, 0, e, None], out=np.empty(gref.shape[1:]))
            c += gref[1] * jinv[:, 1, e, None]
            out.append(c)
        return out

    def _blocks(self):
        nt = len(self.detj)
        return [slice(s, s + BLOCK) for s in range(0, nt, BLOCK)]

    def _values(self, stack: np.ndarray, cells: slice) -> np.ndarray:
        """FE fields (m, nb, nq) of coefficient rows (m, n_dof) on a block."""
        return np.einsum("mlt,ql->mtq", stack[:, self.gdofs_lt[:, cells]], self.vals)

    def value_error(self, coeffs: np.ndarray, exact) -> float:
        """Integral of (u_h - exact)^2 for the FE function `coeffs` and
        `exact` given at the quadrature points (nt, nq).  The values are
        those of `assemble_loads` for one row, bit for bit."""
        wdetj = self.wdetj
        e = np.empty(wdetj.shape)
        for b in self._blocks():
            d = np.subtract(self._values(coeffs[None], b)[0], exact[b], out=e[b])
            d *= d
            d *= wdetj[b]
        return float(np.sum(e))

    def gradient_error(self, coeffs: np.ndarray, exact) -> float:
        """Integral of |grad u_h - exact|^2 for the FE function `coeffs` and
        a vector field `exact` = (gx, gy) given at the quadrature points."""
        local, wdetj = coeffs[self.gdofs], self.wdetj
        e = np.empty(wdetj.shape)
        for b in self._blocks():
            ex, ey = self._gradient_components(local[b], self.jinv[b])
            ex -= exact[0][b]
            ex *= ex
            ey -= exact[1][b]
            ey *= ey
            ex += ey
            np.multiply(ex, wdetj[b], out=e[b])
        return float(np.sum(e))

    def assemble_pointwise_load(self, f_qp: np.ndarray) -> np.ndarray:
        """(f, phi_i) for f given by its values at quadrature points (nt, nq)."""
        return self.assemble_loads(lambda cells: f_qp[None, cells])[0]

    def assemble_loads(self, integrand, *stacks: np.ndarray) -> np.ndarray:
        """Loads (m, n_dof) of an integrand formed one block of elements at a
        time.  For each block `cells` (a slice), integrand(cells, *fields)
        gets the FE fields (m, nb, nq) of the coefficient stacks (m, n_dof),
        which it may overwrite, and returns the block's integrand (m, nb, nq).
        Equal bit for bit to the element-major einsum of the whole field."""
        nq, nl = self.vals.shape
        loc = None
        for cells in self._blocks():
            f = integrand(cells, *(self._values(s, cells) for s in stacks))
            m, nb = f.shape[:2]
            if loc is None:
                loc = np.empty((m, len(self.detj), nl))
            fw = np.multiply(f, self.w, order="F").T.reshape(nq, nb * m)
            rows = np.einsum("qk,qi->ik", fw, self.vals).reshape(nl, nb, m).T
            np.multiply(rows, self.detj[None, cells, None], out=loc[:, cells])
        return self._scatter_loads(loc)

    def assemble_gradient_load(self, g_qp: np.ndarray) -> np.ndarray:
        """(g, grad phi_i) for a vector field g at quadrature points; g_qp (nt, nq, 2)."""
        return self._scatter_loads(self._gradient_load_rows(g_qp).T[None])[0]

    def _gradient_load_rows(self, g_qp: np.ndarray) -> np.ndarray:
        """Element rows (nl, nt) of the gradient load, one quadrature point at
        a time: the order of einsum("tqe,q,tqle->tl", g, w, gphys) with
        gphys = einsum("qld,tde->tqle", grads_ref, J^{-1})."""
        gw = g_qp * self.w[None, :, None]
        g, jinv = self.grads_ref, self.jinv
        acc = np.zeros((g.shape[1], len(jinv)))
        for q in range(len(self.w)):
            # grad phi_l at q in physical coordinates, component e: (nl, nt)
            p0 = g[q, :, 0, None] * jinv[:, 0, 0] + g[q, :, 1, None] * jinv[:, 1, 0]
            p1 = g[q, :, 0, None] * jinv[:, 0, 1] + g[q, :, 1, None] * jinv[:, 1, 1]
            acc += gw[:, q, 0] * p0 + gw[:, q, 1] * p1
        return acc * self.detj

    def _scatter_loads(self, loc: np.ndarray) -> np.ndarray:
        """Sum element load rows (m, nt, nl) into global rows (m, n_dof).
        bincount adds in index order, as np.add.at does, so sums are equal."""
        idx = self.gdofs.ravel()
        return np.stack([np.bincount(idx, weights=row.ravel(), minlength=self.n_dof)
                         for row in loc])


# powers of an odd constant: the multipliers of the hash that sorts the geometry
_MIX = np.uint64(0x9E3779B97F4A7C15) ** np.arange(1, 6, dtype=np.uint64)


def assemble_matrices(space: FESpace) -> tuple:
    """Global mass and stiffness matrices from one COO-to-CSR pass over one
    complex array of element matrices, mass in its real part and stiffness in
    its imaginary part; the two compact CSR share indptr and indices.  Each is
    equal bit for bit to its own real pass: scipy's row sort compares column
    indices only, so the order of each sum does not depend on the values, and
    a complex sum adds the two parts apart.  The stiffness kernel runs once per
    geometry class, the elements whose J^{-1} and det J are equal bit for bit,
    put side by side by a sort on a hash of those bits (a collision can only
    split a class); exact, as the kernel is elementwise."""
    ed = space.ed_lin
    bits = np.column_stack([ed.jinv.reshape(-1, 4), ed.detj]).view(np.uint64)
    order = np.argsort((bits ^ (bits >> np.uint64(32))) @ _MIX)
    starts = np.r_[True, np.diff(bits[order], axis=0).any(axis=1)]
    cls = np.empty_like(order)
    cls[order] = np.cumsum(starts) - 1
    first = order[starts]
    gd = space.cell_dofs.astype(np.int32)
    nl = gd.shape[1]
    local = np.empty((len(gd), nl, nl), dtype=complex)
    np.multiply(ed.detj[:, None, None], ed.mass_ref, out=local.real)
    # the kernel's arrays are freed before the scatter allocates
    local.imag = _element_stiffness(ed, ed.jinv[first], ed.detj[first])[cls]
    mat = sp.coo_matrix((local.ravel(), (np.repeat(gd, nl, axis=1).ravel(),
                                         np.tile(gd, (1, nl)).ravel())),
                        shape=(space.n_dof, space.n_dof)).tocsr()
    indices = mat.indices.copy()    # tocsr leaves views of COO-sized buffers
    mass, stiffness = (sp.csr_matrix((part.copy(), indices, mat.indptr), shape=mat.shape)
                       for part in (mat.data.real, mat.data.imag))
    stiffness.indices = mass.indices    # each constructor takes its own view
    return mass, stiffness


def _element_stiffness(ed: ElementData, jinv: np.ndarray, detj: np.ndarray) -> np.ndarray:
    """Element matrices (ne, nl, nl) of J^{-1} (ne, 2, 2) and det J (ne,) on ed's
    tables, with C_e = det J J^{-1} J^{-T}.  Equal bit for bit to
    einsum("q,qid,tdf,qjf->tij", w, grads_ref, C, grads_ref): einsum multiplies
    its operands left to right, so w folded into the first table forms the
    same products, and its three-operand loop is about twice as fast."""
    c = np.einsum("tde,tfe->tdf", jinv, jinv) * detj[:, None, None]
    wgrads = ed.w[:, None, None] * ed.grads_ref
    return np.einsum("qid,tdf,qjf->tij", wgrads, c, ed.grads_ref)


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


def evaluate(space: FESpace, coeffs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Point values (npts,) of a FE function, or (m, npts) of a stack (m, n_dof),
    at points in the closed unit square; a row's bits are those of its own
    call, as the product is formed in C order and so summed in the same order."""
    tri, xi, eta = locate(space.mesh, x, y)
    vals = space.ref.eval_basis(np.column_stack([xi, eta]))  # (npts, nl)
    local = coeffs[..., space.cell_dofs[tri]]                # (..., npts, nl)
    return np.sum(np.multiply(vals, local, order="C"), axis=-1)
