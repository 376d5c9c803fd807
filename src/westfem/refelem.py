"""Reference triangle: quadrature, node sets, and the nodal basis.

Reference element is T = {(xi, eta): xi, eta >= 0, xi + eta <= 1} with
vertices v0=(0,0), v1=(1,0), v2=(0,1).

Nodes are the warped symmetric (Gauss-Lobatto-blended) sets, so the nodal
basis stays well conditioned up to degree 9.  Basis evaluation goes through
an orthonormal Dubiner (PKD) modal basis and the node Vandermonde matrix.
"""

from __future__ import annotations

import threading
from functools import lru_cache, wraps

import numpy as np
from scipy.special import eval_jacobi, gammaln

# blending exponents tuned per degree (standard warp-and-blend table)
_ALPHA_OPT = (0.0, 0.0, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999, 1.2832,
              1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258)


def cached_once(build):
    """functools.cache that builds each key once per process: a thread that
    misses waits for a racing build, so every caller gets the same object."""
    cached, lock = lru_cache(maxsize=None)(build), threading.Lock()

    @wraps(build)
    def get(*args):
        with lock:
            return cached(*args)
    return get


def gauss_interval(npts: int):
    """npts-point Gauss-Legendre rule on [0,1]."""
    if npts < 1:
        raise ValueError(f"need npts >= 1, got {npts}")
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


@cached_once
def triangle_quadrature(degree: int):
    """Collapsed tensor Gauss rule on T, exact for polynomials of total
    degree <= `degree`.  Returns (points (nq,2), weights (nq,)); weights
    sum to 1/2.
    """
    if degree < 0:
        raise ValueError(f"quadrature degree must be >= 0, got {degree}")
    # Duffy map (xi, t) -> (xi, t*(1-xi)); Jacobian (1-xi) raises the
    # xi-degree by one, hence the +2.
    n = (degree + 2 + 1) // 2
    g, wg = gauss_interval(n)
    xi = np.repeat(g, n)
    pts = np.column_stack([xi, np.tile(g, n) * (1.0 - xi)])
    wts = np.repeat(wg, n) * np.tile(wg, n) * (1.0 - xi)
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def _lobatto_nodes(p: int) -> np.ndarray:
    """p+1 Gauss-Lobatto points on [-1,1]."""
    if p == 1:
        return np.array([-1.0, 1.0])
    coeffs = np.zeros(p + 1)
    coeffs[p] = 1.0
    interior = np.polynomial.legendre.legroots(np.polynomial.legendre.legder(coeffs))
    return np.concatenate([[-1.0], np.sort(interior), [1.0]])


def _warp_factor(p: int, rout: np.ndarray) -> np.ndarray:
    """1-D warp moving equispaced nodes toward Gauss-Lobatto ones."""
    lgl = _lobatto_nodes(p)
    req = np.linspace(-1.0, 1.0, p + 1)
    # Lagrange basis on equispaced nodes, evaluated at rout, via Legendre
    veq = np.polynomial.legendre.legvander(req, p)
    pmat = np.polynomial.legendre.legvander(rout, p).T
    lmat = np.linalg.solve(veq.T, pmat)
    warp = lmat.T @ (lgl - req)
    zerof = (np.abs(rout) < 1.0 - 1e-10).astype(float)
    sf = 1.0 - (zerof * rout) ** 2
    return warp / sf + warp * (zerof - 1.0)


def _warp_blend(p: int, b1: np.ndarray, b2: np.ndarray):
    """Map lattice barycentrics (w.r.t. v1, v2) to warped (xi, eta)."""
    b0 = 1.0 - b1 - b2
    # equilateral-coordinate convention: L1 <-> v2, L2 <-> v0, L3 <-> v1
    l1, l2, l3 = b2, b0, b1
    alpha = _ALPHA_OPT[p - 1] if p <= len(_ALPHA_OPT) else 5.0 / 3.0

    x = -l2 + l3
    y = (-l2 - l3 + 2.0 * l1) / np.sqrt(3.0)
    blend1 = 4.0 * l2 * l3
    blend2 = 4.0 * l1 * l3
    blend3 = 4.0 * l1 * l2
    warp1 = blend1 * _warp_factor(p, l3 - l2) * (1.0 + (alpha * l1) ** 2)
    warp2 = blend2 * _warp_factor(p, l1 - l3) * (1.0 + (alpha * l2) ** 2)
    warp3 = blend3 * _warp_factor(p, l2 - l1) * (1.0 + (alpha * l3) ** 2)
    x = x + warp1 + np.cos(2.0 * np.pi / 3.0) * (warp2 + warp3)
    y = y + np.sin(2.0 * np.pi / 3.0) * (warp2 - warp3)

    l1w = (np.sqrt(3.0) * y + 1.0) / 3.0
    l3w = (3.0 * x - np.sqrt(3.0) * y + 2.0) / 6.0
    return l3w, l1w  # (xi, eta)


def _lattice(p: int):
    """Barycentric lattice multiples (i,j) with the dof grouping order:
    3 vertices, then p-1 nodes per edge (edge 0: v0->v1, edge 1: v1->v2,
    edge 2: v2->v0), then interior nodes.
    """
    ij = [(0, 0), (p, 0), (0, p)]
    for k in range(1, p):
        ij.append((k, 0))
    for k in range(1, p):
        ij.append((p - k, k))
    for k in range(1, p):
        ij.append((0, p - k))
    for i in range(1, p):
        for j in range(1, p - i):
            ij.append((i, j))
    return np.array(ij, dtype=np.int64)


def _pkd_index(p: int):
    return [(m, n) for m in range(p + 1) for n in range(p + 1 - m)]


def _jacobi_norm(n: int, a: int, b: int) -> float:
    """L2 norm^2 of P_n^(a,b) under weight (1-x)^a (1+x)^b on [-1,1]."""
    ln = ((a + b + 1.0) * np.log(2.0)
          + gammaln(n + a + 1.0) + gammaln(n + b + 1.0)
          - np.log(2.0 * n + a + b + 1.0) - gammaln(n + a + b + 1.0)
          - gammaln(n + 1.0))
    return float(np.exp(ln))


def _njac(n, a, b, x):
    """Orthonormal Jacobi polynomial value."""
    return eval_jacobi(n, a, b, x) / np.sqrt(_jacobi_norm(n, a, b))


def _dnjac(n, a, b, x):
    """Derivative of the orthonormal Jacobi polynomial."""
    if n == 0:
        return np.zeros_like(x)
    return (0.5 * (n + a + b + 1.0) * eval_jacobi(n - 1, a + 1, b + 1, x)
            / np.sqrt(_jacobi_norm(n, a, b)))


def _pkd_eval(p: int, pts: np.ndarray):
    """Values and (xi,eta)-gradients of the orthonormal PKD modes.

    Returns (vals (npts, nb), grads (npts, nb, 2)).
    """
    r = 2.0 * pts[:, 0] - 1.0
    s = 2.0 * pts[:, 1] - 1.0
    near_apex = np.abs(1.0 - s) < 1e-13
    b = s
    omb = np.where(near_apex, 1.0, 1.0 - b)
    a = np.where(near_apex, -1.0, 2.0 * (1.0 + r) / omb - 1.0)

    idx = _pkd_index(p)
    nb = len(idx)
    vals = np.empty((pts.shape[0], nb))
    grads = np.empty((pts.shape[0], nb, 2))
    sq2 = np.sqrt(2.0)
    for k, (m, n) in enumerate(idx):
        fa = _njac(m, 0, 0, a)
        dfa = _dnjac(m, 0, 0, a)
        gb = _njac(n, 2 * m + 1, 0, b)
        dgb = _dnjac(n, 2 * m + 1, 0, b)
        if m == 0:
            vals[:, k] = sq2 * fa * gb
            dr = np.zeros_like(a)
            ds = sq2 * fa * dgb
        else:
            pw1 = (1.0 - b) ** (m - 1)
            pw = pw1 * (1.0 - b)
            vals[:, k] = sq2 * fa * gb * pw
            dr = 2.0 * sq2 * dfa * gb * pw1
            ds = sq2 * (dfa * (1.0 + a) * gb * pw1
                        + fa * dgb * pw - m * fa * gb * pw1)
        # chain rule for (r,s) = (2 xi - 1, 2 eta - 1)
        grads[:, k, 0] = 2.0 * dr
        grads[:, k, 1] = 2.0 * ds
    return vals, grads


class ReferenceElement:
    """Degree-p nodal Lagrange element on the reference triangle."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {p}")
        self.p = p
        self.n_nodes = (p + 1) * (p + 2) // 2
        lat = _lattice(p)
        if p == 1:
            xi, eta = lat[:, 0] / p, lat[:, 1] / p
        else:
            xi, eta = _warp_blend(p, lat[:, 0] / p, lat[:, 1] / p)
        self.nodes = np.column_stack([xi, eta])
        # dof grouping: [0:3] vertices, then (p-1) per edge, rest interior
        self.n_interior = self.n_nodes - 3 - 3 * (p - 1)

        vv, _ = _pkd_eval(p, self.nodes)
        self._vand_lu = np.linalg.inv(vv)  # small matrix, explicit inverse is fine
        self.cond_vandermonde = np.linalg.cond(vv)

    def eval_basis(self, pts: np.ndarray) -> np.ndarray:
        """phi_i at pts; shape (npts, n_nodes)."""
        vv, _ = _pkd_eval(self.p, np.atleast_2d(pts))
        return vv @ self._vand_lu

    def eval_basis_grad(self, pts: np.ndarray) -> np.ndarray:
        """(xi,eta)-gradients of phi_i at pts; shape (npts, n_nodes, 2)."""
        _, gg = _pkd_eval(self.p, np.atleast_2d(pts))
        return np.einsum("pjd,ji->pid", gg, self._vand_lu)


@cached_once
def reference_element(p: int) -> ReferenceElement:
    return ReferenceElement(p)
