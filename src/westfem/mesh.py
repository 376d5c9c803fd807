"""Structured triangulations of the unit square.

An n x n grid of cells, each split along the (+1,+1) diagonal, gives
(n+1)^2 vertices and 2 n^2 congruent right triangles with longest edge
sqrt(2)/n.  Triangles are stored with counterclockwise vertex order.
This module alone knows that layout: the vertex numbering, the triangle
order, the boundary edges, point location and the affine element map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray        # (n_vertices, 2) float
    triangles: np.ndarray       # (n_triangles, 3) int, CCW
    boundary_vertex: np.ndarray  # (n_vertices,) bool
    n: int                      # cells per side

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def unit_square_mesh(n: int) -> Mesh:
    """Structured mesh of (0,1)^2 with n cells per side."""
    if n < 1:
        raise ValueError(f"need at least one cell per side, got n={n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # cells row by row; each gives (v00, v10, v11) below the diagonal and
    # (v00, v11, v01) above it
    iy, ix = np.divmod(np.arange(n * n), n)
    v00 = iy * (n + 1) + ix
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    iy, ix = np.divmod(np.arange((n + 1) ** 2), n + 1)
    boundary = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
    return Mesh(vertices=vertices, triangles=tris, boundary_vertex=boundary, n=n)


def mesh_size(mesh: Mesh) -> float:
    """Largest triangle diameter, h_max = sqrt(2)/n for this family."""
    v = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    return float(np.linalg.norm(v - np.roll(v, 1, axis=1), axis=2).max())


def edge_table(mesh: Mesh):
    """Edges numbered by first appearance over the triangles' local edges
    (a,b), (b,c), (c,a).

    Returns (edges (n_edges, 2) sorted vertex pairs, tri_edges
    (n_triangles, 3) edge index of each local edge, on_boundary (n_edges,)
    bool: the edges of a single triangle).
    """
    local = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.sort(local, axis=1)
    _, first, inverse, count = np.unique(key[:, 0] * mesh.n_vertices + key[:, 1],
                                         return_index=True, return_inverse=True,
                                         return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return key[first[order]], rank[inverse].reshape(-1, 3), count[order] == 1


def affine_maps(mesh: Mesh) -> tuple:
    """The affine map x = a + J (xi, eta) of every triangle (a, b, c): origins
    a (n_triangles, 2) and Jacobians J = [b - a, c - a] (n_triangles, 2, 2),
    by columns."""
    va, vb, vc = mesh.vertices[mesh.triangles].transpose(1, 0, 2)
    return va, np.stack([vb - va, vc - va], axis=2)


def map_to_cells(mesh: Mesh, pts: np.ndarray) -> np.ndarray:
    """Reference points (npts, 2) mapped into every triangle by its affine
    map; returns (n_triangles, npts, 2)."""
    a, jac = affine_maps(mesh)
    return (a[:, None, :]
            + pts[None, :, 0, None] * jac[:, None, :, 0]
            + pts[None, :, 1, None] * jac[:, None, :, 1])


def locate(mesh: Mesh, x, y):
    """Triangle and reference coordinates of points of the closed unit
    square; returns (tri, xi, eta), each of shape (npts,).  Only for a mesh
    laid out as unit_square_mesh(mesh.n), whose cells it finds arithmetically."""
    ref = unit_square_mesh(mesh.n)
    if not all(np.array_equal(getattr(mesh, a), getattr(ref, a)) for a in ("vertices", "triangles")):
        raise ValueError(f"cannot locate points on a mesh other than unit_square_mesh({mesh.n})")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    outside = ~((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0))   # NaN included
    if np.any(outside):
        i = int(np.flatnonzero(outside)[0])
        raise ValueError(f"{int(outside.sum())} point(s) outside [0, 1]^2, "
                         f"first ({float(x[i])}, {float(y[i])})")
    # the cell, then its lower (v00, v10, v11) or upper (v00, v11, v01) half
    n = mesh.n
    cx = np.clip(np.floor(x * n).astype(int), 0, n - 1)
    cy = np.clip(np.floor(y * n).astype(int), 0, n - 1)
    fx = x * n - cx
    fy = y * n - cy
    lower = fy <= fx
    tri = 2 * (cy * n + cx) + np.where(lower, 0, 1)
    xi = np.where(lower, fx - fy, fx)
    eta = np.where(lower, fy, fy - fx)
    return tri, xi, eta
