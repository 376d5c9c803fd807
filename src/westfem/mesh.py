"""Structured triangulations of the unit square.

An n x n grid of cells, each split along the (+1,+1) diagonal, gives
(n+1)^2 vertices and 2 n^2 congruent right triangles with longest edge
sqrt(2)/n.  Triangles are stored with counterclockwise vertex order.
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

    ix = np.arange((n + 1) ** 2) % (n + 1)
    iy = np.arange((n + 1) ** 2) // (n + 1)
    boundary = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
    return Mesh(vertices=vertices, triangles=tris, boundary_vertex=boundary, n=n)


def mesh_size(mesh: Mesh) -> float:
    """Largest triangle diameter, h_max = sqrt(2)/n for this family."""
    v = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    d01 = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
    d12 = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
    d20 = np.linalg.norm(v[:, 2] - v[:, 0], axis=1)
    return float(np.max(np.column_stack([d01, d12, d20])))


def edge_table(mesh: Mesh):
    """Edges numbered by first appearance over the triangles' local edges
    (a,b), (b,c), (c,a).

    Returns (edges (n_edges, 2) sorted vertex pairs, tri_edges
    (n_triangles, 3) edge index of each local edge).
    """
    local = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.sort(local, axis=1)
    _, first, inverse = np.unique(key[:, 0] * mesh.n_vertices + key[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return key[first[order]], rank[inverse].reshape(-1, 3)
