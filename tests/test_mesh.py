"""Unit-square mesh: triangle order, edges and point location.  Counts,
orientation, total area, boundary flags and mesh size are checked by the
`mesh-integrity` verify suite; the ids below report its checks."""

import dataclasses

import numpy as np
import pytest

from westfem.mesh import edge_table, locate, map_to_cells, unit_square_mesh


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_counts(n):
    # cells row by row, lower triangle first
    mesh = unit_square_mesh(n)
    tris = []
    for iy in range(n):
        for ix in range(n):
            v00 = iy * (n + 1) + ix
            tris += [[v00, v00 + 1, v00 + n + 2], [v00, v00 + n + 2, v00 + n + 1]]
    assert mesh.triangles.tolist() == tris


@pytest.mark.parametrize("n", [2, 4, 7])
def test_positive_orientation_and_total_area(suite_checks, n):
    suite_checks("mesh-integrity", f"n{n}-orientation", f"n{n}-total-area")


@pytest.mark.parametrize("n", [1, 3, 6])
def test_boundary_flags(suite_checks, n):
    suite_checks("mesh-integrity", f"n{n}-boundary-flags")


def test_mesh_size(suite_checks):
    suite_checks("mesh-integrity", *(f"n{n}-mesh-size" for n in (1, 2, 5, 10)))


@pytest.mark.parametrize("n", [2, 4])
def test_edge_table(n):
    mesh = unit_square_mesh(n)
    edges, tri_edges, on_boundary = edge_table(mesh)
    # structured criss-cross grid: 2n(n+1) axis-parallel edges + n^2 diagonals
    assert len(edges) == 3 * n ** 2 + 2 * n
    assert np.array_equal(np.unique(tri_edges), np.arange(len(edges)))
    # numbering by first appearance, as a dict filled triangle by triangle
    table = {}
    for a, b, c in mesh.triangles.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            table.setdefault((min(u, v), max(u, v)), len(table))
    assert edges.tolist() == [list(key) for key in table]
    assert tri_edges.tolist() == [[table[(min(u, v), max(u, v))]
                                   for u, v in ((a, b), (b, c), (c, a))]
                                  for a, b, c in mesh.triangles.tolist()]
    on_side = []
    for a, b in edges:
        va, vb = mesh.vertices[a], mesh.vertices[b]
        on_side.append(any(abs(va[i] - vb[i]) < 1e-14 and va[i] in (0.0, 1.0)
                           for i in (0, 1)))
    assert on_boundary.tolist() == on_side
    assert on_boundary.sum() == 4 * n


def _probe_points(n):
    # random points, then the vertices, edge midpoints and points on the
    # cells' diagonals
    mesh = unit_square_mesh(n)
    edges = edge_table(mesh)[0]
    s = np.random.default_rng(n).random(40)
    return np.concatenate([np.random.default_rng(n + 1).random((200, 2)), mesh.vertices,
                           mesh.vertices[edges].mean(axis=1),
                           np.column_stack([s, s]), np.column_stack([s, 1.0 - s])])


@pytest.mark.parametrize("n", [1, 3, 8])
def test_locate_maps_back_to_the_point(n):
    mesh = unit_square_mesh(n)
    pts = _probe_points(n)
    tri, xi, eta = locate(mesh, pts[:, 0], pts[:, 1])
    assert np.all((0 <= tri) & (tri < mesh.n_triangles))
    assert np.all(xi >= 0) and np.all(eta >= 0) and np.all(xi + eta <= 1 + 1e-15)
    back = map_to_cells(mesh, np.column_stack([xi, eta]))[tri, np.arange(len(pts))]
    assert np.max(np.abs(back - pts)) <= 1e-15


def test_map_to_cells_takes_nodes_to_vertices():
    mesh = unit_square_mesh(3)
    corners = map_to_cells(mesh, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(corners, mesh.vertices[mesh.triangles])


@pytest.mark.parametrize("x, y", [(1.5, 0.5), (0.5, -1e-12), (np.nan, 0.5)])
def test_locate_rejects_points_outside(x, y):
    with pytest.raises(ValueError, match=r"1 point\(s\) outside \[0, 1\]\^2"):
        locate(unit_square_mesh(2), [0.5, x], [0.5, y])


@pytest.mark.parametrize("n", [1, 3, 8])
def test_locate_needs_the_unit_square_layout(n):
    # locate finds cells arithmetically, so any other mesh would get values
    # for the wrong points: moved vertices, reordered or rotated triangles
    mesh = unit_square_mesh(n)
    inner = ~mesh.boundary_vertex
    moved = mesh.vertices.copy()
    moved[inner] += np.random.default_rng(0).uniform(-0.2, 0.2, (inner.sum(), 2)) / n
    others = [dataclasses.replace(mesh, triangles=mesh.triangles[::-1].copy()),
              dataclasses.replace(mesh, triangles=mesh.triangles[:, [1, 2, 0]])]
    if inner.any():
        others.append(dataclasses.replace(mesh, vertices=moved))
    for other in others:
        with pytest.raises(ValueError, match=rf"unit_square_mesh\({n}\)"):
            locate(other, [0.5], [0.5])
    # an equal mesh held in other arrays is located as before
    twin = dataclasses.replace(mesh, vertices=mesh.vertices.copy(),
                               triangles=mesh.triangles.copy())
    pts = _probe_points(n)
    for a, b in zip(locate(twin, pts[:, 0], pts[:, 1]), locate(mesh, pts[:, 0], pts[:, 1])):
        assert np.array_equal(a, b)

