import numpy as np
import pytest

from westfem.mesh import edge_table, mesh_size, unit_square_mesh


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_counts(n):
    mesh = unit_square_mesh(n)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_triangles == 2 * n ** 2
    # cells row by row, lower triangle first
    tris = []
    for iy in range(n):
        for ix in range(n):
            v00 = iy * (n + 1) + ix
            tris += [[v00, v00 + 1, v00 + n + 2], [v00, v00 + n + 2, v00 + n + 1]]
    assert mesh.triangles.tolist() == tris


@pytest.mark.parametrize("n", [2, 4, 7])
def test_positive_orientation_and_total_area(n):
    mesh = unit_square_mesh(n)
    v = mesh.vertices[mesh.triangles]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("n", [1, 3, 6])
def test_boundary_flags(n):
    mesh = unit_square_mesh(n)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    on_bnd = (np.isclose(x, 0) | np.isclose(x, 1)
              | np.isclose(y, 0) | np.isclose(y, 1))
    assert np.array_equal(mesh.boundary_vertex, on_bnd)


def test_mesh_size():
    for n in (1, 2, 5, 10):
        assert abs(mesh_size(unit_square_mesh(n)) - np.sqrt(2.0) / n) < 1e-14


@pytest.mark.parametrize("n", [2, 4])
def test_edge_table(n):
    mesh = unit_square_mesh(n)
    edges, tri_edges = edge_table(mesh)
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
    on_side = 0
    for a, b in edges:
        va, vb = mesh.vertices[a], mesh.vertices[b]
        if any(abs(va[i] - vb[i]) < 1e-14 and va[i] in (0.0, 1.0) for i in (0, 1)):
            on_side += 1
    assert on_side == 4 * n
