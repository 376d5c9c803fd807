"""Combined space-time projection used in the error analysis."""

import dataclasses

import numpy as np
import pytest

from westfem.cases import ManufacturedCase, get_case
from westfem.mesh import unit_square_mesh
from westfem.projection import combined_project
from westfem.spacefe import FESpace, interpolate, ritz_project
from westfem.timefe import TimePartition


def _polynomial_case():
    # u = (t^2 + 1) x(1-x) y(1-y); only the fields the projection touches
    def w(x, y):
        return x * (1 - x) * y * (1 - y)

    def grad_w(x, y):
        return ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y))

    return ManufacturedCase(
        name="poly", c=1.0, k=0.0, delta=0.0, T=1.0,
        f=lambda x, y, t: 0.0 * x,
        u=lambda x, y, t: (t * t + 1) * w(x, y),
        dtu=lambda x, y, t: 2 * t * w(x, y),
        grad_u=lambda x, y, t: tuple((t * t + 1) * g for g in grad_w(x, y)),
        grad_dtu=lambda x, y, t: tuple(2 * t * g for g in grad_w(x, y)),
        u0=lambda x, y: w(x, y),
        u0_grad=grad_w,
        u1=lambda x, y: 0.0 * x)


def test_polynomial_case_reproduced_exactly():
    space = FESpace(unit_square_mesh(2), 4)
    part = TimePartition.uniform(1.0, 0.25)
    proj = combined_project(space, part, 3, _polynomial_case())
    w = interpolate(space, lambda x, y: x * (1 - x) * y * (1 - y))
    for t in (0.0, 0.3, 0.75, 1.0):
        side = "left" if t == 1.0 else "right"
        err = proj.value(t, side=side) - (t * t + 1) * w
        assert np.max(np.abs(err)) < 1e-11, t


def test_start_value_is_ritz_projection():
    case = get_case("smooth")
    space = FESpace(unit_square_mesh(3), 2)
    part = TimePartition.uniform(1.0, 0.5)
    proj = combined_project(space, part, 2, case)
    expect = ritz_project(space, lambda x, y: case.grad_u(x, y, 0.0))
    scale = max(np.max(np.abs(expect)), 1e-12)
    assert np.max(np.abs(proj.bp_values[0] - expect)) < 1e-11 * scale


def test_rejects_low_order_and_missing_gradients():
    case = get_case("smooth")
    space = FESpace(unit_square_mesh(2), 1)
    part = TimePartition.uniform(1.0, 0.5)
    with pytest.raises(ValueError):
        combined_project(space, part, 1, case)
    with pytest.raises(ValueError):
        combined_project(space, part, 2, dataclasses.replace(case, grad_dtu=None))


def test_projection_error_decreases_under_joint_refinement():
    from westfem.analysis import err_linf_l2
    case = get_case("smooth")
    errs = []
    for n, tau in ((2, 0.5), (4, 0.25)):
        space = FESpace(unit_square_mesh(n), 2)
        part = TimePartition.uniform(1.0, tau)
        proj = combined_project(space, part, 2, case)
        errs.append(err_linf_l2(proj, case, "grad"))
    assert errs[1] < 0.45 * errs[0]
