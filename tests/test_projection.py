"""Combined space-time projection used in the error analysis; its exact
reproduction of a polynomial and its decrease under joint refinement are
checked by the `projection-rates` suite."""

import dataclasses

import numpy as np
import pytest

from westfem.cases import get_case
from westfem.mesh import unit_square_mesh
from westfem.projection import combined_project
from westfem.spacefe import FESpace, ritz_project
from westfem.timefe import TimePartition


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


def test_projection_error_decreases_under_joint_refinement(suite_checks):
    suite_checks("projection-rates", "q2-joint-refinement")
