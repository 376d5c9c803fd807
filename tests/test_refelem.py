"""Reference triangle: basis gradients.  Quadrature exactness and the
nodal, partition-of-unity and gradient-sum properties of the basis are
checked by the `quadrature` and `reference-element` verify suites; the ids
below report their checks."""

import numpy as np
import pytest

from westfem.refelem import reference_element


@pytest.mark.parametrize("degree", [1, 2, 4, 7, 10, 14])
def test_quadrature_monomial_exactness(suite_checks, degree):
    suite_checks("quadrature", f"deg{degree}-monomial-exactness")


@pytest.mark.parametrize("degree", [1, 5, 12])
def test_quadrature_weights(suite_checks, degree):
    suite_checks("quadrature", f"deg{degree}-positive-weights", f"deg{degree}-area")


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_basis_nodal_property(suite_checks, p):
    suite_checks("reference-element", f"p{p}-nodal-delta")


@pytest.mark.parametrize("p", [1, 3, 6])
def test_partition_of_unity(suite_checks, p):
    suite_checks("reference-element", f"p{p}-partition-of-unity", f"p{p}-gradient-sum")


@pytest.mark.parametrize("p", [2, 4])
def test_basis_gradient_matches_difference_quotient(p):
    ref = reference_element(p)
    pts = np.array([[0.21, 0.36], [0.05, 0.55], [0.4, 0.11]])
    h = 1e-6
    gx = (ref.eval_basis(pts + [h, 0]) - ref.eval_basis(pts - [h, 0])) / (2 * h)
    gy = (ref.eval_basis(pts + [0, h]) - ref.eval_basis(pts - [0, h])) / (2 * h)
    grads = ref.eval_basis_grad(pts)
    assert np.max(np.abs(grads[:, :, 0] - gx)) < 1e-7
    assert np.max(np.abs(grads[:, :, 1] - gy)) < 1e-7


@pytest.mark.parametrize("npts", [1, 2, 4, 8])
def test_gauss_interval_exactness(suite_checks, npts):
    suite_checks("quadrature", f"gauss{npts}-exactness")
