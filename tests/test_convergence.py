"""Convergence control at the theoretical spatial rates.

The time derivative of the error converges as h^{p+1}, the spatial gradient
as h^p, once the temporal order is high enough not to mask them.  The
temporal control (tau^q and tau^{q+1}) shares criterion 2's study in
`test_acceptance.py::test_tau_rates`.
"""

import pytest

from westfem.studies import StudySpec, run_study


@pytest.mark.parametrize("p", [1, 2])
def test_h_rates_with_adequate_temporal_order(p):
    # q = p + 3 keeps the temporal error below the spatial one on all levels
    spec = StudySpec(kind="h", case="smooth", sweep=[8, 16, 32],
                     fixed={"p": p, "q": p + 3, "tau": 0.2})
    result = run_study(spec)
    assert not result.failures
    last = result.rows[-1]
    assert abs(last["eoc_dt"] - (p + 1)) <= 0.3, last
    assert abs(last["eoc_grad"] - p) <= 0.3, last
