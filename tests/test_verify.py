"""Self-verification harness: suites pass, and the harness catches defects."""

import pytest

import westfem.verify as verify
from westfem.timefe import zeta
from westfem.verify import SUITES, run_verify


def test_all_suites_pass(verify_report):
    failed = [s.name for s in verify_report.suites if not s.passed]
    assert verify_report.passed, f"failing suites: {failed}"


def test_suite_inventory(verify_report):
    assert len(verify_report.suites) >= 12
    names = [s.name for s in verify_report.suites]
    assert len(names) == len(set(names))
    for suite in verify_report.suites:
        assert suite.error is None
        assert len(suite.checks) >= 1


def test_report_summary_lines(verify_report):
    assert len(verify_report.suites) == len(SUITES)
    lines = verify_report.summary_lines()
    assert len(lines) == len(SUITES) + 1  # one per suite + summary


def test_filter_selects_single_suite():
    report = run_verify(pattern="quadrature")
    assert [s.name for s in report.suites] == ["quadrature"]
    assert report.passed


def test_filter_glob():
    report = run_verify(pattern="*projection*")
    names = {s.name for s in report.suites}
    assert "ritz-projection" in names and "time-projection" in names


def test_unknown_filter_raises():
    with pytest.raises(ValueError, match="no suite matches"):
        run_verify(pattern="definitely-not-a-suite")


# the harness must fail when the jump-control constant is wrong in either
# direction; this guards the bound and the sharpness check simultaneously
@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_injected_zeta_defect_is_caught(monkeypatch, factor):
    monkeypatch.setattr(verify, "zeta", lambda q: factor * zeta(q))
    report = run_verify(pattern="jump-control-bounds")
    assert not report.passed
