"""Fixtures shared across test modules."""

import pytest

from westfem.verify import run_verify


@pytest.fixture(scope="session")
def verify_report():
    """Every verify suite, run once per test session."""
    return run_verify()


@pytest.fixture
def suite_checks(verify_report):
    """Assert that the named checks of one verify suite ran and passed.

    A property whose home is a verify suite keeps its unit-test id this way:
    the id reports the suite's checks for its parameter values."""
    def assert_passed(suite_name, *labels):
        suite = next(s for s in verify_report.suites if s.name == suite_name)
        assert suite.error is None, suite.error
        checks = {c.label: c for c in suite.checks}
        for label in labels:
            assert label in checks, f"{suite_name} has no check {label}"
            assert checks[label].passed, f"{label}: {checks[label].info}"
    return assert_passed
