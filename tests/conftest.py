"""Fixtures shared across test modules."""

import pytest

from westfem.verify import run_verify


@pytest.fixture(scope="session")
def verify_report():
    """Every verify suite, run once per test session."""
    return run_verify()
