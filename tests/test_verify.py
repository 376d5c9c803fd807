"""Self-verification harness: every suite passes, each reported under its own
test id, and the harness catches defects."""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import westfem.studies as studies
import westfem.verify as verify
from westfem.cases import run_problem
from westfem.errors import SolverFailure
from westfem.studies import StudySpec
from westfem.timefe import zeta
from westfem.verify import SUITES, run_verify


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_passes(verify_report, name):
    suite = next(s for s in verify_report.suites if s.name == name)
    assert suite.error is None, suite.error
    labels = [c.label for c in suite.checks]
    assert labels, "no checks"
    # a merged parameter loop must not hide a check behind a repeated label
    assert len(labels) == len(set(labels)), sorted({x for x in labels if labels.count(x) > 1})
    failed = [f"{c.label}: {c.info}" for c in suite.checks if not c.passed]
    assert not failed, "\n".join(failed)


def test_suite_inventory(verify_report):
    # SUITES is every suite_* function, in definition order, under its hyphenated name
    defined = sorted((fn for name, fn in vars(verify).items() if name.startswith("suite_")),
                     key=lambda fn: fn.__code__.co_firstlineno)
    assert list(SUITES.items()) == [(fn.__name__[6:].replace("_", "-"), fn) for fn in defined]
    assert len(SUITES) >= 12
    assert [s.name for s in verify_report.suites] == list(SUITES)


def test_report_summary_lines(verify_report):
    lines = verify_report.summary_lines()
    assert len(lines) == len(SUITES) + 1  # one per suite + summary


@pytest.fixture
def stub_suites(monkeypatch):
    """Replace the suites by stubs that record which of them ran."""
    ran = []
    stubs = {name: lambda ck, name=name: ran.append(name)
             for name in ("quadrature", "ritz-projection", "time-projection", "determinism")}
    monkeypatch.setattr(verify, "SUITES", stubs)
    return ran


def test_filter_selects_single_suite(stub_suites):
    report = run_verify(pattern="quadrature")
    assert [s.name for s in report.suites] == stub_suites == ["quadrature"]


def test_filter_glob(stub_suites):
    report = run_verify(pattern="*projection*")
    assert [s.name for s in report.suites] == stub_suites == ["ritz-projection",
                                                              "time-projection"]


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


# a criteria entry that does not solve has no residual: the suite fails
def test_unsolved_criteria_entry_fails_galerkin_residual(monkeypatch):
    def failing(cfg, *args, **kwargs):
        if cfg.n == 3:
            raise SolverFailure("forced")
        return run_problem(cfg, *args, **kwargs)

    small = StudySpec(kind="h", case="smooth", sweep=[2, 3], fixed={"p": 1, "q": 2, "tau": 0.5})
    monkeypatch.setattr(verify, "CRITERIA", {"h": [small], "tau": [], "delta": []})
    monkeypatch.setattr(studies, "run_problem", failing)
    verify.criteria_studies.cache_clear()
    try:
        suite = run_verify(pattern="galerkin-residual").suites[0]
    finally:
        verify.criteria_studies.cache_clear()   # the next reader solves CRITERIA
    assert not suite.passed
    assert suite.error == "SolverFailure: forced"


# threads that race for one criteria kind get the one object of one build,
# and cache_clear empties the memo
def test_criteria_studies_build_once_across_threads(monkeypatch):
    builds = []
    spec = StudySpec(kind="h", case="smooth", sweep=[2], fixed={"p": 1, "q": 2, "tau": 0.5})
    monkeypatch.setattr(verify, "CRITERIA", {"h": [spec]})
    monkeypatch.setattr(verify, "run_study",
                        lambda spec, **kwargs: builds.append(spec) or time.sleep(0.2) or object())
    verify.criteria_studies.cache_clear()
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(verify.criteria_studies, "hhhh"))
        assert len(builds) == 1 and all(g is got[0] for g in got)
        verify.criteria_studies.cache_clear()
        assert verify.criteria_studies("h") is not got[0] and len(builds) == 2
    finally:
        verify.criteria_studies.cache_clear()   # the next reader solves CRITERIA
