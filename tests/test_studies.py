"""Study driver: spec validation, sweep execution, CSV/JSON/SVG output."""

import csv
import time
from collections import Counter

import numpy as np
import pytest

import westfem.spacefe as spacefe
from westfem.errors import SolverFailure
from westfem.studies import (CSV_COLUMNS, StudySpec, run_study, write_csv,
                             write_study_outputs)


def h_spec(**kw):
    base = dict(kind="h", case="smooth", sweep=[2, 4],
                fixed={"p": 1, "q": 2, "tau": 0.25})
    base.update(kw)
    return StudySpec(**base)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown study kind"):
            h_spec(kind="r")

    def test_empty_sweep(self):
        with pytest.raises(ValueError, match="sweep list is empty"):
            h_spec(sweep=[])

    def test_non_monotone_sweep(self):
        with pytest.raises(ValueError, match="monotone"):
            h_spec(sweep=[2, 8, 4])

    def test_missing_fixed_parameter(self):
        with pytest.raises(ValueError, match="missing fixed parameters"):
            h_spec(fixed={"p": 1, "q": 2})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown study keys"):
            StudySpec.from_dict({"kind": "h", "case": "smooth", "sweep": [2],
                                 "fixed": {"p": 1, "q": 2, "tau": 0.25},
                                 "threads": 4})

    def test_from_dict_requires_kind_case_sweep(self):
        with pytest.raises(ValueError, match="missing required key"):
            StudySpec.from_dict({"kind": "h", "case": "smooth"})

    def test_bad_fixed_entry_rejected_when_read(self):
        with pytest.raises(ValueError, match="tau"):
            h_spec(fixed={"p": 1, "q": 2, "tau": 0})
        with pytest.raises(TypeError):
            h_spec(fixed={"p": 1, "q": 2, "tau": 0.25, "order": 3})

    def test_default_name(self):
        assert h_spec().name == "h-smooth"
        assert h_spec(name="mine").name == "mine"


class TestConfigExpansion:
    def test_h_kind_sweeps_n(self):
        cfgs = h_spec(sweep=[2, 4, 8]).configs()
        assert [c.n for c in cfgs] == [2, 4, 8]
        assert all(c.tau == 0.25 and c.p == 1 for c in cfgs)

    def test_tau_kind_sweeps_tau(self):
        spec = StudySpec(kind="tau", case="smooth", sweep=[0.5, 0.25],
                         fixed={"n": 2, "p": 1, "q": 2})
        assert [c.tau for c in spec.configs()] == [0.5, 0.25]

    def test_pq_kind_couples_orders(self):
        spec = StudySpec(kind="pq", case="smooth", sweep=[2, 3],
                         fixed={"n": 2, "tau": 0.25})
        assert [(c.p, c.q) for c in spec.configs()] == [(2, 2), (3, 3)]

    def test_delta_kind_overrides_case(self):
        spec = StudySpec(kind="delta", case="standing-wave",
                         sweep=[1e-2, 1e-4],
                         fixed={"n": 2, "p": 1, "q": 2, "tau": 0.25})
        assert [c.case.delta for c in spec.configs()] == [1e-2, 1e-4]


@pytest.fixture(scope="module")
def h_result():
    return run_study(h_spec(sweep=[2, 4, 8]))


def test_h_study_rates(h_result):
    rows = h_result.rows
    assert len(rows) == 3 and not h_result.failures
    assert rows[0]["eoc_dt"] is None  # no previous level
    assert abs(rows[-1]["eoc_dt"] - 2.0) < 0.35   # p + 1
    assert abs(rows[-1]["eoc_grad"] - 1.0) < 0.2  # p


def test_summary_contents(h_result):
    s = h_result.summary
    assert s["kind"] == "h" and s["rows"] == 3
    assert s["n_dofs"] == [9, 25, 81]
    assert len(s["eoc_dt"]) == 2


def test_csv_schema_and_reproducibility(h_result, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(h_result.rows, a)
    rerun = run_study(h_spec(sweep=[2, 4, 8]))
    write_csv(rerun.rows, b)
    rows_a = list(csv.reader(open(a)))
    rows_b = list(csv.reader(open(b)))
    assert rows_a[0] == CSV_COLUMNS
    drop = CSV_COLUMNS.index("runtime_s")
    strip = lambda rows: [r[:drop] + r[drop + 1:] for r in rows]
    assert strip(rows_a) == strip(rows_b)  # byte-identical minus timing


def test_threaded_execution_matches_serial(h_result):
    threaded = run_study(h_spec(sweep=[2, 4, 8]), threads=3)
    for a, b in zip(h_result.rows, threaded.rows):
        assert a["err_dt"] == b["err_dt"]
        assert a["err_grad"] == b["err_grad"]


def test_delta_study_differences_against_inviscid_baseline():
    spec = StudySpec(kind="delta", case="standing-wave",
                     sweep=[1e-2, 1e-3],
                     fixed={"n": 3, "p": 1, "q": 2, "tau": 0.25})
    result = run_study(spec)
    assert not result.failures
    errs = result.summary["err_dt"]
    assert errs[1] < errs[0]
    # near-linear vanishing-viscosity rate even at this desk scale
    assert abs(result.summary["eoc_dt"][0] - 1.0) < 0.25


def test_cfl_study_reports_finiteness():
    spec = StudySpec(kind="cfl", case="smooth", sweep=[2, 4],
                     fixed={"p": 1, "q": 2, "tau": 2.0},
                     case_overrides={"T": 10.0})
    result = run_study(spec)
    assert result.summary["all_finite"] is True


def test_failures_recorded_without_strict():
    spec = StudySpec(kind="h", case="smooth", sweep=[2, 3],
                     fixed={"p": 1, "q": 2, "tau": 0.25},
                     case_overrides={"k": -2e4})
    result = run_study(spec)
    assert len(result.failures) == 2
    assert "Degenerate" in result.failures[0]["error"]
    assert not result.ok


def test_strict_aborts_on_failure():
    spec = StudySpec(kind="h", case="smooth", sweep=[2],
                     fixed={"p": 1, "q": 2, "tau": 0.25},
                     case_overrides={"k": -2e4})
    with pytest.raises(SolverFailure):
        run_study(spec, strict=True)


def test_output_files(h_result, tmp_path):
    paths = write_study_outputs(h_result, tmp_path, plot=True)
    for key in ("csv", "json", "svg"):
        assert key in paths
    svg = open(paths["svg"]).read()
    assert svg.startswith("<svg") and "slope" in svg


def test_summary_times_error_functionals(h_result):
    times = h_result.summary["runtime_err_s"]
    assert len(times) == len(h_result.rows)
    assert all(t > 0 for t in times)


def test_threaded_delta_study_builds_each_operator_once(monkeypatch):
    # the entries share one space; a slow build keeps both pool threads
    # inside the same lazy cache entry, which must still be built only once
    builds = Counter()

    def counted(name, build):
        def wrapper(*args):
            builds[(name,) + args[1:]] += 1
            time.sleep(0.02)
            return build(*args)
        return wrapper

    for name in ("ElementData", "assemble_mass", "assemble_stiffness", "splu"):
        monkeypatch.setattr(spacefe, name, counted(name, getattr(spacefe, name)))
    # standing-wave starts from a Ritz projection, so the cached LU is used too
    spec = StudySpec(kind="delta", case="standing-wave", sweep=[1e-3, 1e-2],
                     fixed={"n": 3, "p": 1, "q": 2, "tau": 0.25})
    result = run_study(spec, threads=2)
    assert not result.failures
    for name in ("assemble_mass", "assemble_stiffness", "splu"):
        assert builds[(name,)] == 1, builds
    assert all(count == 1 for count in builds.values()), builds
