"""Study driver: spec validation, sweep execution, CSV/JSON/SVG output."""

import csv
import json
import threading
import time
import warnings
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

import westfem.spacefe as spacefe
import westfem.studies as studies
from westfem.analysis import err_linf_l2
from westfem.cases import run_problem
from westfem import svgplot
from westfem.errors import SolverFailure
from westfem.solver import slab_residuals
from westfem.studies import (CSV_COLUMNS, StudySpec, run_study, write_csv, write_study_outputs,
                             write_summary)


def h_spec(**kw):
    base = dict(kind="h", case="smooth", sweep=[2, 4],
                fixed={"p": 1, "q": 2, "tau": 0.25})
    base.update(kw)
    return StudySpec(**base)


def delta_spec(**kw):
    return StudySpec(kind="delta", case="smooth", sweep=[1e-3, 1e-2],
                     fixed={"n": 3, "p": 1, "q": 2, "tau": 0.25}, **kw)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown study kind"):
            h_spec(kind="r")

    def test_empty_sweep(self):
        with pytest.raises(ValueError, match="sweep list is empty"):
            h_spec(sweep=[])

    @pytest.mark.parametrize("sweep", [["8", "16"], [True, 2], [2, None]])
    def test_non_number_sweep_rejected(self, sweep):
        # int() would run n = 8 and 16 from strings, and n = 1 from True
        with pytest.raises(ValueError, match="must be numbers"):
            h_spec(sweep=sweep)

    @pytest.mark.parametrize("kind,sweep", [("tau", [float("nan")]), ("h", [float("inf")]),
                                            ("delta", [1e-2, float("inf")]),
                                            ("h", [2, float("nan")])],
                             ids=["tau-nan", "h-inf", "delta-inf", "h-nan-second"])
    def test_non_finite_sweep_rejected(self, kind, sweep):
        # tau = nan failed inside TimePartition.uniform, n = inf as not whole
        fixed = {key: v for key, v in {"n": 2, "p": 1, "q": 2, "tau": 0.25}.items()
                 if key != {"h": "n", "tau": "tau"}.get(kind)}
        with pytest.raises(ValueError, match=r"finite, got \[.*(nan|inf)\]"):
            StudySpec(kind=kind, case="smooth", sweep=sweep, fixed=fixed)

    @pytest.mark.parametrize("sweep", ["24", 24, {"2": 4}], ids=["string", "int", "dict"])
    def test_from_dict_rejects_a_sweep_that_is_not_a_list(self, sweep):
        # a string would run n = 2 and 4, one entry per character
        with pytest.raises(ValueError, match="sweep must be a list"):
            StudySpec.from_dict({"kind": "h", "case": "smooth", "sweep": sweep,
                                 "fixed": {"p": 1, "q": 2, "tau": 0.25}})

    def test_non_monotone_sweep(self):
        with pytest.raises(ValueError, match="monotone"):
            h_spec(sweep=[2, 8, 4])

    @pytest.mark.parametrize("kind,fixed", [("h", {"p": 1, "q": 2, "tau": 0.25}),
                                            ("cfl", {"p": 1, "q": 2, "tau": 0.25}),
                                            ("pq", {"n": 2, "tau": 0.25})])
    def test_fractional_sweep_rejected(self, kind, fixed):
        # int() would run n (or p = q) = 2 twice
        with pytest.raises(ValueError, match="whole numbers"):
            StudySpec(kind=kind, case="smooth", sweep=[2, 2.5], fixed=fixed)

    @pytest.mark.parametrize("sweep", [[0.0, 1e-2], [-1e-2, 1e-2]])
    def test_non_positive_delta_rejected(self, sweep):
        # delta = 0 is the baseline itself; delta < 0 is outside the model
        with pytest.raises(ValueError, match="positive"):
            StudySpec(kind="delta", case="smooth", sweep=sweep,
                      fixed={"n": 2, "p": 1, "q": 2, "tau": 0.25})

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
        with pytest.raises(ValueError, match="integers"):
            h_spec(fixed={"p": 2.0, "q": 2, "tau": 0.25})
        # the fixed-point policy is the solver's, not an input
        for key, value in (("s_max", 2), ("tol", 1e-3), ("guard", 0.5)):
            with pytest.raises(TypeError, match=key):
                h_spec(fixed={"p": 1, "q": 2, "tau": 0.25, key: value})

    def test_default_name(self):
        assert h_spec().name == "h-smooth"
        assert h_spec(name="mine").name == "mine"

    @pytest.mark.parametrize("kind,required", [
        ("h", ["p", "q", "tau"]), ("tau", ["n", "p", "q"]), ("pq", ["n", "tau"]),
        ("delta", ["n", "p", "q", "tau"]), ("cfl", ["p", "q", "tau"])])
    def test_required_fixed_keys_follow_from_the_sweep(self, kind, required):
        # written out by hand: the sweep table must derive exactly these
        with pytest.raises(ValueError) as err:
            StudySpec(kind=kind, case="smooth", sweep=[2])
        assert str(err.value) == f"{kind}-study is missing fixed parameters {required}"

    @pytest.mark.parametrize("kind,sweep,fixed,overrides,key", [
        ("h", [2, 4], {"n": 16, "p": 1, "q": 2, "tau": 0.25}, {}, "n"),
        ("pq", [2, 3], {"n": 2, "p": 5, "tau": 0.25}, {}, "p"),
        ("delta", [1e-3, 1e-2], {"n": 2, "p": 1, "q": 2, "tau": 0.25}, {"delta": 0.3},
         "delta")], ids=["h-fixed-n", "pq-fixed-p", "delta-override"])
    def test_key_the_sweep_sets_is_rejected(self, kind, sweep, fixed, overrides, key):
        # the sweep values would overwrite it
        with pytest.raises(ValueError, match=f"sweeps '{key}'"):
            StudySpec(kind=kind, case="smooth", sweep=sweep, fixed=fixed,
                      case_overrides=overrides)


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

    def test_delta_baseline_config(self):
        spec = StudySpec(kind="delta", case="smooth", sweep=[1e-2, 1e-4],
                         fixed={"n": 3, "p": 2, "q": 3, "tau": 0.25},
                         case_overrides={"k": 0.25, "c": 2.0})
        base = spec.config(0.0)
        assert base.case.delta == 0.0
        assert (base.case.k, base.case.c) == (0.25, 2.0)
        assert (base.n, base.p, base.q, base.tau) == (3, 2, 3, 0.25)


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
    assert s["n_dofs"] == [r["n_dof"] for r in h_result.rows]
    assert len(s["eoc_dt"]) == 2
    rows = h_result.rows
    for key in ("err_dt", "err_grad", "runtime_err_s"):
        assert s[key] == [r[key] for r in rows]
    for key in ("eoc_dt", "eoc_grad"):
        assert s[key] == [r[key] for r in rows[1:]]


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


def test_threaded_execution_matches_serial(h_result, delta_result):
    for serial in (h_result, delta_result):
        threaded = run_study(serial.spec, threads=3)
        assert len(threaded.rows) == len(serial.rows)
        for a, b in zip(serial.rows, threaded.rows):
            for col in CSV_COLUMNS:
                if col != "runtime_s":
                    assert a[col] == b[col], (serial.spec.kind, col)


@pytest.mark.parametrize("kind", ["h", "delta"])
def test_entries_scored_on_the_thread_that_can_score_them(monkeypatch, kind):
    # every entry is scored on the pool thread that solved it; a delta entry
    # waits there for the baseline, the pool's first task
    scorers = []

    def recording(*args, **kwargs):
        scorers.append(threading.current_thread())
        return err_linf_l2(*args, **kwargs)

    monkeypatch.setattr(studies, "err_linf_l2", recording)
    spec = h_spec(sweep=[2, 3, 4]) if kind == "h" else delta_spec()
    result = run_study(spec, threads=2)
    assert not result.failures and len(scorers) == 2 * len(result.rows)
    assert not any(t is threading.main_thread() for t in scorers)


def test_delta_baseline_solves_in_the_pool(monkeypatch):
    solvers = []

    def recording(cfg, *args, **kwargs):
        solvers.append((cfg.case.delta, threading.current_thread()))
        return run_problem(cfg, *args, **kwargs)

    monkeypatch.setattr(studies, "run_problem", recording)
    result = run_study(delta_spec(), threads=2)
    assert not result.failures
    assert sorted(d for d, _ in solvers) == [0.0, 1e-3, 1e-2]
    assert not any(t is threading.main_thread() for _, t in solvers)


@pytest.mark.parametrize("threads", [1, 2])
def test_delta_baseline_failure_is_fatal(threads):
    # every entry fails too, so only the baseline's own result can raise
    with pytest.raises(SolverFailure):
        run_study(delta_spec(case_overrides={"k": -2e4}), threads=threads)


@pytest.fixture(scope="module")
def delta_result():
    return run_study(StudySpec(kind="delta", case="standing-wave",
                               sweep=[1e-2, 1e-3],
                               fixed={"n": 3, "p": 1, "q": 2, "tau": 0.25}))


def test_delta_study_differences_against_inviscid_baseline(delta_result):
    assert not delta_result.failures
    errs = delta_result.summary["err_dt"]
    assert errs[1] < errs[0]
    # near-linear vanishing-viscosity rate even at this desk scale
    assert abs(delta_result.summary["eoc_dt"][0] - 1.0) < 0.25


def test_cfl_study_reports_finiteness():
    specs = [StudySpec(kind="cfl", case="smooth", sweep=[2, 4],
                       fixed={"p": 1, "q": 2, "tau": 2.0}, case_overrides={"T": 10.0}),
             # a data-only case has no error cells to test
             StudySpec(kind="cfl", case="gaussian-pulse", sweep=[2, 3],
                       fixed={"p": 1, "q": 2, "tau": 1e-5}, case_overrides={"T": 2e-5})]
    for spec in specs:
        result = run_study(spec)
        assert not result.failures
        assert result.summary["all_finite"] is True, spec.case


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


def _svg_texts(path):
    root = ET.parse(path).getroot()
    return [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


def test_pq_and_delta_plots(delta_result, tmp_path):
    pq = run_study(StudySpec(kind="pq", case="smooth", sweep=[2, 3],
                             fixed={"n": 2, "tau": 0.25}))
    texts = _svg_texts(write_study_outputs(pq, tmp_path, plot=True)["svg"])
    assert "N_dofs^(1/3)" in texts
    assert not any(t.startswith("slope") for t in texts)
    texts = _svg_texts(write_study_outputs(delta_result, tmp_path, plot=True)["svg"])
    assert "delta" in texts and "slope 1" in texts


def test_log_plot_leaves_out_non_positive_points(tmp_path):
    def circles(ys):
        path = tmp_path / "p.svg"
        xs = [0.5, 0.25, 0.125]
        assert svgplot.plot(path, [("err_dt", xs, ys), ("err_grad", xs, [1e-2, 1e-3, 1e-4])],
                            xlog=True, guides=[1])
        return len(ET.parse(path).getroot().findall("{http://www.w3.org/2000/svg}circle"))

    # a zero in the first series, which also places the slope guides
    assert circles([0.0, 1e-2, 1e-3]) == circles([1e-1, 1e-2, 1e-3]) - 1


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("spec", [
    dict(kind="delta", case="smooth", sweep=[1e-2, 1e-300],
         fixed={"n": 2, "p": 1, "q": 2, "tau": 0.5}),
    dict(kind="h", case="smooth", sweep=[2, 3], fixed={"p": 1, "q": 2, "tau": 0.5},
         case_overrides={"A": 0.0}),
    dict(kind="pq", case="smooth", sweep=[2, 3], fixed={"n": 2, "tau": 0.5},
         case_overrides={"A": 0.0}),
], ids=["delta-zero-error", "h-zero-amplitude", "pq-zero-amplitude"])
def test_undefined_rates_are_empty_cells_and_null(spec, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_study(StudySpec(**spec))
    paths = write_study_outputs(result, tmp_path)
    summary = json.loads(open(paths["json"]).read(), parse_constant=_no_constant)
    rates = [summary[k] for k in ("eoc_dt", "eoc_grad", "exp_fit_b_dt", "exp_fit_b_grad")
             if k in summary]
    assert rates and all(r in (None, [None]) for r in rates), summary
    for row in csv.DictReader(open(paths["csv"])):
        assert row["eoc_dt"] == row["eoc_grad"] == ""
    with pytest.raises(ValueError):
        write_summary({"eoc_dt": [float("inf")]}, tmp_path / "nan.json")
    assert not (tmp_path / "nan.json").exists()


def test_data_only_study_leaves_error_cells_empty(tmp_path):
    spec = StudySpec(kind="h", case="gaussian-pulse", sweep=[2, 3],
                     fixed={"p": 1, "q": 2, "tau": 1e-5}, case_overrides={"T": 2e-5})
    result = run_study(spec)
    assert len(result.rows) == 2 and not result.failures
    write_csv(result.rows, tmp_path / "pulse.csv")
    for row in csv.DictReader(open(tmp_path / "pulse.csv")):
        assert [row[c] for c in ("err_dt", "err_grad", "eoc_dt", "eoc_grad")] == [""] * 4
        assert float(row["iters_mean"]) > 0
    s = result.summary
    assert s["err_dt"] == [] and s["err_grad"] == []
    assert "eoc_dt" not in s and "eoc_grad" not in s
    # no error rows, no chart: the outputs list only what was written
    paths = write_study_outputs(result, tmp_path, plot=True)
    assert sorted(paths) == ["csv", "json"]
    assert not (tmp_path / f"{spec.name}.svg").exists()


def test_numpy_scalars_write_plain_cells(tmp_path):
    def csv_text(tau, k):
        spec = h_spec(sweep=[2], fixed={"p": 1, "q": 2, "tau": tau},
                      case_overrides={"k": k})
        rows = run_study(spec).rows
        for row in rows:
            row["runtime_s"] = None
        write_csv(rows, tmp_path / "s.csv")
        return (tmp_path / "s.csv").read_text()

    text = csv_text(np.float64(0.5), np.float64(0.5))
    assert "np." not in text
    assert text == csv_text(0.5, 0.5)


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

    for name in ("ElementData", "assemble_matrices", "splu"):
        monkeypatch.setattr(spacefe, name, counted(name, getattr(spacefe, name)))
    # standing-wave starts from a Ritz projection, so the cached LU is used too
    spec = StudySpec(kind="delta", case="standing-wave", sweep=[1e-3, 1e-2],
                     fixed={"n": 3, "p": 1, "q": 2, "tau": 0.25})
    result = run_study(spec, threads=2)
    assert not result.failures
    for name in ("assemble_matrices", "splu"):
        assert builds[(name,)] == 1, builds
    assert all(count == 1 for count in builds.values()), builds


def test_entries_start_largest_first_and_rows_keep_sweep_order(monkeypatch):
    started = []

    def recording(cfg, *args, **kwargs):
        started.append((cfg.n, cfg.tau, cfg.case.delta))
        return run_problem(cfg, *args, **kwargs)

    monkeypatch.setattr(studies, "run_problem", recording)
    h = run_study(h_spec(sweep=[2, 3, 4]))
    assert [n for n, _, _ in started] == [4, 3, 2]
    assert [r["n"] for r in h.rows] == [2, 3, 4]
    started.clear()
    tau = run_study(StudySpec(kind="tau", case="smooth", sweep=[0.5, 0.25],
                              fixed={"n": 2, "p": 1, "q": 2}))
    assert [t for _, t, _ in started] == [0.25, 0.5]
    assert [r["tau"] for r in tau.rows] == [0.5, 0.25]
    started.clear()
    # equal work keeps the sweep order, after the baseline
    delta = run_study(delta_spec())
    assert [d for _, _, d in started] == [0.0, 1e-3, 1e-2]
    assert [r["delta"] for r in delta.rows] == [1e-3, 1e-2]
    assert h.scores == tau.scores == delta.scores == {}   # no `score`, no scores


def test_numpy_scalar_spec_writes_its_summary(tmp_path):
    spec = StudySpec(kind="h", case="smooth", sweep=list(np.array([2, 3])),
                     fixed={"p": np.int64(1), "q": 2, "tau": np.float64(0.5)},
                     case_overrides={"k": np.float64(0.25)})
    paths = write_study_outputs(run_study(spec), tmp_path)
    summary = json.loads(open(paths["json"]).read())
    assert summary["sweep"] == [2, 3]
    assert summary["fixed"] == {"p": 1, "q": 2, "tau": 0.5}
    assert summary["case_overrides"] == {"k": 0.25}
    assert [type(v) for v in spec.sweep] == [int, int]


def test_unserialisable_summary_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_summary({"rows": 1, "bad": object()}, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


def test_scored_residuals_equal_direct_solves():
    # h, tau and delta entries and the delta baseline, two at a time on two
    # threads; a delta study shares one space, a direct solve builds its own
    def residual(cfg, sol):
        return max(slab_residuals(sol, cfg.case))

    for spec in (StudySpec(kind="h", case="smooth", sweep=[2, 3],
                           fixed={"p": 2, "q": 2, "tau": 0.5}),
                 StudySpec(kind="tau", case="smooth-fast", sweep=[0.5, 0.25],
                           fixed={"n": 2, "p": 3, "q": 3}),
                 StudySpec(kind="delta", case="standing-wave", sweep=[1e-2],
                           fixed={"n": 3, "p": 2, "q": 2, "tau": 0.25})):
        result = run_study(spec, threads=2, score=residual)
        assert result.ok
        values = ([0.0] if spec.kind == "delta" else []) + spec.sweep
        assert list(result.scores) == values
        for value in values:
            cfg = spec.config(value)
            direct = residual(cfg, run_problem(cfg)[2])
            assert repr(result.scores[value]) == repr(direct), (spec.kind, value)


@pytest.mark.parametrize("kind", ["h", "delta"])
def test_scores_leave_out_a_failed_entry(monkeypatch, kind):
    spec = (h_spec(sweep=[2, 3, 4]) if kind == "h"
            else StudySpec(kind="delta", case="smooth", sweep=[1e-4, 1e-3, 1e-2],
                           fixed={"n": 3, "p": 1, "q": 2, "tau": 0.25}))
    bad = spec.sweep[1]
    swept = (lambda cfg: cfg.n) if kind == "h" else (lambda cfg: cfg.case.delta)

    def failing(cfg, *args, **kwargs):
        if swept(cfg) == bad:
            raise SolverFailure("forced")
        return run_problem(cfg, *args, **kwargs)

    monkeypatch.setattr(studies, "run_problem", failing)
    result = run_study(spec, threads=2, score=lambda cfg, sol: swept(cfg))
    assert [f["index"] for f in result.failures] == [1]
    assert result.failures[0]["error"] == "SolverFailure: forced"
    kept = [v for v in spec.sweep if v != bad]
    values = ([0.0] if kind == "delta" else []) + kept
    assert list(result.scores) == values and list(result.scores.values()) == values
    assert [r[{"h": "n", "delta": "delta"}[kind]] for r in result.rows] == kept


def test_delta_scores_start_with_the_baseline_whatever_finishes_first(monkeypatch):
    # three threads: the baseline solve finishes last, and the later sweep
    # entry before the earlier one
    delay = {0.0: 0.4, 1e-3: 0.2, 1e-2: 0.0}
    scored = []

    def slow(cfg, *args, **kwargs):
        out = run_problem(cfg, *args, **kwargs)
        time.sleep(delay[cfg.case.delta])
        return out

    def score(cfg, sol):
        scored.append(cfg.case.delta)
        return cfg.case.delta

    monkeypatch.setattr(studies, "run_problem", slow)
    result = run_study(delta_spec(), threads=3, score=score)
    assert result.ok
    assert scored == [1e-2, 1e-3, 0.0]
    assert list(result.scores) == [0.0, 1e-3, 1e-2]
    assert list(result.scores.values()) == [0.0, 1e-3, 1e-2]
