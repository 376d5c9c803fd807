"""Command-line interface: subcommands, exit codes, output locations."""

import csv
import json

import numpy as np
import pytest

import westfem.cli as cli
import westfem.spacefe as spacefe
from westfem.cases import ProblemConfig, run_problem
from westfem.mesh import locate
from westfem.studies import CSV_COLUMNS
from westfem.verify import CheckResult, SuiteResult, VerifyReport


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_json(tmp_path / "run.json",
                      {"case": "smooth", "n": 3, "p": 1, "q": 2, "tau": 0.25,
                       "name": "demo"})


def test_run_writes_csv(run_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", run_config, "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "demo.csv")))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2
    assert float(rows[1][CSV_COLUMNS.index("err_dt")]) > 0
    assert "err_dt" in capsys.readouterr().out


def test_run_row_matches_one_entry_h_study(run_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", run_config, "--out", str(out)]) == 0
    spec = write_json(tmp_path / "s.json",
                      {"kind": "h", "case": "smooth", "sweep": [3],
                       "fixed": {"p": 1, "q": 2, "tau": 0.25}, "name": "one"})
    assert cli.main(["study", spec, "--out", str(out)]) == 0
    drop = CSV_COLUMNS.index("runtime_s")
    strip = lambda path: [r[:drop] + r[drop + 1:] for r in csv.reader(open(path))]
    assert strip(out / "demo.csv") == strip(out / "one.csv")


# all snapshots in one `evaluate` call: the grid is located once, and each
# field equals its own per-time call bit for bit (at p = 5 only if the
# stacked product is summed in C order)
def test_run_snapshots(tmp_path, monkeypatch):
    conf = {"case": "smooth-fast", "n": 3, "p": 5, "q": 2, "tau": 0.25}
    cfg = write_json(tmp_path / "r.json", {**conf, "name": "snap", "snapshot_grid": 11,
                                           "snapshot_times": [0.0, 0.5, 1.0]})
    located = []
    monkeypatch.setattr(spacefe, "locate", lambda *args: located.append(1) or locate(*args))
    assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 0
    assert len(located) == 1
    z = np.load(tmp_path / "snap-snapshots.npz")
    assert z["u"].shape == (3, 11, 11)
    assert np.allclose(z["t"], [0.0, 0.5, 1.0])
    space, _, sol, _ = run_problem(ProblemConfig.from_dict(conf))
    xg, yg = np.meshgrid(z["x"], z["y"], indexing="ij")
    for key, field in (("u", sol.value), ("dtu", sol.dt)):
        per_time = [spacefe.evaluate(space, field(t), xg.ravel(), yg.ravel()).reshape(11, 11)
                    for t in z["t"]]
        assert np.array_equal(z[key], per_time)


def test_env_var_sets_output_dir(run_config, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.ENV_OUT, str(target))
    assert cli.main(["run", run_config]) == 0
    assert (target / "demo.csv").exists()


def test_out_flag_beats_env_var(run_config, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "ignored"))
    explicit = tmp_path / "explicit"
    assert cli.main(["run", run_config, "--out", str(explicit)]) == 0
    assert (explicit / "demo.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_invalid_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["run", str(bad)]) == 1


def test_missing_file_exits_1(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize("command", ["run", "study"])
def test_json_that_is_not_an_object_exits_1(tmp_path, capsys, command):
    path = write_json(tmp_path / "list.json", [{"case": "smooth"}])
    assert cli.main([command, path, "--out", str(tmp_path / "r")]) == 1
    assert f"error: {path} must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("bad", [{"tau": 0.3}, {"tau": 0}, {"n": 4.5}, {"p": 2.0},
                                 {"q": 3.0}, {"s_max": 2}, {"tol": 1e-3}, {"guard": 0.5},
                                 {"case": 5}, {"c": "1"}, {"k": None}, {"k": True},
                                 {"delta": -1e-3}, {"c": 0}, {"tau": 1e-320}],
                         ids=["tau-does-not-divide-T", "tau-zero", "n-not-integer",
                              "p-float", "q-float", "s_max-key", "tol-key", "guard-key",
                              "case-not-a-label", "c-string", "k-null", "k-bool",
                              "delta-negative", "c-zero", "tau-underflows"])
def test_bad_config_exits_1(tmp_path, capsys, bad):
    cfg = write_json(tmp_path / "c.json",
                     {"case": "smooth", "n": 2, "p": 1, "q": 2, "tau": 0.25, **bad})
    assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("snapshot", [{"snapshot_grid": 1},
                                      {"snapshot_grid": "fine"},
                                      {"snapshot_grid": 2.7},
                                      {"snapshot_grid": float("inf")},
                                      {"snapshot_grid": 5, "snapshot_times": ["start", 0.5]},
                                      {"snapshot_grid": 5, "snapshot_times": [-0.1, 0.5]},
                                      {"snapshot_grid": 5, "snapshot_times": [0.5, 2.0]},
                                      {"snapshot_times": [0.5, 1.0]},
                                      {"snapshot_grid": 5, "snapshot_times": []}],
                         ids=["grid-below-2", "grid-not-a-number", "grid-not-whole",
                              "grid-infinite",
                              "times-not-numbers",
                              "time-below-0", "time-above-T",
                              "times-without-grid", "times-empty"])
def test_bad_snapshot_options_exit_1_before_solving(tmp_path, monkeypatch, capsys, snapshot):
    def no_solve(cfg):
        raise AssertionError("solved before validating the snapshot options")

    monkeypatch.setattr(cli, "run_problem", no_solve)
    cfg = write_json(tmp_path / "r.json",
                     {"case": "smooth", "n": 3, "p": 1, "q": 2, "tau": 0.5, **snapshot})
    assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 1
    assert "error: " in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_solver_failure_exits_2(tmp_path):
    cfg = write_json(tmp_path / "d.json",
                     {"case": "smooth", "n": 2, "p": 1, "q": 2, "tau": 0.25,
                      "k": -2e4})
    assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 2


def test_study_subcommand(tmp_path, capsys):
    spec = write_json(tmp_path / "s.json",
                      {"kind": "h", "case": "smooth", "sweep": [2, 4],
                       "fixed": {"p": 1, "q": 2, "tau": 0.25}, "name": "cli-h"})
    out = tmp_path / "res"
    assert cli.main(["study", spec, "--out", str(out), "--plot",
                     "--threads", "2"]) == 0
    assert (out / "cli-h.csv").exists()
    assert (out / "cli-h.json").exists()
    assert (out / "cli-h.svg").exists()
    assert "eoc_dt" in capsys.readouterr().out


def test_study_failure_exits_2(tmp_path):
    spec = write_json(tmp_path / "s.json",
                      {"kind": "h", "case": "smooth", "sweep": [2],
                       "fixed": {"p": 1, "q": 2, "tau": 0.25},
                       "case_overrides": {"k": -2e4}})
    assert cli.main(["study", spec, "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("spec", [
    {"kind": "h", "case": "smooth"},
    {"kind": "h", "case": "smooth", "sweep": [2], "fixed": {"p": 1, "q": 2, "tau": 0}},
    {"kind": "h", "case": "smooth", "sweep": [2],
     "fixed": {"p": 1, "q": 2, "tau": 0.25, "order": 3}},
    {"kind": "h", "case": "smooth", "sweep": [2, 2.5], "fixed": {"p": 1, "q": 2, "tau": 0.25}},
    {"kind": "delta", "case": "smooth", "sweep": [0.0, 1e-2],
     "fixed": {"n": 2, "p": 1, "q": 2, "tau": 0.25}},
    {"kind": "delta", "case": "smooth", "sweep": [-1e-2, 1e-2],
     "fixed": {"n": 2, "p": 1, "q": 2, "tau": 0.25}},
    {"kind": "h", "case": "smooth", "sweep": [2], "fixed": {"p": 2.0, "q": 2, "tau": 0.25}},
    {"kind": "h", "case": "smooth", "sweep": [2],
     "fixed": {"p": 1, "q": 2, "tau": 0.25, "tol": 1e-3}},
    {"kind": "h", "case": "smooth", "sweep": [2], "fixed": {"p": 1, "q": 2, "tau": 0.25},
     "case_overrides": {"A": "x"}},
    {"kind": "h", "case": "smooth", "sweep": [2], "fixed": {"p": 1, "q": 2, "tau": 0.25},
     "case_overrides": {"c": -1.0}},
    {"kind": "h", "case": "smooth", "sweep": [2, 4],
     "fixed": {"n": 16, "p": 1, "q": 2, "tau": 0.25}},
    {"kind": "delta", "case": "smooth", "sweep": [1e-3, 1e-2],
     "fixed": {"n": 2, "p": 1, "q": 2, "tau": 0.25}, "case_overrides": {"delta": 0.3}},
    {"kind": "h", "case": "smooth", "sweep": "24", "fixed": {"p": 1, "q": 2, "tau": 0.25}},
    {"kind": "h", "case": "smooth", "sweep": ["8", "16"],
     "fixed": {"p": 1, "q": 2, "tau": 0.25}},
    {"kind": "h", "case": "smooth", "sweep": [True, 2], "fixed": {"p": 1, "q": 2, "tau": 0.25}},
    {"kind": "tau", "case": "smooth", "sweep": [float("nan")], "fixed": {"n": 2, "p": 1, "q": 2}},
    {"kind": "h", "case": "smooth", "sweep": [float("inf")], "fixed": {"p": 1, "q": 2, "tau": 0.25}},
    {"kind": "h", "case": "smooth", "sweep": [2], "fixed": {"p": 1, "q": 2, "tau": 1e-320}},
], ids=["missing-sweep", "fixed-tau-zero", "fixed-unknown-key", "sweep-not-whole",
        "delta-zero", "delta-negative", "fixed-p-float", "fixed-tol",
        "override-not-a-number", "override-c-negative", "fixed-swept-n",
        "override-swept-delta", "sweep-string", "sweep-strings", "sweep-bool",
        "sweep-nan", "sweep-inf", "fixed-tau-underflows"])
def test_bad_study_spec_exits_1(tmp_path, capsys, spec):
    path = write_json(tmp_path / "s.json", spec)     # json writes NaN and Infinity
    assert cli.main(["study", path, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "error: " in err
    if any(isinstance(v, float) and not np.isfinite(v) for v in spec.get("sweep", [])):
        assert "must be numbers and finite" in err


@pytest.mark.parametrize("command", ["run", "study"])
@pytest.mark.parametrize("name", ["absolute", "sub/run", ".", "..", "", "a\0b"],
                         ids=["absolute", "separator", "dot", "dotdot", "empty", "nul"])
def test_name_outside_out_exits_1_before_solving(tmp_path, monkeypatch, capsys, command, name):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the name")

    monkeypatch.setattr(cli, "run_problem", no_solve)
    monkeypatch.setattr(cli, "run_study", no_solve)
    if name == "absolute":
        name = str(tmp_path / "elsewhere" / "run")
    doc = ({"case": "smooth", "n": 2, "p": 1, "q": 2, "tau": 0.5} if command == "run" else
           {"kind": "h", "case": "smooth", "sweep": [2], "fixed": {"p": 1, "q": 2, "tau": 0.5}})
    path = write_json(tmp_path / "c.json", {**doc, "name": name})
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 1
    assert "plain file name" in capsys.readouterr().err
    assert not (tmp_path / "elsewhere").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_study_threads_below_1_exit_1(tmp_path, monkeypatch, capsys, threads):
    def no_study(*args, **kwargs):
        raise AssertionError("ran the study with a bad thread count")

    monkeypatch.setattr(cli, "run_study", no_study)
    spec = write_json(tmp_path / "s.json",
                      {"kind": "h", "case": "smooth", "sweep": [2],
                       "fixed": {"p": 1, "q": 2, "tau": 0.25}})
    assert cli.main(["study", spec, "--threads", threads, "--out", str(tmp_path)]) == 1
    assert "error: " in capsys.readouterr().err


def test_verify_filtered_exits_0(capsys):
    assert cli.main(["verify", "--filter", "quadrature"]) == 0
    out = capsys.readouterr().out
    assert "quadrature" in out and "PASS" in out


def test_verify_bad_filter_exits_1(capsys):
    assert cli.main(["verify", "--filter", "zzz"]) == 1
    capsys.readouterr()


def test_verify_failure_exits_3(monkeypatch, capsys):
    failing = VerifyReport(suites=[SuiteResult(
        name="stub", checks=[CheckResult("x", False, "bad")], runtime_s=0.0)])
    monkeypatch.setattr(cli, "run_verify", lambda pattern=None: failing)
    assert cli.main(["verify"]) == 3
    assert "FAIL" in capsys.readouterr().out
