"""Convergence-study driver: parameter sweeps over h, tau, p(=q), delta,
and the large-time-step robustness runs, with CSV/JSON/SVG output.

Rows use a fixed column set so downstream tooling can concatenate files
from different studies.  Numeric cells are written with repr, so identical
study specifications reproduce byte-identical files apart from the runtime
column.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import eoc, err_linf_l2
from .cases import ProblemConfig, get_case, run_problem
from .errors import SolverFailure
from .mesh import unit_square_mesh
from .spacefe import FESpace
from .svgplot import plot_loglog, plot_semilogy

CSV_COLUMNS = ["case", "n", "h", "tau", "p", "q", "delta", "k", "c",
               "err_dt", "err_grad", "eoc_dt", "eoc_grad",
               "iters_mean", "iters_max", "runtime_s"]

KINDS = ("h", "tau", "pq", "delta", "cfl")

_REQUIRED_FIXED = {
    "h": ("p", "q", "tau"),
    "tau": ("n", "p", "q"),
    "pq": ("n", "tau"),
    "delta": ("n", "p", "q", "tau"),
    "cfl": ("p", "q", "tau"),
}

# sweep parameter against which EOC columns are computed, if meaningful
_EOC_PARAM = {"h": "h", "tau": "tau", "delta": "delta"}


@dataclass
class StudySpec:
    """One sweep: which parameter varies, and the fixed remainder."""

    kind: str
    case: str
    sweep: list
    fixed: dict = field(default_factory=dict)
    case_overrides: dict = field(default_factory=dict)
    name: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}; one of {KINDS}")
        if not self.sweep:
            raise ValueError("sweep list is empty")
        s = np.asarray(self.sweep, dtype=float)
        if s.size > 1 and not (np.all(np.diff(s) > 0) or np.all(np.diff(s) < 0)):
            raise ValueError(f"sweep values must be strictly monotone, got {self.sweep}")
        missing = [key for key in _REQUIRED_FIXED[self.kind] if key not in self.fixed]
        if missing:
            raise ValueError(f"{self.kind}-study is missing fixed parameters {missing}")
        if self.name is None:
            self.name = f"{self.kind}-{self.case}"

    @classmethod
    def from_dict(cls, d: dict) -> "StudySpec":
        d = dict(d)
        unknown = set(d) - {"kind", "case", "sweep", "fixed", "case_overrides", "name"}
        if unknown:
            raise ValueError(f"unknown study keys {sorted(unknown)}")
        try:
            return cls(kind=d["kind"], case=d["case"], sweep=list(d["sweep"]),
                       fixed=dict(d.get("fixed", {})),
                       case_overrides=dict(d.get("case_overrides", {})),
                       name=d.get("name"))
        except KeyError as exc:
            raise ValueError(f"study spec is missing required key {exc}") from exc

    def configs(self) -> list:
        """One ProblemConfig per sweep entry."""
        out = []
        for value in self.sweep:
            params = dict(self.fixed)
            overrides = dict(self.case_overrides)
            if self.kind in ("h", "cfl"):
                params["n"] = int(value)
            elif self.kind == "tau":
                params["tau"] = float(value)
            elif self.kind == "pq":
                params["p"] = int(value)
                params["q"] = int(value)
            elif self.kind == "delta":
                overrides["delta"] = float(value)
            case = get_case(self.case, **overrides)
            out.append(ProblemConfig(case=case, **params))
        return out


@dataclass
class StudyResult:
    spec: StudySpec
    rows: list
    failures: list
    n_dofs: list
    summary: dict

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_entry(cfg: ProblemConfig, space=None):
    space, _, sol, rep = run_problem(cfg, space=space)
    return space, sol, rep


def run_study(spec: StudySpec, threads: int = 1, strict: bool = False) -> StudyResult:
    """Execute the sweep; failures are recorded per entry unless strict."""
    configs = spec.configs()
    results: list = [None] * len(configs)

    # delta entries are differenced against a baseline on the identical
    # discretization, so they must share one space object
    shared_space = None
    if spec.kind == "delta":
        shared_space = FESpace(unit_square_mesh(configs[0].n), configs[0].p)

    def work(i):
        try:
            return i, _run_entry(configs[i], shared_space), None
        except SolverFailure as exc:
            if strict:
                raise
            return i, None, f"{type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, res, err in pool.map(work, range(len(configs))):
                results[i] = (res, err)
    else:
        for i in range(len(configs)):
            _, res, err = work(i)
            results[i] = (res, err)

    baseline = None
    if spec.kind == "delta":
        base_case = get_case(spec.case, **{**spec.case_overrides, "delta": 0.0})
        base_cfg = ProblemConfig(case=base_case, **spec.fixed)
        _, baseline, _ = _run_entry(base_cfg, shared_space)

    rows, failures, n_dofs, err_times = [], [], [], []
    errs_dt, errs_g, params = [], [], []
    for i, cfg in enumerate(configs):
        res, err = results[i]
        if err is not None:
            failures.append({"index": i, "config": config_cells(cfg), "error": err})
            continue
        space, sol, rep = res
        ref = baseline if spec.kind == "delta" else cfg.case
        t_err = time.perf_counter()
        if spec.kind != "delta" and cfg.case.u is None:
            e_dt = e_g = None
        else:
            e_dt = err_linf_l2(sol, ref, "dt")
            e_g = err_linf_l2(sol, ref, "grad")
        err_times.append(round(time.perf_counter() - t_err, 6))
        cells = config_cells(cfg)
        cells.update({"err_dt": e_dt, "err_grad": e_g,
                      "iters_mean": round(rep.iters_mean, 3),
                      "iters_max": rep.iters_max,
                      "runtime_s": round(rep.runtime_s, 4)})
        rows.append(cells)
        n_dofs.append(space.n_dof)
        if e_dt is not None:
            errs_dt.append(e_dt)
            errs_g.append(e_g)
            params.append(cells[_EOC_PARAM[spec.kind]] if spec.kind in _EOC_PARAM else None)

    _fill_eoc(spec, rows)
    summary = _summary(spec, rows, failures, n_dofs, errs_dt, errs_g, params, err_times)
    return StudyResult(spec, rows, failures, n_dofs, summary)


def config_cells(cfg: ProblemConfig) -> dict:
    """CSV cells that describe one run configuration."""
    return {"case": cfg.case.name, "n": cfg.n, "h": math.sqrt(2.0) / cfg.n,
            "tau": cfg.tau, "p": cfg.p, "q": cfg.q,
            "delta": cfg.case.delta, "k": cfg.case.k, "c": cfg.case.c}


def _fill_eoc(spec: StudySpec, rows: list):
    key = _EOC_PARAM.get(spec.kind)
    for row in rows:
        row.setdefault("eoc_dt", None)
        row.setdefault("eoc_grad", None)
    if key is None:
        return
    usable = [r for r in rows if r["err_dt"] is not None]
    if len(usable) < 2:
        return
    param = [r[key] for r in usable]
    for col, err_col in (("eoc_dt", "err_dt"), ("eoc_grad", "err_grad")):
        vals = eoc([r[err_col] for r in usable], param)
        for row, v in zip(usable[1:], vals):
            row[col] = round(float(v), 4)


def _summary(spec, rows, failures, n_dofs, errs_dt, errs_g, params, err_times) -> dict:
    out = {"name": spec.name, "kind": spec.kind, "case": spec.case,
           "sweep": list(spec.sweep), "fixed": spec.fixed,
           "case_overrides": spec.case_overrides,
           "n_dofs": n_dofs, "rows": len(rows), "failures": failures,
           "err_dt": errs_dt, "err_grad": errs_g,
           # seconds in err_linf_l2 per row; runtime_s times only the solve
           "runtime_err_s": err_times}
    if spec.kind in _EOC_PARAM and len(errs_dt) >= 2:
        out["eoc_dt"] = [round(float(v), 4) for v in eoc(errs_dt, params)]
        out["eoc_grad"] = [round(float(v), 4) for v in eoc(errs_g, params)]
    if spec.kind == "pq" and len(errs_dt) >= 2:
        # exponential regime: log err ~ a - b N^(1/3)
        x = np.asarray(n_dofs, dtype=float) ** (1.0 / 3.0)
        out["exp_fit_b_dt"] = round(float(-np.polyfit(x, np.log(errs_dt), 1)[0]), 4)
        out["exp_fit_b_grad"] = round(float(-np.polyfit(x, np.log(errs_g), 1)[0]), 4)
    if spec.kind == "cfl":
        out["all_finite"] = bool(rows) and not failures and all(
            np.isfinite(r["err_dt"]) and np.isfinite(r["err_grad"]) for r in rows)
    return out


# -- serialization ---------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(rows: list, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow([_cell(row.get(col)) for col in CSV_COLUMNS])


def write_summary(summary: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def write_plot(result: StudyResult, path: Path):
    spec = result.spec
    rows = [r for r in result.rows if r["err_dt"] is not None]
    if len(rows) < 2:
        return
    if spec.kind == "pq":
        x = [nd ** (1.0 / 3.0) for nd in result.n_dofs]
        series = [("err_dt", x, [r["err_dt"] for r in rows]),
                  ("err_grad", x, [r["err_grad"] for r in rows])]
        plot_semilogy(path, series, xlabel="N_dofs^(1/3)", title=spec.name)
        return
    key = _EOC_PARAM.get(spec.kind, "h")
    x = [r[key] for r in rows]
    series = [("err_dt", x, [r["err_dt"] for r in rows]),
              ("err_grad", x, [r["err_grad"] for r in rows])]
    if spec.kind == "h":
        guides = [rows[0]["p"], rows[0]["p"] + 1]
    elif spec.kind == "tau":
        guides = [rows[0]["q"], rows[0]["q"] + 1]
    elif spec.kind == "delta":
        guides = [1]
    else:
        guides = []
    plot_loglog(path, series, guides=guides, xlabel=key, title=spec.name)


def write_study_outputs(result: StudyResult, out_dir: Path, plot: bool = False) -> dict:
    out_dir = Path(out_dir)
    base = out_dir / result.spec.name
    write_csv(result.rows, base.with_suffix(".csv"))
    write_summary(result.summary, base.with_suffix(".json"))
    paths = {"csv": str(base.with_suffix(".csv")), "json": str(base.with_suffix(".json"))}
    if plot:
        write_plot(result, base.with_suffix(".svg"))
        paths["svg"] = str(base.with_suffix(".svg"))
    return paths
