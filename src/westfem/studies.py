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
import numbers
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svgplot
from .analysis import eoc, err_linf_l2
from .cases import ProblemConfig, get_case, run_problem
from .errors import SolverFailure
from .mesh import unit_square_mesh
from .solution import DiscreteSolution
from .spacefe import FESpace

CSV_COLUMNS = ["case", "n", "h", "tau", "p", "q", "delta", "k", "c",
               "err_dt", "err_grad", "eoc_dt", "eoc_grad",
               "iters_mean", "iters_max", "runtime_s"]

# kind -> (the keys one sweep value sets, the column its EOCs are taken
# against or None); every other rule about a kind follows from this table
SWEEPS = {
    "h": (("n",), "h"),
    "tau": (("tau",), "tau"),
    "pq": (("p", "q"), None),
    "delta": (("delta",), "delta"),
    "cfl": (("n",), None),
}
KINDS = tuple(SWEEPS)


def _plain(v):
    return v.item() if isinstance(v, np.generic) else v


def check_name(name):
    """Reject an output name that would leave the output directory or that
    no file can have: one that is not a string, is empty, `.` or `..`, or
    holds a path separator (an absolute path does) or a NUL character."""
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(sep in name for sep in (os.sep, os.altsep, "\0") if sep)):
        raise ValueError(f"name must be a plain file name, got {name!r}")
    return name


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
        # plain Python scalars, so the summary serialises whatever the caller passed
        self.sweep = [_plain(v) for v in self.sweep]
        self.fixed = {key: _plain(v) for key, v in self.fixed.items()}
        self.case_overrides = {key: _plain(v) for key, v in self.case_overrides.items()}
        if self.kind not in KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}; one of {KINDS}")
        if not self.sweep:
            raise ValueError("sweep list is empty")
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in self.sweep):
            raise ValueError(f"sweep values must be numbers, got {self.sweep}")
        s = np.asarray(self.sweep, dtype=float)
        if s.size > 1 and not (np.all(np.diff(s) > 0) or np.all(np.diff(s) < 0)):
            raise ValueError(f"sweep values must be strictly monotone, got {self.sweep}")
        sets, _ = SWEEPS[self.kind]
        if {"n", "p", "q"} & set(sets) and not np.all(np.mod(s, 1.0) == 0.0):
            raise ValueError(f"{self.kind}-study sweep values must be whole numbers, "
                             f"got {self.sweep}")
        if "delta" in sets and not np.all(s > 0):
            raise ValueError(f"delta-study sweep values must be positive, got {self.sweep}")
        for key in sets:
            if key in self.fixed or key in self.case_overrides:
                raise ValueError(f"{self.kind}-study sweeps {key!r}, so it cannot be "
                                 f"fixed or overridden")
        missing = [key for key in ("n", "p", "q", "tau")
                   if key not in sets and key not in self.fixed]
        if missing:
            raise ValueError(f"{self.kind}-study is missing fixed parameters {missing}")
        if self.name is None:
            self.name = f"{self.kind}-{self.case}"
        check_name(self.name)
        self.configs()   # reject a bad fixed entry or override when the spec is read

    @classmethod
    def from_dict(cls, d: dict) -> "StudySpec":
        d = dict(d)
        unknown = set(d) - {"kind", "case", "sweep", "fixed", "case_overrides", "name"}
        if unknown:
            raise ValueError(f"unknown study keys {sorted(unknown)}")
        if not isinstance(d.get("sweep", []), (list, tuple)):
            raise ValueError(f"sweep must be a list of numbers, got {d['sweep']!r}")
        try:
            return cls(kind=d["kind"], case=d["case"], sweep=list(d["sweep"]),
                       fixed=dict(d.get("fixed", {})),
                       case_overrides=dict(d.get("case_overrides", {})),
                       name=d.get("name"))
        except KeyError as exc:
            raise ValueError(f"study spec is missing required key {exc}") from exc

    def config(self, value) -> ProblemConfig:
        """The ProblemConfig of one sweep value."""
        params, overrides = dict(self.fixed), dict(self.case_overrides)
        for key in SWEEPS[self.kind][0]:
            if key == "delta":
                overrides[key] = float(value)
            else:
                params[key] = float(value) if key == "tau" else int(value)
        return ProblemConfig(case=get_case(self.case, **overrides), **params)

    def configs(self) -> list:
        """One ProblemConfig per sweep entry."""
        return [self.config(value) for value in self.sweep]


@dataclass
class StudyResult:
    spec: StudySpec
    rows: list
    failures: list
    summary: dict
    scores: dict = field(default_factory=dict)   # see run_study

    @property
    def ok(self) -> bool:
        return not self.failures


def run_study(spec: StudySpec, threads: int = 1, strict: bool = False, score=None) -> StudyResult:
    """Execute the sweep; failures are recorded per entry unless strict.  `scores`
    maps each solved sweep value to score(cfg, sol), a delta study's baseline
    0.0 first, then in sweep order; it is empty without `score`."""
    configs = spec.configs()
    scores = {}
    # each entry is scored on the thread that solved it, while other entries
    # solve; a delta entry is differenced against the inviscid baseline on
    # the identical discretization, so the solves share one space object
    shared_space = baseline = None

    def solve(value, cfg):
        out = run_problem(cfg, space=shared_space)
        if score is not None:
            scores[value] = score(cfg, out[2])
        return out

    def work(value, cfg):
        try:
            _, _, sol, rep = solve(value, cfg)
        except SolverFailure as exc:
            if strict:
                raise
            return f"{type(exc).__name__}: {exc}"
        # outside the try: a baseline failure is the study's, never an entry's
        ref = cfg.case if baseline is None else baseline.result()[2]
        return result_row(cfg, sol, rep, ref)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        if spec.kind == "delta":
            shared_space = FESpace(unit_square_mesh(configs[0].n), configs[0].p)
            # the queue is FIFO: the baseline starts before any entry waits on it
            baseline = pool.submit(solve, 0.0, spec.config(0.0))
        # the largest solves first, so the last task to start is a short one
        futures = [None] * len(configs)
        for i in sorted(range(len(configs)), key=lambda i: _work(configs[i]), reverse=True):
            futures[i] = pool.submit(work, spec.sweep[i], configs[i])
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        for f in pending:           # an entry raised (strict): stop the sweep
            f.cancel()
        for f in done:              # raise that entry's error, not a cancellation
            f.result()
        entries = [f.result() for f in futures]
        if baseline is not None:
            baseline.result()       # raises even when every entry failed

    rows = [entry for entry in entries if not isinstance(entry, str)]
    failures = [{"index": i, "config": config_cells(cfg), "error": entry}
                for i, (cfg, entry) in enumerate(zip(configs, entries)) if isinstance(entry, str)]

    _fill_eoc(spec, rows)
    order = ([0.0] if spec.kind == "delta" else []) + spec.sweep
    return StudyResult(spec, rows, failures, _summary(spec, rows, failures),
                       {v: scores[v] for v in order if v in scores})


def _work(cfg: ProblemConfig) -> int:
    """Relative size of one solve: space-time unknowns (p n + 1)^2 q per slab,
    times the slabs."""
    return (cfg.p * cfg.n + 1) ** 2 * cfg.q * cfg.partition.n_slabs


def config_cells(cfg: ProblemConfig) -> dict:
    """CSV cells that describe one run configuration."""
    return {"case": cfg.case.name, "n": cfg.n, "h": math.sqrt(2.0) / cfg.n,
            "tau": cfg.tau, "p": cfg.p, "q": cfg.q,
            "delta": cfg.case.delta, "k": cfg.case.k, "c": cfg.case.c}


def result_row(cfg: ProblemConfig, sol, rep, ref) -> dict:
    """The cells of one solve, for the CSV and the study summary.

    `ref` is the case, or a discrete solution on the same discretization
    (the delta study's inviscid baseline).  A case without a closed-form
    solution gets empty error cells.  `runtime_err_s`, the seconds spent in
    err_linf_l2, and `n_dof`, the space's dof count, are not CSV columns;
    runtime_s times only the solve.
    """
    t_err = time.perf_counter()
    if not isinstance(ref, DiscreteSolution) and ref.u is None:
        e_dt = e_g = None
    else:
        e_dt = err_linf_l2(sol, ref, "dt")
        e_g = err_linf_l2(sol, ref, "grad")
    runtime_err = round(time.perf_counter() - t_err, 6)
    return {**config_cells(cfg), "err_dt": e_dt, "err_grad": e_g,
            "eoc_dt": None, "eoc_grad": None,
            "iters_mean": round(rep.iters_mean, 3), "iters_max": rep.iters_max,
            "runtime_s": round(rep.runtime_s, 4), "runtime_err_s": runtime_err,
            "n_dof": sol.space.n_dof}


def _fill_eoc(spec: StudySpec, rows: list):
    _, key = SWEEPS[spec.kind]
    usable = [r for r in rows if r["err_dt"] is not None]
    if key is None or len(usable) < 2:
        return
    param = [r[key] for r in usable]
    for col, err_col in (("eoc_dt", "err_dt"), ("eoc_grad", "err_grad")):
        with np.errstate(divide="ignore", invalid="ignore"):   # zero errors: see _rate
            vals = eoc([r[err_col] for r in usable], param)
        for row, v in zip(usable[1:], vals):
            row[col] = _rate(v)


def _rate(v):
    """A rate rounded to 4 digits, or None where it is undefined (not finite),
    which the CSV writes as an empty cell and the JSON summary as null."""
    return round(float(v), 4) if np.isfinite(v) else None


def _summary(spec, rows, failures) -> dict:
    scored = [r for r in rows if r["err_dt"] is not None]
    errs_dt = [r["err_dt"] for r in scored]
    errs_g = [r["err_grad"] for r in scored]
    out = {"name": spec.name, "kind": spec.kind, "case": spec.case,
           "sweep": list(spec.sweep), "fixed": spec.fixed,
           "case_overrides": spec.case_overrides,
           "n_dofs": [r["n_dof"] for r in rows], "rows": len(rows), "failures": failures,
           "err_dt": errs_dt, "err_grad": errs_g,
           "runtime_err_s": [r["runtime_err_s"] for r in rows]}
    if SWEEPS[spec.kind][1] and len(scored) >= 2:
        out["eoc_dt"] = [r["eoc_dt"] for r in scored[1:]]
        out["eoc_grad"] = [r["eoc_grad"] for r in scored[1:]]
    if spec.kind == "pq" and len(scored) >= 2:
        # exponential regime: log err ~ a - b N^(1/3)
        x = np.asarray([r["n_dof"] for r in scored], dtype=float) ** (1.0 / 3.0)
        with np.errstate(divide="ignore", invalid="ignore"):   # zero errors: see _rate
            out["exp_fit_b_dt"] = _rate(-np.polyfit(x, np.log(errs_dt), 1)[0])
            out["exp_fit_b_grad"] = _rate(-np.polyfit(x, np.log(errs_g), 1)[0])
    if spec.kind == "cfl":
        # a non-finite solve ends in a SolverFailure; the errors that exist
        # must be finite too
        out["all_finite"] = bool(rows) and not failures and all(
            np.isfinite(r["err_dt"]) and np.isfinite(r["err_grad"]) for r in scored)
    return out


# -- serialization ---------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))   # np.float64 is a float whose repr names its type
    return str(v)


def write_csv(rows: list, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow([_cell(row.get(col)) for col in CSV_COLUMNS])


def write_summary(summary: dict, path: Path):
    # strict JSON; a failure leaves no partial file
    text = json.dumps(summary, indent=2, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_plot(result: StudyResult, path: Path) -> bool:
    """Write the error chart; False, and no file, below two scored rows."""
    spec = result.spec
    rows = [r for r in result.rows if r["err_dt"] is not None]
    if len(rows) < 2:
        return False
    if spec.kind == "pq":
        xlabel, x = "N_dofs^(1/3)", [r["n_dof"] ** (1.0 / 3.0) for r in rows]
    else:
        xlabel = SWEEPS[spec.kind][1] or "h"
        x = [r[xlabel] for r in rows]
    series = [(col, x, [r[col] for r in rows]) for col in ("err_dt", "err_grad")]
    p, q = rows[0]["p"], rows[0]["q"]
    guides = {"h": [p, p + 1], "tau": [q, q + 1], "delta": [1]}.get(spec.kind, [])
    return svgplot.plot(path, series, xlog=spec.kind != "pq", guides=guides,
                        xlabel=xlabel, title=spec.name)


def write_study_outputs(result: StudyResult, out_dir: Path, plot: bool = False) -> dict:
    out_dir = Path(out_dir)
    base = out_dir / result.spec.name
    write_csv(result.rows, base.with_suffix(".csv"))
    write_summary(result.summary, base.with_suffix(".json"))
    paths = {"csv": str(base.with_suffix(".csv")), "json": str(base.with_suffix(".json"))}
    if plot and write_plot(result, base.with_suffix(".svg")):
        paths["svg"] = str(base.with_suffix(".svg"))
    return paths
