"""Command-line front end: single runs, parameter studies, self-verification.

Exit codes: 0 success, 1 usage or configuration error, 2 solver failure,
3 verification failure.  The output directory comes from --out, falling
back to the WESTFEM_OUT environment variable, then ./results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cases import ProblemConfig, run_problem
from .errors import SolverFailure
from .spacefe import evaluate
from .studies import (StudySpec, check_name, result_row, run_study, write_csv,
                      write_study_outputs)
from .verify import run_verify

EXIT_OK, EXIT_USAGE, EXIT_SOLVER, EXIT_VERIFY = 0, 1, 2, 3
ENV_OUT = "WESTFEM_OUT"


class UsageError(Exception):
    pass


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(ENV_OUT)
    return Path(env) if env else Path("results")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _cmd_run(args) -> int:
    cfg_dict = _load_json(args.config)
    if not isinstance(cfg_dict, dict):
        raise UsageError(f"{args.config} must hold a JSON object")
    name = cfg_dict.pop("name", None)
    snap_grid = cfg_dict.pop("snapshot_grid", None)
    snap_times = cfg_dict.pop("snapshot_times", None)
    try:
        name = None if name is None else check_name(name)
        cfg = ProblemConfig.from_dict(cfg_dict)
        m = None if snap_grid is None else int(snap_grid)
        times = None if snap_times is None else np.asarray(snap_times, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad run configuration: {exc}") from exc
    if m is not None and (m != snap_grid or m < 2):
        raise UsageError(f"snapshot_grid must be a whole number of at least 2, "
                         f"got {snap_grid!r}")
    if times is not None and m is None:
        raise UsageError("snapshot_times needs a snapshot_grid")
    if times is not None and (times.ndim != 1 or times.size == 0):
        raise UsageError("snapshot_times must be a non-empty list of times")
    if times is not None and not np.all((times >= 0) & (times <= cfg.case.T)):
        raise UsageError(f"snapshot_times must lie in [0, T] = [0, {cfg.case.T}]")

    space, part, sol, rep = run_problem(cfg)
    row = result_row(cfg, sol, rep, cfg.case)

    out = _out_dir(args)
    base = out / (name or f"run-{cfg.case.name}")
    write_csv([row], base.with_suffix(".csv"))
    written = [str(base.with_suffix(".csv"))]

    if m is not None:
        ax = np.linspace(0.0, 1.0, m)
        xg, yg = np.meshgrid(ax, ax, indexing="ij")
        times = part.breakpoints if times is None else times
        u = np.empty((len(times), m, m))
        du = np.empty_like(u)
        for i, t in enumerate(times):
            u[i] = evaluate(space, sol.value(t), xg.ravel(), yg.ravel()).reshape(m, m)
            du[i] = evaluate(space, sol.dt(t), xg.ravel(), yg.ravel()).reshape(m, m)
        snap_path = base.parent / (base.name + "-snapshots.npz")
        snap_path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(snap_path, x=ax, y=ax, t=times, u=u, dtu=du)
        written.append(str(snap_path))

    err_txt = ("no closed-form solution; errors not computed" if row["err_dt"] is None
               else f"err_dt={row['err_dt']:.6e} err_grad={row['err_grad']:.6e}")
    print(f"run {cfg.case.name}: n={cfg.n} p={cfg.p} q={cfg.q} tau={cfg.tau} "
          f"| {err_txt} | iters<= {rep.iters_max} | {rep.runtime_s:.2f}s")
    for path in written:
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_study(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    spec_dict = _load_json(args.spec)
    if not isinstance(spec_dict, dict):
        raise UsageError(f"{args.spec} must hold a JSON object")
    try:
        spec = StudySpec.from_dict(spec_dict)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad study spec: {exc}") from exc

    result = run_study(spec, threads=args.threads, strict=args.strict)
    paths = write_study_outputs(result, _out_dir(args), plot=args.plot)

    print(f"study {spec.name}: {len(result.rows)} rows, "
          f"{len(result.failures)} failures")
    for row in result.rows:
        eoc_txt = "" if row["eoc_dt"] is None else (
            f"  eoc_dt={row['eoc_dt']:<7} eoc_grad={row['eoc_grad']}")
        err_txt = ("" if row["err_dt"] is None else
                   f"err_dt={row['err_dt']:.4e} err_grad={row['err_grad']:.4e}")
        print(f"  n={row['n']:<3} tau={row['tau']:<8} p={row['p']} q={row['q']} "
              f"delta={row['delta']:<8} {err_txt}{eoc_txt}")
    for failure in result.failures:
        print(f"  FAILED [{failure['index']}]: {failure['error']}", file=sys.stderr)
    for kind, path in paths.items():
        print(f"  wrote {path}")
    return EXIT_OK if result.ok else EXIT_SOLVER


def _cmd_verify(args) -> int:
    try:
        report = run_verify(pattern=args.filter)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for line in report.summary_lines(verbose=args.verbose):
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="westfem",
        description="Space-time FEM solver for the Westervelt equation")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one configured problem")
    run_p.add_argument("config", help="JSON problem configuration")
    run_p.set_defaults(fn=_cmd_run)

    study_p = sub.add_parser("study", help="execute a convergence study")
    study_p.add_argument("spec", help="JSON study specification")
    study_p.add_argument("--threads", type=int, default=1,
                         help="worker threads for sweep entries")
    study_p.add_argument("--strict", action="store_true",
                         help="abort the sweep on the first solver failure")
    study_p.add_argument("--plot", action="store_true",
                         help="also write an SVG convergence plot")
    study_p.set_defaults(fn=_cmd_study)

    verify_p = sub.add_parser("verify", help="run the self-verification suites")
    verify_p.add_argument("--filter", default=None,
                          help="glob pattern selecting suites (e.g. 'jump*')")
    verify_p.add_argument("--verbose", action="store_true",
                          help="list every check, not just suite results")
    verify_p.set_defaults(fn=_cmd_verify)

    for p in (run_p, study_p):
        p.add_argument("--out", default=None,
                       help="output directory (default $" + ENV_OUT + " or ./results)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
