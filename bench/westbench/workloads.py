"""The benchmark's workloads and the seeded inputs they hand the program.

Each workload is a closed loop: one client, one request at a time, from a
single process.  Only `studies` runs a pool (STUDY_THREADS threads).
Seed 0 uses the case defaults exactly; any other seed scales the source
amplitude (`A` of the smooth cases, `a` of gaussian-pulse) by a factor
drawn uniformly from [0.9, 1.1].  Mesh, slabs and amount of work do not
depend on the seed.
"""

from __future__ import annotations

import csv
import inspect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the studies pool size: nproc of the 2-core machine the sizes were chosen on
STUDY_THREADS = 2

# case label -> (amplitude parameter, case factory whose signature holds it)
AMPLITUDE = {"smooth": ("A", "smooth"), "smooth-fast": ("A", "smooth"),
             "gaussian-pulse": ("a", "gaussian-pulse")}


def amplitude(wf, case: str, seed: int) -> float:
    """Source amplitude the workload uses on this seed."""
    param, factory = AMPLITUDE[case]
    default = inspect.signature(wf.cases.CASES[factory]).parameters[param].default
    if seed == 0:
        return default
    return default * float(np.random.default_rng(seed).uniform(0.9, 1.1))


def amplitude_overrides(wf, case: str, seed: int) -> dict:
    return {} if seed == 0 else {AMPLITUDE[case][0]: amplitude(wf, case, seed)}


def build_space(wf, n: int, p: int):
    """Set-up of one discretization: mesh, dofmap, global mass and stiffness."""
    space = wf.spacefe.FESpace(wf.mesh.unit_square_mesh(n), p)
    space.mass, space.stiffness
    return space


@dataclass(frozen=True)
class SingleRun:
    """One `run_problem` on a fresh space, then the error functionals."""

    name: str
    case: str
    n: int
    p: int
    q: int
    tau: float
    fixed: dict = field(default_factory=dict)
    errors: bool = True
    ops_per_request = 1

    def _config(self, wf, n: int, seed: int):
        overrides = {**self.fixed, **amplitude_overrides(wf, self.case, seed)}
        return wf.cases.ProblemConfig(case=wf.cases.get_case(self.case, **overrides),
                                      n=n, p=self.p, q=self.q, tau=self.tau)

    def inputs(self, wf, seed: int):
        return self._config(wf, self.n, seed)

    def spaces(self, cfg):
        return [(cfg.n, cfg.p)]

    def warm_up(self, wf):
        self.request(wf, self._config(wf, 2, 0))

    def request(self, wf, cfg):
        space = build_space(wf, cfg.n, cfg.p)
        _, _, sol, rep = wf.cases.run_problem(cfg, space=space)
        errs = ({mode: wf.analysis.err_linf_l2(sol, cfg.case, mode) for mode in ("dt", "grad")}
                if self.errors else {})
        return sol, rep, errs

    def outputs(self, wf, cfg, raw, scratch: Path) -> dict:
        sol, rep, errs = raw
        return {"slab_iterations": list(rep.iterations),
                "err_dt": errs.get("dt"), "err_grad": errs.get("grad"),
                "u_end_norm": float(np.linalg.norm(sol.bp_values[-1])),
                "finite": bool(np.isfinite(sol.modes).all()),
                "coeff_margin": min(s.coeff_min for s in rep.slabs) - cfg.guard}


class Studies:
    """One h study and one delta study of `smooth`, back to back."""

    name = "studies"
    case = "smooth"
    h_sweep = (8, 16, 24, 32)
    delta_sweep = (1e-4, 1e-3, 1e-2, 1e-1)
    fixed = {"p": 2, "q": 3, "tau": 0.2}
    delta_n = 32
    ops_per_request = len(h_sweep) + len(delta_sweep)

    def _specs(self, wf, h_sweep, delta_sweep, delta_n, seed):
        ov = amplitude_overrides(wf, self.case, seed)
        return [wf.studies.StudySpec(kind="h", case=self.case, sweep=list(h_sweep),
                                     fixed=dict(self.fixed), case_overrides=dict(ov)),
                wf.studies.StudySpec(kind="delta", case=self.case, sweep=list(delta_sweep),
                                     fixed={**self.fixed, "n": delta_n},
                                     case_overrides=dict(ov))]

    def inputs(self, wf, seed: int):
        return self._specs(wf, self.h_sweep, self.delta_sweep, self.delta_n, seed)

    def spaces(self, specs):
        # an h study builds one space per entry; a delta study shares one
        h, d = specs
        return [(n, h.fixed["p"]) for n in h.sweep] + [(d.fixed["n"], d.fixed["p"])]

    def warm_up(self, wf):
        self.request(wf, self._specs(wf, (2, 3), (1e-2, 1e-1), 2, 0))

    def request(self, wf, specs):
        return [wf.studies.run_study(spec, threads=STUDY_THREADS) for spec in specs]

    def outputs(self, wf, specs, raw, scratch: Path) -> dict:
        out = {}
        for res in raw:
            path = scratch / f"{res.spec.name}.csv"
            wf.studies.write_csv(res.rows, path)
            with open(path, newline="") as fh:
                out[res.spec.kind] = {"csv": list(csv.reader(fh)),
                                      "failures": [f["index"] for f in res.failures]}
            path.unlink()
        return out


WORKLOADS = {w.name: w for w in (
    SingleRun("smooth-n64", "smooth", n=64, p=2, q=3, tau=0.2),
    SingleRun("pulse-reuse", "gaussian-pulse", n=32, p=2, q=3, tau=1e-5,
              fixed={"T": 4e-4}, errors=False),
    SingleRun("highp-fast", "smooth-fast", n=8, p=5, q=3, tau=1 / 32),
    Studies(),
)}
