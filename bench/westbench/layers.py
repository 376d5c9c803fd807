"""Where the benchmark attaches its spans, and the metrics made from them.

Every probe wraps a module binding or a class attribute of the program; a
function imported by name into several modules is wrapped in each module
that calls it.  End-to-end runs install only `solve_probes` (one span per
solve, which carries the solver report); traced runs install all probes.
"""

from __future__ import annotations

from .tracing import covered, self_times

# per-layer timing metric stem -> span names summed into it
TIMED = {
    "mesh.build": ("mesh.unit_square_mesh", "mesh.edge_table"),
    "spacefe.dofmap": ("spacefe.FESpace",),
    "spacefe.assembly": ("spacefe.assemble_mass", "spacefe.assemble_stiffness"),
    "spacefe.element_data": ("spacefe.element_data",),
    "slab.lhs": ("slab.assemble_slab_lhs",),
    "slab.f_loads": ("slab.f_time_loads",),
    "slab.rhs": ("slab.assemble_slab_rhs",),
    "slab.lagged_rhs": ("slab.lagged_rhs",),
    "solver.factor": ("solver.splu",),
    "solver.trisolve": ("solver.Factorization.solve",),
    "analysis.err_dt": ("analysis.err_dt",),
    "analysis.err_grad": ("analysis.err_grad",),
    # the studies stems take the children of run_study spans, see _study_groups
    "studies.entry_solve": (),
    "studies.error": (),
    "studies.baseline": (),
}

# bytes per stored LU entry: float64 value plus int32 row index
LU_BYTES_PER_NNZ = 12


def _report_attrs(args, kwargs, result):
    cfg, rep = args[0], result[3]
    return {"slabs": len(rep.slabs),
            "slab_iterations": list(rep.iterations),
            "reuses": rep.factorization_reuses,
            "increment_max": max(s.increment for s in rep.slabs) / cfg.tol,
            "coeff_margin": min(s.coeff_min for s in rep.slabs) - cfg.guard,
            "delta": cfg.case.delta}


def _err_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return f"analysis.err_{mode}"


def solve_probes(wf):
    return [(wf.cases, "run_problem", "cases.run_problem", _report_attrs),
            (wf.studies, "run_problem", "cases.run_problem", _report_attrs)]


def all_probes(wf):
    def nnz(args, kwargs, result):
        return {"nnz": int(result.nnz)}

    return solve_probes(wf) + [
        (wf.mesh, "unit_square_mesh", "mesh.unit_square_mesh", None),
        (wf.cases, "unit_square_mesh", "mesh.unit_square_mesh", None),
        (wf.studies, "unit_square_mesh", "mesh.unit_square_mesh", None),
        (wf.spacefe, "edge_table", "mesh.edge_table", None),
        (wf.spacefe.FESpace, "__init__", "spacefe.FESpace",
         lambda a, k, r: {"n_dof": int(a[0].n_dof)}),
        (wf.spacefe.FESpace, "element_data", "spacefe.element_data", None),
        (wf.spacefe, "assemble_mass", "spacefe.assemble_mass", None),
        (wf.spacefe, "assemble_stiffness", "spacefe.assemble_stiffness", None),
        (wf.slab, "assemble_slab_lhs", "slab.assemble_slab_lhs", nnz),
        (wf.slab.SlabWorkspace, "f_time_loads", "slab.f_time_loads", None),
        (wf.solver, "assemble_slab_rhs", "slab.assemble_slab_rhs", None),
        (wf.solver, "lagged_rhs", "slab.lagged_rhs", None),
        (wf.solver, "splu", "solver.splu", nnz),
        (wf.solver.Factorization, "solve", "solver.Factorization.solve", None),
        (wf.analysis, "err_linf_l2", _err_name, None),
        (wf.studies, "err_linf_l2", _err_name, None),
        (wf.studies, "run_study", "studies.run_study",
         lambda a, k, r: {"kind": a[0].kind, "threads": k.get("threads", 1),
                          "failures": len(r.failures)}),
    ]


def _named(spans, name):
    return [s for s in spans if s.name == name]


def solve_metrics(spans) -> dict:
    """Solve time and fixed-point iterations summed over all solves."""
    solves = _named(spans, "cases.run_problem")
    return {"solve_s": sum(s.duration for s in solves),
            "iterations": sum(sum(s.attrs["slab_iterations"]) for s in solves)}


def _study_groups(spans):
    """Per run_study span: (span, entry solves, baseline solves, error spans)."""
    out = []
    for st in _named(spans, "studies.run_study"):
        kids = [s for s in spans if s.parent == st.id]
        solves = _named(kids, "cases.run_problem")
        # the delta study's baseline is its only solve at delta = 0
        base = [s for s in solves if st.attrs.get("kind") == "delta"
                and s.attrs.get("delta") == 0.0]
        entries = [s for s in solves if s not in base]
        errs = [s for s in kids if s.name.startswith("analysis.err_")]
        out.append((st, entries, base, errs))
    return out


def layer_metrics(spans, root) -> dict:
    """Per-layer metrics of one traced request whose root span is `root`."""
    spans = [s for s in spans if s.id != root.id]
    selfs = self_times(spans)
    groups = _study_groups(spans)
    special = {"studies.entry_solve": [s for g in groups for s in g[1]],
               "studies.baseline": [s for g in groups for s in g[2]],
               "studies.error": [s for g in groups for s in g[3]]}
    out = {}
    for stem, names in TIMED.items():
        chosen = special[stem] if stem in special else [s for s in spans if s.name in names]
        out[f"{stem}_s"] = sum(s.duration for s in chosen)
        out[f"{stem}.self_s"] = sum(selfs[s.id] for s in chosen)

    solves = _named(spans, "cases.run_problem")
    factors = _named(spans, "solver.splu")
    slabs = sum(s.attrs["slabs"] for s in solves)
    reuses = sum(s.attrs["reuses"] for s in solves)
    lu_nnz = sum(s.attrs["nnz"] for s in factors)
    out.update({
        "spacefe.element_data.calls": len(_named(spans, "spacefe.element_data")),
        "spacefe.n_dof": sum(s.attrs["n_dof"] for s in _named(spans, "spacefe.FESpace")),
        "slab.lhs_nnz": sum(s.attrs["nnz"] for s in _named(spans, "slab.assemble_slab_lhs")),
        "slab.lagged_rhs.calls": len(_named(spans, "slab.lagged_rhs")),
        "solver.factorizations": len(factors),
        "solver.factor_reuses": reuses,
        "solver.reuse_ratio": reuses / slabs if slabs else 0.0,
        "solver.lu_nnz": lu_nnz,
        "solver.lu_mb_computed": lu_nnz * LU_BYTES_PER_NNZ / 1e6,
        "solver.trisolve.calls": len(_named(spans, "solver.Factorization.solve")),
        "solver.iters_max": max(max(s.attrs["slab_iterations"]) for s in solves),
        "solver.increment_max": max(s.attrs["increment_max"] for s in solves),
        "solver.coeff_margin": min(s.attrs["coeff_margin"] for s in solves),
    })

    pool_entry = sum(s.duration for g in groups for s in g[1])
    pool_wall = sum(max(s.end for s in g[1]) - min(s.start for s in g[1])
                    for g in groups if g[1])
    threads = max((g[0].attrs.get("threads", 1) for g in groups), default=1)
    out["studies.parallel_efficiency"] = pool_entry / (threads * pool_wall) if pool_wall else 0.0
    out["studies.failed_entries"] = sum(g[0].attrs.get("failures", 0) for g in groups)

    top = [(s.start, s.end) for s in spans if s.parent == root.id]
    out["bench.unattributed_s"] = root.duration - covered(top, root.start, root.end)
    return out
