"""Dump, or compare, the numbers that a bit-for-bit change must keep.

    PYTHONPATH=<tree>/src python tools/samebits.py dump OUT.npz
    python tools/samebits.py compare A.npz B.npz

`dump` solves a fixed set of small configurations with the westfem found on
the path (run it once per source tree, each with its own PYTHONPATH) and
writes, per configuration, the solution modes and breakpoint values, the
per-slab iterations, increments and guard margins `coeff_min`, and, where
the case has a closed-form solution, both error functionals (on the default
rule and sampling, on the rule of degree 2p + 8 and at 3(2q + 3) samples
per slab) and the data functional; then the rows of a small study of each
kind, every cell except the timings, and for the studies of
RESIDUAL_STUDIES the maximum slab residual of each solve (a delta study's
baseline first); then, per space of GEOMETRY, the dofmap (free dofs, cell
dofs, dof coordinates), the quadrature points of the three rules,
`smooth`'s f, dtu and grad_u sampled on each rule at one time and at an
array of times, point values of an interpolant, the CSR arrays of the
global mass and stiffness matrices, and the CSC arrays of the slab
operator (`smooth`'s c and delta, tau = 0.25) at each q of LHS_Q.
`compare` checks every array of A against B with np.array_equal (NaN equal
to NaN), prints each key that is missing or differs, and exits 1 if any
does.

When this tool's calls into westfem differ between two trees (say, one
tree's `run_study` takes an argument the other's does not), dump each tree
with its own copy of the tool; the key names stay the same:

    mkdir old && git archive OLD | tar -x -C old
    PYTHONPATH=old/src python old/tools/samebits.py dump old.npz
    PYTHONPATH=src python tools/samebits.py dump new.npz
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

# name -> (case label, case overrides, n, p, q, tau or the slab breakpoints)
SOLVES = {
    "smooth": ("smooth", {}, 4, 2, 3, 0.25),
    "smooth-fast-p5": ("smooth-fast", {}, 3, 5, 3, 0.125),
    "standing-wave": ("standing-wave", {}, 4, 2, 2, 0.25),
    "gaussian-pulse": ("gaussian-pulse", {"T": 4e-5}, 16, 2, 3, 1e-5),
    "graded": ("smooth", {}, 4, 2, 3, [0.0, 0.25, 0.5, 0.6, 1.0]),
    "k-negative": ("smooth", {"k": -2.0}, 4, 3, 2, 0.25),
    "blocks": ("smooth", {}, 17, 1, 2, 0.25),   # 578 triangles: two element blocks
    "blocks-k-negative": ("smooth", {"k": -2.0}, 17, 2, 3, 0.25),
    "q5": ("smooth", {}, 4, 2, 5, 0.25),
    "half-dense": ("smooth", {}, 4, 1, 3, 0.2),  # M_ff half dense, no zero stored in the LHS
}

STUDIES = {
    "h": dict(kind="h", case="smooth", sweep=[2, 4], fixed={"p": 2, "q": 3, "tau": 0.25}),
    "delta": dict(kind="delta", case="smooth", sweep=[1e-3, 1e-2],
                  fixed={"n": 4, "p": 2, "q": 2, "tau": 0.25}),
    "tau": dict(kind="tau", case="smooth", sweep=[0.5, 0.25], fixed={"n": 3, "p": 2, "q": 2}),
    "pq": dict(kind="pq", case="smooth", sweep=[2, 3], fixed={"n": 2, "tau": 0.5}),
    "cfl": dict(kind="cfl", case="smooth", sweep=[2, 3], fixed={"p": 1, "q": 2, "tau": 1.0}),
}

TIMINGS = ("runtime_s", "runtime_err_s")

# studies whose solves are also scored by max(slab_residuals), the
# galerkin-residual suite's quantity, through `run_study`'s `score`
RESIDUAL_STUDIES = ("h", "tau", "delta")

# (n, p) of the spaces whose geometry is dumped; n = 6 has 32 geometry
# classes among its 72 elements, so the stiffness kernel runs on many rows;
# (8, 5) is the space of the benchmark's highp-fast workload
GEOMETRY = [(3, 1), (4, 2), (3, 5), (6, 2), (8, 5)]

# temporal degrees of the slab operators dumped per space of GEOMETRY
LHS_Q = (2, 3, 4, 5)


def _solve(wf, label, overrides, n, p, q, steps):
    case = wf.get_case(label, **overrides)
    part = (wf.TimePartition.uniform(case.T, steps) if np.ndim(steps) == 0
            else wf.TimePartition.from_breakpoints(steps))
    space = wf.FESpace(wf.unit_square_mesh(n), p)
    sol, rep = wf.solve_westervelt(space, part, q, case)
    out = {"modes": sol.modes, "bp_values": sol.bp_values,
           "iterations": np.array(rep.iterations),
           "increments": np.array([s.increment for s in rep.slabs]),
           "coeff_min": np.array([s.coeff_min for s in rep.slabs])}
    if case.u is not None:
        for mode in ("dt", "grad"):
            out[f"err_{mode}"] = np.array(wf.err_linf_l2(sol, case, mode))
            out[f"err_{mode}_deg2p+8"] = np.array(
                wf.err_linf_l2(sol, case, mode, quad_degree=2 * p + 8))
            out[f"err_{mode}_3x_samples"] = np.array(
                wf.err_linf_l2(sol, case, mode, samples_per_slab=3 * (2 * q + 3)))
        out["data_functional"] = np.array(wf.data_functional(space, part, case))
    return out


def _geometry(wf, n, p):
    space = wf.FESpace(wf.unit_square_mesh(n), p)
    out = {"free_dofs": space.free_dofs, "cell_dofs": space.cell_dofs,
           "dof_coords": space.dof_coords}
    smooth = wf.get_case("smooth")
    for rule in ("ed_lin", "ed_nl", "ed_err"):
        ed = getattr(space, rule)
        out[f"{rule}/x"] = ed.sample(lambda x, y: x)
        out[f"{rule}/y"] = ed.sample(lambda x, y: y)
        for when, t in (("t", 0.3), ("times", np.linspace(0.0, 1.0, 5))):
            for name in ("f", "dtu", "grad_u"):
                out[f"{rule}/smooth-{name}-{when}"] = ed.sample(getattr(smooth, name), t)
    # 41 x 41 points with the square's edges and corners (and, at n = 4, cell edges)
    xg, yg = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41))
    coeffs = wf.interpolate(space, lambda x, y: np.sin(3 * x + 1) * np.cos(2 * y) + x * y)
    out["evaluate"] = wf.evaluate(space, coeffs, xg.ravel(), yg.ravel())
    for name in ("mass", "stiffness"):
        for part in ("data", "indices", "indptr"):
            out[f"{name}/{part}"] = getattr(getattr(space, name), part)
    for q in LHS_Q:
        lhs = wf.slab.assemble_slab_lhs(
            space, *wf.slab.coupling_blocks(q, 0.25, smooth.c, smooth.delta))
        for part in ("data", "indices", "indptr"):
            out[f"lhs-q{q}/{part}"] = getattr(lhs, part)
    return out


def _column(values):
    if all(isinstance(v, str) for v in values):
        return np.array(values)
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def collect() -> dict:
    """Every dumped array by key, from the westfem on the import path."""
    import westfem as wf

    def residual(cfg, sol):
        return max(wf.slab_residuals(sol, cfg.case))

    out = {}
    for name, args in SOLVES.items():
        for key, arr in _solve(wf, *args).items():
            out[f"{name}/{key}"] = np.asarray(arr)
    for name, spec in STUDIES.items():
        spec = wf.StudySpec(**spec)
        result = wf.studies.run_study(spec, score=residual if name in RESIDUAL_STUDIES else None)
        if result.failures:
            raise RuntimeError(f"{name} study failed: {result.failures}")
        for col in result.rows[0]:
            if col not in TIMINGS:
                out[f"study-{name}/{col}"] = _column([r[col] for r in result.rows])
        if result.scores:
            out[f"study-{name}/max_slab_residual"] = np.array(list(result.scores.values()))
    for n, p in GEOMETRY:
        for key, arr in _geometry(wf, n, p).items():
            out[f"space-n{n}-p{p}/{key}"] = np.asarray(arr)
    return out


def dump(path) -> dict:
    arrays = collect()
    np.savez(path, **arrays)
    return arrays


def mismatches(a: dict, b: dict) -> list:
    """One line per key that is missing from either side or differs."""
    out = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            out.append(f"{key}: only in {'A' if key in a else 'B'}")
            continue
        x, y = np.asarray(a[key]), np.asarray(b[key])
        numeric = x.dtype.kind in "fc" and y.dtype.kind in "fc"
        if x.shape != y.shape:
            out.append(f"{key}: shape {x.shape} != {y.shape}")
        elif not np.array_equal(x, y, equal_nan=numeric):
            if numeric:
                diff = ~((x == y) | (np.isnan(x) & np.isnan(y)))
                worst = np.nanmax(np.abs(x - y)[diff]) if diff.any() else np.nan
                out.append(f"{key}: {int(diff.sum())} of {x.size} entries differ, "
                           f"max |A - B| = {worst:.3e}")
            else:
                out.append(f"{key}: {x.tolist()} != {y.tolist()}")
    return out


def compare(path_a, path_b) -> list:
    with np.load(path_a) as a, np.load(path_b) as b:
        return mismatches(dict(a), dict(b))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        import westfem
        arrays = dump(args.out)
        print(f"wrote {len(arrays)} arrays from {westfem.__file__} to {args.out}")
        return 0
    bad = compare(args.a, args.b)
    for line in bad:
        print(line)
    if bad:
        print(f"{len(bad)} mismatch(es)")
        return 1
    with np.load(args.a) as a:
        print(f"equal: all {len(a.files)} arrays")
    return 0


if __name__ == "__main__":
    sys.exit(main())
