"""Correctness gate applied to every request's outputs.

On seed 0 the outputs must reproduce the reference recorded in
`bench/reference.json`: per-slab iteration counts exactly, error values
(and the pulse's end-state norm) to round-off, and study CSV rows byte for
byte apart from the `runtime_s` cell.  On every seed the manufactured runs
must meet the accuracy bounds below, and the pulse run must end finite with
1 + k u above the guard.

`check` returns a list of (operation, message) problems; a request's failed
operations are the distinct operations named.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "reference.json"

# relative agreement with the recorded errors: the fixed-point tolerance
# (1e-12 relative increment) lets the iterate move ~1e-12 relative, which
# is up to ~1e-8 of the smallest recorded error
ROUNDOFF_RTOL = 1e-7

# accuracy against the exact solution, in units of the source amplitude A
# (errors scale with A); each is about 1.5x the value measured at seed 0
SINGLE_BOUNDS = {
    "smooth-n64": {"err_dt": 1e-4, "err_grad": 7e-4},     # seed 0: 6.5e-5, 4.6e-4
    "highp-fast": {"err_dt": 1.5e-2, "err_grad": 1.5e-4},  # seed 0: 1.0e-2, 9.3e-5
}
# h study: err_grad <= H_GRAD * A * h^p (seed 0: 0.93 A h^2 at every n);
# err_dt <= H_DT * A (seed 0: at most 5.6e-4 A, at n = 8)
H_GRAD = 1.4
H_DT = 1e-3
# delta study, differenced against the delta = 0 solve:
# 0 < err <= DELTA_ERR * A * delta (seed 0: at most 4.3e-5 A delta)
DELTA_ERR = 1e-4


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(value, ref) -> bool:
    return value is not None and math.isclose(value, ref, rel_tol=ROUNDOFF_RTOL, abs_tol=0.0)


def check_single(name: str, out: dict, seed: int, amp: float, ref: dict | None) -> list:
    problems = []
    if seed == 0:
        if out["slab_iterations"] != ref["slab_iterations"]:
            problems.append(f"iterations per slab {out['slab_iterations']} "
                            f"!= reference {ref['slab_iterations']}")
        for key in ("err_dt", "err_grad", "u_end_norm"):
            if key in ref and not _close(out[key], ref[key]):
                problems.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
    for key, bound in SINGLE_BOUNDS.get(name, {}).items():
        if not out[key] <= bound * amp:
            problems.append(f"{key} {out[key]:.3e} above the bound {bound} * A = {bound * amp:.3e}")
    if not out["finite"]:
        problems.append("solution is not finite")
    if not out["coeff_margin"] > 0:
        problems.append(f"coefficient margin {out['coeff_margin']!r} is not positive")
    return [(0, msg) for msg in problems]


def _without(row, col):
    return row[:col] + row[col + 1:]


def _bound(kind: str, col: str, row: dict, amp: float) -> float:
    if kind == "delta":
        return DELTA_ERR * amp * float(row["delta"])
    if col == "err_grad":
        return H_GRAD * amp * float(row["h"]) ** int(row["p"])
    return H_DT * amp


def check_studies(out: dict, seed: int, amp: float, ref: dict | None) -> list:
    problems = []
    for kind in ("h", "delta"):
        study = out[kind]
        problems += [((kind, i), f"{kind} study entry {i} failed") for i in study["failures"]]
        header, rows = study["csv"][0], study["csv"][1:]
        if seed == 0:
            ref_header, ref_rows = ref[kind][0], ref[kind][1:]
            rt = ref_header.index("runtime_s")
            if header != ref_header:
                problems.append(((kind, 0), f"{kind} study CSV header {header} != reference"))
            for i in range(max(len(rows), len(ref_rows))):
                got = rows[i] if i < len(rows) else None
                want = ref_rows[i] if i < len(ref_rows) else None
                if got is None or want is None or _without(got, rt) != _without(want, rt):
                    problems.append(((kind, i), f"{kind} study row {i}: {got} != reference {want}"))
        for i, cells in enumerate(rows):
            row = dict(zip(header, cells))
            for col in ("err_dt", "err_grad"):
                err = float(row[col]) if row.get(col) else math.nan
                bound = _bound(kind, col, row, amp)
                if not 0 < err <= bound:
                    problems.append(((kind, i), f"{kind} study row {i}: {col} {err:.3e} "
                                                f"outside (0, {bound:.3e}]"))
    return problems


def check(name: str, out: dict, seed: int, amp: float, reference: dict) -> list:
    ref = reference.get(name)
    if name == "studies":
        return check_studies(out, seed, amp, ref)
    return check_single(name, out, seed, amp, ref)


def failed_operations(problems) -> int:
    return len({op for op, _ in problems})
