"""Record bench/reference.json, the seed-0 outputs the correctness gate
compares against.

    python3 bench/record_reference.py

Re-record only in a change that is meant to alter the program's numbers,
and state the drift it accepts.
"""

from __future__ import annotations

import json
import os

import run
from westbench.gate import REFERENCE_PATH


def _blank_runtime(csv_rows):
    """The runtime_s cell is not compared; store it empty."""
    rt = csv_rows[0].index("runtime_s")
    return [csv_rows[0]] + [row[:rt] + [""] + row[rt + 1:] for row in csv_rows[1:]]


def main():
    wf = run.import_program()
    from westbench.workloads import WORKLOADS

    scratch = run.ROOT / ".bench_out" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, wl in WORKLOADS.items():
        inputs = wl.inputs(wf, 0)
        out = wl.outputs(wf, inputs, wl.request(wf, inputs), scratch)
        if name == "studies":
            reference[name] = {kind: _blank_runtime(study["csv"]) for kind, study in out.items()}
        else:
            reference[name] = {key: out[key] for key in
                               ("slab_iterations", "err_dt", "err_grad", "u_end_norm")
                               if out[key] is not None}
        print(name, json.dumps(reference[name])[:120], flush=True)
    scratch.rmdir()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
