"""Benchmark of westfem.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see bench/README.md) as a closed loop of requests for
about `--seconds` seconds (the whole number of requests closest to it, at
least one), checks every request's outputs with the correctness gate and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, measured with only the
solve spans installed; with --trace 1 they are its per-layer metrics,
measured on requests with every probe installed, which alternate with
plain requests so the tracing overhead can be measured in the same run.

The program is imported from `src/` of the checkout holding this file;
results and spans go to `.bench_out/` there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from westbench.envinfo import BLAS_THREAD_ENV, environment  # noqa: E402

# set-up repetitions: at least MIN, until TOTAL seconds are spent, at most MAX
SETUP_REPS_MIN, SETUP_REPS_TOTAL_S, SETUP_REPS_MAX = 3, 1.0, 50


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Fix the BLAS pool to one thread, then import westfem from the
    checkout's src/, never from anywhere else."""
    for var in BLAS_THREAD_ENV:
        os.environ[var] = "1"
    pkg = ROOT / "src" / "westfem"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import westfem
    if Path(westfem.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported westfem from {westfem.__file__}, not {pkg}")
    return westfem


def time_setup(wl, wf, inputs) -> list:
    from westbench.workloads import build_space

    samples = []
    while (len(samples) < SETUP_REPS_MIN
           or (sum(samples) < SETUP_REPS_TOTAL_S and len(samples) < SETUP_REPS_MAX)):
        gc.collect()
        t = time.perf_counter()
        spaces = [build_space(wf, n, p) for n, p in wl.spaces(inputs)]
        samples.append(time.perf_counter() - t)
        del spaces
    return samples


def solve_signature(spans):
    """Per-solve iteration counts, independent of pool completion order."""
    return sorted(tuple(s.attrs["slab_iterations"]) for s in spans
                  if s.name == "cases.run_problem" and "slab_iterations" in s.attrs)


def measure(args, wf, wl, inputs, amp, reference, scratch):
    from westbench import gate, layers
    from westbench.tracing import Tracer

    tracer = Tracer()
    samples = {"plain": [], "traced": []}
    walls, problems, traced_spans, missing = [], [], [], set()
    attempted = failed = 0
    signature = None
    t0 = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        i += 1
        gc.collect()
        mark = len(tracer.spans)
        missing.update(tracer.install(layers.all_probes(wf) if traced else layers.solve_probes(wf)))
        raw = None
        try:
            with tracer.span("request") as root:
                raw = wl.request(wf, inputs)
        except wf.errors.SolverFailure as exc:   # DegenerateCoefficient included
            problems.append(f"request {i}: {type(exc).__name__}: {exc}")
        finally:
            tracer.uninstall()
        spans = tracer.spans[mark:]
        walls.append(root.duration)
        attempted += wl.ops_per_request
        if raw is None:
            failed += wl.ops_per_request
        else:
            found = gate.check(wl.name, wl.outputs(wf, inputs, raw, scratch), args.seed,
                               amp, reference)
            sig = solve_signature(spans)
            if signature is None:
                signature = sig
            elif sig != signature:
                found.append(("repeat", f"iteration counts {sig} differ from the first request's"))
            failed += min(wl.ops_per_request, gate.failed_operations(found))
            problems += [f"request {i}: {msg}" for _, msg in found]
            metrics = {"wall_s": root.duration, **layers.solve_metrics(spans)}
            if traced:
                metrics.update(layers.layer_metrics(spans, root))
                traced_spans += spans
            samples["traced" if traced else "plain"].append(metrics)
        del raw, spans
        if not traced:
            del tracer.spans[mark:]
        if args.trace and i < 2:
            continue
        # stop at the whole number of requests closest to --seconds
        if time.perf_counter() - t0 + statistics.median(walls) / 2 > args.seconds:
            break
    return samples, attempted, failed, problems, traced_spans, sorted(missing)


def summarize(values):
    median = (statistics.median_low if all(isinstance(v, int) for v in values)
              else statistics.median)
    return {"value": median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def main(argv=None):
    args = parse_args(argv)
    wf = import_program()
    from westbench import gate, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(wf, args.seed)
    amp = workloads.amplitude(wf, wl.case, args.seed)
    reference = gate.load_reference()
    out_dir = ROOT / ".bench_out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    t_start = time.perf_counter()
    wl.warm_up(wf)
    setup = [] if args.trace else time_setup(wl, wf, inputs)
    samples, attempted, failed, problems, spans, missing = measure(
        args, wf, wl, inputs, amp, reference, scratch)
    scratch.rmdir()
    for msg in problems:
        print(f"gate: {msg}", file=sys.stderr)
    if missing:
        print(f"warning: probes not installed (attribute missing): {missing}", file=sys.stderr)

    chosen = samples["traced" if args.trace else "plain"]
    if not chosen or not samples["plain"]:
        raise SystemExit("error: no request completed; nothing to report")
    stats = {key: summarize([m[key] for m in chosen]) for key in chosen[0]}
    if args.trace:
        plain = statistics.median(m["wall_s"] for m in samples["plain"])
        stats["bench.trace_overhead_s"] = {"value": stats["wall_s"]["value"] - plain,
                                           "n": len(chosen), "min": None, "max": None}
    else:
        stats["setup_s"] = summarize(setup)
        stats["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "n": 1, "min": None, "max": None}
    for m in wanted:
        s = stats[m["name"]]
        print(f"{m['name']:32s} {s['value']:.6g} {m['unit']}  (median of {s['n']}"
              + (f", min {s['min']:.6g}, max {s['max']:.6g})" if s["min"] is not None else ")"))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": stats[m["name"]]["value"], "unit": m["unit"]}
                          for m in wanted}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "env": env, "wall_clock_s": time.perf_counter() - t_start,
              "setup_samples": setup, "samples": samples, "problems": problems,
              "result": result}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (out_dir / f"{tag}-spans.json").write_text(
            json.dumps([s.to_dict() for s in spans]) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
