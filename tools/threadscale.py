"""Time whether two threads speed up the element kernels and the slab LUs.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/threadscale.py

Each line runs two equal, independent jobs, first one after the other and
then on a pool of two threads, and prints both times (best of REPEAT) and
their ratio.  A kernel that holds the interpreter lock cannot beat the
sequential time; the matmul, the elementwise multiply and np.bincount are
contrasts that release it.  A probe then counts in a Python loop on a
second thread beside the LU and einsum kernels: a kernel that releases the
lock leaves the loop its rate beside a sleep, and a short native call then
waits to win the lock back after each return.  Then one blocked field evaluation, as the load
kernels run it (6 coefficient rows, one block of elements), timed with the
einsum of ElementData and with a BLAS matmul on gathered coefficients, the
gather itself, and the largest relative difference of the two results:
they agree to round-off only, not bit for bit.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse.linalg import splu

from westfem import slab
from westfem.cases import get_case
from westfem.mesh import unit_square_mesh
from westfem.spacefe import FESpace

REPEAT = 3


def _best(run) -> float:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def scale(label: str, jobs) -> None:
    """Print the sequential and the two-thread time of the jobs."""
    seq = _best(lambda: [job() for job in jobs])
    with ThreadPoolExecutor(2) as pool:
        par = _best(lambda: [f.result() for f in [pool.submit(job) for job in jobs]])
    print(f"{label:<44} {seq:7.3f} s -> {par:7.3f} s   ({seq / par:.2f}x)")


def gil_probe(label: str, run) -> None:
    """Print how fast a pure-Python loop counts on a second thread while
    `run` works: near its rate alone if `run` releases the interpreter lock,
    near 0 if it holds it."""
    stop, count = threading.Event(), [0]

    def spin():
        while not stop.is_set():
            count[0] += 1

    spinner = threading.Thread(target=spin)
    t0 = time.perf_counter()
    spinner.start()
    run()
    seconds = time.perf_counter() - t0
    stop.set()
    spinner.join(timeout=10)
    print(f"{label:<44} {seconds:7.3f} s, Python loop beside it {count[0] / seconds / 1e6:.2f} M/s")


def _rules(n, p):
    space = FESpace(unit_square_mesh(n), p)
    stack = np.random.default_rng(0).standard_normal((6, space.n_dof))
    return space, space.ed_nl, stack


def main() -> None:
    rng = np.random.default_rng(0)
    _, big, big_stack = _rules(64, 2)
    _, small, small_stack = _rules(8, 5)
    whole = slice(0, len(big.gdofs))
    value = lambda ed, s, cells: np.einsum("mlt,ql->mtq", s[:, ed.gdofs_lt[:, cells]], ed.vals)
    scale("value einsum mlt,ql->mtq (n=64, p=2), 30x",
          [lambda: [value(big, big_stack, whole) for _ in range(30)]] * 2)
    scale("500 calls of it (n=8, p=5)",
          [lambda: [value(small, small_stack, slice(0, None)) for _ in range(500)]] * 2)
    a = rng.standard_normal((600, 600))
    scale("600^2 matmul, 20x", [lambda: [a @ a for _ in range(20)]] * 2)
    x = rng.standard_normal(4_000_000)
    scale("elementwise multiply of 4e6, 20x", [lambda: [x * x for _ in range(20)]] * 2)
    idx, wts = big.gdofs.ravel(), rng.standard_normal(big.gdofs.size)
    scale("np.bincount of n=64 element rows, 2000x",
          [lambda: [np.bincount(idx, wts) for _ in range(2000)]] * 2)

    space, case = FESpace(unit_square_mesh(32), 2), get_case("smooth")
    lhs = [slab.assemble_slab_lhs(space, *slab.coupling_blocks(3, tau, case.c, case.delta))
           for tau in (0.2, 0.1)]
    lus = [splu(m) for m in lhs]
    rhs = rng.standard_normal(lhs[0].shape[0])
    scale("200 solves on each of two n=32 slab LUs",
          [lambda lu=lu: [lu.solve(rhs) for _ in range(200)] for lu in lus])
    scale("four factorizations of each",
          [lambda m=m: [splu(m) for _ in range(4)] for m in lhs])

    gil_probe("Python loop beside time.sleep(1)", lambda: time.sleep(1))
    gil_probe("... beside four factorizations", lambda: [splu(lhs[0]) for _ in range(4)])
    gil_probe("... beside 200 solves", lambda: [lus[0].solve(rhs) for _ in range(200)])
    gil_probe("... beside 30 value einsums (n=64, p=2)",
              lambda: [value(big, big_stack, whole) for _ in range(30)])

    for n, p, (_, ed, stack) in ((8, 5, (None, small, small_stack)),
                                 (32, 2, _rules(32, 2))):
        cells, calls = slice(0, 512), 2000
        local_lt = stack[:, ed.gdofs_lt[:, cells]]           # (m, nl, nb)
        local = stack[:, ed.gdofs[cells]]                    # (m, nb, nl)
        per_call = lambda run: 1e3 * _best(lambda: [run() for _ in range(calls)]) / calls
        t_einsum = per_call(lambda: np.einsum("mlt,ql->mtq", local_lt, ed.vals))
        t_matmul = per_call(lambda: local @ ed.vals.T)
        t_gather = per_call(lambda: stack[:, ed.gdofs_lt[:, cells]])
        ref = np.einsum("mlt,ql->mtq", local_lt, ed.vals)
        diff = np.abs(local @ ed.vals.T - ref).max() / np.abs(ref).max()
        print(f"field evaluation n={n}, p={p}, {local.shape[1]} elements: einsum "
              f"{t_einsum:.3f} ms, matmul {t_matmul:.3f} ms, the gather before either "
              f"{t_gather:.3f} ms, relative difference {diff:.1e}")

if __name__ == "__main__":
    main()
