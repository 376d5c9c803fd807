"""Span, self-time and per-layer arithmetic of the benchmark's tracer."""

import threading
import types

import pytest

from westbench.layers import layer_metrics
from westbench.tracing import Span, Tracer, covered, self_times


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(0, 4), (1, 2)], 0.0, 10.0) == pytest.approx(4.0)
    # clipped to the parent's interval
    assert covered([(-2, 1), (9, 12)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, "parent", 0.0, 10.0),
             Span(2, "a", 1.0, 4.0, parent=1),
             Span(3, "b", 3.0, 6.0, parent=1),     # overlaps a (another thread)
             Span(4, "c", 2.0, 3.0, parent=2)]     # grandchild: not the parent's child
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_wrappers_nest_record_attrs_and_restore():
    clock = FakeClock()
    mod = types.SimpleNamespace()

    def inner(x):
        clock.advance(2.0)
        return x + 1

    def outer(x):
        clock.advance(1.0)
        return mod.inner(x) * 10

    mod.inner, mod.outer = inner, outer
    tr = Tracer(clock=clock)
    missing = tr.install([(mod, "inner", "inner", lambda a, k, r: {"arg": a[0], "out": r}),
                          (mod, "outer", "outer", None),
                          (mod, "absent", "absent", None)])
    assert len(missing) == 1 and missing[0].endswith(".absent")
    with tr.span("request") as root:
        assert mod.outer(4) == 50
    tr.uninstall()
    assert mod.inner is inner and mod.outer is outer

    by_name = {s.name: s for s in tr.spans}
    assert by_name["outer"].parent == root.id
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].attrs == {"arg": 4, "out": 5}
    assert by_name["outer"].duration == pytest.approx(3.0)
    assert self_times(tr.spans)[by_name["outer"].id] == pytest.approx(1.0)


def test_failed_call_is_recorded_and_reraised():
    tr = Tracer()
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    tr.install([(mod, "f", "f", lambda a, k, r: {"never": True})])
    with pytest.raises(ZeroDivisionError):
        mod.f()
    tr.uninstall()
    assert tr.spans[0].attrs == {"error": "ZeroDivisionError"}


def test_worker_thread_spans_hang_under_the_main_threads_open_span():
    tr = Tracer()
    mod = types.SimpleNamespace(work=lambda: None)
    tr.install([(mod, "work", "work", None)])
    with tr.span("pool") as pool:
        t = threading.Thread(target=mod.work)
        t.start()
        t.join(timeout=10)
    tr.uninstall()
    assert not t.is_alive()
    work = [s for s in tr.spans if s.name == "work"][0]
    assert work.parent == pool.id and work.thread != pool.thread


def _solve(id_, start, end, parent, delta=1e-2, iters=(3, 4)):
    return Span(id_, "cases.run_problem", start, end, parent=parent,
                attrs={"slabs": len(iters), "slab_iterations": list(iters),
                       "reuses": len(iters) - 1, "increment_max": 0.5, "coeff_margin": 0.8,
                       "delta": delta})


def test_layer_metrics_of_a_synthetic_delta_study():
    root = Span(1, "request", 0.0, 12.0)
    spans = [root,
             Span(2, "studies.run_study", 1.0, 11.0, parent=1,
                  attrs={"kind": "delta", "threads": 2, "failures": 0}),
             _solve(3, 1.0, 5.0, 2), _solve(4, 1.0, 4.0, 2),          # pool entries
             _solve(5, 5.0, 7.0, 2, delta=0.0),                       # baseline
             Span(6, "analysis.err_dt", 7.0, 9.0, parent=2),
             Span(7, "slab.lagged_rhs", 2.0, 3.0, parent=3),
             Span(8, "solver.splu", 1.0, 1.5, parent=3, attrs={"nnz": 1000})]
    m = layer_metrics(spans, root)
    assert m["studies.entry_solve_s"] == pytest.approx(7.0)
    assert m["studies.entry_solve.self_s"] == pytest.approx(7.0 - 1.5)
    assert m["studies.baseline_s"] == pytest.approx(2.0)
    assert m["studies.error_s"] == pytest.approx(2.0)
    # entries: 7 s of work on 2 threads over a 4 s pool
    assert m["studies.parallel_efficiency"] == pytest.approx(7.0 / (2 * 4.0))
    assert m["slab.lagged_rhs.calls"] == 1
    assert m["solver.factorizations"] == 1 and m["solver.lu_nnz"] == 1000
    assert m["solver.lu_mb_computed"] == pytest.approx(1000 * 12 / 1e6)
    assert m["solver.factor_reuses"] == 3 and m["solver.reuse_ratio"] == pytest.approx(0.5)
    assert m["solver.iters_max"] == 4
    assert m["bench.unattributed_s"] == pytest.approx(12.0 - 10.0)
