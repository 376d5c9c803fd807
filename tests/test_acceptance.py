"""Acceptance gate: the six primary correctness criteria at desk scale.

Each test evaluates one criterion at its stated tolerance and prints a
single PASS/FAIL line with the measured numbers before asserting, so the
whole gate reads as six lines under ``pytest tests/test_acceptance.py -s``.
Criterion 2's tau study also feeds `test_tau_rates`, which pins the rate
pairing the scheme attains; the study runs once per q for both.
"""

import numpy as np
import pytest

from westfem.analysis import err_linf_l2
from westfem.cases import ProblemConfig, get_case, run_problem
from westfem.errors import DegenerateCoefficient
from westfem.studies import StudySpec, run_study


def _emit(cid, ok, detail):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def test_criterion_1_h_convergence():
    # smooth case, q=3, tau=0.2, n in {4,8,16,32}, p in {1,2}: final-level
    # EOC within +-0.25 of p+1 for err_dt and of p for err_grad
    checks, parts = [], []
    for p in (1, 2):
        spec = StudySpec(kind="h", case="smooth", sweep=[4, 8, 16, 32],
                         fixed={"p": p, "q": 3, "tau": 0.2})
        result = run_study(spec)
        assert not result.failures
        last = result.rows[-1]
        ok_dt = abs(last["eoc_dt"] - (p + 1)) <= 0.25
        ok_gr = abs(last["eoc_grad"] - p) <= 0.25
        checks += [ok_dt, ok_gr]
        parts.append(f"p={p}: eoc_dt={last['eoc_dt']} (want {p + 1}±0.25), "
                     f"eoc_grad={last['eoc_grad']} (want {p}±0.25)")
    detail = "; ".join(parts)
    _emit("criterion-1 h-convergence", all(checks), detail)
    assert all(checks), detail


@pytest.fixture(scope="module")
def tau_studies():
    """Criterion 2's tau study, one result per q."""
    taus = [0.5 * 2.0 ** -i for i in range(1, 5)]
    return {q: run_study(StudySpec(kind="tau", case="smooth-fast", sweep=taus,
                                   fixed={"n": 5, "p": 5, "q": q}))
            for q in (2, 3)}


def test_criterion_2_tau_convergence(tau_studies):
    # smooth-fast case, p=5, n=5, tau = 0.5 * 2^-i for i=1..4, q in {2,3}:
    # final-level EOC within +-0.3 of q+1 for err_dt and of q for err_grad
    checks, parts = [], []
    for q in (2, 3):
        result = tau_studies[q]
        assert not result.failures
        last = result.rows[-1]
        ok_dt = abs(last["eoc_dt"] - (q + 1)) <= 0.3
        ok_gr = abs(last["eoc_grad"] - q) <= 0.3
        checks += [ok_dt, ok_gr]
        parts.append(f"q={q}: eoc_dt={last['eoc_dt']} (want {q + 1}±0.3), "
                     f"eoc_grad={last['eoc_grad']} (want {q}±0.3)")
    detail = "; ".join(parts)
    _emit("criterion-2 tau-convergence", all(checks), detail)
    assert all(checks), detail


def test_criterion_3_delta_convergence():
    # standing-wave case, p in {1,2}, q=4, n=10, tau=0.1,
    # delta in {1e-2,1e-4,1e-6}: every EOC of both errors in [0.85, 1.15]
    checks, parts = [], []
    for p in (1, 2):
        spec = StudySpec(kind="delta", case="standing-wave",
                         sweep=[1e-2, 1e-4, 1e-6],
                         fixed={"n": 10, "p": p, "q": 4, "tau": 0.1})
        result = run_study(spec)
        assert not result.failures
        rates = result.summary["eoc_dt"] + result.summary["eoc_grad"]
        checks.append(all(0.85 <= r <= 1.15 for r in rates))
        parts.append(f"p={p}: eoc_dt={result.summary['eoc_dt']}, "
                     f"eoc_grad={result.summary['eoc_grad']}")
    detail = "; ".join(parts) + " (want all in [0.85, 1.15])"
    _emit("criterion-3 delta-convergence", all(checks), detail)
    assert all(checks), detail


def test_criterion_4_p_convergence():
    # smooth-fast case on the n=5 mesh, tau = h/sqrt(2) = 0.2, p = q in 2..6:
    # err_dt strictly decreasing, and by >= 3x over each of the last three
    # degree increments (exponential-regime proxy)
    errs = []
    for p in range(2, 7):
        cfg = ProblemConfig(case=get_case("smooth-fast"), n=5, p=p, q=p, tau=0.2)
        _, _, sol, _ = run_problem(cfg)
        errs.append(err_linf_l2(sol, cfg.case, "dt"))
    ratios = [errs[i - 1] / errs[i] for i in range(1, len(errs))]
    ok = (all(a > b for a, b in zip(errs, errs[1:]))
          and all(r >= 3.0 for r in ratios[-3:]))
    detail = (f"err_dt={['%.3e' % e for e in errs]}, "
              f"ratios={['%.2f' % r for r in ratios]} (want last three >= 3)")
    _emit("criterion-4 p-convergence", ok, detail)
    assert ok, detail


def test_criterion_5_large_timestep_robustness():
    # q=2, T=100, tau=T/5=20 (far above any tau ~ h restriction),
    # n in {4,8,16}, p in {1,2,3}: finite errors, no degeneracy
    case = get_case("smooth", T=100.0)
    worst, bad = 0.0, []
    for p in (1, 2, 3):
        for n in (4, 8, 16):
            cfg = ProblemConfig(case=case, n=n, p=p, q=2, tau=20.0)
            try:
                _, _, sol, rep = run_problem(cfg)
            except DegenerateCoefficient:
                bad.append(f"p={p},n={n}:degenerate")
                continue
            e_dt = err_linf_l2(sol, case, "dt")
            e_gr = err_linf_l2(sol, case, "grad")
            if not (np.isfinite(e_dt) and np.isfinite(e_gr)):
                bad.append(f"p={p},n={n}:non-finite")
            if any(info.coeff_min <= 0.1 for info in rep.slabs):
                bad.append(f"p={p},n={n}:near-degenerate")
            worst = max(worst, e_dt, e_gr)
    ok = not bad
    detail = f"9 runs, max error {worst:.3e}, flags: {bad or 'none'}"
    _emit("criterion-5 large-timestep-robustness", ok, detail)
    assert ok, detail


def test_criterion_6_property_suites(verify_report):
    failed = [s.name for s in verify_report.suites if not s.passed]
    ok = verify_report.passed and len(verify_report.suites) >= 12
    detail = f"{len(verify_report.suites)} suites, failing: {failed or 'none'}"
    _emit("criterion-6 property-suites", ok, detail)
    assert ok, detail


# the attained pairing, criterion 2's transposed (README "Tests")
@pytest.mark.parametrize("q", [2, 3])
def test_tau_rates(tau_studies, q):
    result = tau_studies[q]
    assert not result.failures
    last = result.rows[-1]
    assert abs(last["eoc_dt"] - q) <= 0.3, last
    assert abs(last["eoc_grad"] - (q + 1)) <= 0.3, last
