"""Manufactured problems: forcing consistency and configuration handling."""

import dataclasses

import numpy as np
import pytest

import westfem.cases as cases
from westfem.cases import (CASES, ManufacturedCase, ProblemConfig, get_case,
                           smooth_case, verify_manufactured)


@pytest.mark.parametrize("label", ["smooth", "smooth-fast"])
def test_forcing_matches_stored_solution(label):
    # independent check: difference the closed-form u and compare against f
    out = verify_manufactured(get_case(label))
    assert out["residual_rel"] < 1e-6, out


def test_corrupted_forcing_is_detected():
    case = get_case("smooth")
    broken = dataclasses.replace(case, f=lambda x, y, t: case.f(x, y, t) * 1.001)
    out = verify_manufactured(broken)
    assert out["residual_rel"] > 1e-4  # the check has teeth


def test_standing_wave_has_no_closed_form():
    case = get_case("standing-wave")
    assert case.u is None
    with pytest.raises(ValueError):
        verify_manufactured(case)


def test_gaussian_pulse_parameters():
    case = get_case("gaussian-pulse")
    assert case.u is None
    assert case.k < 0 and case.c > 1  # focused-ultrasound regime
    assert case.tau_default is not None


def test_case_registry():
    assert {"smooth", "smooth-fast", "standing-wave", "gaussian-pulse"} <= set(CASES)
    with pytest.raises(ValueError):
        get_case("no-such-case")


def test_case_overrides():
    case = get_case("smooth", delta=0.5, k=0.0, T=2.0)
    assert case.delta == 0.5 and case.k == 0.0 and case.T == 2.0
    # the forcing must track the overridden coefficients
    assert verify_manufactured(case)["residual_rel"] < 1e-6


@pytest.mark.parametrize("label,overrides", [
    ("smooth", {"A": "x"}), ("smooth", {"k": None}), ("smooth", {"c": True}),
    ("smooth", {"omega": float("inf")}), ("gaussian-pulse", {"a": np.nan}),
], ids=["override-string", "override-none", "override-bool", "override-infinite",
        "override-nan"])
def test_get_case_rejects_bad_override(label, overrides):
    with pytest.raises(ValueError, match="overrides"):
        get_case(label, **overrides)


@pytest.mark.parametrize("bad", [{"c": 0.0}, {"c": -1.0}, {"delta": -1e-9}, {"T": 0.0},
                                 {"k": float("nan")}, {"c": "1"}, {"delta": None},
                                 {"k": False}],
                         ids=["c-zero", "c-negative", "delta-negative", "T-zero",
                              "k-nan", "c-string", "delta-none", "k-bool"])
def test_case_rejects_bad_coefficients(bad):
    fields = {"name": "bad", "c": 1.0, "k": 0.0, "delta": 0.0, "T": 1.0,
              "f": lambda x, y, t: 0.0 * x, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        ManufacturedCase(**fields)


def test_smooth_fast_is_smooth_with_higher_frequency():
    slow, fast = get_case("smooth"), get_case("smooth-fast")
    assert fast.c == slow.c and fast.k == slow.k
    x, y = np.array([0.3]), np.array([0.4])
    # oscillates faster in time: more sign changes over [0, 1]
    ts = np.linspace(0, 1, 400)
    slow_vals = slow.u(x, y, ts)
    fast_vals = fast.u(x, y, ts)
    assert np.sum(np.abs(np.diff(np.sign(fast_vals)))) > np.sum(
        np.abs(np.diff(np.sign(slow_vals))))


def test_config_rejects_bad_tau():
    case = smooth_case()
    with pytest.raises(ValueError):
        ProblemConfig(case=case, n=2, p=1, q=2, tau=0.3)  # 0.3 does not divide 1
    with pytest.raises(ValueError):
        ProblemConfig(case=case, n=2, p=1, q=2, tau=0)


def test_config_rejects_bad_orders():
    case = smooth_case()
    with pytest.raises(ValueError):
        ProblemConfig(case=case, n=2, p=0, q=2, tau=0.5)
    with pytest.raises(ValueError):
        ProblemConfig(case=case, n=2, p=1, q=1, tau=0.5)
    # orders and mesh counts are integers; a float or bool is not rounded
    for bad in ({"n": 4.5}, {"p": 2.0}, {"q": 3.0}, {"n": True}):
        with pytest.raises(ValueError, match="must be integers"):
            ProblemConfig(**{"case": case, "n": 2, "p": 1, "q": 2, "tau": 0.5, **bad})
    assert ProblemConfig(case=case, n=np.int64(2), p=1, q=2, tau=0.5).n == 2


@pytest.mark.parametrize("key,value", [("s_max", 2), ("tol", 1e-3), ("guard", 0.5)])
def test_config_rejects_fixed_point_policy_keys(key, value):
    # the iteration cap, tolerance and guard are the solver's, not inputs
    with pytest.raises(TypeError, match=key):
        ProblemConfig.from_dict({"case": "smooth", "n": 2, "p": 1, "q": 2, "tau": 0.5,
                                 key: value})


def test_config_exposes_solver_policy():
    from westfem.solver import GUARD, TOL
    cfg = ProblemConfig(case=smooth_case(), n=2, p=1, q=2, tau=0.5)
    assert (cfg.tol, cfg.guard) == (TOL, GUARD) == (1e-12, 0.1)


def test_config_is_frozen_and_carries_its_partition(monkeypatch):
    cfg = ProblemConfig(case=smooth_case(), n=2, p=1, q=2, tau=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tau = 0.25
    assert np.array_equal(cfg.partition.breakpoints, [0.0, 0.5, 1.0])
    built = []
    real = cases.TimePartition.uniform
    monkeypatch.setattr(cases.TimePartition, "uniform",
                        lambda *args: built.append(args) or real(*args))
    assert cases.run_problem(cfg)[1] is cfg.partition
    assert built == []


def test_initial_value_needs_its_gradient():
    w = lambda x, y: x * (1 - x) * y * (1 - y)
    gw = lambda x, y: ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y))
    f = lambda x, y, t: 0.0 * x
    with pytest.raises(ValueError, match="u0_grad"):
        ManufacturedCase(name="bad", c=1.0, k=0.0, delta=0.0, T=1.0, f=f, u0=w)
    with pytest.raises(ValueError, match="u0_grad"):
        ManufacturedCase(name="bad", c=1.0, k=0.0, delta=0.0, T=1.0, f=f, u0_grad=gw)
    ManufacturedCase(name="ok", c=1.0, k=0.0, delta=0.0, T=1.0, f=f, u0=w, u0_grad=gw)


def test_config_from_dict():
    cfg = ProblemConfig.from_dict(
        {"case": "smooth", "n": 4, "p": 2, "q": 3, "tau": 0.25, "delta": 1e-3})
    assert cfg.case.delta == 1e-3
    assert (cfg.n, cfg.p, cfg.q, cfg.tau) == (4, 2, 3, 0.25)


def test_config_from_dict_uses_case_default_tau():
    cfg = ProblemConfig.from_dict({"case": "gaussian-pulse", "n": 2, "p": 1, "q": 2})
    assert cfg.tau == get_case("gaussian-pulse").tau_default
