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


# -- the smooth cases' factor cache ------------------------------------


def _space(n=3, p=2):
    from westfem.mesh import unit_square_mesh
    from westfem.spacefe import FESpace
    return FESpace(unit_square_mesh(n), p)


def _uncached(label):
    """f, dtu and grad_u of `label` with the case defaults, written out."""
    w = {"smooth": np.pi / 3.0, "smooth-fast": 4.5 * np.pi}[label]
    A, l, k, c, d = 1e-2, np.pi, 0.5, 1.0, 6e-9

    def f(x, y, t):
        s = np.sin(l * x) * np.sin(l * y)
        return (-A * w ** 2 * np.sin(w * t) * s
                + k * A ** 2 * w ** 2 * np.cos(2.0 * w * t) * s * s
                + 2.0 * c * c * l * l * A * np.sin(w * t) * s
                + 2.0 * d * l * l * A * w * np.cos(w * t) * s)

    return {"f": f,
            "dtu": lambda x, y, t: A * w * np.cos(w * t) * (np.sin(l * x) * np.sin(l * y)),
            "grad_u": lambda x, y, t: (A * np.sin(w * t) * l * np.cos(l * x) * np.sin(l * y),
                                       A * np.sin(w * t) * l * np.sin(l * x) * np.cos(l * y))}


@pytest.mark.parametrize("label", ["smooth", "smooth-fast"])
def test_cached_factors_give_the_uncached_bits(label):
    case, space = get_case(label), _space()
    for rule in ("ed_lin", "ed_nl", "ed_err"):
        ed = getattr(space, rule)
        x, y = (np.array(a) for a in ed.xy)          # writeable copies: never cached
        for t in (0.3, np.linspace(0.0, 1.0, 4)):
            tt = t[:, None, None] if np.ndim(t) else t
            for name, g in _uncached(label).items():
                want = g(x, y, tt)
                for _ in range(2):                     # the call that fills the cache, then a hit
                    got = ed.sample(getattr(case, name), t)
                    if isinstance(want, tuple):
                        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (rule, name)
                    else:
                        assert np.array_equal(got, want), (rule, name)


def test_writeable_coordinates_are_not_memoised():
    case = get_case("smooth")
    x, y = np.array([0.25, 0.5]), np.array([0.5, 0.5])
    before = case.u(x, y, 1.5)
    x[:] = 0.5
    assert np.array_equal(case.u(x, y, 1.5), case.u(np.array([0.5, 0.5]), y, 1.5))
    assert not np.array_equal(case.u(x, y, 1.5), before)
    point = np.array(0.25)                               # read-only 0-d: memoised too
    point.flags.writeable = False
    assert case.u(point, point, 1.5) == case.u(0.25, 0.25, 1.5)
    assert case.grad_u(point, point, 1.5) == case.grad_u(0.25, 0.25, 1.5)


def test_two_spaces_keep_their_own_factors():
    case = get_case("smooth")
    a, b = _space(3, 2).ed_err, _space(3, 2).ed_err
    for ed in (a, b):
        ed.sample(case.grad_u, 0.3)
    for name in ("sin", "cos"):
        fa, fb = (cases._factor(name, np.pi, ed.xy[0]) for ed in (a, b))
        assert fa is not fb and np.array_equal(fa, fb)
        assert cases._factor(name, np.pi, a.xy[0]) is fa
    for n in (2, 4):
        ed = _space(n, 1).ed_err
        assert ed.sample(case.dtu, 0.3).shape == ed.xy[0].shape == (2 * n * n, len(ed.w))


def test_factors_die_with_their_space():
    import gc
    import weakref

    case = get_case("smooth")
    gc.collect()
    entries = len(cases._FACTORS)
    space = _space()
    ed = space.ed_err
    alive = weakref.ref(ed)
    # f and u1 are sampled on the solve's rules and memoise nothing
    ed.sample(case.f, np.linspace(0.0, 1.0, 3))
    ed.sample(case.u1)
    assert len(cases._FACTORS) == entries
    ed.sample(case.grad_u, 0.5)
    assert len(cases._FACTORS) > entries
    del space, ed
    gc.collect()
    assert alive() is None and case.f is not None
    assert len(cases._FACTORS) == entries


def test_equal_ell_shares_factors(monkeypatch):
    ed = _space().ed_err
    get_case("smooth").dtu(*ed.xy, 0.1)
    get_case("smooth").grad_u(*ed.xy, 0.1)
    builds = []
    for name, build in list(cases._FACTOR_BUILDS.items()):
        monkeypatch.setitem(cases._FACTOR_BUILDS, name,
                            lambda *a, name=name, build=build: builds.append(name) or build(*a))
    for other in (get_case("smooth", delta=0.1, k=-1.0), get_case("smooth-fast")):
        other.dtu(*ed.xy, 0.2)
        other.grad_u(*ed.xy, np.array([0.1, 0.2])[:, None, None])
    assert builds == []
    get_case("smooth", ell=2.0).dtu(*ed.xy, 0.2)
    assert builds == ["S"]


def test_threads_sharing_a_rule_read_one_set_of_factors():
    import sys
    import threading

    case, ed = get_case("smooth"), _space(4, 2).ed_err
    x, y = (np.array(a) for a in ed.xy)
    want = _uncached("smooth")
    results, errors = [], []

    def work():
        try:
            for t in (0.1, 0.2, 0.3):
                results.append((t, ed.sample(case.dtu, t), ed.sample(case.grad_u, t)))
        except Exception as exc:                       # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(th.is_alive() for th in threads)
    assert len(results) == 18
    for t, dtu, (gx, gy) in results:
        assert np.array_equal(dtu, want["dtu"](x, y, t))
        assert np.array_equal(gx, want["grad_u"](x, y, t)[0])
        assert np.array_equal(gy, want["grad_u"](x, y, t)[1])
    # one entry per set of arrays, holding each factor once
    assert set(cases._FACTORS[tuple(map(id, ed.xy))]) == {("S", np.pi)}
    for a in ed.xy:
        assert set(cases._FACTORS[(id(a),)]) == {("sin", np.pi), ("cos", np.pi)}
