"""Benchmark problems and the manufactured-solution verification oracle.

Case labels: "smooth", "smooth-fast", "standing-wave", "gaussian-pulse".
Smooth cases carry a closed-form solution and the matching source term;
the other two prescribe data only.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral, Real
from typing import Callable, ClassVar, Optional

import numpy as np

from .mesh import unit_square_mesh
from .spacefe import FESpace
from .timefe import TimePartition
from .solver import GUARD, TOL, solve_westervelt


@dataclass(frozen=True)
class ManufacturedCase:
    """Problem data c, k, delta, f, u0 (with its gradient u0_grad), u1 on
    [0, T], and for a smooth case the closed-form solution."""

    name: str
    c: float
    k: float
    delta: float
    T: float
    f: Callable
    u: Optional[Callable] = None
    dtu: Optional[Callable] = None
    grad_u: Optional[Callable] = None
    grad_dtu: Optional[Callable] = None
    u0: Optional[Callable] = None
    u0_grad: Optional[Callable] = None
    u1: Optional[Callable] = None
    tau_default: Optional[float] = None

    def __post_init__(self):
        for key in ("c", "k", "delta", "T"):
            value = getattr(self, key)
            if not _is_finite_real(value):
                raise ValueError(f"case {self.name!r}: {key} must be a finite real number, "
                                 f"got {value!r}")
        if not self.c > 0 or self.delta < 0 or not self.T > 0:
            raise ValueError(f"case {self.name!r}: need c > 0, delta >= 0 and T > 0; got "
                             f"c={self.c}, delta={self.delta}, T={self.T}")
        if (self.u0 is None) != (self.u0_grad is None):
            raise ValueError(f"case {self.name!r}: give u0 and u0_grad together")


def _is_finite_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and bool(np.isfinite(value))


# The smooth cases' spatial factors, memoised per read-only coordinate
# array.  ElementData.sample hands every callable the same two read-only
# views of a rule's points, at every slab and sampled time, so sin(l x),
# cos(l x), sin(l y), cos(l y) and S = sin(l x) sin(l y) are computed once
# per rule and dropped when the rule's arrays are freed.  An entry is keyed
# by what it computes, (factor, l) under the ids of its arrays, never by a
# case, so cases with equal l share it.  The lambdas multiply the factors in
# the order they always did, so every product keeps its bits.
_FACTORS: dict = {}          # (id(a), ...) -> {(factor, l): values}


def _sin_product(ell, x, y):
    return np.sin(ell * x) * np.sin(ell * y)


_FACTOR_BUILDS = {
    "sin": lambda ell, a: np.sin(ell * a),
    "cos": lambda ell, a: np.cos(ell * a),
    "S": _sin_product,
}


def _read_only(a) -> bool:
    """No numpy write can change a: it and every array it views are read-only."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _factor(name: str, ell, *arrays):
    """_FACTOR_BUILDS[name](ell, *arrays), memoised while the arrays live
    if all of them are read-only.  Threads that share a rule need no lock:
    each dict method is atomic, and a race at worst builds a factor twice."""
    if not all(map(_read_only, arrays)):
        return _FACTOR_BUILDS[name](ell, *arrays)
    key = tuple(map(id, arrays))
    entry = _FACTORS.get(key)
    if entry is None:
        entry = _FACTORS.setdefault(key, {})
        for a in arrays:   # the first array to die drops the entry
            weakref.finalize(a, _FACTORS.pop, key, None)
    values = entry.get((name, ell))
    if values is None:
        values = _FACTOR_BUILDS[name](ell, *arrays)
        if isinstance(values, np.ndarray):   # not a numpy scalar, from 0-d arrays
            values.flags.writeable = False
        values = entry.setdefault((name, ell), values)
    return values


def smooth_case(A: float = 1e-2, omega: float = np.pi / 3.0, ell: float = np.pi,
                k: float = 0.5, c: float = 1.0, delta: float = 6e-9,
                T: float = 1.0, name: str = "smooth") -> ManufacturedCase:
    """u = A sin(omega t) sin(ell x) sin(ell y) with the matching source

        f = -A w^2 sin(wt) S + k A^2 w^2 cos(2wt) S^2
            + 2 c^2 l^2 A sin(wt) S + 2 delta l^2 A w cos(wt) S.
    """
    S, sin, cos = (partial(_factor, name, ell) for name in ("S", "sin", "cos"))

    # f and u1 are sampled on the solve's rules, whose arrays live through
    # the slab LU, so they compute S at every call: a memoised S would add to
    # the solve's peak memory and save a few sines per slab
    def f(x, y, t):
        s = _sin_product(ell, x, y)
        return (-A * omega ** 2 * np.sin(omega * t) * s
                + k * A ** 2 * omega ** 2 * np.cos(2.0 * omega * t) * s * s
                + 2.0 * c * c * ell * ell * A * np.sin(omega * t) * s
                + 2.0 * delta * ell * ell * A * omega * np.cos(omega * t) * s)

    return ManufacturedCase(
        name=name, c=c, k=k, delta=delta, T=T, f=f,
        u=lambda x, y, t: A * np.sin(omega * t) * S(x, y),
        dtu=lambda x, y, t: A * omega * np.cos(omega * t) * S(x, y),
        grad_u=lambda x, y, t: (A * np.sin(omega * t) * ell * cos(x) * sin(y),
                                A * np.sin(omega * t) * ell * sin(x) * cos(y)),
        grad_dtu=lambda x, y, t: (A * omega * np.cos(omega * t) * ell * cos(x) * sin(y),
                                  A * omega * np.cos(omega * t) * ell * sin(x) * cos(y)),
        u0=None, u0_grad=None,   # sin(0) = 0: zero initial displacement
        u1=lambda x, y: A * omega * _sin_product(ell, x, y))


smooth_fast_case = partial(smooth_case, omega=4.5 * np.pi, name="smooth-fast")


def standing_wave_case(k: float = 0.3, c: float = 1.0, delta: float = 0.0,
                       T: float = 1.0) -> ManufacturedCase:
    """Unforced standing wave: u0 = 1e-2 sin(pi x) sin(pi y), u1 = sin(pi x) sin(pi y)."""
    S = partial(_sin_product, np.pi)
    return ManufacturedCase(
        name="standing-wave", c=c, k=k, delta=delta, T=T,
        f=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
        u0=lambda x, y: 1e-2 * S(x, y),
        u0_grad=lambda x, y: (1e-2 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                              1e-2 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)),
        u1=S)


def gaussian_pulse_case(a: float = 400.0, alpha: float = 5e4, sigma: float = 3e-2,
                        k: float = -10.0, c: float = 2000.0, delta: float = 1e-6,
                        T: float = 2e-4) -> ManufacturedCase:
    """Exponentially decaying Gaussian source centered in the square, zero data."""
    def f(x, y, t):
        r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
        return a / np.sqrt(sigma) * np.exp(-alpha * t) * np.exp(-r2 / (2.0 * sigma ** 2))

    return ManufacturedCase(name="gaussian-pulse", c=c, k=k, delta=delta, T=T,
                            f=f, tau_default=1e-5)


CASES = {
    "smooth": smooth_case,
    "smooth-fast": smooth_fast_case,
    "standing-wave": standing_wave_case,
    "gaussian-pulse": gaussian_pulse_case,
}


def get_case(label: str, **overrides) -> ManufacturedCase:
    """The case `label` with keyword parameters of its factory overridden;
    every override value must be a finite real number."""
    if not isinstance(label, str) or label not in CASES:
        raise ValueError(f"unknown case {label!r}; choose from {sorted(CASES)}")
    bad = {key: value for key, value in overrides.items() if not _is_finite_real(value)}
    if bad:
        raise ValueError(f"case {label!r}: overrides must be finite real numbers, got {bad}")
    return CASES[label](**overrides)


# -- problem configuration -------------------------------------------


@dataclass(frozen=True)
class ProblemConfig:
    """One solver run: a case plus its discretization.  The fixed-point
    policy is the solver's (solver.S_MAX, TOL, GUARD), not an option."""

    case: ManufacturedCase
    n: int
    p: int
    q: int
    tau: float
    # the uniform slabs of [0, T]; building them checks that tau > 0 divides T
    partition: TimePartition = field(init=False, repr=False, compare=False)
    # not fields: constants for readers of a config, such as the benchmark's probes
    tol: ClassVar[float] = TOL
    guard: ClassVar[float] = GUARD

    def __post_init__(self):
        if not all(isinstance(v, Integral) and not isinstance(v, bool)
                   for v in (self.n, self.p, self.q)):
            raise ValueError(f"n, p, q must be integers; got {self.n!r}, {self.p!r}, {self.q!r}")
        if self.n < 1 or self.p < 1 or self.q < 2:
            raise ValueError(f"need n >= 1, p >= 1, q >= 2; got n={self.n}, p={self.p}, q={self.q}")
        object.__setattr__(self, "partition", TimePartition.uniform(self.case.T, self.tau))

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        d = dict(d)
        label = d.pop("case")
        overrides = {key: d.pop(key) for key in ("delta", "k", "c", "T") if key in d}
        case = get_case(label, **overrides)
        if "tau" not in d and case.tau_default is not None:
            d["tau"] = case.tau_default
        return cls(case=case, **d)


def run_problem(config: ProblemConfig, space: FESpace | None = None):
    """Solve a configured problem; returns (space, partition, solution, report)."""
    if space is None:
        space = FESpace(unit_square_mesh(config.n), config.p)
    sol, rep = solve_westervelt(space, config.partition, config.q, config.case)
    return space, config.partition, sol, rep


# -- manufactured-solution residual oracle ---------------------------


def verify_manufactured(case: ManufacturedCase) -> dict:
    """Check dt((1+k u) dt u) - c^2 Lap u - delta Lap dt u = f at 200 seeded
    random interior space-time points by differencing u with step 1e-4.

    First time derivatives use a complex step (no cancellation), second
    derivatives fourth-order central differences, so the residual resolves
    well below 1e-6 * max|f|.
    """
    if case.u is None:
        raise ValueError(f"case {case.name!r} has no closed-form solution to verify")
    n_samples, step = 200, 1e-4
    rng = np.random.default_rng(0)
    x = 0.05 + 0.9 * rng.random(n_samples)
    y = 0.05 + 0.9 * rng.random(n_samples)
    t = (2 * step + (case.T - 4 * step) * rng.random(n_samples))
    u, h = case.u, step

    def dt_cs(xx, yy, tt):
        # complex-step first derivative in time
        return np.imag(u(xx, yy, tt + 1e-20j)) / 1e-20

    def d2(g, axis):
        # g at the point shifted by m h along axis 0 (x), 1 (y) or 2 (t)
        at = lambda m: g(*(v + m * h if i == axis else v for i, v in enumerate((x, y, t))))
        return (-at(2) + 16 * at(1) - 30 * at(0) + 16 * at(-1) - at(-2)) / (12 * h * h)

    ut = dt_cs(x, y, t)
    utt = d2(u, 2)
    lap_u = d2(u, 0) + d2(u, 1)
    lap_ut = d2(dt_cs, 0) + d2(dt_cs, 1)
    uv = u(x, y, t)
    res = ((1.0 + case.k * uv) * utt + case.k * ut * ut
           - case.c ** 2 * lap_u - case.delta * lap_ut - case.f(x, y, t))
    f_max = float(np.abs(case.f(x, y, t)).max())
    r_max = float(np.abs(res).max())
    return {"case": case.name, "n_samples": n_samples, "step": step,
            "residual_max": r_max, "f_max": f_max,
            "residual_rel": r_max / f_max if f_max > 0 else np.inf}
