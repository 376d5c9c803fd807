"""Benchmark problems and the manufactured-solution verification oracle.

Case labels: "smooth", "smooth-fast", "standing-wave", "gaussian-pulse".
Smooth cases carry a closed-form solution and the matching source term;
the other two prescribe data only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import unit_square_mesh
from .spacefe import FESpace
from .timefe import TimePartition
from .solver import (GUARD_DEFAULT, S_MAX_DEFAULT, TOL_DEFAULT, solve_westervelt)


@dataclass(frozen=True)
class ManufacturedCase:
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

    def replace(self, **kw) -> "ManufacturedCase":
        return dataclasses.replace(self, **kw)


def smooth_case(A: float = 1e-2, omega: float = np.pi / 3.0, ell: float = np.pi,
                k: float = 0.5, c: float = 1.0, delta: float = 6e-9,
                T: float = 1.0, name: str = "smooth") -> ManufacturedCase:
    """u = A sin(omega t) sin(ell x) sin(ell y) with the matching source

        f = -A w^2 sin(wt) S + k A^2 w^2 cos(2wt) S^2
            + 2 c^2 l^2 A sin(wt) S + 2 delta l^2 A w cos(wt) S.
    """
    def S(x, y):
        return np.sin(ell * x) * np.sin(ell * y)

    def f(x, y, t):
        s = S(x, y)
        return (-A * omega ** 2 * np.sin(omega * t) * s
                + k * A ** 2 * omega ** 2 * np.cos(2.0 * omega * t) * s * s
                + 2.0 * c * c * ell * ell * A * np.sin(omega * t) * s
                + 2.0 * delta * ell * ell * A * omega * np.cos(omega * t) * s)

    return ManufacturedCase(
        name=name, c=c, k=k, delta=delta, T=T, f=f,
        u=lambda x, y, t: A * np.sin(omega * t) * S(x, y),
        dtu=lambda x, y, t: A * omega * np.cos(omega * t) * S(x, y),
        grad_u=lambda x, y, t: (A * np.sin(omega * t) * ell * np.cos(ell * x) * np.sin(ell * y),
                                A * np.sin(omega * t) * ell * np.sin(ell * x) * np.cos(ell * y)),
        grad_dtu=lambda x, y, t: (A * omega * np.cos(omega * t) * ell * np.cos(ell * x) * np.sin(ell * y),
                                  A * omega * np.cos(omega * t) * ell * np.sin(ell * x) * np.cos(ell * y)),
        u0=None, u0_grad=None,   # sin(0) = 0: zero initial displacement
        u1=lambda x, y: A * omega * S(x, y))


def smooth_fast_case(**kw) -> ManufacturedCase:
    kw.setdefault("omega", 4.5 * np.pi)
    kw.setdefault("name", "smooth-fast")
    return smooth_case(**kw)


def standing_wave_case(k: float = 0.3, c: float = 1.0, delta: float = 0.0,
                       T: float = 1.0) -> ManufacturedCase:
    """Unforced standing wave: u0 = 1e-2 sin(pi x) sin(pi y), u1 = sin(pi x) sin(pi y)."""
    def S(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

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
        return (a / np.sqrt(sigma) * np.exp(-alpha * t)
                * np.exp(-r2 / (2.0 * sigma ** 2)) * np.ones(np.broadcast(x, y).shape))

    return ManufacturedCase(name="gaussian-pulse", c=c, k=k, delta=delta, T=T,
                            f=f, tau_default=1e-5)


CASES = {
    "smooth": smooth_case,
    "smooth-fast": smooth_fast_case,
    "standing-wave": standing_wave_case,
    "gaussian-pulse": gaussian_pulse_case,
}


def get_case(label: str, **overrides) -> ManufacturedCase:
    if label not in CASES:
        raise ValueError(f"unknown case {label!r}; choose from {sorted(CASES)}")
    return CASES[label](**overrides)


# -- problem configuration -------------------------------------------


@dataclass
class ProblemConfig:
    """One solver run: a case plus discretization and solver controls."""

    case: ManufacturedCase
    n: int
    p: int
    q: int
    tau: float
    s_max: int = S_MAX_DEFAULT
    tol: float = TOL_DEFAULT
    guard: float = GUARD_DEFAULT

    def __post_init__(self):
        if self.n < 1 or self.p < 1 or self.q < 2:
            raise ValueError(f"need n >= 1, p >= 1, q >= 2; got n={self.n}, p={self.p}, q={self.q}")
        TimePartition.uniform(self.case.T, self.tau)   # tau > 0 and divides T

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        d = dict(d)
        label = d.pop("case")
        overrides = {key: d.pop(key) for key in ("delta", "k", "c", "T") if key in d}
        case = get_case(label, **overrides) if isinstance(label, str) else label
        if "tau" not in d and case.tau_default is not None:
            d["tau"] = case.tau_default
        return cls(case=case, **d)


def run_problem(config: ProblemConfig, space: FESpace | None = None,
                check_residual: bool = False):
    """Solve a configured problem; returns (space, partition, solution, report)."""
    case = config.case
    if space is None:
        space = FESpace(unit_square_mesh(config.n), config.p)
    part = TimePartition.uniform(case.T, config.tau)
    sol, rep = solve_westervelt(
        space, part, config.q, c=case.c, k=case.k, delta=case.delta, f=case.f,
        u0=case.u0, u0_grad=case.u0_grad, u1=case.u1,
        s_max=config.s_max, tol=config.tol, guard=config.guard,
        check_residual=check_residual)
    return space, part, sol, rep


# -- manufactured-solution residual oracle ---------------------------


def verify_manufactured(case: ManufacturedCase, n_samples: int = 200,
                        step: float = 1e-4, seed: int = 0) -> dict:
    """Check dt((1+k u) dt u) - c^2 Lap u - delta Lap dt u = f at random
    interior space-time points by differencing the stored exact solution.

    First time derivatives use a complex step (no cancellation), second
    derivatives fourth-order central differences, so the residual resolves
    well below 1e-6 * max|f|.
    """
    if case.u is None:
        raise ValueError(f"case {case.name!r} has no closed-form solution to verify")
    rng = np.random.default_rng(seed)
    x = 0.05 + 0.9 * rng.random(n_samples)
    y = 0.05 + 0.9 * rng.random(n_samples)
    t = (2 * step + (case.T - 4 * step) * rng.random(n_samples))
    u, h = case.u, step

    def dt_cs(xx, yy, tt):
        # complex-step first derivative in time
        return np.imag(u(xx, yy, tt + 1e-20j)) / 1e-20

    def d2(g, which):
        if which == "t":
            return (-g(x, y, t + 2 * h) + 16 * g(x, y, t + h) - 30 * g(x, y, t)
                    + 16 * g(x, y, t - h) - g(x, y, t - 2 * h)) / (12 * h * h)
        if which == "x":
            return (-g(x + 2 * h, y, t) + 16 * g(x + h, y, t) - 30 * g(x, y, t)
                    + 16 * g(x - h, y, t) - g(x - 2 * h, y, t)) / (12 * h * h)
        return (-g(x, y + 2 * h, t) + 16 * g(x, y + h, t) - 30 * g(x, y, t)
                + 16 * g(x, y - h, t) - g(x, y - 2 * h, t)) / (12 * h * h)

    ut = dt_cs(x, y, t)
    utt = d2(u, "t")
    lap_u = d2(u, "x") + d2(u, "y")
    lap_ut = d2(dt_cs, "x") + d2(dt_cs, "y")
    uv = u(x, y, t)
    res = ((1.0 + case.k * uv) * utt + case.k * ut * ut
           - case.c ** 2 * lap_u - case.delta * lap_ut - case.f(x, y, t))
    f_max = float(np.abs(case.f(x, y, t)).max())
    r_max = float(np.abs(res).max())
    return {"case": case.name, "n_samples": n_samples, "step": step,
            "residual_max": r_max, "f_max": f_max,
            "residual_rel": r_max / f_max if f_max > 0 else np.inf}
