"""Temporal discretization: slab partitions, shifted Legendre bases, the
start-anchored trial basis of the DG-CG scheme, the per-slab L2
projection, the derivative-matching projection P_tau, and the jump-control
constant zeta_q of the stability analysis.

All slab-local polynomials are expanded in shifted Legendre modes
Lt_j(s) = P_j(2s-1) on the unit slab coordinate s in [0,1], so L2
projection is coefficient truncation and modal coefficients decouple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .refelem import cached_once, gauss_interval


# -- partitions -------------------------------------------------------


@dataclass(frozen=True)
class TimePartition:
    breakpoints: np.ndarray  # (N+1,), strictly increasing, t_0 = 0
    taus: np.ndarray         # (N,) slab lengths

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be finite and strictly increasing, length >= 2")
        if bp[0] != 0.0:
            raise ValueError(f"the first breakpoint is t_0 = 0, got {bp[0]}")
        taus = np.array(self.taus, dtype=float)
        # the tolerance of `uniform`, so its shared tau passes
        tol = 1e-12 * max(1.0, bp[-1])
        if taus.shape != (bp.size - 1,) or np.any(np.abs(taus - np.diff(bp)) > tol):
            raise ValueError("taus must be the slab lengths np.diff(breakpoints)")
        # a length within tol of an earlier one takes the value of the first
        # such slab, so slabs of equal length share one slab operator: the
        # first free slab starts a length and takes every free slab near it
        free = np.ones(taus.size, dtype=bool)
        while free.any():
            i = int(np.argmax(free))
            near = free & (np.abs(taus - taus[i]) <= tol)
            taus[near] = taus[i]
            free &= ~near
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "taus", taus)

    @classmethod
    def uniform(cls, T: float, tau: float) -> "TimePartition":
        """Uniform partition; tau must divide T to within 1e-12."""
        if not (0 < T < np.inf and 0 < tau < np.inf):
            raise ValueError(f"need finite T, tau > 0, got T={T}, tau={tau}")
        nsl = int(round(T / tau))
        if nsl < 1 or abs(nsl * tau - T) > 1e-12 * max(1.0, abs(T)):
            raise ValueError(f"tau={tau} does not divide T={T}")
        # store one shared tau so uniform slabs compare equal bit-for-bit
        return cls(np.linspace(0.0, T, nsl + 1), np.full(nsl, tau))

    @classmethod
    def from_breakpoints(cls, bp) -> "TimePartition":
        bp = np.asarray(bp, dtype=float)
        return cls(bp, np.diff(bp))

    @property
    def n_slabs(self) -> int:
        return self.taus.size

    @property
    def T(self) -> float:
        return float(self.breakpoints[-1])

    def locate(self, t: float, side: str = "right") -> tuple[int, float]:
        """Slab index and local coordinate s in [0,1] containing t, clamped to
        [0, T]; at an interior breakpoint side="left" picks the slab ending
        there and side="right" the one starting there.  A NaN t raises."""
        if np.isnan(t):
            raise ValueError("cannot locate a NaN time")
        n = int(np.searchsorted(self.breakpoints, t, side=side)) - 1
        n = min(max(n, 0), self.n_slabs - 1)
        s = (t - self.breakpoints[n]) / self.taus[n]
        return n, float(min(max(s, 0.0), 1.0))


# -- shifted Legendre -------------------------------------------------


def shifted_legendre_table(q: int, s: np.ndarray, nderiv: int = 0) -> np.ndarray:
    """Values (and s-derivatives) of Lt_0..Lt_q at points s.

    Returns array of shape (nderiv+1, q+1, len(s)); row d holds the d-th
    derivative with respect to s.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    x = 2.0 * s - 1.0
    out = np.zeros((nderiv + 1, q + 1, s.size))
    out[0, 0] = 1.0
    if q >= 1:
        out[0, 1] = x
        if nderiv >= 1:
            out[1, 1] = 1.0
    for n in range(1, q):
        out[0, n + 1] = ((2 * n + 1) * x * out[0, n] - n * out[0, n - 1]) / (n + 1)
        if nderiv >= 1:
            out[1, n + 1] = out[1, n - 1] + (2 * n + 1) * out[0, n]
        if nderiv >= 2:
            out[2, n + 1] = out[2, n - 1] + (2 * n + 1) * out[1, n]
    # chain rule d/ds = 2 d/dx
    for d in range(1, nderiv + 1):
        out[d] *= 2.0 ** d
    return out


# -- the start-anchored trial basis ----------------------------------


class TrialBasis:
    """Degree-q trial basis of the DG-CG scheme on the unit slab.

    A slab trial function is u(s) = u_start + sum_{j=1..q} U_j B_j(s) with
    B_j = Lt_j - Lt_j(0) = Lt_j - (-1)^j, so B_j(0) = 0: the start value is
    carried separately and continuity across slabs holds by representation.
    Test functions are Lt_0..Lt_{q-1}.  The tables use the 2q-point Gauss
    rule, exact for every test function times a trial function or one of its
    derivatives, and for the product of two trial derivatives.  Get instances
    through `trial_basis(q)`, which caches them.
    """

    def __init__(self, q: int):
        if q < 1:
            raise ValueError(f"temporal degree must be >= 1, got {q}")
        self.q = q
        self.nodes, self.weights = gauss_interval(2 * q)
        tab = shifted_legendre_table(q, self.nodes, nderiv=2)
        self.values, self.ds, self.dss = tab          # Lt_j and its s-derivatives, (q+1, 2q)
        self.test_w = tab[0, :q] * self.weights       # test rows times weights, (q, 2q)
        self.lt_start = (-1.0) ** np.arange(q + 1)    # Lt_j(0)
        self.test_start = self.lt_start[:q]           # test functions at s = 0
        self.b_end = 1.0 - self.lt_start[1:]          # B_j(1)
        # Gram blocks <Lt_i, Lt_j>, <Lt_i, Lt_j'>, <Lt_i, Lt_j''> for test rows
        # i < q and trial columns j <= q, and d0[j] = Lt_j'(0)
        self.a0 = self.test_w @ tab[0].T
        self.a1 = self.test_w @ tab[1].T
        self.a2 = self.test_w @ tab[2].T
        self.d0 = shifted_legendre_table(q, np.array([0.0]), nderiv=1)[1, :, 0]
        self.a0_trial = self.a0[:, 1:].copy()        # <Lt_i, B_j>, (q, q)
        self.a0_trial[0, :] -= self.lt_start[1:]     # <Lt_0, B_j> = <Lt_0, Lt_j> - Lt_j(0)
        self.inv_norm2 = 2.0 * np.arange(q + 1) + 1.0        # 1 / <Lt_j, Lt_j>
        self.gram_ds = (self.ds * self.weights) @ self.ds.T  # <Lt_i', Lt_j'>, (q+1, q+1)

    def to_modal(self, u_start, modes) -> np.ndarray:
        """Full shifted-Legendre coefficients (q+1, ...) of the slab function
        with start value u_start and trial coefficients modes (q, ...)."""
        u0 = u_start - self.lt_start[1:] @ modes
        return np.concatenate([[u0], modes], axis=0)

    def end_value(self, u_start, modes):
        """Value at the slab end, u_start + sum_j B_j(1) U_j."""
        return u_start + self.b_end @ modes

    def rows(self, u_start, modes, s, tau: float, deriv: int = 0) -> np.ndarray:
        """u (deriv 0) or dt u (deriv 1) at slab-local points s, one row per
        point (a single row for scalar s), on a slab of length tau."""
        tab = shifted_legendre_table(self.q, s, nderiv=deriv)[deriv, 1:]   # (q, m)
        if deriv == 0:
            tab = tab - self.lt_start[1:, None]                          # B_j(s)
        if np.ndim(s) == 0:
            tab = tab[:, 0]
        out = tab.T @ modes
        return u_start + out if deriv == 0 else out / tau


@cached_once
def trial_basis(q: int) -> TrialBasis:
    """The shared TrialBasis of degree q."""
    return TrialBasis(q)


# -- slab-local polynomials ------------------------------------------


@dataclass
class TimePoly:
    """Piecewise polynomial on a partition, shifted-Legendre modal per slab."""

    partition: TimePartition
    coeffs: np.ndarray  # (N, degree+1); vector-valued P_tau adds a dof axis

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def _eval(self, t: float, deriv: int, side: str) -> float:
        n, s = self.partition.locate(t, side)
        tab = shifted_legendre_table(self.degree, np.array([s]), nderiv=deriv)
        val = float(self.coeffs[n] @ tab[deriv, :, 0])
        return val / self.partition.taus[n] ** deriv

    def __call__(self, t: float, side: str = "right") -> float:
        return self._eval(t, 0, side)

    def derivative(self, t: float, side: str = "right") -> float:
        return self._eval(t, 1, side)


def l2_project_time(r: int, v, partition: TimePartition, npts: int | None = None) -> TimePoly:
    """Slab-wise L2 projection Pi_r^t v onto polynomials of degree <= r.

    Modal coefficients are (2j+1) <v, Lt_j> on each unit slab.
    """
    if r < 0:
        raise ValueError(f"projection degree must be >= 0, got {r}")
    npts = 2 * (r + 1) if npts is None else npts
    g, w = gauss_interval(npts)
    tab = shifted_legendre_table(r, g)[0]            # (r+1, npts)
    scale = 2.0 * np.arange(r + 1) + 1.0
    coeffs = np.empty((partition.n_slabs, r + 1))
    for n in range(partition.n_slabs):
        t = partition.breakpoints[n] + partition.taus[n] * g
        coeffs[n] = scale * ((tab * w) @ v(t))
    return TimePoly(partition, coeffs)


def ptau_project(q: int, v, dv, partition: TimePartition) -> TimePoly:
    """Degree-q projection P_tau matching v(0), slab-end derivatives, and the
    interior moments of v' against degrees <= q-2; continuous by chaining the
    slab start value.  `v`/`dv` evaluate the function and its derivative at
    a time or, with a leading axis, at an array of times; their values may
    carry a trailing dof axis, which the coefficients (N, q+1, ...) keep.
    """
    if q < 2:
        raise ValueError(f"P_tau needs degree q >= 2, got {q}")
    basis = trial_basis(q)
    g, w = gauss_interval(max(2 * q, 16))
    tab = shifted_legendre_table(q - 2, g)[0]
    start = np.asarray(v(partition.breakpoints[0]), dtype=float)
    coeffs = np.empty((partition.n_slabs, q + 1) + start.shape)
    for n in range(partition.n_slabs):
        tau = partition.taus[n]
        t = partition.breakpoints[n] + tau * g
        dvg = np.asarray(dv(t), dtype=float)
        b = np.empty((q,) + start.shape)
        for m in range(q - 1):
            b[m] = (2 * m + 1) * tau * ((tab[m] * w) @ dvg)
        b[q - 1] = tau * dv(partition.breakpoints[n + 1]) - b[: q - 1].sum(axis=0)
        a = basis.to_modal(start, _integrate_modes(b)[1:])
        coeffs[n] = a
        start = a.sum(axis=0)  # value at slab end; Lt_j(1) = 1
    return TimePoly(partition, coeffs)


def _integrate_modes(b: np.ndarray) -> np.ndarray:
    """Modal coefficients of the primitive of sum_m b_m Lt_m (constant free)."""
    q = b.shape[0]
    a = np.zeros((q + 1,) + b.shape[1:])
    a[1] += b[0] / 2.0
    for m in range(1, q):
        c = b[m] / (2.0 * (2 * m + 1))
        a[m + 1] += c
        a[m - 1] -= c
    return a


# -- jump control -----------------------------------------------------


def zeta(q: int) -> float:
    """Jump-control constant zeta_q = 1/(4(2q+1))."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    return 1.0 / (4.0 * (2 * q + 1))
