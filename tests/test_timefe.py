"""Time partitions, shifted Legendre bases and the trial basis.  The P_tau
conditions, the L2 projection in time and zeta are checked by the
`ptau-conditions`, `time-projection` and `jump-control-bounds` verify
suites; the ids below report their checks."""

import numpy as np
import pytest

from westfem.mesh import unit_square_mesh
from westfem.solution import DiscreteSolution
from westfem.spacefe import FESpace
from westfem.timefe import (TimePartition, TimePoly, gauss_interval, ptau_project,
                            shifted_legendre_table, trial_basis)


def test_uniform_partition():
    part = TimePartition.uniform(1.0, 0.25)
    assert part.n_slabs == 4
    assert np.allclose(part.breakpoints, [0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert np.all(part.taus == 0.25)
    assert part.T == 1.0


def test_uniform_partition_rejects_non_divisor():
    with pytest.raises(ValueError):
        TimePartition.uniform(1.0, 0.3)
    with pytest.raises(ValueError):
        TimePartition.uniform(1.0, -0.1)


@pytest.mark.parametrize("T,tau", [(1.0, np.nan), (np.nan, 0.5), (np.inf, 0.5), (1.0, np.inf),
                                   (np.inf, np.inf)])
def test_uniform_partition_rejects_non_finite(T, tau):
    # nan and inf failed in the conversion of T / tau to a slab count
    with pytest.raises(ValueError, match="need finite T, tau > 0"):
        TimePartition.uniform(T, tau)


@pytest.mark.parametrize("bp", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [0.0, 1.0, np.nan],
                                [0.1, 0.5, 1.0], [-0.5, 0.5, 1.0]],
                         ids=["nan", "inf", "nan-end", "late-start", "early-start"])
def test_partition_rejects_bad_breakpoints(bp):
    with pytest.raises(ValueError):
        TimePartition.from_breakpoints(bp)


@pytest.mark.parametrize("taus", [[0.5, 0.4], [0.5], [0.5, 0.5, 0.0], [0.5, 0.5 + 1e-9]],
                         ids=["wrong-value", "too-few", "too-many", "off-by-1e-9"])
def test_partition_rejects_taus_off_the_breakpoints(taus):
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0, 0.5, 1.0]), np.array(taus))


def test_partition_from_lists_stores_arrays():
    part = TimePartition([0.0, 0.5, 1.0], [0.5, 0.5])
    assert part.n_slabs == 2 and part.T == 1.0
    assert part.locate(0.75) == (1, 0.5)


@pytest.mark.parametrize("T, tau", [(1.0, 0.1), (10.0, 0.2), (0.3, 0.1), (2.5, 0.05)])
def test_uniform_partition_taus_pass_the_check(T, tau):
    part = TimePartition.uniform(T, tau)
    assert np.all(part.taus == tau)


def test_equal_slab_lengths_share_one_value():
    # np.diff gives 0.2, 0.2, 0.19999999999999996, 0.20000000000000007, ...
    bp = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert len(set(np.diff(bp))) > 1
    part = TimePartition.from_breakpoints(bp)
    assert set(part.taus) == {np.diff(bp)[0]}
    # lengths farther apart than the tolerance stay distinct and keep their bits
    graded = [0.0, 0.25, 0.5, 0.6, 1.0]
    assert np.array_equal(TimePartition.from_breakpoints(graded).taus, np.diff(graded))
    near = TimePartition.from_breakpoints([0.0, 0.5, 1.0 + 1e-9])
    assert near.taus[1] - near.taus[0] > 9e-10


def _snapped_one_by_one(taus, tol):
    # the former rule: each slab takes the value of the first earlier slab within tol
    taus = np.array(taus)
    for i in range(1, taus.size):
        taus[i] = taus[np.argmax(np.abs(taus[:i + 1] - taus[i]) <= tol)]
    return taus


@pytest.mark.parametrize("seed", range(20))
def test_length_snapping_matches_the_slab_by_slab_rule(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-12   # T < 1
    # a few lengths, each jittered by offsets just inside and just outside tol
    base = rng.uniform(0.01, 0.02, size=3)
    offsets = rng.choice([0.0, 0.6, 0.95, 1.05, 1.6, -0.6, -0.95, -1.05], size=40) * tol
    bp = np.concatenate([[0.0], np.cumsum(rng.choice(base, size=40) + offsets)])
    part = TimePartition.from_breakpoints(bp)
    assert np.array_equal(part.taus, _snapped_one_by_one(np.diff(bp), tol))
    # some slabs took another's length, and some within 2 tol kept their own
    assert len(set(part.taus)) < part.n_slabs
    gaps = np.abs(np.subtract.outer(part.taus, part.taus))
    assert np.any((gaps > 0) & (gaps < 2 * tol))


def test_many_equal_slabs_share_one_length():
    part = TimePartition.from_breakpoints(np.linspace(0.0, 1.0, 10001))
    assert part.n_slabs == 10000 and len(set(part.taus)) == 1


def test_locate():
    part = TimePartition.from_breakpoints([0.0, 0.4, 1.0])
    n, s = part.locate(0.7)
    assert n == 1 and abs(s - 0.5) < 1e-14
    n, s = part.locate(0.0)
    assert n == 0 and s == 0.0
    n, s = part.locate(1.0)
    assert n == 1 and abs(s - 1.0) < 1e-14
    # left limits: a breakpoint belongs to the slab ending there, and times
    # outside [0, T] clamp to the end slabs on either side
    assert part.locate(0.4, side="left") == (0, 1.0)
    assert part.locate(0.4, side="right") == (1, 0.0)
    assert part.locate(0.0, side="left") == (0, 0.0)
    assert part.locate(-0.3, side="left") == (0, 0.0)
    assert part.locate(1.0, side="left") == (1, 1.0)
    assert part.locate(1.7, side="left") == (1, 1.0)
    assert part.locate(1.7, side="right") == (1, 1.0)


def test_nan_time_raises_instead_of_returning_nan():
    # finite times outside [0, T] clamp (above); a NaN time has no slab
    part = TimePartition.from_breakpoints([0.0, 0.4, 1.0])
    space = FESpace(unit_square_mesh(2), 1)
    sol = DiscreteSolution(space, part, 2, np.ones((2, 2, space.n_dof)), np.ones(space.n_dof))
    poly = TimePoly(part, np.array([[1.0, 0.5], [2.0, 0.5]]))
    for f in (part.locate, sol.value, sol.dt, poly, poly.derivative):
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="NaN"):
                f(float("nan"), side=side)
    assert np.all(np.isfinite(sol.value(1.7))) and np.isfinite(poly(-0.3))


@pytest.mark.parametrize("q", [1, 3, 5])
def test_shifted_legendre_orthogonality(q):
    x, w = gauss_interval(q + 2)
    tab = shifted_legendre_table(q, x)[0]
    gram = (tab * w) @ tab.T
    expect = np.diag(1.0 / (2 * np.arange(q + 1) + 1))
    assert np.max(np.abs(gram - expect)) < 1e-14


def test_shifted_legendre_endpoint_values():
    tab = shifted_legendre_table(4, np.array([0.0, 1.0]))[0]
    assert np.allclose(tab[:, 1], 1.0, atol=1e-14)            # L_j(1) = 1
    signs = (-1.0) ** np.arange(5)
    assert np.allclose(tab[:, 0], signs, atol=1e-14)          # L_j(0) = (-1)^j


def test_shifted_legendre_derivatives_match_difference_quotient():
    s = np.array([0.12, 0.47, 0.83])
    h = 1e-6
    tab = shifted_legendre_table(4, s, nderiv=2)
    v_p = shifted_legendre_table(4, s + h)[0]
    v_m = shifted_legendre_table(4, s - h)[0]
    assert np.max(np.abs((v_p - v_m) / (2 * h) - tab[1])) < 1e-6
    assert np.max(np.abs((v_p - 2 * tab[0] + v_m) / h ** 2 - tab[2])) < 2e-4


def test_timepoly_sides():
    part = TimePartition.from_breakpoints([0.0, 0.5, 1.0])
    # legendre coefficients per slab; discontinuous at t = 0.5
    poly = TimePoly(part, np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert poly(0.5, side="left") == pytest.approx(1.0, abs=1e-15)
    assert poly(0.5, side="right") == pytest.approx(2.0, abs=1e-15)
    assert poly(1.0) == pytest.approx(2.0, abs=1e-15)
    # beyond T both sides clamp to the end value instead of extrapolating
    p3 = ptau_project(3, lambda t: np.sin(3 * t), lambda t: 3 * np.cos(3 * t),
                      TimePartition.uniform(1.0, 0.5))
    assert p3(1.5, side="left") == p3(1.5, side="right") == p3(1.0, side="left")


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_trial_basis(q):
    b = trial_basis(q)
    assert trial_basis(q) is b
    start = shifted_legendre_table(q, np.array([0.0, 1.0]))[0]   # (q+1, 2)
    assert np.array_equal(start[1:, 0] - b.lt_start[1:], np.zeros(q))   # B_j(0) = 0
    assert np.array_equal(start[1:, 1] - b.lt_start[1:], b.b_end)
    assert np.array_equal(b.b_end, 1.0 - (-1.0) ** np.arange(1, q + 1))
    # to_modal at s = 0 and s = 1 gives the start and the slab-end values
    rng = np.random.default_rng(q)
    u_start, modes = rng.standard_normal(4), rng.standard_normal((q, 4))
    modal = b.to_modal(u_start, modes)
    assert np.allclose(start[:, 0] @ modal, u_start, rtol=0, atol=1e-13)
    assert np.allclose(start[:, 1] @ modal, b.end_value(u_start, modes), rtol=0, atol=1e-13)
    assert np.allclose(b.rows(u_start, modes, np.array([0.0, 1.0]), 1.0),
                       [u_start, b.end_value(u_start, modes)], rtol=0, atol=1e-13)
    # Gram blocks against a higher-order rule, to 1e-14 of the integrand size
    g, w = gauss_interval(2 * q + 6)
    tab = shifted_legendre_table(q, g, nderiv=2)
    test = tab[0, :q] * w
    for got, d in ((b.a0, 0), (b.a1, 1), (b.a2, 2)):
        size = (np.abs(test) @ np.abs(tab[d]).T).max()
        assert np.max(np.abs(got - test @ tab[d].T)) <= 1e-14 * size
    assert np.array_equal(b.d0, shifted_legendre_table(q, np.array([0.0]), nderiv=1)[1, :, 0])


@pytest.mark.parametrize("r", [0, 1, 3])
def test_l2_projection_reproduces_degree_r(suite_checks, r):
    suite_checks("time-projection", f"r{r}-polynomial-reproduction")


def test_l2_projection_orthogonality(suite_checks):
    suite_checks("time-projection", "r2-orthogonality")


# hand-computed image: projecting t^3 on a single q=2 slab over (0,1) gives 2t^2 - t
def test_ptau_single_slab_cubic_oracle(suite_checks):
    suite_checks("ptau-conditions", "q2-cubic-image")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ptau_interface_conditions(suite_checks, q):
    suite_checks("ptau-conditions", f"q{q}-start-value", f"q{q}-end-slopes", f"q{q}-continuity")


def test_ptau_reproduces_degree_q(suite_checks):
    suite_checks("ptau-conditions", "q3-cubic-exact")


def test_zeta_values(suite_checks):
    suite_checks("jump-control-bounds", *(f"q{q}-constant-formula" for q in (1, 2, 5)))
