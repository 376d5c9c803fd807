"""Property-verification suites.

Each suite checks one analytical ingredient the solver's convergence rests
on (projection identities, inverse estimates, the jump-control constant,
residuals of manufactured solutions, exact reproduction of polynomial
solutions, ...) against independently computed values.  `run_verify`
executes them and returns a report of every check; the CLI `verify`
subcommand prints it and sets the exit code.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import splu

from .analysis import data_functional, energy_norm, eoc, err_linf_l2
from .cases import (ManufacturedCase, ProblemConfig, get_case, run_problem,
                    smooth_case, verify_manufactured)
from .mesh import mesh_size, unit_square_mesh
from .projection import combined_project
from .refelem import cached_once, reference_element, triangle_quadrature
from .solver import slab_residuals, solve_westervelt
from .spacefe import FESpace, interpolate, ritz_project
from .studies import StudySpec, run_study
from .timefe import (TimePartition, TimePoly, gauss_interval, l2_project_time,
                     ptau_project, shifted_legendre_table, zeta)

# -- report plumbing -------------------------------------------------


@dataclass
class CheckResult:
    label: str
    passed: bool
    info: str = ""


@dataclass
class SuiteResult:
    """One suite's labelled pass/fail checks, collected as the suite runs."""
    name: str
    checks: list = field(default_factory=list)
    runtime_s: float = 0.0
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def check(self, label: str, ok, info: str = "") -> bool:
        self.checks.append(CheckResult(label, bool(ok), info))
        return bool(ok)

    def close(self, label: str, value: float, target: float, tol: float) -> bool:
        return self.check(label, abs(value - target) <= tol,
                          f"{value:.8g} vs {target:.8g} (tol {tol:g})")

    def below(self, label: str, value: float, bound: float) -> bool:
        return self.check(label, value <= bound, f"{value:.3e} <= {bound:.3e}")

    def within(self, label: str, value: float, lo: float, hi: float) -> bool:
        return self.check(label, lo <= value <= hi,
                          f"{value:.4g} in [{lo:.4g}, {hi:.4g}]")


@dataclass
class VerifyReport:
    suites: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def summary_lines(self, verbose: bool = False) -> list:
        lines = []
        for s in self.suites:
            status = "PASS" if s.passed else "FAIL"
            lines.append(f"{s.name:<28s} {status}  "
                         f"({len(s.checks)} checks, {s.runtime_s:.2f}s)")
            if s.error is not None:
                lines.append(f"    error: {s.error}")
            for c in s.checks:
                if verbose or not c.passed:
                    mark = "ok  " if c.passed else "FAIL"
                    lines.append(f"    {mark} {c.label}: {c.info}")
        n_fail = sum(not s.passed for s in self.suites)
        lines.append(f"{len(self.suites)} suites, {n_fail} failed")
        return lines


# -- shared helpers --------------------------------------------------


def _sin_product():
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    return g, grad


def _rate_checks(ck: SuiteResult, approximate):
    """H1 error ~ h^p and L2 error ~ h^{p+1} at p = 1, 2 of the coefficients
    approximate(space, g, grad_g) of the sine product."""
    g, grad = _sin_product()
    for p in (1, 2):
        eh, el, hs = [], [], []
        for n in (4, 8, 16):
            sp = FESpace(unit_square_mesh(n), p)
            coeffs, ed = approximate(sp, g, grad), sp.ed_err
            eh.append(float(np.sqrt(ed.gradient_error(coeffs, ed.sample(grad)))))
            el.append(float(np.sqrt(ed.value_error(coeffs, ed.sample(g)))))
            hs.append(np.sqrt(2.0) / n)
        ck.close(f"p{p}-h1-rate", float(eoc(eh, hs)[-1]), p, 0.25)
        ck.close(f"p{p}-l2-rate", float(eoc(el, hs)[-1]), p + 1, 0.25)


def _temporal_inverse_constant(q: int, tau: float = 1.0) -> float:
    """max ||v'|| / ||v|| over polynomials of degree q on an interval of
    length tau, by a dense generalized eigenvalue problem."""
    g, w = gauss_interval(2 * q + 2)
    tab = shifted_legendre_table(q, g, nderiv=1)
    vals, ders = tab[0], tab[1] / tau
    gram_v = (vals * w) @ vals.T * tau
    gram_d = (ders * w) @ ders.T * tau
    lam = scipy.linalg.eigh(gram_d, gram_v, eigvals_only=True)
    return float(np.sqrt(lam[-1]))


def _temporal_trace_constant(q: int) -> float:
    """max v(1)^2 / int_0^1 v^2 over degree-q polynomials (exact value
    (q+1)^2); computed via the quadrature Gram for independence."""
    g, w = gauss_interval(q + 1)
    tab = shifted_legendre_table(q, g)[0]
    gram = (tab * w) @ tab.T
    b = shifted_legendre_table(q, np.array([1.0]))[0, :, 0]
    return float(b @ np.linalg.solve(gram, b))


def _polynomial_case() -> ManufacturedCase:
    """u = (t^2 + 3t + 1) x(1-x) y(1-y) lies in the discrete space for p >= 4,
    q >= 2; from p = 6 on the load rule also integrates its f (degree 8 in
    space) exactly, so the scheme must reproduce it to round-off."""
    k, c, delta = 0.5, 1.0, 0.01
    w = lambda x, y: x * (1.0 - x) * y * (1.0 - y)
    lap_w = lambda x, y: -2.0 * (y * (1.0 - y) + x * (1.0 - x))
    g = lambda t: t * t + 3.0 * t + 1.0
    dg = lambda t: 2.0 * t + 3.0

    def f(x, y, t):
        wv = w(x, y)
        # d_t((1+ku)d_tu) = g'' w + k((g')^2 + g g'') w^2
        return (2.0 * wv + k * (6.0 * t * t + 18.0 * t + 11.0) * wv * wv
                - (c * c * g(t) + delta * dg(t)) * lap_w(x, y))

    return ManufacturedCase(
        name="poly", c=c, k=k, delta=delta, T=1.0, f=f,
        u=lambda x, y, t: g(t) * w(x, y),
        dtu=lambda x, y, t: dg(t) * w(x, y),
        grad_u=lambda x, y, t: (g(t) * (1.0 - 2.0 * x) * y * (1.0 - y),
                                g(t) * x * (1.0 - x) * (1.0 - 2.0 * y)),
        grad_dtu=lambda x, y, t: (dg(t) * (1.0 - 2.0 * x) * y * (1.0 - y),
                                  dg(t) * x * (1.0 - x) * (1.0 - 2.0 * y)),
        u0=w,
        u0_grad=lambda x, y: ((1.0 - 2.0 * x) * y * (1.0 - y),
                              x * (1.0 - x) * (1.0 - 2.0 * y)),
        u1=lambda x, y: 3.0 * w(x, y))


# -- suites ----------------------------------------------------------


def suite_quadrature(ck: SuiteResult):
    for deg in (1, 2, 4, 5, 7, 9, 10, 12, 14):
        pts, w = triangle_quadrature(deg)
        ck.check(f"deg{deg}-positive-weights", np.all(w > 0.0), f"min {w.min():.3e}")
        ck.close(f"deg{deg}-area", float(w.sum()), 0.5, 5e-15)
        worst = 0.0
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                num = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                worst = max(worst, abs(num - exact) / exact)
        ck.below(f"deg{deg}-monomial-exactness", worst, 1e-14)
    # 1D Gauss: npts points integrate degree 2*npts-1 (m = 0: the weights sum to 1)
    for npts in (1, 2, 4, 7, 8):
        g, w = gauss_interval(npts)
        worst = max(abs(float(w @ g ** m) - 1.0 / (m + 1))
                    for m in range(2 * npts))
        ck.below(f"gauss{npts}-exactness", worst, 5e-15)


def suite_reference_element(ck: SuiteResult):
    for p in (1, 2, 3, 5, 6):
        re = reference_element(p)
        pts, w = triangle_quadrature(2 * p + 2)
        vals = re.eval_basis(pts)
        ck.close(f"p{p}-partition-of-unity",
                 float(np.abs(vals.sum(axis=1) - 1.0).max()), 0.0, 5e-13)
        ck.below(f"p{p}-gradient-sum",
                 float(np.abs(re.eval_basis_grad(pts).sum(axis=1)).max()), 1e-9)
        # nodal property: basis i equals delta_ij at node j
        nv = re.eval_basis(re.nodes)
        ck.close(f"p{p}-nodal-delta", float(np.abs(nv - np.eye(len(re.nodes))).max()),
                 0.0, 5e-12)
    caps = {1: 3.0, 3: 7.0, 6: 12.0}
    for p, cap in caps.items():
        ck.below(f"p{p}-vandermonde-cond", reference_element(p).cond_vandermonde, cap)


def suite_mesh_integrity(ck: SuiteResult):
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 10):
        mesh = unit_square_mesh(n)
        ck.check(f"n{n}-counts", len(mesh.vertices) == (n + 1) ** 2
                 and len(mesh.triangles) == 2 * n * n,
                 f"{len(mesh.vertices)} verts, {len(mesh.triangles)} tris")
        v, t = mesh.vertices, mesh.triangles
        d = ((v[t[:, 1], 0] - v[t[:, 0], 0]) * (v[t[:, 2], 1] - v[t[:, 0], 1])
             - (v[t[:, 2], 0] - v[t[:, 0], 0]) * (v[t[:, 1], 1] - v[t[:, 0], 1]))
        ck.check(f"n{n}-orientation", np.all(d > 0), f"min det {d.min():.3e}")
        ck.below(f"n{n}-total-area", abs(0.5 * float(d.sum()) - 1.0), 1e-14)
        on_bdy = ((v[:, 0] < 1e-14) | (v[:, 0] > 1 - 1e-14)
                  | (v[:, 1] < 1e-14) | (v[:, 1] > 1 - 1e-14))
        ck.check(f"n{n}-boundary-flags", np.array_equal(on_bdy, mesh.boundary_vertex),
                 f"{on_bdy.sum()} boundary vertices")
        ck.close(f"n{n}-mesh-size", mesh_size(mesh), np.sqrt(2.0) / n, 1e-14)
    for n, p in ((2, 1), (2, 3), (4, 2)):
        space = FESpace(unit_square_mesh(n), p)
        ck.check(f"n{n}p{p}-dof-counts", space.n_dof == (p * n + 1) ** 2
                 and space.n_free == (p * n - 1) ** 2,
                 f"{space.n_dof} dofs, {space.n_free} free")


def suite_ritz_projection(ck: SuiteResult):
    _, grad = _sin_product()
    # orthogonality: stiffness residual of the projection vanishes on free dofs
    space = FESpace(unit_square_mesh(4), 2)
    r = ritz_project(space, grad)
    ed = space.ed_lin
    rhs = ed.assemble_gradient_load(np.stack(ed.sample(grad), axis=2))
    res = rhs[space.free_dofs] - (space.stiffness @ r)[space.free_dofs]
    ck.below("galerkin-orthogonality",
             float(np.abs(res).max() / np.abs(rhs).max()), 1e-12)
    # idempotence: a degree-4 polynomial in H^1_0 is reproduced exactly
    bubble = _polynomial_case()
    for n in (3, 2):
        space4 = FESpace(unit_square_mesh(n), 4)
        diff = ritz_project(space4, bubble.u0_grad) - interpolate(space4, bubble.u0)
        ck.below(("" if n == 3 else f"n{n}-") + "idempotence-p4", float(np.abs(diff).max()), 1e-12)
    _rate_checks(ck, lambda sp, g, grad: ritz_project(sp, grad))


def suite_interpolant_rate(ck: SuiteResult):
    _rate_checks(ck, lambda sp, g, grad: interpolate(sp, g))


def suite_inverse_trace_constants(ck: SuiteResult):
    # spatial inverse estimate: h^2 lambda_max(M^-1 K) stays bounded under
    # refinement (power iteration with a fixed seeded start)
    rng = np.random.default_rng(7)
    scaled = []
    for n in (4, 8, 16):
        space = FESpace(unit_square_mesh(n), 2)
        stiff, mass = space.stiffness_ff, space.mass_ff  # gathered on each read
        mass_lu = splu(mass)
        x = rng.standard_normal(space.n_free)
        for _ in range(60):
            x = mass_lu.solve(stiff @ x)
            x /= np.linalg.norm(x)
        lam = float((x @ (stiff @ x)) / (x @ (mass @ x)))
        scaled.append(lam * mesh_size(unit_square_mesh(n)) ** 2)
    for i, v in enumerate(scaled):
        ck.within(f"spatial-inverse-level{i}", v / scaled[0], 0.7, 1.3)
    # temporal inverse constant: tau-scaling is exact across levels
    for q in (2, 4):
        base = _temporal_inverse_constant(q, tau=1.0)
        worst = max(abs(_temporal_inverse_constant(q, tau=t) * t - base)
                    for t in (0.5, 0.25, 0.125))
        ck.below(f"q{q}-temporal-inverse-scaling", worst / base, 1e-12)
        ck.check(f"q{q}-temporal-inverse-finite", np.isfinite(base), f"{base:.4f}")
    # temporal trace constant equals (q+1)^2 exactly
    for q in (2, 3, 5):
        ck.close(f"q{q}-trace-constant", _temporal_trace_constant(q),
                 (q + 1) ** 2, 1e-10)


def suite_jump_control_bounds(ck: SuiteResult):
    """Jump-control constant of the weighted test function construction.

    On each slab, the defect (Id - Pi_{q-1})(phi_n w) for test functions w
    of degree q-1 must be bounded by zeta_q ||w||; the sharp constant is
    zeta_q * q / (2 sqrt(4q^2-1)), about a quarter of the bound, which is
    what the tightness window asserts.
    """
    rng = np.random.default_rng(3)
    for q in range(1, 7):
        zeta_true = 1.0 / (4.0 * (2 * q + 1))
        ck.close(f"q{q}-constant-formula", zeta(q) * 4.0 * (2 * q + 1), 1.0, 1e-13)
        if q == 1:      # the scheme starts at q = 2; q = 1 pins only the formula
            continue
        g, w = gauss_interval(2 * q + 2)
        vals = shifted_legendre_table(q - 1, g)[0]              # w basis

        def worst_defect(tau: float) -> float:
            lam = zeta(q) / tau
            t = tau * g
            phi = 1.0 - lam * t
            # project phi*e_m back onto degree q-1, slab measure tau
            defects = []
            for m in range(q):
                pw = phi * vals[m]
                coef = (2.0 * np.arange(q) + 1.0) * ((vals * w) @ pw)
                defects.append(pw - coef @ vals)
            defects = np.array(defects)
            gram_w = ((vals * w) @ vals.T) * tau
            gram_d = ((defects * w) @ defects.T) * tau
            lam_max = scipy.linalg.eigh(gram_d, gram_w, eigvals_only=True)[-1]
            return float(np.sqrt(max(lam_max, 0.0)))

        sharp = zeta(q) * q / (2.0 * np.sqrt(4.0 * q * q - 1.0))
        wd = worst_defect(0.3)
        ck.below(f"q{q}-projection-bound", wd, zeta_true * (1.0 + 1e-12))
        ck.within(f"q{q}-tightness", wd / zeta_true, 0.2, 0.35)
        ck.close(f"q{q}-sharp-constant", wd, sharp, 1e-12)
        ck.close(f"q{q}-tau-invariance", worst_defect(0.07), wd, 1e-12)
        # the constant part of the weight is reproduced exactly
        pw = 1.7 * vals[q - 1]
        coef = (2.0 * np.arange(q) + 1.0) * ((vals * w) @ pw)
        ck.below(f"q{q}-constant-weight-defect",
                 float(np.abs(pw - coef @ vals).max()), 1e-13)
        # sup bound ||w||_inf <= (1 + C_inv) tau^{-1/2} ||w||_L2, degree q
        cinv = _temporal_inverse_constant(q)
        tau = 0.37
        tabs = shifted_legendre_table(q, np.linspace(0.0, 1.0, 400))[0]
        gq, wq = gauss_interval(q + 1)
        tabq = shifted_legendre_table(q, gq)[0]
        worst = 0.0
        for _ in range(50):
            a = rng.standard_normal(q + 1)
            sup = np.abs(a @ tabs).max()
            l2 = np.sqrt(tau * float((a @ tabq) ** 2 @ wq))
            worst = max(worst, sup / ((1.0 + cinv) * l2 / np.sqrt(tau)))
        ck.below(f"q{q}-sup-bound", worst, 1.0)


def suite_ptau_conditions(ck: SuiteResult):
    part = TimePartition.from_breakpoints(np.array([0.0, 0.22, 0.5, 0.61, 1.0]))
    v = lambda t: np.sin(1.3 * t) + t ** 3 - 0.4 * t
    dv = lambda t: 1.3 * np.cos(1.3 * t) + 3.0 * t * t - 0.4
    for q in (2, 3, 4):
        proj = ptau_project(q, v, dv, part)
        ck.below(f"q{q}-start-value", abs(proj(0.0) - v(0.0)), 1e-13)
        worst_d = max(abs(proj.derivative(tn, side="left") - dv(tn))
                      for tn in part.breakpoints[1:])
        ck.below(f"q{q}-end-slopes", worst_d, 1e-11)
        worst_c = max(abs(proj(tn, side="left") - proj(tn, side="right"))
                      for tn in part.breakpoints[1:-1])
        ck.below(f"q{q}-continuity", worst_c, 1e-12)
        g, w = gauss_interval(2 * q + 4)
        worst_m = 0.0
        for n in range(part.n_slabs):
            tau = part.taus[n]
            t = part.breakpoints[n] + tau * g
            diff = np.array([proj.derivative(tt) for tt in t]) - dv(t)
            tab = shifted_legendre_table(max(q - 2, 0), g)[0]
            for m in range(q - 1):
                worst_m = max(worst_m, abs(tau * float((tab[m] * w) @ diff)))
        ck.below(f"q{q}-moments", worst_m, 1e-10)
    # polynomial reproduction: t^3 is fixed for q = 3
    uni = TimePartition.uniform(1.0, 0.5)
    cube = ptau_project(3, lambda t: t ** 3, lambda t: 3.0 * t * t, uni)
    worst = max(abs(cube(t) - t ** 3) for t in np.linspace(0.0, 1.0, 29))
    ck.below("q3-cubic-exact", worst, 1e-13)
    # hand-derived q = 2 image of t^3 on a single slab: P(0) = 0, P'(1) = 3
    # and a vanishing mean of (P - t^3)' give 2t^2 - t
    single = TimePartition.uniform(1.0, 1.0)
    p2 = ptau_project(2, lambda t: t ** 3, lambda t: 3.0 * t * t, single)
    worst = max(abs(p2(t) - (2.0 * t * t - t)) for t in np.linspace(0.0, 1.0, 21))
    ck.below("q2-cubic-image", worst, 1e-13)


def suite_time_projection(ck: SuiteResult):
    part = TimePartition.from_breakpoints(np.array([0.0, 0.35, 0.8, 1.0]))
    rng = np.random.default_rng(11)
    for r in (1, 2, 3):
        coeffs = rng.standard_normal((part.n_slabs, r + 1))
        poly = TimePoly(part, coeffs)
        vec = lambda t: np.array([poly(float(tt)) for tt in np.atleast_1d(t)])
        again = l2_project_time(r, vec, part)
        ck.below(f"r{r}-idempotence", float(np.abs(again.coeffs - coeffs).max()), 1e-12)
    # a single polynomial of degree r across slab boundaries is reproduced
    for r in (0, 1, 3):
        v = lambda t, r=r: sum((0.7 - 0.2 * j) * t ** j for j in range(r + 1))
        proj = l2_project_time(r, v, TimePartition.from_breakpoints([0.0, 0.3, 0.55, 1.0]))
        worst = max(abs(proj(t) - v(t)) for t in np.linspace(0.01, 0.99, 37))
        ck.below(f"r{r}-polynomial-reproduction", worst, 1e-13)
    v = lambda t: np.sin(2.0 * t) * np.exp(0.5 * t)
    for r in (1, 2):
        proj = l2_project_time(r, v, part, npts=12)
        g, w = gauss_interval(12)
        worst = 0.0
        for n in range(part.n_slabs):
            tau = part.taus[n]
            t = part.breakpoints[n] + tau * g
            diff = v(t) - np.array([proj(float(tt)) for tt in t])
            tab = shifted_legendre_table(r, g)[0]
            worst = max(worst, float(np.abs(tau * (tab * w) @ diff).max()))
        ck.below(f"r{r}-orthogonality", worst, 1e-14)
        errs = []
        for m in (4, 8, 16):
            uni = TimePartition.uniform(1.0, 1.0 / m)
            pr = l2_project_time(r, v, uni, npts=8)
            g2, w2 = gauss_interval(8)
            total = 0.0
            for n in range(uni.n_slabs):
                tau = uni.taus[n]
                t = uni.breakpoints[n] + tau * g2
                d = v(t) - np.array([pr(float(tt)) for tt in t])
                total += tau * float((d * d) @ w2)
            errs.append(np.sqrt(total))
        ck.close(f"r{r}-l2-rate", float(eoc(errs, [0.25, 0.125, 0.0625])[-1]), r + 1, 0.15)


def suite_projection_rates(ck: SuiteResult):
    case = get_case("smooth")
    p, q = 2, 3
    errs_dt, errs_g, hs = [], [], []
    for n, tau in ((4, 0.25), (8, 0.125), (16, 0.0625)):
        space = FESpace(unit_square_mesh(n), p)
        part = TimePartition.uniform(case.T, tau)
        proj = combined_project(space, part, q, case)
        errs_dt.append(err_linf_l2(proj, case, "dt"))
        errs_g.append(err_linf_l2(proj, case, "grad"))
        hs.append(np.sqrt(2.0) / n)
    ck.close("dt-rate", float(eoc(errs_dt, hs)[-1]), min(p + 1, q), 0.3)
    ck.close("grad-rate", float(eoc(errs_g, hs)[-1]), p, 0.3)
    # at q = 2 one joint halving of h and tau already cuts the gradient error
    g2 = [err_linf_l2(combined_project(FESpace(unit_square_mesh(n), p),
                                       TimePartition.uniform(case.T, tau), 2, case), case, "grad")
          for n, tau in ((2, 0.5), (4, 0.25))]
    ck.below("q2-joint-refinement", g2[1] / g2[0], 0.45)
    # projecting the discrete space onto itself is the identity
    poly = _polynomial_case()
    space = FESpace(unit_square_mesh(2), 4)
    exact = interpolate(space, poly.u0)
    for q, tau in ((2, 0.5), (3, 0.25)):
        tag = "" if q == 2 else f"q{q}-tau{tau:g}-"
        proj = combined_project(space, TimePartition.uniform(1.0, tau), q, poly)
        worst = max(float(np.abs(proj.value(t) - poly.u(*space.dof_coords.T, t)).max())
                    for t in (0.0, 0.3, 0.75, 1.0))
        ck.below(f"{tag}polynomial-reproduction", worst, 1e-11)
        ck.below(f"{tag}start-interpolant-match",
                 float(np.abs(proj.value(0.0) - exact).max()), 1e-11)


def suite_polynomial_exactness(ck: SuiteResult):
    case = _polynomial_case()
    space = FESpace(unit_square_mesh(2), 6)
    # graded: slab lengths 0.25, 0.25, 0.1, 0.4 need three factorizations
    parts = {"uniform": TimePartition.uniform(1.0, 0.25),
             "graded": TimePartition.from_breakpoints([0.0, 0.25, 0.5, 0.6, 1.0])}
    for q in (2, 3):
        for name, part in parts.items():
            tag = "" if (q, name) == (2, "uniform") else f"q{q}-{name}-"
            sol, rep = solve_westervelt(space, part, q, case)
            worst_u = max(float(np.abs(sol.value(t) - case.u(*space.dof_coords.T, t)).max())
                          for t in (0.0, 0.2, 0.55, 0.8, 1.0))
            worst_dt = max(float(np.abs(sol.dt(t) - case.dtu(*space.dof_coords.T, t)).max())
                           for t in (0.1, 0.4, 0.9))
            ck.below(f"{tag}nodal-values", worst_u, 5e-12)
            ck.below(f"{tag}nodal-dt", worst_dt, 1e-10)
            # interior jumps of dt u vanish for the reproduced solution; the
            # jump functional itself keeps its nonzero endpoint traces
            worst_j = max(float(np.sqrt((d := sol.dt_slab(n, 0.0) - sol.dt_slab(n - 1, 1.0))
                                        @ (space.mass @ d)))
                          for n in range(1, part.n_slabs))
            ck.below(f"{tag}interior-dt-jumps", worst_j, 1e-10)
            ck.below(f"{tag}slab-residuals", max(slab_residuals(sol, case)), 1e-9)
            distinct = np.unique(part.taus).size
            ck.check(tag + ("single-factorization" if distinct == 1
                            else "one-factorization-per-length"),
                     rep.n_factorizations == distinct
                     and rep.factorization_reuses == part.n_slabs - distinct,
                     f"{rep.n_factorizations} factorizations, {rep.factorization_reuses} reuses")


def suite_manufactured_residual(ck: SuiteResult):
    for label in ("smooth", "smooth-fast"):
        rep = verify_manufactured(get_case(label))
        ck.below(f"{label}-residual", rep["residual_rel"], 1e-6)
    for label in ("gaussian-pulse", "standing-wave"):
        case, tag = get_case(label), "" if label == "gaussian-pulse" else f"{label}-"
        try:
            verify_manufactured(case)
            ck.check(f"{tag}no-exact-solution-guard", False, "accepted a data-only case")
        except ValueError:
            ck.check(f"{tag}no-exact-solution-guard", case.u is None, "data-only case rejected")


# acceptance criteria 1-3, the paper's h-, tau- and delta-experiments
CRITERIA = {
    "h": [StudySpec(kind="h", case="smooth", sweep=[4, 8, 16, 32],
                    fixed={"p": p, "q": 3, "tau": 0.2}) for p in (1, 2)],
    "tau": [StudySpec(kind="tau", case="smooth-fast", sweep=[0.5 * 2.0 ** -i for i in range(1, 5)],
                      fixed={"n": 5, "p": 5, "q": q}) for q in (2, 3)],
    "delta": [StudySpec(kind="delta", case="standing-wave", sweep=[1e-2, 1e-4, 1e-6],
                        fixed={"n": 10, "p": p, "q": 4, "tau": 0.1}) for p in (1, 2)],
}


@cached_once
def criteria_studies(kind: str) -> list:
    """Each CRITERIA[kind] study, strict and scored by each solve's max slab residual,
    on two threads once per process, for galerkin-residual and the acceptance tests."""
    return [run_study(spec, threads=2, strict=True,
                      score=lambda cfg, sol: max(slab_residuals(sol, cfg.case)))
            for spec in CRITERIA[kind]]


def suite_galerkin_residual(ck: SuiteResult):
    worst, label = 0.0, ""
    for kind in CRITERIA:
        for result in criteria_studies(kind):
            # a delta entry's label names its delta
            for value, m in result.scores.items():
                cfg = result.spec.config(value)
                if m > worst:
                    worst, label = m, (f"{cfg.case.name} n={cfg.n} p={cfg.p} "
                                       f"q={cfg.q} tau={cfg.tau:g}")
                d = f"-delta{value:g}" if kind == "delta" and value else ""
                ck.below(f"{cfg.case.name}-n{cfg.n}-p{cfg.p}-q{cfg.q}-tau{cfg.tau:g}{d}", m, 1e-9)
    ck.check("worst-config", True, f"{worst:.3e} at {label}")


def suite_zero_data(ck: SuiteResult):
    case = smooth_case(A=0.0)
    for q, tau in ((3, 0.25), (2, 0.5)):
        tag = "" if q == 3 else f"q{q}-tau{tau:g}-"
        sol = run_problem(ProblemConfig(case=case, n=3, p=2, q=q, tau=tau))[2]
        ck.check(f"{tag}modes-exactly-zero", float(np.abs(sol.modes).max()) == 0.0,
                 f"max |coeff| {np.abs(sol.modes).max():.1e}")
        ck.check(f"{tag}breakpoints-exactly-zero", float(np.abs(sol.bp_values).max()) == 0.0,
                 f"max |u(t_n)| {np.abs(sol.bp_values).max():.1e}")
        ck.check(f"{tag}errors-exactly-zero", err_linf_l2(sol, case, "dt") == 0.0
                 and err_linf_l2(sol, case, "grad") == 0.0, "err_dt = err_grad = 0")


def suite_k0_single_iteration(ck: SuiteResult):
    for label in ("smooth", "standing-wave"):
        for q in (3, 2):
            cfg = ProblemConfig(case=get_case(label, k=0.0), n=4, p=2, q=q, tau=0.25)
            _, part, _, rep = run_problem(cfg)
            ck.check(f"{label}-one-iteration" if q == 3 else f"{label}-q{q}-one-iteration",
                     rep.iterations == [1] * part.n_slabs, f"iterations {rep.iterations}")


def suite_energy_boundedness(ck: SuiteResult):
    case = smooth_case(k=0.0)
    ratios = []
    for n, tau in ((4, 0.25), (8, 0.125), (16, 0.0625)):
        space, part, sol, _ = run_problem(ProblemConfig(case=case, n=n, p=2, q=3, tau=tau))
        ratios.append(energy_norm(sol, c=case.c, delta=case.delta)
                      / data_functional(space, part, case))
    for i in range(1, len(ratios)):
        ck.below(f"ratio-growth-level{i}", ratios[i] / ratios[i - 1], 1.05)
    ck.check("ratios", True, " ".join(f"{r:.4f}" for r in ratios))


def suite_sampling_convergence(ck: SuiteResult):
    cfg = ProblemConfig(case=get_case("smooth-fast"), n=5, p=5, q=3, tau=0.125)
    space, part, sol, _ = run_problem(cfg)
    # the sampled max converges from below at second order in the spacing,
    # so a few percent of wobble is the expected scale
    for mode in ("dt", "grad"):
        e1 = err_linf_l2(sol, cfg.case, mode)
        e2 = err_linf_l2(sol, cfg.case, mode, samples_per_slab=3 * (2 * sol.q + 3))
        ck.below(f"{mode}-sampling-stability", abs(e1 - e2) / e2, 5e-2)
        e3 = err_linf_l2(sol, cfg.case, mode, quad_degree=2 * space.p + 8)
        ck.below(f"{mode}-quadrature-stability", abs(e1 - e3) / e3, 1e-6)
    # temporal error dominates the spatial one at this degree
    cfg6 = ProblemConfig(case=get_case("smooth-fast"), n=5, p=6, q=3, tau=0.125)
    e5 = err_linf_l2(sol, cfg.case, "dt")
    e6 = err_linf_l2(run_problem(cfg6)[2], cfg6.case, "dt")
    ck.below("temporal-dominance", abs(e5 - e6) / e6, 5e-2)


def suite_determinism(ck: SuiteResult):
    for label, p, q in (("smooth", 2, 3), ("smooth-fast", 3, 2)):
        tag = "" if label == "smooth" else f"{label}-p{p}-q{q}-"
        cfg = ProblemConfig(case=get_case(label), n=4, p=p, q=q, tau=0.25)
        _, _, s1, r1 = run_problem(cfg)
        _, _, s2, r2 = run_problem(cfg)
        ck.check(f"{tag}repeat-identical-coefficients",
                 np.array_equal(s1.modes, s2.modes), "bitwise equal modes")
        ck.check(f"{tag}repeat-identical-iterations", r1.iterations == r2.iterations,
                 f"{r1.iterations}")
        worst = max(float(np.abs(s1.basis.end_value(s1.bp_values[n], s1.modes[n])
                                 - s1.bp_values[n + 1]).max())
                    for n in range(s1.partition.n_slabs))
        ck.check(f"{tag}continuity-by-representation", worst == 0.0, f"max gap {worst:.1e}")


# every suite_* function above, in definition order: suite_k0_single_iteration
# runs as "k0-single-iteration"
SUITES = {name[6:].replace("_", "-"): fn for name, fn in globals().items()
          if name.startswith("suite_")}


def run_verify(pattern: str | None = None) -> VerifyReport:
    """Run all (or pattern-matched) suites; never raises on suite failure."""
    names = fnmatch.filter(SUITES, pattern or "*")
    if not names:
        raise ValueError(f"no suite matches {pattern!r}; "
                         f"available: {', '.join(SUITES)}")
    report = VerifyReport()
    for name in names:
        suite = SuiteResult(name)
        t0 = time.perf_counter()
        try:
            SUITES[name](suite)
        except Exception as exc:  # pragma: no cover - defensive
            suite.error = f"{type(exc).__name__}: {exc}"
        suite.runtime_s = time.perf_counter() - t0
        report.suites.append(suite)
    return report
