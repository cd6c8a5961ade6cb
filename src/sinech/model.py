"""Cubic double-well model data and the energy/diagnostic functionals.

The equation integrated by this package is

    u_tt + u_t + A(A u + f(u)) = g,      A = -lap, u = lap u = 0 on the boundary,

with a coercive cubic nonlinearity f(r) = a3 r^3 + a2 r^2 + a1 r (a3 > 0)
and a time-independent source g.  This module owns the nonlinearity
class, the energy functional and its dissipation identity ingredients,
the velocity diagnostic functional, and the higher-order functionals
whose balance law is probed by the integrator tests.

Integral evaluation policy
--------------------------
Products of band-limited sine fields split per axis into pure cosine
combinations (even number of sine factors) or pure sine combinations
(odd number).  Even-type integrands appearing here all vanish on the
boundary, so the plain interior quadrature sum on a 2x zero-padded grid
is exact for them.  Odd-type integrands (the a2 terms) are *not*
integrated exactly by any nodal sum; they are recovered exactly by
transforming the pointwise product on a 3x grid (alias-free for triple
products) and contracting the sine coefficients with the closed-form
integrals of the basis functions.  All functionals below are therefore
grid-size independent up to roundoff once the field is resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedNonlinearityError
from .spectral import (
    GridSpec,
    ModalField,
    check_same_grid,
    eigenvalue,
    eigenvalues,
    field_integral,
    gradient_values,
    modal_from_values,
    nodal_values,
    norm_Hs,
    norm_pair,
    padded_points,
    quadrature_weight,
    work_array,
)


@dataclass
class Nonlinearity:
    """Cubic nonlinearity f(r) = a3 r^3 + a2 r^2 + a1 r with derived bounds.

    lambda_bound: f'(r) >= -lambda_bound everywhere (0 when f' >= 0).
    m_bound:      |f''(r)| <= m_bound (1 + |r|).
    r0:           smallest radius with f(r) r >= 0 for all |r| >= r0.

    Derived fields are computed from the coefficients unless explicitly
    overridden (overrides are *claims*, verified by check_assumptions).
    The degenerate linear case a3 = 0 (with a2 = 0, a1 >= 0) is accepted
    so that exact linear oracle problems can run through the same code
    path; check_assumptions refuses it.
    """

    a3: float
    a2: float
    a1: float
    lambda_bound: float | None = None
    m_bound: float | None = None
    r0: float | None = None

    def __post_init__(self):
        if self.a3 < 0.0 or (self.a3 == 0.0 and not (self.a2 == 0.0 and self.a1 >= 0.0)):
            raise UnsupportedNonlinearityError(
                "need a3 > 0 (coercive cubic), or the degenerate linear "
                f"case a3 = a2 = 0 with a1 >= 0; got ({self.a3}, {self.a2}, {self.a1})"
            )
        if self.lambda_bound is None:
            self.lambda_bound = computed_lambda_bound(self.a3, self.a2, self.a1)
        if self.m_bound is None:
            self.m_bound = max(abs(2.0 * self.a2), 6.0 * abs(self.a3))
        if self.r0 is None:
            self.r0 = computed_r0(self.a3, self.a2, self.a1)

    @property
    def is_zero(self) -> bool:
        return self.a3 == 0.0 and self.a2 == 0.0 and self.a1 == 0.0

    def f(self, r):
        return ((self.a3 * r + self.a2) * r + self.a1) * r

    def f_prime(self, r):
        return (3.0 * self.a3 * r + 2.0 * self.a2) * r + self.a1

    def f_second(self, r):
        return 6.0 * self.a3 * r + 2.0 * self.a2

    def potential(self, r):
        """Antiderivative F(r) = a3 r^4/4 + a2 r^3/3 + a1 r^2/2."""
        return ((self.a3 / 4.0 * r + self.a2 / 3.0) * r + self.a1 / 2.0) * r * r


def computed_lambda_bound(a3: float, a2: float, a1: float) -> float:
    """max(0, a2^2/(3 a3) - a1): the sharp -min f' for the cubic class."""
    if a3 == 0.0:
        return max(0.0, -a1)
    return max(0.0, a2**2 / (3.0 * a3) - a1)


def computed_r0(a3: float, a2: float, a1: float) -> float:
    """Radius beyond which f(r) r >= 0: largest |root| of a3 r^2 + a2 r + a1."""
    if a3 == 0.0:
        return 0.0
    disc = a2**2 - 4.0 * a3 * a1
    if disc <= 0.0:
        return 0.0
    return (abs(a2) + math.sqrt(disc)) / (2.0 * a3)


@dataclass
class SourceTerm:
    """Time-independent source, held as a modal field on the run grid."""

    g_modal: ModalField

    @classmethod
    def zero(cls, grid: GridSpec) -> "SourceTerm":
        return cls(ModalField.zeros(grid))

    @property
    def grid(self) -> GridSpec:
        return self.g_modal.grid


# ---------------------------------------------------------------------------
# dealiased nonlinear term and exact integrals
# ---------------------------------------------------------------------------

def _odd_product_integral(side: float, *factors: np.ndarray) -> float:
    """Exact integral of a pointwise product sampled on a 3n grid whose
    sine expansion is alias-free there (odd-type triple products): the
    product's sine coefficients contracted with the basis integrals."""
    vals = np.multiply.reduce(factors)
    m = vals.shape[0]
    prod = ModalField(GridSpec(m, side), modal_from_values(vals, side))
    return field_integral(prod)


def _truncated(values: np.ndarray, grid: GridSpec) -> ModalField:
    """P_n of a field sampled on a padded grid.  Consumes values: the
    transform runs in place there, so the retained block is copied out."""
    coeff = modal_from_values(values, grid.side, overwrite=True, n_modes=grid.n_modes)
    return ModalField(grid, coeff.copy())


def _nodal_f_and_potential(u: ModalField, nl: Nonlinearity) -> tuple[np.ndarray, float]:
    """f(u) on the 2n grid and integral F(u): the one evaluation of both.

    Even powers of the potential by the interior quadrature sum on the
    2n grid (exact: boundary-vanishing cosine type); the cubic term, if
    present, by the alias-free modal contraction.  Hot path: the padded
    arrays dominate the step cost at large n, so the square is reused
    for the quartic sum and then consumed in place by the Horner
    evaluation of f.  Both padded arrays are pooled work arrays, so the
    returned values hold only until the next call.
    """
    m = padded_points(u.grid.n_modes, 2)
    un = nodal_values(u, m, out=work_array("f.u", (m, m)))
    fv = np.multiply(un, un, out=work_array("f.values", (m, m)))
    s2 = float(np.vdot(un, un))
    s4 = float(np.vdot(fv, fv))
    pot = quadrature_weight(u.grid.side, m) * (0.25 * nl.a3 * s4 + 0.5 * nl.a1 * s2)
    quad = None
    if nl.a2 != 0.0:
        u3 = nodal_values(u, padded_points(u.grid.n_modes, 3))
        pot += (nl.a2 / 3.0) * _odd_product_integral(u.grid.side, u3, u3, u3)
        quad = nl.a2 * fv
    fv *= nl.a3
    fv += nl.a1
    fv *= un
    if quad is not None:
        fv += quad
    return fv, pot


def nonlinear_term_and_potential(u: ModalField, nl: Nonlinearity) -> tuple[ModalField, float]:
    """(P_n f(u), integral F(u)), exactly dealiased and sharing one
    padded transform; the time stepper caches both per state.

    f is applied pointwise on a 2x zero-padded nodal grid and the result
    transformed back and truncated: with the cubic degree the retained
    block is alias-free at padding >= 2n.
    """
    if nl.is_zero:
        return ModalField.zeros(u.grid), 0.0
    fv, pot = _nodal_f_and_potential(u, nl)
    return _truncated(fv, u.grid), pot


def f_eval_dealiased(u: ModalField, nl: Nonlinearity) -> ModalField:
    """Modal coefficients of P_n f(u) (see nonlinear_term_and_potential)."""
    if nl.is_zero:
        return ModalField.zeros(u.grid)
    return _truncated(_nodal_f_and_potential(u, nl)[0], u.grid)


def fprime_multiplier(u: ModalField, nl: Nonlinearity):
    """The dealiased multiplier v -> P_n(f'(u) v) on (n, n) coefficient
    arrays, with f'(u) sampled once on the 2n grid.

    Exact for cubic f (the product is a sine polynomial of band 3n) and
    symmetric for any f: both transforms are the same orthogonal DST-I.
    Newton's Jacobians and the stability indicator are built on it.
    """
    grid = u.grid
    m = padded_points(grid.n_modes, 2)
    fp = nl.f_prime(nodal_values(u, m))

    def apply(v: np.ndarray) -> np.ndarray:
        return _truncated(fp * nodal_values(ModalField(grid, v), m), grid).coeff

    return apply


def energy(state, nl: Nonlinearity, g: SourceTerm, potential: float | None = None) -> float:
    """Energy E(u, u_t) = 1/2 ||(u, u_t)||_0^2 + int F(u) - <g, A^{-1} u>.

    Along solutions E(t) - E(s) = -int_s^t ||u_t||_{V'}^2 (energy
    equality); the integrator's safeguard and the dissipativity checks
    rest on it.  potential, when given, is int F(u) as already computed
    by nonlinear_term_and_potential.
    """
    u, v = state.u, state.v
    check_same_grid(u, g.g_modal)
    lam = eigenvalues(u.grid)
    quad = 0.5 * float(np.sum(lam * u.coeff**2) + np.sum(v.coeff**2 / lam))
    pot = nonlinear_term_and_potential(u, nl)[1] if potential is None else potential
    forcing = float(np.sum(g.g_modal.coeff * u.coeff / lam))
    return quad + pot - forcing


def acceleration_from_state(state, nl: Nonlinearity, g: SourceTerm,
                            fhat: np.ndarray | None = None) -> ModalField:
    """u_tt solved from the equation: g - u_t - A^2 u - A f(u), modal.
    fhat, when given, is P_n f(u) as already computed for this state."""
    u, v = state.u, state.v
    check_same_grid(u, g.g_modal)
    lam = eigenvalues(u.grid)
    if fhat is None:
        fhat = f_eval_dealiased(u, nl).coeff
    acc = g.g_modal.coeff - v.coeff - lam**2 * u.coeff - lam * fhat
    return ModalField(u.grid, acc)


def pde_residual(state, u_tt: ModalField, nl: Nonlinearity, g: SourceTerm) -> float:
    """|| u_tt + u_t + A^2 u + A f(u) - g ||_{V'} for given acceleration."""
    return norm_Hs(u_tt - acceleration_from_state(state, nl, g), -0.5)


# ---------------------------------------------------------------------------
# assumption checker
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    """Verified structural bounds for a nonlinearity."""

    lambda_bound: float
    m_bound: float
    r0: float
    min_f_prime_sampled: float
    lambda_bound_valid: bool
    m_bound_valid: bool
    r0_valid: bool
    lambda1: float | None

    @property
    def all_valid(self) -> bool:
        return self.lambda_bound_valid and self.m_bound_valid and self.r0_valid


def check_assumptions(nl: Nonlinearity, grid: GridSpec | None = None) -> AssumptionReport:
    """Verify the claimed structural bounds of the nonlinearity.

    Samples f' on [-1000, 1000] (10^6 + 1 points) against lambda_bound,
    checks the growth bound on f'' and the sign radius r0, and reports
    lambda_1 when a grid is supplied (the relaxed dissipativity condition
    liminf f(r)/r > -lambda_1 holds for every coercive cubic).
    Overridden bounds that fail the sampling are flagged.
    """
    if nl.a3 <= 0.0:
        raise UnsupportedNonlinearityError(
            f"assumption checks need a coercive cubic (a3 > 0), got a3 = {nl.a3}"
        )
    r = np.linspace(-1000.0, 1000.0, 1_000_001)
    fp = nl.f_prime(r)
    min_fp = float(fp.min())
    lam_ok = min_fp >= -nl.lambda_bound - 1e-6

    fs = nl.f_second(r)
    m_ok = bool(np.all(np.abs(fs) <= nl.m_bound * (1.0 + np.abs(r)) + 1e-9))

    outside = np.abs(r) >= nl.r0
    r0_ok = bool(np.all((nl.f(r) * r)[outside] >= -1e-9))

    lam1 = eigenvalue(grid, 1, 1) if grid is not None else None
    return AssumptionReport(
        lambda_bound=nl.lambda_bound,
        m_bound=nl.m_bound,
        r0=nl.r0,
        min_f_prime_sampled=min_fp,
        lambda_bound_valid=lam_ok,
        m_bound_valid=m_ok,
        r0_valid=r0_ok,
        lambda1=lam1,
    )


# ---------------------------------------------------------------------------
# diagnostic functionals
# ---------------------------------------------------------------------------

def _row_values(name: str, z: ModalField, m: int, nodal: dict | None) -> np.ndarray:
    """z on the m grid, in the work array `name`; with a shared dict (see
    higher_functionals), transformed once per state and then reused."""
    vals = None if nodal is None else nodal.get((name, m))
    if vals is None:
        vals = nodal_values(z, m, out=work_array("row." + name, (m, m)))
        if nodal is not None:
            nodal[(name, m)] = vals
    return vals


def _product_sum(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """sum((x * y) * z), evaluated in a work array."""
    p = np.multiply(x, y, out=work_array("row.product", x.shape))
    p *= z
    return float(np.sum(p))


def _fprime_quadratic_form(u: ModalField, v: ModalField, nl: Nonlinearity,
                           nodal: dict | None = None) -> float:
    """(f'(u) v, v), exact: even parts on the 2n grid, the a2 cross term
    (odd type) through the 3n modal contraction."""
    if nl.is_zero:
        return 0.0
    n = u.grid.n_modes
    val = nl.a1 * float(np.sum(v.coeff**2))
    if nl.a3 != 0.0:
        m = padded_points(n, 2)
        un = _row_values("u", u, m, nodal)
        vn = _row_values("v", v, m, nodal)
        w = quadrature_weight(u.grid.side, m)
        v2 = np.square(vn, out=work_array("row.square", (m, m)))
        val += 3.0 * nl.a3 * w * _product_sum(un, un, v2)
    if nl.a2 != 0.0:
        n3 = padded_points(n, 3)
        val += 2.0 * nl.a2 * _odd_product_integral(
            u.grid.side, _row_values("u", u, n3, nodal), _row_values("v", v, n3, nodal) ** 2
        )
    return val


def diagnostic_F(state, nl: Nonlinearity, g: SourceTerm, nodal: dict | None = None,
                 fhat: np.ndarray | None = None) -> float:
    """Velocity diagnostic functional for V = (u_t, u_tt):

        F = 1/2 ||V||_0^2 + beta <u_tt, A^{-1} u_t> + beta/2 ||u_t||_{V'}^2
            + 1/2 (f'(u) u_t, u_t) + big_l ||u_t||_{V'}^2,

    with beta = 1/4 (the cross term stays absorbed for any beta <= 1/2)
    and big_l = max(1, lambda, lambda^2/2), lambda = nl.lambda_bound,
    which absorbs the f' defect through the interpolation
    ||v||^2 <= ||v||_V ||v||_V'.  F is then coercive with the certified
    constant sigma = 1/8: F >= sigma ||V||_0^2.  nodal shares padded-grid
    values with higher_functionals on the same state; fhat is P_n f(u)
    when already computed (the stepper caches it).
    """
    lam_f = nl.lambda_bound
    beta, big_l = 0.25, max(1.0, lam_f, 0.5 * lam_f**2)
    u, v = state.u, state.v
    vt = acceleration_from_state(state, nl, g, fhat)
    lam = eigenvalues(u.grid)
    half_v0 = 0.5 * norm_pair(v, vt, 0.0) ** 2
    cross = float(np.sum(vt.coeff * v.coeff / lam))
    vprime2 = float(np.sum(v.coeff**2 / lam))
    quad_form = _fprime_quadratic_form(u, v, nl, nodal)
    return (
        half_v0
        + beta * cross
        + 0.5 * beta * vprime2
        + 0.5 * quad_form
        + big_l * vprime2
    )


@dataclass
class HigherFunctionals:
    """Values (G0, G, H); along smooth flows dG/dt + G = H."""

    g0: float
    g: float
    h: float


def higher_functionals(state, nl: Nonlinearity, src: SourceTerm,
                       nodal: dict | None = None) -> HigherFunctionals:
    """Quasi-strong functionals of the flow.

        G0 = 1/2 ||U||_2^2 - <g, A u> + 1/2 int f'(u) |lap u|^2
        H0 = 1/2 int f''(u) u_t |lap u|^2 + <A u_t, f''(u) |grad u|^2>
             - 1/2 int f''(u) |grad u|^2 lap u
        G  = G0 + 1/2 (u_t, A u) + 1/4 ||grad u||^2
        H  = H0 - 1/2 <g, A u> + 1/2 (u_t, A u) + 1/4 ||grad u||^2

    All integrals are evaluated exactly for the resolved field (see the
    module docstring), so G and H are independent of the grid size once
    the state is band-limited within it.

    nodal, one dict shared by the functionals of this state (a log row
    passes it to diagnostic_F too), keeps u, u_t, A u and A u_t on the
    padded grids so each is transformed once; it holds pooled work
    arrays, valid until the next padded-grid evaluation.
    """
    u, v = state.u, state.v
    check_same_grid(u, src.g_modal)
    n = u.grid.n_modes
    side = u.grid.side
    lam = eigenvalues(u.grid)

    norm2_sq = norm_pair(u, v, 2.0) ** 2
    g_au = float(np.sum(src.g_modal.coeff * lam * u.coeff))
    ut_au = float(np.sum(v.coeff * lam * u.coeff))
    grad_sq = float(np.sum(lam * u.coeff**2))
    lap_sq = float(np.sum(lam**2 * u.coeff**2))

    a3, a2 = nl.a3, nl.a2
    # int f'(u) |lap u|^2 : a1 part is modal, the rest nodal.
    fprime_lap = nl.a1 * lap_sq
    # int f''(u) (...) terms; f'' = 6 a3 u + 2 a2.
    t_ut_lap = 0.0   # int f''(u) u_t |lap u|^2
    t_gradpair = 0.0  # <A u_t, f''(u) |grad u|^2>
    t_gradlap = 0.0  # int f''(u) |grad u|^2 lap u

    if a3 != 0.0:  # a3 = 0 forces a2 = 0
        m2 = padded_points(n, 2)
        w2 = quadrature_weight(side, m2)
        fields = (("u", u), ("v", v), ("au", ModalField(u.grid, lam * u.coeff)),
                  ("aut", ModalField(u.grid, lam * v.coeff)))
        un, vn, aun, autn = (_row_values(name, z, m2, nodal) for name, z in fields)
        gx, gy = gradient_values(u, m2, out=(work_array("row.gx", (m2, m2)),
                                             work_array("row.gy", (m2, m2))))
        grad2 = np.add(np.square(gx, out=gx), np.square(gy, out=gy), out=gx)  # |grad u|^2
        au2 = np.square(aun, out=work_array("row.square", (m2, m2)))
        fprime_lap += 3.0 * a3 * w2 * _product_sum(un, un, au2)
        t_ut_lap += 6.0 * a3 * w2 * _product_sum(un, vn, au2)
        t_gradpair += 6.0 * a3 * w2 * _product_sum(autn, un, grad2)
        t_gradlap -= 6.0 * a3 * w2 * _product_sum(un, grad2, aun)  # lap u = -A u
        if a2 != 0.0:
            m3 = padded_points(n, 3)
            un3, vn3, aun3, autn3 = (_row_values(name, z, m3, nodal) for name, z in fields)
            gx3, gy3 = gradient_values(u, m3)
            grad23 = gx3**2 + gy3**2
            fprime_lap += 2.0 * a2 * _odd_product_integral(side, un3, aun3**2)
            t_ut_lap += 2.0 * a2 * _odd_product_integral(side, vn3, aun3**2)
            t_gradpair += 2.0 * a2 * _odd_product_integral(side, autn3, grad23)
            t_gradlap += 2.0 * a2 * _odd_product_integral(side, grad23, -aun3)

    g0 = 0.5 * norm2_sq - g_au + 0.5 * fprime_lap
    h0 = 0.5 * t_ut_lap + t_gradpair - 0.5 * t_gradlap
    gg = g0 + 0.5 * ut_au + 0.25 * grad_sq
    hh = h0 - 0.5 * g_au + 0.5 * ut_au + 0.25 * grad_sq
    return HigherFunctionals(g0=g0, g=gg, h=hh)
