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
(odd number).  The nodal grids are cell-centred (see sinech.spectral),
where the midpoint sum integrates every cosine of frequency below 2m
exactly; the even-type integrands here have band at most 4n, so the
plain midpoint sum on the 2x zero-padded grid (m > 2n) is exact for
them.  Odd-type integrands (the a2 terms) are *not* integrated exactly
by any nodal sum; they are recovered exactly by transforming the
pointwise product on a 3x grid (m > 3n: alias-free for triple products)
and contracting the sine coefficients with the closed-form integrals of
the basis functions.  All functionals below are therefore grid-size
independent up to roundoff once the field is resolved.

What is exact in modal space stays there.  a1 u is band-n, so
P_n f(u) = P_n(a3 u^3 + a2 u^2) + a1 u, and f = a1 u takes no transform.
For a2 = 0, int u^4 = <u, P_n(u^3)> (u is band-n and the retained block
of u^3 is alias-free), so int F(u) = 1/4 <u, P_n f(u)> + 1/4 a1 ||u||^2
takes no padded-grid sum.  A source g = 0 is passed as None, which skips
the forcing sums <g, A^(-1) u> and <g, A u>.

The a3 terms of H weigh |grad u|^2 against w = A u and w = A u_t.  They
take no gradient: 6 u |grad u|^2 = lap(u^3) + 3 u^2 A u, and Green's
identity (lap(u^3), w) = -(u^3, A w) holds because u^3 and w vanish on
the boundary, so

    6 int u |grad u|^2 w = -<P_n(u^3), A w> + 3 int u^2 (A u) w.

P_n(u^3) is exact from the 2n grid (mode k folds onto 2m - k, so the
retained block of a band-3n sine polynomial is alias-free for m > 2n);
for a2 = 0 it is (P_n f(u) - a1 u) / a3, from the P_n f(u) a log row
already has.  The last integral is a four-factor even-type sum like the
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedNonlinearityError
from .spectral import (GridSpec, ModalField, check_same_grid, dot, eigenvalue_power, eigenvalues,
                       field_integral, gradient_values, modal_from_values, nodal_values,
                       padded_points, quadrature_weight, weighted_sum, work_array)


@dataclass
class Nonlinearity:
    """Cubic nonlinearity f(r) = a3 r^3 + a2 r^2 + a1 r with derived bounds.

    lambda_bound: f'(r) >= -lambda_bound everywhere (0 when f' >= 0).
    m_bound:      |f''(r)| <= m_bound (1 + |r|).
    r0:           smallest radius with f(r) r >= 0 for all |r| >= r0.

    The bounds are always derived from the coefficients (closed forms for
    the cubic class), never given.  The degenerate linear case a3 = 0
    (with a2 = 0, a1 >= 0) is accepted so that exact linear oracle
    problems can run through the same code path; check_assumptions
    refuses it.  The bounds, and lambda_bound^2 (diagnostic_F's
    constant), must be finite.
    """

    a3: float
    a2: float
    a1: float
    lambda_bound: float = field(init=False)
    m_bound: float = field(init=False)
    r0: float = field(init=False)

    def __post_init__(self):
        if self.a3 < 0.0 or (self.a3 == 0.0 and not (self.a2 == 0.0 and self.a1 >= 0.0)):
            raise UnsupportedNonlinearityError(
                "need a3 > 0 (coercive cubic), or the degenerate linear "
                f"case a3 = a2 = 0 with a1 >= 0; got ({self.a3}, {self.a2}, {self.a1})"
            )
        self.lambda_bound = computed_lambda_bound(self.a3, self.a2, self.a1)
        self.m_bound = max(abs(2.0 * self.a2), 6.0 * abs(self.a3))
        self.r0 = computed_r0(self.a3, self.a2, self.a1)
        if not all(map(math.isfinite, (self.lambda_bound * self.lambda_bound, self.m_bound,
                                       self.r0))):
            raise UnsupportedNonlinearityError(
                f"bounds out of the float range: lambda_bound = {self.lambda_bound:g}, "
                f"m_bound = {self.m_bound:g}, r0 = {self.r0:g}")

    @property
    def is_zero(self) -> bool:
        return self.a3 == 0.0 and self.a2 == 0.0 and self.a1 == 0.0

    def f(self, r):
        return ((self.a3 * r + self.a2) * r + self.a1) * r

    def f_prime(self, r, out: np.ndarray | None = None):
        """f'(r), the package's one f' formula; in place in out when given."""
        fp = np.multiply(r, 3.0 * self.a3, out=out)
        fp += 2.0 * self.a2
        fp *= r
        fp += self.a1
        return fp

    def f_second(self, r):
        return 6.0 * self.a3 * r + 2.0 * self.a2


def computed_lambda_bound(a3: float, a2: float, a1: float) -> float:
    """max(0, a2^2/(3 a3) - a1): the sharp -min f' for the cubic class."""
    if a3 == 0.0:
        return max(0.0, -a1)
    return max(0.0, a2 * a2 / (3.0 * a3) - a1)


def computed_r0(a3: float, a2: float, a1: float) -> float:
    """Radius beyond which f(r) r >= 0: largest |root| of a3 r^2 + a2 r + a1."""
    if a3 == 0.0:
        return 0.0
    disc = a2 * a2 - 4.0 * a3 * a1
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


# A state that blows up overflows in the evaluations below: they run
# without numpy's warnings, and the callers' checks (a step's finiteness
# and energy safeguard, Newton's stop) refuse what they return.
_OVERFLOW_UNCHECKED = np.errstate(over="ignore", invalid="ignore")


@_OVERFLOW_UNCHECKED
def _f_and_potential(u: ModalField, nl: Nonlinearity, values: np.ndarray | None = None,
                     potential: bool = True) -> tuple[np.ndarray, float | None]:
    """P_n f(u) as a fresh (n, n) array and int F(u) (None without
    potential): the one evaluation of both.

    Only a3 u^3 + a2 u^2 is formed on the 2n grid, u^3 alone for a2 = 0
    (two passes, a3 applied to the retained block); a1 u is added in modal
    space, and f = a1 u transforms nothing (see the module docstring).
    For a2 = 0, int F(u) = 1/4 <u, P_n f(u)> + 1/4 a1 ||u||^2; for a2 != 0
    the quartic term is the midpoint sum on the 2n grid (exact: band
    4n < 2m), the cubic one the alias-free 3n contraction.  The padded
    arrays are pooled work arrays, valid until the next call.  values,
    when given, holds u on the 2n grid instead of a pooled array
    (untouched when a3 = 0).
    """
    c, n, side = u.coeff, u.grid.n_modes, u.grid.side
    a3, a2, a1 = nl.a3, nl.a2, nl.a1
    if a3 == 0.0:
        return a1 * c, 0.5 * a1 * dot(c, c) if potential else None
    m = padded_points(n, 2)
    un = nodal_values(u, m, out=work_array("f.u", (m, m)) if values is None else values)
    fv = np.square(un, out=work_array("f.values", (m, m)))
    pot = None
    if a2 == 0.0:
        fv *= un
        fhat = a3 * modal_from_values(fv, side, overwrite=True, n_modes=n)
    else:
        if potential:
            u3 = nodal_values(u, padded_points(n, 3))
            pot = (quadrature_weight(side, m) * 0.25 * a3 * dot(fv, fv)
                   + (a2 / 3.0) * _odd_product_integral(side, u3, u3, u3) + 0.5 * a1 * dot(c, c))
        a3u_a2 = np.multiply(un, a3, out=work_array("f.a3u", (m, m)))
        a3u_a2 += a2
        fv *= a3u_a2
        fhat = modal_from_values(fv, side, overwrite=True, n_modes=n).copy()
    if a1 != 0.0:
        fhat += a1 * c
    if potential and a2 == 0.0:
        pot = 0.25 * (dot(c, fhat) + a1 * dot(c, c))
    return fhat, pot


def nonlinear_term_and_potential(u: ModalField, nl: Nonlinearity,
                                 values: np.ndarray | None = None) -> tuple[ModalField, float]:
    """(P_n f(u), integral F(u)), exactly dealiased and sharing one
    padded transform pair (none for a3 = 0); the time stepper caches both
    per state.

    a3 u^3 + a2 u^2 is formed pointwise on a 2x zero-padded nodal grid and
    transformed back and truncated: with the cubic degree the retained
    block is alias-free at padding m > 2n; a1 u is added in modal space
    (see _f_and_potential).  values, an (m, m) array with
    m = padded_points(n_modes), receives u on the 2n grid when given, for
    the log rows and fprime_sample (untouched when a3 = 0).
    """
    fhat, pot = _f_and_potential(u, nl, values)
    return ModalField(u.grid, fhat), pot


def f_eval_dealiased(u: ModalField, nl: Nonlinearity) -> ModalField:
    """Modal coefficients of P_n f(u) (see nonlinear_term_and_potential)."""
    return ModalField(u.grid, _f_and_potential(u, nl, potential=False)[0])


@_OVERFLOW_UNCHECKED
def fprime_sample(values: np.ndarray, nl: Nonlinearity) -> np.ndarray:
    """f'(u) on the 2n grid from u's values there, in a pooled work array;
    for a3 = 0 it is a1, and values (left untouched then) are not read."""
    fp = work_array("fprime.u", values.shape)
    if nl.a3 == 0.0:
        fp.fill(nl.a1)
        return fp
    return nl.f_prime(values, out=fp)


def _binary_exponent(a: np.ndarray) -> int:
    """e with max|a| / 2^e in [0.5, 1) (0 for a = 0): scaling by 2^-e is exact."""
    return math.frexp(max(float(a.max()), -float(a.min())))[1]


# builds of fprime_multiplier per (dtype, padded size): its pooled scaled f'
# belongs to the last build of that slot
_multiplier_builds: dict = {}


def fprime_multiplier(grid: GridSpec, fprime: np.ndarray, dtype=np.float64):
    """The dealiased multiplier v -> P_n(f'(u) v) on (n, n) coefficient
    arrays of grid, with f'(u) on the 2n grid as fprime_sample gave it.

    Exact for cubic f (the product is a sine polynomial of band 3n) and
    symmetric for any f: on the retained modes the forward DST-II is the
    transpose of the inverse DST-III times the quadrature weight.
    Newton's Jacobians and the stability indicator are built on it.

    The product runs in dtype (float64, or float32 for Newton's loose
    inner solves): the padded DST-III/DST-II pair, the pointwise product
    and the retained block, in pooled work arrays.  f' is scaled by the
    power of two of its max-abs into one of them (valid until the next
    multiplier of this dtype and grid is built: applying this one then
    raises RuntimeError, as it would no longer apply its own f'), each v
    by its own, and both scales are undone exactly in the float64 result,
    a pooled (n, n) array valid until the next product.  Power-of-two
    scales commute with every rounding, so a product is bitwise the
    unscaled one in its dtype unless a value leaves the normal range, and
    a float32 one overflows nothing (see integrator._FLOAT32_RTOL for its
    error).
    """
    n, side = grid.n_modes, grid.side
    m = padded_points(n, 2)
    f_exp = _binary_exponent(fprime)
    scaled_fp = np.ldexp(fprime, -f_exp, out=work_array("fprime.scaled", (m, m), dtype))
    scaled_v, vals = work_array("fprime.w", (n, n)), work_array("fprime.v", (m, m), dtype)
    product = work_array("fprime.product", (n, n))
    slot = (np.dtype(dtype), m)  # whose scaled f' scaled_fp holds
    build = _multiplier_builds[slot] = _multiplier_builds.get(slot, 0) + 1

    @_OVERFLOW_UNCHECKED
    def apply(v: np.ndarray) -> np.ndarray:
        if _multiplier_builds[slot] != build:
            raise RuntimeError("stale f' multiplier: another one of its dtype and grid was "
                               "built since, over the pooled f' it applies")
        v_exp = _binary_exponent(v)
        nodal_values(ModalField(grid, np.ldexp(v, -v_exp, out=scaled_v)), m, out=vals)
        np.multiply(vals, scaled_fp, out=vals)
        # float64 in, else ldexp's float32 loop overflows on a large product
        return np.ldexp(modal_from_values(vals, side, overwrite=True, n_modes=n),
                        v_exp + f_exp, out=product, dtype=np.float64)

    return apply


def energy(state, nl: Nonlinearity, g: SourceTerm | None, potential: float | None = None,
           shared: dict | None = None) -> float:
    """Energy E(u, u_t) = 1/2 ||(u, u_t)||_0^2 + int F(u) - <g, A^{-1} u>.

    Along solutions E(t) - E(s) = -int_s^t ||u_t||_{V'}^2 (energy
    equality); the integrator's safeguard and the dissipativity checks
    rest on it.  g None stands for g = 0 and skips the forcing sum (the
    stepper decides this once per run).  potential, when given, is
    int F(u) as already computed by nonlinear_term_and_potential; shared,
    when given, keeps the state's two square sums (see square_sum) for its
    log row.
    """
    u, v = state.u, state.v
    if g is not None:
        check_same_grid(u, g.g_modal)
    shared = {} if shared is None else shared
    quad = 0.5 * (square_sum(shared, "u", u, 1.0) + square_sum(shared, "v", v, -1.0))
    pot = nonlinear_term_and_potential(u, nl)[1] if potential is None else potential
    forcing = 0.0 if g is None else weighted_sum(eigenvalue_power(u.grid, -1.0), g.g_modal.coeff,
                                                 u.coeff)
    return quad + pot - forcing


def acceleration_from_state(state, nl: Nonlinearity, g: SourceTerm | None,
                            fhat: np.ndarray | None = None) -> ModalField:
    """u_tt solved from the equation: g - u_t - A^2 u - A f(u), modal
    (g None for g = 0).  fhat, when given, is P_n f(u) as already computed
    for this state."""
    u, v = state.u, state.v
    if g is not None:
        check_same_grid(u, g.g_modal)
    if fhat is None:
        fhat = f_eval_dealiased(u, nl).coeff
    acc = -v.coeff if g is None else g.g_modal.coeff - v.coeff
    acc -= eigenvalue_power(u.grid, 2.0) * u.coeff
    acc -= eigenvalues(u.grid) * fhat
    return ModalField(u.grid, acc)


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

    @property
    def all_valid(self) -> bool:
        return self.lambda_bound_valid and self.m_bound_valid and self.r0_valid


def check_assumptions(nl: Nonlinearity) -> AssumptionReport:
    """Verify the derived structural bounds of the nonlinearity.

    Samples f' on [-1000, 1000] (10^6 + 1 points) against lambda_bound,
    and checks the growth bound on f'' and the sign radius r0.  A bound
    whose sampled values overflow is flagged, since those verify nothing.
    """
    if nl.a3 <= 0.0:
        raise UnsupportedNonlinearityError(
            f"assumption checks need a coercive cubic (a3 > 0), got a3 = {nl.a3}"
        )
    r = np.linspace(-1000.0, 1000.0, 1_000_001)
    with np.errstate(over="ignore", invalid="ignore"):
        fp, fs, fr = nl.f_prime(r), nl.f_second(r), nl.f(r) * r
        min_fp = float(fp.min())
        lam_ok = bool(np.isfinite(fp).all()) and min_fp >= -nl.lambda_bound - 1e-6
        m_ok = bool(np.isfinite(fs).all()
                    and np.all(np.abs(fs) <= nl.m_bound * (1.0 + np.abs(r)) + 1e-9))
        r0_ok = bool(np.isfinite(fr).all() and np.all(fr[np.abs(r) >= nl.r0] >= -1e-9))

    return AssumptionReport(
        lambda_bound=nl.lambda_bound,
        m_bound=nl.m_bound,
        r0=nl.r0,
        min_f_prime_sampled=min_fp,
        lambda_bound_valid=lam_ok,
        m_bound_valid=m_ok,
        r0_valid=r0_ok,
    )


# ---------------------------------------------------------------------------
# diagnostic functionals
# ---------------------------------------------------------------------------

def _shared(shared: dict, key, compute):
    """shared[key], computed by compute() on first use."""
    val = shared.get(key)
    if val is None:
        val = shared[key] = compute()
    return val


def square_sum(shared: dict, name: str, z: ModalField, p: float) -> float:
    """||A^(p/2) z||^2 = sum eigenvalue^p z^2 for the state's field `name` (u
    or v), computed once per shared dict (see higher_functionals)."""
    return _shared(shared, ("sum", name, p),
                   lambda: weighted_sum(eigenvalue_power(z.grid, p), z.coeff, z.coeff))


def _row_values(name: str, z: ModalField, m: int, shared: dict) -> np.ndarray:
    """z on the m grid, in the work array `name`, transformed once per shared
    dict (see higher_functionals)."""
    return _shared(shared, (name, m),
                   lambda: nodal_values(z, m, out=work_array("row." + name, (m, m))))


def _row_u2(u: ModalField, m: int, shared: dict) -> np.ndarray:
    """u^2 on the m grid, formed once per shared dict."""
    return _shared(shared, ("uu", m), lambda: np.square(
        _row_values("u", u, m, shared), out=work_array("row.uu", (m, m))))


def _fprime_quadratic_form(u: ModalField, v: ModalField, nl: Nonlinearity,
                           shared: dict) -> float:
    """(f'(u) v, v), exact: even parts on the 2n grid, the a2 cross term
    (odd type) through the 3n modal contraction."""
    if nl.is_zero:
        return 0.0
    n = u.grid.n_modes
    val = nl.a1 * dot(v.coeff, v.coeff)
    if nl.a3 != 0.0:
        m = padded_points(n, 2)
        vn = _row_values("v", v, m, shared)
        val += (3.0 * nl.a3 * quadrature_weight(u.grid.side, m)
                * weighted_sum(_row_u2(u, m, shared), vn, vn))
    if nl.a2 != 0.0:
        n3 = padded_points(n, 3)
        val += 2.0 * nl.a2 * _odd_product_integral(
            u.grid.side, _row_values("u", u, n3, shared), _row_values("v", v, n3, shared) ** 2
        )
    return val


def diagnostic_F(state, nl: Nonlinearity, g: SourceTerm | None, shared: dict | None = None,
                 fhat: np.ndarray | None = None) -> float:
    """Velocity diagnostic functional for V = (u_t, u_tt):

        F = 1/2 ||V||_0^2 + beta <u_tt, A^{-1} u_t> + beta/2 ||u_t||_{V'}^2
            + 1/2 (f'(u) u_t, u_t) + big_l ||u_t||_{V'}^2,

    with beta = 1/4 (the cross term stays absorbed for any beta <= 1/2)
    and big_l = max(1, lambda, lambda^2/2), lambda = nl.lambda_bound,
    which absorbs the f' defect through the interpolation
    ||v||^2 <= ||v||_V ||v||_V'.  F is then coercive with the certified
    constant sigma = 1/8: F >= sigma ||V||_0^2.  g None stands for g = 0.
    shared holds what higher_functionals and the log row computed on the
    same state; fhat is P_n f(u) when already computed (the stepper caches
    it).
    """
    lam_f = nl.lambda_bound
    beta, big_l = 0.25, max(1.0, lam_f, 0.5 * lam_f**2)
    shared = {} if shared is None else shared
    u, v = state.u, state.v
    vt = acceleration_from_state(state, nl, g, fhat).coeff
    inv = eigenvalue_power(u.grid, -1.0)
    half_v0 = 0.5 * (square_sum(shared, "v", v, 1.0) + weighted_sum(inv, vt, vt))
    cross = weighted_sum(inv, vt, v.coeff)
    vprime2 = square_sum(shared, "v", v, -1.0)
    quad_form = _fprime_quadratic_form(u, v, nl, shared)
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


@_OVERFLOW_UNCHECKED
def higher_functionals(state, nl: Nonlinearity, src: SourceTerm | None, shared: dict | None = None,
                       fhat: np.ndarray | None = None,
                       values: np.ndarray | None = None) -> HigherFunctionals:
    """Quasi-strong functionals of the flow.

        G0 = 1/2 ||U||_2^2 - <g, A u> + 1/2 int f'(u) |lap u|^2
        H0 = 1/2 int f''(u) u_t |lap u|^2 + <A u_t, f''(u) |grad u|^2>
             - 1/2 int f''(u) |grad u|^2 lap u
        G  = G0 + 1/2 (u_t, A u) + 1/4 ||grad u||^2
        H  = H0 - 1/2 <g, A u> + 1/2 (u_t, A u) + 1/4 ||grad u||^2

    All integrals are evaluated exactly for the resolved field (see the
    module docstring), so G and H are independent of the grid size once
    the state is band-limited within it.  The a3 parts of the two
    |grad u|^2 terms of H0 take no gradient (module docstring):

        6 int u |grad u|^2 w = -<P_n(u^3), A w> + 3 int u^2 (A u) w

    for w = A u_t and w = A u.  For a2 = 0, a3 P_n(u^3) = fhat - a1 u with
    fhat = P_n f(u), given when already computed (the stepper caches it);
    for a2 != 0 it is one forward transform of a3 u^3 on the 2n grid.
    src None stands for g = 0 and skips <g, A u>.

    shared, one dict for the functionals of this state (a log row passes
    it to diagnostic_F too), keeps what more than one of them uses, so
    each is computed once: the square sums of u and u_t (square_sum,
    keyed ("sum", name, p)), and u, u_t, A u, A u_t and u^2 on the padded
    grids, keyed (name, m) with name in u, v, au, aut, uu; the grid
    values are pooled work arrays, valid until the next padded-grid
    evaluation.  values, when given, is u on the 2n grid as
    nonlinear_term_and_potential left it, kept as ("u", m) (not read for
    a3 = 0).  A log row passes the step's, and seeds shared with the
    energy's square sums.
    """
    u, v = state.u, state.v
    if src is not None:
        check_same_grid(u, src.g_modal)
    shared = {} if shared is None else shared
    n, side = u.grid.n_modes, u.grid.side
    lam, lam2 = eigenvalues(u.grid), eigenvalue_power(u.grid, 2.0)

    norm2_sq = square_sum(shared, "u", u, 3.0) + square_sum(shared, "v", v, 1.0)
    g_au = 0.0 if src is None else weighted_sum(lam, src.g_modal.coeff, u.coeff)
    ut_au = weighted_sum(lam, v.coeff, u.coeff)
    grad_sq = square_sum(shared, "u", u, 1.0)
    lap_sq = square_sum(shared, "u", u, 2.0)

    a3, a2 = nl.a3, nl.a2
    # int f'(u) |lap u|^2 : a1 part is modal, the rest nodal.
    fprime_lap = nl.a1 * lap_sq
    # int f''(u) (...) terms; f'' = 6 a3 u + 2 a2.
    t_ut_lap = 0.0   # int f''(u) u_t |lap u|^2
    t_gradpair = 0.0  # <A u_t, f''(u) |grad u|^2>
    t_gradlap = 0.0  # int f''(u) |grad u|^2 lap u

    if a3 != 0.0:  # a3 = 0 forces a2 = 0
        m2 = padded_points(n, 2)
        if values is not None:
            shared[("u", m2)] = values
        w2 = quadrature_weight(side, m2)
        fields = (("u", u), ("v", v), ("au", ModalField(u.grid, lam * u.coeff)),
                  ("aut", ModalField(u.grid, lam * v.coeff)))
        un, vn, aun, autn = (_row_values(name, z, m2, shared) for name, z in fields)
        uu = _row_u2(u, m2, shared)
        au2 = np.square(aun, out=work_array("row.square", (m2, m2)))
        uu_au2 = dot(uu, au2)  # int u^2 (A u)^2 = w2 * uu_au2
        fprime_lap += 3.0 * a3 * w2 * uu_au2
        t_ut_lap += 6.0 * a3 * w2 * weighted_sum(au2, un, vn)
        # the Green identity: cube = a3 P_n(u^3), weighed by A^2; lap u = -A u
        if a2 == 0.0:
            cube = (f_eval_dealiased(u, nl).coeff if fhat is None else fhat) - nl.a1 * u.coeff
        else:
            cube = np.multiply(uu, un, out=work_array("row.cube", (m2, m2)))
            cube *= a3
            cube = modal_from_values(cube, side, overwrite=True, n_modes=n)
        t_gradpair += (3.0 * a3 * w2 * weighted_sum(uu, aun, autn)
                       - weighted_sum(lam2, cube, v.coeff))
        t_gradlap += weighted_sum(lam2, cube, u.coeff) - 3.0 * a3 * w2 * uu_au2
        if a2 != 0.0:
            m3 = padded_points(n, 3)
            un3, vn3, aun3, autn3 = (_row_values(name, z, m3, shared) for name, z in fields)
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
