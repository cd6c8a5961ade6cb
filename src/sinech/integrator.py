"""Time integration of u_tt + u_t + A(A u + f(u)) = g in modal space.

Two schemes:

* ``imex_cn_ab2`` -- Crank-Nicolson on the stiff linear part (per-mode
  2x2 solves in closed form, as propagator tables cached per step size),
  Adams-Bashforth-2 extrapolation of the dealiased nonlinear term at the
  half step, with a single nonlinearity-explicit Euler start-up step;
  CrankNicolson.step_ab2 is the one home of this rule.
  Second order; the linear part is unconditionally stable, the explicit
  part is benign at desk scale as long as dt * lambda_max * |f'| stays
  moderate.  Besides one padded transform pair (the new state's P_n f(u)
  and int F(u)) a step is O(n^2) modal work; a source g = 0, decided once
  per run, adds no forcing term and no <g, A^(-1) u> to the energy.
* ``implicit_newton`` -- backward Euler, solved to ||residual|| / dt <=
  newton_tol (or the step's roundoff floor, if higher) by newton_krylov
  from the linearly implicit step with P_n f extrapolated from the last
  two accepted states, 2 P_n f(u_n) - P_n f(u_{n-1}) (frozen at the
  current state's cached P_n f(u_n) on a first step), and an a1 > 0 taken
  implicitly (Stepper._predictor).  First order, very robust.

newton_krylov is the one damped inexact Newton loop.  It solves
R(x) = d x + P_n f(x) - b = 0: the step divided by h^2 Lam, with
d = Lam + (1 + h) / (h^2 Lam), and analysis.find_equilibrium's
A u + P_n f(u) = A^(-1) g, with d = Lam.  Its inner solves, by the
module's own MINRES (scipy's recurrences, with sums by spectral.dot),
apply the one operator w -> d w + P_n(f'(x) w) (newton_operator),
preconditioned by w -> w / (d + mean f'), and stop at a fixed
Eisenstat-Walker tolerance (_forcing); an operator here is a map of
(n, n) coefficient arrays, as model.fprime_multiplier is.  Each Newton
iteration samples f' once; a solve asked for rtol >= _FLOAT32_RTOL
applies the operator's f' product in float32 (the one product, scaled so
nothing overflows), while the residual, the stop, the line search, the
preconditioner and MINRES's own arithmetic stay float64.  An update is
halved, up to 12 times, until ||R|| drops.  The map is strongly
monotone when min d > lambda_bound (f' >= -lambda_bound); a failed
implicit step whose system is not says so.

Time runs forward only (dt > 0).  Both schemes reject a step that
leaves a non-finite state or increases the energy by more than the
configured safeguard tolerance: for this equation the energy is
nonincreasing along forward solutions, so a jump is a reliable
instability signal.

``run`` is the one loop that advances a ``Stepper`` to a horizon, calling
an observer that records what its caller reads at the sample points:
``simulate`` observes with a ``TrajectoryLog``, the drivers with less.

A useful discrete fact (used for the logged cumulative dissipation):
with Crank-Nicolson the update satisfies, exactly in floating point
terms, E_{n+1} - E_n = -dt ||(v_n + v_{n+1})/2||_{V'}^2 for the purely
linear flow, so accumulating that trapezoid-in-state quadrature keeps
the discrete energy identity tight at machine precision for f = 0 and
O(dt^2) otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InstabilityError, StepFailureError
from .model import (Nonlinearity, SourceTerm, diagnostic_F, energy, fprime_multiplier,
                    fprime_sample, higher_functionals, nonlinear_term_and_potential,
                    square_sum)
from .spectral import (GridSpec, ModalField, check_same_grid, dot, eigenvalue_power, eigenvalues,
                       padded_points, weighted_sum, work_array)

_MINRES_MAXITER = 1000  # inner iterations per Newton direction
# Inner solves asked for an rtol of at least _FLOAT32_RTOL apply the
# Jacobian's f' product in float32 (model.fprime_multiplier).  That product is
# within 1.7-1.8e-7 of the float64 one, relative (N = 16, 64 and 128, for
# f = u^3 - 3u, u^3 - 60u and u^3 + 0.5u^2 + 1000u): under a fifth of any
# such rtol, and less against the whole operator, whose d w stays exact.
# The Newton residual, its stop and the line search stay float64, so a
# loose Jacobian could cost iterations, never accuracy (Kelley, SIAM Rev.
# 64, 2022); settle-n64 takes the same Newton and MINRES iterations with it.
_FLOAT32_RTOL = 1e-6
SCHEMES = ("imex_cn_ab2", "implicit_newton")


@dataclass
class State:
    """Phase-space point (u, u_t) at a given time."""

    u: ModalField
    v: ModalField
    time: float = 0.0

    def __post_init__(self):
        check_same_grid(self.u, self.v)

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.time)


@dataclass
class SchemeConfig:
    """Step size and scheme selection.

    dt must be finite and > 0; safeguard_tol (>= 0) is the maximum
    tolerated single-step energy increase; newton_* only apply to the
    implicit scheme.
    """

    dt: float
    scheme: str = "imex_cn_ab2"
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    safeguard_tol: float = 1e-6

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        _require_forward(self.dt)
        if not (self.newton_tol > 0.0):
            raise ValueError("newton_tol must be > 0")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")
        if not self.safeguard_tol >= 0.0:
            raise ValueError("safeguard_tol must be >= 0")


@dataclass
class TrajectoryLog:
    """Sampled scalar history of a run; record is its observer for run.

    Columns: time, the pair norms at s = 0 and s = 2, ||u_t||_{V'}, the
    energy, the velocity diagnostic, the two higher functionals, and the
    running dissipation integral int ||u_t||_{V'}^2 (trapezoid rule,
    accumulated every step regardless of the sampling stride).  final is
    the last sampled state.
    """

    t: list = field(default_factory=list)
    norm0: list = field(default_factory=list)
    norm2: list = field(default_factory=list)
    ut_vprime: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    cal_f: list = field(default_factory=list)
    cal_g: list = field(default_factory=list)
    cal_h: list = field(default_factory=list)
    dissip_cum: list = field(default_factory=list)
    final: State | None = None

    CSV_HEADER = "t,norm0,norm2,ut_Vprime,energy,calF,calG,calH,dissip_cum"

    def __len__(self) -> int:
        return len(self.t)

    def record(self, stepper: "Stepper", dissip_cum: float) -> None:
        """Append one row for the stepper's current state."""
        s = stepper.state
        # the functionals and the norms share one dict of sums and padded-grid
        # values, seeded by the step (see Stepper._row_inputs)
        fhat, shared = stepper._row_inputs()
        hf = higher_functionals(s, stepper.nl, stepper._g, shared, fhat)
        u1, u3, v_1, v1 = (square_sum(shared, name, z, p) for name, z, p in (
            ("u", s.u, 1.0), ("u", s.u, 3.0), ("v", s.v, -1.0), ("v", s.v, 1.0)))
        self.t.append(s.time)
        self.norm0.append(math.sqrt(u1 + v_1))
        self.norm2.append(math.sqrt(u3 + v1))
        self.ut_vprime.append(math.sqrt(v_1))
        self.energy.append(stepper.energy_total())
        self.cal_f.append(diagnostic_F(s, stepper.nl, stepper._g, shared, fhat))
        self.cal_g.append(hf.g)
        self.cal_h.append(hf.h)
        self.dissip_cum.append(dissip_cum)
        self.final = s  # a reference: the stepper replaces its state, never mutates it

    def write_csv(self, path) -> None:
        cols = np.column_stack([np.asarray(getattr(self, f.name)) for f in fields(self)[:9]])
        np.savetxt(path, cols, delimiter=",", header=self.CSV_HEADER, comments="", fmt="%.17g")


def _require_forward(dt: float) -> None:
    """ValueError unless the step dt is finite and > 0: time runs forward only."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0 (no backward time), got {dt}")


def _require_finite(t: float, *arrays: np.ndarray) -> None:
    """InstabilityError (at time t) unless every coefficient is finite.  A
    finite sum proves it in one pass (a nan or an inf never sums to a
    finite value); only a sum that is not is checked entry by entry.  A
    sum that overflows, or adds inf to -inf, raises no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(math.isfinite(a.sum()) or np.isfinite(a).all() for a in arrays)
    if not finite:
        raise InstabilityError(
            f"non-finite state at t={t:g}; reduce dt or the resolution/nonlinearity "
            "stiffness",
            time=t,
        )


def _forcing(history: list, tol: float) -> float:
    """Inner MINRES rtol for Newton iterate k of newton_krylov (Eisenstat
    & Walker, SIAM J. Sci. Comput. 17, 1996, choice 2 with gamma = 0.9,
    alpha = 2):
    eta_0 = 1e-3, eta_k = min(1e-3, 0.9 (r_k / r_{k-1})^2) for the outer
    residuals r_k = history[k], floored at max(1e-12, 0.5 tol / r_k) so the
    last solve does not reach far below the outer tolerance."""
    r = history[-1]
    eta = 1e-3 if len(history) == 1 else min(1e-3, 0.9 * (r / history[-2]) ** 2)
    return max(eta, 1e-12, 0.5 * tol / r)


def minres(A, b: np.ndarray, *, M, rtol: float, maxiter: int, callback=None):
    """MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975) for the
    symmetric A x = b on (n, n) coefficient arrays from x = 0,
    preconditioned by the SPD M; A and M are maps of such arrays (see
    newton_operator) called as A(v, out=y), writing into y, and sums are by
    spectral.dot.  The recurrences and stopping tests are those of
    scipy.sparse.linalg.minres (scipy 1.17, no shift), so it takes as
    many iterations: it stops when ||r|| / (||A|| ||x||) or
    ||A r|| / (||A|| ||r||) reaches rtol, when cond(A) exceeds 0.1 / eps
    or ||A|| ||x|| eps exceeds ||b||_M, or when the first Lanczos step
    finds b an eigenvector.  Returns (x, info), info
    maxiter when none of these held in maxiter iterations, else 0.
    callback(x) follows every iteration, with x updated in place.

    b is never written.  x, the Lanczos vectors, the pair w and the
    products live in pooled work arrays, so the x returned is valid until
    the next solve on this shape."""
    eps = sys.float_info.epsilon
    x, v, w, w_prev, term = (work_array("minres." + k, b.shape)
                             for k in ("x", "v", "w", "w_prev", "term"))
    lanczos = [work_array(f"minres.lanczos{k}", b.shape) for k in range(3)]  # r1, r2, y
    x.fill(0.0)
    r1 = b
    y = M(r1, out=lanczos[0])
    beta1 = dot(r1, y)
    if beta1 < 0.0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0.0:
        return x, 0
    beta1 = math.sqrt(beta1)
    beta, oldb, dbar, epsln, phibar = beta1, 0.0, 0.0, 0.0, beta1
    tnorm2, gmax, gmin, cs, sn = 0.0, 0.0, sys.float_info.max, -1.0, 0.0
    w.fill(0.0)
    w_prev.fill(0.0)
    r2 = r1
    for itn in range(1, maxiter + 1):
        # Lanczos step: v = y / beta, y = A v - (beta / oldb) r1 - (alfa / beta) r2
        np.multiply(y, 1.0 / beta, out=v)
        y = A(v, out=y)
        if itn >= 2:
            y -= np.multiply(r1, beta / oldb, out=term)
        alfa = dot(v, y)
        y -= np.multiply(r2, alfa / beta, out=term)
        r1, r2 = r2, y
        y = M(r2, out=next(a for a in lanczos if a is not r1 and a is not r2))
        oldb, beta = beta, dot(r2, y)
        if beta < 0.0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa * alfa + oldb * oldb + beta * beta
        # the previous plane rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.sqrt(gbar * gbar + dbar * dbar)
        gamma = max(math.sqrt(gbar * gbar + beta * beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w_k = (v - oldeps w_{k-2} - delta w_{k-1}) / gamma, into w_{k-2}'s array
        w_prev *= -oldeps
        w_prev += v
        w_prev -= np.multiply(w, delta, out=term)
        w_prev *= 1.0 / gamma
        w, w_prev = w_prev, w
        x += np.multiply(w, phi, out=term)
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        # the stopping tests, on the estimates of ||A||, ||x||, ||r||, ||A r||
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(dot(x, x))
        den = anorm * ynorm
        test1 = phibar / den if den else math.inf
        test2 = root / anorm if anorm else math.inf
        done = (test1 <= rtol or test2 <= rtol or 1.0 + test1 <= 1.0 or 1.0 + test2 <= 1.0
                or gmax / gmin >= 0.1 / eps or den * eps >= beta1
                or (itn == 1 and beta / beta1 <= 10.0 * eps))
        if callback is not None:
            callback(x)
        if done:
            return x, 0
    return x, maxiter


def newton_operator(grid: GridSpec, d: np.ndarray, fprime: np.ndarray, dtype=np.float64):
    """The Jacobian w -> d w + P_n(f'(u) w) of R(x) = d x + P_n f(x) - b at
    x = u on (n, n) coefficient arrays of grid, matrix-free and symmetric,
    for fprime = f'(u) on the 2n grid; its f' product runs in dtype (see
    model.fprime_multiplier), d w in float64.  Called as op(w, out=y) it
    writes into y (not w), else into a new array."""
    mult = fprime_multiplier(grid, fprime, dtype)

    def apply(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(d, w, out=out)
        out += mult(w)
        return out

    return apply


def newton_krylov(u0: ModalField, nl: Nonlinearity, d: np.ndarray, b: np.ndarray, solve, stop,
                  tol: float, max_iter: int):
    """The damped inexact Newton loop of the module docstring on
    R(x) = d x + P_n f(x) - b, from u0.

    solve is a minres(op, rhs, M=, rtol=, maxiter=) on (n, n) arrays,
    returning (delta, info); stop(R) returns (||R||, done).  An iterate x,
    its residual R and u on the 2n grid, which its residual transform
    leaves, live in one of two sets of pooled arrays, the accepted
    iterate's and the line search's, which swap roles at each accepted
    update; each iteration samples f'(x) from the accepted iterate's values
    (model.fprime_sample) and builds its solve's operator from it, with the
    f' product in float32 for a solve asked for rtol >= _FLOAT32_RTOL, else
    in float64.  Returns (failure, x, cached, values, history): why Newton
    stopped short (None when stop is done), a copy of the last accepted
    iterate with its cached (P_n f(x), int F(x)) and its 2n-grid values
    (pooled, untouched for a3 = 0), and its ||R||s.
    """
    grid = u0.grid
    m = padded_points(grid.n_modes, 2)
    cur, trial = ({"x": work_array("newton.x" + k, b.shape),
                   "r": work_array("newton.r" + k, b.shape),
                   "values": work_array("newton.values" + k, (m, m))} for k in ("", "_try"))

    def residual(x, slot):  # d x + P_n f(x) - b, summed in that order into slot["r"]
        fh, pot = nonlinear_term_and_potential(ModalField(grid, x), nl, slot["values"])
        r = np.multiply(d, x, out=slot["r"])
        r += fh.coeff
        r -= b
        return r, (fh.coeff, pot)

    x, failure = u0.coeff, None
    r, cached = residual(x, cur)
    rn, done = stop(r)
    history = [rn]
    while not done:
        if len(history) > max_iter:
            failure = f"Newton did not reach tol={tol:g} in {max_iter} iterations"
            break
        fprime = fprime_sample(cur["values"], nl)
        pre = inverse_diagonal(_preconditioner_diagonal(d, fprime.mean()))
        rtol = _forcing(history, tol)
        dtype = np.float32 if rtol >= _FLOAT32_RTOL else np.float64
        delta, info = solve(newton_operator(grid, d, fprime, dtype), -r, M=pre, rtol=rtol,
                            maxiter=_MINRES_MAXITER)
        if info != 0:
            failure = f"inner MINRES stalled (info={info})"
            break
        for k in range(12):  # halve the update until ||R|| decreases
            x_try = np.multiply(delta, 0.5**k, out=trial["x"])
            x_try += x
            r_try, cached_try = residual(x_try, trial)
            rn_try, done = stop(r_try)
            if rn_try < rn:
                break
        else:
            failure = "Newton line search failed"
            break
        x, r, cached, rn, cur, trial = x_try, r_try, cached_try, rn_try, trial, cur
        history.append(rn)
    return failure, x.copy(), cached, cur["values"], history


def inverse_diagonal(d: np.ndarray):
    """The preconditioner w -> w / d for a positive diagonal d, into out if given."""
    return lambda w, out=None: np.divide(w, d, out=out)


def _preconditioner_diagonal(d: np.ndarray, fprime_mean: float) -> np.ndarray:
    """The diagonal of newton_krylov's MINRES preconditioner: the Jacobian's
    constant-coefficient part d + mean f', and d alone in the modes where
    that is not positive, so the preconditioner stays SPD."""
    shifted = d + fprime_mean
    return np.where(shifted > 0.0, shifted, d)


class CrankNicolson:
    """Crank-Nicolson/AB2 steps of the per-mode systems c' = w,
    w' = -w - lam2 c + r for a fixed lam2, with the forcing
    r = g - lam (1.5 fhat - 0.5 prev) held fixed over a step: AB2
    extrapolation of the nonlinear term fhat to the half step from its
    previous value prev, or r = g - lam fhat on the start-up step.  Each
    mode's 2x2 solve is a propagator whose w row is tabled per step size h:
    with det = 1 + h/2 + h^2 lam2/4,

        w_new = P_wc c + P_ww w + P_wr r,
        (P_wc, P_ww, P_wr) = (-h lam2, 1 - h/2 - h^2 lam2/4, h) / det;

    the c row is the trapezoid c_new = c + h/2 (w + w_new).  The tables for
    fhat and prev fold in the -lam and AB2 weights: ten n x n passes a
    step.  This is the one AB2 rule of the package: the stepper's IMEX
    scheme and the decomposition's compact and decaying parts step by it."""

    def __init__(self, lam2: np.ndarray, lam: np.ndarray):
        self.lam2, self.lam = lam2, lam
        self._h, self._tables = None, None
        self._term = np.empty(lam2.shape)

    def _propagator(self, h: float) -> dict:
        """The w row's tables for step size h, rebuilt when h changes."""
        if h != self._h:
            half, lam2 = h / 2.0, self.lam2
            q = (h * h / 4.0) * lam2
            det = 1.0 + half + q
            r = h / det
            self._h, self._tables = h, {"c": -h * lam2 / det, "w": (1.0 - half - q) / det,
                                        "r": r, "fhat": (-1.5 * self.lam) * r,
                                        "prev": (0.5 * self.lam) * r}
        return self._tables

    def _advance(self, c: np.ndarray, w: np.ndarray, forcing, h: float,
                 t: float) -> tuple[np.ndarray, np.ndarray]:
        """(c_new, w_new), views into one fresh (2, n, n) array, with the
        w row's forcing terms given as (table name, x) pairs;
        InstabilityError (at t + h) when they are not finite."""
        tables = self._propagator(h)
        new = np.empty((2,) + c.shape)
        c_new, w_new = new
        np.multiply(tables["c"], c, out=w_new)
        for name, x in (("w", w), *forcing):
            w_new += np.multiply(tables[name], x, out=self._term)
        np.add(w, w_new, out=c_new)
        c_new *= h / 2.0
        c_new += c
        _require_finite(t + h, new)
        return c_new, w_new

    def step_ab2(self, c: np.ndarray, w: np.ndarray, fhat: np.ndarray, prev: np.ndarray | None,
                 g: np.ndarray | None, h: float, t: float) -> tuple[np.ndarray, np.ndarray]:
        """One step of size h from time t with r = g - lam (1.5 fhat - 0.5 prev),
        g None for g = 0: by the folded tables once there is a prev, with
        r = g - lam fhat on the start-up step (prev None).  Raises
        InstabilityError (at t + h) when the new state is not finite."""
        if prev is None:
            rhs = -self.lam * fhat
            return self._advance(c, w, (("r", rhs if g is None else rhs + g),), h, t)
        forcing = (("fhat", fhat), ("prev", prev)) + ((("r", g),) if g is not None else ())
        return self._advance(c, w, forcing, h, t)


class Stepper:
    """Stateful single-run integrator (owns the fused nonlinear-term/
    potential cache and _fhat_prev, P_n f of the previous accepted state:
    the AB2 history of imex_cn_ab2, the predictor's of implicit_newton).
    The transform behind P_n f(u) leaves u on the 2n grid in a
    stepper-owned array for the log rows: _padded[0] for the current
    state, [1] for the step's new state (an implicit step copies its
    Newton iterate's values there).  A step writes only [1], and its
    commit swaps the two.  A stepper starts at step 0 with no history."""

    def __init__(self, state: State, nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig):
        check_same_grid(state.u, g.g_modal)
        self.state = state.copy()
        self.nl = nl
        self.g = g
        self._g = g if g.g_modal.coeff.any() else None  # g is fixed for the run; None: g = 0
        self.cfg = cfg
        self.step_count = 0
        self.lam = eigenvalues(state.grid)
        self._cn = CrankNicolson(eigenvalue_power(state.grid, 2.0), self.lam)
        self._fhat_prev = None
        self._cur = None  # (fhat, potential) for self.state.u
        self._energy = None  # energy of self.state
        self._sums = {}  # its square sums (model.square_sum), kept for the log row
        m = padded_points(state.grid.n_modes, 2)
        self._padded = [np.empty((m, m)), np.empty((m, m))]

    def _evaluate(self, c: np.ndarray, slot: int):
        """(P_n f(u), int F(u)) for the coefficients c, with u on the 2n grid
        left in _padded[slot]."""
        fh, pot = nonlinear_term_and_potential(ModalField(self.state.grid, c), self.nl,
                                               values=self._padded[slot])
        return fh.coeff, pot

    def _ensure_current(self):
        if self._cur is None:
            self._cur = self._evaluate(self.state.u.coeff, 0)
        return self._cur

    def _row_inputs(self) -> tuple[np.ndarray, dict]:
        """P_n f(u) of the current state and the shared dict of a log row
        (see model.higher_functionals), seeded with the energy's square sums
        and with u on the 2n grid as the step's transform left it (a3 = 0
        leaves none, and no row reads it)."""
        fhat = self._ensure_current()[0]
        self.energy_total()
        shared = dict(self._sums)
        if self.nl.a3 != 0.0:
            shared[("u", self._padded[0].shape[0])] = self._padded[0]
        return fhat, shared

    def energy_total(self) -> float:
        if self._energy is None:
            self._energy = energy(self.state, self.nl, self._g, self._ensure_current()[1],
                                  self._sums)
        return self._energy

    def ut_vprime(self) -> float:
        """||u_t||_{V'} of the current state."""
        return math.sqrt(square_sum(self._sums, "v", self.state.v, -1.0))

    # -- schemes ------------------------------------------------------------
    # each returns the new u and u_t coefficients and (P_n f(u), int F(u)) of
    # the new u, which advance caches with the state

    def _advance_imex(self, h: float):
        g = None if self._g is None else self._g.g_modal.coeff
        c_new, w_new = self._cn.step_ab2(self.state.u.coeff, self.state.v.coeff,
                                         self._ensure_current()[0], self._fhat_prev, g, h,
                                         self.state.time)
        return c_new, w_new, self._evaluate(c_new, 1)

    def _newton_system(self, h: float) -> tuple[np.ndarray, np.ndarray, float]:
        """(d, b, tol) of the step as newton_krylov's system d x + P_n f(x) = b:
        backward Euler divided by h^2 Lam, with d = Lam + (1 + h) / (h^2 Lam),
        and the stop's tolerance on ||h^2 Lam R|| / h.  StepFailureError,
        before any solve, when h^2 Lam_1 is below the normal floats, where
        1 / (h^2 Lam) overflows or divides by zero, or when the square sum of
        h Lam b = ((1 + h) c + h w) / h + h g overflows, where no residual
        of the step can be measured."""
        c, w, lam = self.state.u.coeff, self.state.v.coeff, self.lam
        scale = h * h * lam
        t = self.state.time + h
        if not scale[0, 0] >= sys.float_info.min:  # Lam_1 = lam[0, 0], the smallest
            raise StepFailureError(
                f"a step of h={h:g} is too small for implicit_newton at t={t:g}: h^2 lambda_1 = "
                f"{scale[0, 0]:g} is below the smallest normal float, so the step's system "
                "cannot be divided by it; use a longer step or imex_cn_ab2", time=t)
        with np.errstate(over="ignore"):  # an overflow is refused below
            b = ((1.0 + h) * c + h * w) / scale
            if self._g is not None:
                b += self._g.g_modal.coeff / lam
            hb = h * lam * b
        hb_sq = dot(hb, hb)
        if hb_sq == math.inf:  # a NaN state goes on to the step's finiteness check
            raise StepFailureError(
                f"a step of h={h:g} is too small for implicit_newton at t={t:g}: the square "
                "sum of h lambda b = ((1 + h) u + h u_t) / h + h g overflows, so the step's "
                "residual cannot be measured; use a longer step or imex_cn_ab2", time=t)
        # ||h^2 Lam R|| / h cannot go below the roundoff of the terms of
        # h^2 Lam b = (1 + h) c + h w + h^2 g that cancel in it, so the stop is
        # floored at a few eps ||h^2 Lam b|| / h, which short steps reach (a NaN
        # floor leaves newton_tol)
        tol = max(self.cfg.newton_tol, 8.0 * sys.float_info.epsilon * math.sqrt(hb_sq))
        return lam + (1.0 + h) / scale, b, tol

    def _predictor(self, h: float, d: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The linearly implicit predictor of the step's system d x + P_n f(x) = b:
        d x0 = b - E, where E = 2 fhat_n - fhat_{n-1} extrapolates P_n f from
        the current and the previous accepted state (E = fhat_n without a
        previous one).  An a1 > 0 is taken implicitly, (d + a1) x0 =
        b - E + a1 y with y = c + h w = 2 c_n - c_{n-1} (y = c without a
        previous state): extrapolated, a stiff a1 u left Newton far from the
        root (a residual near 1e49 at a1 = 1e20, falling 3x an iteration)."""
        c, fhat, prev = self.state.u.coeff, self._ensure_current()[0], self._fhat_prev
        rhs = b - (fhat if prev is None else 2.0 * fhat - prev)
        a1 = self.nl.a1
        if a1 <= 0.0:
            return rhs / d
        y = c if prev is None else c + h * self.state.v.coeff
        return (rhs + a1 * y) / (d + a1)

    def _advance_newton(self, h: float, d: np.ndarray, b: np.ndarray, tol: float):
        """Backward Euler by newton_krylov on the system (d, b, tol) of
        _newton_system, from _predictor's x0."""
        c = self.state.u.coeff
        h_lam = h * self.lam

        def stop(res):  # ||h^2 Lam R|| / h; a non-finite norm stops too, for _require_finite
            merit = h_lam * res
            rn = math.sqrt(dot(merit, merit))
            return rn, not rn > tol

        u0 = ModalField(self.state.grid, self._predictor(h, d, b))
        failure, x, cached, values, history = newton_krylov(
            u0, self.nl, d, b, minres, stop, tol, self.cfg.newton_max_iter)
        t = self.state.time + h
        if failure:
            raise StepFailureError(f"{failure} at t={t:g}", residual_history=history, time=t)
        w_new = (x - c) / h
        _require_finite(t, x, w_new)
        np.copyto(self._padded[1], values)
        return x, w_new, cached

    def advance(self, dt: float | None = None) -> float:
        """One step of size dt (default cfg.dt); returns the dissipation
        increment dt * ||(v_n + v_{n+1})/2||_{V'}^2 of the step.  A dt that
        is not finite and > 0 raises ValueError, as in SchemeConfig.  A failed
        step changes nothing; its StepFailureError carries t + dt and step.
        A state whose energy is not finite is refused before any step."""
        h = self.cfg.dt if dt is None else dt
        _require_forward(h)
        e_before = self.energy_total()
        w = self.state.v.coeff
        d = None  # the implicit step's diagonal, once formed
        try:
            if not math.isfinite(e_before):  # the data overflow: no step size helps
                raise InstabilityError(f"the energy is not finite ({e_before}) before the step "
                                       f"from t={self.state.time:g}", time=self.state.time + h)
            if self.cfg.scheme == "imex_cn_ab2":
                c_new, w_new, cur = self._advance_imex(h)
            else:
                d, b, tol = self._newton_system(h)
                c_new, w_new, cur = self._advance_newton(h, d, b, tol)
            grid = self.state.grid
            new = State(ModalField(grid, c_new), ModalField(grid, w_new), self.state.time + h)
            sums = {}
            e_after = energy(new, self.nl, self._g, cur[1], sums)
            rise = e_after - e_before
            if not rise <= self.cfg.safeguard_tol:  # a non-finite energy overflowed, not rose
                raise InstabilityError(
                    f"the energy is not finite ({e_after}) after the step to t={new.time:g}"
                    if not math.isfinite(e_after) else
                    f"energy increased by {rise:.3e} in the step to t={new.time:g} "
                    f"(safeguard {self.cfg.safeguard_tol:g}); "
                    "reduce dt or the resolution/nonlinearity stiffness",
                    time=new.time,
                )
        except StepFailureError as exc:
            exc.step = self.step_count + 1
            d_min = math.inf if d is None else float(d.min())
            if d_min <= self.nl.lambda_bound:  # see the module docstring
                exc.args = (f"{exc}; the step's system is not monotone (min d = {d_min:.4g} "
                            f"<= lambda_bound = {self.nl.lambda_bound:.4g}): a smaller dt "
                            "helps",)
            raise
        w_sum = w + w_new  # h ||(w + w_new) / 2||_{V'}^2, with the exact factor 1/4 outside
        dissip = 0.25 * h * weighted_sum(eigenvalue_power(grid, -1.0), w_sum, w_sum)
        self._fhat_prev = self._cur[0]  # P_n f of the previous state, committed with the step
        self.state = new
        self.step_count += 1
        self._cur = cur
        self._padded[0], self._padded[1] = self._padded[1], self._padded[0]
        self._energy, self._sums = e_after, sums
        return dissip


def horizon_steps(span: float, dt: float) -> tuple[int, float]:
    """(n_steps, h) covering span with steps of about dt > 0: none for an
    empty span, else round(span/dt) >= 1 steps snapped to land on the
    horizon (h == dt when span divides evenly).  ValueError when span is
    negative, or when span/dt is not finite or asks for more than 2**53
    steps, beyond which step_count * h is no longer exact."""
    if span == 0.0:
        return 0, dt
    if span < 0.0:
        raise ValueError(f"a span of {span} is negative: time runs forward only")
    if not span / dt <= 2.0**53:
        raise ValueError(f"a span of {span} asks for {span / dt:g} steps of dt={dt}, "
                         "more than 2**53")
    n_steps = max(1, int(round(span / dt)))
    if abs(span / n_steps - dt) > 1e-9 * dt:
        dt = span / n_steps
    return n_steps, dt


def run(stepper: Stepper, t_end: float, sample_every: int, observe) -> None:
    """Advance stepper to t_end in the steps of horizon_steps, calling
    observe(stepper, dissip_cum) at step 0, every sample_every steps and
    at the last step.  dissip_cum accumulates every step; stepper.state is
    replaced, never mutated, so an observer may keep it without a copy."""
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n_steps, h = horizon_steps(t_end - stepper.state.time, stepper.cfg.dt)
    dissip = 0.0
    observe(stepper, dissip)
    for n in range(1, n_steps + 1):
        dissip += stepper.advance(h)
        if n % sample_every == 0 or n == n_steps:
            observe(stepper, dissip)


def simulate(initial: State, nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig,
             t_end: float, sample_every: int = 1) -> TrajectoryLog:
    """Integrate from initial.time to t_end (see run), logging a row
    every sample_every steps plus the endpoints."""
    log = TrajectoryLog()
    run(Stepper(initial, nl, g, cfg), t_end, sample_every, log.record)
    return log


# ---------------------------------------------------------------------------
# residual estimates on logs
# ---------------------------------------------------------------------------

def energy_equality_residual(log: TrajectoryLog, s_idx: int, t_idx: int) -> float:
    """| E(t) - E(s) + int_s^t ||u_t||_{V'}^2 | with the integral by the
    trapezoid rule over the logged samples."""
    n = len(log)
    if not (0 <= s_idx < n and 0 <= t_idx < n):
        raise IndexError(f"sample indices ({s_idx}, {t_idx}) outside 0..{n - 1}")
    if s_idx > t_idx:
        raise ValueError("s_idx must not exceed t_idx")
    if s_idx == t_idx:
        return 0.0
    t = np.asarray(log.t[s_idx : t_idx + 1])
    y = np.asarray(log.ut_vprime[s_idx : t_idx + 1]) ** 2
    integral = float(np.trapezoid(y, t))
    return abs(log.energy[t_idx] - log.energy[s_idx] + integral)
