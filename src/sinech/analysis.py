"""Numerical experiments on the structure of the flow.

Each routine instantiates one of the structural facts about
u_tt + u_t + A(Au + f(u)) = g as a measurable quantity:

* Galerkin truncations converge, with a gap that closes like a power of
  the largest retained eigenvalue over short horizons;
* the solution splits as u = v + w with v forced from zero data and w
  decaying exponentially once the coupling constant L is large enough
  (the split is an exact algebraic identity at matched discretization,
  which we preserve step by step);
* the flow is Lipschitz on bounded sets (perturbation growth is at most
  exponential, with a rate stable under shrinking the perturbation);
* sup-norms obey a Brezis-Gallouet-type logarithmic interpolation bound
  (bg_ratio);
* equilibria solve Au + P_N f(u) = A^(-1) g and attract bounded
  trajectories (Lojasiewicz: single-limit convergence for polynomial f);
* trajectories enter an absorbing set whose size does not depend on the
  initial radius.

Fitted constants (kappa, c7, q, the BG ratio, sigma) are diagnostics:
they are measured and reported, never asserted against theory, since
the underlying statements are existence-level.

Note on the decomposition's forcing convention: summing the v- and
w-systems in their A^(-1)-multiplied form reproduces the u-equation
only when the v-system right-hand side carries A^(-1)g (not g); we use
that convention so the sum identity holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InstabilityError, StepFailureError
from .integrator import (CrankNicolson, SchemeConfig, State, Stepper, horizon_steps,
                         inverse_diagonal, minres, newton_krylov, newton_operator, run)
from .model import Nonlinearity, SourceTerm, energy, f_eval_dealiased, fprime_sample
from .spectral import (GridSpec, ModalField, check_same_grid, dot, eigenvalues, lambda_max,
                       norm_Hs, norm_pair, resample, sup_norm, weighted_sum)


def random_pair_state(grid: GridSpec, band: int, amplitude: float, seed: int,
                      s: float = 0.0) -> State:
    """Deterministic random (u, u_t) supported on modes <= band, scaled
    so the pair norm at the given s equals amplitude."""
    if not 1 <= band <= grid.n_modes:
        raise IndexError(f"band {band} outside 1..{grid.n_modes}")
    rng = np.random.default_rng(seed)
    cu = np.zeros(grid.shape)
    cv = np.zeros(grid.shape)
    cu[:band, :band] = rng.standard_normal((band, band))
    cv[:band, :band] = rng.standard_normal((band, band))
    u = ModalField(grid, cu)
    v = ModalField(grid, cv)
    if amplitude == 0.0:
        return State(ModalField.zeros(grid), ModalField.zeros(grid))
    cur = norm_pair(u, v, s)
    return State(u * (amplitude / cur), v * (amplitude / cur))


def _samples(stepper: Stepper, t_end: float, rows: int, record) -> list:
    """About rows samples of a run of stepper to t_end: record(stepper) at
    the start, every n // rows of run's n steps (every step when n < rows)
    and at the last step."""
    n_steps = horizon_steps(t_end - stepper.state.time, stepper.cfg.dt)[0]
    out = []
    run(stepper, t_end, max(1, n_steps // rows), lambda s, _: out.append(record(s)))
    return out


def _log_linear_fit(t: np.ndarray, y: np.ndarray):
    """Least-squares fit log y = b + m t; returns (m, b, r_squared).
    Non-positive y values are excluded."""
    mask = y > 0.0
    t, y = t[mask], np.log(y[mask])
    # polyfit scales t by its 2-norm: times whose squares all underflow (0, 5e-324) have none
    if t.size < 2 or not np.square(t).any():
        return 0.0, 0.0, 0.0
    coef = np.polynomial.polynomial.polyfit(t, y, 1)
    fitted = coef[0] + coef[1] * t
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[1]), float(coef[0]), r2


# ---------------------------------------------------------------------------
# Galerkin convergence
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    resolutions: list
    gaps: list                # sup_t ||P_N U_ref - U_N|| in the s=-1 pair norm
    t_star: float
    n_ref: int
    fitted_exponent: float    # q in gap ~ lambda_N^(-q)
    c1_estimate: float        # from gap^2 ~ lambda_N^(C1 t* - 1/2)
    failed: list              # resolutions whose run went unstable


def galerkin_convergence(initial: State, nl: Nonlinearity, g: SourceTerm,
                         cfg: SchemeConfig, resolutions: list, n_ref: int,
                         t_star: float) -> ConvergenceReport:
    """Co-run each truncation against a fine reference at identical dt
    and measure the worst pair-norm gap at s = -1 over [0, t_star].

    The initial data must be band-limited within the coarsest
    resolution so every run starts from the same function.
    """
    resolutions = [int(r) for r in resolutions]
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly increasing")
    if max(resolutions) > n_ref // 2:
        raise ValueError(
            f"n_ref={n_ref} must be at least twice max(resolutions)={max(resolutions)}"
        )
    band = min(resolutions)
    for z in (initial.u, initial.v):
        nz = np.nonzero(z.coeff)
        if nz[0].size and (nz[0].max() >= band or nz[1].max() >= band):
            raise ValueError(f"initial data must be band-limited within {band} modes")

    def run_at(n: int):
        st = State(resample(initial.u, n), resample(initial.v, n), initial.time)
        # few rows: _samples keeps up to 2 * rows + 1 states, 1 MiB each at n_ref = 256
        return _samples(Stepper(st, nl, SourceTerm(resample(g.g_modal, n)), cfg),
                        initial.time + t_star, 25, lambda s: s.state)

    ref_states = run_at(n_ref)
    gaps, failed = [], []
    for n in resolutions:
        try:
            states_n = run_at(n)
        except (InstabilityError, StepFailureError):
            gaps.append(math.inf)
            failed.append(n)
            continue
        worst = 0.0
        for s_ref, s_n in zip(ref_states, states_n):
            du = resample(s_ref.u, n) - s_n.u  # P_n of the reference
            dv = resample(s_ref.v, n) - s_n.v
            worst = max(worst, norm_pair(du, dv, -1.0))
        gaps.append(worst)

    # fit gap ~ lambda_N^(-q) on the survivors; 0.0 - slope so that no fit gives 0.0, not -0.0
    lx = np.log([lambda_max(GridSpec(n, initial.grid.side)) for n in resolutions])
    finite = np.isfinite(gaps)
    q = 0.0 - _log_linear_fit(lx[finite], np.asarray(gaps)[finite])[0]
    c1 = (0.5 - 2.0 * q) / t_star if t_star > 0 else 0.0
    return ConvergenceReport(resolutions, gaps, t_star, n_ref, q, c1, failed)


# ---------------------------------------------------------------------------
# compact / decaying decomposition
# ---------------------------------------------------------------------------

@dataclass
class DecompositionRun:
    big_l: float
    sum_error: float          # max_t ||(v+w) - u|| pair norm at s=0, absolute
    sum_error_rel: float      # same, normalized by 1 + ||U(t)||_0
    times: list
    w_norm_trace: list        # ||W(t)||_0 samples
    fitted_kappa: float
    fit_r2: float
    fit_window: tuple
    doublings: int = 0

    @property
    def decays(self) -> bool:
        """Whether the fitted decay rate is positive with a decent fit."""
        return self.fitted_kappa > 0 and self.fit_r2 >= 0.9


class _Split(Stepper):
    """The IMEX Stepper of u that, after each accepted step of u, also steps
    the compact part v (zero data, forced by L ubar + A^(-1) g with ubar the
    endpoint average of u's step) and the decaying part w (data U_0, forced
    by the difference of u's and v's AB2 terms); v and w are coefficient
    pairs (c, c_t), stepped by CrankNicolson.step_ab2 on lam^2 + L."""

    def __init__(self, initial: State, nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig,
                 big_l: float):
        super().__init__(State(initial.u, initial.v), nl, g, cfg)
        self.big_l, self._cn_l = big_l, CrankNicolson(self._cn.lam2 + big_l, self.lam)
        zero = np.zeros(initial.grid.shape)
        self.v, self.w, self._fv_prev = (zero, zero), (initial.u.coeff, initial.v.coeff), None

    def advance(self, h: float) -> float:
        c, t = self.state.u.coeff, self.state.time
        fu, fu_prev, fv_prev = self._ensure_current()[0], self._fhat_prev, self._fv_prev
        fv = f_eval_dealiased(ModalField(self.state.grid, self.v[0]), self.nl).coeff
        dissip = super().advance(h)
        ubar = 0.5 * (c + self.state.u.coeff)
        self.v = self._cn_l.step_ab2(*self.v, fv, fv_prev, self.g.g_modal.coeff + self.big_l * ubar,
                                     h, t)
        diff_prev = None if fv_prev is None else fu_prev - fv_prev
        self.w = self._cn_l.step_ab2(*self.w, fu - fv, diff_prev, None, h, t)
        self._fv_prev = fv
        return dissip


def decomposition_run(initial: State, nl: Nonlinearity, g: SourceTerm,
                      cfg: SchemeConfig, big_l: float, t_end: float) -> DecompositionRun:
    """Co-evolve the full solution u, the compact part v and the decaying
    part w (see _Split) from t = 0 to t_end, all with the shared
    Crank-Nicolson/AB2 discretization, driven by run in the steps of
    horizon_steps.  About 200 samples are taken, at step_count * h; the
    decay rate is fitted over [0.1 t_end, t_end].

    The coupling term L*u enters the v-system Crank-Nicolson style with
    the endpoint average of the freshly advanced u, which makes
    v + w = u an exact identity of the discrete updates (verified here
    as sum_error, which only measures roundoff accumulation).  u's steps
    are Stepper steps (finiteness, the energy safeguard, a source on the
    grid of u), and every step of v and w is checked for finiteness.
    """
    if big_l <= 0:
        raise ValueError("big_l must be positive")
    if cfg.scheme != "imex_cn_ab2":
        raise ValueError("decomposition_run requires the imex_cn_ab2 scheme")
    h = horizon_steps(t_end, cfg.dt)[1]

    def record(s: _Split):
        u = (s.state.u, s.state.v)
        v, w = ([ModalField(s.state.grid, c) for c in part] for part in (s.v, s.w))
        err = norm_pair(v[0] + w[0] - u[0], v[1] + w[1] - u[1], 0.0)
        return s.step_count * h, norm_pair(*w, 0.0), err, err / (1.0 + norm_pair(*u, 0.0))

    rows = _samples(_Split(initial, nl, g, cfg, big_l), t_end, 200, record)
    times, trace, errs, rels = (list(col) for col in zip(*rows))
    fit_window = (0.1 * t_end, t_end)
    t_arr, w_arr = np.asarray(times), np.asarray(trace)
    mask = (t_arr >= fit_window[0]) & (t_arr <= fit_window[1])
    slope, _, r2 = _log_linear_fit(t_arr[mask], w_arr[mask])
    return DecompositionRun(big_l, max(errs), max(rels), times, trace, -slope, r2, fit_window)


def decompose_with_retries(initial: State, nl: Nonlinearity, g: SourceTerm,
                           cfg: SchemeConfig, big_l: float, t_end: float,
                           max_doublings: int = 3) -> DecompositionRun:
    """decomposition_run, doubling L (up to max_doublings times) until
    the fit decays (DecompositionRun.decays)."""
    result = decomposition_run(initial, nl, g, cfg, big_l, t_end)
    doublings = 0
    while not result.decays and doublings < max_doublings:
        doublings += 1
        big_l *= 2.0
        result = decomposition_run(initial, nl, g, cfg, big_l, t_end)
    result.doublings = doublings
    return result


# ---------------------------------------------------------------------------
# Lipschitz continuous dependence
# ---------------------------------------------------------------------------

@dataclass
class LipschitzReport:
    perturbation_scale: float
    times: list
    rho: list                 # ||dU(t)||_0 / ||dU(0)||_0
    c6: float
    c7: float
    max_rho: float
    super_exponential_flag: bool  # see _super_exponential
    c7_half_scale: float      # c7 of the perturbation at half the scale
    c7_stable: bool           # see _c7_stable


def lipschitz_dependence(initial: State, perturbation_scale: float,
                         nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig,
                         t_end: float, seed: int = 7,
                         band: int | None = None) -> LipschitzReport:
    """Run U to t_end once and U + delta at perturbation_scale and at half
    of it (both checked before any run), pair their (about 200) samples
    and track the growth ratio rho(t) of each gap in the s=0 pair norm; fit
    rho <= c6 exp(c7 t) over the second half of the window (the
    transient-free regime), flag super-exponential growth, and check c7
    against the half-scale rate (_c7_stable)."""
    if perturbation_scale <= 0:
        raise ValueError("perturbation_scale must be positive")
    grid = initial.grid
    if band is None:
        band = max(1, grid.n_modes // 4)
    perturbed = []
    for scale in (perturbation_scale, perturbation_scale / 2.0):
        delta = random_pair_state(grid, band, scale, seed)
        base = norm_pair(delta.u, delta.v, 0.0)
        if not base > 0.0:
            raise ValueError(f"perturbation_scale {scale:g} is too small: "
                             "the perturbation's norm underflows to 0")
        perturbed.append((State(initial.u + delta.u, initial.v + delta.v, initial.time), base))

    def states(start: State) -> list:
        return _samples(Stepper(start, nl, g, cfg), t_end, 200, lambda s: s.state)

    a = states(initial)
    t_arr = np.asarray([s.time for s in a])
    mask = t_arr >= initial.time + 0.5 * (t_end - initial.time)
    r_arr, r_half = (np.asarray([1.0] + [norm_pair(sb.u - sa.u, sb.v - sa.v, 0.0) / base
                                         for sa, sb in zip(a[1:], states(pert)[1:])])
                     for pert, base in perturbed)
    c7, logc6, _ = _log_linear_fit(t_arr[mask], r_arr[mask])
    c7_half = _log_linear_fit(t_arr[mask], r_half[mask])[0]
    return LipschitzReport(perturbation_scale, t_arr.tolist(), r_arr.tolist(), math.exp(logc6),
                           c7, float(r_arr.max()), _super_exponential(t_arr, r_arr, c7), c7_half,
                           _c7_stable(c7, c7_half))


def _super_exponential(t: np.ndarray, rho: np.ndarray, c7: float) -> bool:
    """Whether rho grows super-exponentially: the late-window rate c7
    positive and outrunning the rate fitted over the second quarter of the
    sampled window by more than max(20 %, 0.05)."""
    t0, span = t[0], t[-1] - t[0]
    early = (t >= t0 + 0.25 * span) & (t <= t0 + 0.5 * span)
    c7_early = _log_linear_fit(t[early], rho[early])[0]
    return bool(c7 > 0 and c7 > c7_early + max(0.2 * abs(c7_early), 0.05))


def _c7_stable(c7: float, c7_half: float) -> bool:
    """Whether c7 is stable under halving the perturbation: within 10 %, plus 1e-3."""
    return abs(c7 - c7_half) <= 0.1 * max(abs(c7), abs(c7_half)) + 1e-3


# ---------------------------------------------------------------------------
# Brezis-Gallouet ratio
# ---------------------------------------------------------------------------

def bg_ratio(z: ModalField, eps0: float = 1e-30) -> float:
    """||z||_inf / (||z||_V (1 + log^(1/2)(1 + ||z||_DA / ||z||_V))).

    Scale-invariant by homogeneity; the claim is that it stays bounded
    as the spectrum widens (the 2D logarithmic interpolation bound)."""
    nv = norm_Hs(z, 0.5)
    nda = norm_Hs(z, 1.0)
    sup = sup_norm(z)
    denom = nv * (1.0 + math.sqrt(math.log1p(nda / max(nv, eps0))))
    return sup / denom if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

_EQUILIBRIUM_TOL = 1e-10  # find_equilibrium's default stop


@dataclass
class EquilibriumResult:
    u_star: ModalField
    residual: float           # L2 of the modal residual of Au + P_N f(u) - A^(-1)g
    newton_iters: int
    energy_at: float          # total energy of (u*, 0)
    stability_indicator: float
    converged: bool
    residual_history: list = field(default_factory=list)


_COLLAPSED = 1e-10  # lobpcg drops a unit vector left shorter than this by orthogonalisation


def _orthonormal_to(v: np.ndarray, av: np.ndarray, basis: list) -> bool:
    """Make v a unit vector orthogonal to the orthonormal (u, A u) pairs of
    basis, with av = A v following by the same operations, in place: v is
    scaled to unit length before each of two Gram-Schmidt passes and after
    the last.  False, and v left unusable, when v is zero or not finite or
    a pass leaves it shorter than _COLLAPSED."""
    norm = math.sqrt(dot(v, v))
    if not 0.0 < norm < math.inf:
        return False
    for _ in range(2):
        v /= norm
        av /= norm
        for u, au in basis:
            c = dot(u, v)
            v -= c * u
            av -= c * au
        norm = math.sqrt(dot(v, v))
        if not norm > _COLLAPSED:
            return False
    v /= norm
    av /= norm
    return True


def lobpcg(A, x: np.ndarray, *, M, tol: float, maxiter: int) -> tuple[float, float]:
    """The smallest eigenvalue of the symmetric A by LOBPCG with one vector
    (Knyazev, SIAM J. Sci. Comput. 23, 2001), preconditioned by the SPD M,
    from x.  A and M map (n, n) coefficient arrays to new arrays
    (newton_operator, inverse_diagonal); sums are by spectral.dot.

    An iteration takes the Rayleigh-Ritz step (np.linalg.eigh, at most
    3 x 3) on span{x, M r, p}: r = A x - rho x with rho = <x, A x> for the
    unit x, and p the part of the last update outside x.  The basis is
    orthonormalised by linear combinations (_orthonormal_to), which carry
    A x and A p along, so an iteration applies A once, to M r; a vector
    whose orthogonal part collapses is dropped.  Stops when ||r|| <= tol
    holds again for a freshly applied A x.  Returns (rho, ||r||), with
    ||r|| > tol after maxiter iterations."""
    x = x / math.sqrt(dot(x, x))
    ax, fresh, itn = A(x), True, 0
    p, ap = np.zeros(x.shape), np.zeros(x.shape)  # no last update yet: dropped as zero
    while True:
        rho = dot(x, ax)
        r = ax - rho * x
        resid = math.sqrt(dot(r, r))
        if resid <= tol and not fresh:  # confirm against a fresh A x: the recurrence drifts
            ax, fresh = A(x), True
            continue
        if resid <= tol or itn == maxiter:
            return rho, resid
        itn, fresh = itn + 1, False
        w = M(r)
        basis = [(x, ax)]
        for v, av in ((w, A(w)), (p, ap)):
            if _orthonormal_to(v, av, basis):
                basis.append((v, av))
        gram = np.array([[dot(u, av) for _, av in basis] for u, _ in basis])
        c = np.linalg.eigh(gram)[1][:, 0]  # eigh reads the lower triangle
        p, ap = np.zeros(x.shape), np.zeros(x.shape)
        for ci, (v, av) in zip(c[1:], basis[1:]):
            p += ci * v
            ap += ci * av
        x = c[0] * x + p
        ax = c[0] * ax + ap
        norm = math.sqrt(dot(x, x))
        x /= norm
        ax /= norm


def _stability_indicator(op, lam: np.ndarray, tol: float = 1e-12, maxiter: int = 200) -> float:
    """Smallest eigenvalue of the symmetric operator op = A + P_n f'(u*), a
    map of (n, n) coefficient arrays (see integrator.newton_operator), on
    the full n x n space: by lobpcg preconditioned by A^(-1), from the
    fixed start e_(1,1), so repeated calls agree bitwise.  Raises
    StepFailureError when the eigenresidual stays above tol after maxiter
    iterations.
    """
    x0 = np.zeros(lam.shape)
    x0[0, 0] = 1.0  # e_(1,1)
    value, resid = lobpcg(op, x0, M=inverse_diagonal(lam), tol=tol, maxiter=maxiter)
    if not resid <= tol:
        raise StepFailureError(
            f"stability eigensolve stalled: residual {resid:.3e} > {tol:g} "
            f"after {maxiter} iterations",
            residual_history=[resid],
        )
    return value


def _stationary_newton(u: ModalField, nl: Nonlinearity, g: SourceTerm, tol: float, max_iter: int):
    """newton_krylov from u with d = A, b = A^(-1)g, stopped at ||R|| <= tol
    and ||A^(1/2) R|| <= 10 tol."""
    check_same_grid(u, g.g_modal)
    lam = np.asarray(eigenvalues(u.grid))
    b = g.g_modal.coeff / lam

    def stop(r):
        rn = math.sqrt(dot(r, r))
        return rn, rn <= tol and math.sqrt(weighted_sum(lam, r, r)) <= 10.0 * tol

    return newton_krylov(u, nl, lam, b, minres, stop, tol, max_iter)


def find_equilibrium(seed_field: ModalField, nl: Nonlinearity, g: SourceTerm,
                     tol: float = _EQUILIBRIUM_TOL, max_iter: int = 50) -> EquilibriumResult:
    """Newton iteration on R(u) = Au + P_N f(u) - A^(-1)g: the time step's
    integrator.newton_krylov on its system with d = A and b = A^(-1)g, whose
    MINRES solves apply A + P_N f'(u), preconditioned by A + mean f'.

    Convergence requires both ||R|| <= tol and ||A^(1/2) R|| <= 10 tol,
    so the equilibrium also satisfies the original stationary equation
    (residual multiplied back by A, measured in the V' norm) to 10 tol.
    When Newton stops short (max_iter, a stalled inner solve or a failed
    line search) the best iterate is returned with converged=False:
    stationarity failures are findings, not crashes.  A non-finite seed
    raises InstabilityError, and a source on another grid
    DimensionMismatchError, both before any solve.  The stability
    indicator is the smallest eigenvalue of that operator at u* (f' sampled once),
    NaN when its eigensolve stalls after Newton stopped short.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.isfinite(seed_field.coeff).all():
        raise InstabilityError("non-finite seed: find_equilibrium needs a finite u")
    grid = seed_field.grid
    lam = np.asarray(eigenvalues(grid))
    failure, c, (_, pot), values, history = _stationary_newton(seed_field, nl, g, tol, max_iter)
    u_star = ModalField(grid, c)
    e = energy(State(u_star, ModalField.zeros(grid)), nl, g, pot)
    op = newton_operator(grid, lam, fprime_sample(values, nl))
    try:
        indicator = _stability_indicator(op, lam)
    except StepFailureError:
        if failure is None:  # a converged u* must have its indicator
            raise
        indicator = math.nan
    return EquilibriumResult(u_star, history[-1], len(history) - 1, e, indicator,
                             failure is None, history)


# ---------------------------------------------------------------------------
# Lojasiewicz probe: convergence to a single equilibrium
# ---------------------------------------------------------------------------

@dataclass
class LojReport:
    tol: float
    tol_reached: bool
    started_at_rest: bool     # u_t(0) = 0 and u(0) already meets find_equilibrium's stop
    steps: int                # steps run: none when started_at_rest
    ut_final: float           # ||u_t(t_end)||_V'
    distance_v: float         # ||u(t_end) - u*||_V
    energy_gap: float         # E(t_end) - E(u*, 0)
    equilibrium: EquilibriumResult
    times: list
    ut_trace: list


def lojasiewicz_probe(initial: State, nl: Nonlinearity, g: SourceTerm,
                      cfg: SchemeConfig, t_end: float, tol: float = 1e-6) -> LojReport:
    """Run to t_end (about 256 samples of ||u_t||_V'), check the velocity
    has died (||u_t||_V' <= tol), polish the final u with Newton, and
    report the V-distance and energy gap to that equilibrium.  A missed
    tol is reported, not raised: the convergence claim is asymptotic.  A
    start that is already an equilibrium at rest is reported as
    started_at_rest and run over a zero span (steps 0, one sample at the
    start): its orbit would stay put and show nothing about convergence."""
    at_rest = (not initial.v.coeff.any()
               and _stationary_newton(initial.u, nl, g, _EQUILIBRIUM_TOL, 0)[0] is None)
    stepper = Stepper(initial, nl, g, cfg)
    rows = _samples(stepper, initial.time if at_rest else t_end, 256,
                    lambda s: (s.state.time, s.ut_vprime()))
    times, ut = (list(col) for col in zip(*rows))
    final = stepper.state
    eq = find_equilibrium(final.u, nl, g)
    return LojReport(
        tol=tol,
        tol_reached=ut[-1] <= tol,
        started_at_rest=at_rest,
        steps=stepper.step_count,
        ut_final=ut[-1],
        distance_v=norm_Hs(final.u - eq.u_star, 0.5),
        energy_gap=stepper.energy_total() - eq.energy_at,
        equilibrium=eq,
        times=times,
        ut_trace=ut,
    )


# ---------------------------------------------------------------------------
# absorbing-set probe
# ---------------------------------------------------------------------------

@dataclass
class AbsorbReport:
    radii: list
    tail_sup0: list           # per radius: sup over runs, t in [t_end/2, t_end]
    tail_sup2: list
    ratio: float              # max/min of tail_sup0 across radii
    floor: float
    below_floor: bool         # every tail sup <= floor: the branch that passes a collapse
    status: str               # pass | inconclusive | fail


def absorbing_probe(radii: list, n_per_radius: int, nl: Nonlinearity,
                    g: SourceTerm, cfg: SchemeConfig, t_end: float,
                    seed: int = 0, band: int | None = None,
                    floor: float = 1e-3) -> AbsorbReport:
    """Launch n_per_radius random states per radius (pair norm at s=2
    pinned to the radius) and compare the tail sups of ||U||_0: a true
    absorbing set makes them radius-independent.

    Verdicts: pass when the across-radius spread is within 10% or
    everything fell below the floor (a globally attracting equilibrium
    leaves nothing to compare); inconclusive when the tails are still
    visibly decaying, meaning t_end sits inside the transient.
    """
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    grid = g.grid
    if band is None:
        band = max(1, grid.n_modes // 4)

    def record(stepper: Stepper):
        u, v = stepper.state.u, stepper.state.v
        return stepper.state.time, norm_pair(u, v, 0.0), norm_pair(u, v, 2.0)

    tail0, tail2, late_over_early = [], [], []
    for i, r in enumerate(radii):
        sup0 = sup2 = 0.0
        early = late = 0.0
        for j in range(n_per_radius):
            st = random_pair_state(grid, band, r, seed + 1009 * i + j, s=2.0)
            t, n0, n2 = np.array(_samples(Stepper(st, nl, g, cfg), t_end, 100, record)).T
            tail = t >= 0.5 * t_end
            sup0 = max(sup0, float(n0[tail].max()))
            sup2 = max(sup2, float(n2[tail].max()))
            early_window = n0[(t >= 0.5 * t_end) & (t < 0.75 * t_end)]  # empty for 1 or 2 steps
            early = max(early, float(early_window.max(initial=0.0)))
            late = max(late, float(n0[t >= 0.75 * t_end].max()))
        tail0.append(sup0)
        tail2.append(sup2)
        late_over_early.append(late / early if early > 0 else 1.0)
    ratio = max(tail0) / min(tail0) if min(tail0) > 0 else math.inf
    below_floor = all(s <= floor for s in tail0)
    if below_floor or ratio <= 1.1:
        status = "pass"
    elif any(q <= 0.7 for q in late_over_early):
        status = "inconclusive"
    else:
        status = "fail"
    return AbsorbReport(list(radii), tail0, tail2, ratio, floor, below_floor, status)
