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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg, minres

from .errors import InstabilityError, StepFailureError
from .integrator import SchemeConfig, State, Stepper, cn_step, horizon_steps, run
from .model import Nonlinearity, SourceTerm, energy, f_eval_dealiased, fprime_multiplier
from .spectral import (
    GridSpec,
    ModalField,
    eigenvalues,
    lambda_max,
    norm_Hs,
    norm_pair,
    resample,
    sup_norm,
)


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


def _stride(span: float, dt: float, rows: int) -> int:
    """The step stride that gives about rows samples over span."""
    return max(1, horizon_steps(span, dt)[0] // rows)


def _states(initial: State, nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig,
            t_end: float, sample_every: int) -> list:
    """The sampled states of a run from initial to t_end."""
    states = []
    run(Stepper(initial, nl, g, cfg), t_end, sample_every,
        lambda stepper, _: states.append(stepper.state))
    return states


def _log_linear_fit(t: np.ndarray, y: np.ndarray):
    """Least-squares fit log y = b + m t; returns (m, b, r_squared).
    Non-positive y values are excluded."""
    mask = y > 0.0
    t, y = t[mask], np.log(y[mask])
    if t.size < 2:
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
                         t_star: float, sample_every: int = 1) -> ConvergenceReport:
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

    side = initial.grid.side

    def run_at(n: int):
        st = State(resample(initial.u, n), resample(initial.v, n), initial.time)
        return _states(st, nl, SourceTerm(resample(g.g_modal, n)), cfg,
                       initial.time + t_star, sample_every)

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

    ok = [(n, gap) for n, gap in zip(resolutions, gaps) if math.isfinite(gap) and gap > 0]
    if len(ok) >= 2:
        # fit gap ~ lambda_N^(-q) on the surviving resolutions
        lx = np.log([lambda_max(GridSpec(n, side)) for n, _ in ok])
        ly = np.log([gap for _, gap in ok])
        coef = np.polynomial.polynomial.polyfit(lx, ly, 1)
        q = -float(coef[1])
    else:
        q = 0.0
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


def decomposition_run(initial: State, nl: Nonlinearity, g: SourceTerm,
                      cfg: SchemeConfig, big_l: float, t_end: float) -> DecompositionRun:
    """Co-evolve the full solution u, the compact part v (zero data,
    forced by L A^(-1) u + A^(-1) g), and the decaying part w (data U_0,
    forced by the nonlinearity difference) from t = 0 to t_end, all with
    the shared Crank-Nicolson/AB2 discretization and the steps of
    horizon_steps.  About 200 samples are taken; the decay rate is fitted
    over [0.1 t_end, t_end].

    The coupling term L*u enters the v-system Crank-Nicolson style with
    the endpoint average of the freshly advanced u, which makes
    v + w = u an exact identity of the discrete updates (verified here
    as sum_error, which only measures roundoff accumulation).  Every
    step of each system is checked for finiteness (InstabilityError).
    """
    if big_l <= 0:
        raise ValueError("big_l must be positive")
    if cfg.scheme != "imex_cn_ab2":
        raise ValueError("decomposition_run requires the imex_cn_ab2 scheme")
    n_steps, h = horizon_steps(t_end, cfg.dt)
    sample_every = max(1, n_steps // 200)
    fit_window = (0.1 * t_end, t_end)

    grid = initial.grid
    lam = np.asarray(eigenvalues(grid))
    lam2 = lam**2
    lam2_l = lam2 + big_l
    ghat = resample(g.g_modal, grid.n_modes).coeff if g.grid != grid else g.g_modal.coeff

    cu, wu = initial.u.coeff.copy(), initial.v.coeff.copy()
    cv = np.zeros(grid.shape)
    wv = np.zeros(grid.shape)
    cw, ww = cu.copy(), wu.copy()

    def fhat(c):
        return f_eval_dealiased(ModalField(grid, c), nl).coeff

    def pair_norm(c, w):
        return float(np.sqrt(np.sum(lam * c**2) + np.sum(w**2 / lam)))

    fu_prev = fv_prev = None
    times, trace = [0.0], [pair_norm(cw, ww)]
    sum_abs = sum_rel = 0.0

    for n in range(1, n_steps + 1):
        t = (n - 1) * h
        fu, fv = fhat(cu), fhat(cv)
        nu = fu if fu_prev is None else 1.5 * fu - 0.5 * fu_prev
        nv = fv if fv_prev is None else 1.5 * fv - 0.5 * fv_prev
        fu_prev, fv_prev = fu, fv

        # full solution first, so its endpoint average can force v
        cu_new, wu_new = cn_step(cu, wu, ghat - lam * nu, lam2, h, t)
        ubar = 0.5 * (cu + cu_new)
        cv, wv = cn_step(cv, wv, ghat + big_l * ubar - lam * nv, lam2_l, h, t)
        cw, ww = cn_step(cw, ww, -lam * (nu - nv), lam2_l, h, t)
        cu, wu = cu_new, wu_new

        if n % sample_every == 0 or n == n_steps:
            err = pair_norm(cv + cw - cu, wv + ww - wu)
            times.append(n * h)
            trace.append(pair_norm(cw, ww))
            sum_abs = max(sum_abs, err)
            sum_rel = max(sum_rel, err / (1.0 + pair_norm(cu, wu)))

    t_arr, w_arr = np.asarray(times), np.asarray(trace)
    mask = (t_arr >= fit_window[0]) & (t_arr <= fit_window[1])
    slope, _, r2 = _log_linear_fit(t_arr[mask], w_arr[mask])
    return DecompositionRun(big_l, sum_abs, sum_rel, times, trace,
                            -slope, r2, fit_window)


def decompose_with_retries(initial: State, nl: Nonlinearity, g: SourceTerm,
                           cfg: SchemeConfig, big_l: float, t_end: float,
                           max_doublings: int = 3) -> DecompositionRun:
    """decomposition_run, doubling L (up to max_doublings times) until
    the fitted decay rate comes out positive with a decent fit."""
    result = decomposition_run(initial, nl, g, cfg, big_l, t_end)
    doublings = 0
    while (result.fitted_kappa <= 0 or result.fit_r2 < 0.9) and doublings < max_doublings:
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


def lipschitz_dependence(initial: State, perturbation_scale: float,
                         nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig,
                         t_end: float, seed: int = 7,
                         band: int | None = None) -> LipschitzReport:
    """Run U and U + delta to t_end, pair their (about 200) samples and
    track the growth ratio rho(t) of the gap in the s=0 pair norm; fit
    rho <= c6 exp(c7 t) over the second half of the window (the
    transient-free regime)."""
    if perturbation_scale <= 0:
        raise ValueError("perturbation_scale must be positive")
    grid = initial.grid
    if band is None:
        band = max(1, grid.n_modes // 4)
    delta = random_pair_state(grid, band, perturbation_scale, seed)
    pert = State(initial.u + delta.u, initial.v + delta.v, initial.time)

    every = _stride(t_end - initial.time, cfg.dt, 200)
    a = _states(initial, nl, g, cfg, t_end, every)
    b = _states(pert, nl, g, cfg, t_end, every)
    base = norm_pair(delta.u, delta.v, 0.0)
    times = [s.time for s in a]
    rho = [1.0] + [norm_pair(sb.u - sa.u, sb.v - sa.v, 0.0) / base
                   for sa, sb in zip(a[1:], b[1:])]
    t_arr, r_arr = np.asarray(times), np.asarray(rho)
    half = initial.time + 0.5 * (t_end - initial.time)
    mask = t_arr >= half
    c7, logc6, _ = _log_linear_fit(t_arr[mask], r_arr[mask])
    return LipschitzReport(perturbation_scale, times, rho,
                           math.exp(logc6), c7, float(r_arr.max()))


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

@dataclass
class EquilibriumResult:
    u_star: ModalField
    residual: float           # L2 of the modal residual of Au + P_N f(u) - A^(-1)g
    newton_iters: int
    energy_at: float          # total energy of (u*, 0)
    stability_indicator: float
    converged: bool
    residual_history: list = field(default_factory=list)


def _stationary_jacobian(u: ModalField, nl: Nonlinearity, lam: np.ndarray) -> LinearOperator:
    """A + P_n f'(u) in modal coordinates, matrix-free and symmetric."""
    n = u.grid.n_modes
    mult = fprime_multiplier(u, nl)

    def matvec(vec):
        w = vec.reshape(n, n)
        return (lam * w + mult(w)).ravel()

    return LinearOperator((n * n, n * n), matvec=matvec, dtype=np.float64)


def _inverse_a(lam: np.ndarray) -> LinearOperator:
    return LinearOperator((lam.size, lam.size),
                          matvec=lambda vec: (vec.reshape(lam.shape) / lam).ravel(),
                          dtype=np.float64)


def _stability_indicator(op: LinearOperator, lam: np.ndarray, tol: float = 1e-12,
                         maxiter: int = 200) -> float:
    """Smallest eigenvalue of the symmetric operator op = A + P_n f'(u*)
    on the full n x n space.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) preconditioned by
    A^(-1), from the fixed start e_(1,1) so repeated calls agree
    bitwise.  Below 5 unknowns LOBPCG would switch to a dense solve
    with a warning, so that case is solved densely here.  Raises
    StepFailureError when the eigenresidual stays above tol.
    """
    size = lam.size
    if size < 5:
        return float(np.linalg.eigvalsh(op.matmat(np.eye(size)))[0])
    x0 = np.zeros((size, 1))
    x0[0, 0] = 1.0
    with warnings.catch_warnings():
        # non-convergence is checked below and raised, not warned about
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs = lobpcg(op, x0, M=_inverse_a(lam), tol=tol, maxiter=maxiter,
                            largest=False)
    resid = float(np.linalg.norm(op.matvec(vecs[:, 0]) - vals[0] * vecs[:, 0]))
    if not resid <= tol:
        raise StepFailureError(
            f"stability eigensolve stalled: residual {resid:.3e} > {tol:g} "
            f"after {maxiter} iterations",
            residual_history=[resid],
        )
    return float(vals[0])


def find_equilibrium(seed_field: ModalField, nl: Nonlinearity, g: SourceTerm,
                     tol: float = 1e-10, max_iter: int = 50) -> EquilibriumResult:
    """Newton iteration on R(u) = Au + P_N f(u) - A^(-1)g with
    matrix-free MINRES inner solves preconditioned by A^(-1).

    Convergence requires both ||R|| <= tol and ||A^(1/2) R|| <= 10 tol,
    so the equilibrium also satisfies the original stationary equation
    (residual multiplied back by A, measured in the V' norm) to 10 tol.
    On max_iter exhaustion the best iterate is returned with
    converged=False rather than raising: stationarity failures are
    findings, not crashes.  The stability indicator is the smallest
    eigenvalue of the Newton operator A + P_N f'(u*) at the result.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = seed_field.grid
    n = grid.n_modes
    lam = np.asarray(eigenvalues(grid))
    ghat_over_lam = resample(g.g_modal, n).coeff / lam if g.grid != grid \
        else g.g_modal.coeff / lam

    def residual(c):
        return lam * c + f_eval_dealiased(ModalField(grid, c), nl).coeff - ghat_over_lam

    def norms(r):
        return float(np.linalg.norm(r)), float(np.sqrt(np.sum(lam * r**2)))

    pre = _inverse_a(lam)
    c = seed_field.coeff.copy()
    r = residual(c)
    rn, rn_w = norms(r)
    history = [rn]
    iters = 0
    converged = rn <= tol and rn_w <= 10.0 * tol
    while not converged and iters < max_iter:
        op = _stationary_jacobian(ModalField(grid, c), nl, lam)
        delta, info = minres(op, -r.ravel(), M=pre, rtol=1e-12, maxiter=1000)
        if info != 0:
            break
        delta = delta.reshape(n, n)
        scale = 1.0
        for _ in range(10):
            c_try = c + scale * delta
            r_try = residual(c_try)
            if np.linalg.norm(r_try) < rn:
                break
            scale *= 0.5
        else:
            break
        c, r = c_try, r_try
        rn, rn_w = norms(r)
        history.append(rn)
        iters += 1
        converged = rn <= tol and rn_w <= 10.0 * tol
    u_star = ModalField(grid, c)
    e = energy(State(u_star, ModalField.zeros(grid)), nl, g)
    indicator = _stability_indicator(_stationary_jacobian(u_star, nl, lam), lam)
    return EquilibriumResult(u_star, rn, iters, e, indicator, converged, history)


# ---------------------------------------------------------------------------
# Lojasiewicz probe: convergence to a single equilibrium
# ---------------------------------------------------------------------------

@dataclass
class LojReport:
    tol: float
    tol_reached: bool
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
    tol is reported, not raised: the convergence claim is asymptotic."""
    stepper = Stepper(initial, nl, g, cfg)
    times, ut = [], []

    def observe(s: Stepper, _):
        times.append(s.state.time)
        ut.append(s.ut_vprime())

    run(stepper, t_end, _stride(t_end - initial.time, cfg.dt, 256), observe)
    final = stepper.state
    eq = find_equilibrium(final.u, nl, g)
    return LojReport(
        tol=tol,
        tol_reached=ut[-1] <= tol,
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
    every = _stride(t_end, cfg.dt, 100)
    tail0, tail2, late_over_early = [], [], []
    for i, r in enumerate(radii):
        sup0 = sup2 = 0.0
        early = late = 0.0
        for j in range(n_per_radius):
            st = random_pair_state(grid, band, r, seed + 1009 * i + j, s=2.0)
            rows = []

            def observe(stepper: Stepper, _):
                u, v = stepper.state.u, stepper.state.v
                rows.append((stepper.state.time, norm_pair(u, v, 0.0), norm_pair(u, v, 2.0)))

            run(Stepper(st, nl, g, cfg), t_end, every, observe)
            t, n0, n2 = np.array(rows).T
            tail = t >= 0.5 * t_end
            sup0 = max(sup0, float(n0[tail].max()))
            sup2 = max(sup2, float(n2[tail].max()))
            early = max(early, float(n0[(t >= 0.5 * t_end) & (t < 0.75 * t_end)].max()))
            late = max(late, float(n0[t >= 0.75 * t_end].max()))
        tail0.append(sup0)
        tail2.append(sup2)
        late_over_early.append(late / early if early > 0 else 1.0)
    ratio = max(tail0) / min(tail0) if min(tail0) > 0 else math.inf
    if all(s <= floor for s in tail0):
        status = "pass"
    elif ratio <= 1.1:
        status = "pass"
    elif any(q <= 0.7 for q in late_over_early):
        status = "inconclusive"
    else:
        status = "fail"
    return AbsorbReport(list(radii), tail0, tail2, ratio, floor, status)
