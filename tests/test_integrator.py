"""Time stepping: oracle accuracy, energy bookkeeping, failure paths."""

import math
import resource
import tracemalloc

import numpy as np
import pytest
from oracles import (InsufficientDataError, crank_nicolson_closed_form, exact_linear_mode,
                     higher_energy_residual, oracle_multiplier_matrix)
from scipy.sparse.linalg import LinearOperator, minres

from sinech.errors import InstabilityError, StepFailureError
from sinech import analysis, integrator, model
from sinech.analysis import find_equilibrium, random_pair_state
from sinech.integrator import (
    CrankNicolson,
    SchemeConfig,
    State,
    Stepper,
    TrajectoryLog,
    energy_equality_residual,
    horizon_steps,
    newton_krylov,
    newton_operator,
    run,
    simulate,
)
from sinech.model import (
    Nonlinearity,
    SourceTerm,
    acceleration_from_state,
    diagnostic_F,
    energy,
    f_eval_dealiased,
    fprime_sample,
    higher_functionals,
    nonlinear_term_and_potential,
)
from sinech.spectral import (
    GridSpec,
    ModalField,
    eigenvalue_power,
    eigenvalues,
    nodal_values,
    norm_Hs,
    norm_pair,
    padded_points,
    random_band_limited,
    resample,
    work_array,
)

PI = math.pi
LINEAR = Nonlinearity(0.0, 0.0, 0.0)
DOUBLE_WELL = Nonlinearity(1.0, 0.0, -1.0)
NOT_MONOTONE = "the step's system is not monotone"  # a failed implicit step's hint


def _single_mode_state(grid, amp=1.0):
    return State(ModalField.single_mode(grid, 1, 1, amp), ModalField.zeros(grid))


def _run_logged(st, nl, g, cfg, t_end, sample_every=1):
    """One run observed by a TrajectoryLog and a list of the sampled states."""
    log, states = TrajectoryLog(), []

    def observe(stepper, dissip_cum):
        log.record(stepper, dissip_cum)
        states.append(stepper.state)

    run(Stepper(st, nl, g, cfg), t_end, sample_every, observe)
    return log, states


def _final_state(st, nl, g, cfg, t_end):
    states = []
    run(Stepper(st, nl, g, cfg), t_end, 10**9, lambda stepper, _: states.append(stepper.state))
    return states[-1]


def _one_step(st, nl, g, cfg):
    stepper = Stepper(st, nl, g, cfg)
    stepper.advance()
    return stepper.state


# ---------------------------------------------------------------------------
# closed-form mode oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam,u0,v0", [
    (2.0, 1.0, 0.0),     # underdamped (the (1,1) mode at side pi)
    (0.5, 0.7, -0.2),    # critically damped: 4 lam^2 = 1
    (0.1, 1.0, 0.5),     # overdamped
])
def test_exact_linear_mode_initial_data(lam, u0, v0):
    u, v = exact_linear_mode(lam, u0, v0, 0.0)
    assert float(u) == pytest.approx(u0, abs=1e-15)
    assert float(v) == pytest.approx(v0, abs=1e-15)


@pytest.mark.parametrize("lam", [2.0, 0.5, 0.1, 7.3])
def test_exact_linear_mode_satisfies_ode(lam):
    # second-order finite differences of the closed form satisfy
    # u'' + u' + lam^2 u = 0, and v is u'
    t = np.linspace(0.05, 3.0, 40)
    h = 1e-5
    u, v = exact_linear_mode(lam, 1.0, 0.3, t)
    up, _ = exact_linear_mode(lam, 1.0, 0.3, t + h)
    um, _ = exact_linear_mode(lam, 1.0, 0.3, t - h)
    du = (up - um) / (2 * h)
    d2u = (up - 2 * u + um) / h**2
    assert np.abs(du - v).max() <= 1e-8
    assert np.abs(d2u + du + lam**2 * u).max() <= 1e-4


def test_exact_linear_mode_envelope_and_decay():
    om = math.sqrt(15.0) / 2.0
    t = np.linspace(0.0, 10.0, 500)
    u, v = exact_linear_mode(2.0, 1.0, 0.0, t)
    assert np.all(np.abs(u) <= np.exp(-0.5 * t) * (1.0 + 1.0 / (2.0 * om)) + 1e-15)
    # modal energy (v^2/lam + lam u^2)/2 decays over a period
    for lam in (2.0, 0.5, 0.1):
        u0, v0 = exact_linear_mode(lam, 1.0, 0.4, 0.0)
        u1, v1 = exact_linear_mode(lam, 1.0, 0.4, 1.0)
        e = lambda uu, vv: 0.5 * (vv**2 / lam + lam * uu**2)
        assert e(u1, v1) < e(u0, v0)


# ---------------------------------------------------------------------------
# scheme orders on the linear problem
# ---------------------------------------------------------------------------

def _linear_mode_error(scheme, dt):
    grid = GridSpec(4, PI)
    st = _single_mode_state(grid)
    g = SourceTerm.zero(grid)
    final = _final_state(st, LINEAR, g, SchemeConfig(dt=dt, scheme=scheme), 1.0)
    ue, ve = exact_linear_mode(2.0, 1.0, 0.0, 1.0)
    return abs(final.u.coeff[0, 0] - float(ue)) + abs(final.v.coeff[0, 0] - float(ve))


@pytest.mark.parametrize("h", [1e-3, horizon_steps(0.0105, 1e-3)[1], 0.1, 2.0])
@pytest.mark.parametrize("big_l", [0.0, 10.0])  # the stepper's lam^2, the decomposition's lam^2 + L
def test_crank_nicolson_tables_match_the_closed_form_solve(h, big_l):
    # the w row's tables are the closed-form 2x2 solve's response to a unit
    # c, w and rhs, and a start-up step's (c, w) are its response to each
    # input (a unit rhs as g); the IMEX step, with -lam and the AB2 weights
    # folded into its tables, is that solve with
    # rhs = g - lam (1.5 fhat - 0.5 prev), or g - lam fhat on the start-up step
    grid = GridSpec(32, PI)
    lam, lam2 = eigenvalues(grid), eigenvalue_power(grid, 2.0) + big_l
    cn = CrankNicolson(lam2, lam)

    def close(new, ref, what):
        for a, b in zip(new, ref):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), what

    one, zero = np.ones(grid.shape), np.zeros(grid.shape)
    units = {"c": (one, zero, zero), "w": (zero, one, zero), "r": (zero, zero, one),
             "fhat": (zero, zero, -1.5 * lam), "prev": (zero, zero, 0.5 * lam)}
    tables = cn._propagator(h)
    for name, unit in units.items():
        ref = crank_nicolson_closed_form(lam2, *unit, h)
        close([tables[name]], [ref[1]], name)
        if name in ("c", "w", "r"):
            close(cn.step_ab2(*unit[:2], zero, None, unit[2], h, 0.0), ref, name)
    close(cn.step_ab2(zero, zero, one, zero, None, h, 0.0), crank_nicolson_closed_form(
        lam2, zero, zero, -1.5 * lam, h), "fhat")
    close(cn.step_ab2(zero, zero, zero, one, None, h, 0.0), crank_nicolson_closed_form(
        lam2, zero, zero, 0.5 * lam, h), "prev")
    c, w, fhat, prev, g = (random_band_limited(grid, 32, 1.0, seed=k).coeff for k in range(5))
    for g_k in (None, g):
        for prev_k in (None, prev):
            rhs = -lam * (fhat if prev_k is None else 1.5 * fhat - 0.5 * prev_k)
            ref = crank_nicolson_closed_form(lam2, c, w, rhs if g_k is None else rhs + g_k, h)
            close(cn.step_ab2(c, w, fhat, prev_k, g_k, h, 0.0), ref, "step_ab2")


def test_crank_nicolson_rebuilds_its_tables_for_a_new_step_size():
    # the tables are cached per step size: the same h reuses them, another
    # h builds the ones a fresh instance builds, bitwise
    grid = GridSpec(8, PI)
    lam, lam2 = eigenvalues(grid), eigenvalue_power(grid, 2.0)
    cn = CrankNicolson(lam2, lam)
    first = cn._propagator(1e-3)
    assert cn._propagator(1e-3) is first
    second = cn._propagator(2e-3)
    assert second is not first
    fresh = CrankNicolson(lam2, lam)._propagator(2e-3)
    assert second.keys() == fresh.keys()
    assert all(np.array_equal(second[k], fresh[k]) for k in fresh)
    assert not any(np.array_equal(second[k], first[k]) for k in fresh)


def test_crank_nicolson_second_order():
    errs = [_linear_mode_error("imex_cn_ab2", dt) for dt in (1e-2, 5e-3, 2.5e-3)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.9 <= p <= 2.1 for p in orders)


def test_backward_euler_first_order():
    errs = [_linear_mode_error("implicit_newton", dt) for dt in (1e-2, 5e-3, 2.5e-3)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.8 <= p <= 1.2 for p in orders)


@pytest.mark.parametrize("scheme,low,high", [("imex_cn_ab2", 1.8, math.inf),
                                             ("implicit_newton", 0.8, 1.2)])
def test_nonlinear_temporal_order_richardson(scheme, low, high):
    # double well at N = 32: with no closed form, the order is read off
    # the final states at dt, dt/2 and dt/4 (Richardson self-convergence)
    # in the s = 0 pair norm.  dt * lambda <= 0.064 on the band-4 modes,
    # so even backward Euler is in its asymptotic regime
    grid = GridSpec(32, PI)
    st = random_pair_state(grid, 4, 1.0, seed=3)
    cfgs = [SchemeConfig(dt=2e-3 / 2**k, scheme=scheme) for k in range(3)]
    u = [_final_state(st, DOUBLE_WELL, SourceTerm.zero(grid), cfg, 0.1) for cfg in cfgs]
    d1 = norm_pair(u[0].u - u[1].u, u[0].v - u[1].v, 0.0)
    d2 = norm_pair(u[1].u - u[2].u, u[1].v - u[2].v, 0.0)
    assert low <= math.log2(d1 / d2) <= high


def test_zero_state_is_fixed_point():
    grid = GridSpec(8, PI)
    zero = ModalField.zeros(grid)
    for scheme in ("imex_cn_ab2", "implicit_newton"):
        st = State(zero, zero)
        stepper = Stepper(st, DOUBLE_WELL, SourceTerm.zero(grid),
                          SchemeConfig(dt=1e-2, scheme=scheme))
        for _ in range(5):
            stepper.advance()
        assert np.abs(stepper.state.u.coeff).max() == 0.0
        assert np.abs(stepper.state.v.coeff).max() == 0.0
        assert stepper.state.time == pytest.approx(5e-2)


def test_one_step_taylor_consistency():
    # one IMEX step from (u, 0): v_1 = dt * u_tt(0) + O(dt^2)
    grid = GridSpec(8, PI)
    g = SourceTerm(random_band_limited(grid, 3, 0.4, seed=2))
    u0 = random_band_limited(grid, 4, 0.8, seed=1)
    acc0 = acceleration_from_state(State(u0, ModalField.zeros(grid)), DOUBLE_WELL, g)

    def defect(dt):
        nxt = _one_step(State(u0, ModalField.zeros(grid)), DOUBLE_WELL, g,
                        SchemeConfig(dt=dt))
        return norm_Hs(nxt.v - acc0 * dt, 0.0)

    d1, d2 = defect(1e-3), defect(5e-4)
    assert math.log2(d1 / d2) >= 1.8


# ---------------------------------------------------------------------------
# energy equality and dissipation bookkeeping
# ---------------------------------------------------------------------------

def test_energy_equality_residual_orders_linear():
    grid = GridSpec(4, PI)
    g = SourceTerm.zero(grid)
    residuals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        st = _single_mode_state(grid, amp=0.25)
        log = simulate(st, LINEAR, g, SchemeConfig(dt=dt), 1.0)
        residuals.append(energy_equality_residual(log, 0, len(log) - 1))
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 1.8
    assert residuals[-1] <= 1e-6


def test_energy_equality_residual_nonlinear_richardson():
    grid = GridSpec(8, PI)
    g = SourceTerm.zero(grid)
    st0 = random_pair_state(grid, 2, 0.8, seed=12)

    def resid(dt):
        log = simulate(st0.copy(), DOUBLE_WELL, g, SchemeConfig(dt=dt), 0.5)
        return energy_equality_residual(log, 0, len(log) - 1)

    assert resid(2e-3) / resid(1e-3) >= 3.5


def test_energy_equality_residual_contracts():
    grid = GridSpec(4, PI)
    log = simulate(_single_mode_state(grid), LINEAR, SourceTerm.zero(grid),
                   SchemeConfig(dt=1e-2), 0.1)
    assert energy_equality_residual(log, 3, 3) == 0.0
    with pytest.raises(IndexError):
        energy_equality_residual(log, 0, len(log))
    with pytest.raises(ValueError):
        energy_equality_residual(log, 5, 2)


def test_energy_monotone_double_well():
    # random data of moderate size: the logged energy never increases
    # beyond the per-step tolerance, and the dissipation trace is
    # nondecreasing with strictly increasing sample times
    grid = GridSpec(16, PI)
    g = SourceTerm.zero(grid)
    for seed in range(5):
        st = random_pair_state(grid, 4, 1.0, seed=seed)
        log = simulate(st, DOUBLE_WELL, g, SchemeConfig(dt=1e-3), 0.2)
        de = np.diff(np.asarray(log.energy))
        assert de.max() <= 1e-8
        assert np.diff(np.asarray(log.dissip_cum)).min() >= 0.0
        assert np.diff(np.asarray(log.t)).min() > 0.0


def test_dissipation_matches_energy_drop():
    # trapezoid-consistent accumulation: E(0) - E(T) equals the logged
    # dissipation integral to discretization accuracy
    grid = GridSpec(16, PI)
    g = SourceTerm.zero(grid)
    st = random_pair_state(grid, 4, 1.0, seed=3)
    log = simulate(st, DOUBLE_WELL, g, SchemeConfig(dt=1e-3), 1.0)
    drop = log.energy[0] - log.energy[-1]
    assert log.dissip_cum[-1] == pytest.approx(drop, rel=1e-4)


# ---------------------------------------------------------------------------
# trajectory log plumbing
# ---------------------------------------------------------------------------

def test_simulate_sampling_contracts():
    grid = GridSpec(4, PI)
    g = SourceTerm.zero(grid)
    st = _single_mode_state(grid)
    with pytest.raises(ValueError):
        simulate(st, LINEAR, g, SchemeConfig(dt=1e-2), 1.0, sample_every=0)
    with pytest.raises(ValueError):
        simulate(st, LINEAR, g, SchemeConfig(dt=1e-2), -1.0)
    # t_end == start time: single sample, no steps
    log = simulate(st, LINEAR, g, SchemeConfig(dt=1e-2), 0.0)
    assert len(log) == 1 and log.t[0] == 0.0
    # horizon snapping: a non-divisible span still lands exactly on t_end
    log = simulate(st, LINEAR, g, SchemeConfig(dt=1e-3), 0.0501)
    assert abs(log.t[-1] - 0.0501) <= 1e-12
    # so does a span so far below dt that span / dt underflows to 0: one step
    log = simulate(st, LINEAR, g, SchemeConfig(dt=1e308), 1e-300)
    assert log.t == [0.0, 1e-300]
    # sample_every thins the interior but keeps both endpoints
    log = simulate(st, LINEAR, g, SchemeConfig(dt=1e-2), 0.1, sample_every=4)
    assert len(log) == 4  # steps 0, 4, 8, 10
    assert log.t[0] == 0.0 and abs(log.t[-1] - 0.1) <= 1e-12


def test_trajectory_csv(tmp_path):
    grid = GridSpec(4, PI)
    log = simulate(_single_mode_state(grid), DOUBLE_WELL, SourceTerm.zero(grid),
                   SchemeConfig(dt=1e-2), 0.1)
    path = tmp_path / "traj.csv"
    log.write_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "t,norm0,norm2,ut_Vprime,energy,calF,calG,calH,dissip_cum"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(log), 9)
    assert np.allclose(data[:, 0], log.t, rtol=0, atol=0)
    assert np.allclose(data[:, 4], log.energy, rtol=0, atol=0)


def test_logged_norms_match_state():
    grid = GridSpec(8, PI)
    st = random_pair_state(grid, 4, 1.0, seed=8)
    g = SourceTerm.zero(grid)
    log, states = _run_logged(st, DOUBLE_WELL, g, SchemeConfig(dt=1e-3), 0.02)
    for i, s in enumerate(states):
        assert log.norm0[i] == pytest.approx(norm_pair(s.u, s.v, 0.0), rel=1e-14)
        assert log.norm2[i] == pytest.approx(norm_pair(s.u, s.v, 2.0), rel=1e-14)
        assert log.energy[i] == pytest.approx(
            energy(s, DOUBLE_WELL, g), rel=1e-12
        )


def test_ut_consistency_central_difference():
    # logged u at consecutive samples differentiates back to v
    grid = GridSpec(4, PI)
    dt = 1e-3
    _, states = _run_logged(_single_mode_state(grid), LINEAR, SourceTerm.zero(grid),
                            SchemeConfig(dt=dt), 0.5)
    us = [s.u.coeff[0, 0] for s in states]
    vs = [s.v.coeff[0, 0] for s in states]
    mid = len(us) // 2
    central = (us[mid + 1] - us[mid - 1]) / (2 * dt)
    assert central == pytest.approx(vs[mid], abs=5e-6)


# ---------------------------------------------------------------------------
# higher-order energy balance
# ---------------------------------------------------------------------------

def test_higher_energy_residual_orders():
    grid = GridSpec(4, PI)
    g = SourceTerm.zero(grid)
    residuals = []
    for dt in (5e-3, 2.5e-3):
        log = simulate(_single_mode_state(grid, 0.5), LINEAR, g,
                       SchemeConfig(dt=dt), 0.5)
        residuals.append(higher_energy_residual(log))
    assert math.log2(residuals[0] / residuals[1]) >= 1.8


def test_higher_energy_residual_resolution_invariance():
    # band-limited data resolved at N: the balance residual is a spatial
    # exact quantity, so N and 2N runs agree closely
    g8 = GridSpec(8, PI)
    st8 = random_pair_state(g8, 2, 0.3, seed=21)
    st16 = State(resample(st8.u, 16), resample(st8.v, 16))
    cfg = SchemeConfig(dt=2e-3)
    r8 = higher_energy_residual(
        simulate(st8, DOUBLE_WELL, SourceTerm.zero(g8), cfg, 0.25))
    r16 = higher_energy_residual(
        simulate(st16, DOUBLE_WELL, SourceTerm.zero(GridSpec(16, PI)), cfg, 0.25))
    assert abs(r8 - r16) <= 1e-8


def test_higher_energy_residual_contracts():
    grid = GridSpec(4, PI)
    g = SourceTerm.zero(grid)
    short = simulate(_single_mode_state(grid), LINEAR, g, SchemeConfig(dt=1e-2), 0.0)
    with pytest.raises(InsufficientDataError):
        higher_energy_residual(short)
    # non-uniform sampling (final partial stride) is refused
    log = simulate(_single_mode_state(grid), LINEAR, g, SchemeConfig(dt=1e-3),
                   0.01, sample_every=3)
    with pytest.raises(InsufficientDataError):
        higher_energy_residual(log)


# ---------------------------------------------------------------------------
# schemes: safeguards and Newton behavior
# ---------------------------------------------------------------------------

def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=1e-3, scheme="leapfrog")
    with pytest.raises(ValueError):
        SchemeConfig(dt=1e-3, newton_tol=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=1e-3, newton_max_iter=0)
    for tol in (-1.0, math.nan):  # -1 once made every step fail the energy safeguard
        with pytest.raises(ValueError, match="safeguard_tol"):
            SchemeConfig(dt=1e-3, safeguard_tol=tol)
    # time runs forward only, with either scheme, in the config and in a
    # step given its own dt, which leaves the stepper as it was
    grid = GridSpec(8, PI)
    start = random_pair_state(grid, 3, 1.0, seed=8)
    for scheme in ("imex_cn_ab2", "implicit_newton"):
        for dt in (-1e-3, math.inf, math.nan):
            with pytest.raises(ValueError):
                SchemeConfig(dt=dt, scheme=scheme)
        stepper = Stepper(start, DOUBLE_WELL, SourceTerm.zero(grid),
                          SchemeConfig(dt=1e-2, scheme=scheme))
        stepper.advance()
        before = stepper.state.copy()
        for dt in (-1e-3, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and > 0"):
                stepper.advance(dt)
            assert stepper.step_count == 1 and stepper.state.time == before.time
            assert np.array_equal(stepper.state.u.coeff, before.u.coeff)
            assert np.array_equal(stepper.state.v.coeff, before.v.coeff)


def test_safeguard_trips_on_violent_step():
    grid = GridSpec(16, PI)
    st = random_pair_state(grid, 4, 8.0, seed=4)
    stepper = Stepper(st, DOUBLE_WELL, SourceTerm.zero(grid),
                      SchemeConfig(dt=2.0))
    with pytest.raises(InstabilityError) as exc:
        for _ in range(50):
            stepper.advance()
    assert "dt" in str(exc.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["imex_cn_ab2", "implicit_newton"])
@pytest.mark.parametrize("amp,when,energy_before", [
    (1e70, "after the step to t=0.001", 5.699e278),  # a finite state whose energy overflows
    (1e100, "before the step from t=0", math.inf),    # data whose energy already does
], ids=["1e70", "1e100"])
def test_a_non_finite_energy_is_named_not_called_a_rise(scheme, amp, when, energy_before):
    # the energy overflowed, so it did not rise, and a smaller dt fails the
    # same way: the message says so and gives no dt advice; the step is
    # refused with its end time and index and changes nothing
    grid = GridSpec(4, PI)
    stepper = Stepper(_single_mode_state(grid, amp), DOUBLE_WELL, SourceTerm.zero(grid),
                      SchemeConfig(dt=1e-3, scheme=scheme))
    for _ in range(2):  # a retry fails the same way
        with pytest.raises(InstabilityError) as exc:
            stepper.advance()
        message = str(exc.value)
        assert message.startswith("the energy is not finite (") and message.endswith(when)
        assert "increased" not in message and "dt" not in message
        assert exc.value.time == 1e-3 and exc.value.step == 1
        assert stepper.step_count == 0 and stepper.state.time == 0.0
        assert stepper.energy_total() == pytest.approx(energy_before, rel=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_require_finite_raises_without_a_warning():
    # the one-pass sum of inf and -inf is nan, and numpy's reduce warns of
    # an invalid value there; the check raises on it, and on nothing else
    # (a sum that overflows on finite entries), without a warning
    with pytest.raises(InstabilityError) as exc:
        integrator._require_finite(0.5, np.array([[math.inf, -math.inf], [1.0, 2.0]]))
    assert exc.value.time == 0.5
    integrator._require_finite(0.5, np.full((2, 2), 1e308))


def test_safeguard_on_a_non_monotone_implicit_step_says_so():
    # f = u^3 - 60u at dt = 0.1 trips the safeguard in step 1 from these data
    grid = GridSpec(8, PI)
    stepper = Stepper(random_pair_state(grid, 4, 0.1, seed=1), Nonlinearity(1.0, 0.0, -60.0),
                      SourceTerm.zero(grid), SchemeConfig(dt=0.1, scheme="implicit_newton"))
    with pytest.raises(InstabilityError, match="energy increased") as exc:
        stepper.advance()
    assert str(exc.value).endswith(f"; {NOT_MONOTONE} (min d = 21 <= lambda_bound = 60): "
                                   "a smaller dt helps")


def test_newton_nonconvergence_reports_history():
    grid = GridSpec(8, PI)
    st = random_pair_state(grid, 4, 3.0, seed=5)
    stepper = Stepper(st, DOUBLE_WELL, SourceTerm.zero(grid),
                      SchemeConfig(dt=0.5, scheme="implicit_newton",
                                   newton_max_iter=1, newton_tol=1e-14))
    with pytest.raises(StepFailureError) as exc:
        stepper.advance()
    assert len(exc.value.residual_history) >= 1
    # the failed step's end time and index, as for an InstabilityError
    assert exc.value.time == 0.5 and exc.value.step == 1


def _failing_step(nl, dt, **cfg):
    grid = GridSpec(32, PI)
    stepper = Stepper(random_pair_state(grid, 4, 1.0, seed=32), nl, SourceTerm.zero(grid),
                      SchemeConfig(dt=dt, scheme="implicit_newton", **cfg))
    with pytest.raises(StepFailureError) as exc:
        while True:
            stepper.advance()
    err = exc.value
    assert type(err) is StepFailureError
    assert err.step == stepper.step_count + 1
    assert err.time == stepper.state.time + dt and f"at t={err.time:g}" in str(err)
    return str(err), err.residual_history


def test_newton_step_failures_name_their_cause(monkeypatch):
    # one case for each failed status of newton_krylov, with the step's
    # messages
    msg, history = _failing_step(DOUBLE_WELL, 0.5, newton_max_iter=1, newton_tol=1e-14)
    assert msg.startswith("Newton did not reach tol=1e-14 in 1 iterations") and len(history) == 2
    # f = u^3 - 60u at dt = 0.1 stalls in the line search of step 2; its
    # d = lam + 110 / lam has min d = 21 <= lambda_bound = 60, and the
    # message says so
    msg, history = _failing_step(Nonlinearity(1.0, 0.0, -60.0), 0.1)
    assert msg.startswith("Newton line search failed at t=0.2") and history[-1] > 1e-10
    assert msg.endswith(f"; {NOT_MONOTONE} (min d = 21 <= lambda_bound = 60): "
                        "a smaller dt helps")
    # a forced failure of a monotone system (min d = 21 > 3) gives no hint
    msg, _ = _failing_step(Nonlinearity(1.0, 0.0, -3.0), 0.1, newton_max_iter=1, newton_tol=1e-14)
    assert msg.startswith("Newton did not reach") and NOT_MONOTONE not in msg
    monkeypatch.setattr(integrator, "minres", lambda op, b, **kw: (np.zeros_like(b), 7))
    msg, history = _failing_step(DOUBLE_WELL, 0.5)
    assert msg.startswith("inner MINRES stalled (info=7)") and len(history) == 1


def _newton_on_a_well(monkeypatch, max_iter=30, solve=integrator.minres):
    # R(u) = A u + P_N f(u) for f = u^3 - 3u at N = 4 (d = A, b = 0) from a
    # seed off the nonzero equilibrium; the slot of each residual (0 for the
    # 2n-grid buffer of the first residual, 1 for the other) is recorded
    grid = GridSpec(4, PI)
    nl, lam, m = Nonlinearity(1.0, 0.0, -3.0), np.asarray(eigenvalues(grid)), padded_points(4)
    buffers, slots = [], []

    def spy(u, nl, values):
        if id(values) not in buffers:
            buffers.append(id(values))
        slots.append(buffers.index(id(values)))
        return nonlinear_term_and_potential(u, nl, values)

    def stop(r):
        rn = float(np.linalg.norm(r))
        return rn, rn <= 1e-12

    monkeypatch.setattr(integrator, "nonlinear_term_and_potential", spy)
    failure, x, cached, values, history = newton_krylov(
        ModalField.single_mode(grid, 1, 1, 3.0), nl, lam, np.zeros(grid.shape), solve, stop,
        1e-12, max_iter)
    # x, its cache, its 2n-grid values and the f' sampled from them all
    # belong to one accepted iterate
    un = np.empty((m, m))
    fh, pot = nonlinear_term_and_potential(ModalField(grid, x), nl, un)
    assert np.array_equal(cached[0], fh.coeff) and cached[1] == pot
    assert np.array_equal(values, un) and np.array_equal(fprime_sample(values, nl), nl.f_prime(un))
    assert len(buffers) <= 2
    return failure, x, history, slots


def test_newton_krylov_statuses(monkeypatch):
    # converged, the iteration limit, a failed inner solve and a failed
    # line search; a fake solve gives the last two
    failure, x, history, _ = _newton_on_a_well(monkeypatch)
    assert failure is None and history[-1] <= 1e-12 and abs(x[0, 0]) > 1.0
    assert all(b < a for a, b in zip(history, history[1:]))

    failure, x, history, _ = _newton_on_a_well(monkeypatch, max_iter=2)
    assert failure == "Newton did not reach tol=1e-12 in 2 iterations"
    assert len(history) == 3 and history[-1] > 1e-12

    def stalled(op, rhs, **kw):
        assert 0.0 < kw["rtol"] <= 1e-3
        return np.zeros_like(rhs), 3

    failure, x, history, slots = _newton_on_a_well(monkeypatch, solve=stalled)
    assert failure == "inner MINRES stalled (info=3)" and len(history) == 1 and slots == [0]
    assert np.array_equal(x, ModalField.single_mode(GridSpec(4, PI), 1, 1, 3.0).coeff)

    # an uphill direction: 12 halvings, then the start is still the best
    def uphill(op, rhs, **kw):
        delta, info = integrator.minres(op, rhs, **kw)
        return -delta, info

    failure, x, history, slots = _newton_on_a_well(monkeypatch, solve=uphill)
    assert failure == "Newton line search failed" and len(history) == 1
    assert slots == [0] + [1] * 12
    assert np.array_equal(x, ModalField.single_mode(GridSpec(4, PI), 1, 1, 3.0).coeff)


def _newton_krylov_system(system):
    # the operator and preconditioner newton_krylov builds for f = u^3 - 3u
    # at N = 16: an implicit step's (SPD) with d = lam + (1 + h) / (h^2 lam)
    # at band-4 data, or find_equilibrium's, indefinite at u = 0.1 e_11
    # since lam_11 - 3 < 0, with d = lam
    grid = GridSpec(16, PI)
    nl, lam = Nonlinearity(1.0, 0.0, -3.0), np.asarray(eigenvalues(grid))
    if system == "equilibrium":
        u, d = ModalField.single_mode(grid, 1, 1, 0.1), lam
    else:
        u, d = random_band_limited(grid, 4, 1.0, seed=5), lam + (1.0 + system) / (system**2 * lam)
    values = np.empty((padded_points(16),) * 2)
    nonlinear_term_and_potential(u, nl, values)
    fprime = fprime_sample(values, nl)
    pre = integrator.inverse_diagonal(integrator._preconditioner_diagonal(d, fprime.mean()))
    return newton_operator(grid, d, fprime), pre, random_band_limited(grid, 16, 1.0, seed=6)


def _counted_solve(solve, op, rhs, **kw):
    iters = []
    x, info = solve(op, rhs, callback=lambda xk: iters.append(1), **kw)
    return x, info, len(iters)


def _as_linear_operator(op, shape):
    # scipy's minres takes vectors: op on (n, n) arrays, raveled
    size = shape[0] * shape[1]
    return LinearOperator((size, size), dtype=np.float64,
                          matvec=lambda vec: op(vec.reshape(shape)).ravel())


@pytest.mark.parametrize("system", [1e-3, 0.1, 1.0, "equilibrium"])
@pytest.mark.parametrize("rtol", [1e-3, 1e-10])
def test_minres_matches_scipy(system, rtol):
    # the package's MINRES runs scipy's recurrences and stopping tests, so
    # it takes as many iterations to the same solution; only its sums,
    # by einsum, differ in the last bits
    op, pre, rhs = _newton_krylov_system(system)
    x, info, iters = _counted_solve(integrator.minres, op, rhs.coeff, M=pre, rtol=rtol,
                                    maxiter=1000)
    shape = rhs.coeff.shape
    x_ref, info_ref, iters_ref = _counted_solve(
        minres, _as_linear_operator(op, shape), rhs.coeff.ravel(),
        M=_as_linear_operator(pre, shape), rtol=rtol, maxiter=1000)
    assert info == info_ref == 0 and iters == iters_ref >= 1
    assert np.linalg.norm(x.ravel() - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_minres_iteration_limit_and_zero_rhs():
    op, pre, rhs = _newton_krylov_system(0.1)
    x, info, iters = _counted_solve(integrator.minres, op, rhs.coeff, M=pre, rtol=1e-10,
                                    maxiter=1)
    assert info == 1 and iters == 1 and np.any(x)
    x, info, iters = _counted_solve(integrator.minres, op, np.zeros(rhs.coeff.shape), M=pre,
                                    rtol=1e-10, maxiter=1000)
    assert info == 0 and iters == 0 and not np.any(x)


@pytest.mark.parametrize("a1, dt", [(-3.0, 0.1), (-60.0, 0.1), (-4.0, 1.0), (-1.0, 2.0)])
def test_newton_operator_is_the_backward_euler_jacobian(a1, dt):
    # h^2 Lam (d + P_N f'(x)) is the Jacobian (1 + h) + h^2 Lam^2 + h^2 Lam P_N f'(x)
    # of the undivided backward-Euler residual, built densely from the
    # oracles at N = 8; and since f' >= -lambda_bound, the operator's
    # smallest eigenvalue is at least min d - lambda_bound
    grid = GridSpec(8, PI)
    nl = Nonlinearity(1.0, 0.0, a1)
    x = random_band_limited(grid, 8, 10.0, seed=int(-a1))
    stepper = Stepper(State(x, ModalField.zeros(grid)), nl, SourceTerm.zero(grid),
                      SchemeConfig(dt=dt, scheme="implicit_newton"))
    d = stepper._newton_system(dt)[0]
    apply = newton_operator(grid, d, fprime_sample(nodal_values(x, padded_points(8)), nl))
    op = np.column_stack([apply(e.reshape(8, 8)).ravel() for e in np.eye(64)])
    lam = np.asarray(eigenvalues(grid)).ravel()
    jacobian = (np.diag(1.0 + dt + dt * dt * lam**2)
                + dt * dt * lam[:, None] * oracle_multiplier_matrix(x, nl.f_prime))
    assert np.abs(dt * dt * lam[:, None] * op - jacobian).max() <= 1e-12 * np.abs(jacobian).max()
    smallest = np.linalg.eigvalsh(0.5 * (op + op.T))[0]
    assert smallest >= d.min() - nl.lambda_bound - 1e-12 * np.abs(op).max()


def test_a_stale_operator_raises():
    # an operator's scaled f' lives in a pooled array per dtype and grid,
    # which the next build of that dtype and grid overwrites: the first
    # operator then raises instead of applying the second one's f'
    grid = GridSpec(8, PI)
    lam = np.asarray(eigenvalues(grid))
    fprimes = [fprime_sample(nodal_values(random_band_limited(grid, 4, 1.0, seed=s),
                                          padded_points(8)), DOUBLE_WELL).copy() for s in (1, 2)]
    w = random_band_limited(grid, 8, 1.0, seed=3).coeff
    first = newton_operator(grid, lam, fprimes[0])
    product = first(w)
    second = newton_operator(grid, lam, fprimes[1])
    with pytest.raises(RuntimeError, match="stale"):
        first(w)
    assert not np.array_equal(second(w), product)
    newton_operator(grid, lam, fprimes[0], np.float32)(w)  # another dtype's pool
    newton_operator(GridSpec(16, PI), np.asarray(eigenvalues(GridSpec(16, PI))),
                    np.ones((padded_points(16),) * 2))  # another grid's
    second(w)


def _steps_meet_the_outer_tolerance(nl, n, dt, steps):
    # each step's backward-Euler residual, recomputed from the two states
    # alone, is within newton_tol, and u_t is (x - c) / dt
    grid = GridSpec(n, PI)
    cfg = SchemeConfig(dt=dt, scheme="implicit_newton")
    stepper = Stepper(random_pair_state(grid, 4, 1.0, seed=n), nl, SourceTerm.zero(grid), cfg)
    lam = eigenvalues(grid)
    for _ in range(steps):
        start = stepper.state
        stepper.advance()
        c, w, x = start.u.coeff, start.v.coeff, stepper.state.u.coeff
        fh = f_eval_dealiased(stepper.state.u, nl).coeff
        res = (1.0 + dt) * (x - c) + dt * dt * (lam**2 * x + lam * fh) - dt * w
        assert np.linalg.norm(res) / dt <= cfg.newton_tol
        assert np.array_equal(stepper.state.v.coeff, (x - c) / dt)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("dt", [1e-3, 0.1, 0.5, 1.0, 2.0])
def test_inexact_newton_meets_the_outer_tolerance(n, dt):
    # the inner MINRES solves stop early (Eisenstat-Walker forcing) and
    # Newton starts from the linearly implicit predictor, but every accepted
    # step solves backward Euler to newton_tol.  Over these 5 steps at
    # N = 32, dt = 1 and 2 took 13 and 12 Newton iterations with the
    # explicit predictor and f'-blind preconditioner; now 10 and 10.
    _steps_meet_the_outer_tolerance(DOUBLE_WELL, n, dt, steps=5)


@pytest.mark.parametrize("n", [16, 32])
def test_newton_preconditioner_falls_back_where_the_shift_is_not_positive(n, monkeypatch):
    # f = u^3 - 4u at dt = 1: d = lam + 2 / lam is 3 at lam_11 = 2, so
    # d + mean(f'), about -1 there, is not positive in the lowest modes,
    # which keep the f'-free diagonal d; Newton still meets the outer
    # tolerance
    fallbacks = []
    diagonal = integrator._preconditioner_diagonal

    def spy(d, fprime_mean):
        fallbacks.append(bool(np.any(d + fprime_mean <= 0.0)))
        return diagonal(d, fprime_mean)

    monkeypatch.setattr(integrator, "_preconditioner_diagonal", spy)
    _steps_meet_the_outer_tolerance(Nonlinearity(1.0, 0.0, -4.0), n, 1.0, steps=5)
    assert any(fallbacks)


@pytest.mark.parametrize("a1, dt", [(-60.0, 0.1), (-4.0, 1.0), (-1.0, 2.0), (0.0, 0.1)])
def test_newton_preconditioner_is_positive(a1, dt):
    # the step's d shifted by mean f' = a1 (f = a1 u near u = 0): where that
    # is not positive d, which is positive, takes its place
    lam = np.asarray(eigenvalues(GridSpec(32, PI)))
    d = lam + (1.0 + dt) / (dt * dt * lam)
    pre = integrator._preconditioner_diagonal(d, a1)
    assert np.all(pre > 0.0)
    assert np.array_equal(pre, np.where(d + a1 > 0.0, d + a1, d))
    if a1 in (-60.0, -4.0):  # both reach the fallback
        assert np.any(d + a1 <= 0.0)


def test_implicit_path_needs_fewer_solves(monkeypatch):
    # 10 implicit steps and one equilibrium solve, counted through the
    # module-level minres names (as perfbench/tracer.py wraps them).  With
    # the explicit predictor c + h w, the f'-blind preconditioner and
    # find_equilibrium's fixed rtol = 1e-12 this run took 23 Newton
    # iterations, 64 step MINRES iterations and 36 equilibrium MINRES
    # iterations; the linearly implicit predictor, the mean-f'
    # preconditioner and the shared forcing took 21, 47 and 16, and the
    # one system d x + P_N f(x) = b (with d + mean f' preconditioning the
    # equilibrium too) took 20, 51 and 7, and the package's MINRES (as many
    # iterations as scipy's) with the predictor's P_N f extrapolated from the
    # last two states takes 20, 49 and 7.
    counts = {"integrator": [0, 0], "analysis": [0, 0]}

    def counted(module, key):
        solve = module.minres

        def wrapper(*args, **kwargs):
            counts[key][0] += 1

            def callback(_):
                counts[key][1] += 1

            return solve(*args, callback=callback, **kwargs)

        monkeypatch.setattr(module, "minres", wrapper)

    counted(integrator, "integrator")
    counted(analysis, "analysis")
    grid = GridSpec(32, PI)
    nl, g = Nonlinearity(1.0, 0.0, -3.0), SourceTerm.zero(grid)
    start = State(ModalField.single_mode(grid, 1, 1, 0.5)
                  + random_band_limited(grid, 3, 0.1, seed=0), ModalField.zeros(grid))
    stepper = Stepper(start, nl, g, SchemeConfig(dt=0.1, scheme="implicit_newton"))
    for _ in range(10):
        stepper.advance()
    newton_iters, minres_iters = counts["integrator"]
    eq = find_equilibrium(stepper.state.u, nl, g)
    assert eq.converged
    assert newton_iters < 23
    assert minres_iters < 64
    # the equilibrium's inner solves go through analysis.minres, the name
    # the benchmark's tracer counts them by, and none through the step's
    assert counts["integrator"] == [newton_iters, minres_iters]
    assert counts["analysis"][0] > 0 and 0 < counts["analysis"][1] < 36


def test_implicit_step_samples_fprime_once_per_inner_solve(monkeypatch):
    # f'(x) is sampled only where a Jacobian is built: once per Newton
    # iteration, from the accepted iterate's 2n-grid values, for its one
    # MINRES solve; the residuals (the start's and each trial's) sample none
    counts = {"samples": 0, "solves": 0, "residuals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(integrator, "fprime_sample", counted("samples", model.fprime_sample))
    monkeypatch.setattr(integrator, "minres", counted("solves", integrator.minres))
    monkeypatch.setattr(integrator, "nonlinear_term_and_potential",
                        counted("residuals", nonlinear_term_and_potential))
    grid = GridSpec(16, PI)
    stepper = Stepper(State(random_band_limited(grid, 4, 1.0, seed=5), ModalField.zeros(grid)),
                      Nonlinearity(1.0, 0.0, -3.0), SourceTerm.zero(grid),
                      SchemeConfig(dt=0.1, scheme="implicit_newton"))
    stepper.advance()
    assert counts["samples"] == counts["solves"] >= 2
    assert counts["residuals"] >= counts["samples"] + 1


def test_only_loose_inner_solves_apply_a_float32_product(monkeypatch):
    # newton_krylov builds the operators of inner solves asked for
    # rtol >= _FLOAT32_RTOL with a float32 product, and those of tighter
    # ones with a float64 product (rtols scripted on both sides)
    threshold = integrator._FLOAT32_RTOL
    script = [1e-3, threshold, 0.5 * threshold, 1e-12]
    rtols, dtypes = [], []

    def forcing(history, tol):
        rtols.append(script[(len(history) - 1) % len(script)])
        return rtols[-1]

    def operator(grid, d, fprime, dtype):
        dtypes.append(dtype)
        return newton_operator(grid, d, fprime, dtype)

    monkeypatch.setattr(integrator, "_forcing", forcing)
    monkeypatch.setattr(integrator, "newton_operator", operator)
    failure, _, _, _ = _newton_on_a_well(monkeypatch)
    assert failure is None and len(rtols) >= 3
    assert dtypes == [np.float32 if r >= threshold else np.float64 for r in rtols]


@pytest.mark.parametrize("a1", [1e20, 1e40])
def test_implicit_step_takes_a_stiff_linear_term_implicitly(a1, monkeypatch):
    # f = u^3 + a1 u with a1 far above d: a predictor that extrapolates a1 u
    # explicitly left Newton at a residual near 1e49, falling about 3x an
    # iteration, and the step failed after 30 iterations.  The predictor takes
    # a1 u implicitly, and each step meets the outer tolerance.  The loose
    # solves (the first one of each step, at rtol 1e-3) run in float32 even
    # at a1 = 1e40, where max|f'| is beyond float32: f' is scaled before
    # the cast
    dtypes = []

    def operator(grid, d, fprime, dtype):
        dtypes.append(dtype)
        return newton_operator(grid, d, fprime, dtype)

    monkeypatch.setattr(integrator, "newton_operator", operator)
    _steps_meet_the_outer_tolerance(Nonlinearity(1.0, 0.0, a1), 16, 1e-2, steps=3)
    assert np.float32 in dtypes


def test_linear_implicit_step_never_reads_the_newton_values(monkeypatch):
    # for a3 = 0 a residual transforms nothing and leaves the pooled 2n-grid
    # values as they were, here NaN; f' = a1 must not be sampled from them.
    # The step is bitwise the one that fills f' with a1 without looking
    grid = GridSpec(16, PI)
    m = padded_points(16)
    nl = Nonlinearity(0.0, 0.0, 1.0)
    start = random_pair_state(grid, 4, 1.0, seed=12)
    cfg = SchemeConfig(dt=0.1, scheme="implicit_newton")

    def steps():
        for k in ("", "_try"):
            work_array("newton.values" + k, (m, m)).fill(np.nan)
        stepper = Stepper(start, nl, SourceTerm.zero(grid), cfg)
        for _ in range(3):
            stepper.advance()
        TrajectoryLog().record(stepper, 0.0)  # a row reads no 2n-grid value either
        assert np.isnan(stepper._padded[0]).all()  # the step's copy of the untouched values
        return stepper.state

    state = steps()
    monkeypatch.setattr(integrator, "fprime_sample",
                        lambda values, nl: np.full(values.shape, nl.a1))
    ref = steps()
    assert np.isfinite(state.u.coeff).all()
    assert np.array_equal(state.u.coeff, ref.u.coeff)
    assert np.array_equal(state.v.coeff, ref.v.coeff)


def test_newton_scheme_dissipates_nonlinear():
    grid = GridSpec(8, PI)
    st = random_pair_state(grid, 4, 1.0, seed=6)
    log = simulate(st, DOUBLE_WELL, SourceTerm.zero(grid),
                   SchemeConfig(dt=5e-3, scheme="implicit_newton"), 0.2)
    assert np.diff(np.asarray(log.energy)).max() <= 1e-8


# ---------------------------------------------------------------------------
# what a step reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["imex_cn_ab2", "implicit_newton"])
def test_state_history_and_count_are_all_a_step_reads(scheme):
    # a fresh stepper given a running one's state, P_N f of its previous
    # state and its step count takes bitwise the same next steps: nothing
    # else that a step reads is carried from one step to the next
    grid = GridSpec(8, PI)
    g = SourceTerm(random_band_limited(grid, 3, 0.5, seed=71))
    cfg = SchemeConfig(dt=1e-3, scheme=scheme)
    running = Stepper(random_pair_state(grid, 4, 1.0, seed=70), DOUBLE_WELL, g, cfg)
    for _ in range(7):
        running.advance()
    fresh = Stepper(running.state, DOUBLE_WELL, g, cfg)
    fresh._fhat_prev = running._fhat_prev.copy()
    fresh.step_count = running.step_count
    for _ in range(10):
        assert fresh.advance() == running.advance()
        assert np.array_equal(fresh.state.u.coeff, running.state.u.coeff)
        assert np.array_equal(fresh.state.v.coeff, running.state.v.coeff)
        assert fresh.state.time == running.state.time
        assert fresh.energy_total() == running.energy_total()
    assert fresh.step_count == running.step_count == 17


# ---------------------------------------------------------------------------
# non-finite states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["imex_cn_ab2", "implicit_newton"])
def test_nan_coefficient_raises_on_first_step(scheme):
    # NaN compares False with everything, so an energy test of the form
    # "rise > tol" alone would let it through
    grid = GridSpec(8, PI)
    st = random_pair_state(grid, 4, 1.0, seed=74)
    st.u.coeff[2, 3] = np.nan
    stepper = Stepper(st, DOUBLE_WELL, SourceTerm.zero(grid),
                      SchemeConfig(dt=1e-3, scheme=scheme))
    with pytest.raises(InstabilityError) as exc:
        stepper.advance()
    assert exc.value.time == 1e-3
    assert stepper.step_count == 0 and stepper.state.time == 0.0


# ---------------------------------------------------------------------------
# failed steps, log rows and the last sampled state
# ---------------------------------------------------------------------------

def test_failed_step_keeps_ab2_history():
    # the AB2 (or predictor) history and the current state's 2n-grid values
    # change with an accepted step only, so a retry at a smaller dt takes
    # the step a fresh stepper would.  Per scheme, (a1, amplitude, source
    # amplitude, rejected dt, dt): the safeguard rejects the longer step
    # from the initial state and after an accepted step; the implicit case
    # is the data of test_log_rows_never_read_stale_padded_values
    grid = GridSpec(16, PI)
    for scheme, a1, amp, g_amp, big, dt in [("imex_cn_ab2", -1.0, 8.0, 0.0, 2.0, 1e-3),
                                             ("implicit_newton", -20.0, 0.5, 0.3, 0.2, 0.05)]:
        nl, g = Nonlinearity(1.0, 0.0, a1), SourceTerm(ModalField.single_mode(grid, 2, 1, g_amp))
        st = State(random_band_limited(grid, 4, amp, seed=3), ModalField.zeros(grid))
        stepper = Stepper(st, nl, g, SchemeConfig(dt=big, scheme=scheme))
        fresh = Stepper(st, nl, g, SchemeConfig(dt=dt, scheme=scheme))
        stepper.energy_total()  # evaluates the current state, leaving its values in _padded[0]
        for _ in range(2):  # the start-up step, then the first with a history
            state, padded = stepper.state, stepper._padded[0].copy()
            with pytest.raises(InstabilityError, match="energy increased"):
                stepper.advance(big)
            assert stepper.state is state and np.array_equal(stepper._padded[0], padded)
            assert (stepper._fhat_prev is fresh._fhat_prev is None
                    or np.array_equal(stepper._fhat_prev, fresh._fhat_prev))
            stepper.advance(dt)
            fresh.advance()
            assert np.array_equal(stepper.state.u.coeff, fresh.state.u.coeff)
            assert np.array_equal(stepper.state.v.coeff, fresh.state.v.coeff)
        assert np.array_equal(stepper._fhat_prev, fresh._fhat_prev)


def test_failed_imex_step_builds_no_newton_system(monkeypatch):
    # only implicit_newton reads the Newton system (its min d, for the
    # not-monotone hint), so a failing IMEX step does not build it; the
    # failure's message, step and time are what they were when it did
    built = []
    newton_system = Stepper._newton_system
    monkeypatch.setattr(Stepper, "_newton_system",
                        lambda self, h: built.append(h) or newton_system(self, h))
    grid = GridSpec(16, PI)
    st = State(random_band_limited(grid, 4, 8.0, seed=3), ModalField.zeros(grid))
    stepper = Stepper(st, DOUBLE_WELL, SourceTerm.zero(grid), SchemeConfig(dt=2.0))
    with pytest.raises(InstabilityError) as exc:
        stepper.advance()
    assert built == []
    assert str(exc.value) == ("energy increased by 2.955e+01 in the step to t=2 (safeguard "
                              "1e-06); reduce dt or the resolution/nonlinearity stiffness")
    assert exc.value.step == 1 and exc.value.time == 2.0
    assert stepper.step_count == 0 and stepper.state.time == 0.0


@pytest.mark.parametrize("n", [8, 33, 64])
@pytest.mark.parametrize("case", ["double_well", "quadratic_with_source"])
def test_logged_functionals_equal_standalone(n, case):
    # a log row shares one padded-grid set and the step's P_n f(u) between
    # the functionals; it logs exactly what the standalone calls return
    grid = GridSpec(n, PI)
    if case == "double_well":
        nl, g = DOUBLE_WELL, SourceTerm.zero(grid)
        st = State(random_band_limited(grid, 4, 1.0, seed=5), ModalField.zeros(grid))
    else:
        nl, g = Nonlinearity(1.0, 0.5, -1.0), SourceTerm(ModalField.single_mode(grid, 1, 2, 0.3))
        st = State(random_band_limited(grid, 4, 1.0, seed=7),
                   random_band_limited(grid, 3, 0.5, seed=8))
    log, states = _run_logged(st, nl, g, SchemeConfig(dt=1e-3), 3e-3)
    assert len(states) == 4
    for k, s in enumerate(states):
        hf = higher_functionals(s, nl, g)
        assert log.cal_g[k] == hf.g and log.cal_h[k] == hf.h
        assert log.cal_f[k] == diagnostic_F(s, nl, g)


def test_log_final_is_last_sampled_state():
    grid = GridSpec(8, PI)
    st = random_pair_state(grid, 4, 1.0, seed=75)
    cfg = SchemeConfig(dt=1e-3)
    _, states = _run_logged(st, DOUBLE_WELL, SourceTerm.zero(grid), cfg, 7e-3, sample_every=3)
    log = simulate(st, DOUBLE_WELL, SourceTerm.zero(grid), cfg, 7e-3, sample_every=3)
    assert log.final.time == states[-1].time == log.t[-1]
    assert np.array_equal(log.final.u.coeff, states[-1].u.coeff)
    assert np.array_equal(log.final.v.coeff, states[-1].v.coeff)
    still = simulate(st, DOUBLE_WELL, SourceTerm.zero(grid), cfg, 0.0)
    assert np.array_equal(still.final.u.coeff, st.u.coeff)


# (scheme, a1, amplitude, dt): the safeguard rejects a step of 0.2 from the
# initial state and after an accepted step of dt
@pytest.mark.parametrize("scheme,a1,amp,dt", [("imex_cn_ab2", -1.0, 8.0, 1e-3),
                                              ("implicit_newton", -20.0, 0.5, 0.05)])
@pytest.mark.parametrize("a2", [0.0, 0.5])
def test_log_rows_never_read_stale_padded_values(scheme, a1, amp, dt, a2):
    # a row reads u on the 2n grid as the step's own transform left it; a
    # step the safeguard rejects, and padded evaluations of other fields,
    # must not change what it reads
    grid = GridSpec(16, PI)
    nl, g = Nonlinearity(1.0, a2, a1), SourceTerm(ModalField.single_mode(grid, 2, 1, 0.3))
    stepper = Stepper(State(random_band_limited(grid, 4, amp, seed=3), ModalField.zeros(grid)),
                      nl, g, SchemeConfig(dt=dt, scheme=scheme))
    other = random_band_limited(grid, 8, 2.0, seed=9)
    log, states = TrajectoryLog(), []

    def row():
        log.record(stepper, 0.0)
        states.append(stepper.state)

    for _ in range(2):  # the second rejection follows an accepted step
        with pytest.raises(InstabilityError, match="energy increased"):
            stepper.advance(0.2)
        row()  # the state the rejected step started from
        stepper.advance()  # retried with the smaller dt
        row()
    f_eval_dealiased(other, nl)
    row()
    stepper.advance()
    f_eval_dealiased(other, nl)
    row()
    assert stepper.step_count == 3
    for k, s in enumerate(states):
        hf = higher_functionals(s, nl, g)
        assert log.cal_g[k] == hf.g and log.cal_h[k] == hf.h
        assert log.cal_f[k] == diagnostic_F(s, nl, g)


def test_float32_products_allocate_no_padded_grid(monkeypatch):
    # the float32 product's padded grids and its scaled f' are pooled work
    # arrays: at N = 128 neither building nor applying a loose Jacobian's
    # product allocates a (270, 270) float32 grid (291,600 bytes) afresh.
    # tracemalloc sees numpy's buffers.  test_hot_paths_reuse_work_arrays
    # counts the minor faults of whole implicit steps; this pins the float32
    # grids themselves
    grid_bytes = 4 * padded_points(128) ** 2
    peaks, dtypes = [], []

    def traced(fn):
        def wrapper(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        return wrapper

    def multiplier(grid, fprime, dtype):
        dtypes.append(dtype)
        return traced(traced(model.fprime_multiplier)(grid, fprime, dtype))

    monkeypatch.setattr(integrator, "fprime_multiplier", multiplier)
    grid = GridSpec(128, PI)
    stepper = Stepper(State(random_band_limited(grid, 8, 1.0, seed=76), ModalField.zeros(grid)),
                      DOUBLE_WELL, SourceTerm.zero(grid),
                      SchemeConfig(dt=0.1, scheme="implicit_newton"))
    for _ in range(2):  # warm-up: the pools
        stepper.advance()
    peaks.clear()
    tracemalloc.start()
    try:
        for _ in range(3):
            stepper.advance()
    finally:
        tracemalloc.stop()
    assert np.float32 in dtypes and len(peaks) > 10
    assert max(peaks) < grid_bytes


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("n,what", [(128, "step"), (64, "row"), (128, "row"),
                                    (64, "implicit_step"), (128, "implicit_step")])
def test_hot_paths_reuse_work_arrays(n, what):
    # the padded grids of a step, of a Newton matvec and of a log row live
    # in pooled work arrays, and so do MINRES's (n, n) vectors and Newton's
    # iterates and residuals; allocating them afresh makes the allocator map
    # and unmap them (or grow and trim the heap top), hundreds of minor
    # page faults per step or row
    grid = GridSpec(n, PI)
    st = State(random_band_limited(grid, 8, 1.0, seed=76), ModalField.zeros(grid))
    cfg = (SchemeConfig(dt=0.1, scheme="implicit_newton") if what == "implicit_step"
           else SchemeConfig(dt=1e-3))
    stepper = Stepper(st, DOUBLE_WELL, SourceTerm.zero(grid), cfg)
    log = TrajectoryLog()
    for _ in range(5):  # warm-up: pools, FFT plans, allocator thresholds
        stepper.advance()
        log.record(stepper, 0.0)
    before = _minor_faults()
    for _ in range(50):
        if what == "row":
            log.record(stepper, 0.0)
        else:
            stepper.advance()
    assert (_minor_faults() - before) / 50 < 10
