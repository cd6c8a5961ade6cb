"""Verification toolkit: convergence, decomposition, equilibria, probes."""

import json
import math
import warnings

import numpy as np
import pytest
from oracles import pde_residual

from sinech import analysis, integrator, model
from sinech.analysis import (
    _stability_indicator,
    absorbing_probe,
    bg_ratio,
    decompose_with_retries,
    decomposition_run,
    find_equilibrium,
    galerkin_convergence,
    lipschitz_dependence,
    lojasiewicz_probe,
    random_pair_state,
    _log_linear_fit,
    _super_exponential,
)
from sinech.cli import main
from sinech.errors import DimensionMismatchError, InstabilityError, StepFailureError
from sinech.integrator import SchemeConfig, State, newton_operator
from sinech.model import Nonlinearity, SourceTerm, f_eval_dealiased, fprime_sample
from sinech.spectral import (
    GridSpec,
    ModalField,
    eigenvalues,
    nodal_values,
    norm_Hs,
    norm_pair,
    padded_points,
    random_band_limited,
)

PI = math.pi
LINEAR = Nonlinearity(0.0, 0.0, 0.0)
DOUBLE_WELL = Nonlinearity(1.0, 0.0, -1.0)
STIFF_WELL = Nonlinearity(1.0, 0.0, -3.0)  # zero state unstable: lam_min < 3


# ---------------------------------------------------------------------------
# random states and the fit helper
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.0, 2.0])
def test_random_pair_state_normalization(s):
    grid = GridSpec(16, PI)
    for seed in range(6):
        st = random_pair_state(grid, 4, 1.7, seed, s=s)
        assert norm_pair(st.u, st.v, s) == pytest.approx(1.7, rel=1e-12)
        # band limitation
        assert not np.any(st.u.coeff[4:, :]) and not np.any(st.u.coeff[:, 4:])


def test_random_pair_state_deterministic():
    grid = GridSpec(8, PI)
    a = random_pair_state(grid, 3, 1.0, 42)
    b = random_pair_state(grid, 3, 1.0, 42)
    c = random_pair_state(grid, 3, 1.0, 43)
    assert np.array_equal(a.u.coeff, b.u.coeff)
    assert np.array_equal(a.v.coeff, b.v.coeff)
    assert not np.array_equal(a.u.coeff, c.u.coeff)
    with pytest.raises(IndexError):
        random_pair_state(grid, 9, 1.0, 0)
    assert np.abs(random_pair_state(grid, 3, 0.0, 0).u.coeff).max() == 0.0


def _strict_json(path):
    """The JSON document at path, refusing NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_log_linear_fit_recovers_exponential():
    t = np.linspace(0.0, 5.0, 60)
    slope, intercept, r2 = _log_linear_fit(t, 3.0 * np.exp(-2.0 * t))
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_log_linear_fit_without_scalable_times_is_no_fit(tmp_path):
    # polyfit scales t by its 2-norm, and the squares of 0 and 5e-324 underflow:
    # no fit, and no RankWarning (sinech lipschitz over a horizon of 5e-324
    # once printed two, then exited 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n_modes": 1}, "scheme": {"dt": 1e308},
                               "lipschitz": {"t_end": 5e-324}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _log_linear_fit(np.array([0.0, 5e-324]), np.array([1.0, 2.0])) == (0.0, 0.0, 0.0)
        assert main(["lipschitz", "--config", str(cfg), "--output-dir", str(tmp_path / "o"),
                     "--quiet"]) == 0


@pytest.mark.parametrize("rho, flagged", [(lambda t: np.exp(t * t), True),
                                          (lambda t: 1e-3 * np.exp(0.5 * t), False)],
                         ids=["exp-t-squared", "exponential"])
def test_super_exponential_flag(rho, flagged):
    # the late-window rate c7 of lipschitz_dependence against the rate over
    # the second quarter: exp(t^2) on [0, 4] grows at about 6 late and 3
    # early, an exponential at 0.5 in both
    t = np.linspace(0.0, 4.0, 201)
    r = rho(t)
    late = t >= 2.0
    c7 = _log_linear_fit(t[late], r[late])[0]
    assert _super_exponential(t, r, c7) is flagged


# ---------------------------------------------------------------------------
# Galerkin truncation convergence
# ---------------------------------------------------------------------------

def test_galerkin_linear_truncations_exact():
    # linear f leaves the modes uncoupled, so every truncation that
    # contains the data band reproduces the reference to roundoff
    grid = GridSpec(8, PI)
    init = State(random_band_limited(grid, 8, 1.0, seed=30),
                 random_band_limited(grid, 8, 0.5, seed=31))
    g = SourceTerm(random_band_limited(grid, 8, 0.3, seed=32))
    rep = galerkin_convergence(init, Nonlinearity(0.0, 0.0, 0.5), g,
                               SchemeConfig(dt=1e-3), [8, 16], 32, 0.25)
    assert rep.failed == []
    assert all(gap <= 1e-10 for gap in rep.gaps)


def test_galerkin_nonlinear_gap_decreases():
    grid = GridSpec(8, PI)
    init = State(random_band_limited(grid, 4, 2.0, seed=33),
                 random_band_limited(grid, 4, 1.0, seed=34))
    rep = galerkin_convergence(init, DOUBLE_WELL, SourceTerm.zero(grid),
                               SchemeConfig(dt=1e-3), [8, 16], 64, 0.1)
    assert rep.failed == []
    assert rep.gaps[1] < rep.gaps[0]
    assert rep.fitted_exponent > 0.0
    assert rep.resolutions == [8, 16] and rep.n_ref == 64


def test_galerkin_unstable_resolution_is_reported_and_skipped(monkeypatch, tmp_path):
    # a resolution whose run goes unstable gets an infinite gap and is
    # listed as failed; the fit uses the survivors, and `sinech converge`
    # exits 1
    grid = GridSpec(4, PI)
    init = State(random_band_limited(grid, 4, 2.0, seed=33), ModalField.zeros(grid))
    args = (init, DOUBLE_WELL, SourceTerm.zero(grid), SchemeConfig(dt=1e-3), [4, 8, 16], 32,
            0.05)
    clean = galerkin_convergence(*args)
    real_run = analysis.run

    def run_unstable_at_8(stepper, *rest):
        if stepper.state.grid.n_modes == 8:
            raise InstabilityError("forced")
        return real_run(stepper, *rest)

    monkeypatch.setattr(analysis, "run", run_unstable_at_8)
    rep = galerkin_convergence(*args)
    assert rep.failed == [8]
    assert rep.gaps == [clean.gaps[0], math.inf, clean.gaps[2]]
    lam4, lam16 = (eigenvalues(GridSpec(n, PI)).max() for n in (4, 16))
    slope = math.log(rep.gaps[2] / rep.gaps[0]) / math.log(lam16 / lam4)
    assert rep.fitted_exponent == pytest.approx(-slope, rel=1e-12)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n_modes": 4}, "converge": {
        "resolutions": [4, 8, 16], "n_ref": 32, "t_star": 0.05, "band": 4}}))
    assert main(["converge", "--config", str(cfg), "--output-dir", str(tmp_path / "o"),
                 "--quiet"]) == 1
    # the report is strict JSON: the failed resolution's gap is null, not Infinity
    report = _strict_json(tmp_path / "o" / "convergence.json")
    assert report["failed"] == [8] and report["gaps"][1] is None


def test_galerkin_convergence_keeps_a_bounded_number_of_states(monkeypatch):
    # every run samples through _samples with 25 rows: over 600 steps it
    # keeps at most 2 * 25 + 1 states, not one a step
    grid = GridSpec(4, PI)
    init = State(random_band_limited(grid, 4, 1.0, seed=33), ModalField.zeros(grid))
    real_run = analysis.run
    kept = []

    def counting_run(stepper, t_end, sample_every, observe):
        calls = []
        real_run(stepper, t_end, sample_every,
                 lambda s, dissip: (calls.append(s.step_count), observe(s, dissip)))
        kept.append(calls)

    monkeypatch.setattr(analysis, "run", counting_run)
    galerkin_convergence(init, DOUBLE_WELL, SourceTerm.zero(grid), SchemeConfig(dt=1e-3),
                         [4, 8], 16, 0.6)
    assert len(kept) == 3  # the reference and two truncations
    assert all(calls[-1] == 600 and len(calls) <= 2 * 25 + 1 for calls in kept)


def test_galerkin_validations():
    grid = GridSpec(8, PI)
    init = State(random_band_limited(grid, 4, 1.0, seed=1),
                 ModalField.zeros(grid))
    g = SourceTerm.zero(grid)
    cfg = SchemeConfig(dt=1e-3)
    with pytest.raises(ValueError):
        galerkin_convergence(init, DOUBLE_WELL, g, cfg, [16, 16], 64, 0.1)
    with pytest.raises(ValueError):
        galerkin_convergence(init, DOUBLE_WELL, g, cfg, [8, 16], 24, 0.1)
    wide = State(random_band_limited(grid, 8, 1.0, seed=2), ModalField.zeros(grid))
    with pytest.raises(ValueError):
        galerkin_convergence(wide, DOUBLE_WELL, g, cfg, [4, 8], 32, 0.1)


# ---------------------------------------------------------------------------
# compact/decaying decomposition
# ---------------------------------------------------------------------------

def test_decomposition_zero_data_linear():
    # zero initial data and linear f: the decaying part has nothing to
    # carry, so W stays identically zero and u == v to roundoff
    grid = GridSpec(16, PI)
    init = State(ModalField.zeros(grid), ModalField.zeros(grid))
    g = SourceTerm(random_band_limited(grid, 4, 0.5, seed=40))
    run = decomposition_run(init, LINEAR, g, SchemeConfig(dt=2e-3), 10.0, 2.0)
    assert max(run.w_norm_trace) == 0.0
    assert run.sum_error <= 1e-12


def test_decomposition_sum_identity_and_decay():
    grid = GridSpec(16, PI)
    g = SourceTerm(random_band_limited(grid, 4, 0.5, seed=40))
    init = random_pair_state(grid, 4, 1.0, seed=41, s=2.0)
    run = decomposition_run(init, DOUBLE_WELL, g, SchemeConfig(dt=2e-3), 10.0, 6.0)
    assert run.sum_error <= 1e-9
    assert run.fitted_kappa > 0.0
    assert run.fit_r2 >= 0.9
    # W(t) trace actually decays over the window
    assert run.w_norm_trace[-1] < 0.1 * run.w_norm_trace[0]
    assert run.times[0] == 0.0 and run.times[-1] == pytest.approx(6.0, abs=1e-12)


def test_decomposition_validations():
    grid = GridSpec(8, PI)
    init = random_pair_state(grid, 2, 1.0, seed=0)
    g = SourceTerm.zero(grid)
    with pytest.raises(ValueError):
        decomposition_run(init, DOUBLE_WELL, g, SchemeConfig(dt=1e-3), 0.0, 1.0)
    with pytest.raises(ValueError):
        decomposition_run(
            init, DOUBLE_WELL, g,
            SchemeConfig(dt=1e-3, scheme="implicit_newton"), 10.0, 1.0,
        )
    with pytest.raises(ValueError):  # a horizon behind the start
        decomposition_run(init, DOUBLE_WELL, g, SchemeConfig(dt=1e-3), 10.0, -1.0)


def test_decomposition_nan_raises_on_first_step():
    # every step is checked, not only the sampled ones
    grid = GridSpec(8, PI)
    init = random_pair_state(grid, 2, 1.0, seed=0)
    init.v.coeff[1, 0] = np.nan
    with pytest.raises(InstabilityError) as exc:
        decomposition_run(init, DOUBLE_WELL, SourceTerm.zero(grid),
                          SchemeConfig(dt=1e-3), 10.0, 1.0)
    assert exc.value.time == 1e-3
    assert exc.value.step == 1


def _no_solve(*args, **kwargs):
    raise AssertionError("no step or solve may run")


def test_decomposition_refuses_a_source_on_another_grid(monkeypatch):
    # refused when u's stepper is built, before any step
    grid = GridSpec(8, PI)
    init = random_pair_state(grid, 2, 1.0, seed=0)
    g = SourceTerm(random_band_limited(GridSpec(16, PI), 2, 0.5, seed=1))
    monkeypatch.setattr(integrator.CrankNicolson, "_advance", _no_solve)
    with pytest.raises(DimensionMismatchError):
        decomposition_run(init, DOUBLE_WELL, g, SchemeConfig(dt=1e-3), 10.0, 1.0)


# ---------------------------------------------------------------------------
# horizons shared by the drivers
# ---------------------------------------------------------------------------

def test_drivers_snap_to_an_uneven_horizon():
    # dt = 1e-3 does not divide 0.0105: the drivers take round(10.5) = 10
    # steps of 1.05e-3 and end on t_end, as simulate does
    grid = GridSpec(8, PI)
    init = random_pair_state(grid, 2, 1.0, seed=0)
    g, cfg = SourceTerm.zero(grid), SchemeConfig(dt=1e-3)
    lip = lipschitz_dependence(init, 1e-3, DOUBLE_WELL, g, cfg, 0.0105)
    dec = decomposition_run(init, DOUBLE_WELL, g, cfg, 10.0, 0.0105)
    for times in (lip.times, dec.times):
        assert len(times) == 11
        assert times[-1] == pytest.approx(0.0105, abs=1e-15)


def test_drivers_take_no_step_to_a_zero_horizon():
    # t_end = 0 (which the CLI accepts for lipschitz and decompose) is a
    # single sample at t = 0, as in simulate
    grid = GridSpec(8, PI)
    init = random_pair_state(grid, 2, 1.0, seed=0)
    g, cfg = SourceTerm.zero(grid), SchemeConfig(dt=1e-3)
    lip = lipschitz_dependence(init, 1e-3, DOUBLE_WELL, g, cfg, 0.0)
    dec = decomposition_run(init, DOUBLE_WELL, g, cfg, 10.0, 0.0)
    assert lip.times == dec.times == [0.0]
    assert lip.rho == [1.0] and dec.sum_error == 0.0


def test_nan_never_reaches_a_verdict():
    # the lipschitz and absorb verdicts compare floats; a NaN in the data
    # or the source raises on the first step instead
    grid = GridSpec(8, PI)
    init = random_pair_state(grid, 2, 1.0, seed=0)
    init.u.coeff[1, 1] = np.nan
    cfg = SchemeConfig(dt=1e-3)
    with pytest.raises(InstabilityError) as exc:
        lipschitz_dependence(init, 1e-3, DOUBLE_WELL, SourceTerm.zero(grid), cfg, 1.0)
    assert exc.value.time == 1e-3
    source = random_band_limited(grid, 2, 0.5, seed=1)
    source.coeff[0, 1] = np.nan
    with pytest.raises(InstabilityError) as exc:
        absorbing_probe([1.0], 1, DOUBLE_WELL, SourceTerm(source), cfg, 1.0)
    assert exc.value.time == 1e-3


def test_decompose_with_retries_passthrough():
    grid = GridSpec(16, PI)
    g = SourceTerm(random_band_limited(grid, 4, 0.5, seed=40))
    init = random_pair_state(grid, 4, 1.0, seed=41, s=2.0)
    res = decompose_with_retries(init, DOUBLE_WELL, g, SchemeConfig(dt=2e-3),
                                 10.0, 3.0, max_doublings=3)
    assert res.doublings <= 3
    assert res.big_l == pytest.approx(10.0 * 2.0**res.doublings)
    # the damping makes even this L succeed on the first try
    assert res.doublings == 0 and res.fitted_kappa > 0.0


# ---------------------------------------------------------------------------
# Lipschitz continuous dependence
# ---------------------------------------------------------------------------

def test_lipschitz_linear_contraction():
    # f = 0, g = 0: the gap dynamics is the damped linear flow, and the
    # scheme inherits its contractivity, so rho never exceeds 1
    grid = GridSpec(8, PI)
    init = State(ModalField.zeros(grid), ModalField.zeros(grid))
    rep = lipschitz_dependence(init, 1e-2, LINEAR, SourceTerm.zero(grid),
                               SchemeConfig(dt=2e-3), 2.0, seed=7)
    assert rep.rho[0] == 1.0
    assert rep.max_rho <= 1.0 + 1e-10
    assert rep.c7 < 0.0


def test_lipschitz_scale_robustness():
    # halving the perturbation leaves the normalized growth curve and
    # the fitted rate essentially unchanged (first-order regime)
    grid = GridSpec(16, PI)
    g = SourceTerm(random_band_limited(grid, 4, 0.5, seed=40))
    base = random_pair_state(grid, 4, 1.0, seed=50)
    cfg = SchemeConfig(dt=2e-3)
    ra = lipschitz_dependence(base.copy(), 1e-3, DOUBLE_WELL, g, cfg, 2.0, seed=8)
    rb = lipschitz_dependence(base.copy(), 5e-4, DOUBLE_WELL, g, cfg, 2.0, seed=8)
    curves = np.abs(np.asarray(ra.rho) - np.asarray(rb.rho))
    assert curves.max() <= 1e-2 * max(ra.max_rho, 1.0)
    assert abs(ra.c7 - rb.c7) <= 0.1 * max(abs(ra.c7), abs(rb.c7))
    # the half-scale rate of one call is the rate of a call at half the scale
    assert ra.c7_half_scale == rb.c7 and ra.c7_stable
    with pytest.raises(ValueError):
        lipschitz_dependence(base, 0.0, DOUBLE_WELL, g, cfg, 1.0)
    with pytest.raises(ValueError):  # a horizon behind the start
        lipschitz_dependence(base, 1e-3, DOUBLE_WELL, g, cfg, -1.0)


# ---------------------------------------------------------------------------
# sup-norm interpolation ratio
# ---------------------------------------------------------------------------

def test_bg_ratio_single_mode():
    # closed form for e_11 at side pi: sup = 2/pi, ||.||_V = sqrt(2),
    # ||.||_DA = 2; the nearest of the 64 cell centres lies pi/128 off the
    # middle on each axis, so sampling undershoots the sup by cos^2(pi/128)
    # (6.0e-4)
    z = ModalField.single_mode(GridSpec(16, PI), 1, 1, 1.0)
    closed = (2.0 / PI) / (math.sqrt(2.0) * (1.0 + math.sqrt(math.log1p(math.sqrt(2.0)))))
    assert bg_ratio(z) == pytest.approx(0.232042275, abs=1e-8)
    assert bg_ratio(z) == pytest.approx(closed, rel=1e-3)


def test_bg_ratio_scale_invariant():
    grid = GridSpec(16, PI)
    z = random_band_limited(grid, 8, 1.0, seed=5)
    assert bg_ratio(z * 37.0) == pytest.approx(bg_ratio(z), rel=1e-10)
    assert bg_ratio(z * 1e-6) == pytest.approx(bg_ratio(z), rel=1e-8)


def _bg_scan_max(grid, n_samples, seed):
    # the largest bg_ratio over random band-limited fields at assorted
    # bands plus the adversarial flat-spectrum field coeff = 1/lambda
    # (the log-saturating profile)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_samples):
        band = int(rng.integers(1, grid.n_modes + 1))
        ratios.append(bg_ratio(random_band_limited(grid, band, 1.0, int(rng.integers(0, 2**31)))))
    ratios.append(bg_ratio(ModalField(grid, 1.0 / np.asarray(eigenvalues(grid)))))
    return max(ratios)


def test_bg_scan_bounded_in_resolution():
    # the interpolation bound predicts a ratio that does not grow as the
    # spectrum widens; doubling the resolution must not inflate the scan
    s32 = _bg_scan_max(GridSpec(32, PI), 20, seed=3)
    s64 = _bg_scan_max(GridSpec(64, PI), 20, seed=3)
    assert 0.0 < s32 <= 0.5
    assert s64 <= 1.1 * s32


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_trivial_equilibrium():
    grid = GridSpec(8, PI)
    res = find_equilibrium(ModalField.zeros(grid), DOUBLE_WELL,
                           SourceTerm.zero(grid))
    assert res.converged
    assert res.residual == 0.0
    assert res.newton_iters == 0
    assert res.energy_at == 0.0
    # smallest eigenvalue of A + f'(0) = lam_min + a1 = 2 - 1
    assert res.stability_indicator == pytest.approx(1.0, abs=1e-9)


def test_nontrivial_equilibrium_and_sign_symmetry():
    # f = u^3 - 3u at side pi: lam_min = 2 < 3, so a nonzero branch
    # exists (amplitude ~ 2.09 on the ground mode); f odd => Newton is
    # sign-equivariant and the mirrored seed lands on the mirror image
    grid = GridSpec(16, PI)
    g = SourceTerm.zero(grid)
    plus = find_equilibrium(ModalField.single_mode(grid, 1, 1, 2.0), STIFF_WELL, g)
    minus = find_equilibrium(ModalField.single_mode(grid, 1, 1, -2.0), STIFF_WELL, g)
    assert plus.converged and minus.converged
    assert plus.residual <= 1e-10
    assert norm_Hs(plus.u_star, 0.5) > 1.0  # genuinely nonzero branch
    assert np.array_equal(plus.u_star.coeff, -minus.u_star.coeff)
    assert plus.stability_indicator > 0.0  # the wells are stable
    assert plus.energy_at < 0.0  # below the unstable zero state
    # converged result satisfies the stationary equation in V' as well
    zero = ModalField.zeros(grid)
    st = State(plus.u_star, zero)
    assert pde_residual(st, zero, STIFF_WELL, g) <= 10.0 * 1e-10


def _jacobian_at(u, nl):
    # the shared Newton operator d + P_N f'(u) with find_equilibrium's d = A
    lam = np.asarray(eigenvalues(u.grid))
    fprime = fprime_sample(nodal_values(u, padded_points(u.grid.n_modes)), nl)
    return newton_operator(u.grid, lam, fprime), lam


def _dense(op, lam):
    # the matrix of op on raveled (n, n) coefficient arrays, column by column
    return np.column_stack([op(e.reshape(lam.shape)).ravel() for e in np.eye(lam.size)])


def test_stability_indicator_repeats_bitwise():
    grid = GridSpec(16, PI)
    g = SourceTerm.zero(grid)
    seed_field = ModalField.single_mode(grid, 1, 1, 2.0)
    a = find_equilibrium(seed_field, STIFF_WELL, g)
    b = find_equilibrium(seed_field, STIFF_WELL, g)
    assert a.stability_indicator == b.stability_indicator


def test_equilibrium_samples_fprime_once_per_jacobian(monkeypatch):
    # f'(u) is sampled once per Newton iteration, for its MINRES operator
    # and preconditioner, and once at u* for the stability operator
    samples = []

    def counted(values, nl):
        samples.append(nl)
        return model.fprime_sample(values, nl)

    monkeypatch.setattr(integrator, "fprime_sample", counted)
    monkeypatch.setattr(analysis, "fprime_sample", counted)
    grid = GridSpec(16, PI)
    res = find_equilibrium(ModalField.single_mode(grid, 1, 1, 2.0), STIFF_WELL,
                           SourceTerm.zero(grid))
    assert res.converged and res.newton_iters >= 2
    assert len(samples) == res.newton_iters + 1


def test_stability_indicator_matches_dense_full_operator():
    # the smallest eigenvalue over the whole N x N space, not over a
    # low-mode restriction (which misses this one by ~3e-6)
    grid = GridSpec(24, PI)
    u = random_band_limited(grid, 8, 6.0, seed=2)
    op, lam = _jacobian_at(u, STIFF_WELL)
    dense = _dense(op, lam)
    assert np.abs(dense - dense.T).max() <= 1e-12
    smallest = float(np.linalg.eigvalsh(dense)[0])
    assert _stability_indicator(op, lam) == pytest.approx(smallest, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_stability_indicator_tiny_grids_exact(n):
    # A + f'(0) = A - 3: the smallest eigenvalue is lam_11 - 3 = -1
    grid = GridSpec(n, PI)
    op, lam = _jacobian_at(ModalField.zeros(grid), STIFF_WELL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _stability_indicator(op, lam)
    assert value == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_equilibrium_indicator_on_tiny_grids_is_the_dense_eigenvalue(n):
    # on 1 and 4 unknowns find_equilibrium's indicator, by lobpcg, is the
    # dense eigenvalue: at a nonzero well of u^3 - 3u (|u*| ~ 2.09 on mode
    # (1,1), where f'(u*) lifts A - 3 to about 2) it is the smallest
    # eigenvalue of the assembled Newton operator there
    grid = GridSpec(n, PI)
    res = find_equilibrium(ModalField.single_mode(grid, 1, 1, 1.0), STIFF_WELL,
                           SourceTerm.zero(grid))
    assert res.converged
    op, lam = _jacobian_at(res.u_star, STIFF_WELL)
    smallest = float(np.linalg.eigvalsh(_dense(op, lam))[0])
    assert smallest == pytest.approx(2.0, rel=1e-9)
    assert res.stability_indicator == pytest.approx(smallest, rel=1e-12)


def test_stability_indicator_nonconvergence_raises(monkeypatch):
    grid = GridSpec(24, PI)
    op, lam = _jacobian_at(random_band_limited(grid, 8, 6.0, seed=2), STIFF_WELL)
    monkeypatch.setattr(analysis, "_STABILITY_MAXITER", 2)
    with pytest.raises(StepFailureError) as exc:
        _stability_indicator(op, lam)
    assert exc.value.residual_history[-1] > 1e-12


def test_equilibrium_nonconvergence_is_reported():
    grid = GridSpec(8, PI)
    seed_field = random_band_limited(grid, 4, 2.0, seed=9)
    res = find_equilibrium(seed_field, DOUBLE_WELL, SourceTerm.zero(grid),
                           tol=1e-15, max_iter=1)
    assert not res.converged
    assert res.newton_iters <= 1
    assert len(res.residual_history) >= 1
    with pytest.raises(ValueError):
        find_equilibrium(seed_field, DOUBLE_WELL, SourceTerm.zero(grid), tol=0.0)


@pytest.mark.parametrize("failure", ["max_iter", "inner", "line_search"])
def test_equilibrium_returns_its_best_iterate(failure, monkeypatch):
    # each way Newton stops short returns the last accepted iterate, its
    # residual and history, with converged=False
    grid = GridSpec(8, PI)
    g = SourceTerm.zero(grid)
    seed_field = random_band_limited(grid, 4, 2.0, seed=9)
    solve = analysis.minres
    if failure == "inner":
        monkeypatch.setattr(analysis, "minres", lambda op, b, **kw: (np.zeros_like(b), 5))
    elif failure == "line_search":
        def uphill(*args, **kwargs):
            x, info = solve(*args, **kwargs)
            return -x, info
        monkeypatch.setattr(analysis, "minres", uphill)
    res = find_equilibrium(seed_field, STIFF_WELL, g, max_iter=1)
    assert not res.converged
    assert res.newton_iters == len(res.residual_history) - 1 == (failure == "max_iter")
    assert res.residual == res.residual_history[-1] > 1e-10
    lam = np.asarray(eigenvalues(grid))
    r = lam * res.u_star.coeff + f_eval_dealiased(res.u_star, STIFF_WELL).coeff
    assert float(np.linalg.norm(r)) == pytest.approx(res.residual, rel=1e-12)
    if failure != "max_iter":
        assert np.array_equal(res.u_star.coeff, seed_field.coeff)


def test_stalled_eigensolve_is_nan_only_when_newton_stopped_short(monkeypatch):
    # a stall at an iterate short of u* is part of that finding: the
    # indicator is NaN; a converged u* whose eigensolve stalls still raises
    grid = GridSpec(8, PI)
    g = SourceTerm.zero(grid)
    monkeypatch.setattr(analysis, "lobpcg", lambda *args, **kwargs: (1.0, 1.0))
    short = find_equilibrium(random_band_limited(grid, 4, 2.0, seed=9), STIFF_WELL, g,
                             max_iter=0)
    assert not short.converged and math.isnan(short.stability_indicator)
    with pytest.raises(StepFailureError, match="stalled"):
        find_equilibrium(ModalField.zeros(grid), STIFF_WELL, g)


def test_equilibrium_report_survives_a_stalled_eigensolve(tmp_path):
    # at amp 1e20 Newton stops short and the eigensolve at its iterate
    # stalls: the run once failed without a report; now it writes both
    # files, with the indicator null in strict JSON, and exits 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n_modes": 4},
                               "initial": {"u": {"preset": "single_mode", "amp": 1e20}}}))
    out = tmp_path / "o"
    assert main(["equilibrium", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 1
    report = _strict_json(out / "equilibrium.json")
    assert report["converged"] is False and report["stability_indicator"] is None
    assert (out / "u_star.mfld").is_file()


def test_equilibrium_refuses_a_non_finite_seed(monkeypatch):
    # raised before any inner solve or eigensolve, not as a stalled
    # eigensolve after a failed line search
    grid = GridSpec(8, PI)
    seed_field = random_band_limited(grid, 4, 2.0, seed=9)
    seed_field.coeff[1, 2] = np.nan
    monkeypatch.setattr(analysis, "minres", _no_solve)
    monkeypatch.setattr(analysis, "lobpcg", _no_solve)
    with pytest.raises(InstabilityError, match="non-finite seed"):
        find_equilibrium(seed_field, STIFF_WELL, SourceTerm.zero(grid))


def test_equilibrium_refuses_a_source_on_another_grid(monkeypatch):
    # refused before any inner solve, not in energy after a whole Newton solve
    grid = GridSpec(8, PI)
    seed_field = random_band_limited(grid, 4, 2.0, seed=9)
    g = SourceTerm(random_band_limited(GridSpec(16, PI), 4, 0.5, seed=1))
    monkeypatch.setattr(analysis, "minres", _no_solve)
    monkeypatch.setattr(analysis, "lobpcg", _no_solve)
    with pytest.raises(DimensionMismatchError):
        find_equilibrium(seed_field, STIFF_WELL, g)
    with pytest.raises(DimensionMismatchError):
        lojasiewicz_probe(State(seed_field, ModalField.zeros(grid)), STIFF_WELL, g,
                          SchemeConfig(dt=1e-3), 1.0)


# ---------------------------------------------------------------------------
# long-time probes
# ---------------------------------------------------------------------------

def test_lojasiewicz_probe_converges_to_equilibrium():
    grid = GridSpec(16, PI)
    g = SourceTerm.zero(grid)
    init = State(
        ModalField.single_mode(grid, 1, 1, 0.5)
        + random_band_limited(grid, 3, 0.1, seed=60),
        ModalField.zeros(grid),
    )
    rep = lojasiewicz_probe(init, STIFF_WELL, g, SchemeConfig(dt=5e-3), 30.0,
                            tol=1e-6)
    assert rep.tol_reached
    assert not rep.started_at_rest
    assert rep.ut_final <= 1e-6
    assert rep.distance_v <= 2e-6
    assert rep.energy_gap == pytest.approx(0.0, abs=1e-10)
    assert rep.equilibrium.converged
    assert rep.equilibrium.residual <= 1e-10
    # it found the nontrivial well, not the unstable zero state
    assert norm_Hs(rep.equilibrium.u_star, 0.5) > 1.0
    assert rep.equilibrium.stability_indicator > 0.0
    assert len(rep.times) == len(rep.ut_trace) >= 3
    # a tighter tolerance at the same horizon is honestly reported missed
    rep2 = lojasiewicz_probe(init.copy(), STIFF_WELL, g, SchemeConfig(dt=5e-3),
                             30.0, tol=1e-12)
    assert not rep2.tol_reached


def test_lojasiewicz_probe_reports_a_start_at_rest():
    # u = u_t = 0 solves the stationary equation of the double well with
    # g = 0; a stationary u with u_t != 0, or u_t = 0 with a u that misses
    # the equilibrium tolerance, is not a start at rest
    grid = GridSpec(8, PI)
    g = SourceTerm.zero(grid)
    zero = ModalField.zeros(grid)
    cfg = SchemeConfig(dt=5e-3)
    rest = lojasiewicz_probe(State(zero, zero), DOUBLE_WELL, g, cfg, 0.1)
    assert rest.started_at_rest
    assert rest.ut_final == 0.0 and rest.equilibrium.newton_iters == 0
    # a start at rest is not run: one sample at t = 0, no step
    assert rest.steps == 0 and rest.times == [0.0] and rest.ut_trace == [0.0]
    moving = State(zero, ModalField.single_mode(grid, 1, 1, 1e-3))
    off = State(ModalField.single_mode(grid, 1, 1, 1e-6), zero)
    for start in (moving, off):
        rep = lojasiewicz_probe(start, DOUBLE_WELL, g, cfg, 0.1)
        assert not rep.started_at_rest
        assert rep.steps == 20 and rep.times[-1] == pytest.approx(0.1)


def test_absorbing_probe_collapse_passes():
    # g = 0 double well: every orbit falls into the stable zero state,
    # so the tails drop under the floor and radii cannot matter
    grid = GridSpec(8, PI)
    rep = absorbing_probe([0.5, 1.0], 2, DOUBLE_WELL, SourceTerm.zero(grid),
                          SchemeConfig(dt=5e-3), 40.0, seed=1)
    assert rep.status == "pass" and rep.below_floor
    assert all(s <= rep.floor for s in rep.tail_sup0)


def test_absorbing_probe_transient_is_inconclusive():
    grid = GridSpec(8, PI)
    rep = absorbing_probe([1.0, 2.0], 2, DOUBLE_WELL, SourceTerm.zero(grid),
                          SchemeConfig(dt=5e-3), 4.0, seed=1)
    assert rep.status == "inconclusive" and not rep.below_floor
    # a single step leaves no sample in [t_end/2, 3 t_end/4): no decay is read there
    rep = absorbing_probe([1.0, 2.0], 1, DOUBLE_WELL, SourceTerm.zero(grid),
                          SchemeConfig(dt=5e-3), 5e-3, seed=1)
    assert rep.status == "fail"
    with pytest.raises(ValueError):
        absorbing_probe([], 2, DOUBLE_WELL, SourceTerm.zero(grid),
                        SchemeConfig(dt=5e-3), 1.0)
    with pytest.raises(ValueError):
        absorbing_probe([1.0, -1.0], 2, DOUBLE_WELL, SourceTerm.zero(grid),
                        SchemeConfig(dt=5e-3), 1.0)


def test_orthonormal_to_drops_a_vector_in_the_span():
    # a new direction in the span of the basis collapses under
    # Gram-Schmidt: it is dropped, not normalised from roundoff
    rng = np.random.default_rng(5)
    u = rng.standard_normal((4, 4))
    u /= math.sqrt(float(np.sum(u * u)))
    basis = [(u, 2.0 * u)]
    v = 3.0 * u
    assert analysis._orthonormal_to(v, 2.0 * v, basis) is False
    w = rng.standard_normal((4, 4))
    assert analysis._orthonormal_to(w, 2.0 * w, basis) is True
    assert abs(float(np.sum(w * u))) <= 1e-15 and float(np.sum(w * w)) == pytest.approx(1.0)


def test_report_dicts_are_json_ready():
    import json

    from sinech.cli import _report

    grid = GridSpec(8, PI)
    g = SourceTerm.zero(grid)
    init = random_pair_state(grid, 2, 0.5, seed=77)
    rep = lipschitz_dependence(init, 1e-3, DOUBLE_WELL, g,
                               SchemeConfig(dt=5e-3), 0.5)
    eq = find_equilibrium(ModalField.zeros(grid), DOUBLE_WELL, g)
    for d in (_report("lipschitz", rep), _report("equilibrium", eq)):
        assert json.loads(json.dumps(d)) == d
