"""Release gates: end-to-end accuracy, physics, and performance budgets.

Each test pins one headline guarantee with explicit tolerances and a
wall-clock budget.  Configurations are deterministic (fixed seeds), so
failures here mean a real regression, not noise; the one timing-noise
sensitive quantity (the resolution-scaling ratio) is measured as a
minimum over interleaved chunks, the standard noise-rejecting estimator.
"""

import json
import math
import time

import numpy as np
import pytest

from sinech.analysis import (
    decompose_with_retries,
    find_equilibrium,
    galerkin_convergence,
    lojasiewicz_probe,
    random_pair_state,
)
from sinech.cli import main as cli_main
from sinech.integrator import (
    SchemeConfig,
    State,
    Stepper,
    energy_equality_residual,
    simulate,
)
from sinech.model import Nonlinearity, SourceTerm, check_assumptions
from sinech.spectral import GridSpec, ModalField, norm_Hs, random_band_limited

PI = math.pi
DOUBLE_WELL = Nonlinearity(1.0, 0.0, -1.0)


def test_energy_equality_second_order():
    # linear single mode: the logged energy balance closes at second
    # order in dt and is already tiny at the finest step
    budget = time.perf_counter() + 5.0
    grid = GridSpec(4, PI)
    nl0 = Nonlinearity(0.0, 0.0, 0.0)
    g0 = SourceTerm.zero(grid)
    residuals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        st = State(ModalField.single_mode(grid, 1, 1, 0.25), ModalField.zeros(grid))
        log = simulate(st, nl0, g0, SchemeConfig(dt=dt), 1.0)
        residuals.append(energy_equality_residual(log))
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 1.8
    assert residuals[-1] <= 1e-6
    assert time.perf_counter() <= budget


def test_dissipation_identity_random_sweep():
    # 20 random double-well runs: energy never increases beyond the
    # per-step tolerance and the dissipation integral accounts for the
    # full energy drop to 1e-5 relative
    budget = time.perf_counter() + 60.0
    grid = GridSpec(32, PI)
    g0 = SourceTerm.zero(grid)
    for seed in range(20):
        amplitude = 2.0 * (seed + 1) / 20.0
        st = random_pair_state(grid, 4, amplitude, seed)
        log = simulate(st, DOUBLE_WELL, g0, SchemeConfig(dt=1e-3), 1.0)
        assert np.diff(np.asarray(log.energy)).max() <= 1e-8
        drop = log.energy[0] - log.energy[-1]
        assert abs(log.dissip_cum[-1] - drop) <= 1e-5 * abs(drop)
    assert time.perf_counter() <= budget


def test_galerkin_truncation_convergence():
    # truncations 16/32/64 against a 256-mode reference: the worst gap
    # over [0, 0.25] decreases strictly, by at least 4x from 16 to 64
    budget = time.perf_counter() + 300.0
    coarse = GridSpec(16, PI)
    init = State(random_band_limited(coarse, 8, 2.0, seed=100),
                 ModalField.zeros(coarse))
    rep = galerkin_convergence(init, DOUBLE_WELL, SourceTerm.zero(coarse),
                               SchemeConfig(dt=1e-3), [16, 32, 64], 256, 0.25)
    assert rep.failed == []
    assert rep.gaps[0] > rep.gaps[1] > rep.gaps[2]
    assert rep.gaps[2] <= 0.25 * rep.gaps[0]
    assert time.perf_counter() <= budget


def test_decomposition_split_and_decay():
    # compact + decaying split at L = 10: the parts sum back to the
    # solution at roundoff level and the remainder decays exponentially
    # with a clean fit over [1, 10]
    budget = time.perf_counter() + 120.0
    grid = GridSpec(32, PI)
    g = SourceTerm(random_band_limited(grid, 4, 0.5, seed=40))
    init = random_pair_state(grid, 4, 1.0, seed=41, s=2.0)
    run = decompose_with_retries(init, DOUBLE_WELL, g, SchemeConfig(dt=2e-3),
                                 10.0, 10.0, max_doublings=3)
    assert run.doublings <= 3
    assert run.sum_error <= 1e-9
    assert run.fitted_kappa > 0.0
    assert run.fit_r2 >= 0.9
    assert run.fit_window == (1.0, 10.0)
    assert time.perf_counter() <= budget


def test_long_run_single_equilibrium():
    # f = u^3 - 3u for 200 time units at N = 64: the orbit settles onto
    # one (nontrivial) equilibrium; the Newton-polished stationary state
    # is within 1e-4 in the V norm and satisfies its equation to 1e-10.
    # Independently, a backward-Euler relaxation at dt = 0.5 stopped at
    # t = 10, short of rest (||u_t||_V' ~ 3e-4), polishes in Newton
    # iterations with inexact inner solves onto the same u*: within 1e-9 in
    # the V norm (measured 4e-12; both meet the residual 1e-10, and the
    # stability indicator ~1.86 keeps the equilibrium isolated)
    budget = time.perf_counter() + 180.0
    grid = GridSpec(64, PI)
    stiff = Nonlinearity(1.0, 0.0, -3.0)
    init = State(
        ModalField.single_mode(grid, 1, 1, 0.5)
        + random_band_limited(grid, 3, 0.1, seed=200),
        ModalField.zeros(grid),
    )
    rep = lojasiewicz_probe(init, stiff, SourceTerm.zero(grid),
                            SchemeConfig(dt=5e-3), 200.0, tol=1e-6)
    assert rep.tol_reached
    assert rep.distance_v <= 1e-4
    assert rep.equilibrium.converged
    assert rep.equilibrium.residual <= 1e-10
    assert rep.energy_gap >= -1e-10
    assert norm_Hs(rep.equilibrium.u_star, 0.5) > 1.0  # not the zero state
    other = Stepper(init, stiff, SourceTerm.zero(grid),
                    SchemeConfig(dt=0.5, scheme="implicit_newton"))
    for _ in range(20):
        other.advance()
    eq = find_equilibrium(other.state.u, stiff, SourceTerm.zero(grid))
    assert eq.converged and eq.newton_iters >= 1
    assert norm_Hs(eq.u_star - rep.equilibrium.u_star, 0.5) <= 1e-9
    assert time.perf_counter() <= budget


def test_lipschitz_rate_is_stable(tmp_path):
    # continuous dependence through the CLI wrapper: the fitted growth
    # rate moves by < 10% when the perturbation is halved, and no
    # super-exponential growth is flagged
    budget = time.perf_counter() + 60.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"n_modes": 32},
        "initial": {"u": {"preset": "random_band", "band": 4, "amplitude": 1.0}},
        "scheme": {"dt": 2e-3},
        "lipschitz": {"perturbation_scale": 1e-4, "t_end": 5.0},
    }))
    out = tmp_path / "run"
    rc = cli_main(["lipschitz", "--config", str(cfg),
                   "--output-dir", str(out), "--quiet"])
    assert rc == 0
    rep = json.loads((out / "lipschitz.json").read_text())
    assert rep["c7_stable"] is True
    assert rep["super_exponential_flag"] is False
    assert abs(rep["c7"] - rep["c7_half_scale"]) <= \
        0.1 * max(abs(rep["c7"]), abs(rep["c7_half_scale"])) + 1e-3
    assert time.perf_counter() <= budget


def test_stepping_throughput_and_scaling(record_property):
    # absolute budget: 10k steps at N = 64 in under a minute,
    # single-threaded; relative budget: the per-step cost grows by less
    # than 5x from N = 64 to N = 128 (theory ~4.6 for the padded
    # transforms).  The ratio uses minima over interleaved 20-step
    # chunks of CPU time so one noisy scheduling slice cannot fail it.
    def make_stepper(n):
        grid = GridSpec(n, PI)
        st = random_pair_state(grid, 4, 1.0, seed=7)
        stepper = Stepper(st, DOUBLE_WELL, SourceTerm.zero(grid),
                          SchemeConfig(dt=1e-3))
        for _ in range(30):  # warm-up: transform plans, buffer pool
            stepper.advance()
        return stepper

    stepper = make_stepper(64)
    t0 = time.perf_counter()
    for _ in range(10_000):
        stepper.advance()
    assert time.perf_counter() - t0 <= 60.0

    s64, s128 = make_stepper(64), make_stepper(128)
    per64 = per128 = math.inf
    for _ in range(40):
        c0 = time.process_time()
        for _ in range(20):
            s64.advance()
        per64 = min(per64, (time.process_time() - c0) / 20)
        c0 = time.process_time()
        for _ in range(20):
            s128.advance()
        per128 = min(per128, (time.process_time() - c0) / 20)
    record_property("per64_s", per64)
    record_property("per128_s", per128)
    record_property("per128_over_per64", per128 / per64)
    assert per128 / per64 < 5.0


def test_invariant_suite_and_stated_bounds(tmp_path):
    # the full `check` battery passes at N = 32/64/128, and the derived
    # constants for the double well are the advertised ones
    budget = time.perf_counter() + 30.0
    out = tmp_path / "out"
    rc = cli_main(["check", "--output-dir", str(out), "--quiet"])
    assert rc == 0
    rep = json.loads((out / "check_report.json").read_text())
    assert rep["all_pass"] is True
    assert {r["n_modes"] for r in rep["rows"]} >= {32, 64, 128}

    nl = Nonlinearity(1.0, 0.0, -1.0)
    assert nl.lambda_bound == pytest.approx(1.0)
    assert nl.m_bound == pytest.approx(6.0)
    assert nl.r0 == pytest.approx(1.0)
    assert check_assumptions(nl).all_valid
    assert time.perf_counter() <= budget
