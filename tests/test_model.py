"""Nonlinearity, energy, assumptions, and diagnostic functionals.

The dealiased kernels are checked against the dense 4N-grid oracles in
oracles.py; the closed-form example values carry their derivation in
comments.
"""

import math
import warnings

import numpy as np
import pytest

from oracles import (
    exact_linear_mode,
    exact_projection_of_square,
    naive_modal,
    naive_nodal,
    nodal_f_and_potential,
    oracle_diagnostic_F,
    oracle_higher_g,
    oracle_higher_h,
    oracle_pointwise_projection,
    oracle_poly_integral,
    pde_residual,
)

from sinech import model
from sinech.errors import UnsupportedNonlinearityError
from sinech.integrator import SchemeConfig, State, Stepper, simulate
from sinech.model import (
    Nonlinearity,
    SourceTerm,
    acceleration_from_state,
    check_assumptions,
    computed_lambda_bound,
    computed_r0,
    diagnostic_F,
    energy,
    f_eval_dealiased,
    fprime_multiplier,
    fprime_sample,
    higher_functionals,
    nonlinear_term_and_potential,
)
from sinech.analysis import random_pair_state
from sinech.spectral import (
    GridSpec,
    ModalField,
    eigenvalues,
    modal_from_values,
    nodal_values,
    norm_Hs,
    norm_pair,
    padded_points,
    quadrature_weight,
    random_band_limited,
    resample,
)

PI = math.pi
DOUBLE_WELL = Nonlinearity(1.0, 0.0, -1.0)


# ---------------------------------------------------------------------------
# pointwise kernels and derived bounds
# ---------------------------------------------------------------------------

def test_f_pointwise():
    nl = DOUBLE_WELL
    assert nl.f(0.0) == 0.0
    assert nl.f(2.0) == 6.0          # 8 - 2
    assert nl.f_prime(2.0) == 11.0   # 12 - 1
    assert nl.f_second(2.0) == 12.0


def test_lambda_bound_closed_form():
    assert computed_lambda_bound(1.0, 0.0, -1.0) == 1.0
    assert computed_lambda_bound(1.0, 0.0, 0.0) == 0.0
    assert computed_lambda_bound(1.0, 0.0, -3.0) == 3.0
    assert computed_lambda_bound(1.0, 1.0, 0.0) == pytest.approx(1.0 / 3.0)
    assert computed_lambda_bound(1.0, 0.0, 1.0) == 0.0  # f' >= 1 > 0
    # the bound is the sharp -min f' (sampled)
    for a3, a2, a1 in [(1.0, 0.0, -1.0), (2.0, 1.5, -0.3), (0.5, -1.0, 2.0)]:
        r = np.linspace(-50, 50, 200001)
        fp = (3 * a3 * r + 2 * a2) * r + a1
        assert computed_lambda_bound(a3, a2, a1) == pytest.approx(
            max(0.0, -fp.min()), abs=1e-6
        )


def test_r0_closed_form():
    assert computed_r0(1.0, 0.0, -1.0) == 1.0  # r^4 - r^2 >= 0 iff |r| >= 1
    assert computed_r0(1.0, 0.0, 0.0) == 0.0
    for a3, a2, a1 in [(1.0, 0.0, -1.0), (1.0, 2.0, -1.0), (0.7, -0.4, -2.0)]:
        r0 = computed_r0(a3, a2, a1)
        r = np.linspace(-100, 100, 100001)
        outside = np.abs(r) >= r0
        fr = (((a3 * r + a2) * r + a1) * r * r)[outside]
        assert fr.min() >= -1e-9


def test_nonlinearity_class_boundaries():
    with pytest.raises(UnsupportedNonlinearityError):
        Nonlinearity(-1.0, 0.0, 0.0)
    with pytest.raises(UnsupportedNonlinearityError):
        Nonlinearity(0.0, 1.0, 0.0)   # quadratic-only is outside the class
    with pytest.raises(UnsupportedNonlinearityError):
        Nonlinearity(0.0, 0.0, -1.0)  # degenerate case needs a1 >= 0
    # degenerate linear path for oracle problems
    lin = Nonlinearity(0.0, 0.0, 0.5)
    assert lin.lambda_bound == 0.0 and lin.r0 == 0.0
    assert Nonlinearity(0.0, 0.0, 0.0).is_zero


def test_check_assumptions_values():
    rep = check_assumptions(DOUBLE_WELL, GridSpec(8, PI))
    assert rep.lambda_bound == 1.0    # min f' = f'(0) = -1
    assert rep.m_bound == 6.0         # |f''| = 6|r| <= 6(1+|r|)
    assert rep.r0 == 1.0
    assert rep.all_valid
    assert rep.min_f_prime_sampled >= -rep.lambda_bound - 1e-6
    assert rep.lambda1 == pytest.approx(2.0, rel=1e-14)

    rep2 = check_assumptions(Nonlinearity(1.0, 0.0, 0.0))
    assert rep2.lambda_bound == 0.0 and rep2.r0 == 0.0 and rep2.all_valid
    assert rep2.lambda1 is None

    rep3 = check_assumptions(Nonlinearity(1.0, 0.0, -3.0), GridSpec(8, PI))
    assert rep3.lambda_bound == 3.0 and rep3.all_valid

    # overridden bounds are claims and get flagged when false
    lied = Nonlinearity(1.0, 0.0, -1.0, lambda_bound=0.0)
    assert not check_assumptions(lied).lambda_bound_valid
    with pytest.raises(UnsupportedNonlinearityError):
        check_assumptions(Nonlinearity(0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# dealiased nonlinear term vs the 4N oracle
# ---------------------------------------------------------------------------

def test_f_eval_zero():
    grid = GridSpec(8, PI)
    out = f_eval_dealiased(ModalField.zeros(grid), DOUBLE_WELL)
    assert np.abs(out.coeff).max() == 0.0


def test_f_eval_single_mode_cube():
    # pure cube of c*e_11 against the brute-force projection
    grid = GridSpec(8, PI)
    nl = Nonlinearity(1.0, 0.0, 0.0)
    u = ModalField.single_mode(grid, 1, 1, 1.3)
    fast = f_eval_dealiased(u, nl)
    slow = oracle_pointwise_projection(u, nl.f)
    assert np.abs(fast.coeff - slow).max() <= 1e-12 * np.abs(slow).max()


@pytest.mark.parametrize("nl", [DOUBLE_WELL, Nonlinearity(1.0, 0.0, 0.5),
                                Nonlinearity(2.5, 0.0, 0.0)])
def test_f_eval_matches_oracle_sweep(nl):
    # 100 random band-limited fields, mixed bands and amplitudes.  For
    # a2 = 0 the odd product f(u) is a finite sine polynomial, so the
    # padded collocation product is the exact Galerkin projection and
    # must match the dense-matrix oracle to roundoff.
    grid = GridSpec(8, PI)
    rng = np.random.default_rng(2024)
    for i in range(100):
        band = int(rng.integers(1, 9))
        amp = float(rng.uniform(0.1, 3.0))
        u = random_band_limited(grid, band, amp, seed=1000 + i)
        fast = f_eval_dealiased(u, nl)
        slow = oracle_pointwise_projection(u, nl.f)
        scale = max(float(np.abs(slow).max()), 1e-30)
        assert np.abs(fast.coeff - slow).max() <= 1e-10 * scale


def test_f_eval_larger_grid_and_odd_side():
    nl = Nonlinearity(0.8, 0.0, 0.3)
    grid = GridSpec(24, 2.5)
    u = random_band_limited(grid, 24, 2.0, seed=5)
    fast = f_eval_dealiased(u, nl)
    slow = oracle_pointwise_projection(u, nl.f)
    assert np.abs(fast.coeff - slow).max() <= 1e-10 * np.abs(slow).max()


@pytest.mark.parametrize("n", [8, 33])
def test_padded_grid_is_the_smallest_alias_free_one(n):
    # On m cell centres mode k folds onto mode 2m - k.  For full-band u,
    # f(u) = u^3 - u has band 3N and u^4 is a cosine polynomial of band 4N,
    # so P_N f(u) and the midpoint sum of u^4 are exact for m > 2N, the
    # grid padded_points(N, 2) gives, and not on m = 2N centres, where mode
    # 3N folds onto mode N and the cosine of frequency 4N = 2m sums to -m.
    grid = GridSpec(n, PI)
    u = random_band_limited(grid, n, 2.0, seed=n)
    fhat = oracle_pointwise_projection(u, DOUBLE_WELL.f)
    quartic = oracle_poly_integral(u, {4: 1.0})
    scale = np.abs(fhat).max()

    def on(m):
        vals = nodal_values(u, m)
        fh = modal_from_values(DOUBLE_WELL.f(vals), PI, n_modes=n)
        return fh, quadrature_weight(PI, m) * float(np.sum(vals**4))

    fh, q = on(padded_points(n, 2))
    assert np.abs(fh - fhat).max() <= 1e-12 * scale
    assert q == pytest.approx(quartic, rel=1e-12)
    assert np.abs(f_eval_dealiased(u, DOUBLE_WELL).coeff - fhat).max() <= 1e-12 * scale
    assert potential_integral(u, DOUBLE_WELL) == pytest.approx(
        oracle_poly_integral(u, {4: 0.25, 2: -0.5}), rel=1e-12)
    fh, q = on(2 * n)  # one point fewer per axis
    assert np.abs(fh - fhat).max() > 1e-6 * scale
    assert abs(q - quartic) > 1e-6 * quartic


def test_f_eval_even_part_bias_shrinks():
    """The quadratic term u^2 is a cosine polynomial whose sine
    expansion is infinite, so collocation dealiasing only approximates
    its projection; the bias against the true (dense cosine-algebra)
    projection must shrink roughly like the inverse square of the
    resolution for a fixed underlying function."""
    base = random_band_limited(GridSpec(4, PI), 4, 1.0, seed=55)

    def even_part_error(n):
        grid = GridSpec(n, PI)
        u = resample(base, n)
        # isolate the a2 route: f = u^2 exactly, via (1, 2, 0) - (1, 0, 0)
        with_sq = f_eval_dealiased(u, Nonlinearity(1.0, 2.0, 0.0))
        cube = f_eval_dealiased(u, Nonlinearity(1.0, 0.0, 0.0))
        approx_sq = 0.5 * (with_sq.coeff - cube.coeff)
        exact_sq = exact_projection_of_square(u)
        return float(np.abs(approx_sq - exact_sq).max())

    e8, e16, e32 = even_part_error(8), even_part_error(16), even_part_error(32)
    assert e8 > 1e-8          # the bias is real, not roundoff
    assert e16 <= e8 / 2.5    # and decays at second order, give or take
    assert e32 <= e16 / 2.5


def _fprime(u, nl):
    # f'(u) on the 2n grid, sampled as a Newton Jacobian samples it
    return fprime_sample(nodal_values(u, padded_points(u.grid.n_modes)), nl)


@pytest.mark.parametrize("nl", [DOUBLE_WELL, Nonlinearity(2.5, 0.0, 0.5)])
def test_fprime_multiplier_matches_oracle(nl):
    # for odd cubic f, f'(u) v is a sine polynomial of band 3N, so the
    # padded product is the exact projection of the dense-matrix oracle
    grid = GridSpec(8, PI)
    u = random_band_limited(grid, 8, 2.0, seed=61)
    v = random_band_limited(grid, 8, 1.0, seed=62)
    fast = fprime_multiplier(grid, _fprime(u, nl))(v.coeff)
    side, m = grid.side, 4 * grid.n_modes
    vals = nl.f_prime(naive_nodal(u.coeff, side, m)) * naive_nodal(v.coeff, side, m)
    slow = naive_modal(vals, side)[:8, :8]
    assert np.abs(fast - slow).max() <= 1e-10 * np.abs(slow).max()


@pytest.mark.parametrize("nl", [DOUBLE_WELL, Nonlinearity(1.0, 0.7, -1.0),
                                Nonlinearity(0.0, 0.0, 0.0)])
def test_fprime_sampled_with_f_is_the_multipliers_own(nl):
    # the f'(u) a Newton Jacobian samples from the 2n-grid values its
    # residual's padded transform left is bitwise f' of u's own values, and
    # f(u) does not change; the multiplier's power-of-two scalings leave its
    # product bitwise the unscaled P_n(f'(u) v), at any input scale
    grid = GridSpec(8, PI)
    u = random_band_limited(grid, 8, 2.0, seed=61)
    v = random_band_limited(grid, 8, 1.0, seed=62).coeff
    m = padded_points(grid.n_modes, 2)
    values = np.full((m, m), np.nan)
    fh, pot = nonlinear_term_and_potential(u, nl, values)
    fprime = fprime_sample(values, nl)
    assert np.array_equal(fprime, nl.f_prime(nodal_values(u, m)))
    assert np.array_equal(fh.coeff, f_eval_dealiased(u, nl).coeff)
    assert pot == nonlinear_term_and_potential(u, nl)[1]
    for f_scale in (1e-6, 1.0, 3.7, 1e6):
        apply = fprime_multiplier(grid, f_scale * fprime)
        for v_scale in (1e-6, 1.0, 3.7, 1e6):
            w = v_scale * v
            unscaled = modal_from_values(nodal_values(ModalField(grid, w), m) * (f_scale * fprime),
                                         grid.side, n_modes=grid.n_modes)
            assert np.array_equal(apply(w), unscaled)


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("nl", [DOUBLE_WELL, Nonlinearity(2.0, -0.5, 0.7),
                                Nonlinearity(0.0, 0.0, 1.5)], ids=["a2=0", "a2!=0", "a3=a2=0"])
def test_modal_a1_term_and_potential_match_the_all_nodal_evaluation(n, nl):
    # P_n f(u) = P_n(a3 u^3 + a2 u^2) + a1 u and, for a2 = 0,
    # int F(u) = 1/4 <u, P_n f(u)> + 1/4 a1 ||u||^2 hold exactly for band-n u,
    # so they match f(u) and int F(u) taken wholly on the padded grid to
    # roundoff; and energy(-U) = energy(U) stays bitwise for even potentials
    grid = GridSpec(n, PI)
    u = random_band_limited(grid, n, 1.0, seed=n)
    fhat, pot = nonlinear_term_and_potential(u, nl)
    ref_fhat, ref_pot = nodal_f_and_potential(u, nl)
    assert np.abs(fhat.coeff - ref_fhat).max() <= 1e-14 * np.abs(ref_fhat).max()
    assert np.array_equal(f_eval_dealiased(u, nl).coeff, fhat.coeff)
    assert abs(pot - ref_pot) <= 1e-14 * abs(ref_pot)
    if nl.a2 == 0.0:
        state = random_pair_state(grid, n, 1.5, seed=n + 1)
        flipped = State(-state.u, -state.v, state.time)
        g0 = SourceTerm.zero(grid)
        assert energy(flipped, nl, g0) == energy(state, nl, g0)


def test_linear_f_takes_no_transform(monkeypatch):
    # f = a1 u is band-n: P_n f(u) = a1 u and int F(u) = a1/2 ||u||^2 from
    # the coefficients alone; values stay as they were, and f' sampled from
    # them is the constant a1
    def no_transform(*args, **kwargs):
        raise AssertionError("f = a1 u must take no transform")

    monkeypatch.setattr(model, "nodal_values", no_transform)
    monkeypatch.setattr(model, "modal_from_values", no_transform)
    grid = GridSpec(8, PI)
    u = random_band_limited(grid, 8, 1.0, seed=3)
    nl = Nonlinearity(0.0, 0.0, 1.5)
    m = padded_points(grid.n_modes, 2)
    values = np.full((m, m), 7.0)
    fhat, pot = nonlinear_term_and_potential(u, nl, values)
    assert np.array_equal(fhat.coeff, 1.5 * u.coeff)
    assert pot == pytest.approx(0.75 * float(np.sum(u.coeff**2)), rel=1e-15)
    assert np.all(fprime_sample(values, nl) == 1.5) and np.all(values == 7.0)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_nonlinear_term_does_not_alias_work_arrays(n):
    # f(u) is evaluated in pooled work arrays and transformed in place; the
    # truncated result must be a fresh array even where a 1 x 1 slice of
    # the padded grid already counts as contiguous
    grid = GridSpec(n, PI)
    u = random_band_limited(grid, n, 1.0, seed=n)
    first, _ = nonlinear_term_and_potential(u, DOUBLE_WELL)
    kept = first.coeff.copy()
    second = f_eval_dealiased(2.0 * u, DOUBLE_WELL)
    assert not np.shares_memory(first.coeff, second.coeff)
    assert np.array_equal(first.coeff, kept)


def _relative_error(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_float32_product_matches_the_float64_one(n):
    # a float32 multiplier applies the product in float32 (the padded pair,
    # the pointwise product, the retained block) to within 1e-6 of the
    # float64 product, relative (1.7-1.8e-7 measured), and returns float64
    grid = GridSpec(n, PI)
    nl = Nonlinearity(1.0, 0.0, -3.0)
    u = random_band_limited(grid, 4, 3.0, seed=n)
    fprime = _fprime(u, nl)
    exact = fprime_multiplier(grid, fprime)
    loose = fprime_multiplier(grid, fprime, np.float32)
    for seed in range(3):
        v = random_band_limited(grid, n, 1.0, seed=seed).coeff
        ref = exact(v).copy()
        got = loose(v)
        assert got.dtype == np.float64
        assert 0.0 < _relative_error(got, ref) <= 1e-6


def test_float32_product_raises_no_overflow_warning():
    # f' and v are scaled by the power of two of their max-abs before the
    # cast, so inputs up to 1e45 and samples near float32's top, beyond
    # it (1e40) or below its normal range (1e-40) overflow nothing: each
    # float32 product is finite and within 1e-6 of the float64 one
    grid = GridSpec(16, PI)
    u = random_band_limited(grid, 4, 1.0, seed=1)
    v = 1e45 * random_band_limited(grid, 16, 1.0, seed=2).coeff
    fprime = 1.0 + np.abs(nodal_values(u, padded_points(16)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample in (fprime * (3e38 / fprime.max()), 1e40 * fprime, 1e-40 * fprime):
            ref = fprime_multiplier(grid, sample)(v).copy()
            got = fprime_multiplier(grid, sample, np.float32)(v)
            assert np.isfinite(got).all() and _relative_error(got, ref) <= 1e-6


@pytest.mark.parametrize("nl", [DOUBLE_WELL, Nonlinearity(1.0, 0.7, -1.0)])
def test_fprime_multiplier_symmetric(nl):
    # <w, P(f'(u) v)> = <v, P(f'(u) w)>, with or without the even a2 term
    grid = GridSpec(8, PI)
    apply = fprime_multiplier(grid, _fprime(random_band_limited(grid, 8, 2.0, seed=61), nl))
    v = random_band_limited(grid, 8, 1.0, seed=62).coeff
    w = random_band_limited(grid, 8, 1.0, seed=63).coeff
    assert np.vdot(w, apply(v)) == pytest.approx(np.vdot(v, apply(w)), rel=1e-12)


# ---------------------------------------------------------------------------
# potential integral
# ---------------------------------------------------------------------------

def potential_integral(u, nl):
    """int F(u), as the fused evaluation returns it next to P_n f(u)."""
    return nonlinear_term_and_potential(u, nl)[1]


def test_potential_integral_values():
    grid = GridSpec(8, PI)
    assert potential_integral(ModalField.zeros(grid), DOUBLE_WELL) == 0.0
    # u = e_11 at side pi: int F(u) = (1/4) int u^4 - (1/2) int u^2
    #   int e_11^4 = (2/pi)^4 (3 pi/8)^2 = 9/(4 pi^2), int e_11^2 = 1
    u = ModalField.single_mode(grid, 1, 1)
    exact = 9.0 / (16.0 * PI**2) - 0.5
    val = potential_integral(u, DOUBLE_WELL)
    assert val == pytest.approx(exact, rel=1e-12)
    assert val == pytest.approx(-0.44301, abs=5e-6)


def test_potential_integral_oracle_sweep():
    # int F(u) splits into monomials; the oracle integrates each one by
    # its exact rule (trapezoid for even powers, basis contraction for
    # odd), so this holds to roundoff even with a quadratic term
    grid = GridSpec(8, PI)
    for nl in (DOUBLE_WELL, Nonlinearity(1.0, 1.0, -0.5)):
        poly = {2: nl.a1 / 2.0, 3: nl.a2 / 3.0, 4: nl.a3 / 4.0}
        for i in range(20):
            u = random_band_limited(grid, 8, 1.0 + 0.1 * i, seed=300 + i)
            ref = oracle_poly_integral(u, poly)
            assert potential_integral(u, nl) == pytest.approx(
                ref, rel=1e-10, abs=1e-12
            )
    # doubling the field, compared against the same oracle
    u = random_band_limited(grid, 6, 1.0, seed=9)
    poly = {2: -0.5, 4: 0.25}
    assert potential_integral(u * 2.0, DOUBLE_WELL) == pytest.approx(
        oracle_poly_integral(u * 2.0, poly), rel=1e-10
    )


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_values():
    grid = GridSpec(8, PI)
    zero = ModalField.zeros(grid)
    g0 = SourceTerm.zero(grid)
    assert energy(State(zero, zero), DOUBLE_WELL, g0) == 0.0

    # (e_11, 0): quad = ||A^{1/2}u||^2 / 2 = 1, plus the potential
    u = ModalField.single_mode(grid, 1, 1)
    e = energy(State(u, zero), DOUBLE_WELL, g0)
    assert e == pytest.approx(1.0 + 9.0 / (16.0 * PI**2) - 0.5, rel=1e-12)
    assert e == pytest.approx(0.55699, abs=5e-6)
    # the quadratic part alone: with f = 0 the potential vanishes
    assert energy(State(u, zero), Nonlinearity(0.0, 0.0, 0.0), g0) == pytest.approx(
        1.0, rel=1e-14)

    # forcing <g, A^{-1}u> with g = u = e_11: 1/lambda_11 = 1/2
    g = SourceTerm(ModalField.single_mode(grid, 1, 1))
    assert energy(State(u, zero), DOUBLE_WELL, g) == pytest.approx(e - 0.5, rel=1e-14)


def test_energy_grid_refinement_invariance():
    grid = GridSpec(8, PI)
    state = random_pair_state(grid, 8, 2.0, seed=17)
    g = SourceTerm(random_band_limited(grid, 4, 0.7, seed=18))
    e1 = energy(state, DOUBLE_WELL, g)
    big = State(resample(state.u, 16), resample(state.v, 16), state.time)
    gbig = SourceTerm(resample(g.g_modal, 16))
    e2 = energy(big, DOUBLE_WELL, gbig)
    assert abs(e1 - e2) <= 1e-10 * max(1.0, abs(e1))


def test_energy_sign_symmetry():
    # even potential (a2 = 0), g = 0: energy(-U) = energy(U) exactly
    grid = GridSpec(8, PI)
    g0 = SourceTerm.zero(grid)
    state = random_pair_state(grid, 8, 1.5, seed=23)
    flipped = State(-state.u, -state.v, state.time)
    a = energy(state, DOUBLE_WELL, g0)
    b = energy(flipped, DOUBLE_WELL, g0)
    assert a == b
    # with a2 != 0 the potential is not even; the flip must also send
    # a2 -> -a2 (and g -> -g) to leave the energy invariant
    nl = Nonlinearity(1.0, 0.7, -1.0)
    nl_flip = Nonlinearity(1.0, -0.7, -1.0)
    g = SourceTerm(random_band_limited(grid, 3, 0.4, seed=24))
    gm = SourceTerm(-g.g_modal)
    assert energy(state, nl, g) == pytest.approx(
        energy(flipped, nl_flip, gm), rel=1e-12
    )


# ---------------------------------------------------------------------------
# acceleration and PDE residual
# ---------------------------------------------------------------------------

def test_acceleration_values():
    grid = GridSpec(8, PI)
    zero = ModalField.zeros(grid)
    g0 = SourceTerm.zero(grid)
    rest = State(zero, zero)
    assert np.abs(acceleration_from_state(rest, DOUBLE_WELL, g0).coeff).max() == 0.0
    # u_tt = g at the origin of phase space
    g = SourceTerm(ModalField.single_mode(grid, 1, 1))
    acc = acceleration_from_state(rest, DOUBLE_WELL, g)
    assert acc.coeff[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert norm_Hs(acc - g.g_modal, 0.0) <= 1e-14


def test_pde_residual_definitional():
    grid = GridSpec(8, PI)
    g = SourceTerm(random_band_limited(grid, 4, 0.6, seed=31))
    state = random_pair_state(grid, 8, 1.0, seed=32)
    acc = acceleration_from_state(state, DOUBLE_WELL, g)
    assert pde_residual(state, acc, DOUBLE_WELL, g) <= 1e-12


def test_pde_residual_zero_state():
    grid = GridSpec(8, PI)
    zero = ModalField.zeros(grid)
    res = pde_residual(State(zero, zero), zero, DOUBLE_WELL, SourceTerm.zero(grid))
    assert res == 0.0


def test_pde_residual_linear_mode():
    # damped-oscillator derivatives satisfy the f=0 equation exactly
    grid = GridSpec(8, PI)
    lam = 2.0
    nl0 = Nonlinearity(0.0, 0.0, 0.0)
    g0 = SourceTerm.zero(grid)
    for t in (0.0, 0.35, 1.7):
        u, v = exact_linear_mode(lam, 1.0, 0.0, t)
        state = State(
            ModalField.single_mode(grid, 1, 1, float(u)),
            ModalField.single_mode(grid, 1, 1, float(v)),
            t,
        )
        # u_tt = -v - lam^2 u for the mode
        acc = ModalField.single_mode(grid, 1, 1, float(-v - lam**2 * u))
        assert pde_residual(state, acc, nl0, g0) <= 1e-12


# ---------------------------------------------------------------------------
# diagnostic functional
# ---------------------------------------------------------------------------

def test_diagnostic_F_zero_velocity():
    # every term carries u_t or u_tt: a stationary state gives 0
    grid = GridSpec(8, PI)
    zero = ModalField.zeros(grid)
    val = diagnostic_F(State(zero, zero), DOUBLE_WELL, SourceTerm.zero(grid))
    assert val == 0.0


def test_diagnostic_F_closed_form():
    # f' constant c >= 0, so lambda = 0: beta = 1/4 and L = 1.  State
    # (0, e_11) forced so that u_tt = 0, with ||e_11||_V'^2 = 1/lambda_11
    # = 1/2: F = ||(e_11, 0)||_0^2 / 2 + (beta/2)(1/2) + c/2 + L/2
    #          = 1 + 1/16 + c/2 + 1/2
    grid = GridSpec(8, PI)
    c = 0.8
    nl = Nonlinearity(0.0, 0.0, c)
    g = SourceTerm(ModalField.single_mode(grid, 1, 1))  # cancels u_t in u_tt
    state = State(ModalField.zeros(grid), ModalField.single_mode(grid, 1, 1))
    acc = acceleration_from_state(state, nl, g)
    assert norm_Hs(acc, 0.0) <= 1e-14
    val = diagnostic_F(state, nl, g)
    assert val == pytest.approx(1.0 + 1.0 / 16.0 + c / 2.0 + 0.5, abs=1e-9)


def test_diagnostic_F_coercivity_sweep():
    # F >= sigma ||(u_t, u_tt)||_0^2 with the certified sigma = 1/8 of its
    # fixed recipe, on random quasi-strong states of size up to 5
    grid = GridSpec(12, PI)
    g0 = SourceTerm.zero(grid)
    sigma = 0.125
    for nl in (DOUBLE_WELL, Nonlinearity(1.0, 0.0, 0.0), Nonlinearity(1.0, 1.0, -2.0)):
        rng = np.random.default_rng(99)
        for i in range(100):
            amp = float(rng.uniform(0.05, 5.0))
            st = random_pair_state(grid, 6, amp, seed=7000 + i, s=2.0)
            assert norm_pair(st.u, st.v, 2.0) == pytest.approx(amp, rel=1e-10)
            vt = acceleration_from_state(st, nl, g0)
            val = diagnostic_F(st, nl, g0)
            floor = sigma * norm_pair(st.v, vt, 0.0) ** 2
            assert val >= floor - 1e-12 * max(1.0, abs(val))


# ---------------------------------------------------------------------------
# higher-order functionals
# ---------------------------------------------------------------------------

def test_higher_functionals_zero():
    grid = GridSpec(8, PI)
    zero = ModalField.zeros(grid)
    hf = higher_functionals(State(zero, zero), DOUBLE_WELL, SourceTerm.zero(grid))
    assert (hf.g0, hf.g, hf.h) == (0.0, 0.0, 0.0)


def test_higher_functionals_linear_modal_form():
    # f linear: G0 = ||U||_2^2/2 - <g, Au> + (a1/2)||lap u||^2, all modal
    grid = GridSpec(8, PI)
    nl = Nonlinearity(0.0, 0.0, 0.6)
    state = random_pair_state(grid, 8, 1.2, seed=41)
    g = SourceTerm(random_band_limited(grid, 5, 0.5, seed=42))
    lam = eigenvalues(grid)
    hf = higher_functionals(state, nl, g)
    u, v = state.u.coeff, state.v.coeff
    ghat = g.g_modal.coeff
    g0_exact = (
        0.5 * norm_pair(state.u, state.v, 2.0) ** 2
        - float(np.sum(ghat * lam * u))
        + 0.5 * 0.6 * float(np.sum(lam**2 * u**2))
    )
    assert hf.g0 == pytest.approx(g0_exact, rel=1e-12)
    ut_au = float(np.sum(v * lam * u))
    grad2 = float(np.sum(lam * u**2))
    assert hf.g == pytest.approx(hf.g0 + 0.5 * ut_au + 0.25 * grad2, rel=1e-12)
    # f'' = 0 kills H0: H = -<g,Au>/2 + (u_t,Au)/2 + ||grad u||^2/4
    h_exact = -0.5 * float(np.sum(ghat * lam * u)) + 0.5 * ut_au + 0.25 * grad2
    assert hf.h == pytest.approx(h_exact, rel=1e-12)


def test_higher_functionals_grid_invariance():
    # exact integrals: refining the representation changes nothing
    grid = GridSpec(8, PI)
    state = random_pair_state(grid, 8, 1.0, seed=43)
    g = SourceTerm(random_band_limited(grid, 4, 0.3, seed=44))
    nl = Nonlinearity(1.0, 0.5, -1.0)
    a = higher_functionals(state, nl, g)
    big = State(resample(state.u, 20), resample(state.v, 20), 0.0)
    b = higher_functionals(big, nl, SourceTerm(resample(g.g_modal, 20)))
    assert a.g0 == pytest.approx(b.g0, rel=1e-11)
    assert a.g == pytest.approx(b.g, rel=1e-11)
    assert a.h == pytest.approx(b.h, rel=1e-11)


@pytest.mark.parametrize("n", [4, 16, 33, 64])
@pytest.mark.parametrize("a2", [0.0, 0.5, -0.8])
@pytest.mark.parametrize("with_source", [False, True])
def test_higher_functionals_h_matches_gradient_oracle(n, a2, with_source):
    # H's a3 gradient terms go through a Green identity (model docstring);
    # the oracle evaluates them from the dense gradient instead
    rng = np.random.default_rng(1000 * n + int(10 * a2) + with_source)
    for trial in range(3):
        grid = GridSpec(n, float(rng.uniform(0.5, 5.0)))
        nl = Nonlinearity(float(rng.uniform(0.2, 2.0)), a2, float(rng.uniform(-3.0, 1.0)))
        seed = int(rng.integers(1 << 30))
        state = random_pair_state(grid, n, float(rng.uniform(0.3, 3.0)), seed, s=2.0)
        src = (SourceTerm(random_band_limited(grid, min(n, 4), 0.5, seed + 1)) if with_source
               else SourceTerm.zero(grid))
        hf = higher_functionals(state, nl, src)
        fhat = nonlinear_term_and_potential(state.u, nl)[0].coeff
        assert higher_functionals(state, nl, src, fhat=fhat) == hf
        h_ref = oracle_higher_h(state, nl, src)
        assert abs(hf.h - h_ref) <= 1e-13 * max(abs(hf.g), abs(hf.h)), (trial, hf, h_ref)


@pytest.mark.parametrize("n", [8, 33, 64])
@pytest.mark.parametrize("a2", [0.0, 0.6])
def test_modal_sums_match_direct_summation(n, a2):
    # every sum weighed by eigenvalue powers (the package's cached tables and
    # einsum kernel) against np.sum with fresh lam**p tables and the dense
    # 3N-grid oracles, on a random state with a source, called directly and
    # through a log row's shared sums; the tolerance is 1e-12 of the sum of
    # the absolute values of each quantity's terms (H's terms cancel)
    rng = np.random.default_rng(n + int(10 * a2))
    grid = GridSpec(n, float(rng.uniform(2.0, 5.0)))
    nl = Nonlinearity(float(rng.uniform(0.2, 2.0)), a2, float(rng.uniform(-3.0, 1.0)))
    state = random_pair_state(grid, n, 0.5, int(rng.integers(1 << 30)), s=2.0)
    src = SourceTerm(random_band_limited(grid, min(n, 4), 0.5, int(rng.integers(1 << 30))))
    u, v, g = state.u.coeff, state.v.coeff, src.g_modal.coeff
    freq = np.arange(1, n + 1) * np.pi / grid.side
    lam = freq[:, None] ** 2 + freq[None, :] ** 2

    def close(value, terms):
        assert abs(value - sum(terms)) <= 1e-12 * sum(map(abs, terms)), (value, terms)

    pot = oracle_poly_integral(state.u, {4: nl.a3 / 4.0, 3: nl.a2 / 3.0, 2: nl.a1 / 2.0})
    e_terms = [0.5 * np.sum(lam * u**2), 0.5 * np.sum(v**2 / lam), pot, -np.sum(g * u / lam)]
    close(energy(state, nl, src), e_terms)
    for s in (-1.0, 0.0, 2.0):
        close(norm_pair(state.u, state.v, s) ** 2,
              [np.sum(lam ** (s + 1.0) * u**2), np.sum(lam ** (s - 1.0) * v**2)])
    for s in (-0.5, 0.5, 1.0):
        close(norm_Hs(state.v, s) ** 2, [np.sum(lam ** (2.0 * s) * v**2)])
    g_terms = oracle_higher_g(state, nl, src, split=True)
    h_terms = oracle_higher_h(state, nl, src, split=True)
    f_terms = oracle_diagnostic_F(state, nl, src, padded_points(n, 2), split=True)
    hf = higher_functionals(state, nl, src)
    close(hf.g, g_terms)
    close(hf.h, h_terms)
    close(diagnostic_F(state, nl, src), f_terms)

    cfg = SchemeConfig(dt=1e-5)
    close(Stepper(state, nl, src, cfg).ut_vprime() ** 2, [np.sum(v**2 / lam)])
    log = simulate(state, nl, src, cfg, cfg.dt)
    close(log.norm0[0] ** 2, [np.sum(lam * u**2), np.sum(v**2 / lam)])
    close(log.norm2[0] ** 2, [np.sum(lam**3 * u**2), np.sum(lam * v**2)])
    close(log.ut_vprime[0] ** 2, [np.sum(v**2 / lam)])
    close(log.energy[0], e_terms)
    close(log.cal_f[0], f_terms)
    close(log.cal_g[0], g_terms)
    close(log.cal_h[0], h_terms)
    vbar = 0.5 * (v + log.final.v.coeff)
    close(log.dissip_cum[1], [cfg.dt * np.sum(vbar**2 / lam)])
