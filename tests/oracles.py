"""Independent test oracles: dense sine-matrix transforms, exact
integrals, the closed-form linear mode and the residuals the tests
measure runs with.

Everything here is deliberately naive -- direct basis summation with
dense matrices instead of fast transforms, the per-mode Crank-Nicolson
solve and f(u) wholly on the padded grid as the package once computed
them -- so the library's fast paths are checked against unrelated
arithmetic.
"""

import numpy as np

from sinech.errors import InsufficientDataError
from sinech.model import acceleration_from_state
from sinech.spectral import (dot, modal_from_values, nodal_values, norm_Hs, padded_points,
                             quadrature_weight)


def sine_matrix(n_modes: int, n_points: int, side: float, centred: bool = False) -> np.ndarray:
    """B[p, j] = sqrt(2/side) sin((j+1) pi x_p / side) on the interior
    nodes x_p = (p+1) side / (n_points+1), or with centred=True on the cell
    centres x_p = (p + 1/2) side / n_points (the package's grid)."""
    if centred:
        x = (np.arange(n_points)[:, None] + 0.5) * (side / n_points)
    else:
        x = np.arange(1, n_points + 1)[:, None] * (side / (n_points + 1))
    j = np.arange(1, n_modes + 1)[None, :]
    return np.sqrt(2.0 / side) * np.sin(j * np.pi * x / side)


def naive_nodal(coeff: np.ndarray, side: float, n_points: int, centred: bool = False) -> np.ndarray:
    """Direct summation of the sine series on an n_points grid."""
    B = sine_matrix(coeff.shape[0], n_points, side, centred)
    return B @ coeff @ B.T


def naive_modal(values: np.ndarray, side: float, centred: bool = False) -> np.ndarray:
    """Sine coefficients of nodal samples on their own grid.

    On the interior nodes, the quadrature projection: exact (discrete
    orthogonality) whenever the sampled function is a sine polynomial of
    band <= n_points.  On the cell centres, the dense solve of
    B c B^T = values, which needs no quadrature weights.
    """
    m = values.shape[0]
    B = sine_matrix(m, m, side, centred)
    if centred:
        return np.linalg.solve(B, np.linalg.solve(B, values).T).T
    return (side / (m + 1)) ** 2 * (B.T @ values @ B)


def exact_integral_from_modal(coeff: np.ndarray, side: float) -> float:
    """Integral of a sine series over the box: int e_jk = 8 side/(pi^2 j k)
    for odd j and k, zero otherwise."""
    n = coeff.shape[0]
    j = np.arange(1, n + 1)
    w = np.where(j % 2 == 1, 1.0 / j, 0.0)
    return float(8.0 * side / np.pi**2 * (w @ coeff @ w))


def oracle_pointwise_projection(u_field, func, pad: int = 4) -> np.ndarray:
    """Brute-force P_N func(u): sample on a pad*N grid by direct basis
    summation, apply func, project back, truncate.  Exact for polynomial
    func of degree <= pad."""
    n = u_field.grid.n_modes
    side = u_field.grid.side
    vals = func(naive_nodal(u_field.coeff, side, pad * n))
    return naive_modal(vals, side)[:n, :n]


def oracle_multiplier_matrix(u_field, func, pad: int = 4) -> np.ndarray:
    """Dense P_N(func(u) .) on row-major flattened N x N coefficients, one
    basis function at a time by direct summation.  Exact for polynomial
    func of degree <= pad - 1 when func(u) v is a sine polynomial (even
    powers of u only)."""
    n = u_field.grid.n_modes
    side = u_field.grid.side
    weight = func(naive_nodal(u_field.coeff, side, pad * n))
    cols = [naive_modal(weight * naive_nodal(e.reshape(n, n), side, pad * n), side)[:n, :n]
            for e in np.eye(n * n)]
    return np.array([c.ravel() for c in cols]).T


def oracle_monomial_integral(u_field, degree: int, pad: int = 5) -> float:
    """Exact integral of u^degree over the box.

    Even degrees: u^degree is a cosine polynomial of band degree*N that
    vanishes on the boundary, so the interior-node trapezoid sum on an
    m-point grid is exact once 2m+1 >= degree*N.  Odd degrees: u^degree
    is a sine polynomial of band degree*N, recovered exactly by the
    discrete projection on an m >= degree*N grid and contracted with the
    closed-form basis integrals.  pad = 5 covers every cubic f / quartic
    F monomial.
    """
    n = u_field.grid.n_modes
    side = u_field.grid.side
    m = pad * n
    vals = naive_nodal(u_field.coeff, side, m) ** degree
    if degree % 2 == 0:
        return (side / (m + 1)) ** 2 * float(np.sum(vals))
    return exact_integral_from_modal(naive_modal(vals, side), side)


def oracle_poly_integral(u_field, coeff_by_degree: dict) -> float:
    """Exact integral of sum c_d u^d for a {degree: coefficient} map."""
    return sum(
        c * oracle_monomial_integral(u_field, d)
        for d, c in coeff_by_degree.items()
        if c != 0.0
    )


def _terms(terms: list, split: bool):
    """A functional from its terms: their sum, or the terms themselves."""
    return terms if split else float(sum(terms))


def _on_3n_grid(state):
    """(lam, nodal, even, odd) for direct summation on the 3N grid: the
    eigenvalue table, the dense sine-series evaluation, the interior node
    sum (exact for even-type integrands of band < 2(m+1)) and the odd-type
    integral by the discrete projection and the closed-form basis
    integrals (exact for sine polynomials of band <= m)."""
    n, side = state.u.grid.n_modes, state.u.grid.side
    m = 3 * n
    freq = np.arange(1, n + 1) * np.pi / side
    lam = freq[:, None] ** 2 + freq[None, :] ** 2
    B = sine_matrix(n, m, side)

    def nodal(c):
        return B @ c @ B.T

    def even(vals):
        return (side / (m + 1)) ** 2 * float(np.sum(vals))

    def odd(vals):
        return exact_integral_from_modal(naive_modal(vals, side), side)

    return lam, nodal, even, odd


def oracle_higher_h(state, nl, src, split: bool = False):
    """H of model.higher_functionals by direct summation, with the
    |grad u|^2 terms of H0 evaluated from the gradient itself:

        H0 = 1/2 int f''(u) u_t |lap u|^2 + <A u_t, f''(u) |grad u|^2>
             - 1/2 int f''(u) |grad u|^2 lap u.

    Per axis, every integrand is a product of sine factors and (along the
    differentiated axis) pairs of cosine factors.  The a3 parts hold an
    even number of sine factors per axis and vanish on the boundary, so
    the interior node sum is exact for band 4N < 2(m+1); the a2 parts are
    sine polynomials of band 3N <= m, integrated by the discrete
    projection and the closed-form basis integrals.  m = 3N covers both.
    split=True returns the list of H's terms instead of their sum.
    """
    u, v, g = state.u.coeff, state.v.coeff, src.g_modal.coeff
    n, side = state.u.grid.n_modes, state.u.grid.side
    lam, nodal, even, odd = _on_3n_grid(state)
    freq = np.arange(1, n + 1) * np.pi / side
    x = np.arange(1, 3 * n + 1)[:, None] * (side / (3 * n + 1))
    B = sine_matrix(n, 3 * n, side)
    D = np.sqrt(2.0 / side) * freq[None, :] * np.cos(freq[None, :] * x)  # d/dx of B's columns
    un, vn, aun, autn = nodal(u), nodal(v), nodal(lam * u), nodal(lam * v)
    grad2 = (D @ u @ B.T) ** 2 + (B @ u @ D.T) ** 2
    a3, a2 = nl.a3, nl.a2
    return _terms([
        0.5 * 6.0 * a3 * even(un * vn * aun**2), 0.5 * 2.0 * a2 * odd(vn * aun**2),
        6.0 * a3 * even(autn * un * grad2), 2.0 * a2 * odd(autn * grad2),
        0.5 * 6.0 * a3 * even(un * grad2 * aun), 0.5 * 2.0 * a2 * odd(grad2 * aun),
        -0.5 * float(np.sum(g * lam * u)), 0.5 * float(np.sum(v * lam * u)),
        0.25 * float(np.sum(lam * u**2)),
    ], split)


def oracle_higher_g(state, nl, src, split: bool = False):
    """G of model.higher_functionals by direct summation,

        G = 1/2 ||(u, u_t)||_2^2 - <g, A u> + 1/2 int f'(u) |lap u|^2
            + 1/2 (u_t, A u) + 1/4 ||grad u||^2,

    the integral on the 3N grid as in oracle_higher_h (f'(u) (A u)^2 splits
    into even a3 and a1 parts and an odd a2 part); split=True returns the
    list of G's terms instead of their sum.
    """
    u, v, g = state.u.coeff, state.v.coeff, src.g_modal.coeff
    lam, nodal, even, odd = _on_3n_grid(state)
    un, aun = nodal(u), nodal(lam * u)
    return _terms([
        0.5 * float(np.sum(lam**3 * u**2)), 0.5 * float(np.sum(lam * v**2)),
        -float(np.sum(g * lam * u)),
        0.5 * 3.0 * nl.a3 * even(un**2 * aun**2), 0.5 * 2.0 * nl.a2 * odd(un * aun**2),
        0.5 * nl.a1 * even(aun**2),
        0.5 * float(np.sum(v * lam * u)), 0.25 * float(np.sum(lam * u**2)),
    ], split)


def oracle_diagnostic_F(state, nl, src, f_points: int, split: bool = False):
    """model.diagnostic_F by direct summation, for V = (u_t, u_tt):

        F = 1/2 ||V||_0^2 + 1/4 <u_tt, A^{-1} u_t> + 1/8 ||u_t||_{V'}^2
            + 1/2 (f'(u) u_t, u_t) + L ||u_t||_{V'}^2,

    L = max(1, lambda, lambda^2/2) for lambda = nl.lambda_bound, u_tt from
    the equation with P_N f(u) projected densely from the f_points grid
    (for a2 != 0 it depends on that grid: u^2 is no sine polynomial), and
    (f'(u) u_t, u_t) on the 3N grid as in oracle_higher_h; split=True
    returns the list of F's terms instead of their sum.  The f_points grid
    is cell-centred, as the package's.
    """
    u, v, g = state.u.coeff, state.v.coeff, src.g_modal.coeff
    n, side = state.u.grid.n_modes, state.u.grid.side
    lam, nodal, even, odd = _on_3n_grid(state)
    fhat = naive_modal(nl.f(naive_nodal(u, side, f_points, True)), side, True)[:n, :n]
    vt = g - v - lam**2 * u - lam * fhat
    un, vn = nodal(u), nodal(v)
    big_l = max(1.0, nl.lambda_bound, 0.5 * nl.lambda_bound**2)
    vprime2 = float(np.sum(v**2 / lam))
    return _terms([
        0.5 * float(np.sum(lam * v**2)), 0.5 * float(np.sum(vt**2 / lam)),
        0.25 * float(np.sum(vt * v / lam)), 0.125 * vprime2,
        0.5 * 3.0 * nl.a3 * even(un**2 * vn**2), 0.5 * 2.0 * nl.a2 * odd(un * vn**2),
        0.5 * nl.a1 * even(vn**2), big_l * vprime2,
    ], split)


def exact_projection_of_square(u_field, n_keep: int | None = None) -> np.ndarray:
    """True Galerkin projection P_N(u^2) by dense cosine algebra.

    u^2 is a cosine polynomial of band 2N per axis; its coefficients are
    recovered exactly on a closed grid by discrete cosine orthogonality
    and projected onto the sine basis through the closed-form coupling
    integral int sin(a t) cos(p t) dt = a (1-(-1)^{a+p}) / (a^2 - p^2).
    This is what collocation dealiasing only approximates (the sine
    expansion of u^2 is infinite), so it serves as the reference for the
    even-part bias.
    """
    n = u_field.grid.n_modes
    side = u_field.grid.side
    keep = n if n_keep is None else n_keep
    big_m = 4 * n + 2  # closed-grid resolution, > cosine band 2N
    x = np.arange(big_m + 1) * (side / big_m)
    j = np.arange(1, n + 1)
    S = np.sqrt(2.0 / side) * np.sin(np.outer(x, j) * np.pi / side)
    vals = (S @ u_field.coeff @ S.T) ** 2
    # cosine coefficients d_pq (band 2N) via DCT-I orthogonality
    p = np.arange(0, 2 * n + 1)
    C = np.cos(np.outer(x, p) * np.pi / side)
    wts = np.ones(big_m + 1)
    wts[0] = wts[-1] = 0.5
    scale = np.full(2 * n + 1, 2.0 / big_m)
    scale[0] = 1.0 / big_m
    d = (scale[:, None] * scale[None, :] *
         ((C * wts[:, None]).T @ vals @ (C * wts[:, None])))
    # coupling integrals I[a, p] = int_0^side sin(a pi x/side) cos(p pi x/side)
    a = np.arange(1, keep + 1)[:, None]
    pp = p[None, :]
    num = 1.0 - (-1.0) ** (a + pp)
    den = (a**2 - pp**2).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        I = np.where(den != 0.0, (side / np.pi) * a * num / den, 0.0)
    return (2.0 / side) * (I @ d @ I.T)


def exact_linear_mode(lam: float, u0: float, v0: float, t):
    """Closed-form damped mode c'' + c' + lam^2 c = 0, c(0)=u0, c'(0)=v0.

    Returns (u(t), v(t)); handles the underdamped (lam^2 > 1/4),
    critical, and overdamped branches.  t may be a scalar or array.
    """
    t = np.asarray(t, dtype=np.float64)
    disc = 1.0 - 4.0 * lam * lam
    if disc < 0.0:  # underdamped
        om = 0.5 * np.sqrt(-disc)
        b = v0 + 0.5 * u0
        env = np.exp(-0.5 * t)
        u = env * (u0 * np.cos(om * t) + (b / om) * np.sin(om * t))
        v = env * (v0 * np.cos(om * t) - (0.5 * b / om + om * u0) * np.sin(om * t))
    elif disc == 0.0:  # critical
        b = v0 + 0.5 * u0
        env = np.exp(-0.5 * t)
        u = env * (u0 + b * t)
        v = env * (v0 - 0.5 * b * t)
    else:  # overdamped
        root = np.sqrt(disc)
        sp, sm = 0.5 * (-1.0 + root), 0.5 * (-1.0 - root)
        alpha = (v0 - sm * u0) / (sp - sm)
        beta = u0 - alpha
        u = alpha * np.exp(sp * t) + beta * np.exp(sm * t)
        v = alpha * sp * np.exp(sp * t) + beta * sm * np.exp(sm * t)
    return u, v


def crank_nicolson_closed_form(lam2, c, w, rhs, h: float):
    """One Crank-Nicolson step of c' = w, w' = -w - lam2 c + rhs per mode,
    by the closed-form 2x2 solve with its determinant
    det = 1 + h/2 + h^2 lam2 / 4; returns (c_new, w_new)."""
    half = h / 2.0
    det = 1.0 + half + (h * h / 4.0) * lam2
    r1 = c + half * w
    r2 = w - half * (w + lam2 * c) + h * rhs
    return ((1.0 + half) * r1 + half * r2) / det, (r2 - half * lam2 * r1) / det


def nodal_f_and_potential(u_field, nl):
    """(P_N f(u), int F(u)) with all of f on the 2N padded grid: f(u) by
    Horner there and transformed back, the quartic term of the potential
    by the midpoint sum there (exact: band 4N < 2m), the quadratic one by
    Parseval and, for a2 != 0, the cubic one through the alias-free 3N
    grid transform and the closed-form basis integrals."""
    n, side, c = u_field.grid.n_modes, u_field.grid.side, u_field.coeff
    m = padded_points(n, 2)
    un = nodal_values(u_field, m)
    pot = (quadrature_weight(side, m) * 0.25 * nl.a3 * float(np.sum(un**4))
           + 0.5 * nl.a1 * dot(c, c))
    if nl.a2 != 0.0:
        m3 = padded_points(n, 3)
        cube = modal_from_values(nodal_values(u_field, m3) ** 3, side)
        pot += (nl.a2 / 3.0) * exact_integral_from_modal(cube, side)
    return modal_from_values(nl.f(un), side)[:n, :n].copy(), pot


def pde_residual(state, u_tt, nl, g) -> float:
    """|| u_tt + u_t + A^2 u + A f(u) - g ||_{V'} for a given acceleration."""
    return norm_Hs(u_tt - acceleration_from_state(state, nl, g), -0.5)


def higher_energy_residual(log) -> float:
    """max over interior samples of | dG/dt + G - H | for a TrajectoryLog,
    with dG/dt by central differences; needs >= 3 uniformly spaced
    samples."""
    if len(log) < 3:
        raise InsufficientDataError("need at least 3 samples for the balance residual")
    t = np.asarray(log.t)
    dt = np.diff(t)
    mean = float(dt.mean())
    if np.max(np.abs(dt - mean)) > 1e-8 * max(1.0, abs(mean)):
        raise InsufficientDataError("samples are not uniformly spaced")
    gg = np.asarray(log.cal_g)
    hh = np.asarray(log.cal_h)
    dgdt = (gg[2:] - gg[:-2]) / (2.0 * mean)
    return float(np.max(np.abs(dgdt + gg[1:-1] - hh[1:-1])))
