"""Time integration of u_tt + u_t + A(A u + f(u)) = g in modal space.

Two schemes:

* ``imex_cn_ab2`` -- Crank-Nicolson on the stiff linear part (per-mode
  2x2 solves in closed form), Adams-Bashforth-2 extrapolation of the
  dealiased nonlinear term at the half step, with a single
  nonlinearity-explicit Euler start-up step.  Second order; the linear
  part is unconditionally stable, the explicit part is benign at desk
  scale as long as dt * lambda_max * |f'| stays moderate.
* ``implicit_newton`` -- backward Euler with a matrix-free Newton
  iteration (dealiased Jacobian application, diagonally preconditioned
  MINRES inner solves).  First order, very robust; also accepts
  negative dt for (experimental) backward-in-time integration.

Both schemes reject a step that leaves a non-finite state or increases
the energy by more than the configured safeguard tolerance: for this
equation the energy is nonincreasing along forward solutions, so a jump
is a reliable instability signal.

A useful discrete fact (used for the logged cumulative dissipation):
with Crank-Nicolson the update satisfies, exactly in floating point
terms, E_{n+1} - E_n = -dt ||(v_n + v_{n+1})/2||_{V'}^2 for the purely
linear flow, so accumulating that trapezoid-in-state quadrature keeps
the discrete energy identity tight at machine precision for f = 0 and
O(dt^2) otherwise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from .errors import (
    CheckpointMismatchError,
    CheckpointVersionError,
    FileFormatError,
    InstabilityError,
    InsufficientDataError,
    StepFailureError,
)
from .model import (
    DiagnosticParams,
    Nonlinearity,
    SourceTerm,
    default_diagnostic_params,
    diagnostic_F,
    energy,
    f_eval_dealiased,
    fprime_multiplier,
    higher_functionals,
    nonlinear_term_and_potential,
)
from .spectral import GridSpec, ModalField, check_same_grid, eigenvalues, norm_pair

_CKPT_VERSION = 1
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

    safeguard_tol is the maximum tolerated single-step energy increase;
    newton_* only apply to the implicit scheme.  Negative dt (backward
    time) is accepted for implicit_newton only and disables the
    safeguard, since the energy grows along backward orbits.
    """

    dt: float
    scheme: str = "imex_cn_ab2"
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    safeguard_tol: float = 1e-6

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if not np.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if self.dt == 0.0:
            raise ValueError("dt must be nonzero")
        if self.dt < 0.0 and self.scheme != "implicit_newton":
            raise ValueError("backward time (dt < 0) is supported by implicit_newton only")
        if not (self.newton_tol > 0.0):
            raise ValueError("newton_tol must be > 0")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")


@dataclass
class TrajectoryLog:
    """Sampled scalar history of a run (plus optional state snapshots).

    Columns: time, the pair norms at s = 0 and s = 2, ||u_t||_{V'}, the
    energy, the velocity diagnostic, the two higher functionals, and the
    running dissipation integral int ||u_t||_{V'}^2 (trapezoid rule,
    accumulated every step regardless of the sampling stride).  final is
    the last sampled state, kept whether or not states are.
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
    states: list = field(default_factory=list)
    final: State | None = None

    CSV_HEADER = "t,norm0,norm2,ut_Vprime,energy,calF,calG,calH,dissip_cum"

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        cols = np.column_stack(
            [
                np.asarray(self.t),
                np.asarray(self.norm0),
                np.asarray(self.norm2),
                np.asarray(self.ut_vprime),
                np.asarray(self.energy),
                np.asarray(self.cal_f),
                np.asarray(self.cal_g),
                np.asarray(self.cal_h),
                np.asarray(self.dissip_cum),
            ]
        )
        np.savetxt(path, cols, delimiter=",", header=self.CSV_HEADER, comments="", fmt="%.17g")


@dataclass
class Checkpoint:
    """Everything needed to continue a run bit-for-bit."""

    state: State
    cfg: SchemeConfig
    nl: Nonlinearity
    g: SourceTerm
    step_count: int = 0
    fhat_prev: np.ndarray | None = None  # AB2 history (previous nonlinear term)


def _require_finite(t: float, *arrays: np.ndarray) -> None:
    """InstabilityError (at time t) unless every coefficient is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InstabilityError(
            f"non-finite state at t={t:g}; reduce dt or the resolution/nonlinearity "
            "stiffness",
            time=t,
        )


def cn_step(c: np.ndarray, w: np.ndarray, rhs: np.ndarray, lam2: np.ndarray,
            h: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """One Crank-Nicolson step from time t of the per-mode systems
    c' = w, w' = -w - lam2 c + rhs, with the forcing rhs held fixed over
    the step; each mode's 2x2 system is solved in closed form.

    Raises InstabilityError (at t + h) when the new state is not finite.
    """
    half = h / 2.0
    det = 1.0 + half + (h * h / 4.0) * lam2
    r1 = c + half * w
    r2 = w - half * (w + lam2 * c) + h * rhs
    c_new = ((1.0 + half) * r1 + half * r2) / det
    w_new = (r2 - half * lam2 * r1) / det
    _require_finite(t + h, c_new, w_new)
    return c_new, w_new


class Stepper:
    """Stateful single-run integrator (owns the AB2 history and the
    fused nonlinear-term/potential cache)."""

    def __init__(self, state: State, nl: Nonlinearity, g: SourceTerm,
                 cfg: SchemeConfig, step_count: int = 0,
                 fhat_prev: np.ndarray | None = None):
        check_same_grid(state.u, g.g_modal)
        self.state = state.copy()
        self.nl = nl
        self.g = g
        self.cfg = cfg
        self.step_count = int(step_count)
        self.lam = np.asarray(eigenvalues(state.grid))
        self.lam2 = self.lam**2
        self._fhat_prev = None if fhat_prev is None else np.array(fhat_prev, dtype=np.float64)
        self._cur = None  # (fhat, potential) for self.state.u

    def _ensure_current(self):
        if self._cur is None:
            fh, pot = nonlinear_term_and_potential(self.state.u, self.nl)
            self._cur = (fh.coeff, pot)
        return self._cur

    def energy_total(self) -> float:
        return energy(self.state, self.nl, self.g, self._ensure_current()[1]).total

    # -- schemes ------------------------------------------------------------

    def _advance_imex(self, h: float):
        fhat, _ = self._ensure_current()
        if self._fhat_prev is None:
            nstar = fhat  # start-up: nonlinearity explicit at the left endpoint
        else:
            nstar = 1.5 * fhat - 0.5 * self._fhat_prev
        rhs = self.g.g_modal.coeff - self.lam * nstar
        return cn_step(self.state.u.coeff, self.state.v.coeff, rhs, self.lam2, h,
                       self.state.time)

    def _advance_newton(self, h: float):
        c, w = self.state.u.coeff, self.state.v.coeff
        ghat = self.g.g_modal.coeff
        grid = self.state.grid
        n = grid.n_modes
        lam, lam2 = self.lam, self.lam2
        lam_sqrt = np.sqrt(lam)
        diag = 1.0 + h + h * h * lam2
        pre = LinearOperator((n * n, n * n), matvec=lambda vec: vec / diag.ravel(),
                             dtype=np.float64)

        def residual(x):
            fh = f_eval_dealiased(ModalField(grid, x), self.nl)
            return (1.0 + h) * (x - c) + h * h * (lam2 * x + lam * fh.coeff - ghat) - h * w

        def failure(msg):
            return StepFailureError(f"{msg} at t={self.state.time:g}",
                                    residual_history=history, time=self.state.time)

        x = c + h * w  # explicit predictor
        res = residual(x)
        history = [float(np.linalg.norm(res)) / abs(h)]
        tol = self.cfg.newton_tol
        it = 0
        while history[-1] > tol:
            if it >= self.cfg.newton_max_iter:
                raise failure(f"Newton did not reach tol={tol:g} in {it} iterations")
            # frozen dealiased multiplier f'(u) for the Jacobian, symmetrized
            # by delta = Lam^{1/2} delta'
            mult = fprime_multiplier(ModalField(grid, x), self.nl)

            def matvec(vec):
                vec = vec.reshape(n, n)
                return (diag * vec + h * h * lam_sqrt * mult(lam_sqrt * vec)).ravel()

            op = LinearOperator((n * n, n * n), matvec=matvec, dtype=np.float64)
            rhs = -(res / lam_sqrt).ravel()
            sol, info = minres(op, rhs, M=pre, rtol=1e-12, maxiter=400)
            if info != 0:
                raise failure(f"inner MINRES stalled (info={info})")
            delta = lam_sqrt * sol.reshape(n, n)
            # damped update: halve until the residual decreases
            step_scale = 1.0
            for _ in range(12):
                x_try = x + step_scale * delta
                res_try = residual(x_try)
                if np.linalg.norm(res_try) / abs(h) < history[-1]:
                    break
                step_scale *= 0.5
            else:
                raise failure("Newton line search failed")
            x, res = x_try, res_try
            history.append(float(np.linalg.norm(res)) / abs(h))
            it += 1
        w_new = (x - c) / h
        _require_finite(self.state.time + h, x, w_new)
        return x, w_new

    def advance(self, dt: float | None = None) -> float:
        """One step of size dt (default cfg.dt); returns the dissipation
        increment dt * ||(v_n + v_{n+1})/2||_{V'}^2 of the step."""
        h = self.cfg.dt if dt is None else dt
        e_before = self.energy_total()
        w = self.state.v.coeff
        if self.cfg.scheme == "imex_cn_ab2":
            c_new, w_new = self._advance_imex(h)
        else:
            c_new, w_new = self._advance_newton(h)
        grid = self.state.grid
        new = State(ModalField(grid, c_new), ModalField(grid, w_new), self.state.time + h)
        fh_new, pot_after = nonlinear_term_and_potential(new.u, self.nl)
        rise = energy(new, self.nl, self.g, pot_after).total - e_before
        if h > 0.0 and not (rise <= self.cfg.safeguard_tol):
            raise InstabilityError(
                f"energy increased by {rise:.3e} in the step to t={new.time:g} "
                f"(safeguard {self.cfg.safeguard_tol:g}); "
                "reduce dt or the resolution/nonlinearity stiffness",
                time=new.time,
            )
        vbar = 0.5 * (w + w_new)
        dissip = h * float(np.sum(vbar**2 / self.lam))
        if self.cfg.scheme == "imex_cn_ab2":
            self._fhat_prev = self._cur[0]  # AB2 history, committed with the step
        self.state = new
        self.step_count += 1
        self._cur = (fh_new.coeff, pot_after)
        return dissip

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            state=self.state.copy(),
            cfg=self.cfg,
            nl=self.nl,
            g=self.g,
            step_count=self.step_count,
            fhat_prev=None if self._fhat_prev is None else self._fhat_prev.copy(),
        )

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "Stepper":
        return cls(
            ckpt.state,
            ckpt.nl,
            ckpt.g,
            ckpt.cfg,
            step_count=ckpt.step_count,
            fhat_prev=ckpt.fhat_prev,
        )


def step(state: State, nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig) -> State:
    """Single stateless step.

    For imex_cn_ab2 this is the start-up variant (no extrapolation
    history: the nonlinear term is taken at the left endpoint); use a
    Stepper or simulate() for multi-step runs with full AB2 accuracy.
    """
    st = Stepper(state, nl, g, cfg)
    st.advance()
    return st.state


def _sample(log: TrajectoryLog, stepper: Stepper, dissip: float,
            diag: DiagnosticParams, keep_states: bool) -> None:
    s = stepper.state
    # both functionals share one padded-grid set and the step's P_n f(u)
    fhat = stepper._ensure_current()[0]
    nodal = {}
    hf = higher_functionals(s, stepper.nl, stepper.g, nodal)
    log.t.append(s.time)
    log.norm0.append(norm_pair(s.u, s.v, 0.0))
    log.norm2.append(norm_pair(s.u, s.v, 2.0))
    log.ut_vprime.append(float(np.sqrt(np.sum(s.v.coeff**2 / stepper.lam))))
    log.energy.append(stepper.energy_total())
    log.cal_f.append(diagnostic_F(s, stepper.nl, stepper.g, diag, nodal, fhat))
    log.cal_g.append(hf.g)
    log.cal_h.append(hf.h)
    log.dissip_cum.append(dissip)
    if keep_states:
        log.states.append(s.copy())
    log.final = s  # a reference: the stepper replaces its state, never mutates it


def simulate(initial: State, nl: Nonlinearity, g: SourceTerm, cfg: SchemeConfig,
             t_end: float, sample_every: int = 1, keep_states: bool = False) -> TrajectoryLog:
    """Integrate from initial.time to t_end, sampling every
    sample_every steps (plus the endpoints).

    The horizon is snapped to a whole number of steps: the effective
    step is (t_end - initial.time)/round((t_end - initial.time)/dt),
    which equals cfg.dt whenever the horizon divides evenly.  t_end
    equal to initial.time yields a single-sample log.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    span = t_end - initial.time
    if span != 0.0 and span / cfg.dt <= 0.0:
        raise ValueError(
            f"t_end={t_end} not reachable from t={initial.time} with dt={cfg.dt}"
        )
    return _run(Stepper(initial, nl, g, cfg), span, sample_every, keep_states)


def resume_simulation(ckpt: Checkpoint, t_end: float, sample_every: int = 1,
                      keep_states: bool = False,
                      nl: Nonlinearity | None = None,
                      g: SourceTerm | None = None) -> TrajectoryLog:
    """Continue a checkpointed run (bit-for-bit with the original).

    Optional nl/g are cross-checked against the checkpoint and refused
    on mismatch; the checkpointed values are always the ones used.
    """
    if nl is not None and (nl.a3, nl.a2, nl.a1) != (ckpt.nl.a3, ckpt.nl.a2, ckpt.nl.a1):
        raise CheckpointMismatchError("nonlinearity does not match the checkpoint")
    if g is not None:
        if g.grid != ckpt.g.grid:
            raise CheckpointMismatchError("grid does not match the checkpoint")
        if not np.array_equal(g.g_modal.coeff, ckpt.g.g_modal.coeff):
            raise CheckpointMismatchError("source term does not match the checkpoint")
    return _run(Stepper.from_checkpoint(ckpt), t_end - ckpt.state.time, sample_every, keep_states)


def _run(stepper: Stepper, span: float, sample_every: int, keep_states: bool) -> TrajectoryLog:
    diag = default_diagnostic_params(stepper.nl)
    log = TrajectoryLog()
    _sample(log, stepper, 0.0, diag, keep_states)
    if span == 0.0:
        return log
    dt = stepper.cfg.dt
    n_steps = max(1, int(round(span / dt)))
    if abs(span / n_steps - dt) > 1e-9 * abs(dt):
        dt = span / n_steps  # snap to the horizon; cfg.dt when it divides evenly
    dissip = 0.0
    for n in range(1, n_steps + 1):
        dissip += stepper.advance(dt)
        if n % sample_every == 0 or n == n_steps:
            _sample(log, stepper, dissip, diag, keep_states)
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


def higher_energy_residual(log: TrajectoryLog) -> float:
    """max over interior samples of | dG/dt + G - H | with dG/dt by
    central differences; needs >= 3 uniformly spaced samples."""
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


# ---------------------------------------------------------------------------
# checkpoint files (.ckpt)
# ---------------------------------------------------------------------------

_CKPT_BLOCKS = ("u", "ut", "g", "fhat_prev")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """One JSON header line, then contiguous little-endian float64
    blocks as listed in header['blocks'] (u and ut always; the source
    term and, when present, the extrapolation history so a resumed run
    reproduces the original bitwise)."""
    blocks = ["u", "ut", "g"]
    if ckpt.fhat_prev is not None:
        blocks.append("fhat_prev")
    header = {
        "format": "sinech-checkpoint",
        "version": _CKPT_VERSION,
        "n_modes": ckpt.state.grid.n_modes,
        "side": ckpt.state.grid.side,
        "time": ckpt.state.time,
        "step_count": ckpt.step_count,
        "scheme": asdict(ckpt.cfg),
        "nonlinearity": asdict(ckpt.nl),
        "blocks": blocks,
    }
    arrays = {
        "u": ckpt.state.u.coeff,
        "ut": ckpt.state.v.coeff,
        "g": ckpt.g.g_modal.coeff,
        "fhat_prev": ckpt.fhat_prev,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in blocks:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def _from_header(cls, block: dict):
    """Rebuild a config dataclass from its header block; every field is
    required."""
    return cls(**{f.name: block[f.name] for f in fields(cls)})


def load_checkpoint(path) -> Checkpoint:
    """Read a .ckpt file.  A malformed header, block list or block raises
    FileFormatError; header keys the format does not use are ignored."""
    with open(path, "rb") as fh:
        raw = fh.readline()
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FileFormatError(f"{path}: bad checkpoint header") from exc
        if not isinstance(header, dict) or header.get("format") != "sinech-checkpoint":
            raise FileFormatError(f"{path}: not a checkpoint file")
        if header.get("version") != _CKPT_VERSION:
            raise CheckpointVersionError(
                f"{path}: version {header.get('version')} != {_CKPT_VERSION}"
            )
        try:
            n = int(header["n_modes"])
            grid = GridSpec(n, float(header["side"]))
            blocks = header["blocks"]
            if not set(_CKPT_BLOCKS[:3]) <= set(blocks) <= set(_CKPT_BLOCKS):
                raise FileFormatError(f"{path}: block list {blocks} is not u, ut, g "
                                      "and optionally fhat_prev")
            size = 8 * n * n
            blob = fh.read()  # what the file holds, not what a huge n_modes would claim
            if len(blob) < size * len(blocks):
                raise FileFormatError(f"{path}: truncated block '{blocks[len(blob) // size]}'")
            arrays = {name: np.frombuffer(blob, dtype="<f8", count=n * n, offset=i * size)
                      .reshape(n, n).copy() for i, name in enumerate(blocks)}
            return Checkpoint(
                state=State(ModalField(grid, arrays["u"]), ModalField(grid, arrays["ut"]),
                            float(header["time"])),
                cfg=_from_header(SchemeConfig, header["scheme"]),
                nl=_from_header(Nonlinearity, header["nonlinearity"]),
                g=SourceTerm(ModalField(grid, arrays["g"])),
                step_count=int(header["step_count"]),
                fhat_prev=arrays.get("fhat_prev"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FileFormatError(f"{path}: bad checkpoint header ({exc!r})") from exc
