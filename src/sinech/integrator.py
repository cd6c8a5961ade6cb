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

from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from .errors import (
    CheckpointMismatchError,
    CheckpointVersionError,
    InstabilityError,
    InsufficientDataError,
    StepFailureError,
)
from .model import (
    Nonlinearity,
    SourceTerm,
    diagnostic_F,
    energy,
    f_eval_dealiased,
    fprime_multiplier,
    higher_functionals,
    nonlinear_term_and_potential,
)
from .spectral import (GridSpec, ModalField, check_same_grid, eigenvalues, header_value,
                       norm_pair, read_binary, write_binary)

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
        # both functionals share one padded-grid set and the step's P_n f(u)
        fhat = stepper._ensure_current()[0]
        nodal = {}
        hf = higher_functionals(s, stepper.nl, stepper.g, nodal)
        self.t.append(s.time)
        self.norm0.append(norm_pair(s.u, s.v, 0.0))
        self.norm2.append(norm_pair(s.u, s.v, 2.0))
        self.ut_vprime.append(stepper.ut_vprime())
        self.energy.append(stepper.energy_total())
        self.cal_f.append(diagnostic_F(s, stepper.nl, stepper.g, nodal, fhat))
        self.cal_g.append(hf.g)
        self.cal_h.append(hf.h)
        self.dissip_cum.append(dissip_cum)
        self.final = s  # a reference: the stepper replaces its state, never mutates it

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
        return energy(self.state, self.nl, self.g, self._ensure_current()[1])

    def ut_vprime(self) -> float:
        """||u_t||_{V'} of the current state."""
        return float(np.sqrt(np.sum(self.state.v.coeff**2 / self.lam)))

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
        rise = energy(new, self.nl, self.g, pot_after) - e_before
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


def horizon_steps(span: float, dt: float) -> tuple[int, float]:
    """(n_steps, h) covering span: none for an empty span, else
    round(span/dt) >= 1 steps snapped to land on the horizon (h == dt when
    span divides evenly).  ValueError when dt points away from span."""
    if span == 0.0:
        return 0, dt
    if span / dt <= 0.0:
        raise ValueError(f"a span of {span} is not reachable with dt={dt}")
    n_steps = max(1, int(round(span / dt)))
    if abs(span / n_steps - dt) > 1e-9 * abs(dt):
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


def resume_simulation(ckpt: Checkpoint, t_end: float, sample_every: int = 1,
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
    log = TrajectoryLog()
    run(Stepper.from_checkpoint(ckpt), t_end, sample_every, log.record)
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


# ---------------------------------------------------------------------------
# checkpoint files (.ckpt)
# ---------------------------------------------------------------------------

# the sorted block lists a checkpoint may hold
_CKPT_LAYOUTS = (["g", "u", "ut"], ["fhat_prev", "g", "u", "ut"])


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write a .ckpt file (see spectral.write_binary): the blocks listed
    in header['blocks'] are u and ut, the source term and, when present,
    the extrapolation history, so a resumed run reproduces the original
    bitwise."""
    arrays = {"u": ckpt.state.u.coeff, "ut": ckpt.state.v.coeff, "g": ckpt.g.g_modal.coeff}
    if ckpt.fhat_prev is not None:
        arrays["fhat_prev"] = ckpt.fhat_prev
    header = {"format": "sinech-checkpoint", "version": _CKPT_VERSION,
              "n_modes": ckpt.state.grid.n_modes, "side": ckpt.state.grid.side,
              "time": ckpt.state.time, "step_count": ckpt.step_count,
              "scheme": asdict(ckpt.cfg), "nonlinearity": asdict(ckpt.nl), "blocks": list(arrays)}
    write_binary(path, header, arrays.values())


def _checkpoint_blocks(header: dict) -> list:
    """The block names of a checkpoint header, after its format and version."""
    if header.get("format") != "sinech-checkpoint":
        raise ValueError("not a checkpoint file")
    version = header.get("version")
    if type(version) is not int or version != _CKPT_VERSION:
        raise CheckpointVersionError(f"checkpoint version {version!r}, "
                                     f"this reader reads version {_CKPT_VERSION}")
    blocks = header["blocks"]
    if not isinstance(blocks, list) or sorted(blocks) not in _CKPT_LAYOUTS:
        raise ValueError(f"block list {blocks!r} is not u, ut, g and optionally fhat_prev")
    return blocks


def _from_header(cls, block: dict):
    """Rebuild a config dataclass from its header block; every field is
    required."""
    return cls(**{f.name: block[f.name] for f in fields(cls)})


def _checkpoint(header: dict, grid: GridSpec, blocks: dict) -> Checkpoint:
    """The checkpoint a header and its blocks describe."""
    return Checkpoint(
        state=State(ModalField(grid, blocks["u"]), ModalField(grid, blocks["ut"]),
                    header_value(header, "time", float)),
        cfg=_from_header(SchemeConfig, header["scheme"]),
        nl=_from_header(Nonlinearity, header["nonlinearity"]),
        g=SourceTerm(ModalField(grid, blocks["g"])),
        step_count=header_value(header, "step_count", int),
        fhat_prev=blocks.get("fhat_prev"),
    )


def load_checkpoint(path) -> Checkpoint:
    """Read a .ckpt file.  A malformed file raises FileFormatError (see
    spectral.read_binary), one of another format version
    CheckpointVersionError; header keys the format does not use are
    ignored."""
    return read_binary(path, _checkpoint_blocks, _checkpoint)
