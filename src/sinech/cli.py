"""Command-line front end: configuration, orchestration, outputs.

Subcommands wrap the integrator (`simulate`), the invariant suite
(`check`), and one wrapper per experiment (`converge`, `decompose`,
`equilibrium`, `lojasiewicz`, `absorb`, `lipschitz`).

Configuration is a single JSON document.  Each value is checked once,
against the type of its DEFAULTS entry and its key's range; defaults are
resolved, echoed into the run directory as config_effective.json, and
re-running from that echo reproduces the run byte for byte (no
timestamps are written anywhere).  Every report JSON goes through
_report.  Exit codes: 0 = pass, 1 = assertion or runtime failure,
2 = usage/config error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError, FileFormatError, StepFailureError, UnsupportedNonlinearityError
from .integrator import SchemeConfig, State, energy_equality_residual, horizon_steps, simulate
from .model import Nonlinearity, SourceTerm, check_assumptions
from .spectral import (GridSpec, ModalField, eigenvalue_power, inner, json_value, lambda_max,
                       load_field, modal_from_values, nodal_values, norm_Hs, padded_points,
                       quadrature_weight, random_band_limited, resample, save_field, sup_norm)

_FIELD_BLOCK = {
    "preset": "zero", "j": 1, "k": 1, "amp": 1.0,
    "band": 4, "amplitude": 1.0, "path": "",
}

DEFAULTS = {
    "grid": {"n_modes": 32, "side": math.pi},
    "nonlinearity": {"a3": 1.0, "a2": 0.0, "a1": -1.0},
    "source": {"preset": "zero", "j": 1, "k": 1, "amp": 1.0, "path": ""},
    "initial": {"u": dict(_FIELD_BLOCK), "ut": dict(_FIELD_BLOCK, preset="zero")},
    "scheme": {"dt": 1e-3, "scheme": "imex_cn_ab2", "newton_tol": 1e-10,
               "newton_max_iter": 30, "safeguard_tol": 1e-6},
    "t_end": 1.0,
    "sample_every": 1,
    "seed": 0,
    "output_dir": "sinech_out",
    "check": {"n_modes_list": [32, 64, 128]},
    "converge": {"resolutions": [16, 32, 64], "n_ref": 256, "t_star": 0.25,
                 "band": 8, "amplitude": 2.0},
    "decompose": {"big_l": 10.0, "t_end": 10.0, "max_doublings": 3},
    "equilibrium": {"tol": 1e-10, "max_iter": 50},
    "lojasiewicz": {"t_end": 200.0, "tol": 1e-6},
    "absorb": {"radii": [0.5, 1.0, 2.0], "n_per_radius": 3, "t_end": 40.0,
               "floor": 1e-3},
    "lipschitz": {"perturbation_scale": 1e-6, "t_end": 5.0},
}


# Ranges, by key; a list key's bound holds for every element.  The CLI
# runs forward in time only (dt > 0, t_end >= 0); a driver whose verdict
# compares samples over its horizon needs t_end > 0.
_POSITIVE = {
    "grid.n_modes", "grid.side", "scheme.dt", "scheme.newton_tol", "scheme.newton_max_iter",
    "sample_every", "check.n_modes_list", "converge.resolutions", "converge.n_ref",
    "converge.t_star", "converge.band", "decompose.big_l", "decompose.t_end",
    "equilibrium.tol", "absorb.radii", "absorb.n_per_radius", "absorb.t_end",
    "lipschitz.perturbation_scale", "lipschitz.t_end",
}
_NON_NEGATIVE = {
    "t_end", "seed", "scheme.safeguard_tol", "decompose.max_doublings", "equilibrium.max_iter",
    "lojasiewicz.t_end", "lojasiewicz.tol", "absorb.floor",
}


def _leaf(default, val, key: str):
    """The user's value at key, typed as its default by json_value, and
    checked against the key's range."""
    if isinstance(default, list):
        if not isinstance(val, list) or not val:
            raise ConfigError(f"expected a non-empty list, got {val!r}", key=key)
        return [_leaf(default[0], x, key) for x in val]
    val = json_value(val, type(default), key)
    if key in _POSITIVE and not val > 0:
        raise ConfigError(f"must be > 0, got {val!r}", key=key)
    if key in _NON_NEGATIVE and not val >= 0:
        raise ConfigError(f"must be >= 0, got {val!r}", key=key)
    return val


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    """Deep merge of the user's values into the defaults, each checked by
    _leaf; unknown keys are rejected.  Errors name the key."""
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError("unknown key", key=here)
        if isinstance(defaults[key], dict):
            if not isinstance(val, dict):
                raise ConfigError("expected an object", key=here)
            out[key] = _merge(defaults[key], val, here)
        else:
            out[key] = _leaf(defaults[key], val, here)
    return out


def _load_config(path: str | None) -> dict:
    """The user's config object, unchecked ({} without a file)."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        user = json.loads(p.read_text())
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return user


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build(cls, cfg: dict, block: str, **override):
    """cls(**cfg[block]) for a block whose keys are cls's fields, with
    override's values in place of the block's; a combination of values
    that cls refuses names the block."""
    try:
        return cls(**dict(cfg[block], **override))
    except ValueError as exc:
        raise ConfigError(str(exc), key=block) from exc


def _build_scheme(cfg: dict, span: float) -> SchemeConfig:
    """The scheme block, whose dt must cover span in at most 2**53 steps
    (see horizon_steps); a dt that cannot names scheme.dt."""
    scheme = _build(SchemeConfig, cfg, "scheme")
    try:
        horizon_steps(span, scheme.dt)
    except ValueError as exc:
        raise ConfigError(str(exc), key="scheme.dt") from exc
    return scheme


def _build_field(block: dict, grid: GridSpec, seed: int, label: str) -> ModalField:
    preset = block["preset"]
    if preset == "zero":
        return ModalField.zeros(grid)
    if preset == "single_mode":
        try:
            return ModalField.single_mode(grid, block["j"], block["k"], block["amp"])
        except IndexError as exc:
            bad = "j" if not 1 <= block["j"] <= grid.n_modes else "k"
            raise ConfigError(str(exc), key=f"{label}.{bad}") from exc
    if preset == "random_band":
        try:
            return random_band_limited(grid, block["band"], block["amplitude"], seed)
        except IndexError as exc:
            raise ConfigError(str(exc), key=f"{label}.band") from exc
    if preset == "file":
        if not block["path"]:
            raise ConfigError("preset 'file' needs a path", key=f"{label}.path")
        try:
            z, _, _ = load_field(block["path"])
        except (OSError, FileFormatError) as exc:
            raise ConfigError(str(exc), key=f"{label}.path") from exc
        if z.grid != grid:
            raise ConfigError(
                f"field grid {z.grid} does not match configured grid {grid}",
                key=f"{label}.path",
            )
        return z
    raise ConfigError(f"unknown preset {preset!r}", key=f"{label}.preset")


def _build_problem(cfg: dict) -> tuple[GridSpec, Nonlinearity, SourceTerm]:
    """The run's grid, nonlinearity and source, built in that order: of
    several bad blocks, the first in that order is the one named."""
    grid = _build(GridSpec, cfg, "grid")
    nl = _check_stiffness(_build(Nonlinearity, cfg, "nonlinearity"), grid)
    return grid, nl, _build_source(cfg, grid)


def _check_stiffness(nl: Nonlinearity, grid: GridSpec) -> Nonlinearity:
    """nl, unless a3 or a1 times the grid's largest eigenvalue overflows: a
    step weighs P_n f(u) by the eigenvalues, so such a run could only
    overflow on its first step.  The coefficient is named.  (a2 cannot:
    Nonlinearity keeps a2^2 finite, and GridSpec the eigenvalue cubes.)"""
    lam = lambda_max(grid)
    for key in ("a3", "a1"):
        if not lam * abs(getattr(nl, key)) < math.inf:
            raise ConfigError(f"{key}={getattr(nl, key):g} times the largest eigenvalue "
                              f"{lam:g} of n_modes {grid.n_modes} overflows",
                              key=f"nonlinearity.{key}")
    return nl


def _build_source(cfg: dict, grid: GridSpec) -> SourceTerm:
    if cfg["source"]["preset"] not in ("zero", "single_mode", "file"):
        raise ConfigError(f"unknown preset {cfg['source']['preset']!r}",
                          key="source.preset")
    return SourceTerm(_build_field(cfg["source"], grid, cfg["seed"], "source"))


def _build_state(cfg: dict, grid: GridSpec) -> State:
    u = _build_field(cfg["initial"]["u"], grid, cfg["seed"], "initial.u")
    ut = _build_field(cfg["initial"]["ut"], grid, cfg["seed"] + 1, "initial.ut")
    return State(u, ut)


def _report(kind: str, rep=None, **extra) -> dict:
    """The JSON form of every report: schema, kind, each dataclass field
    of rep (tuples as lists; ModalFields are left out) and the extras."""
    out = {"schema": 1, "kind": kind}
    for f in fields(rep) if rep is not None else ():
        val = getattr(rep, f.name)
        if not isinstance(val, ModalField):
            out[f.name] = list(val) if isinstance(val, tuple) else val
    out.update(extra)
    return out


def _equilibrium_report(res: analysis.EquilibriumResult) -> dict:
    return _report("equilibrium", res, norm_V=norm_Hs(res.u_star, 0.5),
                   sup_norm=sup_norm(res.u_star))


def _write_json(path: Path, obj: dict) -> None:
    obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)  # non-finite floats as null
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _say(args, *msg) -> None:
    if not args.quiet:
        print(*msg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, outdir: Path, args) -> int:
    grid, nl, g = _build_problem(cfg)
    state = _build_state(cfg, grid)
    scheme = _build_scheme(cfg, cfg["t_end"])
    log = simulate(state, nl, g, scheme, cfg["t_end"], sample_every=cfg["sample_every"])
    final = log.final
    log.write_csv(outdir / "trajectory.csv")
    save_field(outdir / "final_u.mfld", final.u, final.time, "u")
    save_field(outdir / "final_ut.mfld", final.v, final.time, "ut")
    _write_json(outdir / "summary.json", _report(
        "simulate", t_final=log.t[-1], norm0_final=log.norm0[-1], norm2_final=log.norm2[-1],
        energy_initial=log.energy[0], energy_final=log.energy[-1],
        dissipation_integral=log.dissip_cum[-1], samples=len(log),
    ))
    _say(args, f"simulate: {len(log)} samples to t={log.t[-1]:g}, "
               f"energy {log.energy[0]:.6g} -> {log.energy[-1]:.6g}")
    return 0


def _check_parseval(grid: GridSpec, rng) -> tuple[float, bool]:
    # on the 2N grid every quadrature of the package uses; on the field's
    # own grid the top mode would weigh 2 per axis
    m = padded_points(grid.n_modes, 2)
    worst = 0.0
    for _ in range(5):
        z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
        quad = quadrature_weight(grid.side, m) * float(np.sum(nodal_values(z, m) ** 2))
        n2 = norm_Hs(z, 0.0) ** 2
        worst = max(worst, abs(n2 - quad) / n2)
    return worst, worst <= 1e-10


def _check_roundtrip(grid: GridSpec, rng) -> tuple[float, bool]:
    worst = 0.0
    for _ in range(5):
        w = rng.standard_normal(grid.shape)
        back = nodal_values(ModalField(grid, modal_from_values(w, grid.side)))
        worst = max(worst, float(np.abs(back - w).max() / np.abs(w).max()))
    return worst, worst <= 1e-12


def _check_power_group(grid: GridSpec, rng) -> tuple[float, bool]:
    """A^s A^t z = A^(s+t) z, both by the eigenvalue_power tables the solver weighs by."""
    z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
    worst = 0.0
    for s in (-2.0, -0.7, 0.0, 1.3, 2.0):
        for t in (-2.0, 0.5, 2.0):
            lhs = ModalField(grid, z.coeff * eigenvalue_power(grid, s) * eigenvalue_power(grid, t))
            rhs = ModalField(grid, z.coeff * eigenvalue_power(grid, s + t))
            scale = max(norm_Hs(rhs, 0.0), 1e-300)
            worst = max(worst, norm_Hs(lhs - rhs, 0.0) / scale)
    return worst, worst <= 1e-12


def _check_projector(grid: GridSpec, rng) -> tuple[float, bool]:
    """P_m z is orthogonal to z - P_m z, with P_m the truncation by resample
    that galerkin_convergence runs."""
    z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
    worst = 0.0
    for m in (1, max(1, grid.n_modes // 2), grid.n_modes):
        pz = resample(resample(z, m), grid.n_modes)
        worst = max(worst, abs(inner(pz, z - pz)) / norm_Hs(z, 0.0) ** 2)
    return worst, worst <= 1e-12


def _check_bg_scale(grid: GridSpec, rng) -> tuple[float, bool]:
    z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
    base = analysis.bg_ratio(z)
    worst = max(abs(analysis.bg_ratio(z * c) - base) / base for c in (1e-3, 1.0, 1e3))
    return worst, worst <= 1e-10


def _check_energy_orders() -> tuple[float, bool]:
    """Energy-equality residual on the linear single-mode problem must
    shrink at second order across dt halvings and be small outright."""
    grid = GridSpec(4, math.pi)
    nl0 = Nonlinearity(0.0, 0.0, 0.0)
    g0 = SourceTerm.zero(grid)
    residuals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        st = State(ModalField.single_mode(grid, 1, 1, 0.25), ModalField.zeros(grid))
        log = simulate(st, nl0, g0, SchemeConfig(dt=dt), 1.0)
        residuals.append(energy_equality_residual(log, 0, len(log) - 1))
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    ok = min(orders) >= 1.8 and residuals[-1] <= 1e-6
    return min(orders), ok


def cmd_check(cfg: dict, outdir: Path, args) -> int:
    nl = _build(Nonlinearity, cfg, "nonlinearity")
    rng = np.random.default_rng(cfg["seed"])
    n_modes_list = cfg["check"]["n_modes_list"]
    per_grid = {
        "parseval": _check_parseval,
        "roundtrip": _check_roundtrip,
        "power_group": _check_power_group,
        "projector": _check_projector,
        "bg_scale": _check_bg_scale,
    }
    rows = []
    for n in n_modes_list:
        grid = _build(GridSpec, cfg, "grid", n_modes=n)
        for name, fn in per_grid.items():
            if args.only and args.only != name:
                continue
            value, ok = fn(grid, rng)
            rows.append({"check": name, "n_modes": n, "value": value, "pass": ok})
    if not args.only or args.only == "assumptions":
        grid = _build(GridSpec, cfg, "grid", n_modes=n_modes_list[0])
        try:
            ok = check_assumptions(nl, grid).all_valid
        except UnsupportedNonlinearityError:  # the linear case a3 = 0 has no cubic bounds to verify
            ok = False
        rows.append({"check": "assumptions", "n_modes": grid.n_modes,
                     "value": 0.0 if ok else 1.0, "pass": ok})
    if not args.only or args.only == "energy_orders":
        value, ok = _check_energy_orders()
        rows.append({"check": "energy_orders", "n_modes": 4, "value": value, "pass": ok})
    if args.only and not rows:
        raise ConfigError(f"unknown check {args.only!r}", key="--only")
    all_pass = all(r["pass"] for r in rows)
    _write_json(outdir / "check_report.json", _report("check", all_pass=all_pass, rows=rows))
    if not args.quiet:
        for r in rows:
            mark = "PASS" if r["pass"] else "FAIL"
            print(f"{mark}  {r['check']:<14} N={r['n_modes']:<4} value={r['value']:.3e}")
        print("all checks passed" if all_pass else "CHECK FAILURES PRESENT")
    return 0 if all_pass else 1


def cmd_converge(cfg: dict, outdir: Path, args) -> int:
    block = cfg["converge"]
    resolutions, n_ref, band = block["resolutions"], block["n_ref"], block["band"]
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError("resolutions must be strictly increasing", key="converge.resolutions")
    if n_ref < 2 * max(resolutions):
        raise ConfigError(f"n_ref={n_ref} must be at least 2*max(resolutions)="
                          f"{2 * max(resolutions)}", key="converge.n_ref")
    if band > min(resolutions):
        raise ConfigError("band must not exceed the coarsest resolution",
                          key="converge.band")
    nl = _build(Nonlinearity, cfg, "nonlinearity")
    _check_stiffness(nl, _build(GridSpec, cfg, "grid", n_modes=n_ref))  # the finest grid of the run
    coarse = _build(GridSpec, cfg, "grid", n_modes=min(resolutions))
    initial = State(random_band_limited(coarse, band, block["amplitude"], cfg["seed"]),
                    ModalField.zeros(coarse))
    g = _build_source(cfg, coarse)
    rep = analysis.galerkin_convergence(initial, nl, g, _build_scheme(cfg, block["t_star"]),
                                        resolutions, n_ref, block["t_star"])
    _write_json(outdir / "convergence.json", _report("galerkin_convergence", rep))
    finite = [x for x in rep.gaps if math.isfinite(x)]
    monotone = all(b < a for a, b in zip(finite, finite[1:]))
    ok = not rep.failed and monotone
    _say(args, f"converge: gaps={['%.3e' % x for x in rep.gaps]} q={rep.fitted_exponent:.3f}")
    return 0 if ok else 1


def cmd_decompose(cfg: dict, outdir: Path, args) -> int:
    block = cfg["decompose"]
    grid, nl, g = _build_problem(cfg)
    initial = _build_state(cfg, grid)
    scheme = _build_scheme(cfg, block["t_end"])
    if scheme.scheme != "imex_cn_ab2":  # v and w step by the IMEX step's tables
        raise ConfigError("decompose runs the imex_cn_ab2 scheme only", key="scheme.scheme")
    # the retries may double L max_doublings times, and v and w step on lam^2 + L
    big_l, doublings = block["big_l"], block["max_doublings"]
    if (math.frexp(big_l)[1] + doublings > 1024  # big_l * 2**doublings >= 2**1024
            or math.ldexp(big_l, doublings) + lambda_max(grid) ** 2 == math.inf):
        raise ConfigError(f"{big_l:g} doubled {doublings} times overflows", key="decompose.big_l")
    run = analysis.decompose_with_retries(initial, nl, g, scheme, big_l, block["t_end"],
                                          max_doublings=doublings)
    _write_json(outdir / "decomposition.json", _report("decomposition", run))
    ok = run.sum_error_rel <= 1e-9 and run.decays
    _say(args, f"decompose: L={run.big_l:g} kappa={run.fitted_kappa:.4f} "
               f"R2={run.fit_r2:.4f} sum_error={run.sum_error:.2e}")
    return 0 if ok else 1


def cmd_equilibrium(cfg: dict, outdir: Path, args) -> int:
    block = cfg["equilibrium"]
    grid, nl, g = _build_problem(cfg)
    seed_field = _build_field(cfg["initial"]["u"], grid, cfg["seed"], "initial.u")
    res = analysis.find_equilibrium(seed_field, nl, g, tol=block["tol"],
                                    max_iter=block["max_iter"])
    save_field(outdir / "u_star.mfld", res.u_star, 0.0, "equilibrium")
    _write_json(outdir / "equilibrium.json", _equilibrium_report(res))
    _say(args, f"equilibrium: residual={res.residual:.2e} iters={res.newton_iters} "
               f"stability={res.stability_indicator:.4f}")
    return 0 if res.converged else 1


def cmd_lojasiewicz(cfg: dict, outdir: Path, args) -> int:
    block = cfg["lojasiewicz"]
    grid, nl, g = _build_problem(cfg)
    initial = _build_state(cfg, grid)
    rep = analysis.lojasiewicz_probe(initial, nl, g, _build_scheme(cfg, block["t_end"]),
                                     block["t_end"], tol=block["tol"])
    save_field(outdir / "u_star.mfld", rep.equilibrium.u_star, 0.0, "equilibrium")
    _write_json(outdir / "lojasiewicz.json", _report(
        "lojasiewicz", rep, equilibrium=_equilibrium_report(rep.equilibrium)))
    ok = rep.tol_reached and rep.energy_gap >= -1e-10
    if rep.started_at_rest:
        _say(args, "lojasiewicz: the start is already an equilibrium at rest (u_t = 0 and u "
                   "meets the equilibrium tolerance), so no step was run: it tests no convergence")
    _say(args, f"lojasiewicz: |u_t|={rep.ut_final:.2e} dist_V={rep.distance_v:.2e} "
               f"gap={rep.energy_gap:.2e}")
    return 0 if ok else 1


def cmd_absorb(cfg: dict, outdir: Path, args) -> int:
    block = cfg["absorb"]
    grid, nl, g = _build_problem(cfg)
    rep = analysis.absorbing_probe(
        block["radii"], block["n_per_radius"], nl, g, _build_scheme(cfg, block["t_end"]),
        block["t_end"], seed=cfg["seed"], floor=block["floor"],
    )
    _write_json(outdir / "absorbing.json", _report("absorbing", rep))
    branch = "every tail below the floor" if rep.below_floor else f"tail ratio {rep.ratio:.3g}"
    _say(args, f"absorb: status={rep.status} ({branch}) "
               f"tail_sup0={['%.3e' % x for x in rep.tail_sup0]}")
    return 0 if rep.status in ("pass", "inconclusive") else 1


def cmd_lipschitz(cfg: dict, outdir: Path, args) -> int:
    block = cfg["lipschitz"]
    grid, nl, g = _build_problem(cfg)
    initial = _build_state(cfg, grid)
    scheme = _build_scheme(cfg, block["t_end"])
    scale, t_end, seed = block["perturbation_scale"], block["t_end"], cfg["seed"] + 13
    try:
        rep = analysis.lipschitz_dependence(initial, scale, nl, g, scheme, t_end, seed=seed)
    except ValueError as exc:  # a perturbation too small to measure
        raise ConfigError(str(exc), key="lipschitz.perturbation_scale") from exc
    _write_json(outdir / "lipschitz.json", _report("lipschitz", rep))
    _say(args, f"lipschitz: c7={rep.c7:.4f} (half-scale {rep.c7_half_scale:.4f}) "
               f"max_rho={rep.max_rho:.4g}")
    return 0 if rep.c7_stable and not rep.super_exponential_flag else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "converge": cmd_converge,
    "decompose": cmd_decompose,
    "equilibrium": cmd_equilibrium,
    "lojasiewicz": cmd_lojasiewicz,
    "absorb": cmd_absorb,
    "lipschitz": cmd_lipschitz,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinech",
        description="Pseudo-spectral simulator and verification toolkit for the "
                    "2D Cahn-Hilliard equation with inertia.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config (defaults if omitted)")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
        if name == "check":
            p.add_argument("--only", default=None, help="run a single named check")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        flags = {"seed": args.seed, "output_dir": args.output_dir}
        cfg = _merge(_merge(DEFAULTS, _load_config(args.config)),
                     {key: val for key, val in flags.items() if val is not None})
        outdir = Path(cfg["output_dir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {str(outdir)!r} as a directory ({exc.strerror})",
                              key="output_dir") from exc
        _write_json(outdir / "config_effective.json", cfg)
        return _COMMANDS[args.command](cfg, outdir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepFailureError as exc:
        where = [f"step {exc.step}"] if exc.step is not None else []
        where += [f"t={exc.time:g}"] if exc.time is not None else []
        where += [f"last residual {exc.residual_history[-1]:.3e}"] if exc.residual_history else []
        print(f"run failed: {exc}" + (f" ({', '.join(where)})" if where else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
