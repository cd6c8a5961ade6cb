"""Command-line front end: configuration, orchestration, outputs.

Subcommands wrap the integrator (`simulate`), the invariant suite
(`check`), and one wrapper per experiment (`converge`, `decompose`,
`equilibrium`, `lojasiewicz`, `absorb`, `lipschitz`).

Configuration is a single JSON document; defaults are resolved, echoed
into the run directory as config_effective.json, and re-running from
that echo reproduces the run byte for byte (no timestamps are written
anywhere).  Exit codes: 0 = pass, 1 = assertion or runtime failure,
2 = usage/config error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .errors import (
    ConfigError,
    FileFormatError,
    InstabilityError,
    StepFailureError,
    UnsupportedNonlinearityError,
)
from .integrator import (
    SchemeConfig,
    State,
    energy_equality_residual,
    simulate,
)
from .model import Nonlinearity, SourceTerm, check_assumptions
from .spectral import (
    GridSpec,
    ModalField,
    NodalField,
    apply_power,
    forward_transform,
    inner,
    inverse_transform,
    load_field,
    nodal_values,
    norm_Hs,
    project,
    quadrature_weight,
    random_band_limited,
    save_field,
)

_FIELD_BLOCK = {
    "preset": "zero", "j": 1, "k": 1, "amp": 1.0,
    "band": 4, "amplitude": 1.0, "seed": None, "path": None,
}

DEFAULTS = {
    "grid": {"n_modes": 32, "side": math.pi},
    "nonlinearity": {"a3": 1.0, "a2": 0.0, "a1": -1.0,
                     "lambda_bound": None, "m_bound": None, "r0": None},
    "source": {"preset": "zero", "j": 1, "k": 1, "amp": 1.0, "path": None},
    "initial": {"u": dict(_FIELD_BLOCK), "ut": dict(_FIELD_BLOCK, preset="zero")},
    "scheme": {"dt": 1e-3, "scheme": "imex_cn_ab2", "newton_tol": 1e-10,
               "newton_max_iter": 30, "safeguard_tol": 1e-6},
    "t_end": 1.0,
    "sample_every": 1,
    "seed": 0,
    "output_dir": "sinech_out",
    "check": {"n_modes_list": [32, 64, 128]},
    "converge": {"resolutions": [16, 32, 64], "n_ref": 256, "t_star": 0.25,
                 "band": 8, "amplitude": 2.0, "sample_every": 10},
    "decompose": {"big_l": 10.0, "t_end": 10.0, "max_doublings": 3},
    "equilibrium": {"tol": 1e-10, "max_iter": 50},
    "lojasiewicz": {"t_end": 200.0, "tol": 1e-6},
    "absorb": {"radii": [0.5, 1.0, 2.0], "n_per_radius": 3, "t_end": 40.0,
               "floor": 1e-3},
    "lipschitz": {"perturbation_scale": 1e-6, "t_end": 5.0},
}


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    """Deep merge with unknown-key rejection; errors name the key."""
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError("unknown key", key=here)
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(val, dict):
                raise ConfigError("expected an object", key=here)
            out[key] = _merge(defaults[key], val, here)
        else:
            out[key] = val
    return out


def _load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULTS)
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        user = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULTS, user)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _typed(kind, value, key: str):
    """kind(value) for the config value at key; a value of the wrong type,
    or a float that is not finite, is a ConfigError naming the key."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", key=key) from exc
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"expected a finite number, got {value!r}", key=key)
    return out


def _typed_list(kind, value, key: str) -> list:
    """[kind(x) for x in value], checked as _typed does."""
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}", key=key)
    return [_typed(kind, x, key) for x in value]


def _build_grid(cfg: dict) -> GridSpec:
    block = cfg["grid"]
    n_modes = _typed(int, block["n_modes"], "grid.n_modes")
    side = _typed(float, block["side"], "grid.side")
    try:
        return GridSpec(n_modes, side)
    except ValueError as exc:
        raise ConfigError(str(exc), key="grid") from exc


def _build_nl(cfg: dict) -> Nonlinearity:
    block = cfg["nonlinearity"]
    coef = [_typed(float, block[name], f"nonlinearity.{name}") for name in ("a3", "a2", "a1")]
    kw = {}
    for name in ("lambda_bound", "m_bound", "r0"):
        if block[name] is not None:
            kw[name] = _typed(float, block[name], f"nonlinearity.{name}")
    try:
        return Nonlinearity(*coef, **kw)
    except UnsupportedNonlinearityError as exc:
        raise ConfigError(str(exc), key="nonlinearity") from exc


def _build_scheme(cfg: dict) -> SchemeConfig:
    block = cfg["scheme"]
    kw = {name: _typed(kind, block[name], f"scheme.{name}")
          for name, kind in (("dt", float), ("scheme", str), ("newton_tol", float),
                             ("newton_max_iter", int), ("safeguard_tol", float))}
    try:
        return SchemeConfig(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc), key="scheme") from exc


def _build_field(block: dict, grid: GridSpec, default_seed: int, label: str) -> ModalField:
    preset = block["preset"]
    if preset == "zero":
        return ModalField.zeros(grid)
    if preset == "single_mode":
        try:
            return ModalField.single_mode(grid, _typed(int, block["j"], f"{label}.j"),
                                          _typed(int, block["k"], f"{label}.k"),
                                          _typed(float, block["amp"], f"{label}.amp"))
        except IndexError as exc:
            raise ConfigError(str(exc), key=f"{label}.j") from exc
    if preset == "random_band":
        seed = (default_seed if block["seed"] is None
                else _typed(int, block["seed"], f"{label}.seed"))
        band = _typed(int, block["band"], f"{label}.band")
        amplitude = _typed(float, block["amplitude"], f"{label}.amplitude")
        try:
            return random_band_limited(grid, band, amplitude, seed)
        except IndexError as exc:
            raise ConfigError(str(exc), key=f"{label}.band") from exc
    if preset == "file":
        if not block["path"] or not isinstance(block["path"], str):
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


def _build_source(cfg: dict, grid: GridSpec) -> SourceTerm:
    if cfg["source"]["preset"] not in ("zero", "single_mode", "file"):
        raise ConfigError(f"unknown preset {cfg['source']['preset']!r}",
                          key="source.preset")
    block = dict(cfg["source"], band=1, amplitude=0.0, seed=None)
    return SourceTerm(_build_field(block, grid, cfg["seed"], "source"))


def _build_state(cfg: dict, grid: GridSpec) -> State:
    seed = _typed(int, cfg["seed"], "seed")
    u = _build_field(cfg["initial"]["u"], grid, seed, "initial.u")
    ut = _build_field(cfg["initial"]["ut"], grid, seed + 1, "initial.ut")
    return State(u, ut)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _say(args, *msg) -> None:
    if not args.quiet:
        print(*msg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, outdir: Path, args) -> int:
    grid = _build_grid(cfg)
    nl = _build_nl(cfg)
    g = _build_source(cfg, grid)
    state = _build_state(cfg, grid)
    scheme = _build_scheme(cfg)
    log = simulate(state, nl, g, scheme, _typed(float, cfg["t_end"], "t_end"),
                   sample_every=_typed(int, cfg["sample_every"], "sample_every"))
    final = log.final
    log.write_csv(outdir / "trajectory.csv")
    save_field(outdir / "final_u.mfld", final.u, final.time, "u")
    save_field(outdir / "final_ut.mfld", final.v, final.time, "ut")
    _write_json(outdir / "summary.json", {
        "schema": 1,
        "kind": "simulate",
        "t_final": log.t[-1],
        "norm0_final": log.norm0[-1],
        "norm2_final": log.norm2[-1],
        "energy_initial": log.energy[0],
        "energy_final": log.energy[-1],
        "dissipation_integral": log.dissip_cum[-1],
        "samples": len(log),
    })
    _say(args, f"simulate: {len(log)} samples to t={log.t[-1]:g}, "
               f"energy {log.energy[0]:.6g} -> {log.energy[-1]:.6g}")
    return 0


def _check_parseval(grid: GridSpec, rng) -> tuple[float, bool]:
    worst = 0.0
    for _ in range(5):
        z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
        quad = quadrature_weight(grid.side, grid.n_modes) * float(
            np.sum(nodal_values(z) ** 2)
        )
        n2 = norm_Hs(z, 0.0) ** 2
        worst = max(worst, abs(n2 - quad) / n2)
    return worst, worst <= 1e-10


def _check_roundtrip(grid: GridSpec, rng) -> tuple[float, bool]:
    worst = 0.0
    for _ in range(5):
        w = rng.standard_normal(grid.shape)
        back = inverse_transform(forward_transform(NodalField(grid, w)))
        worst = max(worst, float(np.abs(back.values - w).max() / np.abs(w).max()))
    return worst, worst <= 1e-12


def _check_power_group(grid: GridSpec, rng) -> tuple[float, bool]:
    z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
    worst = 0.0
    for s in (-2.0, -0.7, 0.0, 1.3, 2.0):
        for t in (-2.0, 0.5, 2.0):
            lhs = apply_power(apply_power(z, s), t)
            rhs = apply_power(z, s + t)
            scale = max(norm_Hs(rhs, 0.0), 1e-300)
            worst = max(worst, norm_Hs(lhs - rhs, 0.0) / scale)
    return worst, worst <= 1e-12


def _check_projector(grid: GridSpec, rng) -> tuple[float, bool]:
    z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
    worst = 0.0
    for m in (1, max(1, grid.n_modes // 2), grid.n_modes):
        pz = project(z, m)
        worst = max(worst, abs(inner(pz, z - pz)) / norm_Hs(z, 0.0) ** 2)
    return worst, worst <= 1e-12


def _check_bg_scale(grid: GridSpec, rng) -> tuple[float, bool]:
    z = random_band_limited(grid, grid.n_modes, 1.0, int(rng.integers(2**31)))
    base = analysis.bg_ratio(z)
    worst = max(abs(analysis.bg_ratio(z * c) - base) / base for c in (1e-3, 1.0, 1e3))
    return worst, worst <= 1e-10


def _check_assumptions_entry(nl: Nonlinearity, grid: GridSpec) -> tuple[float, bool]:
    rep = check_assumptions(nl, grid)
    return (0.0 if rep.all_valid else 1.0), rep.all_valid


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
    nl = _build_nl(cfg)
    rng = np.random.default_rng(_typed(int, cfg["seed"], "seed"))
    side = _typed(float, cfg["grid"]["side"], "grid.side")
    n_modes_list = _typed_list(int, cfg["check"]["n_modes_list"], "check.n_modes_list")
    per_grid = {
        "parseval": _check_parseval,
        "roundtrip": _check_roundtrip,
        "power_group": _check_power_group,
        "projector": _check_projector,
        "bg_scale": _check_bg_scale,
    }
    rows = []
    for n in n_modes_list:
        grid = GridSpec(n, side)
        for name, fn in per_grid.items():
            if args.only and args.only != name:
                continue
            value, ok = fn(grid, rng)
            rows.append({"check": name, "n_modes": n, "value": value, "pass": ok})
    if not args.only or args.only == "assumptions":
        grid = GridSpec(n_modes_list[0], side)
        value, ok = _check_assumptions_entry(nl, grid)
        rows.append({"check": "assumptions", "n_modes": grid.n_modes,
                     "value": value, "pass": ok})
    if not args.only or args.only == "energy_orders":
        value, ok = _check_energy_orders()
        rows.append({"check": "energy_orders", "n_modes": 4, "value": value, "pass": ok})
    if args.only and not rows:
        raise ConfigError(f"unknown check {args.only!r}", key="--only")
    all_pass = all(r["pass"] for r in rows)
    _write_json(outdir / "check_report.json",
                {"schema": 1, "kind": "check", "all_pass": all_pass, "rows": rows})
    if not args.quiet:
        for r in rows:
            mark = "PASS" if r["pass"] else "FAIL"
            print(f"{mark}  {r['check']:<14} N={r['n_modes']:<4} value={r['value']:.3e}")
        print("all checks passed" if all_pass else "CHECK FAILURES PRESENT")
    return 0 if all_pass else 1


def cmd_converge(cfg: dict, outdir: Path, args) -> int:
    block = cfg["converge"]
    resolutions = _typed_list(int, block["resolutions"], "converge.resolutions")
    n_ref = _typed(int, block["n_ref"], "converge.n_ref")
    if not resolutions or any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError("resolutions must be strictly increasing", key="converge.resolutions")
    if n_ref < 2 * max(resolutions):
        raise ConfigError(
            f"n_ref={n_ref} must be at least 2*max(resolutions)={2 * max(resolutions)}",
            key="converge.n_ref",
        )
    band = _typed(int, block["band"], "converge.band")
    if band > min(resolutions):
        raise ConfigError("band must not exceed the coarsest resolution",
                          key="converge.band")
    side = _typed(float, cfg["grid"]["side"], "grid.side")
    nl = _build_nl(cfg)
    coarse = GridSpec(min(resolutions), side)
    initial = State(
        random_band_limited(coarse, band, _typed(float, block["amplitude"], "converge.amplitude"),
                            _typed(int, cfg["seed"], "seed")),
        ModalField.zeros(coarse),
    )
    g = _build_source(cfg, coarse)
    rep = analysis.galerkin_convergence(
        initial, nl, g, _build_scheme(cfg), resolutions, n_ref,
        _typed(float, block["t_star"], "converge.t_star"),
        sample_every=_typed(int, block["sample_every"], "converge.sample_every"),
    )
    _write_json(outdir / "convergence.json", rep.to_dict())
    finite = [x for x in rep.gaps if math.isfinite(x)]
    monotone = all(b < a for a, b in zip(finite, finite[1:]))
    ok = not rep.failed and monotone
    _say(args, f"converge: gaps={['%.3e' % x for x in rep.gaps]} q={rep.fitted_exponent:.3f}")
    return 0 if ok else 1


def cmd_decompose(cfg: dict, outdir: Path, args) -> int:
    block = cfg["decompose"]
    grid = _build_grid(cfg)
    nl = _build_nl(cfg)
    g = _build_source(cfg, grid)
    initial = _build_state(cfg, grid)
    run = analysis.decompose_with_retries(
        initial, nl, g, _build_scheme(cfg), _typed(float, block["big_l"], "decompose.big_l"),
        _typed(float, block["t_end"], "decompose.t_end"),
        max_doublings=_typed(int, block["max_doublings"], "decompose.max_doublings"),
    )
    _write_json(outdir / "decomposition.json", run.to_dict())
    ok = run.sum_error_rel <= 1e-9 and run.fitted_kappa > 0 and run.fit_r2 >= 0.9
    _say(args, f"decompose: L={run.big_l:g} kappa={run.fitted_kappa:.4f} "
               f"R2={run.fit_r2:.4f} sum_error={run.sum_error:.2e}")
    return 0 if ok else 1


def cmd_equilibrium(cfg: dict, outdir: Path, args) -> int:
    block = cfg["equilibrium"]
    grid = _build_grid(cfg)
    nl = _build_nl(cfg)
    g = _build_source(cfg, grid)
    seed_field = _build_field(cfg["initial"]["u"], grid, _typed(int, cfg["seed"], "seed"),
                              "initial.u")
    res = analysis.find_equilibrium(
        seed_field, nl, g, tol=_typed(float, block["tol"], "equilibrium.tol"),
        max_iter=_typed(int, block["max_iter"], "equilibrium.max_iter"),
    )
    save_field(outdir / "u_star.mfld", res.u_star, 0.0, "equilibrium")
    _write_json(outdir / "equilibrium.json", res.to_dict())
    _say(args, f"equilibrium: residual={res.residual:.2e} iters={res.newton_iters} "
               f"stability={res.stability_indicator:.4f}")
    return 0 if res.converged else 1


def cmd_lojasiewicz(cfg: dict, outdir: Path, args) -> int:
    block = cfg["lojasiewicz"]
    grid = _build_grid(cfg)
    nl = _build_nl(cfg)
    g = _build_source(cfg, grid)
    initial = _build_state(cfg, grid)
    rep = analysis.lojasiewicz_probe(initial, nl, g, _build_scheme(cfg),
                                     _typed(float, block["t_end"], "lojasiewicz.t_end"),
                                     tol=_typed(float, block["tol"], "lojasiewicz.tol"))
    save_field(outdir / "u_star.mfld", rep.equilibrium.u_star, 0.0, "equilibrium")
    _write_json(outdir / "lojasiewicz.json", rep.to_dict())
    ok = rep.tol_reached and rep.energy_gap >= -1e-10
    _say(args, f"lojasiewicz: |u_t|={rep.ut_final:.2e} dist_V={rep.distance_v:.2e} "
               f"gap={rep.energy_gap:.2e}")
    return 0 if ok else 1


def cmd_absorb(cfg: dict, outdir: Path, args) -> int:
    block = cfg["absorb"]
    grid = _build_grid(cfg)
    nl = _build_nl(cfg)
    g = _build_source(cfg, grid)
    rep = analysis.absorbing_probe(
        _typed_list(float, block["radii"], "absorb.radii"),
        _typed(int, block["n_per_radius"], "absorb.n_per_radius"), nl, g,
        _build_scheme(cfg), _typed(float, block["t_end"], "absorb.t_end"),
        seed=_typed(int, cfg["seed"], "seed"), floor=_typed(float, block["floor"], "absorb.floor"),
    )
    _write_json(outdir / "absorbing.json", rep.to_dict())
    _say(args, f"absorb: status={rep.status} tail_sup0={['%.3e' % x for x in rep.tail_sup0]}")
    return 0 if rep.status in ("pass", "inconclusive") else 1


def cmd_lipschitz(cfg: dict, outdir: Path, args) -> int:
    block = cfg["lipschitz"]
    grid = _build_grid(cfg)
    nl = _build_nl(cfg)
    g = _build_source(cfg, grid)
    initial = _build_state(cfg, grid)
    scheme = _build_scheme(cfg)
    scale = _typed(float, block["perturbation_scale"], "lipschitz.perturbation_scale")
    t_end = _typed(float, block["t_end"], "lipschitz.t_end")
    seed = _typed(int, cfg["seed"], "seed") + 13
    full = analysis.lipschitz_dependence(initial, scale, nl, g, scheme, t_end, seed=seed)
    half = analysis.lipschitz_dependence(initial, scale / 2.0, nl, g, scheme, t_end, seed=seed)
    stable = abs(full.c7 - half.c7) <= 0.1 * max(abs(full.c7), abs(half.c7)) + 1e-3
    # super-exponential growth: the late-window rate outrunning the
    # early-window rate while positive
    t_arr = np.asarray(full.times)
    r_arr = np.asarray(full.rho)
    t0 = t_arr[0]
    span = t_arr[-1] - t0
    early_mask = (t_arr >= t0 + 0.25 * span) & (t_arr <= t0 + 0.5 * span)
    c7_early, _, _ = analysis._log_linear_fit(t_arr[early_mask], r_arr[early_mask])
    flagged = full.c7 > 0 and full.c7 > c7_early + max(0.2 * abs(c7_early), 0.05)
    out = full.to_dict()
    out["c7_half_scale"] = half.c7
    out["c7_stable"] = stable
    out["super_exponential_flag"] = bool(flagged)
    _write_json(outdir / "lipschitz.json", out)
    _say(args, f"lipschitz: c7={full.c7:.4f} (half-scale {half.c7:.4f}) "
               f"max_rho={full.max_rho:.4g}")
    return 0 if stable and not flagged else 1


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
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        if args.output_dir is not None:
            cfg["output_dir"] = args.output_dir
        outdir = Path(cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "config_effective.json", cfg)
        return _COMMANDS[args.command](cfg, outdir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InstabilityError, StepFailureError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
