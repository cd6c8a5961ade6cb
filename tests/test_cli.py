"""End-to-end command line runs (in process, tmp dirs)."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import exact_linear_mode

import sinech
from sinech.cli import DEFAULTS, main
from sinech.spectral import GridSpec, ModalField, random_band_limited, save_field


def run_cli(*argv):
    return main([*argv, "--quiet"])


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_defaults_are_self_consistent():
    assert DEFAULTS["grid"]["n_modes"] == 32
    assert DEFAULTS["nonlinearity"]["a3"] == 1.0
    assert DEFAULTS["scheme"]["dt"] == 1e-3


def test_missing_config_file(tmp_path):
    assert run_cli("check", "--config", str(tmp_path / "nope.json"),
                   "--output-dir", str(tmp_path / "o")) == 2


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run_cli("check", "--config", str(p),
                   "--output-dir", str(tmp_path / "o")) == 2


def test_non_object_root(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]")
    assert run_cli("check", "--config", str(p),
                   "--output-dir", str(tmp_path / "o")) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, gird={"n_modes": 8})
    assert run_cli("check", "--config", cfg,
                   "--output-dir", str(tmp_path / "o")) == 2


def test_unknown_nested_key_rejected(tmp_path):
    cfg = write_config(tmp_path, grid={"n_modes": 8, "sides": 1.0})
    assert run_cli("check", "--config", cfg,
                   "--output-dir", str(tmp_path / "o")) == 2


def test_config_effective_echo(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, grid={"n_modes": 8}, t_end=0.0)
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out)) == 0
    eff = json.loads((out / "config_effective.json").read_text())
    assert eff["grid"]["n_modes"] == 8
    assert eff["grid"]["side"] == DEFAULTS["grid"]["side"]  # default filled in
    assert eff["t_end"] == 0.0
    assert eff["output_dir"] == str(out)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_small_grids_pass(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, check={"n_modes_list": [8, 16]})
    assert run_cli("check", "--config", cfg, "--output-dir", str(out)) == 0
    rep = json.loads((out / "check_report.json").read_text())
    assert rep["all_pass"] is True
    names = {r["check"] for r in rep["rows"]}
    assert names == {"parseval", "roundtrip", "power_group", "projector",
                     "bg_scale", "assumptions", "energy_orders"}
    assert all(r["pass"] for r in rep["rows"])


def test_check_only_filter(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, check={"n_modes_list": [8, 16]})
    assert run_cli("check", "--config", cfg, "--output-dir", str(out),
                   "--only", "parseval") == 0
    rep = json.loads((out / "check_report.json").read_text())
    assert [r["check"] for r in rep["rows"]] == ["parseval", "parseval"]
    assert [r["n_modes"] for r in rep["rows"]] == [8, 16]


def test_check_only_unknown_name(tmp_path):
    cfg = write_config(tmp_path, check={"n_modes_list": [8]})
    assert run_cli("check", "--config", cfg,
                   "--output-dir", str(tmp_path / "o"),
                   "--only", "bogus") == 2


def test_check_flags_false_claim(tmp_path, capsys):
    # the bounds are derived from the coefficients, never given: a config
    # that claims one (lambda_bound = 0 would claim f' >= 0, false for
    # a1 = -1) is refused naming the key, as any unknown key
    for bound in ("lambda_bound", "m_bound", "r0"):
        cfg = write_config(tmp_path, nonlinearity={"a3": 1.0, "a2": 0.0, "a1": -1.0, bound: 0.0})
        assert run_cli("check", "--config", cfg, "--output-dir", str(tmp_path / "o")) == 2
        assert f"'nonlinearity.{bound}': unknown key" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_fails_assumptions_whose_samples_overflow(tmp_path):
    # a1 = 1e308 passes Nonlinearity's range checks, but f(r) r overflows
    # on the sampled r: an inf sample verifies no bound, so the row fails
    # (and the sampling raises no numpy warning).  The linear case a3 = 0,
    # which Nonlinearity accepts and check_assumptions refuses, fails the
    # row too instead of ending in a traceback.
    for i, nonlinearity in enumerate([{"a1": 1e308}, {"a3": 0.0, "a1": 1.0}]):
        out = tmp_path / f"o{i}"
        cfg = write_config(tmp_path, grid={"n_modes": 4}, nonlinearity=nonlinearity,
                           check={"n_modes_list": [4]})
        assert run_cli("check", "--config", cfg, "--output-dir", str(out),
                       "--only", "assumptions") == 1
        rows = json.loads((out / "check_report.json").read_text())["rows"]
        assert [(r["check"], r["pass"]) for r in rows] == [("assumptions", False)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, key, value, side", [("simulate", "a1", 1e308, math.pi),
                                                       ("converge", "a1", 1e308, math.pi),
                                                       ("equilibrium", "a3", 1e250, 1e-50)],
                         ids=["simulate", "converge", "equilibrium"])
def test_coefficients_that_overflow_with_the_eigenvalues_name_the_key(tmp_path, capsys, command,
                                                                       key, value, side):
    # a step weighs P_n f(u) by the eigenvalues: a1 = 1e308 times
    # lambda_max = 32 at n_modes 4 overflows, as does a3 = 1e250 times 3e102
    # on a side of 1e-50, so the run is refused before it steps (converge
    # checks its finest grid) instead of warning and failing at t = dt
    nonlinearity = {"a3": 1.0, "a2": 0.0, "a1": -1.0}
    nonlinearity[key] = value
    cfg = write_config(tmp_path, grid={"n_modes": 4, "side": side}, nonlinearity=nonlinearity,
                       t_end=0.01,
                       initial={"u": {"preset": "random_band", "band": 2, "amplitude": 1.0}},
                       converge={"resolutions": [2, 4], "n_ref": 8, "band": 2})
    assert run_cli(command, "--config", cfg, "--output-dir", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert f"'nonlinearity.{key}'" in err and "overflows" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_cfg(tmp_path, **extra):
    body = dict(
        grid={"n_modes": 8},
        nonlinearity={"a3": 1.0, "a2": 0.0, "a1": -1.0},
        initial={"u": {"preset": "random_band", "band": 3, "amplitude": 1.0}},
        scheme={"dt": 1e-3},
        t_end=0.05,
    )
    body.update(extra)
    return write_config(tmp_path, **body)


def test_simulate_zero_horizon(tmp_path):
    out = tmp_path / "o"
    cfg = _simulate_cfg(tmp_path, t_end=0.0)
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == 1
    assert summary["t_final"] == 0.0
    assert summary["dissipation_integral"] == 0.0


def test_simulate_linear_mode_matches_oracle(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 8},
        nonlinearity={"a3": 0.0, "a2": 0.0, "a1": 0.0},
        initial={"u": {"preset": "single_mode", "j": 1, "k": 1, "amp": 1.0}},
        scheme={"dt": 1e-3},
        t_end=1.0,
    )
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    ue, ve = exact_linear_mode(2.0, 1.0, 0.0, 1.0)
    exact_energy = 0.5 * (float(ve) ** 2 / 2.0 + 2.0 * float(ue) ** 2)
    assert summary["energy_final"] == pytest.approx(exact_energy, abs=1e-5)
    assert summary["energy_initial"] == pytest.approx(1.0, abs=1e-12)
    # files all written
    for name in ("trajectory.csv", "final_u.mfld", "final_ut.mfld",
                 "summary.json", "config_effective.json"):
        assert (out / name).is_file()


@pytest.mark.parametrize("scheme", ["imex_cn_ab2", "implicit_newton"])
def test_simulate_deterministic_reruns(tmp_path, scheme):
    cfg = _simulate_cfg(tmp_path, scheme={"dt": 1e-3, "scheme": scheme})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out1)) == 0
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out2)) == 0
    for name in ("trajectory.csv", "summary.json", "final_u.mfld", "final_ut.mfld"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS sums np.vdot and np.linalg.norm in per-thread parts above a
    # size threshold, which the 2N grid at N = 64 is above: the trajectory's
    # calH column used to differ between one and two threads.  Each run
    # gets its own directory and the same relative --output-dir, so even
    # config_effective.json must match.  The implicit run's loose inner
    # solves apply their f' product in float32.  The N = 64 equilibrium
    # relaxes to u* = 0; the N = 128 one lands on the stable well, where the
    # stability indicator takes a full LOBPCG solve (whose bits, with
    # scipy's LOBPCG, did not differ between the thread counts either).
    configs = {
        "simulate": {"grid": {"n_modes": 64}, "t_end": 0.05, "sample_every": 5,
                     "initial": {"u": {"preset": "random_band", "band": 4, "amplitude": 1.0}}},
        "simulate-implicit": {"grid": {"n_modes": 64}, "t_end": 0.5, "sample_every": 1,
                              "nonlinearity": {"a3": 1.0, "a2": 0.0, "a1": -3.0},
                              "scheme": {"scheme": "implicit_newton", "dt": 0.1},
                              "initial": {"u": {"preset": "random_band", "band": 4,
                                                "amplitude": 1.0}}},
        "equilibrium": {"grid": {"n_modes": 64},
                        "nonlinearity": {"a3": 1.0, "a2": 0.0, "a1": -3.0},
                        "initial": {"u": {"preset": "random_band", "band": 4, "amplitude": 3.0}}},
        "equilibrium-n128": {"grid": {"n_modes": 128},
                             "nonlinearity": {"a3": 1.0, "a2": 0.0, "a1": -3.0},
                             "initial": {"u": {"preset": "single_mode", "j": 1, "k": 1,
                                               "amp": 2.0}}},
    }
    package_root = str(Path(sinech.__file__).parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        for name, cfg in configs.items():
            cwd = tmp_path / threads / name
            cwd.mkdir(parents=True)
            (cwd / "cfg.json").write_text(json.dumps(cfg))
            subprocess.run([sys.executable, "-m", "sinech.cli", name.split("-")[0], "--config",
                            "cfg.json", "--output-dir", "out", "--quiet"],
                           cwd=cwd, env=env, check=True)
            digests[threads, name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                      for p in (cwd / "out").iterdir()}
    assert len(digests["1", "simulate"]) == len(digests["1", "simulate-implicit"]) == 5
    assert len(digests["1", "equilibrium"]) == len(digests["1", "equilibrium-n128"]) == 3
    for name in configs:
        assert digests["1", name] == digests["2", name]


def test_simulate_reproduces_from_echo(tmp_path):
    # the echoed effective config is a complete recipe for the run
    cfg = _simulate_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out1)) == 0
    assert run_cli("simulate", "--config", str(out1 / "config_effective.json"),
                   "--output-dir", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "final_u.mfld").read_bytes() == (out2 / "final_u.mfld").read_bytes()


def test_simulate_seed_changes_run(tmp_path):
    cfg = _simulate_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out1),
                   "--seed", "1") == 0
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out2),
                   "--seed", "2") == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["norm0_final"] != s2["norm0_final"]


def test_simulate_bad_single_mode_index(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 8},
        initial={"u": {"preset": "single_mode", "j": 9, "k": 1}},
        t_end=0.0,
    )
    assert run_cli("simulate", "--config", cfg,
                   "--output-dir", str(tmp_path / "o")) == 2


def test_simulate_unknown_preset(tmp_path):
    cfg = write_config(
        tmp_path,
        initial={"u": {"preset": "plane_wave"}},
        t_end=0.0,
    )
    assert run_cli("simulate", "--config", cfg,
                   "--output-dir", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("field,value", [("n_modes", "abc"), ("side", -1.0)])
def test_simulate_bad_snapshot_header_names_the_key(tmp_path, capsys, field, value):
    snap = tmp_path / "u0.mfld"
    save_field(snap, ModalField.single_mode(GridSpec(8, math.pi), 1, 1, 0.5))
    head, _, rest = snap.read_bytes().partition(b"\n")
    header = dict(json.loads(head), **{field: value})
    snap.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 8},
        initial={"u": {"preset": "file", "path": str(snap)}},
        t_end=0.0,
    )
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")) == 2
    assert "initial.u.path" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,key", [
    ({"t_end": "abc"}, "t_end"),
    ({"grid": {"n_modes": None}}, "grid.n_modes"),
    ({"scheme": {"dt": "nan"}}, "scheme.dt"),
    ({"scheme": {"dt": math.inf}}, "scheme.dt"),
    ({"sample_every": "x"}, "sample_every"),
    ({"seed": [1]}, "seed"),
    ({"nonlinearity": {"a1": {}}}, "nonlinearity.a1"),
    ({"initial": {"u": {"preset": "random_band", "band": "four"}}}, "initial.u.band"),
    ({"initial": {"u": {"preset": "file", "path": ["u.mfld"]}}}, "initial.u.path"),
    ({"t_end": "0.01"}, "t_end"),
    ({"grid": {"n_modes": 8.9}}, "grid.n_modes"),
    ({"grid": {"n_modes": True}}, "grid.n_modes"),
    ({"seed": 2.5}, "seed"),
    ({"scheme": {"newton_max_iter": 2.5}}, "scheme.newton_max_iter"),
    ({"output_dir": 5}, "output_dir"),
    ({"t_end": -1}, "t_end"),
    ({"sample_every": 0}, "sample_every"),
], ids=["t_end-text", "n_modes-null", "dt-nan", "dt-inf", "sample_every-text",
        "seed-list", "a1-object", "band-text", "path-list", "t_end-numeric-text",
        "n_modes-float", "n_modes-bool", "seed-float", "newton_max_iter-float",
        "output_dir-number", "t_end-negative", "sample_every-zero"])
def test_simulate_bad_value_type_names_the_key(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command,overrides,key", [
    ("check", {"check": {"n_modes_list": []}}, "check.n_modes_list"),
    ("converge", {"converge": {"resolutions": [0, 8], "band": 0}}, "converge.resolutions"),
    ("absorb", {"absorb": {"t_end": 0.0}}, "absorb.t_end"),
    ("lipschitz", {"lipschitz": {"perturbation_scale": 0.0}}, "lipschitz.perturbation_scale"),
    ("equilibrium", {"equilibrium": {"tol": 0.0}}, "equilibrium.tol"),
    ("simulate", {"seed": -3}, "seed"),
    ("simulate", {"grid": {"n_modes": 8},
                  "initial": {"u": {"preset": "single_mode", "j": 9, "k": 1}}}, "initial.u.j"),
    ("simulate", {"grid": {"n_modes": 8},
                  "initial": {"u": {"preset": "single_mode", "j": 1, "k": 99}}}, "initial.u.k"),
    # a zero horizon leaves one sample: no rate to fit, no verdict to give
    ("lipschitz", {"grid": {"n_modes": 8}, "lipschitz": {"t_end": 0.0}}, "lipschitz.t_end"),
    ("decompose", {"grid": {"n_modes": 8}, "decompose": {"t_end": 0.0}}, "decompose.t_end"),
    # the split steps v and w by the IMEX step's tables: refused before any step
    ("decompose", {"grid": {"n_modes": 8}, "scheme": {"scheme": "implicit_newton"}},
     "scheme.scheme"),
], ids=["n_modes_list-empty", "resolutions-zero", "absorb-t_end-zero",
        "perturbation_scale-zero", "tol-zero", "seed-negative", "single_mode-j",
        "single_mode-k", "lipschitz-t_end-zero", "decompose-t_end-zero", "decompose-implicit"])
def test_out_of_range_value_names_the_key(tmp_path, capsys, command, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    assert run_cli(command, "--config", cfg, "--output-dir", str(tmp_path / "o")) == 2
    assert f"'{key}'" in capsys.readouterr().err


def _snapshot_on_8_modes(tmp_path) -> str:
    path = tmp_path / "u8.mfld"
    save_field(path, random_band_limited(GridSpec(8, math.pi), 4, 1.0, seed=1))
    return str(path)


@pytest.mark.parametrize("command,overrides,key", [
    ("simulate", lambda tmp: {"grid": 3}, "grid"),
    ("simulate", lambda tmp: {"grid": {"n_modes": 32},
                              "initial": {"u": {"preset": "random_band", "band": 99}}},
     "initial.u.band"),
    ("simulate", lambda tmp: {"initial": {"u": {"preset": "file"}}}, "initial.u.path"),
    ("simulate", lambda tmp: {"grid": {"n_modes": 32},
                              "initial": {"u": {"preset": "file",
                                                "path": _snapshot_on_8_modes(tmp)}}},
     "initial.u.path"),
    ("converge", lambda tmp: {"converge": {"resolutions": [8, 4]}}, "converge.resolutions"),
], ids=["block-not-object", "band-beyond-grid", "file-without-path", "file-on-another-grid",
        "resolutions-decreasing"])
def test_refused_combination_names_the_key(tmp_path, capsys, command, overrides, key):
    cfg = write_config(tmp_path, **overrides(tmp_path))
    assert run_cli(command, "--config", cfg, "--output-dir", str(tmp_path / "o")) == 2
    assert f"'{key}'" in capsys.readouterr().err


def _leaves(tree, path=""):
    for key, val in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(val, dict):
            yield from _leaves(val, here)
        else:
            yield here, val


def _wrong_type(default):
    """JSON values of a type the key does not take."""
    texts = st.text(max_size=8)
    objects = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
    if isinstance(default, list):
        bad_elements = st.lists(st.one_of(texts, st.booleans(), st.none()), min_size=1, max_size=3)
        return st.one_of(texts, st.none(), st.booleans(), st.integers(), st.floats(), objects,
                         bad_elements)
    kind = type(default)
    wrong = [st.booleans(), st.lists(st.integers(), max_size=3), objects, st.none()]
    if kind is int:
        wrong += [texts, st.floats()]
    elif kind is float:
        # a JSON integer beyond the float range is no finite number either
        wrong += [texts, st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400])]
    else:
        wrong += [st.integers(), st.floats()]
    return st.one_of(wrong)


@pytest.mark.parametrize("key,default", list(_leaves(DEFAULTS)), ids=str)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_wrong_type_for_any_key_exits_2_naming_it(tmp_path_factory, key, default, data):
    value = data.draw(_wrong_type(default))
    body = {} if key == "output_dir" else {"output_dir": str(tmp_path_factory.getbasetemp())}
    node = body
    *blocks, leaf = key.split(".")
    for name in blocks:
        node = node.setdefault(name, {})
    node[leaf] = value
    cfg = tmp_path_factory.getbasetemp() / "wrong_type.json"
    cfg.write_text(json.dumps(body))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli("simulate", "--config", str(cfg)) == 2
    assert f"'{key}'" in err.getvalue()


@pytest.mark.parametrize("command,overrides,key", [
    ("simulate", {"grid": {"n_modes": 4, "side": 1e300}}, "grid"),
    ("simulate", {"grid": {"n_modes": 4}, "nonlinearity": {"a2": 1e308}}, "nonlinearity"),
    ("simulate", {"grid": {"n_modes": 4}, "nonlinearity": {"a3": 1e308, "a1": -1e308}},
     "nonlinearity"),
    ("lipschitz", {"grid": {"n_modes": 4},
                   "lipschitz": {"perturbation_scale": 1e-320, "t_end": 0.01}},
     "lipschitz.perturbation_scale"),
    ("check", {"grid": {"side": 1e-300}, "check": {"n_modes_list": [2]}}, "grid"),
    ("check", {"grid": {"side": 1e300}, "check": {"n_modes_list": [2]}}, "grid"),
    ("simulate", {"grid": {"n_modes": 4, "side": 1e-70},
                  "initial": {"u": {"preset": "random_band", "band": 2}}}, "grid"),
    ("simulate", {"grid": {"n_modes": 4, "side": 1e70},
                  "initial": {"u": {"preset": "random_band", "band": 2}}}, "grid"),
    ("simulate", {"grid": {"n_modes": 4}, "scheme": {"dt": 1e-320}}, "scheme.dt"),
    ("simulate", {"grid": {"n_modes": 4}, "scheme": {"dt": 1e-300}}, "scheme.dt"),
    ("simulate", {"grid": {"n_modes": 10**400}}, "grid"),
    ("check", {"check": {"n_modes_list": [10**400]}}, "grid"),
    ("converge", {"converge": {"n_ref": 10**400}}, "grid"),
    ("decompose", {"grid": {"n_modes": 1}, "scheme": {"dt": 1e308},
                   "decompose": {"t_end": 1e-320, "big_l": 1e308}}, "decompose.big_l"),
    ("decompose", {"grid": {"n_modes": 4},
                   "initial": {"u": {"preset": "single_mode", "amp": 0.5}},
                   "decompose": {"t_end": 0.01, "big_l": 1e308}}, "decompose.big_l"),
    ("decompose", {"grid": {"n_modes": 4}, "decompose": {"t_end": 0.01, "max_doublings": 10**400}},
     "decompose.big_l"),
], ids=["side-huge", "a2-huge", "a3-a1-huge", "perturbation-underflow",
        "check-side-tiny", "check-side-huge", "cube-overflow", "cube-underflow",
        "steps-overflow", "steps-too-many", "n_modes-overflow", "check-n_modes-overflow",
        "n_ref-overflow", "big_l-doubled-one-mode", "big_l-doubled", "max_doublings-huge"])
def test_value_out_of_the_float_range_names_the_key(tmp_path, capsys, command, overrides, key):
    # each once ended in an OverflowError or ZeroDivisionError traceback (the
    # n_modes cases: a JSON integer of 10**400), or (the cube cases) wrote a NaN
    # or a wrong norm2_final to summary.json and exited 0; the big_l cases
    # doubled L to inf and exited 1 after numpy overflow warnings
    cfg = write_config(tmp_path, t_end=0.01, **overrides)
    assert run_cli(command, "--config", cfg, "--output-dir", str(tmp_path / "o")) == 2
    assert f"'{key}'" in capsys.readouterr().err


_EXTREMES = st.sampled_from([1e308, -1e308, 1e-320, -1e-320, 0.0])
_FLOATS = st.one_of(_EXTREMES, st.floats(-10.0, 10.0), st.floats(allow_nan=False,
                                                                  allow_infinity=False))
_MODES = st.integers(1, 8)
# every run stays short: at most 8 modes, horizons <= 0.05 and dt >= 1e-3 (at most 50
# steps; a tiny dt that still covers the horizon in 2**53 steps would run for years)
_HORIZON = st.one_of(st.just(1e-320), st.floats(0.0, 0.05, exclude_min=True))
_SIZES = {
    "grid.n_modes": _MODES, "check.n_modes_list": st.lists(_MODES, min_size=1, max_size=3),
    "converge.resolutions": st.lists(st.integers(1, 4), min_size=1, max_size=2,
                                     unique=True).map(sorted),
    "converge.band": st.integers(1, 4), "converge.n_ref": _MODES,
    "scheme.dt": st.one_of(st.sampled_from([1e308, -1e-320]), st.floats(1e-3, 0.05),
                           st.floats(1e-3, 1e308)),
    "t_end": _HORIZON, "converge.t_star": _HORIZON, "decompose.t_end": _HORIZON,
    "lojasiewicz.t_end": _HORIZON, "absorb.t_end": _HORIZON, "lipschitz.t_end": _HORIZON,
}


def _right_type(key, default):
    """JSON values of the type the key takes, extremes mixed in."""
    leaf = key.rsplit(".", 1)[-1]
    if isinstance(default, list):
        return st.lists(_FLOATS, min_size=1, max_size=3)
    if leaf == "preset":
        return st.sampled_from(["zero", "single_mode", "random_band", "file", "other"])
    if leaf == "scheme":
        return st.sampled_from(["imex_cn_ab2", "implicit_newton", "other"])
    if leaf == "path":
        return st.sampled_from(["", "no-such-file.mfld"])
    return _FLOATS if type(default) is float else st.integers(-1, 8)


_OPTIONAL = {key: default for key, default in _leaves(DEFAULTS)
             if key not in _SIZES and key != "output_dir"}


def _nest(leaves: dict) -> dict:
    """The config object whose dotted keys hold these values."""
    body = {}
    for key, val in leaves.items():
        node = body
        *blocks, leaf = key.split(".")
        for name in blocks:
            node = node.setdefault(name, {})
        node[leaf] = val
    return body


@st.composite
def _right_typed_configs(draw):
    """A config with every size key of _SIZES and up to four more keys,
    each of the type it takes."""
    picked = draw(st.lists(st.sampled_from(sorted(_OPTIONAL)), max_size=4, unique=True))
    return _nest({key: draw(strategy) for key, strategy in
                  [*_SIZES.items(), *((k, _right_type(k, _OPTIONAL[k])) for k in picked)]})


# small sizes for the pinned examples below: one step of every driver
_SMALL = {"grid.n_modes": 4, "check.n_modes_list": [2], "converge.resolutions": [2, 4],
          "converge.band": 2, "converge.n_ref": 8, "scheme.dt": 1e-3, "t_end": 1e-3,
          "converge.t_star": 1e-3, "decompose.t_end": 1e-3, "lojasiewicz.t_end": 1e-3,
          "absorb.t_end": 1e-3, "lipschitz.t_end": 1e-3}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(sinech.cli._COMMANDS)), body=_right_typed_configs())
# pinned: the branches a random draw reaches only by chance
@example(command="converge", body=_nest(_SMALL))  # a convergence fit over two resolutions
@example(command="simulate", body=_nest(dict(_SMALL, **{
    "initial.u.preset": "single_mode", "initial.ut.preset": "random_band"})))
@example(command="simulate", body=_nest(dict(_SMALL, **{"initial.u.preset": "file",
                                                          "initial.u.path": "no-such-file.mfld"})))
@example(command="simulate", body=_nest(dict(_SMALL, **{"initial.ut.preset": "other"})))
@example(command="simulate", body=_nest(dict(_SMALL, **{"source.preset": "other"})))
@example(command="simulate", body=_nest(dict(_SMALL, **{"scheme.scheme": "other"})))
@example(command="equilibrium", body=_nest(dict(_SMALL, **{"nonlinearity.a2": 1e308})))
@example(command="decompose", body=_nest(dict(_SMALL, **{"scheme.scheme": "implicit_newton"})))
@example(command="check", body=_nest(dict(_SMALL, **{"nonlinearity.a3": 0.0,
                                                       "nonlinearity.a1": 1.0})))
def test_right_typed_config_exits_0_1_or_2(tmp_path_factory, command, body):
    body = dict(body, output_dir=str(tmp_path_factory.getbasetemp() / "right_type"))
    cfg = tmp_path_factory.getbasetemp() / "right_type.json"
    cfg.write_text(json.dumps(body))
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(command, "--config", str(cfg)) in (0, 1, 2)


def test_defaults_pass_their_own_checks():
    from sinech.cli import _NON_NEGATIVE, _POSITIVE, _merge

    assert _POSITIVE | _NON_NEGATIVE <= dict(_leaves(DEFAULTS)).keys()
    assert _merge(DEFAULTS, DEFAULTS) == DEFAULTS
    # every leaf is typed by its default, so none defaults to null
    assert all(val is not None for _, val in _leaves(DEFAULTS))


@pytest.mark.parametrize("how", ["flag", "config"])
def test_output_dir_naming_a_file_names_the_key(tmp_path, capsys, how):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    if how == "flag":
        argv = ("--output-dir", str(taken))
    else:
        argv = ("--config", write_config(tmp_path, output_dir=str(taken)))
    assert run_cli("check", "--only", "parseval", *argv) == 2
    assert "'output_dir'" in capsys.readouterr().err
    assert taken.read_text() == "a file, not a directory\n"


def test_negative_seed_flag_names_the_key(tmp_path, capsys):
    assert run_cli("simulate", "--seed", "-1", "--output-dir", str(tmp_path / "o")) == 2
    assert "'seed'" in capsys.readouterr().err


def test_integer_for_float_key_is_promoted_and_echoed(tmp_path):
    # "t_end": 1 runs as 1.0 and is echoed as 1.0; the echo reruns the
    # same bytes, and so does the config written with 1.0
    outs = [tmp_path / name for name in ("int", "echo", "float")]
    cfg = _simulate_cfg(tmp_path, t_end=1, scheme={"dt": 0.01})
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(outs[0])) == 0
    echo = outs[0] / "config_effective.json"
    assert '"t_end": 1.0' in echo.read_text()
    assert run_cli("simulate", "--config", str(echo), "--output-dir", str(outs[1])) == 0
    cfg = _simulate_cfg(tmp_path, name="float.json", t_end=1.0, scheme={"dt": 0.01})
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(outs[2])) == 0
    for name in ("trajectory.csv", "summary.json", "final_u.mfld", "final_ut.mfld"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:]), name
    effective = [json.loads((out / "config_effective.json").read_text()) for out in outs]
    for eff in effective:
        del eff["output_dir"]
    assert effective[0] == effective[1] == effective[2]


def test_simulate_instability_exit_code(tmp_path, capsys):
    # a violent step trips the energy safeguard; the CLI maps it to 1 and
    # says at which step and time the run failed
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 16},
        initial={"u": {"preset": "random_band", "band": 4, "amplitude": 8.0}},
        scheme={"dt": 2.0},
        t_end=10.0,
    )
    assert run_cli("simulate", "--config", cfg,
                   "--output-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    match = re.search(r"^run failed: .* \(step (\d+), t=(\S+)\)$", err, re.MULTILINE)
    assert match, err
    assert float(match.group(2)) == 2.0 * int(match.group(1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_implicit_step_too_small_to_form_its_system(tmp_path, capsys):
    # a horizon of 1e-320 is one subnormal step, whose h^2 lambda_1
    # underflows: the step fails before dividing by it, says why and
    # names h, with the step and time stamped; no numpy warning is raised
    cfg = _simulate_cfg(tmp_path, grid={"n_modes": 4}, t_end=1e-320,
                        scheme={"dt": 1e-3, "scheme": "implicit_newton"})
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "a step of h=9.99989e-321 is too small for implicit_newton" in err
    assert "below the smallest normal float" in err
    assert "reduce dt" not in err
    assert err.rstrip().endswith("(step 1, t=9.99989e-321)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("band, seed", [(4, 0), (2, 0)])
def test_implicit_step_whose_residual_overflows(tmp_path, capsys, band, seed):
    # at h = 1.1e-154, h^2 lambda_1 is a normal float, but the square sum of
    # h Lam b ~ u / h overflows: without the refusal, band 4 seed 0 ended in
    # a failed line search (and MINRES's norm warned), band 2 seed 0 in an
    # energy rise of 3.6e275.  Now the step fails before any solve, names h
    # and says why
    cfg = write_config(tmp_path, grid={"n_modes": 4}, t_end=1.1e-154, seed=seed,
                       scheme={"dt": 1.1e-154, "scheme": "implicit_newton"},
                       initial={"u": {"preset": "random_band", "band": band, "amplitude": 8.0}})
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "a step of h=1.1e-154 is too small for implicit_newton" in err
    assert "overflows, so the step's residual cannot be measured" in err
    assert "energy increased" not in err and "line search" not in err
    assert err.rstrip().endswith("(step 1, t=1.1e-154)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_short_implicit_steps_stop_at_their_roundoff_floor(tmp_path):
    # at h = 1e-7 the roundoff of h^2 Lam R over h is about 5e-9, above
    # newton_tol = 1e-10: with a stop that ignored it, the first step's
    # line search failed at residual 1.6e-10
    out = tmp_path / "o"
    cfg = _simulate_cfg(tmp_path, t_end=3e-7,
                        scheme={"dt": 1e-7, "scheme": "implicit_newton"})
    assert run_cli("simulate", "--config", cfg, "--output-dir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == 4 and summary["t_final"] == pytest.approx(3e-7)


def test_equilibrium_refuses_a_non_finite_seed(tmp_path, capsys):
    seed_field = random_band_limited(GridSpec(32, math.pi), 4, 1.0, seed=3)
    seed_field.coeff[2, 3] = math.nan
    snap = tmp_path / "seed.mfld"
    save_field(snap, seed_field)
    cfg = write_config(tmp_path, initial={"u": {"preset": "file", "path": str(snap)}})
    assert run_cli("equilibrium", "--config", cfg, "--output-dir", str(tmp_path / "o")) == 1
    assert "run failed: non-finite seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment wrappers
# ---------------------------------------------------------------------------

def test_converge_rejects_small_reference(tmp_path):
    cfg = write_config(tmp_path, converge={"resolutions": [8, 16], "n_ref": 24})
    assert run_cli("converge", "--config", cfg,
                   "--output-dir", str(tmp_path / "o")) == 2


def test_converge_rejects_wide_band(tmp_path):
    cfg = write_config(tmp_path, converge={"resolutions": [8, 16], "n_ref": 32,
                                           "band": 12})
    assert run_cli("converge", "--config", cfg,
                   "--output-dir", str(tmp_path / "o")) == 2


def test_converge_small_run(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path,
        scheme={"dt": 2e-3},
        converge={"resolutions": [8, 16], "n_ref": 32, "band": 4,
                  "amplitude": 2.0, "t_star": 0.1},
    )
    assert run_cli("converge", "--config", cfg, "--output-dir", str(out)) == 0
    rep = json.loads((out / "convergence.json").read_text())
    assert rep["kind"] == "galerkin_convergence"
    assert rep["failed"] == []
    assert rep["gaps"][1] < rep["gaps"][0]


def test_equilibrium_trivial_run(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, grid={"n_modes": 8})
    assert run_cli("equilibrium", "--config", cfg, "--output-dir", str(out)) == 0
    rep = json.loads((out / "equilibrium.json").read_text())
    assert rep["converged"] is True
    assert rep["residual"] == 0.0
    assert (out / "u_star.mfld").is_file()


def test_decompose_small_run(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 16},
        initial={"u": {"preset": "random_band", "band": 4, "amplitude": 1.0}},
        scheme={"dt": 2e-3},
        decompose={"big_l": 10.0, "t_end": 6.0},
    )
    assert run_cli("decompose", "--config", cfg, "--output-dir", str(out)) == 0
    rep = json.loads((out / "decomposition.json").read_text())
    assert rep["fitted_kappa"] > 0.0
    assert rep["fit_r2"] >= 0.9
    assert rep["sum_error"] <= 1e-9


def test_lipschitz_runs_the_unperturbed_orbit_once(tmp_path, monkeypatch):
    # one run of U and one of U + delta at each of the two scales: three
    # runs' worth of steps, not four
    from sinech import integrator

    calls = []
    advance = integrator.Stepper.advance

    def counted(self, h):
        calls.append(h)
        return advance(self, h)

    monkeypatch.setattr(integrator.Stepper, "advance", counted)
    cfg = write_config(tmp_path, grid={"n_modes": 8}, scheme={"dt": 1e-2},
                       lipschitz={"t_end": 0.25})
    assert run_cli("lipschitz", "--config", cfg, "--output-dir", str(tmp_path / "o")) in (0, 1)
    assert len(calls) == 3 * integrator.horizon_steps(0.25, 1e-2)[0] == 75


def test_lipschitz_small_run(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 16},
        initial={"u": {"preset": "random_band", "band": 4, "amplitude": 1.0}},
        scheme={"dt": 2e-3},
        lipschitz={"perturbation_scale": 1e-4, "t_end": 2.0},
    )
    assert run_cli("lipschitz", "--config", cfg, "--output-dir", str(out)) == 0
    rep = json.loads((out / "lipschitz.json").read_text())
    assert rep["c7_stable"] is True
    assert rep["super_exponential_flag"] is False


def test_absorb_small_run(tmp_path, capsys):
    # every orbit collapses to u = 0: the report and the printed line say
    # that the floor branch passed
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 8},
        scheme={"dt": 5e-3},
        absorb={"radii": [0.5, 1.0], "n_per_radius": 2, "t_end": 40.0},
    )
    assert main(["absorb", "--config", cfg, "--output-dir", str(out)]) == 0
    assert "absorb: status=pass (every tail below the floor)" in capsys.readouterr().out
    rep = json.loads((out / "absorbing.json").read_text())
    assert rep["status"] == "pass" and rep["below_floor"] is True


def test_lojasiewicz_small_run(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path,
        grid={"n_modes": 16},
        nonlinearity={"a3": 1.0, "a2": 0.0, "a1": -3.0},
        initial={"u": {"preset": "single_mode", "j": 1, "k": 1, "amp": 0.5}},
        scheme={"dt": 5e-3},
        lojasiewicz={"t_end": 30.0, "tol": 1e-6},
    )
    assert run_cli("lojasiewicz", "--config", cfg, "--output-dir", str(out)) == 0
    rep = json.loads((out / "lojasiewicz.json").read_text())
    assert rep["tol_reached"] is True
    assert rep["started_at_rest"] is False
    assert rep["equilibrium"]["converged"] is True
    assert (out / "u_star.mfld").is_file()


def test_lojasiewicz_says_when_it_starts_at_rest(tmp_path, capsys):
    # the default initial data u = u_t = 0 is already an equilibrium of
    # f = u^3 - u with g = 0: the report and the printed summary say so
    out = tmp_path / "o"
    cfg = write_config(tmp_path, grid={"n_modes": 8}, lojasiewicz={"t_end": 0.5})
    assert main(["lojasiewicz", "--config", cfg, "--output-dir", str(out)]) == 0
    assert "already an equilibrium at rest" in capsys.readouterr().out
    rep = json.loads((out / "lojasiewicz.json").read_text())
    assert rep["started_at_rest"] is True
    assert rep["ut_final"] == 0.0
    # the orbit would stay at rest, so no step is run
    assert rep["steps"] == 0 and rep["times"] == [0.0] and rep["ut_trace"] == [0.0]
