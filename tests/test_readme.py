"""The README's Python blocks run as written, in order and sharing names
(the quick start on a short horizon), and its minimal config is a valid
config."""

import json
import re
from pathlib import Path

import numpy as np

from sinech.cli import DEFAULTS, _merge
from sinech.integrator import SchemeConfig, simulate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch):
    quick, *rest = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert quick.count("t_end=5.0") == 1 and len(rest) == 1
    monkeypatch.chdir(tmp_path)
    names = {}
    for block in (quick.replace("t_end=5.0", "t_end=0.05"), *rest):
        exec(compile(block, str(README), "exec"), names)
    for csv in ("trajectory.csv", "tail.csv"):  # t = 0 to 0.05, then 0.05 to 0.1
        rows = (tmp_path / csv).read_text().splitlines()
        assert rows[0].startswith("t,") and len(rows) == 1 + 6
    full = simulate(names["init"], names["nl"], names["g"], SchemeConfig(dt=1e-3), t_end=0.1)
    assert np.array_equal(names["tail"].final.u.coeff, full.final.u.coeff)
    assert np.array_equal(names["tail"].final.v.coeff, full.final.v.coeff)


def test_minimal_config_passes_the_checks():
    text = README.read_text()
    (block,) = re.findall(r"Minimal config[^\n]*:\n\n```json\n(.*?)```", text, re.S)
    config = json.loads(block)
    merged = _merge(DEFAULTS, config)  # raises ConfigError naming any key that drifted
    assert merged["grid"]["n_modes"] == config["grid"]["n_modes"]


def test_config_keys_named_in_the_readme_are_defaults_leaves():
    # a key renamed or removed in DEFAULTS must not live on in the docs
    def leaves(tree, path=""):
        for key, val in tree.items():
            here = f"{path}.{key}" if path else key
            yield from leaves(val, here) if isinstance(val, dict) else (here,)

    blocks = "|".join(key for key, val in DEFAULTS.items() if isinstance(val, dict))
    named = {key for key in re.findall(rf"`((?:{blocks})\.[A-Za-z0-9_.]+)`", README.read_text())
             if not key.endswith((".json", ".mfld", ".csv"))}  # file names
    assert len(named) >= 20 and named <= set(leaves(DEFAULTS)), named - set(leaves(DEFAULTS))
