"""The README's Python quick start runs as written (on a short horizon),
and its minimal config is a valid config."""

import json
import re
from pathlib import Path

from sinech.cli import DEFAULTS, _merge

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block.count("t_end=5.0") == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(block.replace("t_end=5.0", "t_end=0.05"), str(README), "exec"), {})
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert rows[0].startswith("t,") and len(rows) == 1 + 6


def test_minimal_config_passes_the_checks():
    text = README.read_text()
    (block,) = re.findall(r"Minimal config[^\n]*:\n\n```json\n(.*?)```", text, re.S)
    config = json.loads(block)
    merged = _merge(DEFAULTS, config)  # raises ConfigError naming any key that drifted
    assert merged["grid"]["n_modes"] == config["grid"]["n_modes"]
