"""The README's Python quick start runs as written (on a short horizon)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block.count("t_end=5.0") == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(block.replace("t_end=5.0", "t_end=0.05"), str(README), "exec"), {})
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert rows[0].startswith("t,") and len(rows) == 1 + 6
