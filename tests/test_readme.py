"""The README's Quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    scope = {}
    exec(compile(quick_start(), "README.md", "exec"), scope)
    traj, reports, recon = scope["traj"], scope["reports"], scope["recon"]
    assert traj.joint_values.shape == (5, scope["robot"].total_dof) == (5, 19)
    assert len(reports) == 5 and recon.fps == 30.0
    assert np.all(np.isfinite(traj.joint_values))
    assert capsys.readouterr().out == "(5, 19)\n"
