"""Smoke test: every narrative script in ``demos/`` runs to completion,
and so does README's library quick start."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(tmp_path):
    """README's ``python`` block runs as written, in a fresh process on ``src``."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Quick start \(library\)\n.*?^```python\n(.*?)^```$",
                      readme, re.DOTALL | re.MULTILINE)
    assert block, "README has no quick-start python block"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.getenv("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", block.group(1)], cwd=tmp_path, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
