"""Smoke test: every narrative script in ``demos/`` runs to completion,
and so does README's library quick start; README's format table is current."""

import importlib
import os
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import composer

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


def test_readme_format_table_names_every_current_format():
    """The ``File formats`` table lists exactly the package's ``*_FORMAT`` names."""
    current = set()
    for info in pkgutil.iter_modules(composer.__path__):
        module = importlib.import_module(f"composer.{info.name}")
        current.update(value for name, value in vars(module).items()
                       if name.endswith("_FORMAT") and isinstance(value, str))
    readme = (ROOT / "README.md").read_text()
    table = re.search(r"^## File formats\n.*?((?:^\|.*\n)+)", readme,
                      re.DOTALL | re.MULTILINE)
    assert table, "README has no file-format table"
    listed = re.findall(r"^\| `(composer-[a-z0-9]+-v\d+)`", table.group(1),
                        re.MULTILINE)
    assert len(current) == 6
    assert sorted(listed) == sorted(current)
