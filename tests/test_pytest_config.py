"""The repository's pytest configuration, run on a throwaway test file."""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    """A failing ``@given`` test is reported as a failure; later tests still run.

    Hypothesis's failure report imports modules that warn on import, and
    under ``filterwarnings = error`` such a warning used to end the session
    with an INTERNALERROR (exit 3) before the passing test ran.
    """
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert re.search(r"\b1 failed, 1 passed\b", output), output
    assert run.returncode == 1
