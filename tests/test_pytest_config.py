"""The repo's pytest settings keep a failing test an ordinary failure.

pyproject.toml turns warnings into errors.  Hypothesis's failure report
touches a deprecated mypy_extensions name, so without the narrow filter
next to "error" one failing @given test aborts the session with an
INTERNALERROR (exit 3) and no later test runs.
"""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, max_examples=5, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_tiny.py").write_text(_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(_PYPROJECT), "--rootdir", str(tmp_path), "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
