"""Checks on the test suite's own configuration."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_reports_and_the_run_goes_on(tmp_path):
    """Under the suite's warning filters a failing property reports its
    falsifying example and the later tests still run (exit code 1, not an
    internal error with code 3)."""
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
