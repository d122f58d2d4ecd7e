"""The project's pytest settings report every failure of a run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_fails(n):
    assert n < 0


def test_plain_fails():
    assert False
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Hypothesis's pytest plugin can raise a third-party DeprecationWarning
    # while it formats a failing example.  Under "error" alone that became
    # an INTERNALERROR, and the run stopped before the plain test.
    (tmp_path / "test_failing.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_failing.py"],
        capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "2 failed" in out.stdout, out.stdout
    assert "test_hypothesis_fails" in out.stdout and "test_plain_fails" in out.stdout
