"""The suite's pytest configuration reports a failing property test as one
failure and runs on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    """Reporting a falsifying example imports hypothesis's patching module
    and, through it, libcst; the DeprecationWarning that import raises must
    not become an INTERNALERROR that stops the run."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
