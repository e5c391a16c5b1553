"""Tests of the suite's own pytest configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_next_one_runs(tmp_path):
    # Hypothesis formats a failing example through libcst, which may raise a
    # DeprecationWarning; filterwarnings = ["error"] must not turn that into
    # an INTERNALERROR that names no test and stops the run.
    (tmp_path / "test_hyp.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "test_hyp.py::test_fails" in res.stdout
    assert "Falsifying example" in res.stdout
    assert "1 passed" in res.stdout
