"""Hypothesis runs derandomized, with no deadline and no example database,
so the suite is deterministic.  Hypothesis's other cache files (the constants
it collects from the source at collection time) go to a temporary directory
removed at exit, so no .hypothesis/ directory appears in the checkout.

pyproject.toml puts src/ on this process's import path; PYTHONPATH gains it
too, so the tests that start `python -m qbrach.cli` in a child process import
the same package without an install.

The traced_peak fixture measures the memory of one CLI command in this
process, for tests that bound how it grows with the input length."""

import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qbrach import cli

settings.register_profile("qbrach", derandomize=True, deadline=None, database=None)
settings.load_profile("qbrach")

_HOME = tempfile.TemporaryDirectory(prefix="qbrach-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def traced_peak():
    """A function that runs cli.main(argv) once, checks that it exits 0, and
    returns the peak in bytes of the memory that tracemalloc traced during
    the call."""

    def peak(argv: list[str]) -> int:
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
