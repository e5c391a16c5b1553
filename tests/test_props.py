"""Property tests for the mass classifier and its grid rules.

Over m in [0.1, 3], p in [-3, 3]^3, t_end up to 10 and 2 to 500 samples on
np.linspace(0, t_end, samples): a grid whose steps resolve the rotation at
rate 2E, and whose span lets a rotating mass move more than
SPAN_MARGIN * CLASSIFY_TOL, gives CONSTANT for the Dirac mass and ROTATING
at 2E for the Majorana mass; every other grid raises PropagateError.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbrach.cliffrep import build_dirac, build_majorana
from qbrach.propagate import (
    CLASSIFY_TOL,
    NYQUIST_MARGIN,
    SPAN_MARGIN,
    PropagateError,
    classify_mass,
)

MASSES = st.floats(0.1, 3.0)
MOMENTA = st.tuples(*[st.floats(-3.0, 3.0)] * 3)
T_ENDS = st.floats(0.1, 10.0)
SAMPLES = st.integers(2, 500)


def _energy(m, p) -> float:
    p = np.asarray(p, dtype=float)
    return float(np.sqrt(m * m + p @ p))


def _check_grid(m, p, t_end, samples):
    grid = np.linspace(0.0, t_end, samples)
    energy = _energy(m, p)
    rate = 2.0 * energy
    reach = 2.0 * m * np.abs(np.sin(energy * grid)).max()  # the largest move
    if (rate * np.abs(np.diff(grid)).max() < math.pi * (1.0 - NYQUIST_MARGIN)
            and reach > SPAN_MARGIN * CLASSIFY_TOL):
        assert classify_mass(build_dirac(), m, p, grid).verdict == "CONSTANT"
        report = classify_mass(build_majorana(), m, p, grid)
        assert report.verdict == "ROTATING"
        assert abs(report.phase_rate - rate) / rate < 1e-6
    else:
        for rep in (build_dirac(), build_majorana()):
            with pytest.raises(PropagateError):
                classify_mass(rep, m, p, grid)


@given(MASSES, MOMENTA, T_ENDS, SAMPLES)
def test_classifier_over_random_grids(m, p, t_end, samples):
    _check_grid(m, p, t_end, samples)


@st.composite
def _near_the_step_limit(draw):
    """(m, p, t_end, samples) with 2E * step equal to pi, or off it by a
    relative 1e-16 to 1e-6 either way."""
    m, p = draw(MASSES), draw(MOMENTA)
    limit = math.pi / (2.0 * _energy(m, p))  # the largest step
    lo, hi = math.ceil(0.11 / limit) + 1, min(500, math.floor(9.9 / limit) + 1)
    assume(2 <= lo <= hi)
    samples = draw(st.integers(lo, hi))
    offset = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** draw(st.integers(-16, -6))
    return m, p, (samples - 1) * limit * (1.0 + offset), samples


@settings(max_examples=300)
@given(_near_the_step_limit())
def test_classifier_at_the_step_limit(case):
    _check_grid(*case)


@st.composite
def _near_the_span_limit(draw):
    """(m, p, t_end, samples) with the largest move of a rotating mass equal
    to SPAN_MARGIN * CLASSIFY_TOL, or off it by a relative 1e-16 to 1e-1
    either way."""
    m, p = draw(MASSES), draw(MOMENTA)
    offset = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** draw(st.integers(-16, -1))
    reach = SPAN_MARGIN * CLASSIFY_TOL * (1.0 + offset)
    return m, p, math.asin(reach / (2.0 * m)) / _energy(m, p), draw(SAMPLES)


@settings(max_examples=300)
@given(_near_the_span_limit())
def test_classifier_at_the_span_limit(case):
    _check_grid(*case)
