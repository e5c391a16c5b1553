"""Property tests for the mass classifier and its grid rules, and for the
exact power-of-two scaling of the flow and the closed forms.

Over m in [0.1, 3], p in [-3, 3]^3, t_end up to 10 and 2 to 500 samples on
np.linspace(0, t_end, samples): a grid whose steps resolve the rotation at
rate 2E, and whose span lets a rotating mass move more than
SPAN_MARGIN * CLASSIFY_TOL, gives CONSTANT for the Dirac mass and ROTATING
at 2E for the Majorana mass; every other grid raises ValueError.

Multiplying by 2^j is exact in binary floating point away from overflow and
underflow, and the flow, its audit and the closed forms are homogeneous, so
the scaling relations hold bit for bit.  They hold whatever the order of
summation, so they need no kept copy of an older implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbrach import qbe
from qbrach.angmom4 import toy_hamiltonian
from qbrach.cliffrep import build_dirac, build_majorana
from qbrach.frames import check_frame_equivalence, check_klein_gordon, make_frame_case
from qbrach.propagate import (
    CLASSIFY_TOL,
    NYQUIST_MARGIN,
    SPAN_MARGIN,
    classify_mass,
    evolve_hamiltonian,
    majorana_eigenframe,
)
from qbrach.scatter import ScatterConfig, verify_conservation

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
            with pytest.raises(ValueError, match="^t_grid"):
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


# Exact power-of-two scaling.  Coefficients keep clear of 0 so that no
# product underflows to a subnormal, where scaling is no longer exact.
# BrachSystem's span guard is relative to max|H0|, so the flow takes the same
# |j| <= 20 at every scale.
def _clear_of_zero(hi, signed=True):
    """0, or a float of magnitude in [1e-3, hi]."""
    sides = (st.floats(1e-3, hi), st.floats(-hi, -1e-3)) if signed else (st.floats(1e-3, hi),)
    return st.one_of(st.just(0.0), *sides)


COEFFS = _clear_of_zero(3.0)
FLOW_J = st.integers(-20, 20)
CLOSED_J = st.integers(-10, 10)


def _scale(x, j):
    """2^j x, exact for a real or complex x away from overflow and underflow."""
    return np.multiply(x, 2.0**j)


def _check_flow_scaling(system, scaled, j, steps, step):
    """The scaled flow over 2^-j the step and horizon is 2^j the flow, and its
    drifts are 4^j the flow's, 2^j for the spectrum."""
    t_end = steps * step
    base = qbe.integrate_qbe(system, t_end, step)
    traj = qbe.integrate_qbe(scaled, math.ldexp(t_end, -j), math.ldexp(step, -j))
    assert traj.coeffs.tobytes() == _scale(base.coeffs, j).tobytes()
    want = qbe.conserved_residuals(base)
    got = qbe.conserved_residuals(traj)
    for name, power in zip(qbe.DRIFTS, (2, 2, 2, 1)):
        key = f"{name}_drift"
        assert got[key] == math.ldexp(want[key], power * j), key


@settings(max_examples=40)
@given(FLOW_J, st.floats(0.1, 3.0), st.tuples(*[COEFFS] * 3),
       st.none() | st.lists(COEFFS, min_size=11, max_size=11),
       st.integers(1, 20), st.floats(1e-3, 0.05))
def test_majorana_flow_scales_exactly(j, m, p, lam, steps, step):
    system = qbe.majorana_system(m, p, lam)
    scaled = qbe.majorana_system(math.ldexp(m, j), _scale(p, j),
                                 None if lam is None else _scale(lam, j))
    _check_flow_scaling(system, scaled, j, steps, step)


@settings(max_examples=40)
@given(FLOW_J, st.tuples(*[COEFFS] * 3), st.tuples(*[COEFFS] * 3),
       st.lists(COEFFS, min_size=9, max_size=9), st.integers(1, 20), st.floats(1e-3, 0.05))
def test_angmom_flow_scales_exactly(j, n, l, f_coeffs, steps, step):
    system = qbe.angmom_system(toy_hamiltonian(n, l), f_coeffs)
    scaled = qbe.angmom_system(toy_hamiltonian(_scale(n, j), _scale(l, j)), _scale(f_coeffs, j))
    _check_flow_scaling(system, scaled, j, steps, step)


@settings(max_examples=60)
@given(CLOSED_J, st.floats(0.1, 3.0), st.floats(0.1, 3.0),
       st.lists(_clear_of_zero(math.pi, signed=False), min_size=1, max_size=8),
       st.sampled_from(["gamma", "majorana"]))
def test_compton_scales_exactly(j, m, omega1, thetas, rep):
    """Under (m, omega1) -> 2^j (m, omega1) omega2 scales by 2^j and every
    residual by 4^j."""
    want = verify_conservation(ScatterConfig(m, omega1, np.array(thetas), rep))
    got = verify_conservation(ScatterConfig(math.ldexp(m, j), math.ldexp(omega1, j),
                                            np.array(thetas), rep))
    for key, value in want.items():
        power = 1 if key == "omega2" else 2
        assert got[key].tobytes() == _scale(value, power * j).tobytes(), key


def _evolved(m, p, t):
    return evolve_hamiltonian(majorana_eigenframe(m, p), build_majorana().hamiltonian(m, p), t)


@settings(max_examples=30)
@given(CLOSED_J, _clear_of_zero(3.0, signed=False), st.tuples(*[COEFFS] * 3),
       _clear_of_zero(10.0))
def test_evolved_hamiltonian_scales_exactly(j, m, p, t):
    """H(t) at (2^j m, 2^j p, t / 2^j) is 2^j H(t)."""
    got = _evolved(math.ldexp(m, j), _scale(p, j), math.ldexp(t, -j))
    assert got.tobytes() == _scale(_evolved(m, p, t), j).tobytes()


@settings(max_examples=60)
@given(CLOSED_J, st.floats(0.1, 3.0), st.tuples(*[COEFFS] * 3), st.floats(0.1, 3.0),
       st.lists(COEFFS, min_size=8, max_size=8))
def test_frame_residuals_scale_exactly(j, m, p, t, parts):
    """At (2^j m, 2^j p, t / 2^j) the bilinear residuals keep their bits, the
    headline residual scales by 2^j and the Klein-Gordon residual by 4^j."""
    v = np.array(parts[:4]) + 1j * np.array(parts[4:])
    assume(np.any(v != 0))
    base = make_frame_case(v, t, m, p)
    scaled = make_frame_case(v, math.ldexp(t, -j), math.ldexp(m, j), _scale(p, j))
    want, got = check_frame_equivalence(base), check_frame_equivalence(scaled)
    for key, value in want.items():
        assert got[key] == (math.ldexp(value, j) if key == "headline" else value), key
    kg = check_klein_gordon(base.frame, base.h0, np.linspace(0.0, t, 16))
    assert check_klein_gordon(scaled.frame, scaled.h0,
                              np.linspace(0.0, math.ldexp(t, -j), 16)) == math.ldexp(kg, 2 * j)
