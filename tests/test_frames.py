"""Tests for the frame-equivalence bilinear identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrach.cliffrep import build_majorana
from qbrach.frames import (
    FrameCase,
    FrameError,
    check_frame_equivalence,
    check_klein_gordon,
    expectation,
    make_frame_case,
)
from qbrach.matcore import max_abs, worst
from qbrach.propagate import PropagateError, evolve_hamiltonian, majorana_eigenframe


def test_expectation_identity_state():
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    assert expectation(np.eye(4), psi) == pytest.approx(1.0)


def test_expectation_hermitian_is_real():
    rng = np.random.default_rng(73)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = psi / np.linalg.norm(psi)
    assert abs(expectation(h, psi).imag) < 1e-12


def test_make_frame_case_normalizes_and_preserves_norm():
    case = make_frame_case([2.0, 0, 0, 0], 0.7, 1.0, (1, 1, 1))
    assert np.linalg.norm(case.v) == pytest.approx(1.0)
    assert np.linalg.norm(case.w) == pytest.approx(1.0, abs=1e-12)


def test_make_frame_case_rejects_zero_state():
    with pytest.raises(FrameError):
        make_frame_case([0, 0, 0, 0], 0.5, 1.0, (1, 0, 0))


def test_identities_hold_for_random_states():
    rng = np.random.default_rng(79)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = rng.uniform(0.05, 3.0)
        case = make_frame_case(v, t, 1.0, (1.0, 1.0, 1.0))
        report = check_frame_equivalence(case)
        assert report["verdict"] == "PASS"
        for name, resid in report["residuals"].items():
            assert resid < 1e-10, name


def test_identities_trivial_at_t_zero():
    case = make_frame_case([1, 1j, 0.5, -0.25], 0.0, 1.0, (0.5, -0.5, 1.0))
    report = check_frame_equivalence(case)
    assert max(report["residuals"].values()) < 1e-14


def test_negative_control_fails():
    """An unevolved partner state at t != 0 must be rejected."""
    rng = np.random.default_rng(83)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    bad = FrameCase(v=v, w=v.copy(), t=0.7, m=1.0, p=(1.0, 1.0, 1.0), energy=2.0)
    report = check_frame_equivalence(bad)
    assert report["verdict"] == "FAIL"


def test_squared_expectation_equality():
    """<v|H(t)^2|v> = <w|H(0)^2|w> = m^2 + |p|^2 for unit states."""
    rng = np.random.default_rng(89)
    m, p = 1.0, (1.0, 1.0, 1.0)
    rep = build_majorana()
    h0 = rep.hamiltonian(m, p)
    frame = majorana_eigenframe(m, p)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        case = make_frame_case(v, rng.uniform(0, 2), m, p)
        ht = evolve_hamiltonian(frame, h0, case.t)
        lhs = expectation(ht @ ht, case.v).real
        rhs = expectation(h0 @ h0, case.w).real
        assert abs(lhs - rhs) < 1e-10
        assert abs(lhs - 4.0) < 1e-10


@pytest.mark.parametrize("t", [1e308, np.float64(1e308), -1e308, np.inf, np.nan])
def test_make_frame_case_rejects_overflowing_phase(t):
    # The propagator's own check: make_frame_case no longer repeats it.
    with np.errstate(over="raise", invalid="raise"), pytest.raises(PropagateError) as info:
        make_frame_case([1.0, 0, 0, 0], t, 1.0, (1, 1, 1))
    assert str(info.value) == f"2 E (t - s) is not finite at E = 2, t - s = {t:g}"


@pytest.mark.parametrize("t", [1e308, -1e308, np.inf])
def test_klein_gordon_rejects_overflowing_phase(t):
    with np.errstate(all="raise"), pytest.raises(PropagateError, match=r"2 E \(t - s\)"):
        check_klein_gordon(1.0, (1, 1, 1), [0.0, t])


@pytest.mark.parametrize("m", [1e6, 1e8, 1e154])
def test_klein_gordon_at_large_mass_is_a_residual(m):
    # H(t) is Hermitian up to rounding at every scale; this once raised
    # FrameError("evolved Hamiltonian lost Hermiticity").  The relative
    # residual stays at rounding level.
    with np.errstate(over="raise", invalid="raise"):
        kg = check_klein_gordon(m, (1, 1, 1), np.linspace(0.0, 0.7, 16))
    assert kg / (m * m) < 1e-14


def test_klein_gordon_residual():
    assert check_klein_gordon(1.0, (1, 1, 1), np.linspace(0, 2, 9)) < 1e-12
    assert check_klein_gordon(0.0, (0, 0, 0), [0.0, 1.0]) == 0


def _reference_klein_gordon(m, p, t_grid):
    """check_klein_gordon as one evolve_hamiltonian call per time; kept as the
    reference for its bits."""
    p = np.asarray(p, dtype=float)
    frame = majorana_eigenframe(float(m), tuple(p))
    h0 = build_majorana().hamiltonian(float(m), tuple(p))
    target = (m * m + float(p @ p)) * np.eye(4)
    residuals = []
    for t in np.asarray(t_grid, dtype=float):
        ht = evolve_hamiltonian(frame, h0, float(t))
        residuals.append(max_abs(ht @ ht - target))
    return worst(residuals)


TIMES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0),
                  st.floats(-1e150, 1e150))


@settings(max_examples=200)
@given(m=st.floats(-500.0, 500.0), p=st.tuples(*[st.floats(-500.0, 500.0)] * 3),
       t_grid=st.lists(TIMES, min_size=1, max_size=16))
def test_klein_gordon_on_a_grid_equals_per_time_loop(m, p, t_grid):
    assert check_klein_gordon(m, p, t_grid) == _reference_klein_gordon(m, p, t_grid)
