"""Tests for the frame-equivalence bilinear identities."""

import numpy as np
import pytest

from qbrach.frames import (
    FrameCase,
    FrameError,
    check_frame_equivalence,
    check_klein_gordon,
    expectation,
    make_frame_case,
)
from qbrach.propagate import PropagateError


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
    from qbrach.cliffrep import build_majorana
    from qbrach.propagate import evolve_hamiltonian, majorana_eigenframe

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
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FrameError, match="2 E t"):
        make_frame_case([1.0, 0, 0, 0], t, 1.0, (1, 1, 1))


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
