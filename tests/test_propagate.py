"""Tests for closed-form eigenframes, propagators, and the mass classifier."""

import numpy as np
import pytest

from qbrach.cliffrep import build_dirac, build_majorana
from qbrach.matcore import BLOCK_SAMPLES, max_abs
from qbrach.propagate import (
    CLASSIFY_TOL,
    SPAN_MARGIN,
    PropagateError,
    classify_mass,
    eigenframe_at,
    evolve_hamiltonian,
    majorana_eigenframe,
    mass_series_from_pairs,
    project_coeffs,
    propagator,
)


def _random_mp(rng):
    m = rng.uniform(0.1, 3.0)
    p = rng.uniform(-3.0, 3.0, 3)
    return m, p


def test_closed_form_diagonalizes():
    rng = np.random.default_rng(23)
    rep = build_majorana()
    for _ in range(100):
        m, p = _random_mp(rng)
        frame = majorana_eigenframe(m, p)
        h = rep.hamiltonian(m, p)
        assert max_abs(frame.w_inv @ h @ frame.w - frame.d) < 1e-10
        assert max_abs(frame.w @ frame.w_inv - np.eye(4)) < 1e-10
        assert not frame.degenerate_fallback


def test_degenerate_fallback_used_when_denominator_vanishes():
    """p_y = 0, m = 0 kills the closed-form denominator p_y - i m."""
    frame = majorana_eigenframe(0.0, (1.0, 0.0, 1.0))
    assert frame.degenerate_fallback
    h = build_majorana().hamiltonian(0.0, (1.0, 0.0, 1.0))
    assert max_abs(frame.w_inv @ h @ frame.w - frame.d) < 1e-10


def test_propagator_is_phased_diagonal():
    rng = np.random.default_rng(29)
    m, p = 1.0, np.array([1.0, 1.0, 1.0])
    energy = 2.0
    frame = majorana_eigenframe(m, p)
    u = propagator(frame)
    for _ in range(50):
        t, s = rng.uniform(-3, 3, 2)
        ph = np.exp(-2j * energy * (t - s))
        assert max_abs(u(t, s) - np.diag([ph, ph, 1, 1])) < 1e-12


def test_propagator_group_laws():
    rng = np.random.default_rng(31)
    frame = majorana_eigenframe(0.5, (0.3, -1.2, 0.7))
    u = propagator(frame)
    for _ in range(50):
        t, s, r, tau = rng.uniform(-2, 2, 4)
        assert max_abs(u(t, s) @ u(t, s).conj().T - np.eye(4)) < 1e-10
        assert max_abs(u(t, s) @ u(s, r) - u(t, r)) < 1e-10
        # time-translation invariance: only t - s matters
        assert max_abs(u(t + tau, s + tau) - u(t, s)) < 1e-10


def test_eigenframe_at_consistency():
    """W(t) diagonalizes H(t) at every sampled time."""
    m, p = 1.0, (1.0, 1.0, 1.0)
    frame = majorana_eigenframe(m, p)
    h0 = build_majorana().hamiltonian(m, p)
    for t in (0.0, 0.3, 1.7):
        w_t = eigenframe_at(frame, t)
        h_t = evolve_hamiltonian(frame, h0, t)
        assert max_abs(h_t @ w_t - w_t @ frame.d) < 1e-10


def test_evolved_entry_and_klein_gordon():
    m, p = 1.0, (1.0, 1.0, 1.0)
    energy = 2.0
    frame = majorana_eigenframe(m, p)
    h0 = build_majorana().hamiltonian(m, p)
    for t in np.linspace(0.0, 2.0, 20):
        h_t = evolve_hamiltonian(frame, h0, t)
        assert abs(h_t[0, 2] - (p[1] + 1j * m) * np.exp(-2j * energy * t)) < 1e-12
        assert max_abs(h_t @ h_t - (m * m + 3.0) * np.eye(4)) < 1e-10


def test_evolve_rejects_wrong_spectrum():
    frame = majorana_eigenframe(1.0, (1.0, 1.0, 1.0))
    with pytest.raises(PropagateError):
        evolve_hamiltonian(frame, np.diag([5.0, 1.0, -1.0, -5.0]), 0.1)


def test_evolve_spectrum_tolerance_scales_with_energy():
    # At m = 1e8 eigvalsh is off by about 1.5e-8, above the old absolute 1e-8.
    p = (1.0, 1.0, 1.0)
    rep = build_majorana()
    frame = majorana_eigenframe(1e8, p)
    h_t = evolve_hamiltonian(frame, rep.hamiltonian(1e8, p), 0.7)
    assert max_abs(h_t @ h_t - frame.energy ** 2 * np.eye(4)) / frame.energy ** 2 < 1e-14
    with pytest.raises(PropagateError):
        evolve_hamiltonian(frame, rep.hamiltonian(1.001e8, p), 0.7)  # mass 0.1 % off
    with pytest.raises(PropagateError):
        evolve_hamiltonian(majorana_eigenframe(1.0, p), rep.hamiltonian(1.0 + 1e-7, p), 0.7)


@pytest.mark.parametrize("m,p", [(1e200, (1.0, 1.0, 1.0)), (np.float64(1e200), (0.0, 0.0, 0.0)),
                                 (1.0, (0.0, 1e155, 1e155))])
def test_eigenframe_rejects_overflowing_energy(m, p):
    with np.errstate(all="raise"), pytest.raises(PropagateError, match="overflows"):
        majorana_eigenframe(m, p)


def test_project_coeffs_recovers_hamiltonian():
    h = build_majorana().hamiltonian(0.8, (0.1, 0.2, 0.3))
    coeffs = project_coeffs(h)
    assert abs(coeffs[("y", "1")].real + 0.8) < 1e-14
    assert abs(coeffs[("x", "1")].real - 0.2) < 1e-14


def test_mass_series_zero_initial():
    series = mass_series_from_pairs(0.0, np.zeros(5), np.zeros(5))
    assert max_abs(series) == 0


def test_classify_majorana_rotating():
    report = classify_mass(build_majorana(), 1.0, (1.0, 1.0, 1.0),
                           np.linspace(0, 3, 300))
    assert report.verdict == "ROTATING"
    assert report.modulus_deviation < 1e-10
    assert abs(report.phase_rate - report.expected_rate) / report.expected_rate < 1e-6


def test_classify_dirac_constant():
    report = classify_mass(build_dirac(), 1.0, (1.0, 1.0, 1.0),
                           np.linspace(0, 3, 300))
    assert report.verdict == "CONSTANT"
    assert report.modulus_deviation < 1e-10


def test_classify_massless_majorana_constant():
    """m0 = 0 leaves nothing to rotate; the verdict is CONSTANT."""
    report = classify_mass(build_majorana(), 0.0, (1.0, 1.0, 1.0),
                           np.linspace(0, 2, 100))
    assert report.verdict == "CONSTANT"


def test_classify_requires_samples():
    with pytest.raises(PropagateError):
        classify_mass(build_majorana(), 1.0, (1.0, 1.0, 1.0), [])


@pytest.mark.parametrize("grid", [
    # 2EΔt = 4 * 0.7 < pi: the fewest samples the grid rule allows.
    np.linspace(0.0, 0.7, 2),
    np.linspace(0.0, 3.0, BLOCK_SAMPLES),
    np.linspace(0.0, 3.0, BLOCK_SAMPLES + 1),
    np.linspace(0.0, 7.0, 1000),
    np.linspace(0.0, 3.0, 200),  # report-all's classify_mass grid
], ids=["2", "256", "257", "1000", "report-all"])
@pytest.mark.parametrize("rep", [build_majorana(), build_dirac()], ids=["majorana", "dirac"])
def test_blocked_classify_equals_per_sample_loop(rep, grid):
    m, p = 1.0, np.array([1.0, 1.0, 1.0])
    energy = np.sqrt(m * m + p @ p)
    h0 = rep.hamiltonian(m, p)
    dmat = energy * np.diag([1.0, 1.0, -1.0, -1.0])
    c_mass = np.empty(grid.size)
    c_y = np.empty(grid.size)
    for i, t in enumerate(grid):
        u = np.diag(np.exp(-1j * t * np.diag(dmat)))
        h_t = u @ h0 @ u.conj().T
        c_mass[i] = np.trace(h_t @ rep.mass_gen).real / 4.0
        c_y[i] = np.trace(h_t @ rep.alpha[1]).real / 4.0
    if rep.name == "majorana":
        expected = mass_series_from_pairs(m, c_mass, c_y)
    else:
        expected = c_mass.astype(complex)
    report = classify_mass(rep, m, p, grid)
    assert report.mass_series.shape == expected.shape
    assert (report.mass_series == expected).all()


@pytest.mark.parametrize("m,grid", [
    (1.0, np.zeros(300)),  # no span
    (1.0, np.linspace(0.0, np.pi / 2, 2)),  # 2EΔt = 2 pi: one whole turn per step
    (1.0, np.linspace(0.0, np.pi / 4, 2)),  # 2EΔt = pi exactly
    (1000.0, np.linspace(0.0, 3.0, 300)),  # 2EΔt = 20
], ids=["no-span", "whole-turn", "half-turn", "heavy"])
@pytest.mark.parametrize("rep", [build_majorana(), build_dirac()], ids=["majorana", "dirac"])
def test_classify_rejects_grids_that_miss_the_rotation(rep, m, grid):
    # All but the half turn once gave a Majorana mass CONSTANT, or ROTATING at
    # a rate 94 % below 2E.  At a half turn per step, +2E and -2E give the
    # same samples.
    with pytest.raises(PropagateError):
        classify_mass(rep, m, (1.0, 1.0, 1.0), grid)


@pytest.mark.parametrize("rep", [build_majorana(), build_dirac()], ids=["majorana", "dirac"])
def test_classify_rejects_spans_too_short_for_the_rotation(rep):
    # Over t_end = 1e-12 a Majorana mass turns by about 4e-12, below
    # CLASSIFY_TOL, and was once called CONSTANT.
    m, p = 1.0, (1.0, 1.0, 1.0)
    # The span over which a mass rotating at 2E = 4 moves SPAN_MARGIN * CLASSIFY_TOL.
    limit = np.arcsin(SPAN_MARGIN * CLASSIFY_TOL / (2 * m)) / 2.0
    for t_end in (1e-12, limit * (1 - 1e-6)):
        for mass in (m, -m):
            with pytest.raises(PropagateError, match="too short"):
                classify_mass(rep, mass, p, np.linspace(0.0, t_end, 300))
    report = classify_mass(rep, m, p, np.linspace(0.0, limit * (1 + 1e-6), 300))
    assert report.verdict == ("ROTATING" if rep.name == "majorana" else "CONSTANT")
    # With no mass there is nothing to rotate, whatever the span.
    assert classify_mass(rep, 0.0, p, np.linspace(0.0, 1e-12, 300)).verdict == "CONSTANT"
