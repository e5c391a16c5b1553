"""Tests for matrix Compton scattering and phased anticommutators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbrach.cliffrep import build_gamma_scatter, build_majorana
from qbrach.matcore import BLOCK_SAMPLES, anticommutator, commutator, max_abs, pauli
from qbrach.scatter import (
    ScatterConfig,
    block_momentum,
    build_momenta,
    compton_omega2,
    majorana_momentum_matrix,
    majorana_phased_dot,
    phased_anticommutator_block,
    verify_conservation,
)


def test_compton_formula_values():
    assert compton_omega2(1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert compton_omega2(1.0, 1.0, math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    assert compton_omega2(2.0, 1.0, math.pi) == pytest.approx(0.5, abs=1e-15)


def test_compton_rejects_bad_inputs():
    with pytest.raises(ValueError, match="m and omega1 must be positive"):
        compton_omega2(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
        ScatterConfig(1.0, 1.0, 4.0)  # theta outside [0, pi]
    with pytest.raises(ValueError, match="unknown representation 'weyl'"):
        ScatterConfig(1.0, 1.0, 0.5, rep="weyl")


def test_config_takes_the_cli_representation_names():
    assert ScatterConfig(1.0, 1.0, 0.5).rep == "gamma"
    # The builder's name is not a second spelling of "gamma".
    with pytest.raises(ValueError, match="unknown representation 'gamma_scatter'"):
        ScatterConfig(1.0, 1.0, 0.5, rep="gamma_scatter")


@pytest.mark.parametrize("m, omega1", [(1e-308, 1.0), (1.0, 1e-310), (1e-308, 1e-308)])
def test_overflowing_inverse_frequency_is_named(m, omega1):
    # For m, omega1 > 0 omega2 is positive; it reads 0 only when
    # 1/omega1 + (1 - cos(theta))/m overflows, which was once reported as
    # "scattered frequency must be positive".
    cfg = ScatterConfig(m, omega1, np.array([0.0, math.pi / 2, math.pi]))
    with pytest.raises(ValueError, match="overflows"):
        verify_conservation(cfg)
    # A direct call once returned 0.0 with numpy's overflow RuntimeWarning.
    with pytest.raises(ValueError, match="omega2 underflows to 0"):
        compton_omega2(m, omega1, cfg.theta)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["m", "omega1"])
def test_non_finite_mass_or_frequency_is_rejected(which, value):
    # A NaN once passed the m <= 0 test and gave NaN residuals.
    kin = {"m": 1.0, "omega1": 1.0, which: value}
    with pytest.raises(ValueError, match="m and omega1 must be (positive|finite)"):
        compton_omega2(kin["m"], kin["omega1"], 0.5)
    with pytest.raises(ValueError, match="m and omega1 must be (positive|finite)"):
        ScatterConfig(kin["m"], kin["omega1"], 0.5)


@pytest.mark.parametrize("theta", [
    [0.5, 3.2, 1.0],  # one angle above pi
    [-1e-300, 0.5],  # one below 0
    [0.0, np.nan, 1.0],
    np.nan,
    [[0.5, 1.0]],  # not 1-D
    [],
], ids=["above-pi", "below-0", "nan-in-array", "nan", "2-d", "empty"])
def test_config_rejects_bad_angle_arrays(theta):
    with pytest.raises(ValueError, match=r"^theta must (lie in \[0, pi\]|be one angle)"):
        ScatterConfig(1.0, 1.0, np.array(theta))


def _per_angle(m, w1, th, rep):
    """verify_conservation at one angle as it was computed before it took an
    array of angles, kept as the reference for the grid."""
    if rep == "majorana":
        maj = build_majorana()
        gt, gx, gy = 1j * maj.beta, maj.alpha[0], maj.alpha[1]
    else:
        gt, gx, gy, _ = build_gamma_scatter()
    w2 = float(compton_omega2(m, w1, th))
    e2 = m + w1 - w2
    px, py = w1 - w2 * np.cos(th), -w2 * np.sin(th)
    p2mag, phi = float(np.hypot(px, py)), float(np.arctan2(py, px))
    p1 = m * gt
    p2 = e2 * gt + 1j * p2mag * (np.cos(phi) * gx + np.sin(phi) * gy)
    q1 = w1 * (gt + 1j * gx)
    q2 = w2 * (gt + 1j * (np.cos(th) * gx + np.sin(th) * gy))
    rhs = p1 @ p1 + anticommutator(q1 - q2, p1) - anticommutator(q1, q2)
    return {
        "residual_energy": abs(e2 * e2 - p2mag * p2mag - m * m),
        "residual_compton": abs(2 * m * (w1 - w2) - 2 * w1 * w2 * (1 - np.cos(th))),
        "residual_matrix": max_abs(p2 @ p2 - rhs),
        "residual_lightlike_q1": max_abs(q1 @ q1),
        "residual_lightlike_q2": max_abs(q2 @ q2),
        "omega2": w2,
    }


@pytest.mark.parametrize("n", [1, 2, 16, 64, BLOCK_SAMPLES - 1, BLOCK_SAMPLES,
                               BLOCK_SAMPLES + 1, 1000])
# The ids name each representation's generator builder in cliffrep.
@pytest.mark.parametrize("rep", ["gamma", "majorana"], ids=["gamma_scatter", "majorana"])
def test_compton_grid_equals_per_angle_loop(rep, n):
    rng = np.random.default_rng(n)
    m, w1 = rng.uniform(0.2, 3.0, 2)
    if n == 1:
        grids = [np.array([0.0]), np.array([math.pi]), rng.uniform(0.0, math.pi, 1)]
    else:
        grids = [np.concatenate([[0.0], np.sort(rng.uniform(0.0, math.pi, n - 2)), [math.pi]])]
    for thetas in grids:
        res = verify_conservation(ScatterConfig(m, w1, thetas, rep=rep))
        for i, th in enumerate(thetas):
            expected = _per_angle(m, w1, float(th), rep)
            one = verify_conservation(ScatterConfig(m, w1, float(th), rep=rep))
            for key, value in expected.items():
                assert res[key].shape == thetas.shape, key
                assert res[key][i] == value, (key, th)
                assert isinstance(one[key], np.float64) and one[key] == value, (key, th)


def test_momentum_squares():
    cfg = ScatterConfig(1.0, 1.0, math.pi / 3)
    p1, p2, q1, q2 = build_momenta(cfg)
    assert max_abs(p1 @ p1 - np.eye(4)) < 1e-14
    assert max_abs(q1 @ q1) < 1e-14
    assert max_abs(q2 @ q2) < 1e-14


def test_forward_scattering_is_trivial():
    cfg = ScatterConfig(1.0, 1.0, 0.0)
    p1, p2, q1, q2 = build_momenta(cfg)
    assert max_abs(q1 - q2) == 0
    assert max_abs(p1 - p2) < 1e-15
    res = verify_conservation(cfg)
    assert res["residual_energy"] == 0
    assert res["residual_matrix"] == 0


def test_q1_q2_anticommutator_value():
    """{q1, q2} = 2 w1 w2 (1 - cos(theta)) 1."""
    cfg = ScatterConfig(1.0, 1.0, math.pi / 2)
    _, _, q1, q2 = build_momenta(cfg)
    w2 = compton_omega2(1.0, 1.0, math.pi / 2)
    assert max_abs(anticommutator(q1, q2) - 2 * 1.0 * w2 * np.eye(4)) < 1e-14


def test_q1_dagger_q1_identity():
    """q1^dag q1 = w1^2 (2 + i [g_t, g_x])."""
    cfg = ScatterConfig(1.0, 2.0, 0.7)
    _, _, q1, _ = build_momenta(cfg)
    gt, gx, _, _ = build_gamma_scatter()
    expected = 4.0 * (2 * np.eye(4) + 1j * commutator(gt, gx))
    assert max_abs(q1.conj().T @ q1 - expected) < 1e-12


def test_conservation_residuals_both_reps():
    rng = np.random.default_rng(61)
    for _ in range(20):
        m, w1 = rng.uniform(0.2, 3.0, 2)
        th = rng.uniform(0.0, math.pi)
        res_g = verify_conservation(ScatterConfig(m, w1, th, rep="gamma"))
        res_m = verify_conservation(ScatterConfig(m, w1, th, rep="majorana"))
        for res in (res_g, res_m):
            assert res["residual_energy"] < 1e-12
            assert res["residual_compton"] < 1e-12
            assert res["residual_matrix"] < 1e-12
        # both representations see the same kinematics
        assert abs(res_g["omega2"] - res_m["omega2"]) < 1e-15


def test_intermediate_anticommutator():
    """{(q1 - q2), p1} = 2m(w1 - w2) 1."""
    m, w1, th = 1.3, 0.8, 1.1
    cfg = ScatterConfig(m, w1, th)
    p1, _, q1, q2 = build_momenta(cfg)
    w2 = compton_omega2(m, w1, th)
    lhs = anticommutator(q1 - q2, p1)
    assert max_abs(lhs - 2 * m * (w1 - w2) * np.eye(4)) < 1e-14


def test_phased_block_anticommutator_against_brute_force():
    rng = np.random.default_rng(67)
    for _ in range(200):
        p = rng.uniform(-2, 2, 3)
        q = rng.uniform(-2, 2, 3)
        th = rng.uniform(-math.pi, math.pi)
        lhs = 0.5 * anticommutator(block_momentum(p, th), block_momentum(q, 0.0))
        assert max_abs(lhs - phased_anticommutator_block(p, q, th)) < 1e-12


def test_phased_block_reduces_at_zero():
    p, q = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
    assert max_abs(phased_anticommutator_block(p, q, 0.0) - (p @ q) * np.eye(4)) == 0


def test_phased_block_parallel_vectors():
    p = np.array([1.0, -2.0, 0.5])
    out = phased_anticommutator_block(p, 3 * p, 0.9)
    assert max_abs(out - math.cos(0.9) * (p @ (3 * p)) * np.eye(4)) < 1e-14


def test_phased_block_theta_derivative():
    """d/dtheta at 0 matches a central finite difference."""
    p, q = np.array([0.4, 1.0, -0.3]), np.array([2.0, -1.0, 0.8])
    h = 1e-6
    fd = (phased_anticommutator_block(p, q, h)
          - phased_anticommutator_block(p, q, -h)) / (2 * h)
    cross = np.cross(p, q)
    csig = sum(c * pauli(i) for c, i in zip(cross, ("x", "y", "z")))
    analytic = np.block(
        [[csig, np.zeros((2, 2))], [np.zeros((2, 2)), -csig]]
    )
    assert max_abs(fd - analytic) < 1e-6


def test_majorana_phased_dot_against_matrices():
    rng = np.random.default_rng(71)
    for _ in range(200):
        p = rng.uniform(-2, 2, 3)
        q = rng.uniform(-2, 2, 3)
        phi = rng.uniform(-math.pi, math.pi)
        lhs = 0.5 * anticommutator(
            majorana_momentum_matrix(p, phi), majorana_momentum_matrix(q, 0.0)
        )
        assert max_abs(lhs - majorana_phased_dot(p, q, phi) * np.eye(4)) < 1e-12


def test_majorana_phased_dot_values():
    p = q = np.array([0.0, 1.0, 0.0])
    assert majorana_phased_dot(p, q, 0.0) == pytest.approx(1.0)
    assert majorana_phased_dot(p, q, math.pi) == pytest.approx(-1.0)


# The bodies of the three phase-deformed embeddings as they were before they
# were stated as Kronecker products, kept as their bit-exact references.
def _reference_block_momentum(p, theta):
    p = np.asarray(p, dtype=float)
    psig = sum(pi * pauli(i) for pi, i in zip(p, ("x", "y", "z")))
    z = np.zeros((2, 2), dtype=complex)
    return np.block(
        [[z, -1j * np.exp(-1j * theta) * psig], [1j * np.exp(1j * theta) * psig, z]]
    )


def _reference_phased_anticommutator_block(p, q, theta):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cross = np.cross(p, q)
    csig = sum(ci * pauli(i) for ci, i in zip(cross, ("x", "y", "z")))
    z = np.zeros((2, 2), dtype=complex)
    block = np.block([[np.sin(theta) * csig, z], [z, -np.sin(theta) * csig]])
    return np.cos(theta) * float(p @ q) * np.eye(4, dtype=complex) + block


def _reference_majorana_momentum_matrix(p, phi):
    px, py, pz = np.asarray(p, dtype=float)
    e = np.exp(-1j * phi)
    return np.array(
        [
            [px, pz, py * e, 0],
            [pz, -px, 0, py * e],
            [py / e, 0, -px, -pz],
            [0, py / e, -pz, px],
        ],
        dtype=complex,
    )


COMPONENTS = st.floats(-1e3, 1e3) | st.just(0.0)
VECTORS = st.tuples(COMPONENTS, COMPONENTS, COMPONENTS)
ANGLES = st.floats(-2 * math.pi, 2 * math.pi) | st.sampled_from([0.0, math.pi / 2, math.pi])


@given(p=VECTORS, q=VECTORS, theta=ANGLES)
def test_kronecker_embeddings_equal_their_references(p, q, theta):
    for got, want in [
        (block_momentum(p, theta), _reference_block_momentum(p, theta)),
        (phased_anticommutator_block(p, q, theta),
         _reference_phased_anticommutator_block(p, q, theta)),
        (majorana_momentum_matrix(p, theta), _reference_majorana_momentum_matrix(p, theta)),
    ]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@given(p=VECTORS)
def test_unphased_majorana_momentum_is_the_massless_hamiltonian(p):
    assert np.array_equal(majorana_momentum_matrix(p, 0.0), build_majorana().hamiltonian(0.0, p))
