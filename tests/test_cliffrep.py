"""Clifford-relation tests for the built-in spinor representations."""

import numpy as np

from qbrach.cliffrep import (
    build_dirac,
    build_gamma_scatter,
    build_majorana,
    kron_decomposition_residual,
    verify_algebra,
    verify_gamma_algebra,
)
from qbrach.matcore import anticommutator, max_abs


def test_majorana_matrices_are_real_integers():
    rep = build_majorana()
    for mat in (rep.beta,) + rep.alpha:
        assert max_abs(mat.imag) == 0
        assert np.array_equal(mat.real, np.round(mat.real))


def test_majorana_beta_squares_to_minus_one():
    """The real antisymmetric beta squares to -1; the Hermitian mass
    generator i*beta is what squares to +1."""
    rep = build_majorana()
    assert max_abs(rep.beta @ rep.beta + np.eye(4)) == 0
    g = rep.mass_gen
    assert max_abs(g - g.conj().T) == 0
    assert max_abs(g @ g - np.eye(4)) == 0


def test_builders_give_the_mass_generator():
    """i*beta for the Majorana set, whose beta is anti-Hermitian; beta itself
    for Dirac."""
    maj, dirac = build_majorana(), build_dirac()
    assert (1j * maj.beta).tobytes() == maj.mass_gen.tobytes()
    assert dirac.beta.tobytes() == dirac.mass_gen.tobytes()


def test_algebra_residuals_exactly_zero():
    for rep in (build_majorana(), build_dirac()):
        report = verify_algebra(rep)
        assert report, rep.name
        for name, resid in report.items():
            assert resid == 0.0, f"{rep.name}: {name} = {resid}"


def test_gamma_scatter_algebra():
    report = verify_gamma_algebra()
    assert all(r == 0.0 for r in report.values())


def test_gamma_set_squares_to_plus_one():
    for g in build_gamma_scatter():
        assert max_abs(g @ g - np.eye(4)) == 0


def test_kron_decomposition():
    assert kron_decomposition_residual() == 0.0


def test_hamiltonian_hermitian_with_correct_spectrum():
    rng = np.random.default_rng(5)
    for rep in (build_majorana(), build_dirac()):
        m = rng.uniform(0.2, 2.0)
        p = rng.uniform(-2, 2, 3)
        h = rep.hamiltonian(m, p)
        assert max_abs(h - h.conj().T) < 1e-14
        energy = np.sqrt(m * m + p @ p)
        vals = np.sort(np.linalg.eigvalsh(h))
        assert max_abs(vals - [-energy, -energy, energy, energy]) < 1e-12


def test_gamma0_anticommutes_with_generators():
    rep = build_majorana()
    for a in (rep.mass_gen,) + rep.alpha:
        assert max_abs(anticommutator(rep.gamma0, a)) == 0


def test_spin_z_first_row():
    """S_z = (1/2)[a_x, a_y] has first row (0, 0, 1, 0) in the Majorana
    representation."""
    rep = build_majorana()
    sz = rep.spin[2]
    assert max_abs(sz[0] - np.array([0, 0, 1, 0])) == 0
    # antisymmetric and real, like every Majorana spin matrix
    assert max_abs(sz + sz.T) == 0
    assert max_abs(sz.imag) == 0
