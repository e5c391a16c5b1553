"""Clifford-relation tests for the built-in spinor representations."""

import numpy as np
import pytest

from qbrach import frames, propagate, qbe, scatter
from qbrach.cliffrep import (
    build_dirac,
    build_gamma_scatter,
    build_majorana,
    verify_algebra,
    verify_gamma_algebra,
)
from qbrach.matcore import anticommutator, kron_matrix, max_abs, pauli


# The paper's matrices, written out: (beta, alpha_x, alpha_y, alpha_z).
MAJORANA = (
    [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    np.diag([1, -1, -1, 1]),
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
)
DIRAC = (
    np.diag([1, 1, -1, -1]),
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]],
    [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
)


def _matrices(rep):
    return (rep.beta,) + rep.alpha + (rep.mass_gen,)


@pytest.mark.parametrize("build, literal", [(build_majorana, MAJORANA), (build_dirac, DIRAC)],
                         ids=["majorana", "dirac"])
def test_representation_equals_the_written_matrices(build, literal):
    rep = build()
    for got, want in zip((rep.beta,) + rep.alpha, literal):
        assert got.dtype == complex
        assert np.array_equal(got, np.asarray(want, dtype=complex))


def test_gammas_are_i_beta_alpha_of_the_dirac_set():
    beta, *alpha = (np.asarray(a, dtype=complex) for a in DIRAC)
    want = [beta] + [1j * beta @ a for a in alpha]
    for got, w in zip(build_gamma_scatter(), want):
        assert np.array_equal(got, w)


@pytest.mark.parametrize("matrices", [
    lambda: _matrices(build_majorana()),
    lambda: _matrices(build_dirac()),
    build_gamma_scatter,
    lambda: [kron_matrix((i, j)) for i in "1xyz" for j in "1xyz"] + [pauli(i) for i in "1xyz"],
], ids=["majorana", "dirac", "gammas", "basis"])
def test_representation_matrices_are_read_only(matrices):
    # Every build shares one set of arrays, so a write would reach every
    # later build; neither an element write nor the writeable flag is allowed.
    for mat in matrices():
        with pytest.raises(ValueError):
            mat[0, 0] = 7
        with pytest.raises(ValueError):
            mat.flags.writeable = True


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


@pytest.mark.parametrize("build", [build_majorana, build_dirac], ids=["majorana", "dirac"])
def test_hamiltonian_refuses_a_momentum_that_is_not_a_3_vector(build):
    # zip(p, alpha) would read a 2-vector as (p_x, p_y, 0) and drop a fourth component.
    with pytest.raises(ValueError, match=r"p must be a 3-vector, got shape \(2,\)"):
        build().hamiltonian(1.0, (1.0, 1.0))


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


P = (1.0, 1.0, 1.0)


@pytest.mark.parametrize("build", [
    build_majorana,
    lambda: qbe.majorana_system(1.0, P),
    lambda: qbe.integrate_qbe(qbe.majorana_system(1.0, P), 0.01, 1e-3),
    lambda: propagate.majorana_eigenframe(1.0, P),
    lambda: propagate.classify_mass(build_majorana(), 1.0, P, np.linspace(0.0, 3.0, 300)),
    lambda: frames.make_frame_case(np.ones(4), 0.7, 1.0, P),
    lambda: scatter.ScatterConfig(1.0, 1.0, np.array([0.5, 1.0])),
    build_dirac,
], ids=["SpinorRep", "BrachSystem", "Trajectory", "EigenFrame", "MassReport", "FrameCase",
        "ScatterConfig", "SpinorRep-dirac"])
def test_records_compare_and_hash_by_identity(build):
    # The generated __eq__ once compared the ndarray fields as a tuple, so ==
    # and `in` raised "truth value of an array is ambiguous"; hash() raised too.
    a, b = build(), build()
    assert (a == b) is False
    assert a in [b, a]
    assert len({a, b}) == 2
