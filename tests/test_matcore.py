"""Tests for the Pauli-Kronecker matrix core."""

import numpy as np
import pytest

from qbrach.matcore import (
    MatrixError,
    anticommutator,
    basis16,
    commutator,
    kron_matrix,
    mat_to_json,
    max_abs,
    pauli,
    trace_pair,
    traceless_labels,
    worst,
)


def test_pauli_algebra():
    """sigma_i sigma_j = delta_ij + i eps_ijk sigma_k, spot-checked."""
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    assert max_abs(sx @ sx - np.eye(2)) == 0
    assert max_abs(sx @ sy - 1j * sz) == 0
    assert max_abs(sy @ sz - 1j * sx) == 0
    assert max_abs(sz @ sx - 1j * sy) == 0


def test_pauli_rejects_unknown_index():
    with pytest.raises(MatrixError):
        pauli("w")


def test_basis16_count_and_orthogonality():
    """The 16 Kronecker elements satisfy Tr[Y_a Y_b] = 4 delta_ab."""
    elems = basis16()
    assert len(elems) == 16
    for i, (_, a) in enumerate(elems):
        for j, (_, b) in enumerate(elems):
            expected = 4.0 if i == j else 0.0
            assert abs(trace_pair(a, b) - expected) < 1e-14


def test_traceless_labels_excludes_identity():
    labels = traceless_labels()
    assert len(labels) == 15
    assert ("1", "1") not in labels
    assert labels == [lab for lab, _ in basis16() if lab != ("1", "1")]  # the same order


def test_kron_matrix_matches_explicit_kron():
    for (i, j), _ in basis16():
        assert max_abs(kron_matrix((i, j)) - np.kron(pauli(i), pauli(j))) == 0
    # Each call returns its own array: writing to one leaves the next intact.
    kron_matrix(("y", "z"))[0, 0] = 99.0
    assert max_abs(kron_matrix(("y", "z")) - np.kron(pauli("y"), pauli("z"))) == 0
    with pytest.raises(MatrixError):
        kron_matrix(("w", "z"))


def test_commutator_anticommutator():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_abs(commutator(a, b) + commutator(b, a)) < 1e-14
    assert max_abs(anticommutator(a, b) - anticommutator(b, a)) < 1e-14
    assert max_abs(commutator(a, b) + anticommutator(a, b) - 2 * a @ b) < 1e-13


def test_json_round_trip():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obj = mat_to_json(a)
    n = obj["dim"]
    back = np.reshape(obj["re"], (n, n)) + 1j * np.reshape(obj["im"], (n, n))
    assert max_abs(a - back) == 0


@pytest.mark.parametrize("at", [0, 2, 4])
def test_worst_propagates_nan(at):
    """A NaN in first, middle or last place gives NaN, from a list or a generator."""
    residuals = [0.5, 1e-3, 2.0, 0.0, 1.5]
    assert worst(residuals) == 2.0
    residuals[at] = float("nan")
    assert np.isnan(worst(residuals))
    assert np.isnan(worst(r for r in residuals))


def test_worst_rejects_empty():
    with pytest.raises(ValueError):
        worst([])
