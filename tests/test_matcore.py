"""Tests for the Pauli-Kronecker matrix core."""

import numpy as np
import pytest

from qbrach.matcore import (
    BLOCK_SAMPLES,
    anticommutator,
    block_slices,
    commutator,
    kron_matrix,
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
    with pytest.raises(ValueError, match="unknown Pauli index 'w'"):
        pauli("w")


# The 16 Kronecker labels, ordered by (i, j) over ('1', 'x', 'y', 'z').
LABELS16 = [(i, j) for i in "1xyz" for j in "1xyz"]


def test_kron_basis_count_and_orthogonality():
    """The 16 Kronecker elements satisfy Tr[Y_a Y_b] = 4 delta_ab."""
    elems = [kron_matrix(lab) for lab in LABELS16]
    assert len(elems) == 16
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            expected = 4.0 if i == j else 0.0
            assert abs(trace_pair(a, b) - expected) < 1e-14


def test_traceless_labels_excludes_identity():
    labels = traceless_labels()
    assert len(labels) == 15
    assert ("1", "1") not in labels
    assert labels == [lab for lab in LABELS16 if lab != ("1", "1")]  # the same order


def test_kron_matrix_matches_explicit_kron():
    for i, j in LABELS16:
        assert max_abs(kron_matrix((i, j)) - np.kron(pauli(i), pauli(j))) == 0
        assert kron_matrix((i, j)) is kron_matrix((i, j))  # shared, not copied
    with pytest.raises(ValueError):
        kron_matrix(("y", "z"))[0, 0] = 99.0
    assert max_abs(kron_matrix(("y", "z")) - np.kron(pauli("y"), pauli("z"))) == 0
    with pytest.raises(ValueError, match="unknown Kronecker label"):
        kron_matrix(("w", "z"))


def test_commutator_anticommutator():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_abs(commutator(a, b) + commutator(b, a)) < 1e-14
    assert max_abs(anticommutator(a, b) - anticommutator(b, a)) < 1e-14
    assert max_abs(commutator(a, b) + anticommutator(a, b) - 2 * a @ b) < 1e-13


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


def test_block_slices_cover_range_in_full_blocks():
    """In order and contiguous from 0 to n, 1 to BLOCK_SAMPLES indices each,
    and every slice but the last full."""
    assert block_slices(0) == []
    for n in (0, 1, 255, 256, 257, 512, 513, 1000):
        covered = [range(n)[s] for s in block_slices(n)]
        assert [i for r in covered for i in r] == list(range(n))
        assert all(1 <= len(r) <= BLOCK_SAMPLES for r in covered)
        assert all(len(r) == BLOCK_SAMPLES for r in covered[:-1])
