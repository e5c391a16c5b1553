"""Tests for the 4-D angular momentum toy system."""

import json
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from qbrach import angmom4, cli
from qbrach.angmom4 import (
    angmom_invariant,
    assemble_tensor,
    block_propagator,
    pauli_lubanski,
    qbe_conservation,
    toy_hamiltonian,
)
from qbrach.matcore import BLOCK_SAMPLES, max_abs, traceless_labels
from qbrach.qbe import angmom_system, integrate_qbe


def test_assemble_tensor_antisymmetric():
    rng = np.random.default_rng(41)
    m = assemble_tensor(rng.normal(size=3), rng.normal(size=3))
    assert max_abs(m + m.T) == 0


def test_tensor_layout():
    m = assemble_tensor((1, 2, 3), (4, 5, 6))
    assert list(m[0]) == [0, -1, -2, -3]
    assert m[1, 2] == 6  # L_xy
    assert m[2, 3] == 4  # L_yz
    assert m[3, 1] == 5  # L_zx


def test_toy_hamiltonian_hermitian_traceless():
    h = toy_hamiltonian((1, 0, -1), (0.5, 2, 0))
    assert max_abs(h - h.conj().T) == 0
    assert abs(np.trace(h)) == 0


def test_invariant_formula():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = rng.uniform(-2, 2, 3)
        l = rng.uniform(-2, 2, 3)
        assert abs(angmom_invariant(n, l) - 2 * (n @ n + l @ l)) < 1e-12


def test_qbe_conservation_drifts():
    """M is a constant of motion and F follows the conjugation oracle."""
    rng = np.random.default_rng(47)
    n = rng.uniform(-1, 1, 3)
    l = rng.uniform(-1, 1, 3)
    f_coeffs = rng.uniform(-1, 1, 9)
    report = qbe_conservation(n, l, f_coeffs, 2.0, 1e-3)
    assert report["hamiltonian_drift"] < 1e-8
    assert report["constraint_conjugation_residual"] < 1e-8
    assert report["isotropic_drift"] < 1e-10


@pytest.fixture(scope="module")
def angmom_flow():
    """The data of angmom-conserve --seed 7, drawn in its order and integrated
    over its default grid: 5001 samples."""
    rng = np.random.default_rng(7)
    n, l, f_coeffs = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 9)
    traj = integrate_qbe(angmom_system(toy_hamiltonian(n, l), f_coeffs), 5.0, 1e-3)
    return n, l, f_coeffs, traj


def _conservation_with(monkeypatch, n, l, f_coeffs, traj):
    """qbe_conservation run on a given trajectory in place of its own."""
    monkeypatch.setattr(angmom4, "integrate_qbe", lambda *args: traj)
    return qbe_conservation(n, l, f_coeffs, 5.0, 1e-3)


@pytest.mark.parametrize("samples", [1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1, 5001])
def test_blocked_conservation_equals_per_sample_loop(monkeypatch, angmom_flow, samples):
    n, l, f_coeffs, full = angmom_flow
    traj = replace(full, times=full.times[:samples], coeffs=full.coeffs[:samples])
    report = _conservation_with(monkeypatch, n, l, f_coeffs, traj)

    # The per-sample loop that the blocked audit replaces: the reference.
    h0 = toy_hamiltonian(n, l)
    vals, vecs = np.linalg.eigh(1j * assemble_tensor(n, l))
    f0 = traj.f_at(0)
    h_drift = f_resid = 0.0
    for i, t in enumerate(traj.times):
        h_drift = max(h_drift, max_abs(traj.h_at(i) - h0))
        rot = vecs @ np.diag(np.exp(-1j * t * vals)) @ vecs.conj().T
        f_resid = max(f_resid, max_abs(traj.f_at(i) - rot @ f0 @ rot.conj().T))
    assert report["hamiltonian_drift"] == h_drift
    assert report["constraint_conjugation_residual"] == f_resid
    assert f_resid > 0 or samples == 1


def test_nan_coefficient_fails_angmom_conserve(monkeypatch, angmom_flow, tmp_path):
    n, l, f_coeffs, full = angmom_flow
    out = tmp_path / "ac.json"
    monkeypatch.setattr(angmom4, "integrate_qbe", lambda *args: full)
    assert cli.main(["angmom-conserve", "--seed", "7", "--out", str(out)]) == 0

    coeffs = full.coeffs.copy()
    coeffs[3000, traceless_labels().index(("x", "x"))] = np.nan  # a constraint label
    traj = replace(full, coeffs=coeffs)
    report = _conservation_with(monkeypatch, n, l, f_coeffs, traj)
    assert np.isnan(report["constraint_conjugation_residual"])
    assert np.isnan(report["spectrum_drift"])
    assert report["hamiltonian_drift"] < 1e-8

    assert cli.main(["angmom-conserve", "--seed", "7", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "FAIL"
    assert payload["max_drift"] == "nan"


def test_block_propagator_matches_closed_form():
    nx, lyz, t = 1.0, 2.0, 0.5
    u = block_propagator(nx, lyz, t)
    a, b = nx * t, lyz * t
    expected = np.array(
        [
            [np.cos(a), -np.sin(a), 0, 0],
            [np.sin(a), np.cos(a), 0, 0],
            [0, 0, np.cos(b), -np.sin(b)],
            [0, 0, np.sin(b), np.cos(b)],
        ]
    )
    assert max_abs(u - expected) == 0


def test_block_propagator_special_orthogonal():
    rng = np.random.default_rng(53)
    for _ in range(20):
        nx, lyz, t = rng.uniform(-3, 3, 3)
        u = block_propagator(nx, lyz, t)
        assert max_abs(u.T @ u - np.eye(4)) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_block_propagator_is_flow_of_flipped_tensor():
    """The block propagator equals e^{tM} for the restricted tensor with the
    L_yz axis reversed (the generic layout places L_yz on the other side)."""
    nx, lyz, t = 0.7, -1.3, 1.1
    m = assemble_tensor((nx, 0, 0), (-lyz, 0, 0))
    vals, vecs = np.linalg.eigh(1j * m)
    rot = (vecs @ np.diag(np.exp(-1j * t * vals)) @ vecs.conj().T).real
    assert max_abs(block_propagator(nx, lyz, t) - rot) < 1e-12


def _reference_levi_civita():
    """eps_{abcd} as it was built: the sign flipped once per swap-needing pair."""
    eps = np.zeros((4, 4, 4, 4))
    for perm in permutations(range(4)):
        sign = 1
        q = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if q[i] > q[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


def test_levi_civita():
    eps = angmom4._EPS4
    assert eps.tobytes() == _reference_levi_civita().tobytes()
    assert eps[0, 1, 2, 3] == 1.0 and eps[1, 0, 2, 3] == -1.0
    assert np.count_nonzero(eps == 1.0) == np.count_nonzero(eps == -1.0) == 12
    assert np.count_nonzero(eps) == 24
    # Antisymmetric under every transposition of two indices.
    for axes in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 1, 2, 0)):
        assert (eps.transpose(axes) == -eps).all()


def test_pauli_lubanski_orthogonal_to_momentum():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = rng.uniform(-2, 2, 3)
        l = rng.uniform(-2, 2, 3)
        p = rng.uniform(-2, 2, 4)
        w = pauli_lubanski(n, l, p)
        # W_mu P^mu vanishes identically by antisymmetry of epsilon
        assert abs(w @ p) < 1e-12


def test_pauli_lubanski_rest_frame():
    """At rest with no boost, the spatial part is -m * l."""
    l = np.array([0.3, -0.7, 1.1])
    m0 = 2.0
    w = pauli_lubanski((0, 0, 0), l, (m0, 0, 0, 0))
    assert abs(w[0]) == 0
    assert max_abs(w[1:] + m0 * l) < 1e-12
