"""Four-dimensional angular momentum as a toy brachistochrone system.

The antisymmetric tensor of boosts N_i and rotations L_ij becomes a
Hermitian Hamiltonian H = i M.  Along the matrix flow the real antisymmetric
part is conserved (dM/dt = 0) while the symmetric constraint rotates as
F(t) = e^{tM} F(0) e^{-tM}.  Conventions: Levi-Civita eps_0123 = +1,
metric signature (+, -, -, -).
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .matcore import phase_stack
from .qbe import angmom_system, conserved_residuals, integrate_qbe


def assemble_tensor(n, l) -> np.ndarray:
    """The real antisymmetric 4x4 tensor from boosts n and rotations l.

    n = (N_x, N_y, N_z), l = (L_yz, L_zx, L_xy); first row (0, -N_x, -N_y, -N_z).
    """
    nx, ny, nz = np.asarray(n, dtype=float)
    lyz, lzx, lxy = np.asarray(l, dtype=float)
    return np.array(
        [
            [0.0, -nx, -ny, -nz],
            [nx, 0.0, lxy, -lzx],
            [ny, -lxy, 0.0, lyz],
            [nz, lzx, -lyz, 0.0],
        ]
    )


def toy_hamiltonian(n, l) -> np.ndarray:
    """H = i M, Hermitian and traceless."""
    return 1j * assemble_tensor(n, l)


def angmom_invariant(n, l) -> float:
    """Tr[(iM)^2], equal to 2(|l|^2 + |n|^2).

    This is the squared-generator invariant conserved by the flow; with the
    isotropic normalization Tr[H^2/2] it comes out at half this value.
    """
    h = toy_hamiltonian(n, l)
    return float(np.trace(h @ h).real)


def flow(m_mat: np.ndarray, times) -> np.ndarray:
    """e^{tM} for each t in times, as a (len(times), 4, 4) complex stack.

    Built from the Hermitian eigen-decomposition iM = V diag(v) V^dag as
    V diag(e^{-itv}) V^dag.
    """
    vals, vecs = np.linalg.eigh(1j * m_mat)
    return vecs @ phase_stack(vals, times) @ vecs.conj().T


def qbe_conservation(n, l, f_coeffs, t_end: float, step: float) -> dict:
    """Integrate the flow and report conservation of every tensor component.

    f_coeffs are the nine coefficients of the symmetric traceless constraint
    over the real Kronecker labels.  Reports the max drift of H(t) and the
    residual of F(t) against the conjugation oracle e^{tM} F(0) e^{-tM}.
    """
    h0 = toy_hamiltonian(n, l)
    traj = integrate_qbe(angmom_system(h0, f_coeffs), t_end, step)

    m_mat = assemble_tensor(n, l)
    f0 = traj.f_at(0)
    worst = []
    for lo, h, f in traj.blocks():
        rot = flow(m_mat, traj.times[lo:lo + len(h)])
        oracle = rot @ f0 @ rot.conj().transpose(0, 2, 1)
        worst.append([np.max(np.abs(h - h0)), np.max(np.abs(f - oracle))])
    h_drift, f_resid = np.max(worst, axis=0)

    report = conserved_residuals(traj)
    report["hamiltonian_drift"] = float(h_drift)
    report["constraint_conjugation_residual"] = float(f_resid)
    report["invariant"] = angmom_invariant(n, l)
    return report


def block_propagator(n_x: float, l_yz: float, t: float) -> np.ndarray:
    """The propagator for initial data with N_y = N_z = 0: two independent
    rotations, by angle N_x t in the 01 block and L_yz t in the 23 block.

    Both blocks rotate with the same orientation [[c, -s], [s, c]].  Relative
    to the generic tensor convention of assemble_tensor this equals
    e^{t M} for M = assemble_tensor((n_x, 0, 0), (-l_yz, 0, 0)); the 23
    rotation axis is opposite to the generic L_yz placement."""
    a, b = n_x * t, l_yz * t
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    return np.array(
        [
            [ca, -sa, 0.0, 0.0],
            [sa, ca, 0.0, 0.0],
            [0.0, 0.0, cb, -sb],
            [0.0, 0.0, sb, cb],
        ]
    )


# eps_{abcd}: the parity of (a, b, c, d) as a permutation of (0, 1, 2, 3),
# counted by its inversions; 0 when an index repeats.
_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _EPS4[_perm] = (-1) ** sum(a > b for a, b in combinations(_perm, 2))


def pauli_lubanski(n, l, p) -> np.ndarray:
    """W_mu = (1/2) eps_{mu nu rho sigma} M^{nu rho} P^sigma (lower index).

    The contraction W_mu P^mu vanishes identically by antisymmetry; in the
    rest frame with no boost the spatial part is -m * l.
    """
    m_mat = assemble_tensor(n, l)
    p = np.asarray(p, dtype=float)
    return 0.5 * np.einsum("abcd,bc,d->a", _EPS4, m_mat, p)
