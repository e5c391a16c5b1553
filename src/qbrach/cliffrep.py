"""Spinor representations: Majorana, Dirac-Pauli, and the scattering gamma set.

Each representation bundles beta, the three alpha matrices and the mass
generator its builder gives.  gamma0 = beta ax ay az and the spin matrices
S_i = (1/2)[a_j, a_k] (cyclic) are computed on first read.  Every matrix is
a factor times a Kronecker product sigma_i (x) sigma_j, built once on import
and shared, read-only, by every build:

    Majorana  beta = i sigma_y (x) 1,  a_x = sigma_z (x) sigma_z,
              a_y = sigma_x (x) 1,     a_z = sigma_z (x) sigma_x
    Dirac     beta = sigma_z (x) 1,    a_i = sigma_x (x) sigma_i
    gammas    g_t = sigma_z (x) 1,     g_i = -sigma_y (x) sigma_i = i beta a_i (Dirac)

The Majorana matrices are real integers; beta is antisymmetric with
beta^2 = -1, so the Hermitian mass generator is i*beta = -sigma_y (x) 1, and
it is the mass generator that squares to the identity.  MAJORANA_LABELS
lists the Kronecker labels of (i*beta, a_x, a_y, a_z).  The Dirac mass
generator is beta itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import anticommutator, commutator, frozen, kron_matrix, max_abs

_EYE4 = np.eye(4, dtype=complex)

# Kronecker labels of the Majorana (i*beta, a_x, a_y, a_z); i*beta = -sigma_y (x) 1.
MAJORANA_LABELS = (("y", "1"), ("z", "z"), ("x", "1"), ("z", "x"))

_MAJORANA_BETA = frozen(1j * kron_matrix(MAJORANA_LABELS[0]))
_MAJORANA = (_MAJORANA_BETA, tuple(kron_matrix(lab) for lab in MAJORANA_LABELS[1:]),
             frozen(1j * _MAJORANA_BETA))
_DIRAC_BETA = kron_matrix(("z", "1"))
_DIRAC = (_DIRAC_BETA, tuple(kron_matrix(("x", i)) for i in "xyz"), _DIRAC_BETA)
_GAMMAS = (_DIRAC_BETA,) + tuple(frozen(-kron_matrix(("y", i))) for i in "xyz")


@dataclass(frozen=True, eq=False)
class SpinorRep:
    """A named bundle of generator matrices with derived operators."""

    name: str
    beta: np.ndarray
    alpha: tuple[np.ndarray, np.ndarray, np.ndarray]
    # Hermitian generator multiplying the mass in H = m*g + alpha.p.
    mass_gen: np.ndarray

    @cached_property
    def gamma0(self) -> np.ndarray:
        ax, ay, az = self.alpha
        return self.beta @ ax @ ay @ az

    @cached_property
    def spin(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax, ay, az = self.alpha
        return 0.5 * commutator(ay, az), 0.5 * commutator(az, ax), 0.5 * commutator(ax, ay)

    def hamiltonian(self, m: float, p: np.ndarray) -> np.ndarray:
        """H = m * mass_gen + alpha . p (Hermitian by construction)."""
        p = np.asarray(p, dtype=float)
        if p.shape != (3,):
            raise ValueError(f"p must be a 3-vector, got shape {p.shape}")
        h = m * self.mass_gen
        for pi, ai in zip(p, self.alpha):
            h = h + pi * ai
        return h


def build_majorana() -> SpinorRep:
    """The real Majorana representation, exact integer matrices."""
    return SpinorRep("majorana", *_MAJORANA)


def build_dirac() -> SpinorRep:
    """Standard Dirac-Pauli block representation."""
    return SpinorRep("dirac", *_DIRAC)


def build_gamma_scatter() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gamma set (g_t, g_x, g_y, g_z) for the scattering calculus.

    g_t is the Dirac beta; g_i = i * beta * alpha_i so that every member
    squares to +1 and {g_t, g_i} = 0, {g_i, g_j} = 2 delta_ij.
    """
    return _GAMMAS


def _clifford_residuals(gens) -> dict[str, float]:
    """square_* and anticom_*_* residuals of a list of (name, matrix) pairs:
    each should square to the identity and anticommute with every other."""
    report: dict[str, float] = {}
    for i, (na, a) in enumerate(gens):
        report[f"square_{na}"] = max_abs(a @ a - _EYE4)
        for nb, b in gens[i + 1 :]:
            report[f"anticom_{na}_{nb}"] = max_abs(anticommutator(a, b))
    return report


def verify_algebra(rep: SpinorRep) -> dict[str, float]:
    """Max-abs residual per Clifford relation class for a representation.

    All residuals are exactly 0 for the built-in integer representations.
    """
    gens = [("mass_gen", rep.mass_gen)] + list(zip(("alpha_x", "alpha_y", "alpha_z"), rep.alpha))
    report = _clifford_residuals(gens)
    for na, a in gens:
        report[f"anticom_gamma0_{na}"] = max_abs(anticommutator(rep.gamma0, a))

    # Spin closure for the Hermitian spins Sig_i = i S_i:
    # Sig_i = (i/2) eps_ijk [Sig_j, Sig_k] (cyclic, no sum).
    sig = tuple(1j * s for s in rep.spin)
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for i, j, k in cyc:
        resid = sig[i] - 0.5j * commutator(sig[j], sig[k])
        report[f"spin_closure_{'xyz'[i]}"] = max_abs(resid)

    return report


def verify_gamma_algebra() -> dict[str, float]:
    """Max-abs residual per relation for the scattering gamma set."""
    names = ("gamma_t", "gamma_x", "gamma_y", "gamma_z")
    return _clifford_residuals(list(zip(names, build_gamma_scatter())))

