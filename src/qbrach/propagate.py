"""Analytic diagonalization and propagation of the Majorana Hamiltonian.

The closed-form eigenvector matrix W and its inverse diagonalize
H = i m beta + alpha.p to D = E diag(1, 1, -1, -1).  The eigenmatrix evolves
as W(t) = exp(-i t D) W(0), giving the two-time unitary
U(t, s) = W(t) W^-1(s).  With the removable global phase e^{-iE(t-s)}
included (the default), U(t, s) = diag(e^{-2iE(t-s)}, e^{-2iE(t-s)}, 1, 1).

The evolved Hamiltonian H(t) = U H(0) U^dag keeps its p_x, p_z entries and
rotates the (p_y + i m) entries by e^{-2iEt}; the complex mass coefficient
therefore advances in phase at rate 2E while the Dirac mass block is left
untouched.  classify_mass turns that contrast into a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cliffrep import SpinorRep
from .matcore import basis16, max_abs

DEGENERACY_THRESHOLD = 1e-12


class PropagateError(ValueError):
    """Raised on inconsistent frame/Hamiltonian pairings."""


@dataclass(frozen=True)
class EigenFrame:
    """Eigenvector matrix, its inverse, the diagonal D and the energy E."""

    w: np.ndarray
    w_inv: np.ndarray
    d: np.ndarray
    energy: float
    degenerate_fallback: bool = False


def majorana_eigenframe(m: float, p) -> EigenFrame:
    """Closed-form eigenframe of H = i m beta + alpha.p.

    Returns the analytic W and W^-1 with d = p_y - i m as the common
    denominator and the 1/(2E) prefactor on W^-1.  When d vanishes
    (p_y = m = 0) the closed form is singular and a numerically pivoted
    frame is returned instead, flagged via degenerate_fallback.
    """
    p = np.asarray(p, dtype=float)
    px, py, pz = p
    energy = float(np.sqrt(m * m + p @ p))
    if energy <= 0.0:
        raise PropagateError("E = sqrt(m^2 + |p|^2) must be positive")
    d = np.diag([energy, energy, -energy, -energy]).astype(complex)

    den = py - 1j * m
    if abs(den) < DEGENERACY_THRESHOLD:
        return _pivoted_frame(m, p, energy, d)

    w = np.array(
        [
            [pz / den, (energy + px) / den, pz / den, -(energy - px) / den],
            [(energy - px) / den, pz / den, -(energy + px) / den, pz / den],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ],
        dtype=complex,
    )
    w_inv = (1.0 / (2.0 * energy)) * np.array(
        [
            [0, den, -pz, energy + px],
            [den, 0, energy - px, -pz],
            [0, -den, pz, energy - px],
            [-den, 0, energy + px, pz],
        ],
        dtype=complex,
    )
    return EigenFrame(w, w_inv, d, energy)


def _pivoted_frame(m: float, p, energy: float, d: np.ndarray) -> EigenFrame:
    from .cliffrep import build_majorana

    h = build_majorana().hamiltonian(m, p)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-vals)  # (E, E, -E, -E)
    vecs = vecs[:, order]
    # Deterministic column phases: largest-magnitude entry made real positive.
    for k in range(4):
        piv = int(np.argmax(np.abs(vecs[:, k])))
        phase = vecs[piv, k] / abs(vecs[piv, k])
        vecs[:, k] = vecs[:, k] / phase
    return EigenFrame(vecs, vecs.conj().T, d, energy, degenerate_fallback=True)


def eigenframe_at(frame: EigenFrame, t: float, strip_phase: bool = True) -> np.ndarray:
    """W(t) = exp(-i t D) W(0), with the universal phase e^{-iEt} applied
    when strip_phase is True so rows match the e^{-2iEt}/1 pattern."""
    phases = np.exp(-1j * t * np.diag(frame.d))
    w_t = phases[:, None] * frame.w
    if strip_phase:
        w_t = np.exp(-1j * frame.energy * t) * w_t
    return w_t


@dataclass(frozen=True)
class Propagator:
    """Two-time unitary u(t, s) built from an eigenframe."""

    u: Callable[[float, float], np.ndarray]
    frame: EigenFrame


def propagator(frame: EigenFrame, strip_phase: bool = True) -> Propagator:
    """U(t, s) = W(t) W^-1(s) as a function of the two times.

    Default convention carries the universal phase, giving the diagonal
    matrix diag(e^{-2iE(t-s)}, e^{-2iE(t-s)}, 1, 1); with strip_phase=False
    the bare exp(-i(t-s)D) is returned.
    """
    energy = frame.energy

    def u(t: float, s: float) -> np.ndarray:
        tau = t - s
        phases = np.exp(-1j * tau * np.diag(frame.d))
        if strip_phase:
            phases = np.exp(-1j * energy * tau) * phases
        return np.diag(phases)

    return Propagator(u, frame)


def evolve_hamiltonian(frame: EigenFrame, h0: np.ndarray, t: float) -> np.ndarray:
    """H(t) = U(t, 0) H(0) U(t, 0)^dag; requires h0 to share the frame's spectrum."""
    vals = np.sort(np.linalg.eigvalsh(h0))
    expected = np.sort(np.diag(frame.d).real)
    if max_abs(vals - expected) > 1e-8:
        raise PropagateError("h0 spectrum does not match the eigenframe")
    u = propagator(frame).u(t, 0.0)
    return u @ h0 @ u.conj().T


def project_coeffs(h: np.ndarray) -> dict[tuple[str, str], complex]:
    """Coefficients c_a = Tr[h Y_a] / 4 over the 16-element Kronecker basis."""
    return {lab: complex(np.trace(h @ mat)) / 4.0 for lab, mat in basis16()}


def mass_series_from_pairs(m0: float, c_mass: np.ndarray, c_y: np.ndarray) -> np.ndarray:
    """Complex mass series from the (mass, alpha_y) coefficient pair.

    The flow rotates the mass coefficient into the y-momentum direction, so
    the pair z(t) = c_mass + i c_y traces (m0 + i p_y) e^{2iEt}; rescaling by
    m0 / z(0) isolates the mass share, m(t) = m0 e^{2iEt}.
    """
    z = np.asarray(c_mass, dtype=complex) + 1j * np.asarray(c_y, dtype=complex)
    if abs(z[0]) == 0.0:
        return np.zeros_like(z)
    return m0 * z / z[0]


@dataclass(frozen=True)
class MassReport:
    """Verdict on the time behaviour of a representation's mass coefficient."""

    verdict: str  # CONSTANT | ROTATING | UNCLASSIFIED
    times: np.ndarray
    mass_series: np.ndarray
    modulus_deviation: float
    phase_rate: float
    expected_rate: float
    phase_fit_residual: float


def classify_mass(
    rep: SpinorRep,
    m0: float,
    p,
    t_grid,
    tol: float = 1e-10,
) -> MassReport:
    """Classify the mass coefficient of H(t) as constant or rotating.

    H(t) is evolved by conjugation with the diagonal propagator
    exp(-i t E diag(1,1,-1,-1)).  For the Majorana representation the mass
    coefficient is read jointly with its alpha_y rotation partner (see
    mass_series_from_pairs); for the Dirac representation it is the direct
    trace projection onto beta.
    """
    p = np.asarray(p, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2:
        raise PropagateError("t_grid needs at least 2 samples to classify")
    energy = float(np.sqrt(m0 * m0 + p @ p))
    expected_rate = 2.0 * energy

    h0 = rep.hamiltonian(m0, p)
    dmat = energy * np.diag([1.0, 1.0, -1.0, -1.0])
    g_mass = rep.mass_gen
    g_y = rep.alpha[1]

    c_mass = np.empty(t_grid.size)
    c_y = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        u = np.diag(np.exp(-1j * t * np.diag(dmat)))
        h_t = u @ h0 @ u.conj().T
        c_mass[i] = np.trace(h_t @ g_mass).real / 4.0
        c_y[i] = np.trace(h_t @ g_y).real / 4.0

    if rep.name == "majorana":
        series = mass_series_from_pairs(m0, c_mass, c_y)
    else:
        series = c_mass.astype(complex)

    const_dev = float(np.abs(series - series[0]).max())
    if const_dev < tol:
        return MassReport("CONSTANT", t_grid, series, const_dev, 0.0, expected_rate, 0.0)

    modulus_dev = float(np.abs(np.abs(series) - abs(series[0])).max())
    if modulus_dev < tol:
        phase = np.unwrap(np.angle(series))
        # Least-squares linear fit of the unwrapped phase.
        a = np.vstack([t_grid, np.ones_like(t_grid)]).T
        (rate, intercept), *_ = np.linalg.lstsq(a, phase, rcond=None)
        fit_resid = float(np.abs(phase - (rate * t_grid + intercept)).max())
        if fit_resid < 1e-6:
            return MassReport(
                "ROTATING", t_grid, series, modulus_dev, float(rate), expected_rate, fit_resid
            )

    return MassReport(
        "UNCLASSIFIED", t_grid, series, modulus_dev, float("nan"), expected_rate, float("inf")
    )
