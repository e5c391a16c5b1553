"""Analytic diagonalization and propagation of the Majorana Hamiltonian.

The closed-form eigenvector matrix W and its inverse diagonalize
H = i m beta + alpha.p to D = E diag(1, 1, -1, -1).  The eigenmatrix evolves
as W(t) = exp(-i t D) W(0), giving the two-time unitary
U(t, s) = W(t) W^-1(s).  With the removable global phase e^{-iE(t-s)}
included, U(t, s) = diag(e^{-2iE(t-s)}, e^{-2iE(t-s)}, 1, 1).

The evolved Hamiltonian H(t) = U H(0) U^dag keeps its p_x, p_z entries and
rotates the (p_y + i m) entries by e^{-2iEt}; the complex mass coefficient
therefore advances in phase at rate 2E while the Dirac mass block is left
untouched.  classify_mass turns that contrast into a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cliffrep import SpinorRep, build_majorana
from .matcore import BLOCK_SAMPLES, basis16, max_abs, phase_stack

DEGENERACY_THRESHOLD = 1e-12

# Largest deviation of a mass series (or of its modulus) that counts as none.
CLASSIFY_TOL = 1e-10

# Relative margin below the step limit pi / (2E): at it, phase steps of +-pi look alike.
NYQUIST_MARGIN = 1e-9

# A grid must let a mass rotating at 2E move more than SPAN_MARGIN * CLASSIFY_TOL
# from its first sample.  Nearer CLASSIFY_TOL the fitted rate loses accuracy:
# in a probe it was off by up to 2.7e-6 relative just above the tolerance and
# by at most 3.2e-7 at ten times it.
SPAN_MARGIN = 10.0


class PropagateError(ValueError):
    """Raised on inconsistent frame/Hamiltonian pairings and unresolving time grids."""


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
    energy = _energy(m, p)
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


def _energy(m: float, p: np.ndarray) -> float:
    """E = sqrt(m^2 + |p|^2); raises PropagateError when E^2 overflows."""
    with np.errstate(over="ignore"):
        energy = float(np.sqrt(m * m + p @ p))
    if not math.isfinite(energy):
        raise PropagateError("E^2 = m^2 + |p|^2 is not finite: "
                             "the Hamiltonian H = i m beta + alpha.p overflows")
    return energy


def _pivoted_frame(m: float, p, energy: float, d: np.ndarray) -> EigenFrame:
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


def propagator(frame: EigenFrame) -> Callable[..., np.ndarray]:
    """U(t, s) = W(t) W^-1(s) as a function u(t, s) of the two times.

    The bare exp(-i(t-s)D) carries the universal phase e^{-iE(t-s)}, giving
    the diagonal matrix diag(e^{-2iE(t-s)}, e^{-2iE(t-s)}, 1, 1), stacked over
    arrays t, s.  Raises PropagateError when a phase angle 2E(t - s) is not finite.
    """
    energy = frame.energy

    def u(t, s) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            tau = np.subtract(t, s, dtype=float)
            finite = np.isfinite(2.0 * energy * tau)
        if not finite.all():
            raise PropagateError(f"2 E (t - s) is not finite at E = {energy:g}, "
                                 f"t - s = {tau[~finite][0]:g}")
        out = np.zeros(tau.shape + (4, 4), dtype=complex)
        out[..., range(4), range(4)] = (np.exp(-1j * energy * tau)[..., None]
                                        * np.exp(-1j * tau[..., None] * np.diag(frame.d)))
        return out

    return u


def eigenframe_at(frame: EigenFrame, t: float) -> np.ndarray:
    """W(t) = U(t, 0) W(0), the eigenframe of H(t)."""
    return propagator(frame)(t, 0.0) @ frame.w


def evolve_hamiltonian(frame: EigenFrame, h0: np.ndarray, t) -> np.ndarray:
    """H(t) = U(t, 0) H(0) U(t, 0)^dag, stacked over an array t; requires h0 to
    share the frame's spectrum, to within 1e-8 relative to E once E exceeds 1."""
    expected = np.sort(np.diag(frame.d).real)
    if max_abs(np.linalg.eigvalsh(h0) - expected) > 1e-8 * max(1.0, frame.energy):
        raise PropagateError("h0 spectrum does not match the eigenframe")
    u = propagator(frame)(t, 0.0)
    return u @ h0 @ u.conj().swapaxes(-1, -2)


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


def classify_mass(rep: SpinorRep, m0: float, p, t_grid) -> MassReport:
    """Classify the mass coefficient of H(t) as constant or rotating.

    H(t) is evolved by conjugation with the diagonal propagator
    exp(-i t E diag(1,1,-1,-1)).  For the Majorana representation the mass
    coefficient is read jointly with its alpha_y rotation partner (see
    mass_series_from_pairs); for the Dirac representation it is the direct
    trace projection onto beta.

    The grid must resolve a rotation at rate 2E: at least 2 samples, a
    nonzero span and every step below (1 - NYQUIST_MARGIN) pi / (2E).  A
    coarser grid aliases the rotation, and a grid with no span cannot show it.
    For m0 != 0 the grid must also be long enough to see the rotation: the
    largest move of a rotating mass from its first sample,
    max_t 2 |m0| |sin(E (t - t0))|, must exceed SPAN_MARGIN * CLASSIFY_TOL.
    Over a shorter span a rotating mass stays within CLASSIFY_TOL and looks
    constant.
    """
    p = np.asarray(p, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2:
        raise PropagateError("t_grid needs at least 2 samples to classify")
    if not np.ptp(t_grid) > 0:
        raise PropagateError("t_grid needs a nonzero span to classify")
    energy = _energy(m0, p)
    expected_rate = 2.0 * energy
    dt = np.abs(np.diff(t_grid)).max()
    if not expected_rate * dt < np.pi * (1.0 - NYQUIST_MARGIN):
        raise PropagateError(f"t_grid step {dt:.6g} does not resolve the mass rotation: "
                             f"2E * step = {expected_rate * dt:.6g} must stay below pi")
    reach = 2.0 * abs(m0) * float(np.abs(np.sin(energy * (t_grid - t_grid[0]))).max())
    if m0 != 0 and not reach > SPAN_MARGIN * CLASSIFY_TOL:
        raise PropagateError(f"t_grid span {np.ptp(t_grid):.6g} is too short to classify: "
                             f"a rotating mass would move at most {reach:.3g}, "
                             f"not above {SPAN_MARGIN * CLASSIFY_TOL:.3g}")

    # U is the bare exp(-itD): propagator() differs by e^{-iEt}, which would move bits.
    h0 = rep.hamiltonian(m0, p)
    vals = energy * np.array([1.0, 1.0, -1.0, -1.0])
    c_mass = np.empty(t_grid.size)
    c_y = np.empty(t_grid.size)
    for lo in range(0, t_grid.size, BLOCK_SAMPLES):
        u = phase_stack(vals, t_grid[lo:lo + BLOCK_SAMPLES])
        h_t = u @ h0 @ u.conj().transpose(0, 2, 1)
        rows = slice(lo, lo + len(u))
        c_mass[rows] = np.trace(h_t @ rep.mass_gen, axis1=1, axis2=2).real / 4.0
        c_y[rows] = np.trace(h_t @ rep.alpha[1], axis1=1, axis2=2).real / 4.0

    if rep.name == "majorana":
        series = mass_series_from_pairs(m0, c_mass, c_y)
    else:
        series = c_mass.astype(complex)

    const_dev = float(np.abs(series - series[0]).max())
    if const_dev < CLASSIFY_TOL:
        return MassReport("CONSTANT", t_grid, series, const_dev, 0.0, expected_rate, 0.0)

    modulus_dev = float(np.abs(np.abs(series) - abs(series[0])).max())
    if modulus_dev < CLASSIFY_TOL:
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
