"""Matrix-algebra Compton scattering and phase-deformed anticommutators.

Four-momenta are embedded as 4x4 matrices over a triple of mutually
anticommuting generators (g_t, g_x, g_y) with g^2 = 1:

    p1 = m g_t
    p2 = E2 g_t + i |p2| (g_x cos(phi) + g_y sin(phi))
    q1 = w1 (g_t + i g_x)
    q2 = w2 (g_t + i (g_x cos(theta) + g_y sin(theta)))

In the gamma representation (g_t, g_i) are the scattering gammas; in the
Majorana representation g_t = i beta and g_i = alpha_i, which satisfy the
identical algebra, so both embeddings scatter the same way.  Lightlike
momenta square to zero and expanding p2^2 = (p1 + q1 - q2)^2 yields the
Compton frequency-shift formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffrep import build_gamma_scatter, build_majorana
from .matcore import anticommutator, max_abs, pauli

_EYE4 = np.eye(4, dtype=complex)


class ScatterError(ValueError):
    """Raised on invalid kinematic input."""


@dataclass(frozen=True)
class ScatterConfig:
    m: float
    omega1: float
    theta: float
    rep: str = "gamma_scatter"  # or "majorana"

    def __post_init__(self):
        if self.m <= 0 or self.omega1 <= 0:
            raise ScatterError("m and omega1 must be positive")
        if not 0.0 <= self.theta <= np.pi:
            raise ScatterError("theta must lie in [0, pi]")
        if self.rep not in ("gamma_scatter", "majorana"):
            raise ScatterError(f"unknown representation {self.rep!r}")


def compton_omega2(m: float, omega1: float, theta: float) -> float:
    """Scattered frequency from 1/w2 - 1/w1 = (1 - cos(theta)) / m."""
    if m <= 0 or omega1 <= 0:
        raise ScatterError("m and omega1 must be positive")
    return 1.0 / (1.0 / omega1 + (1.0 - np.cos(theta)) / m)


def _generators(rep: str):
    if rep == "majorana":
        maj = build_majorana()
        return 1j * maj.beta, maj.alpha[0], maj.alpha[1]
    gt, gx, gy, _ = build_gamma_scatter()
    return gt, gx, gy


def recoil_kinematics(cfg: ScatterConfig) -> tuple[float, float, float, float]:
    """(omega2, E2, |p2|, phi) from energy-momentum conservation in the plane."""
    w2 = compton_omega2(cfg.m, cfg.omega1, cfg.theta)
    if w2 <= 0:
        raise ScatterError("scattered frequency must be positive")
    e2 = cfg.m + cfg.omega1 - w2
    px = cfg.omega1 - w2 * np.cos(cfg.theta)
    py = -w2 * np.sin(cfg.theta)
    p2 = float(np.hypot(px, py))
    return float(w2), float(e2), p2, float(np.arctan2(py, px))


def build_momenta(cfg: ScatterConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four matrix momenta (p1, p2, q1, q2) for the chosen representation:
    p1 and p2 timelike, q1 and q2 lightlike."""
    gt, gx, gy = _generators(cfg.rep)
    w2, e2, p2, phi = recoil_kinematics(cfg)
    w1, th = cfg.omega1, cfg.theta
    return (
        cfg.m * gt,
        e2 * gt + 1j * p2 * (np.cos(phi) * gx + np.sin(phi) * gy),
        w1 * (gt + 1j * gx),
        w2 * (gt + 1j * (np.cos(th) * gx + np.sin(th) * gy)),
    )


def verify_conservation(cfg: ScatterConfig) -> dict[str, float]:
    """Scalar and matrix residuals of the scattering identities.

    residual_energy:  E2^2 - p2^2 - m^2
    residual_compton: 2m(w1 - w2) - 2 w1 w2 (1 - cos(theta))
    residual_matrix:  p2^2 - (p1^2 + {(q1 - q2), p1} - {q1, q2}) entrywise
    """
    p1, p2, q1, q2 = build_momenta(cfg)
    w2, e2, p2mag, _ = recoil_kinematics(cfg)
    w1, th = cfg.omega1, cfg.theta

    lhs = p2 @ p2
    rhs = p1 @ p1 + anticommutator(q1 - q2, p1) - anticommutator(q1, q2)
    return {
        "residual_energy": float(abs(e2 * e2 - p2mag * p2mag - cfg.m * cfg.m)),
        "residual_compton": float(
            abs(2 * cfg.m * (w1 - w2) - 2 * w1 * w2 * (1 - np.cos(th)))
        ),
        "residual_matrix": max_abs(lhs - rhs),
        "residual_lightlike_q1": max_abs(q1 @ q1),
        "residual_lightlike_q2": max_abs(q2 @ q2),
        "omega2": float(w2),
    }


def block_momentum(p, theta: float) -> np.ndarray:
    """Block embedding of a spatial vector with relative phase theta:
    [[0, -i e^{-i theta} p.sigma], [i e^{+i theta} p.sigma, 0]]."""
    p = np.asarray(p, dtype=float)
    psig = sum(pi * pauli(i) for pi, i in zip(p, ("x", "y", "z")))
    z = np.zeros((2, 2), dtype=complex)
    return np.block(
        [[z, -1j * np.exp(-1j * theta) * psig], [1j * np.exp(1j * theta) * psig, z]]
    )


def phased_anticommutator_block(p, q, theta: float) -> np.ndarray:
    """Closed form of (pq + qp)/2 for block momenta with relative phase theta.

    Equals cos(theta) (p.q) 1 plus the block-diagonal sin(theta) (p x q).sigma
    cross term, with opposite signs in the two diagonal blocks; at theta = 0
    it reduces to (p.q) 1."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cross = np.cross(p, q)
    csig = sum(ci * pauli(i) for ci, i in zip(cross, ("x", "y", "z")))
    z = np.zeros((2, 2), dtype=complex)
    block = np.block([[np.sin(theta) * csig, z], [z, -np.sin(theta) * csig]])
    return np.cos(theta) * float(p @ q) * _EYE4 + block


def majorana_momentum_matrix(p, phi: float) -> np.ndarray:
    """Majorana momentum matrix with the y-component carrying phase phi."""
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


def majorana_phased_dot(p, q, phi: float) -> float:
    """Scalar of the phased Majorana anticommutator:
    (p(phi) q(0) + q(0) p(phi)) / 2 = (p_x q_x + cos(phi) p_y q_y + p_z q_z) 1."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(p[0] * q[0] + np.cos(phi) * p[1] * q[1] + p[2] * q[2])
