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

The phase-deformed momenta (block_momentum, majorana_momentum_matrix) are
Kronecker products of a 2x2 phase matrix with p.sigma or with the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cliffrep import MAJORANA_LABELS, build_gamma_scatter, build_majorana
from .matcore import anticommutator, block_slices, kron_matrix, pauli


@dataclass(frozen=True, eq=False)
class ScatterConfig:
    """One Compton case; theta is one angle or a 1-D array of angles."""

    m: float
    omega1: float
    theta: float | np.ndarray
    rep: str = "gamma"  # or "majorana"

    def __post_init__(self):
        _check_mass_frequency(self.m, self.omega1)
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim > 1 or theta.size == 0:
            raise ValueError("theta must be one angle or a non-empty 1-D array of angles")
        if not np.all((0.0 <= theta) & (theta <= np.pi)):  # a NaN fails both
            raise ValueError("theta must lie in [0, pi]")
        if self.rep not in ("gamma", "majorana"):
            raise ValueError(f"unknown representation {self.rep!r}")


def _check_mass_frequency(m: float, omega1: float) -> None:
    if m <= 0 or omega1 <= 0:
        raise ValueError("m and omega1 must be positive")
    if not (math.isfinite(m) and math.isfinite(omega1)):  # NaN passes the test above
        raise ValueError("m and omega1 must be finite")


def compton_omega2(m: float, omega1: float, theta):
    """Scattered frequency from 1/w2 - 1/w1 = (1 - cos(theta)) / m."""
    _check_mass_frequency(m, omega1)
    with np.errstate(over="ignore"):
        w2 = 1.0 / (1.0 / omega1 + (1.0 - np.cos(theta)) / m)
    if np.any(w2 <= 0):  # for m, omega1 > 0 only when 1/w2 overflows to inf
        raise ValueError("1/omega1 + (1 - cos(theta))/m overflows, so omega2 underflows to 0")
    return w2


def _generators(rep: str):
    if rep == "majorana":
        maj = build_majorana()
        return maj.mass_gen, maj.alpha[0], maj.alpha[1]
    gt, gx, gy, _ = build_gamma_scatter()
    return gt, gx, gy


def recoil_kinematics(cfg: ScatterConfig):
    """(omega2, E2, |p2|, phi) from energy-momentum conservation in the plane.

    Each has the shape of cfg.theta: np.float64 for one angle, an array for many.
    """
    theta = np.asarray(cfg.theta, dtype=float)
    w2 = compton_omega2(cfg.m, cfg.omega1, theta)
    e2 = cfg.m + cfg.omega1 - w2
    px = cfg.omega1 - w2 * np.cos(theta)
    py = -w2 * np.sin(theta)
    return w2, e2, np.hypot(px, py), np.arctan2(py, px)


def _momenta(cfg: ScatterConfig, kinematics) -> tuple[np.ndarray, ...]:
    """(p1, p2, q1, q2) from recoil_kinematics(cfg), each of shape theta.shape + (4, 4)."""
    gt, gx, gy = _generators(cfg.rep)
    # One 4x4 slot per angle: (k,) -> (k, 1, 1) broadcasts against the generators.
    w2, e2, p2, phi, th = (np.expand_dims(x, (-2, -1))
                           for x in (*kinematics, np.asarray(cfg.theta, dtype=float)))
    shape = np.shape(cfg.theta) + (4, 4)
    return (
        np.broadcast_to(cfg.m * gt, shape),
        e2 * gt + 1j * p2 * (np.cos(phi) * gx + np.sin(phi) * gy),
        np.broadcast_to(cfg.omega1 * (gt + 1j * gx), shape),
        w2 * (gt + 1j * (np.cos(th) * gx + np.sin(th) * gy)),
    )


def build_momenta(cfg: ScatterConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four matrix momenta (p1, p2, q1, q2) for the chosen representation:
    p1 and p2 timelike, q1 and q2 lightlike.  4x4 for one angle, (k, 4, 4)
    stacks for k angles; p1 and q1 do not depend on the angle and are
    read-only broadcast views."""
    return _momenta(cfg, recoil_kinematics(cfg))


def _entry_max(a: np.ndarray):
    """Largest entry magnitude of each 4x4 matrix in a stack."""
    return np.abs(a).max(axis=(-2, -1))


def verify_conservation(cfg: ScatterConfig) -> dict:
    """Scalar and matrix residuals of the scattering identities.

    residual_energy:  E2^2 - p2^2 - m^2
    residual_compton: 2m(w1 - w2) - 2 w1 w2 (1 - cos(theta))
    residual_matrix:  p2^2 - (p1^2 + {(q1 - q2), p1} - {q1, q2}) entrywise

    One call covers every angle of cfg.theta: each value is an np.float64
    for one angle and an array over the angles for many, equal bit for bit
    to the per-angle values.  A grid is checked per block of block_slices,
    so its (k, 4, 4) stacks stay bounded whatever its length.

    Inputs too large for float64 give inf or NaN residuals, which fail any
    `< tol` verdict; numpy does not warn about the overflow.
    """
    theta = np.asarray(cfg.theta, dtype=float)
    cuts = block_slices(theta.size)
    if len(cuts) == 1:
        return _residuals(cfg)
    blocks = [_residuals(replace(cfg, theta=theta[rows])) for rows in cuts]
    return {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}


@np.errstate(over="ignore", invalid="ignore")
def _residuals(cfg: ScatterConfig) -> dict:
    """verify_conservation's values over all of cfg.theta at once."""
    kinematics = recoil_kinematics(cfg)
    p1, p2, q1, q2 = _momenta(cfg, kinematics)
    w2, e2, p2mag, _ = kinematics
    m, w1, th = cfg.m, cfg.omega1, np.asarray(cfg.theta, dtype=float)

    lhs = p2 @ p2
    rhs = p1 @ p1 + anticommutator(q1 - q2, p1) - anticommutator(q1, q2)
    return {
        "residual_energy": np.abs(e2 * e2 - p2mag * p2mag - m * m),
        "residual_compton": np.abs(2 * m * (w1 - w2) - 2 * w1 * w2 * (1 - np.cos(th))),
        "residual_matrix": _entry_max(lhs - rhs),
        "residual_lightlike_q1": _entry_max(q1 @ q1),
        "residual_lightlike_q2": _entry_max(q2 @ q2),
        "omega2": w2,
    }


def _sigma_dot(v) -> np.ndarray:
    """v . sigma for a real 3-vector v."""
    return sum(vi * pauli(i) for vi, i in zip(np.asarray(v, dtype=float), "xyz"))


def block_momentum(p, theta: float) -> np.ndarray:
    """Block embedding of a spatial vector with relative phase theta:
    [[0, -i e^{-i theta}], [i e^{+i theta}, 0]] (x) p.sigma."""
    phases = [[0, -1j * np.exp(-1j * theta)], [1j * np.exp(1j * theta), 0]]
    return np.kron(phases, _sigma_dot(p))


def phased_anticommutator_block(p, q, theta: float) -> np.ndarray:
    """Closed form of (pq + qp)/2 for block momenta with relative phase theta:
    cos(theta) (p.q) 1 + diag(sin(theta), -sin(theta)) (x) (p x q).sigma.
    At theta = 0 it reduces to (p.q) 1."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    block = np.kron(np.diag([np.sin(theta), -np.sin(theta)]), _sigma_dot(np.cross(p, q)))
    return np.cos(theta) * float(p @ q) * np.eye(4, dtype=complex) + block


def majorana_momentum_matrix(p, phi: float) -> np.ndarray:
    """Majorana momentum matrix with the y-component carrying phase phi:
    p_x a_x + p_z a_z + p_y [[0, e^{-i phi}], [e^{i phi}, 0]] (x) 1."""
    px, py, pz = np.asarray(p, dtype=float)
    e = np.exp(-1j * phi)
    _, ax_label, _, az_label = MAJORANA_LABELS
    y_part = np.kron([[0, py * e], [py / e, 0]], pauli("1"))
    return px * kron_matrix(ax_label) + pz * kron_matrix(az_label) + y_part


def majorana_phased_dot(p, q, phi: float) -> float:
    """Scalar of the phased Majorana anticommutator:
    (p(phi) q(0) + q(0) p(phi)) / 2 = (p_x q_x + cos(phi) p_y q_y + p_z q_z) 1."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(p[0] * q[0] + np.cos(phi) * p[1] * q[1] + p[2] * q[2])
