"""Frame equivalence between rotating-mass and static-mass descriptions.

A state v evolved under the time-dependent Hamiltonian H(t) and the
co-rotating state w = U(t,0)^dag v see the same physics: expectation
values of H agree, and bilinears built from v with an explicit phase
e^{-2iEt} match phase-free bilinears built from w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffrep import build_majorana
from .matcore import max_abs, pauli, worst
from .propagate import evolve_hamiltonian, majorana_eigenframe, propagator


class FrameError(ValueError):
    """Raised on invalid frame-comparison input."""


def expectation(h: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| h |psi> for a normalized column vector psi."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    return complex(np.conj(psi) @ (np.asarray(h, dtype=complex) @ psi))


@dataclass(frozen=True)
class FrameCase:
    v: np.ndarray
    w: np.ndarray
    t: float
    m: float
    p: tuple[float, float, float]
    energy: float


def make_frame_case(v, t: float, m: float, p) -> FrameCase:
    """Normalize v and build the co-rotating partner w = U(t,0)^dag v."""
    v = np.asarray(v, dtype=complex).reshape(4)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise FrameError("state vector must be nonzero")
    v = v / norm
    p = tuple(float(x) for x in np.asarray(p, dtype=float))
    frame = majorana_eigenframe(float(m), p)
    u = propagator(frame)(t, 0.0)
    return FrameCase(v=v, w=np.conj(u.T) @ v, t=float(t), m=float(m), p=p,
                     energy=frame.energy)


def check_frame_equivalence(case: FrameCase) -> dict:
    """Residuals of the four bilinear identities and the headline equality.

    With e = exp(-2iE t), a = (v1, v2), b = (v3, v4), c = (w1, w2),
    d = (w3, w4):

      I1: |a|^2 - |b|^2                   =  |c|^2 - |d|^2
      I2: a.(sx a) - b.(sx b)             =  c.(sx c) - d.(sx d)  (p_z-type)
      I3: Re(e a*.b)                      =  Re(c*.d)             (p_y-type)
      I4: Im(e a*.b)                      =  Im(c*.d)             (mass-type)

    headline: <v|H(t)|v> = <w|H(0)|w>.
    """
    rep = build_majorana()
    h0 = rep.hamiltonian(case.m, case.p)
    frame = majorana_eigenframe(case.m, case.p)
    ht = evolve_hamiltonian(frame, h0, case.t)
    e = np.exp(-2j * case.energy * case.t)

    a, b = case.v[:2], case.v[2:]
    c, d = case.w[:2], case.w[2:]
    sx = pauli("x")

    def _split(x, y):
        return float(np.real(np.conj(x) @ x - np.conj(y) @ y))

    def _spin(x, y):
        return float(np.real(np.conj(x) @ (sx @ x) - np.conj(y) @ (sx @ y)))

    zv = e * (np.conj(a) @ b)
    zw = np.conj(c) @ d
    residuals = {
        "identity_norm": abs(_split(a, b) - _split(c, d)),
        "identity_pz": abs(_spin(a, b) - _spin(c, d)),
        "identity_py": abs(float(np.real(2 * zv) - np.real(2 * zw))),
        "identity_mass": abs(float(np.imag(2 * zv) - np.imag(2 * zw))),
        "headline": abs(expectation(ht, case.v) - expectation(h0, case.w)),
    }
    tol = 1e-10
    verdict = "PASS" if worst(residuals.values()) < tol else "FAIL"
    return {"residuals": residuals, "tol": tol, "verdict": verdict}


def check_klein_gordon(m: float, p, t_grid) -> float:
    """Max residual of H(t)^2 = (m^2 + |p|^2) 1 over the time grid."""
    p = np.asarray(p, dtype=float)
    frame = majorana_eigenframe(float(m), tuple(p))
    h0 = build_majorana().hamiltonian(float(m), tuple(p))
    ht = evolve_hamiltonian(frame, h0, t_grid)
    return max_abs(ht @ ht - (m * m + float(p @ p)) * np.eye(4))
