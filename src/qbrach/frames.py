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
from .matcore import max_abs, pauli
from .propagate import EigenFrame, evolve_hamiltonian, majorana_eigenframe, propagator


def expectation(h: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| h |psi> for a normalized column vector psi."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    return complex(np.conj(psi) @ (np.asarray(h, dtype=complex) @ psi))


@dataclass(frozen=True, eq=False)
class FrameCase:
    """States v and w at time t, with the eigenframe and H(0) that w came from."""

    v: np.ndarray
    w: np.ndarray
    t: float
    frame: EigenFrame
    h0: np.ndarray


def make_frame_case(v, t: float, m: float, p) -> FrameCase:
    """Normalize v and build the co-rotating partner w = U(t,0)^dag v."""
    v = np.asarray(v, dtype=complex).reshape(4)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("state vector must be nonzero")
    v = v / norm
    frame = majorana_eigenframe(float(m), p)
    u = propagator(frame, t, 0.0)
    return FrameCase(v=v, w=np.conj(u.T) @ v, t=float(t), frame=frame,
                     h0=build_majorana().hamiltonian(float(m), p))


def check_frame_equivalence(case: FrameCase) -> dict[str, float]:
    """Residuals of the four bilinear identities and the headline equality.

    With e = exp(-2iE t), a = (v1, v2), b = (v3, v4), c = (w1, w2),
    d = (w3, w4):

      I1: |a|^2 - |b|^2                   =  |c|^2 - |d|^2
      I2: a.(sx a) - b.(sx b)             =  c.(sx c) - d.(sx d)  (p_z-type)
      I3: Re(e a*.b)                      =  Re(c*.d)             (p_y-type)
      I4: Im(e a*.b)                      =  Im(c*.d)             (mass-type)

    headline: <v|H(t)|v> = <w|H(0)|w>.  One map gives each side: (v, e, H(t))
    on the left and (w, 1, H(0)) on the right.
    """
    sx = pauli("x")

    def bilinears(s, phase, h):  # I1, I2, Re and Im of 2 phase a*.b, <s|h|s>
        a, b = s[:2], s[2:]
        z = 2 * (phase * (np.conj(a) @ b))
        return (np.real(np.conj(a) @ a - np.conj(b) @ b),
                np.real(np.conj(a) @ (sx @ a) - np.conj(b) @ (sx @ b)),
                np.real(z), np.imag(z), expectation(h, s))

    ht = evolve_hamiltonian(case.frame, case.h0, case.t)
    e = np.exp(-2j * case.frame.energy * case.t)
    sides = zip(bilinears(case.v, e, ht), bilinears(case.w, 1.0, case.h0))
    return {key: float(abs(x - y)) for key, (x, y) in zip(
        ("identity_norm", "identity_pz", "identity_py", "identity_mass", "headline"), sides)}


def check_klein_gordon(frame: EigenFrame, h0: np.ndarray, t_grid) -> float:
    """Max residual of H(t)^2 = E^2 1 over the time grid, H(t) evolved from h0 in frame."""
    ht = evolve_hamiltonian(frame, h0, t_grid)
    return max_abs(ht @ ht - frame.energy_sq * np.eye(4))
