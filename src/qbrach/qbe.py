"""Brachistochrone systems and the matrix flow i d(H+F)/dt = [H, F].

A system is a traceless Hermitian Hamiltonian H spanned by a declared set of
Kronecker-basis labels, plus a constraint F supported on the complementary
labels with Tr[H F] = 0.  Membership in either span is declared by label,
never inferred from coefficient values.  Integration is fixed-step RK4 on
the basis coefficients of A = H + F, which keeps A exactly traceless
Hermitian and makes the span split deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cliffrep import build_majorana
from .matcore import BLOCK_SAMPLES, commutator, kron_matrix, trace_pair, traceless_labels

Label = tuple[str, str]

# Labels spanning the Majorana Hamiltonian: mass generator i*beta = -sigma_y(x)1,
# then p_x, p_y, p_z generators.
MAJORANA_H_SPAN: list[Label] = [("y", "1"), ("z", "z"), ("x", "1"), ("z", "x")]

# Labels of the purely imaginary (antisymmetric) Kronecker elements; these
# span i * (real antisymmetric), the angular-momentum Hamiltonians.
IMAG_LABELS: list[Label] = [
    ("1", "y"), ("x", "y"), ("y", "1"), ("y", "x"), ("y", "z"), ("z", "y"),
]


# Most RK4 steps one integration may take; the trajectory holds 15 floats
# per step.
MAX_STEPS = 1_000_000

# Relative distance of t_end / step from an integer that still counts as one.
GRID_RTOL = 1e-9


class QbeError(ValueError):
    """Raised on invalid system setup or an invalid time grid."""


class DivergenceError(ArithmeticError):
    """Raised when an integration reaches non-finite coefficients: a numerical
    failure of valid input, not an input error."""


def complement_span(h_span: list[Label]) -> list[Label]:
    """Traceless labels not in h_span, in canonical basis order."""
    if not h_span:
        raise QbeError("h_span must be non-empty")
    if ("1", "1") in h_span:
        raise QbeError("identity label not allowed in h_span")
    taken = set(h_span)
    return [lab for lab in traceless_labels() if lab not in taken]


def assemble_constraint(f_span: list[Label], lam) -> np.ndarray:
    """F = sum_a lambda_a Y_a over the complement labels."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(f_span),):
        raise QbeError(f"expected {len(f_span)} coefficients, got {lam.shape}")
    f = np.zeros((4, 4), dtype=complex)
    for c, lab in zip(lam, f_span):
        f = f + c * kron_matrix(lab)
    return f


def trace_project_rhs(h: np.ndarray, f: np.ndarray, g: np.ndarray) -> complex:
    """Tr[[h, f] g], the projected right-hand side of the matrix flow."""
    return complex(np.trace(commutator(h, f) @ g))


def _trace(a: np.ndarray) -> np.ndarray:
    return a.trace(axis1=-2, axis2=-1)


def check_isotropic(h: np.ndarray, k: float) -> float | np.ndarray:
    """|Tr[h^2 / 2] - k|, the energy-budget residual, of h or of each of a stack."""
    return abs(_trace(h @ h).real / 2.0 - k)


@dataclass(frozen=True)
class BrachSystem:
    """Hamiltonian-plus-constraint initial data for the matrix flow."""

    h0: np.ndarray
    h_span: tuple[Label, ...]
    f_span: tuple[Label, ...]
    lambda0: np.ndarray
    k: float

    def __post_init__(self):
        if set(self.h_span) & set(self.f_span):
            raise QbeError("h_span and f_span overlap")
        if ("1", "1") in self.h_span or ("1", "1") in self.f_span:
            raise QbeError("identity label not allowed in either span")
        # Each test is written to fail on a NaN residual as well.
        if not abs(np.trace(self.h0)) <= 1e-12:
            raise QbeError("Hamiltonian must be traceless")
        f0 = self.f0()
        if not abs(trace_pair(self.h0, f0)) <= 1e-10:
            raise QbeError("Tr[H F] != 0 at t = 0")
        if not check_isotropic(self.h0, self.k) <= 1e-10:
            raise QbeError("isotropic constraint Tr[H^2/2] = k violated at t = 0")

    def f0(self) -> np.ndarray:
        return assemble_constraint(list(self.f_span), self.lambda0)


def majorana_system(m: float, p, lam=None) -> BrachSystem:
    """Majorana Hamiltonian H = i m beta + alpha.p with its span bookkeeping.

    With lam=None the constraint defaults to the closed-orbit choice
    F = -E sigma_z (x) 1 (E = sqrt(m^2+|p|^2)), for which the flow conjugates
    H by the diagonal propagator and the mass coefficient rotates at 2E.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(np.sqrt(m * m + p @ p))
        h0 = build_majorana().hamiltonian(m, p)
        k = float(np.trace(h0 @ h0).real / 2.0)
    if not (math.isfinite(energy) and math.isfinite(k)):
        raise QbeError("E^2 = m^2 + |p|^2 or k = Tr[H^2/2] is not finite: "
                       "the Hamiltonian H = i m beta + alpha.p overflows")
    f_span = complement_span(MAJORANA_H_SPAN)
    if lam is None:
        lam = np.zeros(len(f_span))
        lam[f_span.index(("z", "1"))] = -energy
    return BrachSystem(h0, tuple(MAJORANA_H_SPAN), tuple(f_span), np.asarray(lam, dtype=float), k)


def angmom_system(h0: np.ndarray, f_coeffs) -> BrachSystem:
    """System for an angular-momentum Hamiltonian H = i M (M real antisymmetric).

    The H span is the six imaginary Kronecker labels; the constraint span is
    the nine real symmetric traceless labels, with coefficients f_coeffs.
    """
    f_span = complement_span(IMAG_LABELS)
    k = float(np.trace(h0 @ h0).real / 2.0)
    return BrachSystem(h0, tuple(IMAG_LABELS), tuple(f_span), np.asarray(f_coeffs, dtype=float), k)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A copy of `a` over an immutable bytes buffer: read-only, and no caller
    can make it writeable again.  For arrays cached and shared by all callers."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


@functools.cache
def _span_basis(labels: tuple[Label, ...]) -> np.ndarray:
    """The basis matrices of `labels`, flattened, as the rows of one (k, 16)
    array."""
    return _frozen(np.stack([kron_matrix(lab).ravel() for lab in labels]))


@functools.cache
def _span_columns(labels: tuple[Label, ...], which: tuple[Label, ...]) -> np.ndarray:
    """The position in `labels` of each label of `which`."""
    return _frozen(np.array([labels.index(lab) for lab in which]))


@dataclass(frozen=True)
class Trajectory:
    """Integrated flow sampled on a uniform time grid."""

    times: np.ndarray
    coeffs: np.ndarray  # (n_times, 15) real, ordered by `labels`
    labels: tuple[Label, ...]
    h_labels: tuple[Label, ...]
    f_labels: tuple[Label, ...]

    def coeff_series(self, label: Label) -> np.ndarray:
        return self.coeffs[:, self.labels.index(label)]

    def _stack(self, which: tuple[Label, ...], rows) -> np.ndarray:
        """sum_a c_a(t_i) Y_a over the labels `which`, for the samples i that
        `rows` selects from `coeffs`, as a (k, 4, 4) stack."""
        c = self.coeffs[rows][:, _span_columns(self.labels, which)]
        return np.dot(c, _span_basis(which)).reshape(-1, 4, 4)

    def blocks(self):
        """(lo, H, F) for consecutive blocks of at most BLOCK_SAMPLES samples,
        where H and F are the stacks for samples lo, lo + 1, ..."""
        for lo in range(0, len(self.times), BLOCK_SAMPLES):
            rows = slice(lo, lo + BLOCK_SAMPLES)
            yield lo, self._stack(self.h_labels, rows), self._stack(self.f_labels, rows)

    def h_at(self, i: int) -> np.ndarray:
        return self._stack(self.h_labels, [i])[0]

    def f_at(self, i: int) -> np.ndarray:
        return self._stack(self.f_labels, [i])[0]


def integrate_qbe(sys: BrachSystem, t_end: float, step: float) -> Trajectory:
    """Fixed-step RK4 integration of d(H+F)/dt = -i [H, F].

    H and F are recovered at every stage by trace projection onto the
    declared spans; the state is the vector of 15 real basis coefficients.
    Raises DivergenceError naming the first sample whose coefficients are
    not all finite.
    """
    if not (math.isfinite(step) and math.isfinite(t_end) and step > 0 and t_end > 0):
        raise QbeError("step and t_end must be positive and finite")
    ratio = t_end / step
    if ratio > MAX_STEPS + 0.5:
        raise QbeError(f"t_end / step = {ratio:g} exceeds the cap of {MAX_STEPS} steps")
    n = round(ratio)
    if n == 0:
        raise QbeError(f"t_end / step = {ratio:g} rounds to 0 steps")
    if abs(ratio - n) > GRID_RTOL * ratio:
        raise QbeError(f"t_end / step = {ratio!r} is not an integer number of steps")

    labels = tuple(traceless_labels())
    flat = _span_basis(labels)
    masks = np.array([[lab in span for lab in labels] for span in (sys.h_span, sys.f_span)],
                     dtype=float)
    # H and F of a stage as one product c @ basis: row a of basis is
    # mask_H[a] Y_a and then mask_F[a] Y_a, each flattened.  The masks scale
    # the real and imaginary parts apart, as float products with their signed
    # zeros; tests/test_qbe.py checks the bits against masking c instead.
    basis = np.empty((len(labels), 2, 16), dtype=complex)
    basis.real = masks.T[:, :, None] * flat.real[:, None, :]
    basis.imag = masks.T[:, :, None] * flat.imag[:, None, :]
    basis = basis.reshape(len(labels), 32)

    c0 = np.array([trace_pair(sys.h0 + sys.f0(), kron_matrix(lab)).real / 4.0
                   for lab in labels])

    # Tr[-i [H, F] Y_a] / 4 as a gather.  Each basis matrix Y_a has one
    # nonzero entry per column: term col of coefficient a is [H, F][col, row]
    # times -i Y_a[row, col].  pos holds the flat index of that commutator
    # entry and phase the factor, each as (4 terms, 15 coefficients).  The
    # terms are added in the order of col; tests/test_qbe.py checks the bits
    # against the einsum "ij,aji->a".
    ys = flat.reshape(-1, 4, 4)
    lab, col, row = np.nonzero(ys.transpose(0, 2, 1))  # ordered by (lab, col)
    pos = (4 * col + row).reshape(-1, 4).T
    phase = (-1j * ys[lab, row, col]).reshape(-1, 4).T

    # The workspace of one step, allocated once: every operation below
    # writes into it, and each step's new coefficients go straight into out.
    hf = np.empty((2, 4, 4), dtype=complex)  # H and F
    hf_flat, fh = hf.reshape(32), hf[::-1]
    products = np.empty((2, 4, 4), dtype=complex)  # HF and FH
    hf_prod, fh_prod = products
    comm = np.empty((4, 4), dtype=complex)  # [H, F]
    terms = np.empty(pos.shape, dtype=complex)
    terms_real = terms.real
    ks = np.empty((4, len(labels)))  # k1..k4 of RK4
    k1, k2, k3, k4 = ks
    k23 = ks[1:3]
    stage = np.empty(len(labels))  # the argument of k2..k4, then the increment

    def rhs(c: np.ndarray, k: np.ndarray) -> None:
        np.dot(c, basis, out=hf_flat)
        np.matmul(hf, fh, out=products)
        np.subtract(hf_prod, fh_prod, out=comm)
        comm.take(pos, out=terms)
        np.multiply(terms, phase, out=terms)
        np.add.reduce(terms_real, axis=0, out=k)
        np.divide(k, 4.0, out=k)

    half, sixth = 0.5 * step, step / 6.0
    times = np.arange(n + 1) * step
    out = np.empty((n + 1, len(labels)))
    out[0] = c0
    # A diverging flow overflows before the check below stops it; silence
    # numpy's overflow warnings, since the check reports the divergence.
    # Non-finite coefficients stay non-finite, so one check per block of
    # rows finds the first of them.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, n + 1, BLOCK_SAMPLES):
            hi = min(lo + BLOCK_SAMPLES, n + 1)
            for i in range(lo, hi):
                c = out[i - 1]
                rhs(c, k1)
                np.add(c, np.multiply(k1, half, out=stage), out=stage)
                rhs(stage, k2)
                np.add(c, np.multiply(k2, half, out=stage), out=stage)
                rhs(stage, k3)
                np.add(c, np.multiply(k3, step, out=stage), out=stage)
                rhs(stage, k4)
                # ((k1 + 2 k2) + 2 k3) + k4, added in this order
                np.multiply(k23, 2, out=k23)
                np.add.reduce(ks, axis=0, out=stage)
                np.add(c, np.multiply(stage, sixth, out=stage), out=out[i])
            bad = ~np.isfinite(out[lo:hi]).all(axis=1)
            if bad.any():
                raise DivergenceError(f"non-finite coefficients at t = {times[lo + bad.argmax()]}")

    return Trajectory(times, out, labels, sys.h_span, sys.f_span)


def _spectra(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a (..., 4, 4) stack.

    All NaN when any entry is non-finite, so that a NaN coefficient always
    shows as a NaN drift: given one, LAPACK may raise, or return finite
    values when the NaN lies in the triangle it does not read.
    """
    if not np.isfinite(a).all():
        return np.full(a.shape[:-1], np.nan)
    return np.linalg.eigvalsh(a)


def initial_invariants(traj: Trajectory) -> tuple[float, np.ndarray]:
    """Tr[A0^2] and spec A0 of A0 = H(0) + F(0), the references of `drifts`."""
    a0 = traj.h_at(0) + traj.f_at(0)
    return _trace(a0 @ a0).real, _spectra(a0)


def drifts(h: np.ndarray, f: np.ndarray, k: float, tr_a2_0: float, eig0: np.ndarray) -> tuple:
    """|Tr[H^2]/2 - k|, |Tr[HF]|, |Tr[A^2] - Tr[A0^2]| and max |spec A - spec A0|,
    A = H + F, for one sample (4x4 h, f) or each of a (k, 4, 4) stack.  The last
    is the distance from an isospectral (Lax) flow (Calvo, Iserles & Zanna 1997).
    """
    a = h + f
    return (check_isotropic(h, k),
            abs(_trace(h @ f)),
            abs(_trace(a @ a).real - tr_a2_0),
            abs(_spectra(a) - eig0).max(axis=-1))


def conserved_residuals(traj: Trajectory, sys: BrachSystem) -> dict[str, float]:
    """Drift of the flow's conserved quantities over a trajectory.

    Each drift is the largest over all samples and is NaN if any sample's is.
    """
    invariants = initial_invariants(traj)
    worst = [[np.max(d) for d in drifts(h, f, sys.k, *invariants)]
             for _, h, f in traj.blocks()]
    iso, cross, tr_a2, spec = np.max(worst, axis=0)
    return {
        "isotropic_drift": float(iso),
        "cross_trace_drift": float(cross),
        "total_square_drift": float(tr_a2),
        "spectrum_drift": float(spec),
    }
