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
from dataclasses import dataclass, field

import numpy as np

from .cliffrep import MAJORANA_LABELS, build_majorana
from .matcore import BLOCK_SAMPLES, commutator, kron_matrix, trace_pair, traceless_labels

Label = tuple[str, str]

# Labels spanning the Majorana Hamiltonian: the mass, then p_x, p_y, p_z generators.
MAJORANA_H_SPAN: list[Label] = list(MAJORANA_LABELS)

# Labels of the purely imaginary (antisymmetric) Kronecker elements, those with
# exactly one sigma_y; they span i * (real antisymmetric), the angular-momentum
# Hamiltonians.
IMAG_LABELS: list[Label] = [lab for lab in traceless_labels() if lab.count("y") == 1]


# Most RK4 steps one integration may take; the trajectory holds 15 floats
# per step.
MAX_STEPS = 1_000_000

# Relative distance of t_end / step from an integer that still counts as one.
GRID_RTOL = 1e-9

# The conserved quantities whose drifts `drifts` returns, in its order.
DRIFTS = ("isotropic", "cross_trace", "total_square", "spectrum")


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
    return np.dot(lam, _span(tuple(f_span))[1]).reshape(4, 4)


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
    """Hamiltonian-plus-constraint initial data for the matrix flow.

    H0 lies on the labels h_span and F0 = sum_a lambda0_a Y_a on the rest,
    f_span = complement_span(h_span); k = Tr[H0^2]/2 is the energy budget.
    """

    h0: np.ndarray
    h_span: tuple[Label, ...]
    lambda0: np.ndarray
    f_span: tuple[Label, ...] = field(init=False)
    k: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "f_span", tuple(complement_span(self.h_span)))
        object.__setattr__(self, "k", float(np.trace(self.h0 @ self.h0).real / 2.0))
        # Each test is written to fail on a NaN residual as well.
        if not abs(np.trace(self.h0)) <= 1e-12:
            raise QbeError("Hamiltonian must be traceless")
        if not abs(trace_pair(self.h0, self.f0())) <= 1e-10:
            raise QbeError("Tr[H F] != 0 at t = 0")

    def f0(self) -> np.ndarray:
        return assemble_constraint(self.f_span, self.lambda0)


def majorana_system(m: float, p, lam=None) -> BrachSystem:
    """Majorana Hamiltonian H = i m beta + alpha.p with its span bookkeeping.

    With lam=None the constraint defaults to the closed-orbit choice
    F = -E sigma_z (x) 1 (E = sqrt(m^2+|p|^2)), for which the flow conjugates
    H by the diagonal propagator and the mass coefficient rotates at 2E.
    """
    p = np.asarray(p, dtype=float)
    f_span = complement_span(MAJORANA_H_SPAN)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(np.sqrt(m * m + p @ p))
        if lam is None:
            lam = np.zeros(len(f_span))
            lam[f_span.index(("z", "1"))] = -energy
        # Built only for a finite E, since an infinite one makes the default
        # F0 NaN; k = Tr[H0^2]/2 = 2 E^2 may still overflow.
        sys_ = (BrachSystem(build_majorana().hamiltonian(m, p), tuple(MAJORANA_H_SPAN),
                            np.asarray(lam, dtype=float))
                if math.isfinite(energy) else None)
    if sys_ is None or not math.isfinite(sys_.k):
        raise QbeError("E^2 = m^2 + |p|^2 or k = Tr[H^2/2] is not finite: "
                       "the Hamiltonian H = i m beta + alpha.p overflows")
    return sys_


def angmom_system(h0: np.ndarray, f_coeffs) -> BrachSystem:
    """System for an angular-momentum Hamiltonian H = i M (M real antisymmetric).

    The H span is the six imaginary Kronecker labels; the constraint span is
    the nine real symmetric traceless labels, with coefficients f_coeffs.
    """
    return BrachSystem(h0, tuple(IMAG_LABELS), np.asarray(f_coeffs, dtype=float))


def _frozen(a: np.ndarray) -> np.ndarray:
    """A copy of `a` over an immutable bytes buffer: read-only, and no caller
    can make it writeable again.  For arrays cached and shared by all callers."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


@functools.cache
def _span(labels: tuple[Label, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(columns, basis) of `labels`: the position of each label in
    traceless_labels(), and their basis matrices, flattened, as rows of a (k, 16) array."""
    order = traceless_labels()
    return (_frozen(np.array([order.index(lab) for lab in labels])),
            _frozen(np.stack([kron_matrix(lab).ravel() for lab in labels])))


@dataclass(frozen=True)
class Trajectory:
    """The flow of `system` sampled on a uniform time grid."""

    times: np.ndarray
    coeffs: np.ndarray  # (n_times, 15) real, ordered by traceless_labels()
    system: BrachSystem

    def coeff_series(self, label: Label) -> np.ndarray:
        return self.coeffs[:, traceless_labels().index(label)]

    def _stack(self, which: tuple[Label, ...], rows) -> np.ndarray:
        """sum_a c_a(t_i) Y_a over the labels `which`, for the samples i that
        `rows` selects from `coeffs`: a (k, 4, 4) stack for a slice, one 4x4
        matrix for an integer, rebuilt from a view of its row by a 1-D product."""
        c, (cols, basis) = self.coeffs[rows], _span(which)
        c = c[cols] if c.ndim == 1 else c[:, cols]  # c[..., cols] is slower by 0.65 us a row
        return c.dot(basis).reshape(c.shape[:-1] + (4, 4))

    def blocks(self):
        """(lo, H, F) for consecutive blocks of at most BLOCK_SAMPLES samples,
        where H and F are the stacks for samples lo, lo + 1, ..."""
        for lo in range(0, len(self.times), BLOCK_SAMPLES):
            rows = slice(lo, lo + BLOCK_SAMPLES)
            yield lo, self._stack(self.system.h_span, rows), self._stack(self.system.f_span, rows)

    def h_at(self, i: int) -> np.ndarray:
        return self._stack(self.system.h_span, i)

    def f_at(self, i: int) -> np.ndarray:
        return self._stack(self.system.f_span, i)


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
    # H and F of a stage as one product c @ basis: row a of basis is Y_a,
    # flattened, in the half of its span, and zeros in the other half.
    basis = np.zeros((len(labels), 2, 16), dtype=complex)
    for half, (columns, rows) in enumerate(map(_span, (sys.h_span, sys.f_span))):
        basis[columns, half] = rows
    basis = basis.reshape(len(labels), 32)

    a0 = sys.h0 + sys.f0()
    c0 = np.array([trace_pair(a0, kron_matrix(lab)).real / 4.0 for lab in labels])

    # Tr[-i [H, F] Y_a] / 4 as a gather.  Each basis matrix Y_a has one
    # nonzero entry per column: term col of coefficient a is [H, F][col, row]
    # times -i Y_a[row, col].  pos holds the flat index of that commutator
    # entry and phase the factor, each as (4 terms, 15 coefficients).  The
    # terms are added in the order of col; tests/test_qbe.py checks the bits
    # against the einsum "ij,aji->a".
    ys = _span(labels)[1].reshape(-1, 4, 4)
    lab, col, row = np.nonzero(ys.transpose(0, 2, 1))  # ordered by (lab, col)
    pos = (4 * col + row).reshape(-1, 4).T
    phase = (-1j * ys[lab, row, col]).reshape(-1, 4).T
    # take(mode="clip") skips the buffered copy of out that "raise" makes,
    # and clips nothing while every index lies in the 16 entries of [H, F].
    assert 0 <= pos.min() and pos.max() < 16

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
    stage = np.empty(len(labels))  # scale * k_s, then the increment
    # The argument of each stage, complex so that ndarray.dot need not cast
    # it: the stages write its real part, and its imaginary part stays +0,
    # the value a cast of a float vector gives.
    arg = np.zeros(len(labels), dtype=complex)
    arg_real = arg.real

    # Every scalar operand is a 0-d array built here, once: numpy converts a
    # Python float operand to an array on every call.  The values are those
    # of the float arithmetic 0.5 * step, step / 6.0, 4.0 and 2.
    half, whole, sixth, four, two = map(np.array, (0.5 * step, step, step / 6.0, 4.0, 2.0))
    # (k, scale): stage s writes k_s and then the argument of stage s + 1,
    # c + scale k_s; stage 4 has no next stage.
    stages = ((k1, half), (k2, half), (k3, whole), (k4, None))
    # The ufuncs as locals; ndarray.dot is np.dot without its dispatcher.
    dot, matmul, take, copyto = np.ndarray.dot, np.matmul, comm.take, np.copyto
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    add_reduce = np.add.reduce

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
            for c, new in zip(out[lo - 1:hi - 1], out[lo:hi]):
                copyto(arg_real, c)
                for k, scale in stages:
                    dot(arg, basis, hf_flat)
                    matmul(hf, fh, out=products)
                    subtract(hf_prod, fh_prod, out=comm)
                    take(pos, out=terms, mode="clip")
                    multiply(terms, phase, out=terms)
                    add_reduce(terms_real, axis=0, out=k)
                    divide(k, four, out=k)
                    if scale is not None:
                        add(c, multiply(k, scale, out=stage), out=arg_real)
                # ((k1 + 2 k2) + 2 k3) + k4, added in this order
                multiply(k23, two, out=k23)
                add_reduce(ks, axis=0, out=stage)
                add(c, multiply(stage, sixth, out=stage), out=new)
            bad = ~np.isfinite(out[lo:hi]).all(axis=1)
            if bad.any():
                raise DivergenceError(f"non-finite coefficients at t = {times[lo + bad.argmax()]}")

    return Trajectory(times, out, sys)


def _spectra(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a (..., 4, 4) stack.

    All NaN for each matrix with a non-finite entry, so that a NaN coefficient
    always shows as a NaN drift: given one, LAPACK may raise, or return finite
    values when the NaN lies in the triangle it does not read.  The other
    matrices of the stack keep their eigenvalues.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    out = np.full(a.shape[:-1], np.nan)
    out[finite] = np.linalg.eigvalsh(a[finite])
    return out


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


def conserved_residuals(traj: Trajectory) -> dict[str, float]:
    """Drift of the flow's conserved quantities over a trajectory.

    Each drift is the largest over all samples and is NaN if any sample's is.
    """
    invariants = initial_invariants(traj)
    worst = [[np.max(d) for d in drifts(h, f, traj.system.k, *invariants)]
             for _, h, f in traj.blocks()]
    return {f"{name}_drift": float(d) for name, d in zip(DRIFTS, np.max(worst, axis=0))}
