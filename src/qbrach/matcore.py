"""Dense complex matrix algebra over 2x2 and 4x4 matrices.

Everything downstream works over the 16-element Pauli-Kronecker operator
basis sigma_i (x) sigma_j, built once and shared read-only.  Matrices are
numpy complex128 arrays; every function here is pure and mutates no input.
"""

from __future__ import annotations

import numpy as np

# Samples per block of block_slices, when a series is built as one stack: bounds
# the memory of an audit or a classification whatever the series length.
BLOCK_SAMPLES = 256

# Most samples of every series held whole: a time or angle grid, or the steps
# of a trajectory.  Each is allocated whole, so its length must be bounded.
MAX_SAMPLES = 1_000_000

PAULI_INDICES = ("1", "x", "y", "z")


def frozen(a: np.ndarray) -> np.ndarray:
    """A copy of `a` over an immutable bytes buffer: read-only, and no caller
    can make it writeable again.  For arrays cached and shared by all callers."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


_PAULI = {
    "1": frozen(np.eye(2, dtype=complex)),
    "x": frozen(np.array([[0, 1], [1, 0]], dtype=complex)),
    "y": frozen(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "z": frozen(np.array([[1, 0], [0, -1]], dtype=complex)),
}


# sigma_i (x) sigma_j for every label, built once; shared, read-only.
_KRON = {(i, j): frozen(np.kron(_PAULI[i], _PAULI[j]))
         for i in PAULI_INDICES for j in PAULI_INDICES}


def pauli(index: str) -> np.ndarray:
    """Pauli matrix for index in {'1', 'x', 'y', 'z'} ('1' is the identity)."""
    try:
        return _PAULI[index]
    except KeyError:
        raise ValueError(f"unknown Pauli index {index!r}") from None


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = ab + ba."""
    _check_same_dim(a, b)
    return a @ b + b @ a


def trace_pair(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr[ab], the bilinear pairing used for orthogonality and projection."""
    _check_same_dim(a, b)
    return complex(np.trace(a @ b))


def traceless_labels() -> list[tuple[str, str]]:
    """The 15 Kronecker labels excluding the identity ('1', '1')."""
    return [lab for lab in _KRON if lab != ("1", "1")]


def kron_matrix(label: tuple[str, str]) -> np.ndarray:
    """Basis matrix for a Kronecker label (i, j), shared, read-only."""
    i, j = label
    if (i, j) not in _KRON:
        raise ValueError(f"unknown Kronecker label {label!r}")
    return _KRON[i, j]


def phase_stack(vals, times) -> np.ndarray:
    """diag(e^{-i t vals}) for each t in times, as a (len(times), n, n) stack."""
    times = np.asarray(times, dtype=float)
    n = len(vals)
    out = np.zeros((len(times), n, n), dtype=complex)
    out[:, range(n), range(n)] = np.exp(-1j * times[:, None] * vals)
    return out


def block_slices(n: int) -> list[slice]:
    """The consecutive slices of at most BLOCK_SAMPLES indices that cover range(n)."""
    return [slice(lo, min(lo + BLOCK_SAMPLES, n)) for lo in range(0, n, BLOCK_SAMPLES)]


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the residual norm used throughout."""
    return float(np.abs(a).max())


def worst(residuals) -> float:
    """Largest of a non-empty collection of residuals, NaN if any is NaN.

    Every PASS/FAIL verdict reduces its residuals here and then compares
    with `< tol`, so a NaN fails.  The builtin max is no substitute: it
    drops a NaN that does not come first.
    """
    return float(np.max(np.fromiter(residuals, dtype=float)))
