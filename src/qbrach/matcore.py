"""Dense complex matrix algebra over 2x2 and 4x4 matrices.

Everything downstream works over the 16-element Pauli-Kronecker operator
basis sigma_i (x) sigma_j.  Matrices are plain numpy complex128 arrays;
all functions here are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

# Samples per block when a time series of matrices is built as one stack:
# bounds the memory of an audit or a classification whatever the series length.
BLOCK_SAMPLES = 256

# Most samples a time or angle grid may hold.  A grid is allocated whole
# before it is processed block by block, so its length must be bounded.
MAX_SAMPLES = 1_000_000

PAULI_INDICES = ("1", "x", "y", "z")

_PAULI = {
    "1": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# sigma_i (x) sigma_j for every label, built once; callers receive copies.
_KRON = {(i, j): np.kron(_PAULI[i], _PAULI[j])
         for i in PAULI_INDICES for j in PAULI_INDICES}


class MatrixError(ValueError):
    """Raised on dimension mismatches or invalid matrix inputs."""


def pauli(index: str) -> np.ndarray:
    """Pauli matrix for index in {'1', 'x', 'y', 'z'} ('1' is the identity)."""
    try:
        return _PAULI[index].copy()
    except KeyError:
        raise MatrixError(f"unknown Pauli index {index!r}") from None


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise MatrixError(f"dimension mismatch: {a.shape} vs {b.shape}")


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


def basis16() -> list[tuple[tuple[str, str], np.ndarray]]:
    """The 16 Kronecker-basis matrices sigma_i (x) sigma_j.

    Ordered by (i, j) over ('1', 'x', 'y', 'z').  Mutually trace-orthogonal
    with Tr[Y Y'] = 4 delta; only the ('1', '1') element has nonzero trace.
    """
    return [(lab, mat.copy()) for lab, mat in _KRON.items()]


def traceless_labels() -> list[tuple[str, str]]:
    """The 15 Kronecker labels excluding the identity ('1', '1')."""
    return [lab for lab in _KRON if lab != ("1", "1")]


def kron_matrix(label: tuple[str, str]) -> np.ndarray:
    """Basis matrix for a Kronecker label (i, j), as a fresh copy."""
    i, j = label
    if (i, j) not in _KRON:
        raise MatrixError(f"unknown Kronecker label {label!r}")
    return _KRON[i, j].copy()


def phase_stack(vals, times) -> np.ndarray:
    """diag(e^{-i t vals}) for each t in times, as a (len(times), n, n) stack."""
    times = np.asarray(times, dtype=float)
    n = len(vals)
    out = np.zeros((len(times), n, n), dtype=complex)
    out[:, range(n), range(n)] = np.exp(-1j * times[:, None] * vals)
    return out


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


def mat_to_json(a: np.ndarray) -> dict:
    """Serialize a matrix as {"dim": n, "re": [...], "im": [...]} row-major."""
    a = np.asarray(a, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }
