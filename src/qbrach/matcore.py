"""Dense complex matrix algebra over 2x2 and 4x4 matrices.

Everything downstream works over the 16-element Pauli-Kronecker operator
basis sigma_i (x) sigma_j.  Matrices are plain numpy complex128 arrays;
all functions here are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

# Default absolute comparison tolerance for floating-point checks.
DEFAULT_TOL = 1e-10

# Off-diagonal threshold below which a matrix counts as diagonal.
DIAG_TOL = 1e-12

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


def as_mat(entries) -> np.ndarray:
    """Coerce to a square complex matrix of dim 2 or 4."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise MatrixError(f"expected 2x2 or 4x4 matrix, got shape {a.shape}")
    return a


def pauli(index: str) -> np.ndarray:
    """Pauli matrix for index in {'1', 'x', 'y', 'z'} ('1' is the identity)."""
    try:
        return _PAULI[index].copy()
    except KeyError:
        raise MatrixError(f"unknown Pauli index {index!r}") from None


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, giving a 4x4 matrix."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise MatrixError("kron expects two 2x2 matrices")
    return np.kron(a, b)


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
    return [lab for lab, _ in basis16() if lab != ("1", "1")]


def kron_matrix(label: tuple[str, str]) -> np.ndarray:
    """Basis matrix for a Kronecker label (i, j), as a fresh copy."""
    i, j = label
    if (i, j) not in _KRON:
        raise MatrixError(f"unknown Kronecker label {label!r}")
    return _KRON[i, j].copy()


def mat_exp_diag(d: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t d) for a diagonal matrix d.

    Raises MatrixError if any off-diagonal magnitude exceeds DIAG_TOL.
    Unitary whenever d is real.
    """
    d = np.asarray(d, dtype=complex)
    off = d - np.diag(np.diag(d))
    if np.abs(off).max(initial=0.0) >= DIAG_TOL:
        raise MatrixError("mat_exp_diag requires a diagonal matrix")
    return np.diag(np.exp(-1j * t * np.diag(d)))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.abs(a - a.conj().T).max() < tol)


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.abs(a @ a.conj().T - np.eye(a.shape[0])).max() < tol)


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the residual norm used throughout."""
    return float(np.abs(a).max())


def mat_to_json(a: np.ndarray) -> dict:
    """Serialize a matrix as {"dim": n, "re": [...], "im": [...]} row-major."""
    a = np.asarray(a, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def mat_from_json(obj: dict) -> np.ndarray:
    n = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float).reshape(n, n)
    im = np.asarray(obj["im"], dtype=float).reshape(n, n)
    return re + 1j * im
