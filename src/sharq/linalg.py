"""Complex matrix primitives used by the simulation.

Everything is a dense ``complex128`` ndarray. States are column vectors of
shape ``(2**n, 1)`` (or flat vectors of length ``2**n`` inside the engine);
operators are square ``2**n x 2**n`` matrices. Functions are value-semantic:
inputs are never mutated.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotSquareError, QubitLimitExceededError, as_int

# Tolerances: unitarity checks and state comparisons accumulate round-off
# differently, so they get separate defaults.
UNITARY_TOL = 1e-10
STATE_TOL = 1e-9

# Dense matrices above this qubit count are too large to be useful here
# (the full-matrix path exists as a validation oracle, not a fast path).
MAX_MATRIX_QUBITS = 10


def require_dense(n_qubits: int, what: str):
    """Refuse a dense matrix on more than ``MAX_MATRIX_QUBITS`` qubits before it is built."""
    if n_qubits > MAX_MATRIX_QUBITS:
        raise QubitLimitExceededError(
            f"{what} on {n_qubits} qubits exceeds the dense-matrix cap of {MAX_MATRIX_QUBITS}"
        )


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array without copying when possible."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    return m


def multiply(a, b) -> np.ndarray:
    """Matrix product a.b; dims (a.rows x b.cols)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ"
        )
    return a @ b


def tensor(a, b) -> np.ndarray:
    """Kronecker product; dims (a.rows*b.rows x a.cols*b.cols)."""
    return np.kron(as_matrix(a), as_matrix(b))


def conjugate_transpose(a) -> np.ndarray:
    """The adjoint: result[j, i] = conj(a[i, j])."""
    return as_matrix(a).conj().T.copy()


def is_unitary(a, tol: float = UNITARY_TOL) -> bool:
    """True iff U†U and UU† both equal identity within ``tol`` (max-abs entry)."""
    u = as_matrix(a)
    if u.shape[0] != u.shape[1]:
        raise NotSquareError(f"unitarity is only defined for square matrices, got {u.shape}")
    eye = np.eye(u.shape[0])
    ud = u.conj().T
    return (
        np.abs(ud @ u - eye).max() <= tol and np.abs(u @ ud - eye).max() <= tol
    )


def approx_equal(a, b, tol: float = STATE_TOL) -> bool:
    """True iff same shape and max entry-wise |a-b| <= tol."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        return False
    return bool(np.abs(a - b).max() <= tol)


def identity(n_qubits: int) -> np.ndarray:
    """Identity operator on ``n_qubits`` qubits (2**n x 2**n); n=0 gives [[1]]."""
    n_qubits = as_int(n_qubits, "qubit count")
    if n_qubits < 0:
        raise QubitLimitExceededError("qubit count must be non-negative")
    require_dense(n_qubits, "identity")
    return np.eye(1 << n_qubits, dtype=complex)
