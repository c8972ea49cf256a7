"""Gate catalog, operation objects, expansion, and named-state preparation.

Conventions:
  Basis ordering is big-endian throughout. In a k-qubit operation the first
  target is the most significant bit of the 2**k sub-basis index, so
  ``cnot(control, target)`` has basis order |control target> = |00>, |01>,
  |10>, |11>, and ``toffoli(c1, c2, t)`` orders |c1 c2 t>.

  An operation's action is either a dense unitary matrix or a permutation of
  basis indices (used for semantic oracles that are too wide to materialize).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import (
    DuplicateIndexesError,
    InvalidParameterError,
    NotUnitaryOperationError,
    QubitLimitExceededError,
    SemanticOracleNotMaterializableError,
    SizeMismatchError,
)

# Basis labels are int64 words, so no state or basis trace is wider than
# this. run_on_basis keeps qubit t of any register at bit 61 - t of its word.
HARD_QUBIT_LIMIT = 62

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _mat(*rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


_H = _mat([_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF])
_X = _mat([0, 1], [1, 0])
_Y = _mat([0, -1j], [1j, 0])
_Z = _mat([1, 0], [0, -1])
_S = _mat([1, 0], [0, 1j])
_T = _mat([1, 0], [0, np.exp(1j * np.pi / 4)])
_I = _mat([1, 0], [0, 1])
_CNOT = _mat([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0])
_SWAP = _mat([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1])


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """A named unitary bound to explicit target indices.

    Exactly one of ``matrix`` (2**k x 2**k) or ``permutation`` (length 2**k
    basis map) is set. Targets are indices into the register the operation is
    later applied to; they default to the lowest indices when a factory is
    called without explicit targets.
    """

    name: str
    targets: tuple[int, ...]
    matrix: np.ndarray | None = None
    permutation: np.ndarray | None = None

    def __post_init__(self):
        if (self.matrix is None) == (self.permutation is None):
            raise InvalidParameterError("operation needs exactly one of matrix/permutation")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.matrix is not None:
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        else:
            object.__setattr__(self, "permutation", np.asarray(self.permutation, dtype=np.int64))
        dim = len(self.permutation) if self.matrix is None else self.matrix.shape[0]
        k = dim.bit_length() - 1
        if dim != 1 << k or (self.matrix is not None and self.matrix.shape != (dim, dim)):
            raise InvalidParameterError(f"action dimension {dim} is not a square power of two")
        if len(self.targets) != k:
            raise SizeMismatchError(
                f"{self.name}: {k}-qubit action needs {k} targets, got {len(self.targets)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise DuplicateIndexesError(f"{self.name}: targets must be unique, got {self.targets}")
        if any(t < 0 for t in self.targets):
            raise InvalidParameterError(f"{self.name}: negative target index")

    @property
    def arity(self) -> int:
        return len(self.targets)

    @property
    def dimension(self) -> int:
        return 1 << self.arity

    @cached_property
    def _action_is_unitary(self) -> bool:
        if self.matrix is not None:
            return linalg.is_unitary(self.matrix, linalg.UNITARY_TOL)
        perm = self.permutation
        # a bijection hits every index in range exactly once; O(d) at any width
        return bool(perm.min() >= 0 and perm.max() < self.dimension
                    and (np.bincount(perm, minlength=self.dimension) == 1).all())

    def require_unitary(self):
        """Raise unless the action is unitary; applied before every use."""
        if not self._action_is_unitary:
            raise NotUnitaryOperationError(f"operation {self.name!r} is not unitary")

    @cached_property
    def _permutation_inverse(self) -> np.ndarray:
        return np.argsort(self.permutation)

    def inverse(self) -> "QuantumOperation":
        """The adjoint, bound to the same targets; self-inverse gates share the instance."""
        name = self.name[:-1] if self.name.endswith("†") else self.name + "†"
        if self.matrix is not None:
            adjoint = self.matrix.conj().T
            if np.array_equal(adjoint, self.matrix):
                return self
            return QuantumOperation(name, self.targets, matrix=adjoint)
        inverted = self._permutation_inverse
        if np.array_equal(inverted, self.permutation):
            return self
        return QuantumOperation(name, self.targets, permutation=inverted)

    def retarget(self, new_targets) -> "QuantumOperation":
        """Same action on different targets; the original is unmodified."""
        new_targets = tuple(int(t) for t in new_targets)
        if len(new_targets) != self.arity:
            raise SizeMismatchError(
                f"{self.name}: expected {self.arity} targets, got {len(new_targets)}"
            )
        return replace(self, targets=new_targets)

    @cached_property
    def basis_flips(self) -> np.ndarray:
        """Lookup table of the classical action for ``run_on_basis``: entry s is the
        word mask (qubit t at bit 61 - t) of the targets flipped on sub-index s.

        Only a permutation, or a matrix whose every column is an exact 0/1 basis
        vector, has one; any other gate raises InvalidParameterError.
        """
        if self.matrix is None:
            images = self.permutation
        else:
            images = np.argmax(self.matrix != 0, axis=0)
            if not np.array_equal(self.matrix, np.eye(self.dimension)[:, images]):
                raise InvalidParameterError(f"{self.name} is not a classical basis permutation")
        changed = images ^ np.arange(self.dimension)
        flips = np.zeros(self.dimension, dtype=np.int64)
        for j, t in enumerate(self.targets):
            flips |= ((changed >> (self.arity - 1 - j)) & 1) << (HARD_QUBIT_LIMIT - 1 - t)
        return flips


def retarget(op: QuantumOperation, new_targets) -> QuantumOperation:
    return op.retarget(new_targets)


# --- single-qubit catalog -------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    """Data-driven description of a single-qubit gate."""

    kind: str  # H X Y Z S T R_k Rx Ry Rz I
    parameter: float | int | None = None


@lru_cache(maxsize=None)
def hadamard(target: int = 0) -> QuantumOperation:
    return QuantumOperation("H", (target,), matrix=_H)


@lru_cache(maxsize=None)
def pauli_x(target: int = 0) -> QuantumOperation:
    return QuantumOperation("X", (target,), matrix=_X)


@lru_cache(maxsize=None)
def pauli_y(target: int = 0) -> QuantumOperation:
    return QuantumOperation("Y", (target,), matrix=_Y)


@lru_cache(maxsize=None)
def pauli_z(target: int = 0) -> QuantumOperation:
    return QuantumOperation("Z", (target,), matrix=_Z)


@lru_cache(maxsize=None)
def phase_s(target: int = 0) -> QuantumOperation:
    return QuantumOperation("S", (target,), matrix=_S)


@lru_cache(maxsize=None)
def phase_t(target: int = 0) -> QuantumOperation:
    return QuantumOperation("T", (target,), matrix=_T)


@lru_cache(maxsize=None)
def identity_gate(target: int = 0) -> QuantumOperation:
    return QuantumOperation("I", (target,), matrix=_I)


@lru_cache(maxsize=256)
def rotation_k(k: int, target: int = 0) -> QuantumOperation:
    """Phase rotation by 2*pi/2**k; R_2 is S and R_3 is T."""
    if k < 1:
        raise InvalidParameterError(f"R_k needs k >= 1, got {k}")
    m = np.array([[1, 0], [0, np.exp(2j * np.pi / (1 << k))]], dtype=complex)
    return QuantumOperation(f"R{k}", (target,), matrix=m)


def rx(theta: float, target: int = 0) -> QuantumOperation:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return QuantumOperation("Rx", (target,), matrix=np.array([[c, -1j * s], [-1j * s, c]]))


def ry(theta: float, target: int = 0) -> QuantumOperation:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return QuantumOperation("Ry", (target,), matrix=np.array([[c, -s], [s, c]], dtype=complex))


def rz(theta: float, target: int = 0) -> QuantumOperation:
    return QuantumOperation(
        "Rz", (target,), matrix=np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])
    )


_SPEC_FIXED = {"H": hadamard, "X": pauli_x, "Y": pauli_y, "Z": pauli_z,
               "S": phase_s, "T": phase_t, "I": identity_gate}
_SPEC_PARAM = {"R_k": rotation_k, "Rx": rx, "Ry": ry, "Rz": rz}


def single_qubit_gate(spec: GateSpec, target: int = 0) -> QuantumOperation:
    """Build the catalog gate described by ``spec``."""
    if spec.kind in _SPEC_FIXED:
        if spec.parameter is not None:
            raise InvalidParameterError(f"{spec.kind} takes no parameter")
        return _SPEC_FIXED[spec.kind](target)
    if spec.kind in _SPEC_PARAM:
        if spec.parameter is None:
            raise InvalidParameterError(f"{spec.kind} requires a parameter")
        if spec.kind == "R_k":
            return rotation_k(int(spec.parameter), target)
        return _SPEC_PARAM[spec.kind](float(spec.parameter), target)
    raise InvalidParameterError(f"unknown gate kind {spec.kind!r}")


# --- multi-qubit catalog --------------------------------------------------

@lru_cache(maxsize=None)
def cnot(control: int = 0, target: int = 1) -> QuantumOperation:
    """Flips ``target`` iff ``control`` is |1>."""
    return QuantumOperation("CNot", (control, target), matrix=_CNOT)


@lru_cache(maxsize=None)
def swap(a: int = 0, b: int = 1) -> QuantumOperation:
    return QuantumOperation("Swap", (a, b), matrix=_SWAP)


@lru_cache(maxsize=None)
def toffoli(control1: int = 0, control2: int = 1, target: int = 2) -> QuantumOperation:
    m = np.eye(8, dtype=complex)
    m[6:, 6:] = _X
    return QuantumOperation("Toffoli", (control1, control2, target), matrix=m)


@lru_cache(maxsize=None)
def fredkin(control: int = 0, a: int = 1, b: int = 2) -> QuantumOperation:
    """Controlled swap of ``a`` and ``b``; preserves the number of |1>s."""
    m = np.eye(8, dtype=complex)
    m[[5, 6]] = m[[6, 5]]
    return QuantumOperation("Fredkin", (control, a, b), matrix=m)


def controlled_u(u, controls, target: int) -> QuantumOperation:
    """Apply the single-qubit gate ``u`` to ``target`` iff every control is |1>.

    ``u`` may be a 1-qubit QuantumOperation or a bare 2x2 matrix. For one
    control the matrix is the block form [[I, 0], [0, U]].
    """
    controls = tuple(int(c) for c in controls)
    if not controls:
        raise InvalidParameterError("controlled_u needs at least one control")
    if isinstance(u, QuantumOperation):
        if u.arity != 1 or u.matrix is None:
            raise InvalidParameterError("controlled_u requires a 1-qubit matrix gate")
        sub, uname = u.matrix, u.name
    else:
        sub, uname = linalg.as_matrix(u), "U"
        if sub.shape != (2, 2):
            raise InvalidParameterError("controlled_u requires a 2x2 matrix")
    dim = 1 << (len(controls) + 1)
    m = np.eye(dim, dtype=complex)
    m[dim - 2:, dim - 2:] = sub
    return QuantumOperation(f"C{uname}", (*controls, target), matrix=m)


def walsh(targets) -> QuantumOperation:
    """Hadamard tensored over every target as a single operation."""
    targets = tuple(int(t) for t in targets)
    if len(targets) > linalg.MAX_MATRIX_QUBITS:
        raise QubitLimitExceededError(f"Walsh over {len(targets)} qubits is too wide to materialize")
    m = np.array([[1.0]], dtype=complex)
    for _ in targets:
        m = np.kron(m, _H)
    return QuantumOperation("Walsh", targets, matrix=m)


# --- expansion (validation oracle) ----------------------------------------

def expand_to_full_matrix(op: QuantumOperation, n_qubits: int) -> np.ndarray:
    """Dense 2**n x 2**n unitary acting as ``op`` on its targets, identity elsewhere.

    Built by explicit index arithmetic so it stays an independent oracle for
    the direct state-vector application path.
    """
    if n_qubits > linalg.MAX_MATRIX_QUBITS:
        raise QubitLimitExceededError(
            f"full-matrix expansion is capped at {linalg.MAX_MATRIX_QUBITS} qubits, got {n_qubits}"
        )
    if op.matrix is None:
        raise SemanticOracleNotMaterializableError(
            f"{op.name} is a semantic oracle with no dense matrix"
        )
    if any(t >= n_qubits for t in op.targets):
        raise SizeMismatchError(f"{op.name} targets {op.targets} exceed {n_qubits} qubits")
    k = op.arity
    # bit position of each target inside an n-qubit big-endian label
    shifts = [n_qubits - 1 - t for t in op.targets]
    clear = ~sum(1 << s for s in shifts) if k else ~0
    dim = 1 << n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub = 0
        for s in shifts:
            sub = (sub << 1) | ((col >> s) & 1)
        base = col & clear
        for sub_out in range(1 << k):
            amp = op.matrix[sub_out, sub]
            if amp == 0:
                continue
            row = base
            for j, s in enumerate(shifts):
                if (sub_out >> (k - 1 - j)) & 1:
                    row |= 1 << s
            full[row, col] = amp
    return full


# --- named states (Table-of-common-states catalog) -------------------------

_W_AMPLITUDES = np.zeros(8, dtype=complex)
_W_AMPLITUDES[[4, 2, 1]] = 1.0 / math.sqrt(3.0)  # |100>, |010>, |001>
_W_AMPLITUDES.flags.writeable = False

NAMED_STATES = ("beta00", "beta01", "beta10", "beta11", "ghz", "w")


def prepare_named_state(ctx, name: str):
    """Allocate a fresh register in one of the well-known entangled states.

    Bell pairs are built with Hadamard + CNot (plus X/Z on the first qubit
    for the variants); GHZ with Hadamard + two CNots; W by direct amplitude
    initialization since no elementary preparation circuit is in the catalog.
    """
    key = str(name).lower().replace("β", "beta").replace("|", "").replace(">", "")
    if key not in NAMED_STATES:
        raise InvalidParameterError(f"unknown named state {name!r}; expected one of {NAMED_STATES}")
    if key == "w":
        return ctx._allocate_with_amplitudes(_W_AMPLITUDES.copy(), 3)
    if key == "ghz":
        reg = ctx.allocate_register(3)
        return reg.apply_operations([hadamard(0), cnot(0, 1), cnot(1, 2)])
    reg = ctx.allocate_register(2)
    reg.apply_operations([hadamard(0), cnot(0, 1)])
    if key in ("beta01", "beta11"):
        reg.apply_operation(pauli_x(0))
    if key in ("beta10", "beta11"):
        reg.apply_operation(pauli_z(0))
    return reg
