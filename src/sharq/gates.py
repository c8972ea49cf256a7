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
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    InvalidParameterError,
    NotUnitaryOperationError,
    SemanticOracleNotMaterializableError,
    SizeMismatchError,
    as_indices,
    as_int,
    as_real,
)

# Basis labels are int64 words, so no state or basis trace is wider than
# this. trace_subindices puts qubit t of any register at bit 61 - t of its word.
HARD_QUBIT_LIMIT = 62

# A permutation on scattered or reordered targets moves slices in place up to
# this arity (at most 256 slices per gate); wider ones take one axis move. It is
# also the width of a fused run of basis permutations (``engine._fused``) and of
# the widest gate that traces an int word through a dict (``_word_flips``).
_SLICE_MOVE_ARITY = 8

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
_TOFFOLI = _mat(*np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]])
_FREDKIN = _mat(*np.eye(8)[[0, 1, 2, 3, 4, 6, 5, 7]])

# the fixed matrix of each catalog gate, by name
_CATALOG = {"H": _H, "X": _X, "Y": _Y, "Z": _Z, "S": _S, "T": _T, "I": _I,
            "CNot": _CNOT, "Swap": _SWAP, "Toffoli": _TOFFOLI, "Fredkin": _FREDKIN}


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
        object.__setattr__(self, "targets", as_indices(self.targets)[0])
        field, dtype = ("matrix", complex) if self.permutation is None else ("permutation", np.int64)
        action = np.asarray(getattr(self, field), dtype=dtype)
        if action.flags.writeable:  # every cached fact assumes the action never changes
            action = action.copy()
            action.flags.writeable = False
        object.__setattr__(self, field, action)
        if action.size == 0 or action.ndim != (1 if self.matrix is None else 2):
            raise InvalidParameterError(f"{self.name}: action is not a non-empty 1-D or 2-D array")
        dim = len(action)
        k = dim.bit_length() - 1
        if dim != 1 << k or (self.matrix is not None and self.matrix.shape != (dim, dim)):
            raise InvalidParameterError(f"action dimension {dim} is not a square power of two")
        if len(self.targets) != k:
            raise SizeMismatchError(
                f"{self.name}: {k}-qubit action needs {k} targets, got {len(self.targets)}"
            )
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
    def _basis_images(self) -> np.ndarray | None:
        """Image of each sub-index when the action maps basis states to basis
        states (a permutation, or a matrix whose every column is an exact 0/1
        basis vector), else None. The one test of "this is a basis permutation"."""
        if self.matrix is None:
            return self.permutation
        images = np.argmax(self.matrix != 0, axis=0)
        if np.array_equal(self.matrix, np.eye(self.dimension)[:, images]):
            return images
        return None

    @cached_property
    def _kernel(self) -> str:
        """Structure class the engine dispatches on, decided once per operation:
        ``perm`` for a basis permutation, ``diag`` for any other diagonal matrix
        (phases), ``dense`` for everything else."""
        if self._basis_images is not None:
            return "perm"
        if np.array_equal(self.matrix, np.diag(np.diagonal(self.matrix))):
            return "diag"
        return "dense"

    @cached_property
    def _phases(self) -> tuple[tuple[int, complex], ...]:
        """(sub-index, phase) for every diagonal entry of a ``diag`` gate that is not 1."""
        return tuple((s, complex(d)) for s, d in enumerate(np.diagonal(self.matrix)) if d != 1)

    @cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles (s, image of s, ...) of a ``perm`` gate's basis map."""
        images = self._basis_images.tolist()
        seen, cycles = set(), []
        for start, image in enumerate(images):
            if start in seen or image == start:
                continue
            cycle, s = [], start
            while s not in seen:
                seen.add(s)
                cycle.append(s)
                s = images[s]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def _permutation_inverse(self) -> np.ndarray:
        """The inverse basis map, by one scatter; read only after ``require_unitary`` passed."""
        images = self._basis_images
        inverse = np.empty_like(images)
        inverse[images] = np.arange(len(images))
        inverse.flags.writeable = False  # kept as the adjoint's action without a copy
        return inverse

    def inverse(self) -> "QuantumOperation":
        """The adjoint on the same targets, built once; self-inverse gates share the instance."""
        return self._adjoint

    @cached_property
    def _adjoint(self) -> "QuantumOperation":
        self.require_unitary()  # a non-bijection's inverse map would be a bijection
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
        return replace(self, targets=new_targets)

    @cached_property
    def basis_flips(self) -> np.ndarray:
        """Lookup table of the classical action for ``trace_words``: entry s is the
        word mask (qubit t at bit 61 - t) of the targets flipped on sub-index s.

        Only a permutation, or a matrix whose every column is an exact 0/1 basis
        vector, has one; any other gate raises InvalidParameterError.
        """
        images = self._basis_images
        if images is None:
            raise InvalidParameterError(f"{self.name} is not a classical basis permutation")
        return scatter_bits(self._word_runs, images ^ np.arange(self.dimension))

    @cached_property
    def _word_flips(self) -> tuple[int, "dict[int, int] | _GatheredFlips"]:
        """``(mask, flips)`` for tracing one int word: ``mask`` holds the targets'
        bits, and ``flips.get(word & mask, 0)`` is the word mask that the gate flips.

        Up to ``_SLICE_MOVE_ARITY`` targets ``flips`` is a dict that holds only the
        target values that move; a wider gate gathers its sub-index into
        ``basis_flips`` instead of building 2**k Python ints.
        """
        runs, flips = self._word_runs, self.basis_flips
        mask = scatter_bits(runs, self.dimension - 1)
        if self.arity > _SLICE_MOVE_ARITY:
            return mask, _GatheredFlips(runs, memoryview(flips))
        moves = np.flatnonzero(flips)
        return mask, dict(zip(scatter_bits(runs, moves).tolist(), flips[moves].tolist()))

    @cached_property
    def _word_runs(self) -> tuple[tuple[int, int, int], ...]:
        """``bit_runs`` of the targets' bits in a basis word (qubit t at bit 61 - t)."""
        return bit_runs([HARD_QUBIT_LIMIT - 1 - t for t in self.targets])


class _GatheredFlips(NamedTuple):
    """The ``get`` of a wide gate's ``_word_flips``: its sub-index, gathered out of
    the masked word, read off ``basis_flips`` as a Python int."""

    runs: tuple[tuple[int, int, int], ...]
    flips: memoryview

    def get(self, masked: int, default: int) -> int:
        return self.flips[gather_bits(self.runs, masked)]


def retarget(op: QuantumOperation, new_targets) -> QuantumOperation:
    return op.retarget(new_targets)


def bit_runs(shifts) -> tuple[tuple[int, int, int], ...]:
    """The ordered bit positions ``shifts`` as runs of adjacent bits.

    Bit ``shifts[j]`` of a word is bit ``k - 1 - j`` of its k-bit big-endian
    sub-index. Each run is ``(shift, mask, place)``, so a run of adjacent qubits
    moves in one step (``gather_bits``, ``scatter_bits``). Positions that fall
    by one from each to the next form a run, as the bits of adjacent ascending
    qubits do.
    """
    runs, k = [], len(shifts)
    for j, shift in enumerate(shifts):
        if runs and shift == runs[-1][0] - 1:
            _, mask, place = runs[-1]
            runs[-1] = (shift, (mask << 1) | 1, place - 1)
        else:
            runs.append((shift, 1, k - 1 - j))
    return tuple(runs)


def gather_bits(runs, words):
    """The sub-indices that the ``bit_runs`` ``runs`` read out of ``words``, an int
    or an int64 array; built from the first run's term, so one run is one pass."""
    terms = (((words >> shift) & mask) << place for shift, mask, place in runs)
    sub = next(terms, words & 0)
    for term in terms:
        sub |= term
    return sub


def scatter_bits(runs, sub):
    """The words, 0 off ``runs``, from which ``gather_bits(runs, words)`` reads ``sub``."""
    return gather_bits([(place, mask, shift) for shift, mask, place in runs], sub)


# Up to this many sub-indices are traced one Python int at a time, above it as
# one int64 array. Through the 18 fused ops of the 18-qubit modular adder, 16
# words took 49 µs as ints against 146 µs as an array and 32 words 93 against
# 140 µs; through the 33 of the multiplier, 32 words took 155 against 274 µs
# (2-core Xeon, numpy 2.4, best of 15). The two break even at about 48 words on
# the adder and 56 on the multiplier.
_INT_TRACE_WORDS = 32


def trace_subindices(ops, sub, width: int, pairs=None):
    """Carry ``width``-qubit register contents (big-endian, width <= 62) through
    gates that have ``basis_flips`` and targets below ``width``, as the basis words
    of ``trace_words``. ``sub`` is an int, or an int64 array that is left as is.
    ``pairs``, if given, is ``word_flips(ops)``, kept by a caller that traces the
    same gates again."""
    pad = HARD_QUBIT_LIMIT - width  # qubit t at bit width - 1 - t and at word bit 61 - t
    if isinstance(sub, np.ndarray) and sub.size <= _INT_TRACE_WORDS:
        pairs = word_flips(ops) if pairs is None else pairs
        traced = [trace_words(ops, word << pad, pairs) >> pad for word in sub.ravel().tolist()]
        return np.array(traced, dtype=np.int64).reshape(sub.shape)
    return trace_words(ops, sub << pad, pairs) >> pad


def word_flips(ops) -> tuple:
    """Each gate's ``(mask, flips)`` pair (``QuantumOperation._word_flips``), in
    order: what the int branch of ``trace_words`` loops over."""
    return tuple([op._word_flips for op in ops])


def trace_words(ops, word, pairs=None):
    """Carry basis words (qubit t at bit 61 - t) through basis-permutation gates.

    The one classical tracer, behind ``trace_subindices``. ``word`` is a Python
    int, or an int64 array that is updated in place. Every gate must have
    ``basis_flips`` and targets below 62. A Python int stays one, and passes
    each gate as one lookup of its masked targets, over the gates'
    ``word_flips``, or over ``pairs`` when they are given. An array gathers
    each gate's sub-indices inline and reads their flips off ``basis_flips``.
    """
    if isinstance(word, np.ndarray):
        for op in ops:
            sub = 0
            for shift, mask, place in op._word_runs:
                sub |= ((word >> shift) & mask) << place
            word ^= op.basis_flips[sub]
        return word
    for mask, flips in word_flips(ops) if pairs is None else pairs:
        word ^= flips.get(word & mask, 0)
    return word


# --- single-qubit catalog -------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    """Data-driven description of a single-qubit gate."""

    kind: str  # H X Y Z S T R_k Rx Ry Rz I
    parameter: float | int | None = None


@lru_cache(maxsize=None)
def _catalog_gate(name: str, targets: tuple[int, ...]) -> QuantumOperation:
    return QuantumOperation(name, targets, matrix=_CATALOG[name])


def _catalog(name: str, *targets) -> QuantumOperation:
    """The one instance of the catalog gate ``name`` on ``targets``. Each target is
    parsed before the cache, so a junk one raises InvalidParameterError and equal
    ones share an instance, which fusion hashes by identity."""
    return _catalog_gate(name, tuple([as_int(t, "qubit index") for t in targets]))


def hadamard(target: int = 0) -> QuantumOperation:
    return _catalog("H", target)


def pauli_x(target: int = 0) -> QuantumOperation:
    return _catalog("X", target)


def pauli_y(target: int = 0) -> QuantumOperation:
    return _catalog("Y", target)


def pauli_z(target: int = 0) -> QuantumOperation:
    return _catalog("Z", target)


def phase_s(target: int = 0) -> QuantumOperation:
    return _catalog("S", target)


def phase_t(target: int = 0) -> QuantumOperation:
    return _catalog("T", target)


def identity_gate(target: int = 0) -> QuantumOperation:
    return _catalog("I", target)


def rotation_k(k: int, target: int = 0) -> QuantumOperation:
    """Phase rotation by 2*pi/2**k; R_2 is S and R_3 is T."""
    return _rotation_k(as_int(k, "R_k parameter"), as_int(target, "qubit index"))


@lru_cache(maxsize=256)
def _rotation_k(k: int, target: int) -> QuantumOperation:
    if k < 1:
        raise InvalidParameterError(f"R_k needs k >= 1, got {k}")
    m = np.array([[1, 0], [0, np.exp(2j * np.pi * 2.0**-k)]], dtype=complex)
    return QuantumOperation(f"R{k}", (target,), matrix=m)


def rx(theta: float, target: int = 0) -> QuantumOperation:
    theta = as_real(theta, "rotation angle")
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return QuantumOperation("Rx", (target,), matrix=np.array([[c, -1j * s], [-1j * s, c]]))


def ry(theta: float, target: int = 0) -> QuantumOperation:
    theta = as_real(theta, "rotation angle")
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return QuantumOperation("Ry", (target,), matrix=np.array([[c, -s], [s, c]], dtype=complex))


def rz(theta: float, target: int = 0) -> QuantumOperation:
    theta = as_real(theta, "rotation angle")
    return QuantumOperation(
        "Rz", (target,), matrix=np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])
    )


_SPEC_FIXED = {"H": hadamard, "X": pauli_x, "Y": pauli_y, "Z": pauli_z,
               "S": phase_s, "T": phase_t, "I": identity_gate}
_SPEC_PARAM = {"R_k": rotation_k, "Rx": rx, "Ry": ry, "Rz": rz}


def single_qubit_gate(spec: GateSpec, target: int = 0) -> QuantumOperation:
    """Build the catalog gate described by ``spec``."""
    if not isinstance(spec, GateSpec):
        raise InvalidParameterError(f"a gate is described by a GateSpec, got {spec!r}")
    if spec.kind in _SPEC_FIXED:
        if spec.parameter is not None:
            raise InvalidParameterError(f"{spec.kind} takes no parameter")
        return _SPEC_FIXED[spec.kind](target)
    if spec.kind in _SPEC_PARAM:
        if spec.parameter is None:
            raise InvalidParameterError(f"{spec.kind} requires a parameter")
        return _SPEC_PARAM[spec.kind](spec.parameter, target)
    raise InvalidParameterError(f"unknown gate kind {spec.kind!r}")


# --- multi-qubit catalog --------------------------------------------------

def cnot(control: int = 0, target: int = 1) -> QuantumOperation:
    """Flips ``target`` iff ``control`` is |1>."""
    return _catalog("CNot", control, target)


def swap(a: int = 0, b: int = 1) -> QuantumOperation:
    return _catalog("Swap", a, b)


def toffoli(control1: int = 0, control2: int = 1, target: int = 2) -> QuantumOperation:
    return _catalog("Toffoli", control1, control2, target)


def fredkin(control: int = 0, a: int = 1, b: int = 2) -> QuantumOperation:
    """Controlled swap of ``a`` and ``b``; preserves the number of |1>s."""
    return _catalog("Fredkin", control, a, b)


def controlled_u(u, controls, target: int) -> QuantumOperation:
    """Apply the single-qubit gate ``u`` to ``target`` iff every control is |1>.

    ``u`` may be a 1-qubit QuantumOperation or a bare 2x2 matrix. For one
    control the matrix is the block form [[I, 0], [0, U]].
    """
    (controls,) = as_indices(controls)
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
    linalg.require_dense(len(controls) + 1, f"C{uname}")
    dim = 1 << (len(controls) + 1)
    m = np.eye(dim, dtype=complex)
    m[dim - 2:, dim - 2:] = sub
    return QuantumOperation(f"C{uname}", (*controls, target), matrix=m)


def walsh(targets) -> QuantumOperation:
    """Hadamard tensored over every target as a single operation."""
    (targets,) = as_indices(targets)
    linalg.require_dense(len(targets), "Walsh")
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
    n_qubits = as_int(n_qubits, "qubit count")
    if n_qubits < 0:
        raise InvalidParameterError(f"cannot expand onto a negative number of qubits, got {n_qubits}")
    linalg.require_dense(n_qubits, "full-matrix expansion")
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
        ctx._require_room(3)
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
