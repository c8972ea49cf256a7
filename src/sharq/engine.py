"""Shared amplitude vector, register views, application, and measurement.

A SimulationContext owns one amplitude vector over all of its physical
qubits. Registers are *views*: ordered lists of physical qubit indices into
that shared vector, so two views over the same context alias the same
amplitudes and a collapse through one is visible through the other.

Bit convention: exposed index 0 is the leftmost ket symbol and the most
significant bit, so a 4-qubit register reading |0101> converts to the
unsigned integer 5. Internally, reshaping the state to ``(2,) * P`` puts
physical qubit p on axis p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DebugOnlyViolationError,
    DuplicateIndexesError,
    IndexOutOfRangeError,
    InvalidLocationError,
    InvalidParameterError,
    NotClassicalStateError,
    QubitLimitExceededError,
    SizeMismatchError,
    ValueOutOfRangeError,
)
from .gates import HARD_QUBIT_LIMIT, QuantumOperation, pauli_x

DEFAULT_QUBIT_CAP = 26

# Outcome probabilities below this are numerically extinct branches and are
# never sampled; renormalization still uses the exact observed mass.
PROBABILITY_FLOOR = 1e-12

_CLASSICAL_ATOL = 1e-9


# What numpy raises when it cannot build an array: MemoryError when the pages
# cannot be reserved, ValueError ("array is too big") past what it can address.
_ALLOCATION_FAILURES = (MemoryError, ValueError)


def _unallocatable(n_qubits: int) -> QubitLimitExceededError:
    return QubitLimitExceededError(
        f"a {n_qubits}-qubit amplitude array needs {16 << n_qubits} bytes, "
        f"which cannot be allocated"
    )


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Stable per-trial seed so batch results don't depend on execution order."""
    return np.random.SeedSequence(entropy=(int(master_seed), int(trial_index)))


@dataclass(frozen=True)
class ClassicalResult:
    """Ordered bits from a measurement; index 0 is the most significant."""

    bits: tuple[int, ...]

    def to_unsigned(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def to_bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __str__(self) -> str:
        return self.to_bitstring()

    def __len__(self) -> int:
        return len(self.bits)


class SimulationContext:
    """One simulated quantum resource: amplitude vector plus seeded RNG.

    A context and all of its views form a single-threaded unit; distinct
    contexts are independent. ``debug=True`` unlocks the state-inspection
    hooks used by tests; the public surface never exposes amplitudes.
    """

    def __init__(self, seed=None, qubit_cap: int = DEFAULT_QUBIT_CAP, debug: bool = False):
        if not 0 < qubit_cap <= HARD_QUBIT_LIMIT:
            raise QubitLimitExceededError(
                f"qubit cap must be in [1, {HARD_QUBIT_LIMIT}], got {qubit_cap}"
            )
        self._qubit_cap = int(qubit_cap)
        self._count = 0
        self._state = np.array([1.0 + 0j])
        self._location = "localhost"
        self.debug = bool(debug)
        self.rng = np.random.default_rng(seed)

    # -- basic accessors ----------------------------------------------

    @property
    def physical_count(self) -> int:
        return self._count

    @property
    def qubit_cap(self) -> int:
        return self._qubit_cap

    def get_location(self) -> str:
        return self._location

    def set_location(self, location: str):
        # The local simulation cannot move; only the loopback name is valid.
        if location != "localhost":
            raise InvalidLocationError(f"local simulation only supports 'localhost', got {location!r}")
        self._location = location

    # -- allocation ----------------------------------------------------

    def allocate_register(self, n_qubits: int) -> "RegisterView":
        """Append ``n_qubits`` fresh qubits in |0...0> and expose them in order.

        The cap is checked before any amplitude array is built. A request
        within the cap whose array cannot be allocated is refused the same
        way; either refusal leaves the context unchanged.
        """
        if n_qubits < 0:
            raise InvalidParameterError("cannot allocate a negative number of qubits")
        self._require_room(n_qubits)
        try:
            fresh = np.zeros(1 << n_qubits, dtype=complex)
        except _ALLOCATION_FAILURES as exc:
            raise _unallocatable(n_qubits) from exc
        fresh[0] = 1.0
        return self._allocate_with_amplitudes(fresh, n_qubits)

    def _require_room(self, n_qubits: int):
        if self._count + n_qubits > self._qubit_cap:
            raise QubitLimitExceededError(
                f"allocating {n_qubits} qubits would exceed the cap of {self._qubit_cap} "
                f"({self._count} already in use)"
            )

    def _allocate_with_amplitudes(self, amplitudes: np.ndarray, n_qubits: int) -> "RegisterView":
        self._require_room(n_qubits)
        first = self._count
        if n_qubits:
            if first == 0:
                self._state = np.asarray(amplitudes, dtype=complex)
            else:
                # Kronecker product: appended qubits are the least significant
                try:
                    self._state = (self._state[:, None] * amplitudes[None, :]).reshape(-1)
                except _ALLOCATION_FAILURES as exc:
                    raise _unallocatable(first + n_qubits) from exc
            self._count += n_qubits
        return RegisterView(self, tuple(range(first, first + n_qubits)))

    # -- state transformation ------------------------------------------

    def _apply(self, op: QuantumOperation, physical_targets: tuple[int, ...]):
        # Unitarity is enforced before any amplitude is touched, so a failed
        # check leaves the vector bit-identical.
        op.require_unitary()
        n, k = self._count, len(physical_targets)
        psi = self._state.reshape((2,) * n)
        in_targets = set(physical_targets)
        order = [a for a in range(n) if a not in in_targets] + list(physical_targets)
        block = psi.transpose(order).reshape(-1, 1 << k)
        if op.matrix is not None:
            block = block @ op.matrix.T
        else:
            block = block.take(op._permutation_inverse, axis=1)
        back = [0] * n
        for position, axis in enumerate(order):
            back[axis] = position
        self._state = block.reshape((2,) * n).transpose(back).reshape(-1)

    # -- measurement -----------------------------------------------------

    def _marginal_probabilities(self, physical: tuple[int, ...]) -> np.ndarray:
        n, k = self._count, len(physical)
        probs = np.abs(self._state) ** 2
        probs = probs.reshape((2,) * n)
        chosen = set(physical)
        order = list(physical) + [a for a in range(n) if a not in chosen]
        return probs.transpose(order).reshape(1 << k, -1).sum(axis=1)

    def _measure(self, physical: tuple[int, ...]) -> tuple[int, ...]:
        k = len(physical)
        if k == 0:
            return ()
        marginal = self._marginal_probabilities(physical)
        weights = np.where(marginal < PROBABILITY_FLOOR, 0.0, marginal)
        # inverse-CDF sampling; cheaper than Generator.choice for small supports
        cumulative = np.cumsum(weights)
        draw = self.rng.random() * cumulative[-1]
        outcome = int(np.searchsorted(cumulative, draw, side="right"))
        outcome = min(outcome, (1 << k) - 1)
        bits = tuple((outcome >> (k - 1 - i)) & 1 for i in range(k))
        psi = self._state.reshape((2,) * self._count)
        for qubit, bit in zip(physical, bits):
            selector = [slice(None)] * self._count
            selector[qubit] = 1 - bit
            psi[tuple(selector)] = 0.0
        self._state = (psi / math.sqrt(marginal[outcome])).reshape(-1)
        return bits

    def _classical_bit(self, qubit: int):
        """0/1 when the qubit is collapsed, None when it is in superposition."""
        marginal = self._marginal_probabilities((qubit,))
        if marginal[1] <= _CLASSICAL_ATOL:
            return 0
        if marginal[1] >= 1.0 - _CLASSICAL_ATOL:
            return 1
        return None

    # -- debug-only inspection -------------------------------------------

    def _require_debug(self):
        if not self.debug:
            raise DebugOnlyViolationError(
                "state inspection is hidden from the public surface; "
                "create the context with debug=True for tests"
            )

    def _set_state(self, amplitudes):
        """Debug/test hook: overwrite the full amplitude vector."""
        self._require_debug()
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if vec.shape != (1 << self._count,):
            raise SizeMismatchError(f"state must have 2**{self._count} amplitudes")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise InvalidParameterError("cannot set a zero state")
        self._state = vec / norm


class RegisterView:
    """A logical quantum register: exposed indices into a shared context.

    Views alias; slicing never copies amplitudes and there is no operation
    that clones state (no-cloning is structural). Mutating methods return the
    view so calls can be chained.
    """

    __slots__ = ("context", "_exposed")

    def __init__(self, context: SimulationContext, exposed: tuple[int, ...]):
        self.context = context
        self._exposed = tuple(exposed)

    @property
    def exposed(self) -> tuple[int, ...]:
        return self._exposed

    def __len__(self) -> int:
        return len(self._exposed)

    # -- slicing ----------------------------------------------------------

    def slice(self, indices) -> "RegisterView":
        """New view of the selected exposed indices, in the given order."""
        indices = [int(i) for i in indices]
        for i in indices:
            if not 0 <= i < len(self._exposed):
                raise IndexOutOfRangeError(f"index {i} out of range for {len(self)} qubits")
        if len(set(indices)) != len(indices):
            raise DuplicateIndexesError(f"slice indices must be unique, got {indices}")
        return RegisterView(self.context, tuple(self._exposed[i] for i in indices))

    def slice_to(self, index: int) -> "RegisterView":
        """Qubits 0 through ``index`` inclusive."""
        if not 0 <= index < len(self):
            raise IndexOutOfRangeError(f"index {index} out of range for {len(self)} qubits")
        return self.slice(range(index + 1))

    def slice_from(self, index: int) -> "RegisterView":
        """Qubits ``index`` through the end."""
        if not 0 <= index < len(self):
            raise IndexOutOfRangeError(f"index {index} out of range for {len(self)} qubits")
        return self.slice(range(index, len(self)))

    def slice_range(self, start: int, stop: int) -> "RegisterView":
        """Qubits ``start`` through ``stop`` inclusive."""
        if not 0 <= start <= stop < len(self):
            raise IndexOutOfRangeError(f"bad range [{start}, {stop}] for {len(self)} qubits")
        return self.slice(range(start, stop + 1))

    def slice_reverse(self) -> "RegisterView":
        return self.slice(range(len(self) - 1, -1, -1))

    def slice_subset(self, indices) -> "RegisterView":
        return self.slice(indices)

    def slice_reorder(self, order) -> "RegisterView":
        order = list(order)
        if len(order) != len(self):
            raise SizeMismatchError("reorder must mention every exposed qubit exactly once")
        return self.slice(order)

    # -- initialization ----------------------------------------------------

    def set_from_unsigned(self, value: int) -> "RegisterView":
        """Encode ``value`` big-endian by applying Not to the differing qubits.

        All targeted qubits must already be in collapsed basis states.
        """
        width = len(self)
        if not 0 <= value < (1 << width):
            raise ValueOutOfRangeError(f"{value} does not fit in {width} qubits")
        current = []
        for qubit in self._exposed:
            bit = self.context._classical_bit(qubit)
            if bit is None:
                raise NotClassicalStateError(
                    f"physical qubit {qubit} is in superposition; initialize only classical qubits"
                )
            current.append(bit)
        for i, have in enumerate(current):
            want = (value >> (width - 1 - i)) & 1
            if have != want:
                self.context._apply(pauli_x(0), (self._exposed[i],))
        return self

    # -- operations ---------------------------------------------------------

    def apply_operation(self, op: QuantumOperation) -> "RegisterView":
        if op.arity > len(self):
            raise SizeMismatchError(
                f"{op.name} needs {op.arity} qubits but the register has {len(self)}"
            )
        for t in op.targets:
            if t >= len(self):
                raise SizeMismatchError(
                    f"{op.name} targets index {t}, outside this {len(self)}-qubit register"
                )
        physical = tuple(self._exposed[t] for t in op.targets)
        self.context._apply(op, physical)
        return self

    def apply_operations(self, ops) -> "RegisterView":
        for op in ops:
            self.apply_operation(op)
        return self

    # -- measurement ----------------------------------------------------------

    def measure(self, subset=None) -> ClassicalResult:
        """Collapse and read the given exposed indices (default: all).

        Collapse propagates to every view sharing the measured qubits.
        """
        if subset is None:
            physical = self._exposed
        else:
            subset = [int(i) for i in subset]
            for i in subset:
                if not 0 <= i < len(self):
                    raise IndexOutOfRangeError(f"index {i} out of range for {len(self)} qubits")
            if len(set(subset)) != len(subset):
                raise DuplicateIndexesError(f"measurement indices must be unique, got {subset}")
            physical = tuple(self._exposed[i] for i in subset)
        return ClassicalResult(self.context._measure(physical))

    # -- debug-only inspection ---------------------------------------------

    def peek_amplitudes(self):
        """Debug/test hook: marginal amplitudes of this view's qubits.

        Returns the 2**len column (exposed order) when the view's qubits are
        unentangled with the rest of the context; otherwise returns the full
        context vector together with the exposed-index map. Never mutates.
        """
        ctx = self.context
        ctx._require_debug()
        n, k = ctx._count, len(self)
        psi = ctx._state.reshape((2,) * n)
        chosen = set(self._exposed)
        order = list(self._exposed) + [a for a in range(n) if a not in chosen]
        block = psi.transpose(order).reshape(1 << k, -1)
        if block.shape[1] == 1:
            return block[:, 0].copy()
        singular = np.linalg.svd(block, compute_uv=False)
        if singular[1] > _CLASSICAL_ATOL:
            return ctx._state.copy(), self._exposed
        column = int(np.argmax(np.linalg.norm(block, axis=0)))
        vec = block[:, column]
        return vec / np.linalg.norm(vec)
