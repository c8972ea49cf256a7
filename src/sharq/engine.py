"""Shared amplitude vector, register views, application, and measurement.

A SimulationContext owns one amplitude vector over all of its physical
qubits. Registers are *views*: ordered lists of physical qubit indices into
that shared vector, so two views over the same context alias the same
amplitudes and a collapse through one is visible through the other.

Bit convention: exposed index 0 is the leftmost ket symbol and the most
significant bit, so a 4-qubit register reading |0101> converts to the
unsigned integer 5. Internally physical qubit 0 is the most significant bit
of the flat state index.

Gates are applied by structure class (``QuantumOperation._kernel``). A diagonal
gate multiplies, in place, the slices whose phase is not 1. On adjacent
ascending targets the state is an ``(a, 2**k, b)`` array: a permutation is one
``take`` along its middle axis (U_f over a whole register) and a dense gate one
matrix product. On other targets a permutation of up to ``_SLICE_MOVE_ARITY`` = 8
qubits moves slices in place; a dense gate, or a wider permutation, moves the
target axes last and back. ``_layout`` is the one place that maps targets to
axes, for gates, marginals, collapse, register resets and inspection alike.

A plan (``RegisterView.apply_operations``, and ``run_on_basis`` for traces) is
run with each run of consecutive basis permutations fused into one exact
permutation on at most ``_SLICE_MOVE_ARITY`` qubits. ``_fused`` keeps the 64 most
recently used fused plans and the facts each caller checks a plan by, once and
before any amplitude changes; fusion and the kernels trust them. A nonempty
plan of basis permutations alone, on a state whose nonzero amplitudes are at most
``_SUPPORT_SHARE`` = 1/16 of it, does not pass over the state once per fused op:
``_permute_support`` finds the support in one cast to bool, traces the nonzero
indices through the fused ops as basis words and moves each nonzero amplitude
once, in place. Bits move between flat indices, basis words and sub-indices one
run of adjacent qubits at a time (``gates.bit_runs``, cached per view in
``_layout`` and per operation). The choice rests only on the support size, and
either way the state comes out bit-identical, the sign of a zero aside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DebugOnlyViolationError,
    IndexOutOfRangeError,
    InvalidLocationError,
    InvalidParameterError,
    NotClassicalStateError,
    QubitLimitExceededError,
    SizeMismatchError,
    ValueOutOfRangeError,
    as_indices,
    as_int,
)
from .gates import HARD_QUBIT_LIMIT, QuantumOperation, bit_runs, trace_words

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


# A permutation on scattered or reordered targets moves slices in place up to
# this arity (at most 256 slices per gate); wider ones take one axis move. It is
# also the width of a fused run of basis permutations (``_fused``).
_SLICE_MOVE_ARITY = 8

# A classical plan moves only the nonzero amplitudes while they are at most this
# share of the state (``SimulationContext._permute_support``); denser states take
# one pass per fused op. The support path's cost grows with the support and the
# number of bit runs per op. Measured on random supports (2-core Xeon, numpy 2.4,
# median of 3-5 applies), it costs at 1/16 about 0.07 of the passes on the
# 18-qubit modular adder, 0.05 on the 18-qubit multiplier and 0.16 on the 22-qubit
# adder, and breaks even past 1/2 on the first two and at about 2/5 on the third.
# The share stays at 1/16 although those break-evens allow more: its index arrays
# take about 64 bytes per nonzero amplitude, a quarter of the state's bytes at
# 1/16 but as much as the state itself at 1/4, where the adder's gain is < 2x.
_SUPPORT_SHARE = 1 / 16

# On an (a, 2**k, b) view with short columns, broadcasting M over a would be a
# small product per leading index; up to this width the gate is instead one
# product of the (a, 2**k * b) matrix with M kron I_b.
_KRON_WIDTH = 32


class _Layout(NamedTuple):
    """How the flat state is viewed when a given tuple of qubits are the targets."""

    shape: tuple[int, ...]  # one length-2 axis per target, one merged axis per run of others
    axes: tuple[int, ...]  # the axis of each target, in target order
    rest: tuple[int, ...]  # the merged axes
    block: tuple[int, int] | None  # (a, b) when the state is an (a, 2**k, b) array
    kept: tuple[int, ...]  # puts the target axes left after summing ``rest`` in target order
    mask: tuple[int, ...]  # ``shape`` with every merged axis of length 1
    runs: tuple[tuple[int, int, int], ...]  # ``bit_runs`` of the targets' bits in a flat index


@lru_cache(maxsize=1024)
def _layout(n_qubits: int, physical: tuple[int, ...]) -> _Layout:
    """The one map from target qubits to axes and bits, for gates, marginals,
    collapse, peeks and the sparse path.

    Qubits stay in order; a run of non-target qubits becomes one merged axis.
    ``block`` is set when the targets are adjacent and ascending.
    """
    targets = set(physical)
    shape, rest, axis_of, run = [], [], {}, 0
    for q in range(n_qubits):
        if q not in targets:
            run += 1
            continue
        if run:
            rest.append(len(shape))
            shape.append(1 << run)
            run = 0
        axis_of[q] = len(shape)
        shape.append(2)
    if run or not shape:
        rest.append(len(shape))
        shape.append(1 << run)
    k = len(physical)
    first = physical[0] if k else n_qubits
    block = None
    if physical == tuple(range(first, first + k)):
        block = (1 << first, 1 << (n_qubits - first - k))
    axes = tuple(axis_of[q] for q in physical)
    kept = tuple(sorted(axes).index(axis) for axis in axes)
    mask = tuple(1 if axis in rest else 2 for axis in range(len(shape)))
    runs = bit_runs([n_qubits - 1 - q for q in physical])
    return _Layout(tuple(shape), axes, tuple(rest), block, kept, mask, runs)


def _selector(ndim: int, axes: tuple[int, ...], sub_index: int) -> tuple:
    """Index of the slice where the targets on ``axes`` hold ``sub_index`` (big-endian).

    The trailing Ellipsis keeps the slice a view even when every axis is a target.
    """
    index = [slice(None)] * ndim + [Ellipsis]
    k = len(axes)
    for j, axis in enumerate(axes):
        index[axis] = (sub_index >> (k - 1 - j)) & 1
    return tuple(index)


def _compose(group: list[QuantumOperation], union: set[int]) -> QuantumOperation:
    """One permutation on the sorted ``union`` that acts as ``group`` run in order.

    Every local input is scattered into a basis word and traced through the
    group at once, and each traced word's bits are gathered back into its
    image; a lone gate is kept.
    """
    if len(group) == 1:
        return group[0]
    qubits = tuple(sorted(union))
    runs = bit_runs([HARD_QUBIT_LIMIT - 1 - q for q in qubits])
    local = np.arange(1 << len(qubits), dtype=np.int64)
    words = np.zeros_like(local)
    for shift, mask, place in runs:
        words |= ((local >> place) & mask) << shift
    traced = trace_words(group, words)
    images = np.zeros_like(local)
    for shift, mask, place in runs:
        images |= ((traced >> shift) & mask) << place
    return QuantumOperation(f"Fused[{len(group)}]", qubits, permutation=images)


def _fuse(ops: tuple[QuantumOperation, ...]) -> tuple[QuantumOperation, ...]:
    """Greedily merge consecutive basis permutations while their targets span at
    most ``_SLICE_MOVE_ARITY`` qubits.

    Gates join by structure alone: dense and diagonal gates and zero-target
    gates are barriers and pass through unchanged. Moving amplitudes is exact,
    so the fused plan gives bit-identical states and traces.
    """
    fused: list[QuantumOperation] = []
    group: list[QuantumOperation] = []
    union: set[int] = set()
    for op in ops:
        joins = 0 < op.arity <= _SLICE_MOVE_ARITY and op._kernel == "perm"
        if not (joins and len(union.union(op.targets)) <= _SLICE_MOVE_ARITY):
            if group:
                fused.append(_compose(group, union))
            group, union = [], set()
            if not joins:
                fused.append(op)
                continue
        group.append(op)
        union.update(op.targets)
    if group:
        fused.append(_compose(group, union))
    return tuple(fused)


class _FusedPlan(NamedTuple):
    ops: tuple[QuantumOperation, ...]  # what a plan's gates fuse to
    top: int  # the highest target of any gate, -1 for none
    classical: bool  # the plan has gates, and every one is a basis permutation
    unitary: bool  # every gate passes its unitarity check


@lru_cache(maxsize=64)
def _fused(ops: tuple[QuantumOperation, ...]) -> _FusedPlan:
    """The fused form of a plan and the facts its callers check it by.

    Operations hash by identity and catalog gates are cached instances, so a
    rebuilt plan hits. Nothing is checked here: ``top < width`` implies every
    target check, ``unitary`` every unitarity check, and ``classical`` means
    every gate has ``basis_flips``. Each caller refuses a plan by them before
    using it; one past the basis word (``top`` of 62 or more) is left unfused.
    """
    top = max((max(op.targets, default=-1) for op in ops), default=-1)
    return _FusedPlan(_fuse(ops) if top < HARD_QUBIT_LIMIT else ops, top,
                      bool(ops) and all(op._kernel == "perm" for op in ops),
                      all(op._action_is_unitary for op in ops))


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Stable per-trial seed so batch results don't depend on execution order."""
    master_seed, trial_index = as_int(master_seed, "seed"), as_int(trial_index, "trial index")
    if master_seed < 0 or trial_index < 0:
        raise InvalidParameterError(
            f"seed and trial index must be >= 0, got {master_seed} and {trial_index}")
    return np.random.SeedSequence(entropy=(master_seed, trial_index))


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
        return "".join(map(str, self.bits))

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
        qubit_cap = as_int(qubit_cap, "qubit cap")
        if not 0 < qubit_cap <= HARD_QUBIT_LIMIT:
            raise QubitLimitExceededError(
                f"qubit cap must be in [1, {HARD_QUBIT_LIMIT}], got {qubit_cap}"
            )
        self._qubit_cap = qubit_cap
        self._count = 0
        self._state = np.array([1.0 + 0j])
        self._location = "localhost"
        self.debug = bool(debug)
        try:
            self.rng = np.random.default_rng(seed)
        except (TypeError, ValueError) as exc:  # what numpy raises for a seed it refuses
            raise InvalidParameterError(f"cannot seed a generator with {seed!r}: {exc}") from None

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
        n_qubits = as_int(n_qubits, "qubit count")
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
        """Append ``amplitudes`` as ``n_qubits`` new qubits; the caller has checked the room."""
        first = self._count
        if n_qubits:
            if first == 0:
                # the kernels write through reshaped views, so the state is contiguous
                self._state = np.ascontiguousarray(amplitudes, dtype=complex)
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
        """Apply ``op`` on ``physical_targets``; the caller has checked it."""
        layout = _layout(self._count, physical_targets)
        ndim, axes = len(layout.shape), layout.axes
        psi = self._state.reshape(layout.shape)
        kernel = op._kernel
        if kernel == "diag":
            for sub_index, phase in op._phases:
                psi[_selector(ndim, axes, sub_index)] *= phase
        elif layout.block is not None:
            a, b = layout.block
            if kernel == "perm":
                moved = self._state.reshape(a, op.dimension, b).take(op._permutation_inverse, axis=1)
            elif op.dimension * b <= _KRON_WIDTH and a > b:
                matrix = op.matrix if b == 1 else np.kron(op.matrix, np.eye(b))
                moved = self._state.reshape(a, -1) @ matrix.T
            else:
                moved = np.matmul(op.matrix, self._state.reshape(a, op.dimension, b))
            self._state = moved.reshape(-1)
        elif kernel == "perm" and op.arity <= _SLICE_MOVE_ARITY:
            for cycle in op._cycles:
                # the amplitudes at sub-index cycle[i] move to cycle[i + 1]
                slot = [psi[_selector(ndim, axes, s)] for s in cycle]
                carried = slot[-1].copy()
                for i in range(len(cycle) - 1, 0, -1):
                    slot[i][...] = slot[i - 1]
                slot[0][...] = carried
        else:
            # the one axis move: targets last, in target order, and back in place
            view = psi.transpose(layout.rest + axes)
            columns = view.reshape(-1, op.dimension)
            if kernel == "perm":
                columns = columns.take(op._permutation_inverse, axis=1)
            else:
                columns = columns @ op.matrix.T
            view[...] = columns.reshape(view.shape)

    def _permute_support(self, ops, physical: tuple[int, ...]) -> bool:
        """Run the basis permutations ``ops`` on the view qubits ``physical`` by
        moving only the nonzero amplitudes, when they are sparse enough.

        Returns False, having touched nothing, when more than ``_SUPPORT_SHARE``
        of the state is nonzero. Otherwise the support's flat indices become
        register-local basis words (view qubit t at bit 61 - t), ``trace_words``
        carries them through ``ops``, and each amplitude moves once to the index
        its flipped bits name. The view's bits move between the two one run of
        adjacent qubits at a time (``_Layout.runs``). The caller has checked ``ops``.
        """
        state = self._state
        # one pass over the amplitudes: a bool mask is fast to count and to index,
        # where a complex array is slow to do either. The cast is the mask
        # ``state != 0`` (NaN counts, -0.0 does not) at about a third of its cost.
        nonzero = state.astype(bool)
        if np.count_nonzero(nonzero) > state.size * _SUPPORT_SHARE:
            return False
        support = np.flatnonzero(nonzero)
        runs = _layout(self._count, physical).runs
        pad = HARD_QUBIT_LIMIT - len(physical)  # a sub-index's bit k - 1 - t is word bit 61 - t
        words = np.zeros(len(support), dtype=np.int64)
        for shift, mask, place in runs:
            words |= ((support >> shift) & mask) << (place + pad)
        flips = words ^ trace_words(ops, words.copy())
        moved = support.copy()
        for shift, mask, place in runs:
            moved ^= ((flips >> (place + pad)) & mask) << shift
        values = state[support]
        state[support] = 0
        state[moved] = values
        return True

    # -- measurement -----------------------------------------------------

    def _marginal_probabilities(self, layout: _Layout) -> np.ndarray:
        """Outcome probabilities of the targets of ``layout``, big-endian in target order."""
        probs = np.abs(self._state.reshape(layout.shape))
        probs *= probs
        if layout.rest:
            probs = probs.sum(axis=layout.rest)
        return probs.transpose(layout.kept).reshape(-1)

    def _measure(self, physical: tuple[int, ...]) -> tuple[int, ...]:
        k = len(physical)
        if k == 0:
            return ()
        layout = _layout(self._count, physical)
        marginal = self._marginal_probabilities(layout)
        # the floor as a product with 0/1, which keeps every other weight exact
        weights = marginal * (marginal >= PROBABILITY_FLOOR)
        # inverse-CDF sampling; cheaper than Generator.choice for small supports
        cumulative = weights.cumsum()
        draw = self.rng.random() * cumulative[-1]
        outcome = int(cumulative.searchsorted(draw, side="right"))
        outcome = min(outcome, (1 << k) - 1)
        bits = tuple([(outcome >> (k - 1 - i)) & 1 for i in range(k)])
        # collapse: one masked multiply that zeroes the other outcomes and rescales
        mask = np.zeros(layout.mask)
        mask[_selector(len(layout.mask), layout.axes, outcome)] = 1.0 / math.sqrt(marginal[outcome])
        psi = self._state.reshape(layout.shape)
        psi *= mask
        return bits

    def _classical_value(self, physical: tuple[int, ...]) -> int:
        """The basis word, big-endian in ``physical`` order, that those qubits
        are collapsed to, read from one marginal.

        Raises NotClassicalStateError naming the first qubit in superposition.
        """
        marginal = self._marginal_probabilities(_layout(self._count, physical))
        top = int(np.argmax(marginal))
        if marginal[top] >= 1.0 - _CLASSICAL_ATOL:
            return top
        # not jointly one basis state: look for the first qubit in superposition
        value = 0
        for i, qubit in enumerate(physical):
            p_one = marginal.reshape(1 << i, 2, -1)[:, 1].sum()
            if _CLASSICAL_ATOL < p_one < 1.0 - _CLASSICAL_ATOL:
                raise NotClassicalStateError(
                    f"physical qubit {qubit} is in superposition; initialize only classical qubits"
                )
            value = value << 1 | int(p_one >= 1.0 - _CLASSICAL_ATOL)
        return value

    def _flip(self, physical: tuple[int, ...]):
        """Not on every qubit of ``physical`` at once: one copy with their axes reversed.

        Reversing a length-2 axis swaps the halves where that qubit is 0 and 1,
        which is exactly what Not does; the copy keeps the state contiguous.
        """
        layout = _layout(self._count, physical)
        flipped = np.flip(self._state.reshape(layout.shape), layout.axes)
        self._state = np.ascontiguousarray(flipped).reshape(-1)

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
        (indices,) = as_indices(indices)
        for i in indices:
            if not 0 <= i < len(self._exposed):
                raise IndexOutOfRangeError(f"index {i} out of range for {len(self)} qubits")
        return RegisterView(self.context, tuple(self._exposed[i] for i in indices))

    def slice_to(self, index: int) -> "RegisterView":
        """Qubits 0 through ``index`` inclusive."""
        return self.slice_range(0, index)

    def slice_from(self, index: int) -> "RegisterView":
        """Qubits ``index`` through the end."""
        return self.slice_range(index, len(self) - 1)

    def slice_range(self, start: int, stop: int) -> "RegisterView":
        """Qubits ``start`` through ``stop`` inclusive."""
        start, stop = as_int(start, "index"), as_int(stop, "index")
        if not 0 <= start <= stop < len(self):
            raise IndexOutOfRangeError(f"bad range [{start}, {stop}] for {len(self)} qubits")
        return RegisterView(self.context, self._exposed[start:stop + 1])

    def slice_reverse(self) -> "RegisterView":
        return RegisterView(self.context, self._exposed[::-1])

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

        All targeted qubits must already be in collapsed basis states. The Nots
        are applied together, in one pass over the state.
        """
        value, width = as_int(value, "register value"), len(self)
        if not 0 <= value < (1 << width):
            raise ValueOutOfRangeError(f"{value} does not fit in {width} qubits")
        flips = value ^ self.context._classical_value(self._exposed)
        differing = tuple(q for i, q in enumerate(self._exposed) if flips >> (width - 1 - i) & 1)
        if differing:
            self.context._flip(differing)
        return self

    # -- operations ---------------------------------------------------------

    def _physical(self, op: QuantumOperation) -> tuple[int, ...]:
        """The physical qubits ``op`` acts on; refuses targets outside this view.
        Targets are distinct and non-negative, so indexing alone checks them."""
        try:
            return tuple([self._exposed[t] for t in op.targets])
        except IndexError:
            t = next(t for t in op.targets if t >= len(self))
            raise SizeMismatchError(
                f"{op.name} targets index {t}, outside this {len(self)}-qubit register"
            ) from None

    def apply_operation(self, op: QuantumOperation) -> "RegisterView":
        physical = self._physical(op)
        op.require_unitary()
        self.context._apply(op, physical)
        return self

    def apply_operations(self, ops) -> "RegisterView":
        """Apply ``ops`` in order, with runs of basis permutations fused.

        The whole plan is checked first, so a bad operation anywhere in it
        raises before any amplitude changes. A plan of basis permutations alone
        moves only the nonzero amplitudes when the state is sparse enough
        (``SimulationContext._permute_support``).
        """
        ops = tuple(ops)
        plan = _fused(ops)
        if plan.top >= len(self) or not plan.unitary:
            for op in ops:  # raises for the first op that does not fit or is not unitary
                self._physical(op)
                op.require_unitary()
        if plan.classical and self.context._permute_support(plan.ops, self._exposed[:plan.top + 1]):
            return self
        for op in plan.ops:
            self.context._apply(op, self._physical(op))
        return self

    # -- measurement ----------------------------------------------------------

    def measure(self, subset=None) -> ClassicalResult:
        """Collapse and read the given exposed indices (default: all).

        Collapse propagates to every view sharing the measured qubits.
        """
        view = self if subset is None else self.slice(subset)
        return ClassicalResult(self.context._measure(view._exposed))

    # -- debug-only inspection ---------------------------------------------

    def peek_amplitudes(self):
        """Debug/test hook: marginal amplitudes of this view's qubits.

        Returns the 2**len column (exposed order) when the view's qubits are
        unentangled with the rest of the context; otherwise returns the full
        context vector together with the exposed-index map. Never mutates.
        """
        ctx = self.context
        ctx._require_debug()
        layout = _layout(ctx._count, self._exposed)
        block = ctx._state.reshape(layout.shape).transpose(layout.axes + layout.rest)
        block = block.reshape(1 << len(self), -1)
        if block.shape[1] == 1:
            return block[:, 0].copy()
        singular = np.linalg.svd(block, compute_uv=False)
        if singular[1] > _CLASSICAL_ATOL:
            return ctx._state.copy(), self._exposed
        column = int(np.argmax(np.linalg.norm(block, axis=0)))
        vec = block[:, column]
        return vec / np.linalg.norm(vec)


def _measure_trials(register: RegisterView, master_seed: int, trials: int):
    """Measure ``register`` once per trial, each time from the state it holds now.

    The state is snapshotted once. Trial t restores a copy of it and measures
    with a generator seeded by ``trial_seed(master_seed, t)``, so it reads
    what a fresh context with that seed would read after the same
    measurement-free circuit. Yields one ClassicalResult per trial.
    """
    ctx = register.context
    prepared = ctx._state.copy()
    for trial in range(trials):
        ctx._state = prepared.copy()
        ctx.rng = np.random.default_rng(trial_seed(master_seed, trial))
        yield register.measure()
