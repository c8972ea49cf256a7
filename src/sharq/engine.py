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
target axes last and back. The Shor step is one kernel call
(``SimulationContext._step``): with the control collapsed, each round simulates H,
the controlled multiply, the readout gate and the control's measurement by their
effect on the work half, one gather, one inner product and one combination in
place, with no operation and no table, touching only the work values of a sparse
support; the work register's read ends the call. Its states equal the gates' up
to rounding, since its sums run in another order, so a bit it reads can differ only
where the uniform lands within rounding of a boundary. ``_layout`` is the one place
that maps targets to axes, for gates, the step, marginals, collapse, resets and peeks.

A measurement reads its marginal in one pass that sums squares straight into
the 2**k outcomes (one dot product per outcome when the targets lead, an
``einsum`` of the float view otherwise), draws one uniform, and collapses in
place: the slices of the other outcomes are zeroed and the kept one rescaled.
It builds no mask and nothing else of the state's size; only a read of every
qubit, or of all but one, squares the state, at most twice its marginal. While
the support bound below allows at most ``_SUPPORT_SHARE`` of the state, a read
takes the bound's candidates instead: their squares are summed into the outcomes
they name, with no 2**k marginal, and the collapse zeroes and rescales them alone.

A plan (``RegisterView.apply_operations``, and ``run_on_basis`` for traces) is
run with each run of consecutive basis permutations fused into one exact
permutation on at most ``_SLICE_MOVE_ARITY`` qubits. A run is composed once per
process while some fused plan holds it (``_composed``), and every repeat of it, in
one plan or in plans built apart, shares that operation and the facts its
kernels and traces cache. ``_fused`` keeps the 64 most recently used fused plans
(an ``lru_cache``) and the facts each caller checks a plan by, once and before
any amplitude changes; fusion and the kernels trust them. The very tuple of its
previous call gets that call's plan back unhashed, so a plan traced input by
input costs one pass over its fused ops per input, and each plan keeps the
``(mask, flips)`` pairs its int traces loop over. A nonempty plan of basis
permutations alone, on a state whose nonzero amplitudes are at most
``_SUPPORT_SHARE`` = 1/16 of it, does not pass over the state once per fused op:
``_permute_support`` gathers the view's bits of the nonzero indices, traces them
through the fused ops (``gates.trace_subindices``) and moves each nonzero
amplitude once, in place. The context keeps a support bound (base indices and a
mask of free bits) that allocation, every non-diagonal kernel and the sparse
path update without reading the state; a measurement pins the measured qubits in
the bound, and a register that the bound pins to one value is read off it. While
the bound allows at most that share, the path takes its indices and never reads
the whole state, and a dense gate gathers the 2**k amplitudes of each group of
candidates that it mixes into one row, multiplies the rows and writes them back in
place: neither allocates anything of the state's size. A state array replaced from
outside the kernels has no bound, and its support is found in one cast to bool. The
plan's choice rests only on the support size, and either way the state comes out
bit-identical, the sign of a zero aside. A dense gate's rows are multiplied in
another shape than the dense kernels' products, so its state agrees with theirs to
rounding; a read of every qubit, or of all but one, in order sums the same squares
and is bit-identical.
"""
from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
from .gates import (_SLICE_MOVE_ARITY, HARD_QUBIT_LIMIT, QuantumOperation, bit_runs,
                    gather_bits, scatter_bits, trace_subindices, word_flips)

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
# When the support bound allows at most this share, the support is its candidate
# indices and the path never reads the state in full. Otherwise the support is
# found in one cast to bool, which on a 4 MiB (18-qubit) state costs about 0.3 ms
# with the count and the index, as much as the rest of a sparse modular add.
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
    runs: tuple[tuple[int, int, int], ...]  # ``bit_runs`` of the targets' bits in a flat index
    bits: int  # the targets' bits in a flat index, as one mask


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
    shifts = [n_qubits - 1 - q for q in physical]
    return _Layout(tuple(shape), axes, tuple(rest), block, bit_runs(shifts),
                   sum(1 << shift for shift in shifts))


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
    """One permutation on the sorted ``union`` that acts as ``group``, two or more
    gates, run in order.

    Every local input is scattered into a sub-index over qubits 0 to ``max(union)``
    and traced, and its image gathered back.
    """
    qubits = tuple(sorted(union))
    runs = bit_runs([qubits[-1] - q for q in qubits])
    local = scatter_bits(runs, np.arange(1 << len(qubits), dtype=np.int64))
    images = gather_bits(runs, trace_subindices(group, local, qubits[-1] + 1))
    return QuantumOperation(f"Fused[{len(group)}]", qubits, permutation=images)


# Every composed run of two or more gates, keyed by its gates, for as long as some
# fused plan holds it; an entry dies with the last plan that holds its operation.
_composed: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _fuse(ops: tuple[QuantumOperation, ...]) -> tuple[QuantumOperation, ...]:
    """Greedily merge consecutive basis permutations while their targets span at
    most ``_SLICE_MOVE_ARITY`` qubits.

    Gates join by structure alone: dense and diagonal gates and zero-target
    gates are barriers and pass through unchanged; a run of one gate is that
    gate. Moving amplitudes is exact, so the fused plan gives bit-identical
    states and traces. Plans reuse their blocks, and plans built apart share
    them, so a run is composed once per process while some fused plan still
    holds it (``_composed``): every repeat of it, in this plan or another,
    shares that operation, with the facts its kernels and traces cache.
    """
    fused: list[QuantumOperation] = []
    group: list[QuantumOperation] = []
    union: set[int] = set()

    def close():
        if len(group) == 1:
            fused.append(group[0])
            return
        key = tuple(group)
        op = _composed.get(key)
        if op is None:
            op = _composed[key] = _compose(group, union)
        fused.append(op)

    for op in ops:
        joins = 0 < op.arity <= _SLICE_MOVE_ARITY and op._kernel == "perm"
        if not (joins and len(union.union(op.targets)) <= _SLICE_MOVE_ARITY):
            if group:
                close()
            group, union = [], set()
            if not joins:
                fused.append(op)
                continue
        group.append(op)
        union.update(op.targets)
    if group:
        close()
    return tuple(fused)


@dataclass(eq=False)
class _FusedPlan:
    ops: tuple[QuantumOperation, ...]  # what a plan's gates fuse to
    top: int  # the highest target of any gate, -1 for none
    classical: bool  # the plan has gates, and every one is a basis permutation
    unitary: bool  # every gate passes its unitarity check

    @cached_property
    def word_flips(self) -> tuple:
        """``gates.word_flips`` of ``ops``, built on the first int trace of a plan
        that passed its checks; it dies with this plan, as its composed runs do."""
        return word_flips(self.ops)


def _require_operations(ops):
    """Refuse a plan that holds an entry that is no operation, naming the first."""
    for op in ops:
        if not isinstance(op, QuantumOperation):
            raise InvalidParameterError(f"a plan holds {op!r}, which is not a QuantumOperation")


@lru_cache(maxsize=64)
def _fused_plan(ops: tuple[QuantumOperation, ...]) -> _FusedPlan:
    """The fused form of a plan and the facts its callers check it by.

    Operations hash by identity and catalog gates are cached instances, so a
    rebuilt plan hits. Only an entry that is no operation is refused here, once:
    ``top < width`` implies every target check, ``unitary`` every unitarity check,
    and ``classical`` means every gate has ``basis_flips``. Each caller refuses a
    plan by them before using it; one past the basis word (``top`` >= 62) is unfused.
    """
    _require_operations(ops)
    top = max((max(op.targets, default=-1) for op in ops), default=-1)
    return _FusedPlan(_fuse(ops) if top < HARD_QUBIT_LIMIT else ops, top,
                      bool(ops) and all(op._kernel == "perm" for op in ops),
                      all(op._action_is_unitary for op in ops))


_last_plan = [None, None]  # the tuple of the latest ``_fused`` call, held, and its plan


def _fused(ops: tuple[QuantumOperation, ...]) -> _FusedPlan:
    """``_fused_plan(ops)``, but the very tuple of the previous call gets its plan
    back without a hash of its gates, so a plan traced input by input is hashed
    once. That plan is the cache's most recently used, so the skipped lookup
    moves nothing in its eviction order; ``cache_info`` counts lookups alone."""
    if ops is not _last_plan[0]:
        try:
            _last_plan[:] = ops, _fused_plan(ops)
        except TypeError:  # the cache could not hash an entry, which no operation is
            _require_operations(ops)
            raise
    return _last_plan[1]


def _clear_plans() -> None:
    _fused_plan.cache_clear()
    _last_plan[:] = None, None


_fused.cache_clear, _fused.cache_info = _clear_plans, _fused_plan.cache_info


def _distinct(words: np.ndarray) -> np.ndarray:
    """The distinct entries of ``words``, sorted (by hand, as np.unique would import
    numpy.ma, 0.5 MB, on first use)."""
    if len(words) < 2:
        return words
    words = np.sort(words)
    return words[np.concatenate(([True], words[1:] != words[:-1]))]


def _candidates(base: np.ndarray, free: int, size: int, cleared: int = 0) -> np.ndarray | None:
    """Every flat index a support bound allows, with the ``cleared`` bits at 0, when
    with every setting of those bits they are at most ``_SUPPORT_SHARE`` of ``size``;
    some may hold a zero amplitude. With ``cleared`` the targets' bits, each index
    names the group of amplitudes that a gate on those targets mixes."""
    if len(base) << (free | cleared).bit_count() > size * _SUPPORT_SHARE:
        return None
    if not free | cleared:
        return base
    # words that differ only in free or cleared bits name the same indices: keep one of each
    fixed = _distinct(base & ~(free | cleared))
    free &= ~cleared
    shifts = [b for b in range(free.bit_length() - 1, -1, -1) if free >> b & 1]
    offsets = scatter_bits(bit_runs(shifts), np.arange(1 << len(shifts), dtype=np.int64))
    return (fixed[:, None] | offsets).reshape(-1)


def _sample(marginal, uniform: float) -> int:
    """The outcome that ``uniform``, drawn from [0, 1), picks from ``marginal``: an
    array, or for two outcomes a pair of Python floats.

    Inverse-CDF sampling, cheaper than Generator.choice for small supports: each
    probability below PROBABILITY_FLOOR weighs 0 (a product with 0/1, which
    keeps every other weight exact), the draw is ``uniform`` times the total
    weight, and the outcome is the right-side search of the cumulative weights,
    clamped to the last outcome. Two outcomes take those steps on the two floats:
    the cumulative weights are (w0, w0 + w1), so the clamped search is
    ``w0 <= draw``, the same bit without four numpy calls on a 2-entry array.
    """
    if len(marginal) == 2:
        p0, p1 = marginal
        w0 = p0 * (p0 >= PROBABILITY_FLOOR)
        return int(w0 <= uniform * (w0 + p1 * (p1 >= PROBABILITY_FLOOR)))
    weights = marginal * (marginal >= PROBABILITY_FLOOR)
    cumulative = weights.cumsum()
    outcome = int(cumulative.searchsorted(uniform * cumulative[-1], side="right"))
    return min(outcome, len(marginal) - 1)


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
        # The support bound: every nonzero amplitude of the array that the weak
        # reference ``_bounded`` names sits at some word of ``_base`` (distinct
        # int64 flat indices) with some subset of the ``_free`` bits flipped. A
        # state array replaced from outside the kernels, or by ``_set_state``,
        # has no bound until a sparse plan finds its support, and neither has
        # one whose gates freed every bit.
        self._bind(np.zeros(1, dtype=np.int64), 0)
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
        return self._allocate_with_amplitudes(fresh, n_qubits, zeroed=True)

    def _require_room(self, n_qubits: int):
        if self._count + n_qubits > self._qubit_cap:
            raise QubitLimitExceededError(
                f"allocating {n_qubits} qubits would exceed the cap of {self._qubit_cap} "
                f"({self._count} already in use)"
            )

    def _allocate_with_amplitudes(self, amplitudes: np.ndarray, n_qubits: int,
                                  zeroed: bool = False) -> "RegisterView":
        """Append ``amplitudes`` as ``n_qubits`` new qubits; the caller has checked the room.

        ``zeroed`` says the amplitudes are |0...0>; otherwise the support bound
        lets the new qubits hold anything.
        """
        first = self._count
        if n_qubits:
            bounded = self._is_bounded()
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
            if bounded:
                fresh = 0 if zeroed else (1 << n_qubits) - 1
                self._bind(self._base << n_qubits, self._free << n_qubits | fresh)
        return RegisterView(self, tuple(range(first, first + n_qubits)))

    # -- support bound ---------------------------------------------------

    def _is_bounded(self) -> bool:
        """Whether the support bound describes ``_state``."""
        bounded = self._bounded
        return bounded is not None and bounded() is self._state

    def _bind(self, base: np.ndarray, free: int):
        """Bound the support of ``_state``: some word of ``base`` with some
        subset of the ``free`` bits flipped."""
        self._bounded, self._base, self._free = weakref.ref(self._state), base, free

    # -- state transformation ------------------------------------------

    def _apply(self, op: QuantumOperation, physical_targets: tuple[int, ...]):
        """Apply ``op`` on ``physical_targets``; the caller has checked it."""
        layout = _layout(self._count, physical_targets)
        ndim, axes = len(layout.shape), layout.axes
        state, kernel = self._state, op._kernel
        psi = state.reshape(layout.shape)
        bounded = kernel != "diag" and self._is_bounded()
        groups = None
        if bounded and kernel == "dense":
            groups = _candidates(self._base, self._free, state.size, layout.bits)
        if groups is not None:
            # a sparse state: gather the 2**k amplitudes of each group, one row apiece,
            # multiply them and write them back in place
            sub = np.arange(op.dimension, dtype=np.int64)
            at = groups[:, None] | scatter_bits(layout.runs, sub)
            state[at] = state[at] @ op.matrix.T
        elif kernel == "diag":
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
        if bounded:
            # a phase never makes a zero amplitude nonzero; any other gate can set
            # its targets' bits to anything, and no others. Once every bit is free
            # the bound allows every index, and dropping it spares the gates after
            # it this bookkeeping
            self._free |= layout.bits
            self._bounded = None if self._free == self._state.size - 1 else weakref.ref(self._state)

    def _step(self, physical: tuple[int, ...], b: int, rounds) -> tuple[int, int]:
        """The Shor step's rounds on ``physical`` (a control, then n work qubits)
        whose control holds ``b`` (every amplitude with it at 1 - b is zero), then
        the work register's read. Returns the bits read, round i at bit i, and f.

        Round i is H on the control, the controlled multiply U, the readout phase
        and H, and the control's measurement, simulated by their effect. With psi
        the work half and phi = exp(-i pi m / 2**i) U psi, m the bits read so far,
        it reads c with p_c = (|psi|^2 + (-1)^c Re<psi, phi>) / 2 from one
        ``rng.random()`` (``_sample``); psi becomes (psi + (-1)^c phi) / (2
        sqrt(p_c)) in place, in half b, whatever c: the control's bit is a label.
        ``rounds`` yields one ``(source, words)`` per round, asked for once the
        round before is done. U psi takes at each work value the amplitude at its
        entry of ``source``, or its own when ``source`` is None (U = 1). With
        ``words`` (sorted, distinct, and off which the caller guarantees psi and
        phi are zero) ``source`` has one entry per word, and only those work values
        are read and written. The read samples f from |work|^2, summed over the
        other qubits, zeroes half b and writes f, scaled by 1/sqrt(p_f), at the
        last bit. The halves are a view when the register is the whole state in
        order, and otherwise the axis move's copy, written back once. The bound
        comes out exact on the register; the other qubits keep theirs.
        """
        n = len(physical) - 1
        layout = _layout(self._count, physical)
        others = (self._state.size - 1) & ~layout.bits  # the bits of the other qubits
        bounded = bool(others) and self._is_bounded()
        view, flat = None, layout.block == (1, 1)
        if flat:
            halves = self._state.reshape(2, -1)
        else:
            # (2, rows, 2**n), one row per value of the other qubits, written back below
            view = self._state.reshape(layout.shape).transpose(layout.rest + layout.axes)
            halves = view.reshape(-1, 2, 1 << n).transpose(1, 0, 2)
        half, random = halves[b], self.rng.random
        measured, c = 0, b
        for i, (source, words) in enumerate(rounds):
            # H gives the |1> branch (-1)**c, and the readout rotates it by
            # exp(2*pi*i * ((c << i) - measured) / 2**(i+1)): together this phase
            phase = cmath.exp(-1j * math.pi * measured / (1 << i))
            at = words if flat or words is None else (slice(None), words)
            psi = half if words is None else half[at]
            norm = float(np.vdot(psi, psi).real)
            if source is None:
                moved, overlap = None, norm * phase.real
            else:
                moved = half.take(source, axis=-1)
                overlap = (phase * complex(np.vdot(psi, moved))).real
            p = ((norm + overlap) / 2, (norm - overlap) / 2)
            c = _sample(p, random())
            measured |= c << i
            # psi becomes scale * psi + weight * U psi, which is one product when U = 1;
            # a product by exactly 1, like a phase of 1, is skipped
            scale = 0.5 / math.sqrt(p[c])
            weight = (-scale if c else scale) * phase
            if moved is None:
                scale += weight
            else:
                moved *= weight
            if moved is not None or scale != 1:
                psi *= scale
                if moved is not None:
                    psi += moved
                if words is not None:
                    half[at] = psi

        # the read: all the mass is in half b, and the other half is written at f alone
        moved = None  # the last gather, freed before the squares are built
        squares = np.abs(half)
        squares *= squares
        marginal = squares if flat else squares.sum(axis=0)
        f = _sample(marginal, random())
        kept = half[..., f] * (1.0 / math.sqrt(marginal[f]))
        half.fill(0)
        halves[c][..., f] = kept
        if view is not None:
            view[...] = halves.transpose(1, 0, 2).reshape(view.shape)

        held = scatter_bits(layout.runs, c << n | f)
        if bounded:
            self._bind(_distinct(self._base & others) | held, self._free & others)
        else:
            self._bind(np.array([held], dtype=np.int64), others)
        return measured, f

    def _scan_support(self) -> np.ndarray | None:
        """The flat indices of the nonzero amplitudes, found in one pass over the
        state, or None when they are more than ``_SUPPORT_SHARE`` of it."""
        state = self._state
        # a bool mask is fast to count and to index, where a complex array is slow
        # to do either. The cast is the mask ``state != 0`` (NaN counts, -0.0 does
        # not) at about a third of its cost.
        nonzero = state.astype(bool)
        if np.count_nonzero(nonzero) > state.size * _SUPPORT_SHARE:
            return None
        return np.flatnonzero(nonzero)

    def _permute_support(self, ops, physical: tuple[int, ...]) -> bool:
        """Run the basis permutations ``ops`` on the view qubits ``physical`` by
        moving only the nonzero amplitudes, when they are sparse enough.

        The support is the support bound's candidates when they are at most
        ``_SUPPORT_SHARE`` of the state, and otherwise what ``_scan_support``
        finds. Returns False, having touched nothing, when more than that share
        is nonzero. Otherwise the view's bits of each flat index are gathered
        into its sub-index (``_Layout.runs``), ``trace_subindices`` carries those
        through ``ops``, and each amplitude moves once to the index its flipped
        bits name; the moved indices are the new bound. The caller has checked
        ``ops``.
        """
        state = self._state
        support = _candidates(self._base, self._free, state.size) if self._is_bounded() else None
        if support is None:
            support = self._scan_support()
            if support is None:
                return False
        runs = _layout(self._count, physical).runs
        sub = gather_bits(runs, support)
        moved = support ^ scatter_bits(runs, sub ^ trace_subindices(ops, sub, len(physical)))
        values = state[support]
        state[support] = 0
        state[moved] = values
        self._bind(moved, 0)
        return True

    # -- measurement -----------------------------------------------------

    def _marginal_probabilities(self, layout: _Layout) -> np.ndarray:
        """Outcome probabilities of the targets of ``layout``, big-endian in target order.

        One read of the state: the squares of the amplitudes are summed straight
        into the 2**k outcomes, with no temporary as large as the state. Only when
        at most one qubit is not a target are the squares built, at most twice the
        marginal; at small widths that is cheaper than a reduction's set-up.
        """
        a, b = layout.block or (0, 0)  # (0, 0): the targets are not one ascending run
        if 0 < a * b <= 2:
            # every qubit, or all but one, is a target
            probs = np.abs(self._state)
            probs *= probs
            return probs.reshape(a, -1, b).sum(axis=(0, 2)) if a * b == 2 else probs
        if a == 1:
            # leading targets: each outcome is one contiguous row, one dot product
            # apiece (a strided row would be copied, so only a == 1 takes this)
            rows = self._state.view(np.float64).reshape(-1, 2 * b)
            return np.vecdot(rows, rows)
        # axis labels 0..ndim: at most one axis per qubit and one for (real, imag),
        # which no state that can be allocated takes past einsum's 52 labels
        parts = self._state.view(np.float64).reshape(layout.shape + (2,))
        every = range(parts.ndim)
        return np.einsum(parts, every, parts, every, layout.axes).reshape(-1)

    def _candidate_marginal(self, layout: _Layout):
        """The outcomes of the targets of ``layout`` that the support bound's
        candidates name, distinct and sorted, with their probabilities, and the
        candidates with the outcome of each; None when the candidates are more than
        ``_SUPPORT_SHARE`` of the state. The caller has checked the bound.

        Each probability sums |amp|**2 of its candidates, squared as the dense
        marginal squares them; no array has an entry per outcome the bound rules out.
        """
        support = _candidates(self._base, self._free, self._state.size)
        if support is None:
            return None
        sub = gather_bits(layout.runs, support)
        squares = np.abs(self._state[support])
        squares *= squares
        outcomes = _distinct(sub)
        marginal = np.bincount(outcomes.searchsorted(sub), squares, len(outcomes))
        return outcomes, marginal, support, sub

    def _pin(self, layout: _Layout, outcome: int):
        """Pin the targets of ``layout`` to ``outcome`` in the support bound.

        Every kept amplitude holds the outcome on the measured bits: keep the base
        words that hold it on their pinned ones (a lone word does), and set the free
        ones to it, which alone can make two words equal.
        """
        word, free = scatter_bits(layout.runs, outcome), self._free & layout.bits
        base = self._base
        if len(base) > 1:
            pinned = layout.bits & ~free
            base = base[(base & pinned) == (word & pinned)]
        if free:
            base = _distinct((base & ~free) | (word & free))
        self._bind(base, self._free & ~free)

    def _measure(self, physical: tuple[int, ...]) -> tuple[int, ...]:
        """Sample the targets from their exact marginal and collapse onto the outcome.

        One read pass gives the marginal (``_marginal_probabilities``) and one
        uniform draw the outcome (``_sample``). The collapse is in place, with no
        mask: the slices of the other outcomes are zeroed and the kept one is
        rescaled, and it allocates nothing of the state's size. The support
        bound, if the state has one, then pins the measured qubits to the outcome.
        While the bound allows at most ``_SUPPORT_SHARE`` of the state, the read
        and the collapse touch its candidates alone (``_candidate_marginal``).
        """
        k = len(physical)
        if k == 0:
            return ()
        layout = _layout(self._count, physical)
        bounded = self._is_bounded()
        read = self._candidate_marginal(layout) if bounded else None
        if read is None:
            marginal = self._marginal_probabilities(layout)
            if k == 1:
                marginal = marginal.tolist()
            outcome = _sample(marginal, self.rng.random())
            p = marginal[outcome]
        else:
            outcomes, marginal, support, sub = read
            picked = _sample(marginal, self.rng.random())
            outcome, p = int(outcomes[picked]), marginal[picked]
        bits = tuple([(outcome >> (k - 1 - i)) & 1 for i in range(k)])
        if bounded:
            self._pin(layout, outcome)
        scale = 1.0 / math.sqrt(p)
        if read is not None:
            kept = sub == outcome
            self._state[support[~kept]] = 0
            self._state[support[kept]] *= scale
            return bits
        if layout.block is not None:
            # the (a, 2**k * b) array, flat when a == 1: the kept outcome is the
            # columns [lo, hi), and the columns before and after it are zeroed
            a, b = layout.block
            lo, hi = outcome * b, (outcome + 1) * b
            psi = self._state if a == 1 else self._state.reshape(a, -1)
            if lo:
                psi[..., :lo] = 0
            if hi < psi.shape[-1]:
                psi[..., hi:] = 0
            kept = psi[..., lo:hi]
        else:
            # target by target, zero the slice that disagrees with its bit inside
            # the slice that agrees with the bits before it: at most one pass of writes
            psi = self._state.reshape(layout.shape)
            index = [slice(None)] * len(layout.shape) + [Ellipsis]
            for axis, bit in zip(layout.axes, bits):
                index[axis] = 1 - bit
                psi[tuple(index)] = 0
                index[axis] = bit
            kept = psi[tuple(index)]
        kept *= scale
        return bits

    def _classical_value(self, physical: tuple[int, ...]) -> int:
        """The basis word, big-endian in ``physical`` order, that those qubits
        are collapsed to, read off the support bound when it pins them and from
        one marginal otherwise.

        Raises NotClassicalStateError naming the first qubit in superposition.
        """
        layout = _layout(self._count, physical)
        bounded = self._is_bounded()
        if bounded and not self._free & layout.bits:
            # every nonzero amplitude sits at a base word, with none of these bits
            # flipped: if those words agree on them, so does the whole state. One
            # word is read as a Python int, about 6x cheaper than an array's gather
            if len(self._base) == 1:
                return gather_bits(layout.runs, int(self._base[0]))
            words = gather_bits(layout.runs, self._base)
            if (words == words[0]).all():
                return int(words[0])
        read = self._candidate_marginal(layout) if bounded else None
        if read is None:
            outcomes, marginal = None, self._marginal_probabilities(layout)
        else:
            outcomes, marginal = read[:2]
        top = int(np.argmax(marginal))
        if marginal[top] >= 1.0 - _CLASSICAL_ATOL:
            return top if outcomes is None else int(outcomes[top])
        # not jointly one basis state: look for the first qubit in superposition
        value, k = 0, len(physical)
        for i, qubit in enumerate(physical):
            if outcomes is None:
                p_one = marginal.reshape(1 << i, 2, -1)[:, 1].sum()
            else:
                p_one = marginal @ (outcomes >> (k - 1 - i) & 1)
            if _CLASSICAL_ATOL < p_one < 1.0 - _CLASSICAL_ATOL:
                raise NotClassicalStateError(
                    f"physical qubit {qubit} is in superposition; initialize only classical qubits"
                )
            value = value << 1 | int(p_one >= 1.0 - _CLASSICAL_ATOL)
        return value

    def _flip(self, physical: tuple[int, ...]):
        """Not on every qubit of ``physical`` at once.

        When the support bound allows at most ``_SUPPORT_SHARE`` of the state, each
        candidate index moves in place to the index with those bits flipped.
        Otherwise it is one copy with their axes reversed: reversing a length-2
        axis swaps the halves where that qubit is 0 and 1, which is exactly what
        Not does, and the copy keeps the state contiguous. A hand-built index of
        reversed slices costs about 3 µs on 7 qubits, where ``np.flip`` costs
        about 5.
        """
        layout = _layout(self._count, physical)
        bounded = self._is_bounded()
        support = _candidates(self._base, self._free, self._state.size) if bounded else None
        if support is not None:
            # a sparse state: move the bound's candidates alone, in place
            values = self._state[support]
            self._state[support] = 0
            self._state[support ^ layout.bits] = values
        else:
            index = [slice(None)] * len(layout.shape)
            for axis in layout.axes:
                index[axis] = slice(None, None, -1)
            flipped = self._state.reshape(layout.shape)[tuple(index)]
            self._state = np.ascontiguousarray(flipped).reshape(-1)
        if bounded:
            self._bind(self._base ^ layout.bits, self._free)

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
        (order,) = as_indices(order)
        if len(order) != len(self):
            raise SizeMismatchError("reorder must mention every exposed qubit exactly once")
        return self.slice(order)

    # -- initialization ----------------------------------------------------

    def set_from_unsigned(self, value: int) -> "RegisterView":
        """Encode ``value`` big-endian by applying Not to the differing qubits.

        All targeted qubits must already be in collapsed basis states. Their
        value is read off the support bound when it pins them, and the Nots are
        applied together, in one pass over the state.
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
        if not isinstance(op, QuantumOperation):
            raise InvalidParameterError(f"cannot apply {op!r}, which is not a QuantumOperation")
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
        if len(singular) > 1 and singular[1] > _CLASSICAL_ATOL:  # one value: a 0-qubit view
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
