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
(``SimulationContext._step``) given N and the multipliers: it sets the register to
1, and with the control collapsed each round simulates H, the controlled multiply,
the readout gate and the control's measurement by their effect on the work half,
one gather, one inner product and one combination in place, with no operation and
no table, touching only the work values of a sparse support; the work register's
read ends the call. Its states equal the gates' up to rounding, since its sums run
in another order, so a bit it reads can differ only where the uniform lands within
rounding of a boundary. ``_layout`` is the one place that maps targets to axes, for
gates, the step, marginals, collapse, resets and peeks.

A measurement reads its marginal in one pass that sums squares straight into
the 2**k outcomes (one dot product per outcome when the targets lead, an
``einsum`` of the float view otherwise), draws one uniform, and collapses in
place: the slices of the other outcomes are zeroed and the kept one rescaled.
A marginal of at most ``_SCALAR_OUTCOMES`` = 16 outcomes is sampled on Python
floats, the array rule's picks at a few scalar operations' cost, and a read of
every qubit in order keeps its one amplitude through one ``fill``. It builds no
mask and nothing else of the state's size; only a read of every qubit, or of all
but one, squares the state, at most twice its marginal. While the support bound
below allows at most ``_SUPPORT_SHARE`` of the state, a read takes the bound's
candidates instead: their squares are summed into the outcomes they name, with no
2**k marginal, and the collapse zeroes and rescales them alone.

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
``(mask, flips)`` pairs its int traces loop over.

The support bound (base indices and a mask of free bits) is one ``_Support`` value
that every kernel reads once and replaces, without reading the state; it is the
one record of sparsity. A state without one is dense: no kernel counts the nonzero
amplitudes, and only the debug hook ``_set_state`` binds a state from them. While
the bound allows at most ``_SUPPORT_SHARE`` = 1/16 of the state, a nonempty plan of
basis permutations alone, a lone one, or a register reset makes no pass over it:
``_move`` moves each candidate index once, in place, and the moved indices are the
new bound, with no bit free. A reset XORs the differing bits into each index;
``_mover`` gathers the view's bits and takes their images (traced through the fused
ops by ``gates.trace_subindices``, or the gate's basis map). With a looser bound, a
basis permutation none of whose targets is a free bit, such as a reset's Not plan,
maps the base words through ``_mover`` and frees nothing. A measurement pins the
measured qubits, and a register it pins to one value is read off the bound. Any
other gate gathers the 2**k amplitudes of each group of candidates it mixes into
one row and scales (phases, which leave the bound as it was) or multiplies them in
place, with nothing of the state's size. Moves and phases are bit-identical either
way, the sign of a zero aside, and dense rows agree with the dense kernels'
products to rounding.
"""
from __future__ import annotations

import cmath
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
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
    as_items,
)
from .gates import (_SLICE_MOVE_ARITY, HARD_QUBIT_LIMIT, QuantumOperation, bit_runs,
                    gather_bits, pauli_x, scatter_bits, trace_subindices, word_flips)

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


# A basis permutation, a classical plan's or a lone one, moves only the support
# bound's candidates while they are at most this share of the state
# (``SimulationContext._move``); a state with a looser bound, or none, takes one
# pass per fused op. The mover's cost grows with the candidates and the number of
# bit runs per op. Measured on random supports (2-core Xeon, numpy 2.4, median of
# 3-5 applies), it costs at 1/16 about 0.07 of the passes on the 18-qubit modular
# adder, 0.05 on the 18-qubit multiplier and 0.16 on the 22-qubit adder, and breaks
# even past 1/2 on the first two and at about 2/5 on the third. The share stays at
# 1/16 although those break-evens allow more: its index arrays take about 64 bytes
# per candidate, a quarter of the state's bytes at 1/16 but as much as the state
# itself at 1/4, where the adder's gain is < 2x. No kernel reads the state to find
# its support: a cast to bool with the count and the index costs about 0.3 ms on a
# 4 MiB (18-qubit) state, as much as the rest of a sparse modular add.
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


def _mover(runs, image):
    """The map of flat indices that sets each one's bits on ``runs`` to ``image``
    of the sub-index they hold, and keeps its other bits."""
    def move(words):
        sub = gather_bits(runs, words)
        return words ^ scatter_bits(runs, sub ^ image(sub))
    return move


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


class _Support(NamedTuple):
    """The support bound: every nonzero amplitude of the state it describes sits at
    some word of ``base`` (distinct int64 flat indices) with some subset of the
    ``free`` bits flipped."""

    base: np.ndarray
    free: int

    def candidates(self, size: int, cleared: int = 0) -> np.ndarray | None:
        """Every flat index the bound allows, with the ``cleared`` bits at 0, when
        with every setting of those bits they are at most ``_SUPPORT_SHARE`` of
        ``size``; some may hold a zero amplitude. With ``cleared`` the targets' bits,
        each index names the group of amplitudes that a gate on those targets mixes."""
        base, free = self
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

    def pinned(self, layout: _Layout, outcome: int) -> "_Support":
        """The bound once the targets of ``layout`` hold ``outcome``: keep the base
        words that hold it on their pinned bits, and set the free ones to it. A lone
        word holds it, and is set as a Python int at a quarter of the arrays' cost."""
        word, free = scatter_bits(layout.runs, outcome), self.free & layout.bits
        base, pinned = self.base, layout.bits & ~free
        if len(base) == 1:
            return _Support(np.array([int(base[0]) & ~free | word & free]), self.free & ~free)
        if pinned:
            base = base[(base & pinned) == (word & pinned)]
        if free:  # setting them alone can make two words equal
            base = _distinct((base & ~free) | (word & free))
        return _Support(base, self.free & ~free)


# Marginals of at most this many outcomes are sampled on Python floats. With the
# ``tolist`` included, 8 outcomes take 1.4 us that way against 3.0 us on the array,
# 16 take 2.1 against 3.0, and 32 take 3.6 against 3.1 (timeit, 2-core Xeon, numpy 2.4).
_SCALAR_OUTCOMES = 16


def _sample(marginal, uniform: float) -> int:
    """The outcome that ``uniform``, drawn from [0, 1), picks from ``marginal``: an
    array, or a sequence of Python floats (``_measure`` passes a list for at most
    ``_SCALAR_OUTCOMES`` outcomes, and ``_step`` a pair).

    Inverse-CDF sampling, cheaper than Generator.choice for small supports: each
    probability below PROBABILITY_FLOOR weighs 0 (a product with 0/1, which
    keeps every other weight exact), the draw is ``uniform`` times the total
    weight, and the outcome is the right-side search of the cumulative weights,
    clamped to the last outcome. Up to ``_SCALAR_OUTCOMES`` outcomes take those
    steps on Python floats: a running sum, which adds in the order ``cumsum``
    does, and ``bisect_right``, so the pick is the array rule's bit for bit. For
    two outcomes the cumulative weights are (w0, w0 + w1), so the clamped search
    is ``w0 <= draw``.
    """
    if len(marginal) == 2:
        p0, p1 = marginal
        w0 = p0 * (p0 >= PROBABILITY_FLOOR)
        return int(w0 <= uniform * (w0 + p1 * (p1 >= PROBABILITY_FLOOR)))
    if len(marginal) <= _SCALAR_OUTCOMES:
        cumulative = list(accumulate([p * (p >= PROBABILITY_FLOOR) for p in marginal]))
        return min(bisect_right(cumulative, uniform * cumulative[-1]), len(marginal) - 1)
    weights = marginal * (marginal >= PROBABILITY_FLOOR)
    cumulative = weights.cumsum()
    outcome = int(cumulative.searchsorted(uniform * cumulative[-1], side="right"))
    return min(outcome, len(marginal) - 1)


def _trial_entropy(master_seed, trial_index) -> tuple[int, int]:
    master_seed, trial_index = as_int(master_seed, "seed"), as_int(trial_index, "trial index")
    if master_seed < 0 or trial_index < 0:
        raise InvalidParameterError(
            f"seed and trial index must be >= 0, got {master_seed} and {trial_index}")
    return master_seed, trial_index


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Stable per-trial seed so batch results don't depend on execution order."""
    return np.random.SeedSequence(entropy=_trial_entropy(master_seed, trial_index))


# SeedSequence's hash constants (NumPy's bit_generator.pyx) and PCG64's multiplier
# (pcg64.h). NEP 19 freezes both streams, so the states derived from them below
# stay those of default_rng(trial_seed(m, t)).
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Trials whose generator states are derived in one vectorized pass: the CLI's
# default 1000 trials take one. From 64 to 4096 a trial costs about the same,
# 4-5 us with its draw (2-core Xeon, numpy 2.4), and memory stays bounded.
_TRIAL_CHUNK = 1024


def _words(value: int) -> list[int]:
    """``value``'s 32-bit words, least significant first, as SeedSequence splits an int."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_sequence_states(entropy: list[np.ndarray]) -> list[list[int]]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for many entropies e at once.

    ``entropy[i]`` holds word i of every entropy, as uint32; the result holds
    state word j of every entropy in its list j. SeedSequence's pool of 4 words
    is hashed, mixed and read out word-column by word-column; its hash constants
    depend on no data, so they are Python ints, stepped as NumPy steps them.
    """
    n = len(entropy[0])
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # entropy past the pool is mixed into every pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, halves = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        halves.append((value ^ value >> 16).astype(np.uint64))
    return [(halves[2 * j + 1] << 32 | halves[2 * j]).tolist() for j in range(4)]


def _trial_generators(master_seed: int, start: int, stop: int):
    """Yield one reused Generator, set in turn to trial t's state for t in [start, stop).

    Trial t's state, and so every draw after it, is that of
    ``np.random.default_rng(trial_seed(master_seed, t))``. For a chunk of at most
    ``_TRIAL_CHUNK`` trials at a time, SeedSequence's hash runs across the trial
    axis (``_seed_sequence_states``) and PCG64's seeding in 128-bit ints; the
    generator's state is then set per trial. A chunk stays below the next multiple
    of 2**32, so the trial index's words above the lowest are the same throughout.
    """
    master_seed, start = _trial_entropy(master_seed, start)
    master = _words(master_seed)
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    while start < stop:
        low, high = start & _MASK32, start >> 32
        n = min(stop - start, _TRIAL_CHUNK, (1 << 32) - low)
        entropy = [np.full(n, word, np.uint32) for word in master]
        entropy.append(np.arange(low, low + n, dtype=np.uint32))
        if high:
            entropy += [np.full(n, word, np.uint32) for word in _words(high)]
        for seed_hi, seed_lo, seq_hi, seq_lo in zip(*_seed_sequence_states(entropy)):
            # PCG64's set_seed: state 0, inc = initseq << 1 | 1, step, += initstate, step
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = (((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng
        start += n


@dataclass(frozen=True)
class ClassicalResult:
    """Ordered bits from a measurement; index 0 is the most significant.

    ``bits`` is parsed into a tuple of ints, each 0 or 1; anything else is refused
    with ``InvalidParameterError``. A measurement builds its result through
    ``_sampled``, which trusts the bits it sampled and skips the parse.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple([as_int(b, "a bit") for b in as_items(self.bits, "bits")])
        if any(b not in (0, 1) for b in bits):
            raise InvalidParameterError(f"bits must each be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _sampled(cls, bits: tuple[int, ...]) -> "ClassicalResult":
        result = object.__new__(cls)
        object.__setattr__(result, "bits", bits)
        return result

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
        self._bind(_Support(np.zeros(1, dtype=np.int64), 0))
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
            bound = self._bound()
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
            if bound is not None:
                fresh = 0 if zeroed else (1 << n_qubits) - 1
                self._bind(_Support(bound.base << n_qubits, bound.free << n_qubits | fresh))
        return RegisterView(self, tuple(range(first, first + n_qubits)))

    # -- support bound ---------------------------------------------------

    def _bound(self) -> _Support | None:
        """The support bound of ``_state``: none, so that the state is dense, for an
        array replaced from outside the kernels other than by ``_set_state``, nor
        once every bit is free."""
        bounded, support = self._bounded
        return support if bounded() is self._state else None

    def _bind(self, support: _Support | None):
        """Bound the support of ``_state`` by ``support``, or by nothing."""
        self._bounded = weakref.ref(self._state), support

    # -- state transformation ------------------------------------------

    def _apply(self, op: QuantumOperation, physical_targets: tuple[int, ...]):
        """Apply ``op`` on ``physical_targets``; the caller has checked it."""
        layout = _layout(self._count, physical_targets)
        ndim, axes = len(layout.shape), layout.axes
        state, kernel = self._state, op._kernel
        if kernel == "perm":
            move = _mover(layout.runs, op._basis_images.__getitem__)
            if self._move(move):
                return
        psi = state.reshape(layout.shape)
        bound = self._bound()
        groups = None if bound is None else bound.candidates(state.size, layout.bits)
        if groups is not None:
            # a sparse state: the 2**k indices of each group are one row, whose
            # amplitudes are scaled or multiplied in place
            sub = np.arange(op.dimension, dtype=np.int64)
            at = groups[:, None] | scatter_bits(layout.runs, sub)
            if kernel == "diag":
                for sub_index, phase in op._phases:
                    # not ``*=``, which rounds a lone amplitude otherwise than a slice
                    state[at[:, sub_index]] = state[at[:, sub_index]] * phase
            else:
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
        if bound is None or kernel == "diag":
            return  # a phase never makes a zero amplitude nonzero
        if kernel == "perm" and not bound.free & layout.bits:
            # no word is free on the targets, so each moves as a whole and frees nothing
            self._bind(_Support(move(bound.base), bound.free))
            return
        # any other gate can set its targets' bits to anything, and no others. Once
        # every bit is free the bound allows every index, and dropping it spares the
        # gates after it this bookkeeping
        free = bound.free | layout.bits
        self._bind(None if free == self._state.size - 1 else _Support(bound.base, free))

    def _step(self, physical: tuple[int, ...], modulus: int, multipliers) -> tuple[int, int]:
        """The Shor step for N on ``physical`` (a control, then n work qubits): the
        register is set to 1, one round runs per multiplier a, and the work register
        is read. Returns the bits read, round i at bit i, and f. The two index arrays
        (N and 2**n entries) are allocated first, or refused before any amplitude or
        draw changes; the caller keeps N within ``algorithms._EXACT_PRODUCT_LIMIT``.

        Round i is H on the control, the controlled multiply U by a, the readout
        phase and H, and the control's measurement, simulated by their effect. With
        psi the work half and phi = exp(-i pi m / 2**i) U psi, m the bits read so
        far, it reads c with p_c = (|psi|^2 + (-1)^c Re<psi, phi>) / 2 from one
        ``rng.random()`` (``_sample``); psi becomes (psi + (-1)^c phi) / (2
        sqrt(p_c)) in place, in half 0, whatever c: the control's bit is a label.
        U psi takes at each work value y < N the amplitude at a**-1 * y mod N, and
        past N its own. While the work support ({1}, and a round adds a * support
        mod N) is at most ``_SUPPORT_SHARE`` of the 2**n work values, the round
        reads and writes those values alone. The read samples f from |work|^2,
        summed over the other qubits, zeroes half 0 and writes f, scaled by
        1/sqrt(p_f), at the last bit. The halves are a view when the register is the
        whole state in order, and otherwise the axis move's copy, written back once.
        The bound comes out exact on the register; the other qubits keep theirs.
        """
        n = len(physical) - 1
        try:
            y = np.arange(modulus, dtype=np.int64)
            sources = np.arange(1 << n, dtype=np.int64)  # past N each value is its own
        except _ALLOCATION_FAILURES as exc:
            raise QubitLimitExceededError(f"the multiply index for N={modulus} needs {1 << n} "
                                          "entries, which cannot be allocated") from exc
        head = sources[:modulus]
        RegisterView(self, physical).set_from_unsigned(1)
        layout = _layout(self._count, physical)
        view, flat = None, layout.block == (1, 1)
        if flat:
            halves = self._state.reshape(2, -1)
        else:
            # (2, rows, 2**n), one row per value of the other qubits, written back below
            view = self._state.reshape(layout.shape).transpose(layout.rest + layout.axes)
            halves = view.reshape(-1, 2, 1 << n).transpose(1, 0, 2)
        half, random = halves[0], self.rng.random
        measured, c = 0, 0
        support, words = {1}, np.array([1])  # both None once past the share
        for i, a in enumerate(multipliers):
            if a != 1 and support is not None:
                support.update([w * a % modulus for w in support])
                if len(support) > (1 << n) * _SUPPORT_SHARE:
                    support = words = None
                else:
                    words = np.fromiter(support, np.int64, len(support))
                    words.sort()
            if a == 1:
                source = None
            elif words is not None:
                source = words * pow(a, -1, modulus) % modulus
            else:
                np.multiply(y, pow(a, -1, modulus), out=head)
                np.remainder(head, modulus, out=head)
                source = sources
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

        # the read: all the mass is in half 0, zeroed before half c gets f alone
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

        # the register's bits are freed, then pinned; no bound is the word 0, all bits free
        bound = self._bound() or _Support(np.zeros(1, dtype=np.int64), self._state.size - 1)
        self._bind(_Support(bound.base, bound.free | layout.bits).pinned(layout, c << n | f))
        return measured, f

    def _move(self, move) -> bool:
        """Move each candidate of the support bound to ``move`` of it, a basis
        permutation of flat indices that the caller has checked; False, having
        touched nothing, when the candidates are more than ``_SUPPORT_SHARE`` of
        the state.

        Each amplitude moves once, in place, and the moved indices are the new
        bound, with no bit free. A classical plan and a lone permutation move
        through ``_mover``, and a register reset by one flat XOR.
        """
        state, bound = self._state, self._bound()
        support = None if bound is None else bound.candidates(state.size)
        if support is None:
            return False
        moved = move(support)
        values = state[support]
        state[support] = 0
        state[moved] = values
        self._bind(_Support(moved, 0))
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

    def _read(self, layout: _Layout, bound: _Support | None):
        """The outcomes of the targets of ``layout``, their probabilities, and the
        candidates with the outcome of each.

        While the support bound ``bound`` allows at most ``_SUPPORT_SHARE`` of the
        state, the outcomes are those its candidates name, distinct and sorted, and
        each probability sums |amp|**2 of its candidates, squared as the dense
        marginal squares them; no array has an entry per outcome the bound rules
        out. Otherwise the read is dense: the outcomes and candidates are None, and
        the marginal, one entry per outcome in order, is ``_marginal_probabilities``.
        """
        support = None if bound is None else bound.candidates(self._state.size)
        if support is None:
            return None, self._marginal_probabilities(layout), None
        sub = gather_bits(layout.runs, support)
        squares = np.abs(self._state[support])
        squares *= squares
        outcomes = _distinct(sub)
        marginal = np.bincount(outcomes.searchsorted(sub), squares, len(outcomes))
        return outcomes, marginal, (support, sub)

    def _measure(self, physical: tuple[int, ...]) -> tuple[int, ...]:
        """Sample the targets from their exact marginal and collapse onto the outcome.

        One read pass gives the marginal (``_marginal_probabilities``) and one
        uniform draw the outcome (``_sample``), on Python floats for at most
        ``_SCALAR_OUTCOMES`` outcomes. The collapse is in place, with no mask: the
        slices of the other outcomes are zeroed and the kept one is rescaled, and it
        allocates nothing of the state's size; a read of every qubit in order keeps
        one amplitude, so it zeroes the state with one ``fill`` and writes that
        amplitude back, scaled. The support bound, if the state has one, then pins
        the measured qubits to the outcome. While the bound allows at most
        ``_SUPPORT_SHARE`` of the state, the read and the collapse touch its
        candidates alone (``_read``).
        """
        k = len(physical)
        if k == 0:
            return ()
        layout = _layout(self._count, physical)
        bound = self._bound()
        outcomes, marginal, candidates = self._read(layout, bound)
        if len(marginal) <= _SCALAR_OUTCOMES:
            marginal = marginal.tolist()
        picked = _sample(marginal, self.rng.random())
        outcome, p = picked if outcomes is None else int(outcomes[picked]), marginal[picked]
        bits = tuple([(outcome >> (k - 1 - i)) & 1 for i in range(k)])
        if bound is not None:
            self._bind(bound.pinned(layout, outcome))
        scale = 1.0 / math.sqrt(p)
        if candidates is not None:
            support, sub = candidates
            kept = sub == outcome
            self._state[support[~kept]] = 0
            self._state[support[kept]] *= scale
            return bits
        if layout.block == (1, 1):
            # every qubit in order: one amplitude is kept, so zero all and write it back
            kept = self._state[outcome] * scale
            self._state.fill(0)
            self._state[outcome] = kept
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
        bound = self._bound()
        if bound is not None and not bound.free & layout.bits:
            # every nonzero amplitude sits at a base word, with none of these bits
            # flipped: if those words agree on them, so does the whole state. One
            # word is read as a Python int, about 6x cheaper than an array's gather
            if len(bound.base) == 1:
                return gather_bits(layout.runs, int(bound.base[0]))
            words = gather_bits(layout.runs, bound.base)
            if (words == words[0]).all():
                return int(words[0])
        outcomes, marginal, _ = self._read(layout, bound)
        top = int(np.argmax(marginal))
        if marginal[top] >= 1.0 - _CLASSICAL_ATOL:
            return top if outcomes is None else int(outcomes[top])
        # not jointly one basis state: look for the first qubit in superposition
        if outcomes is None:
            outcomes = np.arange(len(marginal))
        value, k = 0, len(physical)
        for i, qubit in enumerate(physical):
            p_one = marginal @ (outcomes >> (k - 1 - i) & 1)
            if _CLASSICAL_ATOL < p_one < 1.0 - _CLASSICAL_ATOL:
                raise NotClassicalStateError(
                    f"physical qubit {qubit} is in superposition; initialize only classical qubits"
                )
            value = value << 1 | int(p_one >= 1.0 - _CLASSICAL_ATOL)
        return value

    # -- debug-only inspection -------------------------------------------

    def _require_debug(self):
        if not self.debug:
            raise DebugOnlyViolationError(
                "state inspection is hidden from the public surface; "
                "create the context with debug=True for tests"
            )

    def _set_state(self, amplitudes):
        """Debug/test hook: overwrite the full amplitude vector, normalised.

        The one way to bind a state from its amplitudes: the bound is the exact
        nonzero indices when they are at most ``_SUPPORT_SHARE`` of the state, and
        none otherwise."""
        self._require_debug()
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if vec.shape != (1 << self._count,):
            raise SizeMismatchError(f"state must have 2**{self._count} amplitudes")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise InvalidParameterError("cannot set a zero state")
        self._state = vec / norm
        # a bool mask is fast to count and to index, where a complex array is slow
        # to do either. The cast is the mask ``state != 0`` (NaN counts, -0.0 does not)
        nonzero = self._state.astype(bool)
        sparse = np.count_nonzero(nonzero) <= self._state.size * _SUPPORT_SHARE
        self._bind(_Support(np.flatnonzero(nonzero), 0) if sparse else None)


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
        value is read off the support bound when it pins them. While the bound's
        candidates are at most ``_SUPPORT_SHARE`` of the state, each moves by one
        XOR of the differing bits (``SimulationContext._move``); otherwise the
        Nots are a plan (``apply_operations``), which keeps a bound that leaves
        none of them free.
        """
        value, width = as_int(value, "register value"), len(self)
        if not 0 <= value < (1 << width):
            raise ValueOutOfRangeError(f"{value} does not fit in {width} qubits")
        ctx = self.context
        flips = value ^ ctx._classical_value(self._exposed)
        if flips:
            bits = scatter_bits(_layout(ctx._count, self._exposed).runs, flips)
            if not ctx._move(lambda words: words ^ bits):
                self.apply_operations([pauli_x(i) for i in range(width)
                                       if flips >> (width - 1 - i) & 1])
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
        moves only the support bound's candidates when they are at most
        ``_SUPPORT_SHARE`` of the state (``SimulationContext._move``); a state
        with a looser bound, or none, takes one pass per fused op.
        """
        ops = as_items(ops, "a plan")
        plan = _fused(ops)
        if plan.top >= len(self) or not plan.unitary:
            for op in ops:  # raises for the first op that does not fit or is not unitary
                self._physical(op)
                op.require_unitary()
        ctx, width = self.context, plan.top + 1
        if plan.classical and ctx._move(_mover(_layout(ctx._count, self._exposed[:width]).runs,
                                               lambda sub: trace_subindices(plan.ops, sub, width))):
            return self
        for op in plan.ops:
            ctx._apply(op, self._physical(op))
        return self

    # -- measurement ----------------------------------------------------------

    def measure(self, subset=None) -> ClassicalResult:
        """Collapse and read the given exposed indices (default: all).

        Collapse propagates to every view sharing the measured qubits.
        """
        view = self if subset is None else self.slice(subset)
        return ClassicalResult._sampled(self.context._measure(view._exposed))

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

    The state it holds now is the snapshot. Trial t copies it into one restore
    buffer, reused by every trial (so ``ctx._state`` is that one array, which no
    support bound names: each trial reads densely), and measures with one
    reused generator whose state is set to that of
    ``default_rng(trial_seed(master_seed, t))`` (``_trial_generators``), so it
    reads what a fresh context with that seed would read after the same
    measurement-free circuit. The states are derived a chunk of trials at a time,
    with no per-trial SeedSequence or generator; NEP 19 freezes the SeedSequence
    and PCG64 streams, so the derivation stays exact. Memory does not grow with
    ``trials``. Yields one ClassicalResult per trial.
    """
    ctx = register.context
    prepared = ctx._state
    restored = np.empty_like(prepared)
    for rng in _trial_generators(master_seed, 0, trials):
        np.copyto(restored, prepared)
        ctx._state, ctx.rng = restored, rng
        yield register.measure()
