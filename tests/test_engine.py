import gc
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import sharq
from sharq import (
    ClassicalResult,
    SimulationContext,
    add_n_ops,
    bits_to_express,
    cnot,
    controlled_modular_multiply_ops,
    controlled_u,
    deutsch,
    engine,
    expand_to_full_matrix,
    gcd,
    hadamard,
    hadamard_all_ops,
    is_prime,
    is_prime_power,
    linalg,
    mod_pow,
    modular_add_ops,
    modular_exponentiation_ops,
    pauli_x,
    pauli_z,
    phase_t,
    qft_ops,
    retarget,
    rotation_k,
    shor_quantum_step,
    walsh,
)
from sharq.errors import (
    DebugOnlyViolationError,
    DuplicateIndexesError,
    IndexOutOfRangeError,
    InvalidLocationError,
    InvalidParameterError,
    NotClassicalStateError,
    NotUnitaryOperationError,
    QubitLimitExceededError,
    ResourceExhaustedError,
    SizeMismatchError,
    ValueOutOfRangeError,
)
from sharq.algorithms import circuit_uf, semantic_uf
from sharq.arithmetic import OperationPlan, reverse_ops, run_on_basis
from sharq.gates import HARD_QUBIT_LIMIT, QuantumOperation, toffoli, trace_subindices, trace_words
from sharq.shor import shor_factor

from conftest import bits_of, random_state

S2 = 1.0 / math.sqrt(2.0)


class TestAllocation:
    def test_fresh_two_qubit_register_is_all_zero(self, debug_ctx):
        reg = debug_ctx().allocate_register(2)
        assert np.allclose(reg.peek_amplitudes(), [1, 0, 0, 0])

    def test_allocate_zero_is_a_no_op(self, debug_ctx):
        ctx = debug_ctx()
        first = ctx.allocate_register(1)
        before = first.peek_amplitudes()
        empty = ctx.allocate_register(0)
        assert len(empty) == 0
        assert np.array_equal(first.peek_amplitudes(), before)

    def test_eight_zeros_measure(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(8)
        assert reg.measure().to_bitstring() == "00000000"

    def test_cap_enforced(self):
        ctx = SimulationContext(seed=0, qubit_cap=4)
        ctx.allocate_register(3)
        with pytest.raises(QubitLimitExceededError):
            ctx.allocate_register(2)

    def test_cap_checked_before_the_state_is_built(self):
        # 2**50 amplitudes (16 PiB) cannot exist anywhere, so only a cap check
        # made before numpy is asked for the array can name the cap here
        ctx = SimulationContext(seed=0, debug=True)
        pair = ctx.allocate_register(2)
        pair.apply_operations([hadamard(0), cnot(0, 1)])
        before = ctx._state.copy()
        with pytest.raises(QubitLimitExceededError, match="cap of 26"):
            ctx.allocate_register(50)
        assert ctx.physical_count == 2
        assert np.array_equal(ctx._state, before)

    @pytest.mark.parametrize("n_qubits", [55, 60])
    def test_unallocatable_request_is_refused(self, n_qubits):
        # within qubit_cap=62, but numpy cannot build the array: 2**55
        # amplitudes raise MemoryError, 2**60 its "array is too big" ValueError
        ctx = SimulationContext(seed=0, qubit_cap=62, debug=True)
        ctx.allocate_register(1).apply_operation(hadamard(0))
        before = ctx._state.copy()
        with pytest.raises(QubitLimitExceededError, match=f"needs {16 << n_qubits} bytes"):
            ctx.allocate_register(n_qubits)
        assert ctx.physical_count == 1
        assert np.array_equal(ctx._state, before)

    def test_unallocatable_kronecker_product_is_refused(self):
        # a broadcast view stands for 2**55 amplitudes without holding them;
        # appending it to one qubit asks numpy for a 2**56-amplitude product
        ctx = SimulationContext(seed=0, qubit_cap=62, debug=True)
        ctx.allocate_register(1)
        huge = np.broadcast_to(np.complex128(0), (1 << 55,))
        with pytest.raises(QubitLimitExceededError, match=f"needs {16 << 56} bytes"):
            ctx._allocate_with_amplitudes(huge, 55)
        assert ctx.physical_count == 1
        assert np.array_equal(ctx._state, [1, 0])

    def test_hard_limit(self):
        with pytest.raises(QubitLimitExceededError):
            SimulationContext(qubit_cap=63)

    def test_negative_count_refused(self):
        ctx = SimulationContext(seed=0)
        with pytest.raises(InvalidParameterError, match="negative"):
            ctx.allocate_register(-1)
        assert ctx.physical_count == 0

    def test_allocation_into_entangled_context(self, debug_ctx):
        # appending qubits must leave existing entanglement untouched
        ctx = debug_ctx()
        pair = ctx.allocate_register(2)
        pair.apply_operations([hadamard(0), cnot(0, 1)])
        extra = ctx.allocate_register(1)
        assert extra.exposed == (2,)
        assert np.allclose(ctx._state, np.kron([S2, 0, 0, S2], [1, 0]))
        # the pair stays separable from the appended qubit
        assert np.allclose(pair.peek_amplitudes(), [S2, 0, 0, S2])


def _register(width=4):
    return SimulationContext(seed=0).allocate_register(width)


def _gates(plan):
    """A plan as comparable data: its gates' names and targets, and its result indices."""
    return [(op.name, op.targets) for op in plan.ops], plan.result_indices


_MODADD = (range(2), range(2, 4), range(4, 6), range(6, 9))  # x, y, modulus, scratch at n = 2
_CMM = (range(1, 3), range(3, 5), range(5, 7), range(7, 13))  # x, y, modulus, scratch at n = 2
_MODEXP = (range(4), range(4, 6), range(6, 16))  # REG1, REG2, ancillas at n = 2


@pytest.mark.parametrize("call,value", [
    (lambda x: SimulationContext(qubit_cap=x).qubit_cap, 1),
    (lambda x: _register(x).exposed, 1),
    (lambda x: _register(3).set_from_unsigned(x).measure().bits, 1),
    (lambda x: run_on_basis((pauli_x(0),), x, 1), 1),
    (lambda x: _register().slice_to(x).exposed, 2),
    (lambda x: _register().slice_from(x).exposed, 2),
    (lambda x: _register().slice_range(0, x).exposed, 2),
    (lambda x: hadamard(x).targets, 3),
    (lambda x: rotation_k(x).matrix.tolist(), 3),
    (lambda x: expand_to_full_matrix(pauli_x(0), x).tolist(), 2),
    (lambda x: linalg.identity(x).tolist(), 2),
    (lambda x: _gates(modular_add_ops(*_MODADD, 9, x)), 3),
    (lambda x: _gates(modular_add_ops(*_MODADD, x, 3)), 9),
    (lambda x: _gates(controlled_modular_multiply_ops(x, *_CMM, 2, 3)), 0),
    (lambda x: _gates(controlled_modular_multiply_ops(0, *_CMM, x, 3)), 2),
    (lambda x: _gates(controlled_modular_multiply_ops(0, *_CMM, 2, x)), 3),
    (lambda x: _gates(modular_exponentiation_ops(*_MODEXP, x, 3)), 2),
    (lambda x: _gates(modular_exponentiation_ops(*_MODEXP, 2, x)), 3),
    (lambda x: semantic_uf(x, 15).permutation.tolist(), 7),
    (lambda x: circuit_uf(x, 15).permutation.tolist(), 7),
    (lambda x: shor_quantum_step(SimulationContext(seed=1), 15, x), 7),
    (lambda x: shor_quantum_step(SimulationContext(seed=1), x, 7), 15),
    (lambda x: shor_factor(SimulationContext(seed=1), x), 15),
    (lambda x: bits_to_express(x), 15),
    (lambda x: gcd(x, 15), 6),
    (lambda x: mod_pow(x, 2, 15), 7),
    (lambda x: is_prime(x), 7),
    (lambda x: is_prime_power(x), 9),
    (lambda x: deutsch(SimulationContext(seed=0), lambda bit: x if bit else 0), 1),
], ids=["qubit_cap", "allocate_register", "set_from_unsigned", "run_on_basis", "slice_to",
        "slice_from", "slice_range", "hadamard", "rotation_k", "expand_to_full_matrix",
        "identity", "modadd-modulus", "modadd-flag", "cmm-control", "cmm-multiplier",
        "cmm-modulus", "modexp-base", "modexp-modulus", "semantic_uf", "circuit_uf", "step-m",
        "step-N", "factor-N", "bits_to_express", "gcd", "mod_pow", "is_prime", "is_prime_power",
        "deutsch-oracle"])
def test_sizes_and_values_must_be_integers(call, value):
    # what operator.index takes passes as the same int; anything else is refused
    expected = call(value)
    for same in [np.int64(value), np.uint8(value)] + [True] * (value == 1):
        assert call(same) == expected
    for other in (value + 0.5, float(value), "3", None, np.float64(value), [value]):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call(other)


@pytest.mark.parametrize("call,indices", [
    (lambda ix: _register().slice(ix).exposed, [2, 0]),
    (lambda ix: _register().measure(ix).bits, [2, 0]),
    (lambda ix: QuantumOperation("op", ix, matrix=np.eye(4)).targets, [2, 0]),
    (lambda ix: retarget(cnot(), ix).targets, [2, 0]),
    (lambda ix: controlled_u(pauli_x(), ix, 3).targets, [2, 0]),
    (lambda ix: walsh(ix).targets, [2, 0]),
    (lambda ix: _gates(hadamard_all_ops(ix)), [2, 0]),
    (lambda ix: _gates(qft_ops(ix)), [2, 0, 1]),
    (lambda ix: _gates(reverse_ops(ix)), [2, 0, 1]),
    (lambda ix: _gates(add_n_ops(ix, [4, 5], [6, 7, 8])), [1, 0]),
    (lambda ix: _gates(modular_add_ops(ix, *_MODADD[1:], 9, 3)), [1, 0]),
    (lambda ix: _gates(controlled_modular_multiply_ops(0, ix, *_CMM[1:], 2, 3)), [2, 1]),
    (lambda ix: _gates(modular_exponentiation_ops(ix, *_MODEXP[1:], 2, 3)), [3, 1, 2, 0]),
    (lambda ix: _register().slice_reorder(ix).exposed, [2, 0, 3, 1]),
], ids=["slice", "measure", "QuantumOperation", "retarget", "controlled_u", "walsh",
        "hadamard_all_ops", "qft_ops", "reverse_ops", "add_n_ops", "modular_add_ops",
        "controlled_modular_multiply_ops", "modular_exponentiation_ops", "slice_reorder"])
def test_indices_must_be_distinct_integers(call, indices):
    expected = call(indices)
    for kind in (np.int64, np.uint8):
        assert call([kind(i) for i in indices]) == expected
    for other in (indices[0] + 0.5, float(indices[0]), np.float64(indices[0])):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call([other, *indices[1:]])
    with pytest.raises(DuplicateIndexesError):
        call([indices[0]] * len(indices))
    # an index, a float or a 0-d array in place of the group is refused, not iterated
    for scalar in (indices[0], np.int64(indices[0]), 0.5, np.array(indices[0])):
        with pytest.raises(InvalidParameterError, match="must be a sequence"):
            call(scalar)


class TestSlicing:
    def test_slice_selects_in_order(self):
        ctx = SimulationContext(seed=0)
        view = ctx.allocate_register(3)
        sliced = view.slice([2, 0])
        assert sliced.exposed == (2, 0)

    def test_slice_reverse(self):
        ctx = SimulationContext(seed=0)
        view = ctx.allocate_register(4)
        assert view.slice_reverse().exposed == (3, 2, 1, 0)

    def test_slice_wrappers(self):
        ctx = SimulationContext(seed=0)
        view = ctx.allocate_register(4)
        assert view.slice_to(1).exposed == (0, 1)
        assert view.slice_from(2).exposed == (2, 3)
        assert view.slice_range(1, 2).exposed == (1, 2)
        assert view.slice_subset([3, 1]).exposed == (3, 1)
        assert view.slice_reorder([2, 3, 0, 1]).exposed == (2, 3, 0, 1)

    def test_slice_validation(self):
        ctx = SimulationContext(seed=0)
        view = ctx.allocate_register(3)
        with pytest.raises(IndexOutOfRangeError):
            view.slice([3])
        with pytest.raises(DuplicateIndexesError):
            view.slice([1, 1])
        with pytest.raises(SizeMismatchError):
            view.slice_reorder([0, 1])

    @pytest.mark.parametrize("call", [
        lambda view: view.slice_to(3), lambda view: view.slice_to(-1),
        lambda view: view.slice_from(3), lambda view: view.slice_from(-1),
        lambda view: view.slice_range(0, 3), lambda view: view.slice_range(-1, 1),
        lambda view: view.slice_range(2, 1),
    ], ids=["to-past-end", "to-negative", "from-past-end", "from-negative",
            "range-past-end", "range-negative", "range-reversed"])
    def test_wrappers_refuse_indices_outside_the_view(self, call):
        # the wrappers slice the exposed tuple directly, so their own range check is the guard
        view = SimulationContext(seed=0).allocate_register(3)
        with pytest.raises(IndexOutOfRangeError):
            call(view)

    def test_wrappers_refuse_any_index_of_an_empty_view(self):
        empty = SimulationContext(seed=0).allocate_register(0)
        for call in (empty.slice_to, empty.slice_from, lambda i: empty.slice_range(i, i)):
            with pytest.raises(IndexOutOfRangeError):
                call(0)
        assert empty.slice_reverse().exposed == ()

    def test_slices_compose(self):
        ctx = SimulationContext(seed=0)
        view = ctx.allocate_register(4)
        inner = view.slice([3, 1, 2]).slice([2, 0])
        assert inner.exposed == (2, 3)

    def test_measure_order_follows_the_view(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(2).set_from_unsigned(1)  # |01>
        assert reg.slice_reverse().measure().to_bitstring() == "10"

    def test_collapse_propagates_through_alias(self):
        # measuring a slice collapses the parent view's qubit as well
        for seed in range(8):
            ctx = SimulationContext(seed=seed)
            parent = ctx.allocate_register(2)
            parent.apply_operation(hadamard(0))
            bit = parent.slice([0]).measure().to_unsigned()
            again = parent.measure([0]).to_unsigned()
            assert again == bit

    def test_no_cloning_surface_views_alias(self, debug_ctx):
        ctx = debug_ctx()
        original = ctx.allocate_register(1)
        copy = original.slice([0])
        copy.apply_operation(pauli_x(0))
        assert np.allclose(original.peek_amplitudes(), [0, 1])


class TestSetFromUnsigned:
    def test_paper_encoding(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(4).set_from_unsigned(5)
        assert reg.measure().to_bitstring() == "0101"

    def test_zero_applies_no_gates(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(4)
        before = ctx._state.copy()
        reg.set_from_unsigned(0)
        assert np.array_equal(ctx._state, before)

    def test_all_ones(self):
        # oracle: compare each target bit against the current bit
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(4).set_from_unsigned(15)
        assert reg.measure().to_bitstring() == "1111"

    def test_round_trip_against_bit_oracle(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(4)
        for value in range(16):
            reg.set_from_unsigned(value)
            assert reg.measure().to_unsigned() == value

    def test_value_out_of_range(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(2)
        with pytest.raises(ValueOutOfRangeError):
            reg.set_from_unsigned(4)

    def test_rejects_superposed_qubits(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(2)
        reg.apply_operation(hadamard(0))
        with pytest.raises(NotClassicalStateError):
            reg.set_from_unsigned(1)

    def test_names_the_one_superposed_qubit_among_collapsed_ones(self, debug_ctx):
        ctx = debug_ctx()
        ctx.allocate_register(2).apply_operation(hadamard(1))  # superposed, but not reset
        reg = ctx.allocate_register(5).set_from_unsigned(0b10110)
        reg.apply_operation(hadamard(3))  # physical qubit 5
        before = ctx._state.copy()
        with pytest.raises(NotClassicalStateError, match="physical qubit 5 "):
            reg.slice([4, 0, 3, 1]).set_from_unsigned(0)
        assert np.array_equal(ctx._state, before)  # refused before any gate

    def test_reads_collapsed_bits_beside_a_superposed_register(self):
        ctx = SimulationContext(seed=0)
        ctx.allocate_register(2).apply_operation(hadamard(0))
        reg = ctx.allocate_register(4).set_from_unsigned(0b1001)
        reg.slice([3, 2, 1, 0]).set_from_unsigned(0b0110)
        assert reg.measure().to_bitstring() == "0110"

    @pytest.mark.parametrize("p_one, reading", [
        ((6e-10, 6e-10), 0b00), ((6e-10, 1 - 6e-10), 0b01), ((1 - 6e-10, 6e-10), 0b10),
    ], ids=["00", "01", "10"])
    def test_reads_a_nearly_classical_product_state_qubit_by_qubit(self, debug_ctx, p_one,
                                                                     reading):
        # no basis state reaches 1 - 1e-9, so each qubit is read off the joint marginal
        ctx = debug_ctx()
        reg = ctx.allocate_register(2)
        qubits = [np.array([math.sqrt(1 - p), math.sqrt(p)]) for p in p_one]
        ctx._set_state(np.kron(*qubits))
        before = ctx._state.copy()
        reg.set_from_unsigned(reading)
        assert np.array_equal(ctx._state, before)  # every qubit already reads its bit
        reg.set_from_unsigned(reading ^ 0b11)
        assert np.allclose(ctx._state, np.kron(*(q[::-1] for q in qubits)))

    def test_a_refused_read_takes_one_marginal(self, monkeypatch):
        calls = []
        original = SimulationContext._marginal_probabilities

        def counting(ctx, layout):
            calls.append(layout)
            return original(ctx, layout)

        monkeypatch.setattr(SimulationContext, "_marginal_probabilities", counting)
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(6).apply_operation(hadamard(5))
        # two candidates, within 1/16 of 64: the read sums their squares, with no marginal
        with pytest.raises(NotClassicalStateError, match="physical qubit 5 "):
            reg.set_from_unsigned(0)
        assert calls == []
        ctx._state = ctx._state.copy()  # a replaced array has no bound
        with pytest.raises(NotClassicalStateError, match="physical qubit 5 "):
            reg.set_from_unsigned(0)
        assert len(calls) == 1

    @pytest.mark.parametrize("flipped", [(9,), (0, 4), (7, 2, 5), (1, 3, 6, 8)])
    def test_a_sparse_flip_moves_the_candidates_in_place_as_the_copy_does(self, flipped):
        # on the other qubits a classical plan moves 4 words, and the last Hadamard
        # frees a bit: 8 candidates, within 1/16 of 1024. The reset Nots every
        # qubit of ``flipped``, one of which the plan set. The twin has no bound,
        # so it takes the Not plan's dense passes
        q = [i for i in range(10) if i not in flipped]
        plan = [pauli_x(flipped[0]), cnot(q[0], q[2]), toffoli(q[1], q[2], q[3]), cnot(q[1], q[4])]
        ctx, twin = (SimulationContext(seed=0, debug=True) for _ in range(2))
        for context in (ctx, twin):
            register = context.allocate_register(10)
            register.apply_operations([hadamard(q[0]), hadamard(q[1])]).apply_operations(plan)
            register.apply_operation(hadamard(q[5]))
        (base, free), state = ctx._bound(), ctx._state
        assert (len(base), free) == (4, 1 << (9 - q[5]))
        twin._state = twin._state.copy()
        k = len(flipped)
        for context in (ctx, twin):  # the view reads 1 << k - 1, and every bit is flipped
            engine.RegisterView(context, flipped).set_from_unsigned((1 << k - 1) ^ ((1 << k) - 1))
        assert ctx._state is state  # in place
        assert np.array_equal(ctx._state, twin._state)
        # the bound is the moved candidates, with no bit free
        bits = engine._layout(10, flipped).bits
        moved = engine._Support(base ^ bits, free).candidates(1 << 10)
        assert ctx._bound().free == 0
        assert np.array_equal(np.sort(ctx._bound().base), np.sort(moved))

    def test_a_dense_reset_of_scattered_qubits_builds_no_state_sized_copy(self):
        # the Not plan fuses to one 3-qubit permutation, whose slice cycles move
        # eighths of the state in place
        ctx = SimulationContext(seed=0)
        ctx.allocate_register(20)
        ctx._state = ctx._state.copy()  # a replaced array has no bound: the reset is dense
        state = ctx._state
        tracemalloc.start()
        try:
            engine.RegisterView(ctx, (2, 9, 15)).set_from_unsigned(0b111)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctx._state is state
        assert np.flatnonzero(state).tolist() == [engine._layout(20, (2, 9, 15)).bits]
        assert peak < state.nbytes

    def test_a_value_the_bound_pins_is_read_off_it_as_the_marginal_reads_it(self, monkeypatch):
        ctx = SimulationContext(seed=0)
        ctx.allocate_register(3).apply_operations([hadamard(0), hadamard(2)])
        reg = ctx.allocate_register(4).apply_operations([pauli_x(0), cnot(0, 2), toffoli(0, 2, 3)])
        assert len(ctx._bound().base) == 4  # the sparse path: four words
        calls = []
        original = SimulationContext._marginal_probabilities
        monkeypatch.setattr(SimulationContext, "_marginal_probabilities",
                            lambda ctx, layout: calls.append(layout) or original(ctx, layout))
        for view in (reg, reg.slice([3, 0, 2]), reg.slice_reverse()):
            value = ctx._classical_value(view.exposed)
            marginal = original(ctx, engine._layout(ctx.physical_count, view.exposed))
            assert marginal[value] == pytest.approx(1.0)
        assert calls == []
        assert ctx._classical_value(reg.exposed) == 0b1011
        # the words disagree on physical qubit 2, so the read of the four candidates
        # names it, and without the bound the one marginal read does
        view = engine.RegisterView(ctx, (2, 3, 4))
        with pytest.raises(NotClassicalStateError, match="physical qubit 2 "):
            view.set_from_unsigned(0)
        assert calls == []
        ctx._state = ctx._state.copy()
        with pytest.raises(NotClassicalStateError, match="physical qubit 2 "):
            view.set_from_unsigned(0)
        assert len(calls) == 1

    def test_a_one_word_bound_is_read_as_the_words_and_the_marginal_read_it(self):
        # one base word is gathered as an int; the same word twice takes the array
        # gather and the all-equal check, and no bound the marginal
        rng = np.random.default_rng(7)
        ctx = SimulationContext(seed=0)
        ctx.allocate_register(2).apply_operation(hadamard(0))  # a free bit off the views
        reg = ctx.allocate_register(7)
        for value in rng.integers(0, 1 << 7, 8).tolist():
            reg.set_from_unsigned(value)
            # the reset spells the other register's free bit out as two words
            base, free = ctx._bound()
            assert np.array_equal(np.sort(base), [value, value | 1 << 8]) and free == 0
            word, free = bound = engine._Support(np.array([value]), 1 << 8)
            ctx._bind(bound)
            order = rng.permutation(7)[:rng.integers(1, 8)].tolist()
            physical = reg.slice(order).exposed
            expected = sum(((value >> (6 - i)) & 1) << (len(order) - 1 - j)
                           for j, i in enumerate(order))
            read = ctx._classical_value(physical)
            assert read == expected and type(read) is int
            ctx._bind(engine._Support(np.concatenate([word, word]), free))
            assert ctx._classical_value(physical) == expected
            ctx._bind(None)
            assert ctx._classical_value(physical) == expected
            ctx._bind(bound)


class TestApplyOperation:
    def test_hadamard_makes_even_superposition(self, debug_ctx):
        reg = debug_ctx().allocate_register(1)
        reg.apply_operation(hadamard(0))
        assert np.allclose(reg.peek_amplitudes(), [S2, S2])

    def test_cnot_flips_target_when_control_set(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(2).set_from_unsigned(2)  # |10>
        reg.apply_operation(cnot(0, 1))
        assert reg.measure().to_bitstring() == "11"

    def test_bell_amplitudes(self, debug_ctx):
        reg = debug_ctx().allocate_register(2)
        reg.apply_operation(hadamard(0)).apply_operation(cnot(0, 1))
        assert np.allclose(reg.peek_amplitudes(), [S2, 0, 0, S2], atol=1e-12)

    def test_chaining_returns_view(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(1)
        result = reg.apply_operations([hadamard(0), hadamard(0)]).measure()
        assert result.to_unsigned() == 0

    def test_targets_must_fit(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(1)
        with pytest.raises(SizeMismatchError):
            reg.apply_operation(cnot(0, 1))
        big = ctx.allocate_register(2)
        with pytest.raises(SizeMismatchError):
            big.apply_operation(cnot(0, 2))

    def test_a_gate_wider_than_the_view_names_its_first_target_outside(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(4).slice([3, 1])
        reg.apply_operation(hadamard(0))
        before = ctx._state.copy()
        for apply in (reg.apply_operation, lambda op: reg.apply_operations([op])):
            with pytest.raises(SizeMismatchError,
                               match="Toffoli targets index 3, outside this 2-qubit register"):
                apply(toffoli(1, 3, 2))
        assert np.array_equal(ctx._state, before)

    def test_non_unitary_rejected_and_state_untouched(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(2)
        reg.apply_operation(hadamard(0))
        before = ctx._state.copy()
        doubler = QuantumOperation("bad", (0,), matrix=np.array([[1, 0], [0, 2.0]]))
        with pytest.raises(NotUnitaryOperationError):
            reg.apply_operation(doubler)
        assert np.array_equal(ctx._state, before)


class TestMeasurement:
    def test_epr_pair_correlates(self):
        for seed in range(16):
            ctx = SimulationContext(seed=seed)
            reg = ctx.allocate_register(2)
            reg.apply_operations([hadamard(0), cnot(0, 1)])
            first = reg.measure([0]).to_unsigned()
            second = reg.measure([1]).to_unsigned()
            assert first == second

    def test_zero_state_is_certain(self):
        ctx = SimulationContext(seed=123)
        reg = ctx.allocate_register(1)
        assert reg.measure().to_unsigned() == 0

    def test_uniform_two_qubit_frequencies(self):
        # oracle: the marginal distribution of H x H |00> is uniform
        counts = [0, 0, 0, 0]
        trials = 10_000
        for trial in range(trials):
            ctx = SimulationContext(seed=sharq.trial_seed(2024, trial))
            reg = ctx.allocate_register(2)
            reg.apply_operations([hadamard(0), hadamard(1)])
            counts[reg.measure().to_unsigned()] += 1
        for count in counts:
            assert abs(count / trials - 0.25) < 0.02

    def test_collapse_reaches_disjoint_views(self):
        # two single-qubit views over an entangled pair: measuring through
        # one must collapse the qubit seen by the other
        for seed in range(10):
            ctx = SimulationContext(seed=seed)
            reg = ctx.allocate_register(2)
            reg.apply_operations([hadamard(0), cnot(0, 1)])
            left = reg.slice([0])
            right = reg.slice([1])
            assert left.measure().to_unsigned() == right.measure().to_unsigned()

    def test_ghz_partial_measurement_chain(self):
        from sharq.gates import prepare_named_state

        for seed in range(10):
            ctx = SimulationContext(seed=seed)
            reg = prepare_named_state(ctx, "ghz")
            middle = reg.measure([1]).to_unsigned()
            rest = reg.measure([0, 2])
            assert rest.bits == (middle, middle)

    def test_measurement_idempotence(self):
        ctx = SimulationContext(seed=5)
        reg = ctx.allocate_register(3)
        reg.apply_operations([hadamard(0), hadamard(1), hadamard(2)])
        first = reg.measure()
        for _ in range(5):
            assert reg.measure().bits == first.bits

    def test_subset_validation(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(2)
        with pytest.raises(IndexOutOfRangeError):
            reg.measure([2])
        with pytest.raises(DuplicateIndexesError):
            reg.measure([0, 0])

    def test_an_empty_subset_reads_nothing_and_draws_nothing(self, debug_ctx):
        ctx = debug_ctx(seed=5)
        reg = ctx.allocate_register(2).apply_operation(hadamard(0))
        before, draws = ctx._state.copy(), ctx.rng.bit_generator.state
        result = reg.measure([])
        assert result.bits == () and result.to_bitstring() == "" and result.to_unsigned() == 0
        assert ctx.rng.bit_generator.state == draws
        assert np.array_equal(ctx._state, before)

    @pytest.mark.parametrize("subset", [[], [0], [7], [2, 3], [3, 2], [6, 0, 4],
                                        list(range(8)), [5, 0, 7, 1, 2, 6, 4, 3]])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_a_read_returns_the_int_its_bits_encode(self, debug_ctx, subset, sparse):
        # on twin contexts the engine's read returns the int that the public result's
        # bits encode, big-endian in the subset's order (0 for none), and both
        # collapse alike; the sparse state's bound allows 4 of 256 amplitudes
        for seed in range(6):
            twins = [debug_ctx(seed=seed) for _ in range(2)]
            for ctx in twins:
                reg = ctx.allocate_register(8)
                if sparse:
                    reg.apply_operations([hadamard(1), cnot(1, 6), hadamard(4)])
                else:
                    ctx._set_state(random_state(np.random.default_rng(seed), 8))
            outcome = twins[0]._measure(tuple(subset))
            assert type(outcome) is int
            assert outcome == reg.measure(subset).to_unsigned()
            assert np.array_equal(twins[0]._state, twins[1]._state)

    @pytest.mark.parametrize("collapsed,read", [
        ((), lambda reg: reg.measure([0])),
        ((), lambda reg: reg.measure([9])),
        ((), lambda reg: reg.measure([17])),
        ((), lambda reg: reg.measure(list(range(6, 12)))),
        ((), lambda reg: reg.slice([15, 8, 2]).measure()),
        (range(6, 12), lambda reg: reg.context._classical_value(tuple(range(6, 12)))),
    ], ids=["qubit 0", "qubit 9", "qubit 17", "adjacent block", "scattered reversed view",
            "collapsed field"])
    def test_a_read_builds_no_state_sized_temporary(self, collapsed, read):
        # the marginal is one reduction into 2**k outcomes and the collapse zeroes
        # and rescales slices in place; |psi|**2 alone would take nbytes / 2
        ctx = SimulationContext(seed=4, debug=True)
        reg = ctx.allocate_register(18)
        ctx._set_state(random_state(np.random.default_rng(4), 18))
        reg.measure(list(collapsed))  # the other qubits stay superposed
        state = ctx._state
        tracemalloc.start()
        try:
            read(reg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctx._state is state
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        assert peak < state.nbytes / 8

    def test_a_dense_gate_and_a_read_on_a_sparse_state_touch_only_its_candidates(self):
        # 8 nonzero amplitudes of 2**18: the gates gather their groups and the read
        # its candidates, where the dense paths would build products of the state's
        # size. The twin has no bound, so it takes the dense paths
        ctx = SimulationContext(seed=1, debug=True)
        reg = ctx.allocate_register(18)
        reg.apply_operations([hadamard(3), hadamard(11)])
        twin = SimulationContext(seed=1, debug=True)
        twin.allocate_register(18)
        twin._state = ctx._state.copy()
        state = ctx._state
        tracemalloc.start()
        try:
            reg.apply_operation(hadamard(17))
            reg.apply_operation(walsh([2, 3]))
            value = reg.measure().to_unsigned()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for op in (hadamard(17), walsh([2, 3])):
            twin._apply(op, op.targets)
        assert value == engine.RegisterView(twin, tuple(range(18))).measure().to_unsigned()
        assert ctx._state is state and np.array_equal(state, twin._state)
        assert peak < state.nbytes / 64

    @pytest.mark.parametrize("gate", [pauli_x(5), phase_t(5)], ids=["X", "T"])
    def test_a_lone_permutation_or_phase_on_a_sparse_state_touches_only_its_candidates(self, gate):
        # 4 nonzero amplitudes of 2**20: the gate moves or scales its candidates'
        # groups in place, where the block take would write a fresh 16 MiB array.
        # The twin has no bound, so it takes the dense paths
        ctx = SimulationContext(seed=1, debug=True)
        reg = ctx.allocate_register(20)
        reg.apply_operations([hadamard(3), hadamard(11), pauli_x(5)])
        twin = SimulationContext(seed=1, debug=True)
        twin.allocate_register(20)
        twin._state = ctx._state.copy()
        state = ctx._state
        tracemalloc.start()
        try:
            reg.apply_operation(gate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        twin._apply(gate, gate.targets)
        assert ctx._state is state and np.array_equal(state, twin._state)
        assert peak < state.nbytes / 32

    def test_normalization_preserved_through_random_program(self, debug_ctx):
        rng = np.random.default_rng(8)
        ctx = debug_ctx(seed=8)
        reg = ctx.allocate_register(4)
        pool = [hadamard, pauli_x]
        for step in range(60):
            if rng.random() < 0.2:
                reg.measure([int(rng.integers(4))])
            elif rng.random() < 0.5:
                reg.apply_operation(pool[int(rng.integers(2))](int(rng.integers(4))))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                reg.apply_operation(cnot(int(a), int(b)))
            total = np.sum(np.abs(ctx._state) ** 2)
            assert abs(total - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_a_read_of_every_qubit_collapses_as_the_slice_zeroing_did(self, debug_ctx, n):
        # every qubit in order, then partial reads: one run of adjacent targets, runs
        # plus a stray, descending and scattered targets. Bit for bit, the amplitudes
        # of the outcome are scaled by 1/sqrt of the engine's own marginal entry, and
        # every other amplitude is zeroed
        reads = {1: [(0,)], 3: [(0, 1, 2), (1, 2), (2, 0), (2, 1, 0)],
                 12: [tuple(range(12)), (4, 5, 6), (9, 10, 11), (8, 9, 10, 2),
                      (3, 4, 0, 1), (11, 10, 9), (0, 5, 11), (6,)]}[n]
        index = np.arange(1 << n)
        for targets, seed in itertools.product(reads, range(4)):
            ctx = debug_ctx(seed=seed)
            reg = ctx.allocate_register(n)
            ctx._set_state(random_state(np.random.default_rng(seed), n))
            assert ctx._bound() is None  # a dense read
            before = ctx._state.copy()
            marginal = ctx._marginal_probabilities(engine._layout(n, targets))
            outcome = reg.measure(list(targets)).to_unsigned()
            k = len(targets)
            sub = sum((index >> (n - 1 - q) & 1) << (k - 1 - j) for j, q in enumerate(targets))
            expected = np.where(sub == outcome, before * (1 / math.sqrt(marginal[outcome])), 0)
            assert np.array_equal(ctx._state, expected), targets
            assert abs(np.linalg.norm(ctx._state) - 1.0) <= 1e-12

    def test_a_read_whose_squares_cannot_be_allocated_is_refused(self, debug_ctx, monkeypatch):
        # a full dense read at 12 qubits squares the state: when numpy cannot build
        # the squares, the read and the value check raise the typed refusal, naming
        # the read and its bytes, and leave the amplitudes as they were
        ctx = debug_ctx(seed=1)
        reg = ctx.allocate_register(12)
        ctx._set_state(random_state(np.random.default_rng(1), 12))
        before = ctx._state.copy()

        def refusing(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "abs", refusing)
        message = "a read of 12 of 12 qubits needs 32768 bytes"
        for read in (reg.measure, lambda: reg.set_from_unsigned(5)):
            with pytest.raises(ResourceExhaustedError, match=message):
                read()
            assert np.array_equal(ctx._state, before)

    def test_a_read_whose_cumulative_weights_cannot_be_allocated_is_refused(
            self, debug_ctx, monkeypatch):
        # five targets have 32 outcomes, past the scalar pick: when the pick's
        # weights or cumulative sum cannot be built, the read raises the typed
        # refusal, naming the read and its marginal's bytes, and leaves the
        # amplitudes as they were
        ctx = debug_ctx(seed=2)
        reg = ctx.allocate_register(7)
        ctx._set_state(random_state(np.random.default_rng(2), 7))
        before, sample = ctx._state.copy(), engine._sample

        def refusing(marginal, uniform):
            if isinstance(marginal, np.ndarray):
                raise MemoryError
            return sample(marginal, uniform)

        monkeypatch.setattr(engine, "_sample", refusing)
        with pytest.raises(ResourceExhaustedError, match="a read of 5 of 7 qubits needs 256 bytes"):
            reg.measure(range(5))
        assert np.array_equal(ctx._state, before)
        assert len(reg.measure(range(4))) == 4  # 16 outcomes: the scalar pick


class TestClassicalResult:
    def test_paper_values(self):
        assert ClassicalResult((0, 1, 0, 1)).to_unsigned() == 5
        assert ClassicalResult((0,) * 8).to_unsigned() == 0
        assert ClassicalResult((1, 0, 1, 0, 0, 1, 1, 0)).to_unsigned() == 166

    def test_bitstring(self):
        result = ClassicalResult((1, 0, 1, 0, 0, 1, 1, 0))
        assert result.to_bitstring() == "10100110"
        assert str(result) == "10100110"
        assert len(result) == 8

    def test_bits_are_parsed_into_a_tuple_of_ints(self):
        result = ClassicalResult([True, np.int64(0), 1])
        assert result.bits == (1, 0, 1) and all(type(b) is int for b in result.bits)
        assert result == ClassicalResult((1, 0, 1))

    @pytest.mark.parametrize("bits", [None, 0.5, "a", "01", [2, 3], [0, -1], [1, 0.0], 1])
    def test_anything_but_a_sequence_of_bits_is_refused(self, bits):
        with pytest.raises(InvalidParameterError):
            ClassicalResult(bits)

    def test_a_measurement_skips_the_parse(self, monkeypatch):
        reg = SimulationContext(seed=3).allocate_register(2).apply_operation(hadamard(1))
        monkeypatch.setattr(ClassicalResult, "__post_init__", lambda self: pytest.fail("parsed"))
        result = reg.measure()
        assert type(result) is ClassicalResult and result.bits in {(0, 0), (0, 1)}


class TestPeek:
    def test_hidden_from_public_surface(self):
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(1)
        with pytest.raises(DebugOnlyViolationError):
            reg.peek_amplitudes()

    def test_fresh_register(self, debug_ctx):
        reg = debug_ctx().allocate_register(1)
        assert np.allclose(reg.peek_amplitudes(), [1, 0])

    def test_double_hadamard_restores(self, debug_ctx):
        reg = debug_ctx().allocate_register(1)
        reg.apply_operations([hadamard(0), hadamard(0)])
        assert np.abs(reg.peek_amplitudes() - np.array([1, 0])).max() < 1e-9

    def test_entangled_subview_returns_full_vector(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(2)
        reg.apply_operations([hadamard(0), cnot(0, 1)])
        peeked = reg.slice([0]).peek_amplitudes()
        assert isinstance(peeked, tuple)
        state, exposed = peeked
        assert exposed == (0,)
        assert np.allclose(state, [S2, 0, 0, S2])

    def test_separable_subview_marginal(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(2)
        reg.apply_operation(hadamard(1))
        assert np.allclose(reg.slice([1]).peek_amplitudes(), [S2, S2])

    def test_a_zero_qubit_view_is_a_unit_column(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(2)
        reg.apply_operations([hadamard(0), cnot(0, 1)])
        for view in (ctx.allocate_register(0), reg.slice([])):
            peeked = view.peek_amplitudes()
            assert peeked.shape == (1,) and np.isclose(abs(peeked[0]), 1.0)


class TestSetState:
    def test_a_vector_of_the_wrong_length_is_refused(self, debug_ctx):
        ctx = debug_ctx()
        ctx.allocate_register(2)
        with pytest.raises(SizeMismatchError, match=r"2\*\*2 amplitudes"):
            ctx._set_state([1, 0])

    def test_an_all_zero_vector_is_refused(self, debug_ctx):
        ctx = debug_ctx()
        ctx.allocate_register(2)
        before = ctx._state.copy()
        with pytest.raises(InvalidParameterError, match="zero state"):
            ctx._set_state(np.zeros(4))
        assert np.array_equal(ctx._state, before)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, np.int64(-3), [1, -2], 1.5, "7"])
    def test_a_seed_numpy_refuses_is_an_invalid_parameter(self, seed):
        with pytest.raises(InvalidParameterError, match="cannot seed a generator"):
            SimulationContext(seed=seed)

    @pytest.mark.parametrize("master_seed, trial_index", [(-1, 0), (0, -1)])
    def test_a_negative_trial_seed_is_an_invalid_parameter(self, master_seed, trial_index):
        with pytest.raises(InvalidParameterError, match="must be >= 0"):
            engine.trial_seed(master_seed, trial_index)

    @pytest.mark.parametrize("master_seed", [0, 7, 2**31 - 1, 2**32, 2**64 + 3, 2**130 + 5])
    def test_each_trial_generator_is_in_the_state_of_its_trial_seed(self, master_seed):
        # each trial's uniform is the first draw of its trial seed's generator;
        # 2**32 and up are two-word trial indices, and a master past 3 words
        # overflows SeedSequence's 4-word pool
        for trial in (0, 1, 999, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 2, 2**64 + 2):
            uniform = next(engine._trial_uniforms(master_seed, trial, trial + 1))
            assert type(uniform) is float
            assert uniform == np.random.default_rng(engine.trial_seed(master_seed, trial)).random()

    @pytest.mark.parametrize("start, stop", [(0, engine._TRIAL_CHUNK + 3),
                                             (2**32 - 3, 2**32 + 2), (2**64 - 2, 2**64 + 1)])
    def test_trial_generators_cross_chunks_and_word_boundaries(self, start, stop):
        uniforms = list(engine._trial_uniforms(2024, start, stop))
        assert uniforms == [np.random.default_rng(engine.trial_seed(2024, t)).random()
                            for t in range(start, stop)]

    def test_a_huge_trial_count_keeps_memory_bounded(self):
        def first(n, trials):
            reg = SimulationContext(seed=5).allocate_register(3)
            reg.apply_operation(hadamard(0)).apply_operation(hadamard(2))
            return list(itertools.islice(engine._measure_trials(reg, 5, trials), n))

        tracemalloc.start()
        try:
            huge = first(5, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert huge == first(5, 5)
        assert peak < 1 << 20

    def test_each_trial_measures_once_into_one_restore_buffer(self):
        trials = 40
        reg = SimulationContext(seed=3).allocate_register(3)
        reg.apply_operation(hadamard(0)).apply_operation(cnot(0, 2))
        ctx, states, read = reg.context, [], []
        with mock.patch.object(engine.SimulationContext, "_measure", autospec=True,
                               side_effect=engine.SimulationContext._measure) as spy:
            for n, bits in enumerate(engine._measure_trials(reg, 3, trials), 1):
                assert spy.call_count == n
                assert ctx._bound() is None  # the buffer is read densely
                states.append(ctx._state)
                read.append(bits)
        assert spy.call_count == trials
        assert all(state is states[0] for state in states)
        # each trial restores the snapshot: both outcomes keep coming
        assert set(read[1:]) == {0, 5}

    def test_the_register_measures_after_the_trials_through_its_own_generator(self):
        reg = SimulationContext(seed=11).allocate_register(2)
        reg.apply_operation(hadamard(0)).apply_operation(cnot(0, 1))
        ctx = reg.context
        own, draws = ctx.rng, ctx.rng.bit_generator.state
        trials = engine._measure_trials(reg, 11, 5)
        next(trials)
        assert ctx.rng is not own
        trials.close()  # an iterator closed early hands the generator back too
        assert ctx.rng is own
        assert len(list(engine._measure_trials(reg, 11, 5))) == 5
        assert ctx.rng is own and own.bit_generator.state == draws  # the trials drew none
        reg.apply_operation(hadamard(1))
        assert len(reg.measure()) == 2
        assert own.bit_generator.state != draws  # this read drew from it

    def test_a_restore_buffer_that_cannot_be_allocated_is_refused_before_any_trial(
            self, monkeypatch):
        reg = SimulationContext(seed=4).allocate_register(3).apply_operation(hadamard(1))
        ctx = reg.context
        own, draws, prepared = ctx.rng, ctx.rng.bit_generator.state, ctx._state

        def refusing(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "empty_like", refusing)
        with pytest.raises(ResourceExhaustedError, match="restore buffer of 3 qubits needs 128 "
                                                         "bytes.*no trial ran"):
            next(engine._measure_trials(reg, 4, 5))
        assert ctx.rng is own and own.bit_generator.state == draws
        assert ctx._state is prepared

    @pytest.mark.parametrize("master_seed", [-1, np.int64(-3), 1.5, "7"])
    def test_trials_refuse_a_bad_master_seed(self, master_seed):
        reg = SimulationContext(seed=0).allocate_register(1)
        with pytest.raises(InvalidParameterError):
            next(engine._measure_trials(reg, master_seed, 5))

    def test_every_seed_numpy_takes_still_seeds(self):
        draws = [SimulationContext(seed=seed).rng.random()
                 for seed in (7, np.uint8(7), 2**70, [7, 8], np.random.SeedSequence(7))]
        assert draws[0] == draws[1] == draws[4] and len(set(draws)) == 3
        assert 0 <= SimulationContext(seed=None).rng.random() < 1
        assert engine.trial_seed(0, 0).entropy == (0, 0)


class TestLocation:
    def test_get(self):
        assert SimulationContext(seed=0).get_location() == "localhost"

    def test_set_localhost_is_noop(self):
        ctx = SimulationContext(seed=0)
        ctx.set_location("localhost")
        assert ctx.get_location() == "localhost"

    def test_remote_rejected(self):
        with pytest.raises(InvalidLocationError):
            SimulationContext(seed=0).set_location("qpu.example.com")


class TestApplyOperations:
    """Plans: checked as a whole first, then applied with basis permutations fused."""

    NOT_BIJECTIVE = QuantumOperation("squash", (1, 0), matrix=np.eye(4)[:, [0, 1, 2, 2]])
    DOUBLER = QuantumOperation("bad", (2,), matrix=np.array([[1, 0], [0, 2.0]]))

    def _random(self, n):
        ctx = SimulationContext(seed=0, debug=True)
        reg = ctx.allocate_register(n)
        ctx._set_state(random_state(np.random.default_rng(n), n))
        return ctx, reg

    def test_a_dense_gate_whose_product_cannot_be_allocated_is_refused(self, monkeypatch):
        # on a dense 12-qubit state, H on qubit 0 is the broadcast product. When it
        # cannot be built the gate raises the typed refusal, naming the gate, its
        # qubits and the state-sized bytes, with the state as the gate found it; a
        # plan adds how many of its fused ops ran, here the X before the H
        ctx, reg = self._random(12)
        twin, twin_reg = self._random(12)
        twin_reg.apply_operation(pauli_x(5))

        def refusing(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "matmul", refusing)
        gate = r"H on physical qubits \[0\] needs 65536 bytes, which cannot be allocated"
        with pytest.raises(ResourceExhaustedError, match=gate + ".*1 of the plan's 2 fused ops ran"):
            reg.apply_operations([pauli_x(5), hadamard(0)])
        assert np.array_equal(ctx._state, twin._state)
        with pytest.raises(ResourceExhaustedError, match=gate + "; the state is as the gate found it$"):
            reg.apply_operation(hadamard(0))
        assert np.array_equal(ctx._state, twin._state)
        monkeypatch.undo()
        reg.apply_operation(hadamard(0))  # the same gate runs once numpy can build it
        twin_reg.apply_operation(hadamard(0))
        assert np.array_equal(ctx._state, twin._state)

    def test_slice_cycles_whose_buffers_cannot_be_allocated_are_refused(self, monkeypatch):
        # CNot(2, 7) on a dense 10-qubit state moves slots of 2**8 amplitudes through
        # two buffers, built before the first cycle writes: when numpy cannot build
        # them the gate raises the typed refusal with the state as it found it
        ctx, reg = self._random(10)
        before = ctx._state.copy()

        def refusing(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "empty_like", refusing)
        with pytest.raises(ResourceExhaustedError, match=r"CNot on physical qubits \[2, 7\] needs "
                           r"8192 bytes.*; the state is as the gate found it$"):
            reg.apply_operation(cnot(2, 7))
        assert np.array_equal(ctx._state, before)
        monkeypatch.undo()
        reg.apply_operation(cnot(2, 7))
        index = np.arange(1 << 10)
        assert np.array_equal(ctx._state, before[index ^ (index >> 7 & 1) << 2])

    def _sparse(self):
        # a bound of two words, moved by the CNot, with no bit free: 2 of 1024 amplitudes
        ctx = SimulationContext(seed=0, debug=True)
        reg = ctx.allocate_register(10).apply_operations([hadamard(3), cnot(3, 8)])
        return ctx, reg, ctx._state.copy(), ctx._bound()

    def test_sparse_rows_that_cannot_be_allocated_are_refused(self, monkeypatch):
        # H on a sparse state gathers each group's row, multiplies the rows and
        # writes them back once: when their index cannot be built the gate raises
        # the typed refusal, and the state and its bound are as it found them
        ctx, reg, before, bound = self._sparse()

        def refusing(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(engine, "scatter_bits", refusing)
        with pytest.raises(ResourceExhaustedError, match=r"H on physical qubits \[5\] needs 160 "
                           r"bytes.*; the state is as the gate found it$"):
            reg.apply_operation(hadamard(5))
        assert np.array_equal(ctx._state, before) and ctx._bound() is bound

    def test_a_move_whose_arrays_cannot_be_allocated_is_refused(self):
        # a mover that numpy cannot run leaves the candidates where they were
        ctx, _, before, bound = self._sparse()

        def refusing(words):
            raise MemoryError

        with pytest.raises(ResourceExhaustedError, match="a move of 2 candidate amplitudes needs "
                                                         "64 bytes.*; the state is unchanged$"):
            ctx._move(refusing)
        assert np.array_equal(ctx._state, before) and ctx._bound() is bound

    @pytest.mark.parametrize("junk", ["H", None, 3, hadamard, [hadamard(0)]],
                             ids=["name", "None", "int", "factory", "nested plan"])
    def test_a_non_operation_is_refused_before_any_amplitude_changes(self, junk):
        # refused alone, in a plan and in a trace
        ctx, reg = self._random(3)
        before = ctx._state.copy()
        with pytest.raises(InvalidParameterError, match="not a QuantumOperation"):
            reg.apply_operation(junk)
        for plan in ([junk], [pauli_x(0), junk], [hadamard(1), junk]):
            with pytest.raises(InvalidParameterError, match="not a QuantumOperation"):
                reg.apply_operations(plan)
        with pytest.raises(InvalidParameterError, match="not a QuantumOperation"):
            run_on_basis([pauli_x(0), junk], 3, 1)
        assert np.array_equal(ctx._state, before)

    @staticmethod
    def _basis(n, value):
        """A basis state: a support of one, so classical plans take the sparse path."""
        ctx = SimulationContext(seed=0, debug=True)
        return ctx, ctx.allocate_register(n).set_from_unsigned(value)

    @staticmethod
    def _count_composes(monkeypatch):
        """The groups ``engine._compose`` is called with from now on. Composed runs
        live as long as a cached plan holds them, so the count starts from none."""
        engine._fused.cache_clear()
        gc.collect()
        composed = []
        compose = engine._compose
        monkeypatch.setattr(engine, "_compose",
                            lambda group, union: composed.append(group) or compose(group, union))
        return composed

    @pytest.mark.parametrize("bad", [NOT_BIJECTIVE, DOUBLER])
    def test_a_non_unitary_op_anywhere_leaves_the_state_untouched(self, bad):
        # the 0/1 map dispatches to the permutation kernel but is no bijection
        plan = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2), bad, pauli_x(1))
        ctx, reg = self._random(3)
        before = ctx._state.copy()
        for _ in range(2):  # a cache miss, then a hit
            with pytest.raises(NotUnitaryOperationError, match="'(squash|bad)'"):
                reg.apply_operations(plan)
            assert np.array_equal(ctx._state, before)

    def test_a_plan_traced_first_is_still_checked_for_unitarity(self):
        plan = (pauli_x(0), self.NOT_BIJECTIVE, cnot(1, 0))
        assert run_on_basis(plan, 2, 0b01) == 0b11  # the tracer takes any 0/1 map
        ctx, reg = self._random(2)
        before = ctx._state.copy()
        with pytest.raises(NotUnitaryOperationError):
            reg.apply_operations(plan)
        assert np.array_equal(ctx._state, before)

    def test_a_target_outside_the_view_anywhere_leaves_the_state_untouched(self):
        plan = (pauli_x(0), cnot(0, 1), hadamard(1), toffoli(0, 1, 3))
        self._random(4)[1].apply_operations(plan)  # the fused plan is now cached
        ctx, reg = self._random(3)
        before = ctx._state.copy()
        with pytest.raises(SizeMismatchError, match="Toffoli targets index 3"):
            reg.apply_operations(plan)
        assert np.array_equal(ctx._state, before)

    def test_a_plan_past_the_basis_word_is_left_unfused_and_refused(self):
        plan = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 62), pauli_x(2))
        fused = engine._fused(plan)
        assert fused.ops is plan and fused.top == 62 and fused.classical and fused.unitary
        ctx, reg = self._basis(3, 0b101)
        before = ctx._state.copy()
        with pytest.raises(SizeMismatchError,
                           match="Toffoli targets index 62, outside this 3-qubit register"):
            reg.apply_operations(plan)
        assert np.array_equal(ctx._state, before)
        for width in (3, 62):
            with pytest.raises(SizeMismatchError,
                               match=f"Toffoli targets qubit 62 of a {width}-qubit register"):
                run_on_basis(plan, width, 0)

    def test_a_non_bijective_op_fuses_and_traces_as_gate_by_gate(self):
        # fusion joins gates by structure alone; the plan's unitary fact refuses it
        plan = (pauli_x(0), self.NOT_BIJECTIVE, cnot(1, 0), toffoli(0, 1, 2))
        fused = engine._fused(plan)
        assert len(fused.ops) == 1 and fused.classical and not fused.unitary
        words = np.arange(8)
        for op in plan:
            words = run_on_basis((op,), 3, words)
        assert np.array_equal(run_on_basis(plan, 3, np.arange(8)), words)

    def test_a_non_bijective_op_in_a_classical_plan_leaves_a_basis_state_untouched(self):
        plan = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2), self.NOT_BIJECTIVE, pauli_x(1))
        assert all(op._kernel == "perm" for op in plan)
        ctx, reg = self._basis(3, 0b101)
        before = ctx._state.copy()
        for _ in range(2):
            with pytest.raises(NotUnitaryOperationError, match="'squash'"):
                reg.apply_operations(plan)
            assert np.array_equal(ctx._state, before)

    def test_a_target_outside_the_view_in_a_classical_plan_leaves_a_basis_state_untouched(self):
        plan = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 3))
        self._basis(4, 0)[1].apply_operations(plan)  # the fused plan is now cached
        assert engine._fused(plan).classical
        for ctx, view in (self._basis(3, 0b110), self._basis(6, 0b011010)):
            view = view if len(view) == 3 else view.slice((5, 1, 3))
            before = ctx._state.copy()
            with pytest.raises(SizeMismatchError, match="Toffoli targets index 3"):
                view.apply_operations(plan)
            assert np.array_equal(ctx._state, before)

    def test_a_sparse_classical_plan_moves_only_its_support(self):
        # adjacent targets: one op at a time, the (a, 2**k, b) gather would build a
        # new state-sized array per fused op
        plan = (*(pauli_x(q) for q in range(8)), cnot(0, 9), toffoli(1, 9, 4), cnot(7, 2))
        ctx = SimulationContext(seed=0, debug=True)
        reg = ctx.allocate_register(20)
        reg.apply_operations([hadamard(q) for q in (3, 11, 19)])  # 8 nonzero amplitudes
        reference = SimulationContext(debug=True)
        one_by_one = reference.allocate_register(20)
        reference._state = ctx._state.copy()
        for op in plan:
            one_by_one.apply_operation(op)
        reg.apply_operations(plan)  # composes the fused permutations once
        reg.apply_operations(OperationPlan(plan, ()).inverse().ops)
        state = ctx._state
        ctx._apply = None  # the sparse path makes no per-op pass
        tracemalloc.start()
        try:
            reg.apply_operations(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctx._state is state and np.array_equal(state, reference._state)
        assert peak < state.nbytes / 8  # a bool mask of the state alone would be nbytes / 16

    def test_the_sparse_support_is_exactly_the_nonzero_amplitudes(self):
        # ``_set_state`` binds the nonzero amplitudes: signed zeros are no support and
        # a subnormal amplitude is. At the share, binding one zero more would take
        # the per-op passes, and leaving the subnormal behind would break the state
        n = 12
        limit = int((1 << n) * engine._SUPPORT_SHARE)
        rng = np.random.default_rng(12)
        slots = rng.permutation(1 << n)
        state = np.zeros(1 << n, dtype=complex)
        state[slots[:limit]] = rng.normal(size=limit) + 1j * rng.normal(size=limit)
        state /= np.linalg.norm(state)  # a norm near 1 keeps the subnormals
        state[slots[:3]] = 2.0 ** -1060, 2.0 ** -1060 * 1j, -2.0 ** -1060
        state[slots[limit:limit + 8]] = -0.0
        state[slots[limit + 8:limit + 16]] = complex(0, -0.0)
        state[slots[limit + 16:limit + 24]] = complex(-0.0, -0.0)
        plan = (pauli_x(0), cnot(0, 3), toffoli(5, 0, 8), cnot(8, 2), pauli_x(7), toffoli(1, 6, 4))
        contexts = []
        for _ in range(2):
            ctx = SimulationContext(debug=True)
            ctx.allocate_register(3)
            view = ctx.allocate_register(n - 3).slice((4, 0, 8, 1, 6, 2, 7, 3, 5))
            contexts.append((ctx, view))
        (ctx, view), (reference, one_by_one) = contexts
        ctx._set_state(state)
        assert np.count_nonzero(ctx._state != 0) == limit
        assert np.count_nonzero(ctx._state[slots[:3]]) == 3
        bound = ctx._bound()
        assert sorted(bound.base.tolist()) == sorted(slots[:limit].tolist()) and bound.free == 0
        reference._state = ctx._state.copy()  # no bound: the dense passes
        passes = []
        ctx._apply = lambda op, physical: passes.append(op)
        view.apply_operations(plan)
        for op in plan:
            one_by_one.apply_operation(op)
        assert not passes
        assert np.array_equal(ctx._state, reference._state)

    @staticmethod
    def _count_passes(ctx) -> list:
        """The ops ``ctx`` applies with a pass over its state from now on."""
        passes, apply = [], ctx._apply
        ctx._apply = lambda op, physical: passes.append(op) or apply(op, physical)
        return passes

    def test_an_adder_on_a_superposed_register_never_reads_the_whole_state(self):
        # three Hadamards on one basis word bound the support by 8 indices, which
        # are all that is read; a bool mask of the state alone would be nbytes / 16
        plan = modular_add_ops(range(4), range(4, 8), range(8, 12), range(12, 17), 17, 13).ops
        contexts = []
        for _ in range(3):
            ctx = SimulationContext(seed=0, debug=True)
            reg = ctx.allocate_register(18)
            reg.slice_range(4, 7).set_from_unsigned(5)
            reg.slice_range(8, 11).set_from_unsigned(13)
            reg.apply_operations(hadamard_all_ops(range(1, 4)).ops)
            contexts.append((ctx, reg))
        (ctx, reg), (warm, warmed), (reference, dense) = contexts
        warmed.apply_operations(plan)  # fuses the plan and fills every lazy cache on its path
        reference._state = reference._state.copy()  # a replaced array has no bound
        reference_passes = self._count_passes(reference)
        dense.apply_operations(plan)
        ctx._apply = None
        tracemalloc.start()
        try:
            reg.apply_operations(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reference_passes) == len(engine._fused(plan).ops)
        assert np.array_equal(ctx._state, reference._state)
        assert np.array_equal(warm._state, reference._state)
        assert peak < ctx._state.nbytes / 32
        assert np.count_nonzero(ctx._state) == 8
        assert len(ctx._bound().base) == 8 and ctx._bound().free == 0

    def test_a_bound_at_the_share_is_trusted_and_one_qubit_past_it_is_dense(self):
        n = 12
        assert (1 << n) * engine._SUPPORT_SHARE == 1 << 8
        plan = (cnot(0, 11), toffoli(1, 2, 10), pauli_x(9), cnot(10, 3))
        spread = [hadamard(q) for q in range(8)]
        # (gates, per-op passes): a lone X on qubit 8 moves the 256 candidates and
        # binds them, while a Hadamard frees it in the bound, 512 indices
        for gates, dense in ((spread, False), ([*spread, pauli_x(8)], False),
                             ([*spread, hadamard(8)], True)):
            ctx = SimulationContext(seed=0, debug=True)
            reg = ctx.allocate_register(n)
            for op in gates:
                reg.apply_operation(op)
            if gates[-1] is pauli_x(8):
                assert ctx._bound().free == 0 and len(ctx._bound().base) == 256
            twin = SimulationContext(debug=True)
            twin_reg = twin.allocate_register(n)
            twin._state = ctx._state.copy()  # no bound: the dense passes
            passes, twin_passes = self._count_passes(ctx), self._count_passes(twin)
            reg.apply_operations(plan)
            twin_reg.apply_operations(plan)
            assert bool(passes) == dense and twin_passes
            assert np.array_equal(ctx._state, twin._state)

    @pytest.mark.parametrize("phase", [pauli_z(9), phase_t(9), controlled_u(rotation_k(3), (9,), 8)],
                             ids=["Z", "T", "CR3"])
    def test_a_phase_leaves_a_bound_at_the_share_trusted(self, phase):
        n = 12
        ctx = SimulationContext(seed=0, debug=True)
        reg = ctx.allocate_register(n)
        for op in [*(hadamard(q) for q in range(8)), phase]:  # the bound: 256 indices, the share
            reg.apply_operation(op)
        twin = SimulationContext(debug=True)
        twin_reg = twin.allocate_register(n)
        twin._state = ctx._state.copy()  # a replaced array has no bound
        passes = self._count_passes(ctx)
        plan = (cnot(0, 11), toffoli(1, 2, 10))
        reg.apply_operations(plan)
        twin_reg.apply_operations(plan)
        assert not passes
        assert np.array_equal(ctx._state, twin._state)

    def test_words_that_differ_only_in_free_bits_name_their_indices_once(self):
        ctx = SimulationContext(seed=0, debug=True)
        reg = ctx.allocate_register(8)
        reg.apply_operation(hadamard(0))
        reg.apply_operations([cnot(0, 1)])  # the bound: the words 0 and 0b11 << 6, none free
        assert sorted(ctx._bound().base.tolist()) == [0, 0b11 << 6] and ctx._bound().free == 0
        reg.apply_operation(hadamard(1))
        reg.apply_operation(hadamard(0))  # both words now stand for the same 4 indices
        twin = SimulationContext(debug=True)
        twin_reg = twin.allocate_register(8)
        twin._state = ctx._state.copy()
        passes = self._count_passes(ctx)
        reg.apply_operations([cnot(1, 2)])
        twin_reg.apply_operations([cnot(1, 2)])
        assert not passes
        assert sorted(ctx._bound().base.tolist()) == [0, 0b011 << 5, 0b100 << 5, 0b111 << 5]
        assert np.array_equal(ctx._state, twin._state)

    def test_a_measurement_pins_its_qubits_and_names_each_word_once(self):
        def two_words(*gates):
            ctx = SimulationContext(seed=0, debug=True)
            reg = ctx.allocate_register(8)
            reg.apply_operation(hadamard(0))
            reg.apply_operations([cnot(0, 1)])  # the words 0 and 0b11 << 6, none free
            for op in gates:
                reg.apply_operation(op)
            return ctx, reg

        # the words disagree on qubit 1, which is pinned: the outcome keeps one
        ctx, reg = two_words(hadamard(2))
        bit = reg.measure([1]).to_unsigned()
        assert ctx._bound().base.tolist() == [bit * 0b11 << 6] and ctx._bound().free == 1 << 5
        # qubits 0 and 1 freed: the outcome sets them, and the two words become one
        ctx, reg = two_words(hadamard(1), hadamard(0))
        word = reg.measure([0, 1, 2]).to_unsigned() << 5
        assert ctx._bound().base.tolist() == [word] and ctx._bound().free == 0
        assert set(np.flatnonzero(ctx._state).tolist()) <= {word}

    def test_an_empty_plan_touches_nothing(self, monkeypatch):
        ctx, reg = self._basis(6, 0b101101)
        state, before = ctx._state, ctx._state.copy()
        monkeypatch.setattr(ctx, "_move", None)
        monkeypatch.setattr(ctx, "_apply", None)
        reg.apply_operations(reverse_ops([3]).ops)  # one qubit: no swaps
        assert ctx._state is state and np.array_equal(state, before)
        assert run_on_basis((), 6, 0b101101) == 0b101101

    def test_run_on_basis_finds_a_repeated_tuple_by_identity(self):
        # the calls after the first get the plan of the previous call back by the
        # tuple object, without a cache lookup (a hash of its gates)
        plan = modular_add_ops(range(4), range(4, 8), range(8, 12), range(12, 17), 17, 11).ops
        engine._fused.cache_clear()
        outputs = [run_on_basis(plan, 18, value) for value in (0, 5, 5)]
        assert outputs[1] == outputs[2]
        info = engine._fused.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 0, 1)

    def test_run_on_basis_misses_the_same_tuple_after_a_cache_clear(self):
        plan = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2))
        first = engine._fused(plan)
        engine._fused.cache_clear()
        assert run_on_basis(plan, 3, 0) == 0b111
        info = engine._fused.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
        assert engine._fused(plan) is not first

    def test_run_on_basis_finds_a_returning_tuple_in_the_cache(self):
        a, b = (pauli_x(0), cnot(0, 1)), (cnot(1, 2), pauli_x(1))
        engine._fused.cache_clear()
        first = engine._fused(a)
        assert run_on_basis(b, 3, 0) == 0b010
        assert run_on_basis(a, 3, 0) == 0b110
        assert engine._fused(a) is first
        info = engine._fused.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)

    def test_run_on_basis_counts_an_identity_hit_as_a_use(self):
        # the hot plan, traced twice in a row (the second time found by identity)
        # between 72 plans traced once, is never evicted; this holds whatever else
        # keeps its composed runs alive
        hot = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2))
        engine._fused.cache_clear()
        first = engine._fused(hot)
        for a, b in itertools.permutations(range(3, 12), 2):
            for _ in range(2):
                assert run_on_basis(hot, 12, 0) == 0b111 << 9
            run_on_basis((cnot(a, b), pauli_x(a)), 12, 0)
        assert engine._fused(hot) is first
        info = engine._fused.cache_info()
        assert (info.misses, info.hits) == (1 + 72, 72)

    def test_run_on_basis_reuses_the_fused_plan_of_an_equal_rebuilt_tuple(self, monkeypatch):
        composed = self._count_composes(monkeypatch)
        plan = modular_add_ops(range(4), range(4, 8), range(8, 12), range(12, 17), 17, 11).ops
        expected = run_on_basis(plan, 18, 0b1011 << 10)
        fused = engine._fused(plan)
        composed.clear()
        rebuilt = tuple(list(plan))
        assert rebuilt is not plan
        for ops in (rebuilt, rebuilt, plan):
            assert run_on_basis(ops, 18, 0b1011 << 10) == expected
            assert engine._fused(ops) is fused
        info = engine._fused.cache_info()
        assert composed == [] and (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_run_on_basis_never_serves_a_dropped_plan_for_a_recycled_id(self):
        # plans of one length are built, traced and dropped; once the cache evicts
        # one, a later tuple may take its address, and must still be fused anew
        rng = np.random.default_rng(24)
        catalog = (lambda q: pauli_x(q[0]), lambda q: cnot(q[0], q[1]),
                   lambda q: toffoli(q[0], q[1], q[2]))
        width, seen, recycled = 10, set(), 0
        engine._fused.cache_clear()
        for _ in range(200):
            ops = tuple([catalog[rng.integers(3)](rng.permutation(width)) for _ in range(12)])
            value = int(rng.integers(1 << width))
            assert run_on_basis(ops, width, value) == trace_subindices(list(ops), value, width)
            recycled += id(ops) in seen
            seen.add(id(ops))
            del ops
        assert recycled  # the guard was exercised
        assert engine._fused.cache_info().currsize == 64

    def test_runs_of_permutations_fuse_and_barriers_pass_through(self):
        one = QuantumOperation("one", (), matrix=np.eye(1))
        plan = OperationPlan((pauli_x(0), cnot(0, 5), toffoli(5, 0, 2), hadamard(3), one,
                              cnot(3, 4), pauli_x(9), pauli_x(1), cnot(1, 7), pauli_x(8)), ())
        reg = SimulationContext(seed=0).allocate_register(10)
        plan_facts = engine._fused(plan.ops)
        fused = plan_facts.ops
        assert plan_facts.top == 9 and not plan_facts.classical
        assert [op.targets for op in fused] == [
            (0, 2, 5), (3,), (), (1, 3, 4, 7, 8, 9)]
        assert fused[1] is hadamard(3) and fused[2] is one
        reg.apply_operations(plan.ops)
        assert engine._fused(plan.ops) is engine._fused(plan.ops)  # cached
        assert len(plan) == 10 and plan.inverse().ops[0] is pauli_x(8)  # plans stay unfused

    def test_identical_runs_share_one_fused_op(self, monkeypatch):
        # runs hash by their gates' identity: the same gates again give the same
        # fused instance, other gates (or equal gates built anew) another one
        composed = self._count_composes(monkeypatch)
        run = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2))
        rebuilt = tuple(QuantumOperation(op.name, op.targets, matrix=op.matrix) for op in run)
        other = (cnot(0, 1), pauli_x(0))
        fused = engine._fuse((*run, hadamard(0), *other, hadamard(1), *run, hadamard(2), *rebuilt))
        assert [op.targets for op in fused[::2]] == [(0, 1, 2), (0, 1), (0, 1, 2), (0, 1, 2)]
        assert fused[0] is fused[4]
        assert len({id(op) for op in fused[::2]}) == 3 and len(composed) == 3
        assert fused[1] is hadamard(0)

    def test_plans_built_apart_share_each_composed_run(self, monkeypatch):
        # the second plan composes only the run the first does not hold
        composed = self._count_composes(monkeypatch)
        run, other = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2)), (cnot(1, 0), pauli_x(1))
        first = engine._fused((*run, hadamard(0))).ops
        second = engine._fused((hadamard(1), *other, hadamard(2), *run)).ops
        assert second[-1] is first[0] and composed == [list(run), list(other)]

    def test_composed_runs_die_with_the_last_plan_that_holds_them(self):
        # what holds a composed run outside the plan cache (a test parameter) keeps it
        engine._fused.cache_clear()
        gc.collect()
        before = set(engine._composed.keys())
        plan = modular_add_ops(range(4), range(4, 8), range(8, 12), range(12, 17), 17, 11)
        run_on_basis(plan.ops, 18, 0)
        rebuilt = tuple(QuantumOperation(op.name, op.targets, matrix=op.matrix)
                        for op in (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2)))
        held = engine._fuse(rebuilt)
        assert len(engine._composed) > len(before) + 1
        engine._fused.cache_clear()
        gc.collect()
        assert set(engine._composed.keys()) == before | {rebuilt}
        del held
        gc.collect()
        assert set(engine._composed.keys()) == before

    def test_the_fifteen_modexp_plan_composes_each_distinct_run_once(self, monkeypatch):
        # N=15, base 7: 10,856 gates of at most 3 qubits fuse to one run per greedy
        # span of engine._SLICE_MOVE_ARITY qubits, of which at most 128 differ
        composed = self._count_composes(monkeypatch)
        width, reg1, reg2 = 30, range(8), range(8, 12)
        plan = modular_exponentiation_ops(reg1, reg2, range(12, 30), 7, 15)
        fused = engine._fuse(plan.ops)
        spans, union = 0, set()
        for op in plan.ops:  # a new span wherever a gate would widen the last past the width
            if not union or len(union.union(op.targets)) > engine._SLICE_MOVE_ARITY:
                spans, union = spans + 1, set()
            union.update(op.targets)
        assert len(plan) == 10856 and len(fused) == spans
        assert max(op.arity for op in fused) == engine._SLICE_MOVE_ARITY
        assert len(composed) <= 128
        assert len({id(op) for op in fused}) == len(composed)
        inputs = np.array([(x << (width - 8)) | (1 << (width - 12)) for x in range(256)])
        pad = HARD_QUBIT_LIMIT - width
        gate_by_gate = trace_words(plan.ops, inputs << pad) >> pad
        assert np.array_equal(run_on_basis(plan.ops, width, inputs), gate_by_gate)
        assert [bits_of(int(out), width, reg2) for out in gate_by_gate] == [
            pow(7, x, 15) for x in range(256)]

    def test_a_fused_eight_qubit_permutation_moves_slices_in_place(self):
        # a fused group on scattered targets takes the slice moves, which copy at
        # most one slice at a time, not the axis move's state-sized temporaries;
        # a full-support state keeps the plan off the sparse path
        scattered = (0, 2, 5, 6, 9, 11, 12, 15)
        plan = (*(pauli_x(q) for q in scattered), cnot(2, 9), toffoli(0, 15, 6), cnot(12, 5))
        ctx, reg = self._random(16)
        (fused,) = engine._fused(plan).ops
        assert fused.targets == scattered
        reg.apply_operations(plan)  # composes the permutation and its cycles once
        tracemalloc.start()
        try:
            reg.apply_operations(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ctx._state.nbytes / 32


class TestDoubleHadamardProperty:
    def test_single_qubit_basis_states(self, debug_ctx):
        for start in (0, 1):
            ctx = debug_ctx()
            reg = ctx.allocate_register(1).set_from_unsigned(start)
            expected = reg.peek_amplitudes().copy()
            reg.apply_operations([hadamard(0), hadamard(0)])
            assert np.abs(reg.peek_amplitudes() - expected).max() < 1e-9


class TestSliceAliasing:
    def test_slice_apply_equals_retarget(self, debug_ctx):
        # apply(slice(v, s), op) must equal apply(v, op retargeted through s)
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            order = list(rng.permutation(n))
            op = cnot(0, 1)

            ctx_a = debug_ctx(seed=1)
            view_a = ctx_a.allocate_register(n)
            _randomize(view_a, rng)
            state = ctx_a._state.copy()
            view_a.slice(order).apply_operation(op)

            ctx_b = debug_ctx(seed=1)
            view_b = ctx_b.allocate_register(n)
            ctx_b._set_state(state)
            view_b.apply_operation(retarget(op, (order[0], order[1])))

            assert np.abs(ctx_a._state - ctx_b._state).max() < 1e-12


def _randomize(view, rng):
    for q in range(len(view)):
        if rng.random() < 0.6:
            view.apply_operation(hadamard(q))
        if rng.random() < 0.3:
            view.apply_operation(pauli_x(q))
