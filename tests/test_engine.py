import itertools
import math
import tracemalloc

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
    SizeMismatchError,
    ValueOutOfRangeError,
)
from sharq.algorithms import circuit_uf, semantic_uf
from sharq.arithmetic import OperationPlan, reverse_ops, run_on_basis
from sharq.gates import QuantumOperation, toffoli
from sharq.shor import shor_factor

from conftest import random_state

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
    for other in (value + 0.5, float(value), "3", None, np.float64(value)):
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
], ids=["slice", "measure", "QuantumOperation", "retarget", "controlled_u", "walsh",
        "hadamard_all_ops", "qft_ops", "reverse_ops", "add_n_ops", "modular_add_ops",
        "controlled_modular_multiply_ops", "modular_exponentiation_ops"])
def test_indices_must_be_distinct_integers(call, indices):
    expected = call(indices)
    for kind in (np.int64, np.uint8):
        assert call([kind(i) for i in indices]) == expected
    for other in (indices[0] + 0.5, float(indices[0]), np.float64(indices[0])):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call([other, *indices[1:]])
    with pytest.raises(DuplicateIndexesError):
        call([indices[0]] * len(indices))


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
        with pytest.raises(NotClassicalStateError, match="physical qubit 5 "):
            reg.set_from_unsigned(0)
        assert len(calls) == 1


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

    @staticmethod
    def _basis(n, value):
        """A basis state: a support of one, so classical plans take the sparse path."""
        ctx = SimulationContext(seed=0, debug=True)
        return ctx, ctx.allocate_register(n).set_from_unsigned(value)

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
        assert peak < state.nbytes / 8  # the bool mask of the support count is nbytes / 16

    def test_the_sparse_support_is_exactly_the_nonzero_amplitudes(self):
        # signed zeros are no support and a subnormal amplitude is: at the support
        # limit, counting one zero more would take the per-op passes, and leaving
        # the subnormal behind would break the state
        n = 12
        limit = int((1 << n) * engine._SUPPORT_SHARE)
        rng = np.random.default_rng(12)
        slots = rng.permutation(1 << n)
        state = np.zeros(1 << n, dtype=complex)
        state[slots[:limit]] = rng.normal(size=limit) + 1j * rng.normal(size=limit)
        state[slots[:3]] = 5e-324, 5e-324j, -5e-324
        state[slots[limit:limit + 8]] = -0.0
        state[slots[limit + 8:limit + 16]] = complex(0, -0.0)
        state[slots[limit + 16:limit + 24]] = complex(-0.0, -0.0)
        assert np.count_nonzero(state != 0) == limit
        plan = (pauli_x(0), cnot(0, 3), toffoli(5, 0, 8), cnot(8, 2), pauli_x(7), toffoli(1, 6, 4))
        contexts = []
        for _ in range(2):
            ctx = SimulationContext(debug=True)
            ctx.allocate_register(3)
            view = ctx.allocate_register(n - 3).slice((4, 0, 8, 1, 6, 2, 7, 3, 5))
            ctx._state = state.copy()
            contexts.append((ctx, view))
        (ctx, view), (reference, one_by_one) = contexts
        passes = []
        ctx._apply = lambda op, physical: passes.append(op)
        view.apply_operations(plan)
        for op in plan:
            one_by_one.apply_operation(op)
        assert not passes
        assert np.array_equal(ctx._state, reference._state)

    def test_an_empty_plan_touches_nothing(self, monkeypatch):
        ctx, reg = self._basis(6, 0b101101)
        state, before = ctx._state, ctx._state.copy()
        monkeypatch.setattr(ctx, "_permute_support", None)  # would count the support
        monkeypatch.setattr(ctx, "_apply", None)
        reg.apply_operations(reverse_ops([3]).ops)  # one qubit: no swaps
        assert ctx._state is state and np.array_equal(state, before)
        assert run_on_basis((), 6, 0b101101) == 0b101101

    def test_a_plan_in_use_outlives_single_use_plans(self, monkeypatch):
        # a least-recently-used bound keeps the hot plan, traced between 72 plans
        # that are each traced once; oldest-first eviction would drop it
        composed = []
        compose = engine._compose
        monkeypatch.setattr(engine, "_compose",
                            lambda group, union: composed.append(group) or compose(group, union))
        hot = (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2))
        engine._fused.cache_clear()
        for a, b in itertools.permutations(range(3, 12), 2):
            assert run_on_basis(hot, 12, 0) == 0b111 << 9
            run_on_basis((cnot(a, b), pauli_x(a)), 12, 0)
        assert sum(group == list(hot) for group in composed) == 1

    def test_runs_of_permutations_fuse_and_barriers_pass_through(self):
        one = QuantumOperation("one", (), matrix=np.eye(1))
        plan = OperationPlan((pauli_x(0), cnot(0, 5), toffoli(5, 0, 2), hadamard(3), one,
                              cnot(3, 4), pauli_x(9), pauli_x(1), cnot(1, 7), pauli_x(8)), ())
        reg = SimulationContext(seed=0).allocate_register(10)
        fused, top, classical, unitary = engine._fused(plan.ops)
        assert top == 9 and not classical
        assert [op.targets for op in fused] == [
            (0, 2, 5), (3,), (), (1, 3, 4, 7, 8, 9)]
        assert fused[1] is hadamard(3) and fused[2] is one
        reg.apply_operations(plan.ops)
        assert engine._fused(plan.ops) is engine._fused(plan.ops)  # cached
        assert len(plan) == 10 and plan.inverse().ops[0] is pauli_x(8)  # plans stay unfused

    def test_a_fused_eight_qubit_permutation_moves_slices_in_place(self):
        # a fused group on scattered targets takes the slice moves, which copy at
        # most one slice at a time, not the axis move's state-sized temporaries;
        # a full-support state keeps the plan off the sparse path
        scattered = (0, 2, 5, 6, 9, 11, 12, 15)
        plan = (*(pauli_x(q) for q in scattered), cnot(2, 9), toffoli(0, 15, 6), cnot(12, 5))
        ctx, reg = self._random(16)
        (fused,), _, _, _ = engine._fused(plan)
        assert fused.targets == scattered
        reg.apply_operations(plan)  # composes the permutation and its cycles once
        tracemalloc.start()
        try:
            reg.apply_operations(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ctx._state.nbytes / 4


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
