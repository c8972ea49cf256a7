import itertools
import math
import tracemalloc

import numpy as np
import pytest

import sharq
from sharq import (
    ClassicalResult,
    SimulationContext,
    cnot,
    engine,
    hadamard,
    pauli_x,
    retarget,
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
from sharq.arithmetic import OperationPlan, reverse_ops, run_on_basis
from sharq.gates import QuantumOperation, toffoli

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


@pytest.mark.parametrize("call", [
    lambda x: SimulationContext(qubit_cap=x),
    lambda x: SimulationContext(seed=0).allocate_register(x),
    lambda x: SimulationContext(seed=0).allocate_register(3).set_from_unsigned(x),
    lambda x: run_on_basis((pauli_x(0),), x, 1),
], ids=["qubit_cap", "allocate_register", "set_from_unsigned", "run_on_basis"])
def test_sizes_and_values_must_be_integers(call):
    for integer in (3, True, np.int64(2), np.uint8(3)):
        call(integer)
    for other in (2.5, 2.0, "3", None, np.float64(3)):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call(other)


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
        fused, top, classical = engine._fused(plan.ops)
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
        (fused,), _, _ = engine._fused(plan)
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
