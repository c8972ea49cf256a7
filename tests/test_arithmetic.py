import math

import numpy as np
import pytest

from sharq import SimulationContext, arithmetic, engine
from sharq.arithmetic import (
    OperationPlan,
    add_n_ops,
    carry_inverse_ops,
    carry_ops,
    controlled_modular_multiply_ops,
    modular_add_ops,
    modular_exponentiation_ops,
    reverse_ops,
    run_on_basis,
    sum_ops,
)
from sharq.errors import (
    DuplicateIndexesError,
    InvalidParameterError,
    SizeMismatchError,
)
from sharq.gates import HARD_QUBIT_LIMIT, QuantumOperation, cnot, hadamard, pauli_x, pauli_z, toffoli

from conftest import bits_of, put_bits

CATALOG_NAMES = {"CNot", "Toffoli", "X"}


def classical_sum(c, x, y):
    return c ^ x ^ y


def classical_carry_out(c, x, y):
    return (x & y) ^ (c & (x ^ y))  # majority when the ancilla starts 0


class TestRunOnBasis:
    def test_array_trace_of_the_fifteen_modexp(self):
        # one array call over all 256 exponents against per-int traces and mod_pow
        n, width = 4, 30
        reg1, reg2, anc = range(8), range(8, 12), range(12, 30)
        plan = modular_exponentiation_ops(reg1, reg2, anc, 7, 15)
        inputs = [put_bits(put_bits(0, width, reg1, x), width, reg2, 1) for x in range(1 << (2 * n))]
        traced = run_on_basis(plan.ops, width, np.array(inputs))
        assert traced.dtype == np.int64 and traced.shape == (256,)
        for x in range(256):
            out = int(traced[x])
            assert bits_of(out, width, reg2) == pow(7, x, 15)
            assert bits_of(out, width, reg1) == x
            assert bits_of(out, width, anc) == 0
        for x in (0, 1, 77, 255):
            assert run_on_basis(plan.ops, width, inputs[x]) == int(traced[x])

    def test_int_in_gives_python_int_out(self):
        out = run_on_basis([cnot(0, 1), toffoli(0, 1, 2)], 3, 0b100)
        assert type(out) is int and out == 0b111
        assert type(run_on_basis([], 3, np.int64(5))) is int

    def test_full_word_width(self):
        top = 1 << (HARD_QUBIT_LIMIT - 1)
        assert run_on_basis([cnot(0, HARD_QUBIT_LIMIT - 1)], HARD_QUBIT_LIMIT, top) == top | 1

    def test_permutation_operations_are_traced(self):
        swap_perm = QuantumOperation("P", (2, 0), permutation=np.array([0, 2, 1, 3]))
        assert run_on_basis([swap_perm], 3, 0b001) == 0b100

    @pytest.mark.parametrize("width,value", [
        (HARD_QUBIT_LIMIT + 1, 0), (-1, 0), (3, 8), (3, -1), (3, np.array([1, 8])),
        (3, 2 ** 70), (3, 1.0), (3, True), (3, np.bool_(False)), (3, np.int64(8)),
        (3, np.int64(-1)), (3, np.uint64(2 ** 63)), (3, 2 ** 63), (HARD_QUBIT_LIMIT, 2 ** 62),
    ])
    def test_refused_inputs(self, width, value):
        with pytest.raises(InvalidParameterError):
            run_on_basis([], width, value)

    @pytest.mark.parametrize("op", [hadamard(0), pauli_z(0)])
    def test_non_classical_gates_refused(self, op):
        with pytest.raises(InvalidParameterError):
            run_on_basis([op], 1, 0)
        with pytest.raises(InvalidParameterError):
            run_on_basis([op], 1, np.array([0, 1]))

    def test_targets_must_fit_the_width(self):
        with pytest.raises(SizeMismatchError):
            run_on_basis([pauli_x(3)], 3, 0)
        with pytest.raises(SizeMismatchError):
            run_on_basis([cnot(0, 63)], HARD_QUBIT_LIMIT, 0)

    @pytest.mark.parametrize("width,value,op,error", [
        (-1, 0, pauli_x(0), InvalidParameterError),
        (HARD_QUBIT_LIMIT + 1, 0, pauli_x(0), InvalidParameterError),
        (3, 8, pauli_x(0), InvalidParameterError),
        (3, 0, pauli_x(3), SizeMismatchError),
        (HARD_QUBIT_LIMIT, 0, cnot(0, 63), SizeMismatchError),
        (3, 0, hadamard(1), InvalidParameterError),
        (3, 0, pauli_z(1), InvalidParameterError),
        (3, 0, toffoli(0, 1, 1 << 63), SizeMismatchError),  # a target past int64
        (3, 0, toffoli(0, 1, 1 << 64), SizeMismatchError),  # a target past uint64
    ])
    def test_refusals_come_before_any_fusing(self, width, value, op, error):
        # once the inputs pass, a plan refused for a gate is fused and cached but
        # never traced, and the miss and the repeat refuse it alike
        plan = (cnot(0, 1), toffoli(0, 1, 2), op, pauli_x(0))
        engine._fused.cache_clear()
        refusals = []
        for _ in range(2):
            with pytest.raises(error) as refused:
                run_on_basis(plan, width, value)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        inputs_fit = 0 <= width <= HARD_QUBIT_LIMIT and value >> width == 0
        info = engine._fused.cache_info()
        assert (info.misses, info.hits, info.currsize) == (inputs_fit, 0, inputs_fit)

    def test_zero_target_gates_pass_through_unfused(self):
        one = QuantumOperation("one", (), matrix=np.eye(1))
        plan = (one, pauli_x(0), cnot(0, 1), one, toffoli(0, 1, 2), one)
        for value in range(8):
            expected = value
            for op in plan:
                expected = run_on_basis([op], 3, expected)
            assert run_on_basis(plan, 3, value) == expected
        minus = QuantumOperation("minus", (), matrix=-np.eye(1))
        with pytest.raises(InvalidParameterError):
            run_on_basis((pauli_x(0), minus), 3, 0)


class TestOperationPlan:
    def test_sequences_are_kept_as_tuples(self):
        plan = OperationPlan([pauli_x(0), cnot(0, 1)], [1, 0])
        assert plan.ops == (pauli_x(0), cnot(0, 1)) and plan.result_indices == (1, 0)
        assert plan.inverse().ops == (cnot(0, 1), pauli_x(0))


class TestSumGate:
    def test_truth_table(self):
        plan = sum_ops(0, 1, 2)
        for value in range(8):
            c, x, y = (value >> 2) & 1, (value >> 1) & 1, value & 1
            out = run_on_basis(plan.ops, 3, value)
            assert (out >> 2) & 1 == c
            assert (out >> 1) & 1 == x
            assert out & 1 == classical_sum(c, x, y)

    def test_spec_examples(self):
        plan = sum_ops(0, 1, 2)
        assert run_on_basis(plan.ops, 3, 0b110) & 1 == 0  # 1 ^ 1 ^ 0
        assert run_on_basis(plan.ops, 3, 0b000) == 0

    def test_self_inverse(self):
        plan = sum_ops(0, 1, 2)
        for value in range(8):
            assert run_on_basis(plan.ops + plan.ops, 3, value) == value

    def test_duplicate_indexes(self):
        with pytest.raises(DuplicateIndexesError):
            sum_ops(0, 0, 1)


class TestCarryGate:
    def test_carry_generation(self):
        plan = carry_ops(0, 1, 2, 3)
        for value in range(16):
            c, x, y, a = (value >> 3) & 1, (value >> 2) & 1, (value >> 1) & 1, value & 1
            out = run_on_basis(plan.ops, 4, value)
            assert (out >> 3) & 1 == c
            assert (out >> 2) & 1 == x
            assert (out >> 1) & 1 == x ^ y
            assert out & 1 == a ^ classical_carry_out(c, x, y)

    def test_spec_example_generates_carry(self):
        plan = carry_ops(0, 1, 2, 3)
        out = run_on_basis(plan.ops, 4, 0b0110)  # c=0, x=1, y=1, a=0
        assert out & 1 == 1

    def test_all_zero(self):
        plan = carry_ops(0, 1, 2, 3)
        assert run_on_basis(plan.ops, 4, 0) == 0

    def test_inverse_is_reversed_sequence(self):
        forward = carry_ops(0, 1, 2, 3)
        backward = carry_inverse_ops(0, 1, 2, 3)
        assert [op.name for op in backward.ops] == [op.name for op in reversed(forward.ops)]
        assert [op.targets for op in backward.ops] == [
            op.targets for op in reversed(forward.ops)
        ]

    def test_carry_then_inverse_is_identity(self):
        plan = carry_ops(0, 1, 2, 3).ops + carry_inverse_ops(0, 1, 2, 3).ops
        for value in range(16):
            assert run_on_basis(plan, 4, value) == value

    def test_inverse_y_output(self):
        plan = carry_inverse_ops(0, 1, 2, 3)
        for value in range(16):
            x, y = (value >> 2) & 1, (value >> 1) & 1
            out = run_on_basis(plan.ops, 4, value)
            assert (out >> 1) & 1 == x ^ y


class TestAdder:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_classical_addition(self, n):
        x_idx = list(range(n))
        y_idx = list(range(n, 2 * n))
        a_idx = list(range(2 * n, 3 * n + 1))
        width = 3 * n + 1
        plan = add_n_ops(x_idx, y_idx, a_idx)
        assert all(op.name in CATALOG_NAMES for op in plan.ops)
        for x in range(1 << n):
            for y in range(1 << n):
                value = put_bits(put_bits(0, width, x_idx, x), width, y_idx, y)
                out = run_on_basis(plan.ops, width, value)
                assert bits_of(out, width, plan.result_indices) == x + y
                assert bits_of(out, width, x_idx) == x
                assert bits_of(out, width, a_idx[1:]) == 0  # carries restored

    def test_engine_route_agrees(self):
        # the amplitude engine reproduces the classical trace on basis inputs
        n = 2
        plan = add_n_ops(range(2), range(2, 4), range(4, 7))
        ctx = SimulationContext(seed=0)
        reg = ctx.allocate_register(7)
        for x in range(4):
            for y in range(4):
                reg.set_from_unsigned(0)
                reg.slice(range(0, 2)).set_from_unsigned(x)
                reg.slice(range(2, 4)).set_from_unsigned(y)
                reg.apply_operations(plan.ops)
                measured = reg.measure()
                got = bits_of(measured.to_unsigned(), 7, plan.result_indices)
                assert got == x + y

    def test_inverse_plan_subtracts(self):
        plan = add_n_ops(range(3), range(3, 6), range(6, 10))
        width = 10
        forward = run_on_basis(
            plan.ops, width, put_bits(put_bits(0, width, range(3), 3), width, range(3, 6), 2)
        )
        assert bits_of(forward, width, plan.result_indices) == 5
        restored = run_on_basis(plan.inverse().ops, width, forward)
        assert bits_of(restored, width, range(3, 6)) == 2

    def test_error_contract(self):
        with pytest.raises(InvalidParameterError, match="must be a sequence"):
            add_n_ops(None, [1], [2, 3])
        with pytest.raises(SizeMismatchError):
            add_n_ops([0], [1, 2], [3, 4])
        with pytest.raises(SizeMismatchError):
            add_n_ops([0], [1], [2, 3, 4])
        with pytest.raises(DuplicateIndexesError):
            add_n_ops([0], [0], [1, 2])


class TestModularAdder:
    @pytest.mark.parametrize("modulus", [3, 5, 7])
    def test_exhaustive(self, modulus):
        n = 3
        x_idx = list(range(3))
        y_idx = list(range(3, 6))
        nr_idx = list(range(6, 9))
        scratch = list(range(9, 13))
        flag = 13
        width = 14
        plan = modular_add_ops(x_idx, y_idx, nr_idx, scratch, flag, modulus)
        assert all(op.name in CATALOG_NAMES for op in plan.ops)
        for a in range(modulus):
            for b in range(modulus):
                value = put_bits(0, width, x_idx, a)
                value = put_bits(value, width, y_idx, b)
                value = put_bits(value, width, nr_idx, modulus)
                out = run_on_basis(plan.ops, width, value)
                assert bits_of(out, width, y_idx) == (a + b) % modulus
                assert bits_of(out, width, x_idx) == a
                assert bits_of(out, width, nr_idx) == modulus
                # every scratch qubit is restored to |0>
                assert bits_of(out, width, scratch + [flag]) == 0

    def test_zero_plus_zero(self):
        plan = modular_add_ops(range(3), range(3, 6), range(6, 9), range(9, 13), 13, 5)
        value = put_bits(0, 14, range(6, 9), 5)
        out = run_on_basis(plan.ops, 14, value)
        assert bits_of(out, 14, range(3, 6)) == 0

    def test_engine_route_on_superposed_input(self, debug_ctx):
        # (|1> + |3>)/sqrt(2) in X with b=2, N=5 must evolve linearly into
        # the entangled (|1>|3> + |3>|0>)/sqrt(2); a classical trace cannot
        # see this, only the amplitude engine can
        from sharq.gates import hadamard

        plan = modular_add_ops(range(3), range(3, 6), range(6, 9), range(9, 13), 13, 5)
        ctx = debug_ctx()
        reg = ctx.allocate_register(14)
        reg.slice(range(3)).set_from_unsigned(1)
        reg.slice(range(3, 6)).set_from_unsigned(2)
        reg.slice(range(6, 9)).set_from_unsigned(5)
        reg.apply_operation(hadamard(1))  # X register becomes (|001> + |011>)/sqrt(2)
        reg.apply_operations(plan.ops)
        state = reg.peek_amplitudes()
        expected = np.zeros(1 << 14, dtype=complex)
        for a in (1, 3):
            label = put_bits(0, 14, range(3), a)
            label = put_bits(label, 14, range(3, 6), (a + 2) % 5)
            label = put_bits(label, 14, range(6, 9), 5)
            expected[label] = 1 / math.sqrt(2)
        assert np.abs(state - expected).max() < 1e-9

    def test_width_validation(self):
        with pytest.raises(SizeMismatchError):
            modular_add_ops(range(3), range(3, 5), range(6, 9), range(9, 13), 13, 5)
        with pytest.raises(SizeMismatchError):
            modular_add_ops(range(3), range(3, 6), range(6, 9), range(9, 12), 13, 5)
        with pytest.raises(InvalidParameterError):
            modular_add_ops(range(3), range(3, 6), range(6, 9), range(9, 13), 13, 9)
        with pytest.raises(DuplicateIndexesError):
            modular_add_ops(range(3), range(2, 5), range(6, 9), range(9, 13), 13, 5)


class TestControlledModularMultiply:
    def test_spec_example(self):
        plan = controlled_modular_multiply_ops(0, [1, 2, 3], [4, 5, 6], [7, 8, 9],
                                               range(10, 18), 3, 5)
        width = 18
        value = put_bits(0, width, [0], 1)
        value = put_bits(value, width, [1, 2, 3], 4)
        value = put_bits(value, width, [7, 8, 9], 5)
        out = run_on_basis(plan.ops, width, value)
        assert bits_of(out, width, [4, 5, 6]) == 2  # 3*4 mod 5

    @pytest.mark.parametrize("multiplier,modulus", [(3, 5), (2, 7), (5, 7)])
    def test_exhaustive_with_pass_through(self, multiplier, modulus):
        n = 3
        plan = controlled_modular_multiply_ops(0, [1, 2, 3], [4, 5, 6], [7, 8, 9],
                                               range(10, 18), multiplier, modulus)
        width = 18
        outputs = set()
        for control in (0, 1):
            for a in range(modulus):
                value = put_bits(0, width, [0], control)
                value = put_bits(value, width, [1, 2, 3], a)
                value = put_bits(value, width, [7, 8, 9], modulus)
                out = run_on_basis(plan.ops, width, value)
                want = (multiplier * a) % modulus if control else a
                assert bits_of(out, width, [4, 5, 6]) == want
                assert bits_of(out, width, [1, 2, 3]) == a
                assert bits_of(out, width, list(range(10, 18))) == 0
                outputs.add((control, bits_of(out, width, [4, 5, 6])))
        # injective on the meaningful inputs: a bijection restricted to a < N
        assert len(outputs) == 2 * modulus

    def test_shared_factor_rejected(self):
        with pytest.raises(InvalidParameterError):
            controlled_modular_multiply_ops(0, [1, 2, 3], [4, 5, 6], [7, 8, 9],
                                            range(10, 18), 5, 15)

    @pytest.mark.parametrize("registers, match", [
        (([1, 2, 3], [4, 5], [7, 8, 9], range(10, 18)), "share one width"),
        (([1, 2], [4, 5, 6], [7, 8, 9], range(10, 18)), "share one width"),
        (([1, 2, 3], [4, 5, 6], [7, 8], range(10, 18)), "share one width"),
        (([1, 2, 3], [4, 5, 6], [7, 8, 9], range(10, 17)), r"2n\+2 scratch"),
    ], ids=["y", "x", "modulus", "scratch"])
    def test_width_validation(self, registers, match):
        with pytest.raises(SizeMismatchError, match=match):
            controlled_modular_multiply_ops(0, *registers, 3, 5)

    def test_the_adder_is_built_once_per_multiply(self, monkeypatch):
        calls = []
        original = arithmetic.modular_add_ops

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(arithmetic, "modular_add_ops", counting)
        plan = controlled_modular_multiply_ops(0, [1, 2, 3], [4, 5, 6], [7, 8, 9],
                                               range(10, 18), 3, 5)
        assert len(calls) == 1
        adder = original(*calls[0]).ops
        assert sum(plan.ops[i:i + len(adder)] == adder for i in range(len(plan.ops))) == 3

    def test_engine_route_on_superposed_control(self, debug_ctx):
        # control (|0> + |1>)/sqrt(2) with a=4: the output register becomes
        # entangled with the control, holding 4 on one branch, 3*4 mod 5 = 2
        # on the other
        from sharq.gates import hadamard

        plan = controlled_modular_multiply_ops(0, [1, 2, 3], [4, 5, 6], [7, 8, 9],
                                               range(10, 18), 3, 5)
        ctx = debug_ctx(qubit_cap=18)
        reg = ctx.allocate_register(18)
        reg.slice([1, 2, 3]).set_from_unsigned(4)
        reg.slice([7, 8, 9]).set_from_unsigned(5)
        reg.apply_operation(hadamard(0))
        reg.apply_operations(plan.ops)
        state = reg.peek_amplitudes()
        expected = np.zeros(1 << 18, dtype=complex)
        for control, out in ((0, 4), (1, 2)):
            label = put_bits(0, 18, [0], control)
            label = put_bits(label, 18, [1, 2, 3], 4)
            label = put_bits(label, 18, [4, 5, 6], out)
            label = put_bits(label, 18, [7, 8, 9], 5)
            expected[label] = 1 / math.sqrt(2)
        assert np.abs(state - expected).max() < 1e-9


class TestModularExponentiation:
    def test_all_exponents_for_small_modulus(self):
        # oracle: square-and-multiply mod_pow over every basis input
        n = 3
        reg1 = list(range(6))
        reg2 = list(range(6, 9))
        anc = list(range(9, 9 + 4 * n + 2))
        width = 9 * n + 2
        plan = modular_exponentiation_ops(reg1, reg2, anc, 2, 5)
        assert all(op.name in CATALOG_NAMES for op in plan.ops)
        for x in range(1 << (2 * n)):
            value = put_bits(0, width, reg1, x)
            value = put_bits(value, width, reg2, 1)
            out = run_on_basis(plan.ops, width, value)
            assert bits_of(out, width, reg2) == pow(2, x, 5)
            assert bits_of(out, width, reg1) == x
            assert bits_of(out, width, anc) == 0

    def test_worked_f_values_for_fifteen(self):
        n = 4
        reg1 = list(range(8))
        reg2 = list(range(8, 12))
        anc = list(range(12, 12 + 4 * n + 2))
        width = 9 * n + 2
        plan = modular_exponentiation_ops(reg1, reg2, anc, 8, 15)
        for x, want in [(0, 1), (1, 8), (2, 4), (3, 2), (14, 4)]:
            value = put_bits(0, width, reg1, x)
            value = put_bits(value, width, reg2, 1)
            out = run_on_basis(plan.ops, width, value)
            assert bits_of(out, width, reg2) == want

    def test_agrees_with_semantic_oracle(self):
        # circuit route vs one controlled-multiply oracle per set exponent bit
        from sharq.algorithms import semantic_uf

        n = 3
        modulus, base = 5, 3
        reg1 = list(range(6))
        reg2 = list(range(6, 9))
        anc = list(range(9, 9 + 14))
        width = 9 * n + 2
        plan = modular_exponentiation_ops(reg1, reg2, anc, base, modulus)
        for x in range(1 << (2 * n)):
            semantic_out = 1
            for j in range(2 * n):
                if (x >> j) & 1:
                    oracle = semantic_uf(pow(base, 1 << j, modulus), modulus)
                    semantic_out = int(oracle.permutation[(1 << n) | semantic_out]) & ((1 << n) - 1)
            value = put_bits(put_bits(0, width, reg1, x), width, reg2, 1)
            circuit_out = bits_of(run_on_basis(plan.ops, width, value), width, reg2)
            assert circuit_out == semantic_out == pow(base, x, modulus)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            modular_exponentiation_ops(range(6), range(6, 9), range(9, 23), 5, 15)
        with pytest.raises(SizeMismatchError):
            modular_exponentiation_ops(range(5), range(5, 8), range(8, 22), 2, 5)

    @pytest.mark.parametrize("ancillas", [range(9, 22), range(9, 24)], ids=["short", "long"])
    def test_ancilla_count_validation(self, ancillas):
        with pytest.raises(SizeMismatchError, match=r"4n\+2 ancilla"):
            modular_exponentiation_ops(range(6), range(6, 9), ancillas, 2, 5)


class TestReversal:
    def test_basis_reversal(self):
        # oracle: index-reversal permutation on the bit string
        plan = reverse_ops(range(4))
        for value in range(16):
            want = int(f"{value:04b}"[::-1], 2)
            assert run_on_basis(plan.ops, 4, value) == want

    def test_spec_example(self):
        plan = reverse_ops(range(4))
        assert run_on_basis(plan.ops, 4, 0b1000) == 0b0001

    def test_single_qubit_plan_is_empty(self):
        assert len(reverse_ops([0]).ops) == 0

    def test_twice_is_identity(self):
        plan = reverse_ops(range(5))
        for value in range(32):
            assert run_on_basis(plan.ops + plan.ops, 5, value) == value

    def test_odd_middle_untouched(self):
        plan = reverse_ops(range(3))
        targets = {t for op in plan.ops for t in op.targets}
        assert 1 not in targets


class TestPlanReversibility:
    @pytest.mark.parametrize("builder,width", [
        (lambda: sum_ops(0, 1, 2), 3),
        (lambda: carry_ops(0, 1, 2, 3), 4),
        (lambda: add_n_ops(range(2), range(2, 4), range(4, 7)), 7),
        (lambda: modular_add_ops(range(3), range(3, 6), range(6, 9), range(9, 13), 13, 5), 14),
        (lambda: reverse_ops(range(4)), 4),
    ])
    def test_inverse_composition_is_identity(self, builder, width):
        plan = builder()
        rng = np.random.default_rng(31)
        values = rng.integers(0, 1 << width, size=50)
        for value in values:
            value = int(value)
            out = run_on_basis(plan.inverse().ops, width, run_on_basis(plan.ops, width, value))
            assert out == value

    def test_every_plan_op_is_unitary(self):
        plan = modular_add_ops(range(3), range(3, 6), range(6, 9), range(9, 13), 13, 7)
        for op in plan.ops:
            op.require_unitary()
