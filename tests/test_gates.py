import math

import numpy as np
import pytest

from sharq import SimulationContext, linalg
from sharq.errors import (
    DuplicateIndexesError,
    InvalidParameterError,
    NotUnitaryOperationError,
    QubitLimitExceededError,
    SemanticOracleNotMaterializableError,
    SizeMismatchError,
)
from sharq.gates import (
    GateSpec,
    QuantumOperation,
    cnot,
    controlled_u,
    expand_to_full_matrix,
    fredkin,
    hadamard,
    identity_gate,
    pauli_x,
    pauli_y,
    pauli_z,
    phase_s,
    phase_t,
    prepare_named_state,
    retarget,
    rotation_k,
    rx,
    ry,
    rz,
    single_qubit_gate,
    swap,
    toffoli,
    walsh,
)

S2 = 1.0 / math.sqrt(2.0)

# Expected matrices, spelled out entry by entry.
EXPECTED_1Q = {
    "H": np.array([[S2, S2], [S2, -S2]]),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "S": np.array([[1, 0], [0, 1j]]),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]]),
    "I": np.eye(2),
}
EXPECTED_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
EXPECTED_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
EXPECTED_REVERSED_CNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
)


def apply_to_basis_via_engine(op, n_qubits, basis_value):
    """Independent route: run one op on a basis state and read the result."""
    ctx = SimulationContext(seed=0)
    reg = ctx.allocate_register(n_qubits).set_from_unsigned(basis_value)
    reg.apply_operation(op)
    return reg.measure().to_unsigned()


class TestCatalogMatrices:
    @pytest.mark.parametrize("name", sorted(EXPECTED_1Q))
    def test_single_qubit_entries(self, name):
        factory = {"H": hadamard, "X": pauli_x, "Y": pauli_y, "Z": pauli_z,
                   "S": phase_s, "T": phase_t, "I": identity_gate}[name]
        assert np.abs(factory().matrix - EXPECTED_1Q[name]).max() < 1e-12

    def test_two_and_three_qubit_entries(self):
        assert np.abs(cnot().matrix - EXPECTED_CNOT).max() < 1e-12
        assert np.abs(swap().matrix - EXPECTED_SWAP).max() < 1e-12
        tof = toffoli().matrix
        assert np.array_equal(tof[:6, :6], np.eye(6))
        assert tof[6, 7] == 1 and tof[7, 6] == 1 and tof[6, 6] == 0
        fred = fredkin().matrix
        expected = np.eye(8)
        expected[[5, 6]] = expected[[6, 5]]
        assert np.array_equal(fred, expected)

    def test_every_catalog_gate_is_unitary(self):
        ops = [hadamard(), pauli_x(), pauli_y(), pauli_z(), phase_s(), phase_t(),
               identity_gate(), rotation_k(4), rx(0.7), ry(1.3), rz(2.1),
               cnot(), swap(), toffoli(), fredkin()]
        for op in ops:
            assert linalg.is_unitary(op.matrix, 1e-10), op.name

    @pytest.mark.parametrize("permutation", [
        [0, 1, 2, 4], [-1, 1, 2, 3], np.zeros(1 << 16), np.zeros(1 << 17),
    ], ids=["out-of-range", "negative", "all-zeros-16", "all-zeros-17"])
    def test_non_bijective_permutation_refused_at_any_width(self, permutation):
        perm = np.asarray(permutation, dtype=np.int64)
        op = QuantumOperation("bad", tuple(range(len(perm).bit_length() - 1)), permutation=perm)
        with pytest.raises(NotUnitaryOperationError):
            op.require_unitary()

    def test_rotation_k_ladder(self):
        assert np.abs(rotation_k(2).matrix - phase_s().matrix).max() < 1e-12
        assert np.abs(rotation_k(3).matrix - phase_t().matrix).max() < 1e-12

    def test_rotation_k_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            rotation_k(0)

    def test_zero_angle_rotations_are_identity(self):
        for gate in (rx, ry, rz):
            assert np.abs(gate(0.0).matrix - np.eye(2)).max() < 1e-12

    def test_phase_ladder_identities(self):
        t = phase_t().matrix
        s = phase_s().matrix
        assert np.abs(t @ t - s).max() < 1e-12
        assert np.abs(s @ s - pauli_z().matrix).max() < 1e-12


class TestGateSpec:
    @pytest.mark.parametrize("kind", ["H", "X", "Y", "Z", "S", "T", "I"])
    def test_fixed_kinds(self, kind):
        op = single_qubit_gate(GateSpec(kind), target=3)
        assert op.targets == (3,)
        assert np.abs(op.matrix - EXPECTED_1Q[kind]).max() < 1e-12

    def test_parameterized_kinds(self):
        assert np.allclose(single_qubit_gate(GateSpec("R_k", 2)).matrix, phase_s().matrix)
        assert np.allclose(single_qubit_gate(GateSpec("Rz", 0.5)).matrix, rz(0.5).matrix)

    def test_parameter_presence_enforced(self):
        with pytest.raises(InvalidParameterError):
            single_qubit_gate(GateSpec("H", 1.0))
        with pytest.raises(InvalidParameterError):
            single_qubit_gate(GateSpec("Rx"))
        with pytest.raises(InvalidParameterError):
            single_qubit_gate(GateSpec("Q"))


class TestCNot:
    def test_truth_table(self):
        # paper truth table: control unchanged, target flipped iff control set
        expected = {0b00: 0b00, 0b01: 0b01, 0b10: 0b11, 0b11: 0b10}
        for value, want in expected.items():
            assert apply_to_basis_via_engine(cnot(0, 1), 2, value) == want

    def test_reversed_targets_give_reversed_matrix(self):
        assert np.abs(
            expand_to_full_matrix(cnot(1, 0), 2) - EXPECTED_REVERSED_CNOT
        ).max() < 1e-12

    def test_retargeted_cnot_matches_reversed_form(self):
        flipped = retarget(cnot(0, 1), (1, 0))
        assert np.abs(
            expand_to_full_matrix(flipped, 2) - EXPECTED_REVERSED_CNOT
        ).max() < 1e-12

    def test_duplicate_targets_rejected(self):
        with pytest.raises(DuplicateIndexesError):
            cnot(1, 1)


class TestSwap:
    def test_basis_action(self):
        assert apply_to_basis_via_engine(swap(0, 1), 2, 0b01) == 0b10
        assert apply_to_basis_via_engine(swap(0, 1), 2, 0b00) == 0b00

    def test_equals_three_cnots(self):
        # oracle: the CNot a->b, b->a, a->b sandwich
        chain = (
            expand_to_full_matrix(cnot(0, 1), 2)
            @ expand_to_full_matrix(cnot(1, 0), 2)
            @ expand_to_full_matrix(cnot(0, 1), 2)
        )
        assert np.abs(chain - expand_to_full_matrix(swap(0, 1), 2)).max() < 1e-12


class TestToffoli:
    @pytest.mark.parametrize("value,want", [
        (0b000, 0b000), (0b010, 0b010), (0b100, 0b100), (0b110, 0b111),
        (0b001, 0b001), (0b011, 0b011), (0b101, 0b101), (0b111, 0b110),
    ])
    def test_quantum_and_table(self, value, want):
        assert apply_to_basis_via_engine(toffoli(0, 1, 2), 3, value) == want


class TestFredkin:
    def test_and_wiring(self):
        # inputs (a=0, b=y, control=x) -> outputs (xy, !x y, x)
        for x in (0, 1):
            for y in (0, 1):
                value = (x << 2) | (0 << 1) | y  # layout |control a b>
                out = apply_to_basis_via_engine(fredkin(0, 1, 2), 3, value)
                a_out = (out >> 1) & 1
                b_out = out & 1
                c_out = (out >> 2) & 1
                assert (a_out, b_out, c_out) == (x & y, (1 - x) & y, x)

    def test_not_fanout_wiring(self):
        # inputs (a=1, b=0, control=x) -> outputs (!x, x, x)
        for x in (0, 1):
            value = (x << 2) | (1 << 1) | 0
            out = apply_to_basis_via_engine(fredkin(0, 1, 2), 3, value)
            assert ((out >> 1) & 1, out & 1, (out >> 2) & 1) == (1 - x, x, x)

    def test_crossover_wiring(self):
        # inputs (a=x, b=y, control=1) -> outputs (y, x, 1)
        for x in (0, 1):
            for y in (0, 1):
                value = (1 << 2) | (x << 1) | y
                out = apply_to_basis_via_engine(fredkin(0, 1, 2), 3, value)
                assert ((out >> 1) & 1, out & 1, (out >> 2) & 1) == (y, x, 1)

    def test_control_clear_is_identity(self):
        for rest in range(4):
            assert apply_to_basis_via_engine(fredkin(0, 1, 2), 3, rest) == rest

    def test_ones_count_preserved(self):
        for value in range(8):
            out = apply_to_basis_via_engine(fredkin(0, 1, 2), 3, value)
            assert bin(out).count("1") == bin(value).count("1")


class TestControlledU:
    def test_controlled_x_is_cnot(self):
        built = controlled_u(pauli_x(), [0], 1)
        for value in range(4):
            assert (
                apply_to_basis_via_engine(built, 2, value)
                == apply_to_basis_via_engine(cnot(0, 1), 2, value)
            )

    def test_controlled_s_phases(self, debug_ctx):
        op = controlled_u(phase_s(), [0], 1)
        ctx = debug_ctx()
        reg = ctx.allocate_register(2).set_from_unsigned(2)  # |10>: control set, target 0
        reg.apply_operation(op)
        assert np.allclose(reg.peek_amplitudes(), [0, 0, 1, 0])
        ctx = debug_ctx()
        reg = ctx.allocate_register(2).set_from_unsigned(3)  # |11> -> i|11>
        reg.apply_operation(op)
        assert np.allclose(reg.peek_amplitudes(), [0, 0, 0, 1j])

    def test_double_controlled_x_is_toffoli(self):
        built = controlled_u(pauli_x(), [0, 1], 2)
        for value in range(8):
            assert (
                apply_to_basis_via_engine(built, 3, value)
                == apply_to_basis_via_engine(toffoli(0, 1, 2), 3, value)
            )

    def test_needs_controls(self):
        with pytest.raises(InvalidParameterError):
            controlled_u(pauli_x(), [], 0)


class TestRetarget:
    def test_returns_new_operation(self):
        op = cnot(0, 1)
        moved = retarget(op, (2, 3))
        assert op.targets == (0, 1)
        assert moved.targets == (2, 3)
        assert moved.matrix is op.matrix

    def test_validation(self):
        with pytest.raises(SizeMismatchError):
            retarget(cnot(0, 1), (0,))
        with pytest.raises(DuplicateIndexesError):
            retarget(cnot(0, 1), (2, 2))

    def test_identity_retarget_is_behaviorally_identical(self):
        op = cnot(0, 1)
        same = retarget(op, (0, 1))
        for value in range(4):
            assert (
                apply_to_basis_via_engine(op, 2, value)
                == apply_to_basis_via_engine(same, 2, value)
            )


class TestExpansion:
    def test_hadamard_on_first_of_two(self):
        assert np.abs(
            expand_to_full_matrix(hadamard(0), 2) - np.kron(EXPECTED_1Q["H"], np.eye(2))
        ).max() < 1e-12

    def test_identity_gate_any_width(self):
        assert np.array_equal(expand_to_full_matrix(identity_gate(2), 3), np.eye(8))

    def test_cnot_across_a_gap(self):
        # oracle: brute-force permutation over all 8 basis labels
        expected = np.zeros((8, 8))
        for value in range(8):
            control = (value >> 2) & 1
            out = value ^ (control << 0)  # target is qubit 2, the LSB
            expected[out, value] = 1.0
        assert np.abs(expand_to_full_matrix(cnot(0, 2), 3) - expected).max() < 1e-12

    def test_width_cap(self):
        with pytest.raises(QubitLimitExceededError):
            expand_to_full_matrix(hadamard(0), 11)

    def test_targets_must_fit(self):
        with pytest.raises(SizeMismatchError):
            expand_to_full_matrix(cnot(0, 3), 3)

    def test_permutation_ops_do_not_materialize(self):
        op = QuantumOperation("perm", (0, 1), permutation=np.array([1, 0, 3, 2]))
        with pytest.raises(SemanticOracleNotMaterializableError):
            expand_to_full_matrix(op, 2)


class TestNamedStates:
    @pytest.mark.parametrize("name,expected", [
        ("beta00", [S2, 0, 0, S2]),
        ("beta01", [0, S2, S2, 0]),
        ("beta10", [S2, 0, 0, -S2]),
        ("beta11", [0, S2, -S2, 0]),
        ("ghz", [S2, 0, 0, 0, 0, 0, 0, S2]),
        ("w", [0, 1 / math.sqrt(3), 1 / math.sqrt(3), 0, 1 / math.sqrt(3), 0, 0, 0]),
    ])
    def test_amplitudes(self, debug_ctx, name, expected):
        ctx = debug_ctx()
        reg = prepare_named_state(ctx, name)
        assert np.abs(reg.peek_amplitudes() - np.array(expected)).max() < 1e-12

    def test_unicode_alias(self, debug_ctx):
        reg = prepare_named_state(debug_ctx(), "β00")
        assert np.allclose(reg.peek_amplitudes(), [S2, 0, 0, S2])

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            prepare_named_state(SimulationContext(seed=0), "phi")

    def test_cap_respected(self):
        ctx = SimulationContext(seed=0, qubit_cap=2)
        with pytest.raises(QubitLimitExceededError):
            prepare_named_state(ctx, "ghz")


class TestInvolutions:
    @pytest.mark.parametrize("factory,n", [
        (lambda: hadamard(0), 1), (lambda: pauli_x(0), 1), (lambda: pauli_y(0), 1),
        (lambda: pauli_z(0), 1), (lambda: cnot(0, 1), 2), (lambda: swap(0, 1), 2),
        (lambda: toffoli(0, 1, 2), 3), (lambda: fredkin(0, 1, 2), 3),
    ])
    def test_twice_is_identity_on_every_basis_state(self, factory, n):
        op = factory()
        full = expand_to_full_matrix(op, n)
        assert np.abs(full @ full - np.eye(1 << n)).max() < 1e-10


class TestWalsh:
    def test_equals_independent_hadamards(self, debug_ctx):
        ctx_all = debug_ctx()
        reg_all = ctx_all.allocate_register(4)
        reg_all.apply_operation(walsh(range(4)))
        ctx_each = debug_ctx()
        reg_each = ctx_each.allocate_register(4)
        for q in range(4):
            reg_each.apply_operation(hadamard(q))
        assert np.abs(
            reg_all.peek_amplitudes() - reg_each.peek_amplitudes()
        ).max() < 1e-12

    def test_refused_where_expansion_is(self):
        # one dense-matrix cap: full-matrix expansion refuses 11 qubits too
        walsh(range(10))
        with pytest.raises(QubitLimitExceededError):
            walsh(range(11))
        with pytest.raises(QubitLimitExceededError):
            linalg.identity(11)


class TestDualPath:
    def test_direct_application_matches_expansion(self, debug_ctx):
        # the full-matrix route is the oracle for the stride-update route
        rng = np.random.default_rng(99)
        factories = [hadamard, pauli_x, pauli_y, pauli_z, phase_s, phase_t,
                     lambda t: rotation_k(3, t)]
        for _ in range(100):
            n = int(rng.integers(1, 6))
            if rng.random() < 0.5 or n == 1:
                op = factories[int(rng.integers(len(factories)))](int(rng.integers(n)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                op = cnot(int(a), int(b))
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            vec /= np.linalg.norm(vec)

            ctx = debug_ctx()
            reg = ctx.allocate_register(n)
            ctx._set_state(vec)
            reg.apply_operation(op)

            expected = expand_to_full_matrix(op, n) @ vec
            assert np.abs(ctx._state - expected).max() < 1e-9
