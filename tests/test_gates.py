import math

import numpy as np
import pytest

from sharq import SimulationContext, linalg
from sharq.algorithms import inverse_qft_ops, semantic_uf
from sharq.engine import _fused
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

    @pytest.mark.parametrize("action", [
        {"permutation": []}, {"matrix": np.zeros((0, 0))}, {"matrix": 1.0}, {"permutation": 5},
    ], ids=["empty-permutation", "empty-matrix", "scalar-matrix", "scalar-permutation"])
    def test_malformed_action_refused(self, action):
        with pytest.raises(InvalidParameterError, match="non-empty"):
            QuantumOperation("x", (), **action)

    @pytest.mark.parametrize("targets, action, match", [
        ((0,), {"matrix": np.eye(2), "permutation": [0, 1]}, "exactly one"),
        ((0,), {}, "exactly one"),
        ((0, 1), {"matrix": np.eye(3)}, "power of two"),
        ((0, 1), {"permutation": [0, 2, 1]}, "power of two"),
        ((0, 1), {"matrix": np.ones((4, 2))}, "power of two"),
        ((-1,), {"matrix": np.eye(2)}, "negative target"),
    ], ids=["both", "neither", "3x3", "length-3", "not-square", "negative-target"])
    def test_ill_formed_operation_refused(self, targets, action, match):
        with pytest.raises(InvalidParameterError, match=match):
            QuantumOperation("x", targets, **action)

    @pytest.mark.parametrize("op", [
        rotation_k(4), QuantumOperation("cycle", (0, 1), permutation=[1, 2, 3, 0]),
    ], ids=["matrix", "permutation"])
    def test_adjoint_is_built_once(self, op):
        adjoint = op.inverse()
        assert adjoint is not op and op.inverse() is adjoint

    def test_inverse_refuses_a_non_unitary_action(self):
        # the inverse map of a non-bijection is still a bijection, which would then apply
        op = QuantumOperation("bad", (0, 1), permutation=[0, 0, 1, 2])
        for _ in range(2):
            with pytest.raises(NotUnitaryOperationError):
                op.inverse()
        images = np.random.default_rng(0).permutation(64)
        inverse = QuantumOperation("perm", range(6), permutation=images).inverse()
        assert np.array_equal(inverse.permutation[images], np.arange(64))

    def test_rotation_k_ladder(self):
        assert np.abs(rotation_k(2).matrix - phase_s().matrix).max() < 1e-12
        assert np.abs(rotation_k(3).matrix - phase_t().matrix).max() < 1e-12

    def test_rotation_k_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            rotation_k(0)

    def test_rotation_k_phase_at_every_k(self):
        # the phase 2*pi * 2**-k has the bits of 2*pi / 2**k wherever 2**k is a float,
        # and past that it is a valid near-identity gate, not an OverflowError
        for k in range(1, 1024):
            old = np.array([[1, 0], [0, np.exp(2j * np.pi / (1 << k))]], dtype=complex)
            assert rotation_k(k).matrix.tobytes() == old.tobytes()
        for k in (1024, 5000):
            for op in (rotation_k(k), single_qubit_gate(GateSpec("R_k", k))):
                assert op.name == f"R{k}"
                op.require_unitary()
                assert np.abs(op.matrix - np.eye(2)).max() <= 2 * np.pi * 2.0**-k

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

    def test_r_k_parameter_must_be_an_integer(self):
        assert np.array_equal(single_qubit_gate(GateSpec("R_k", np.uint8(2))).matrix,
                              rotation_k(2).matrix)
        for other in (2.7, 2.0, np.float64(2)):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                single_qubit_gate(GateSpec("R_k", other))

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

    def test_needs_a_one_qubit_matrix(self):
        with pytest.raises(InvalidParameterError, match="1-qubit"):
            controlled_u(cnot(), [2], 3)
        with pytest.raises(InvalidParameterError, match="2x2"):
            controlled_u(np.eye(3), [0], 1)

    def test_dense_matrix_cap(self):
        # 40 controls would ask numpy for a 2**41 x 2**41 matrix
        assert controlled_u(pauli_x(), range(9), 9).arity == linalg.MAX_MATRIX_QUBITS
        for controls in (10, 40):
            with pytest.raises(QubitLimitExceededError, match="dense-matrix cap"):
                controlled_u(pauli_x(), range(controls), controls)


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

    def test_a_negative_width_is_refused_before_any_shift(self):
        one = QuantumOperation("one", (), matrix=np.eye(1))  # no target to check against the width
        with pytest.raises(InvalidParameterError, match="negative"):
            expand_to_full_matrix(one, -1)
        assert np.array_equal(expand_to_full_matrix(one, 0), np.eye(1))

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

    def test_one_cap_serves_every_dense_builder(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_MATRIX_QUBITS", 3)
        builders = {
            "walsh": lambda n: walsh(range(n)).matrix,
            "expand_to_full_matrix": lambda n: expand_to_full_matrix(hadamard(0), n),
            "identity": linalg.identity,
            "controlled_u": lambda n: controlled_u(pauli_x(), range(n - 1), n - 1).matrix,
        }
        for name, build in builders.items():
            assert build(3).shape == (8, 8), name
            with pytest.raises(QubitLimitExceededError, match="dense-matrix cap of 3"):
                build(4)


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


class TestKernelClass:
    """The engine dispatches on ``_kernel``; a catalog gate that fell back to the
    dense path would still be correct, only slow, so the classes are pinned."""

    @pytest.mark.parametrize("op, kernel", [
        (hadamard(), "dense"),
        (pauli_y(), "dense"),
        (rx(0.3), "dense"),
        (pauli_z(), "diag"),
        (phase_s(), "diag"),
        (phase_t(), "diag"),
        (rotation_k(5), "diag"),
        (rz(0.3), "diag"),
        (controlled_u(rotation_k(4), [0], 1), "diag"),
        (pauli_x(), "perm"),
        (cnot(), "perm"),
        (swap(), "perm"),
        (toffoli(), "perm"),
        (fredkin(), "perm"),
        (semantic_uf(2, 15), "perm"),
    ], ids=lambda value: getattr(value, "name", value))
    def test_catalog_gate_class(self, op, kernel):
        assert op._kernel == kernel

    def test_inverse_qft_ladder_is_hadamards_and_phases(self):
        kernels = {op.name: op._kernel for op in inverse_qft_ops(range(6)).ops}
        assert kernels.pop("H") == "dense"
        assert kernels.pop("CNot") == "perm"  # the qubit-order reversal
        assert kernels and set(kernels.values()) == {"diag"}

    def test_arity_zero_phase_is_diagonal(self):
        assert QuantumOperation("phase", (), matrix=[[1j]])._kernel == "diag"
        assert QuantumOperation("one", (), matrix=[[1]])._kernel == "perm"

    def test_basis_flips_share_the_basis_permutation_test(self):
        # a monomial matrix with a phase is not classical: dense, and no flip table
        op = QuantumOperation("iX", (0,), matrix=[[0, 1j], [1j, 0]])
        assert op._basis_images is None and op._kernel == "dense"
        with pytest.raises(InvalidParameterError):
            op.basis_flips
        assert np.array_equal(toffoli()._basis_images, [0, 1, 2, 3, 4, 5, 7, 6])

    def test_class_is_cached_on_the_operation(self, debug_ctx):
        op = controlled_u(rotation_k(3), [1], 0)
        assert "_kernel" not in op.__dict__
        debug_ctx().allocate_register(2).apply_operation(op)
        assert op.__dict__["_kernel"] == "diag"


class TestReadOnlyAction:
    """Every cached fact of an operation (its unitarity, its kernel class, the
    fused plans it joins) assumes its action never changes, so the operation
    keeps a read-only copy of the array it was given."""

    @pytest.mark.parametrize("op", [
        hadamard(), pauli_x(), pauli_y(), pauli_z(), phase_s(), phase_t(), identity_gate(),
        rotation_k(5), rx(0.3), ry(0.3), rz(0.3), cnot(), swap(), toffoli(), fredkin(),
        controlled_u(hadamard(), [0], 1), walsh([0, 1]), semantic_uf(2, 15),
        semantic_uf(7, 15).inverse(), rotation_k(5).inverse(),
        _fused((cnot(0, 1), toffoli(0, 1, 2))).ops[0],
    ], ids=lambda op: op.name)
    def test_the_action_refuses_a_write(self, op):
        action = op.matrix if op.permutation is None else op.permutation
        with pytest.raises(ValueError, match="read-only"):
            action.flat[0] = action.flat[0]

    def test_a_later_change_to_the_callers_matrix_does_not_reach_the_op(self, debug_ctx):
        m = np.array([[1, 1], [1, -1]], dtype=complex) * math.sqrt(0.5)
        op = QuantumOperation("g", (0,), matrix=m)
        reg = debug_ctx().allocate_register(1)
        reg.apply_operation(op)
        m *= 3
        reg.apply_operation(op)
        assert np.allclose(reg.peek_amplitudes(), [1, 0])  # H twice, norm 1
        assert np.allclose(op.matrix, hadamard().matrix)

    def test_a_later_change_to_the_callers_permutation_does_not_reach_the_op(self):
        perm = np.array([1, 0], dtype=np.int64)
        op = QuantumOperation("p", (0,), permutation=perm)
        perm[:] = 0
        assert op.permutation.tolist() == [1, 0]
        op.require_unitary()

    def test_a_read_only_action_is_kept_without_a_copy(self):
        oracle = semantic_uf(2, 15)
        assert oracle.retarget(oracle.targets).permutation is oracle.permutation
        assert hadamard(1).matrix is hadamard(0).matrix
