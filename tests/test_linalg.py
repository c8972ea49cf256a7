import math

import numpy as np
import pytest

from sharq import linalg
from sharq.errors import DimensionMismatchError, NotSquareError, QubitLimitExceededError

S2 = 1.0 / math.sqrt(2.0)
H = np.array([[S2, S2], [S2, -S2]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class TestAsMatrix:
    def test_a_vector_becomes_a_column(self):
        column = linalg.as_matrix([1, 2j])
        assert column.shape == (2, 1) and column.dtype == complex
        assert np.array_equal(column[:, 0], [1, 2j])

    def test_refuses_an_array_of_more_than_two_dimensions(self):
        with pytest.raises(DimensionMismatchError, match="ndim=3"):
            linalg.as_matrix(np.zeros((2, 2, 2)))


class TestMultiply:
    def test_not_flips_zero_ket(self):
        ket0 = np.array([[1.0], [0.0]], dtype=complex)
        assert np.array_equal(linalg.multiply(X, ket0), [[0], [1]])

    def test_identity_is_neutral(self):
        assert np.array_equal(linalg.multiply(np.eye(2), X), X)

    def test_hadamard_squares_to_identity(self):
        # oracle: multiply the Hadamard entries by hand
        a = S2
        expected = np.array([[a * a + a * a, a * a - a * a],
                             [a * a - a * a, a * a + a * a]])
        product = linalg.multiply(H, H)
        assert np.abs(product - expected).max() < 1e-12
        assert np.abs(product - np.eye(2)).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.multiply(np.eye(2), np.eye(3))


class TestTensor:
    def test_hadamard_on_first_of_two(self):
        state = np.zeros((4, 1), dtype=complex)
        state[0] = 1.0
        result = linalg.multiply(linalg.tensor(H, np.eye(2)), state)
        assert np.allclose(result.ravel(), [S2, 0, S2, 0])

    def test_identity_tensor_identity(self):
        assert np.array_equal(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_kets_tensor_to_two_qubit_basis(self):
        ket0 = np.array([[1], [0]], dtype=complex)
        ket1 = np.array([[0], [1]], dtype=complex)
        assert np.array_equal(linalg.tensor(ket0, ket1).ravel(), [0, 1, 0, 0])

    def test_dims_product_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            r1, c1, r2, c2 = rng.integers(1, 5, size=4)
            a = rng.normal(size=(r1, c1))
            b = rng.normal(size=(r2, c2))
            assert linalg.tensor(a, b).shape == (r1 * r2, c1 * c2)


class TestConjugateTranspose:
    def test_pauli_y_is_hermitian(self):
        assert np.array_equal(linalg.conjugate_transpose(Y), Y)

    def test_involution_is_bit_exact(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert np.array_equal(linalg.conjugate_transpose(linalg.conjugate_transpose(a)), a)

    def test_s_dagger(self):
        assert np.array_equal(linalg.conjugate_transpose(S), [[1, 0], [0, -1j]])

    def test_product_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lhs = linalg.conjugate_transpose(linalg.multiply(a, b))
            rhs = linalg.multiply(linalg.conjugate_transpose(b), linalg.conjugate_transpose(a))
            assert np.abs(lhs - rhs).max() < 1e-12


class TestIsUnitary:
    def test_hadamard(self):
        assert linalg.is_unitary(H, 1e-10)

    def test_stretched_diagonal_is_not(self):
        assert not linalg.is_unitary(np.diag([1.0, 2.0]), 1e-10)

    def test_cnot(self):
        assert linalg.is_unitary(CNOT, 1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            linalg.is_unitary(np.ones((2, 3)))

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            u, _ = np.linalg.qr(raw)
            assert linalg.is_unitary(u, 1e-10)
            state = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
            state /= np.linalg.norm(state)
            moved = linalg.multiply(u, state)
            assert abs(np.linalg.norm(moved) - 1.0) < 1e-9


class TestApproxEqual:
    def test_reflexive(self):
        assert linalg.approx_equal(H, H, 0.0)

    def test_hadamard_square_vs_identity(self):
        assert linalg.approx_equal(linalg.multiply(H, H), np.eye(2), 1e-12)

    def test_different_dims_are_unequal(self):
        assert not linalg.approx_equal(np.eye(2), np.eye(4))


class TestIdentity:
    def test_one_qubit(self):
        assert np.array_equal(linalg.identity(1), [[1, 0], [0, 1]])

    def test_zero_qubits(self):
        assert np.array_equal(linalg.identity(0), [[1]])

    def test_tensor_consistency(self):
        assert np.array_equal(
            linalg.identity(2), linalg.tensor(linalg.identity(1), linalg.identity(1))
        )

    def test_cap(self):
        with pytest.raises(QubitLimitExceededError):
            linalg.identity(linalg.MAX_MATRIX_QUBITS + 1)
        with pytest.raises(QubitLimitExceededError):
            linalg.identity(-1)
