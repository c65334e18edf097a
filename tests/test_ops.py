import itertools
import math

import numpy as np
import pytest

from conftest import random_density
from dcqdlab import ops
from dcqdlab.exceptions import DimensionMismatchError


def ket(*bits):
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int("".join(str(b) for b in bits), 2)] = 1.0
    return v


class TestTensor:
    def test_identity(self):
        assert np.array_equal(ops.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_z_z_diagonal(self):
        assert np.allclose(ops.tensor(ops.PAULI_Z, ops.PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_x_x_flips_bits(self):
        assert np.allclose(ops.tensor(ops.PAULI_X, ops.PAULI_X) @ ket(0, 0), ket(1, 1))

    def test_dims_multiply(self):
        out = ops.tensor(np.ones((2, 3)), np.ones((4, 5)))
        assert out.shape == (8, 15)


class TestPauliMatrix:
    def test_identity(self):
        assert np.array_equal(ops.pauli_matrix((0,)), np.eye(2))

    def test_y_convention(self):
        assert np.array_equal(ops.pauli_matrix((2,)), np.array([[0, -1j], [1j, 0]]))

    def test_two_qubit_composition(self):
        assert np.array_equal(ops.pauli_matrix((3, 1)), np.kron(ops.PAULI_Z, ops.PAULI_X))

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            ops.pauli_matrix((4,))
        with pytest.raises(ValueError):
            ops.pauli_matrix(())

    @pytest.mark.parametrize("n", [1, 2])
    def test_orthogonality(self, n):
        # Tr(E_p^dag E_q) = 2^n delta_pq, exhaustively
        mats = [ops.pauli_matrix(s) for s in ops.pauli_strings(n)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                want = 2**n if i == j else 0.0
                assert abs(np.trace(a.conj().T @ b) - want) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_hermitian_unitary(self, n):
        for s in ops.pauli_strings(n):
            m = ops.pauli_matrix(s)
            assert np.allclose(m, m.conj().T)
            assert np.allclose(m @ m, np.eye(2**n))


class TestBellBasis:
    def test_phi_plus(self):
        want = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(ops.bell_basis()[0], want)

    def test_psi_minus(self):
        # (|10> - |01>)/sqrt(2)
        want = np.array([0, -1, 1, 0]) / math.sqrt(2)
        assert np.allclose(ops.bell_basis()[2], want)

    def test_orthonormal(self):
        basis = ops.bell_basis()
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert abs(np.vdot(a, b) - (1.0 if i == j else 0.0)) < 1e-14

    def test_error_detection_indexing(self):
        # acting with Pauli m on the primary half of phi+ lands in element m
        basis = ops.bell_basis()
        for m in range(4):
            moved = np.kron(ops.PAULIS[m], np.eye(2)) @ basis[0]
            overlaps = [abs(np.vdot(b, moved)) for b in basis]
            assert overlaps[m] == pytest.approx(1.0, abs=1e-14)

    def test_projectors_complete_and_orthogonal(self):
        projs = ops.bell_projectors()
        assert np.allclose(sum(projs), np.eye(4))
        for i, a in enumerate(projs):
            for j, b in enumerate(projs):
                want = a if i == j else np.zeros((4, 4))
                assert np.allclose(a @ b, want, atol=1e-14)


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        rho = ops.projector(ops.bell_basis()[0])
        assert np.allclose(ops.partial_trace(rho, [0], (2, 2)), np.eye(2) / 2)

    def test_product_state(self):
        rho = ops.projector(ket(0, 0))
        assert np.allclose(ops.partial_trace(rho, [0], (2, 2)), np.diag([1, 0]))

    def test_schmidt_coefficients(self):
        psi = math.sqrt(2 / 3) * ket(0, 0) + math.sqrt(1 / 3) * ket(1, 1)
        reduced = ops.partial_trace(ops.projector(psi), [0], (2, 2))
        assert np.allclose(reduced, np.diag([2 / 3, 1 / 3]))

    def test_recovers_factor_of_product(self, rng):
        for _ in range(5):
            rho_a = random_density(1, rng)
            rho_b = random_density(2, rng)
            joint = np.kron(rho_a, rho_b)
            assert np.allclose(ops.partial_trace(joint, [0], (2, 4)), rho_a, atol=1e-12)
            assert np.allclose(ops.partial_trace(joint, [1], (2, 4)), rho_b, atol=1e-12)

    def test_trace_preserved_and_psd(self, rng):
        rho = random_density(2, rng)
        reduced = ops.partial_trace(rho, [1], (2, 2))
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)
        assert ops.min_eigenvalue(reduced) > -1e-12

    def test_inconsistent_dims(self):
        with pytest.raises(DimensionMismatchError):
            ops.partial_trace(np.eye(4), [0], (2, 3))
        with pytest.raises(DimensionMismatchError):
            ops.partial_trace(np.eye(4), [2], (2, 2))


class TestExpectation:
    def test_population_bias(self):
        psi = math.sqrt(2 / 3) * ket(0, 0) + math.sqrt(1 / 3) * ket(1, 1)
        z_a = np.kron(ops.PAULI_Z, np.eye(2))
        assert ops.expectation(ops.projector(psi), z_a).real == pytest.approx(1 / 3, abs=1e-14)

    def test_stabilizer_eigenstate(self):
        rho = ops.projector(ops.bell_basis()[0])
        xx = np.kron(ops.PAULI_X, ops.PAULI_X)
        assert ops.expectation(rho, xx).real == pytest.approx(1.0, abs=1e-14)

    def test_traceless_observable(self):
        zz = np.kron(ops.PAULI_Z, ops.PAULI_Z)
        assert abs(ops.expectation(np.eye(4) / 4, zz)) < 1e-14

    def test_linear_and_conjugate_symmetric(self, rng):
        rho = random_density(1, rng)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = ops.expectation(rho, 2.0 * a + 3.0 * b)
        rhs = 2.0 * ops.expectation(rho, a) + 3.0 * ops.expectation(rho, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert ops.expectation(rho, a.conj().T) == pytest.approx(
            np.conj(ops.expectation(rho, a)), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ops.expectation(np.eye(2) / 2, np.eye(4))


class TestPermuteQubits:
    def test_swap_matches_kron_order(self, rng):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        assert np.allclose(ops.permute_qubits(np.kron(a, b), [1, 0]), np.kron(b, a))

    def test_matrix_conjugation_consistency(self, rng):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        perm = [2, 0, 1]
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        direct = ops.permute_qubits(m, perm) @ ops.permute_qubits(v, perm)
        assert np.allclose(direct, ops.permute_qubits(m @ v, perm))

    def test_rejects_bad_perm(self):
        with pytest.raises(ValueError):
            ops.permute_qubits(np.zeros(4), [0, 0])


def test_mutually_unbiased_prep_bases():
    # {|0>,|1>}, {|+>,|->}, {|+i>,|-i>}: all cross overlaps have magnitude 1/sqrt(2)
    z = [np.array([1, 0], complex), np.array([0, 1], complex)]
    x = [np.array([1, 1], complex) / math.sqrt(2), np.array([1, -1], complex) / math.sqrt(2)]
    y = [np.array([1, 1j], complex) / math.sqrt(2), np.array([1, -1j], complex) / math.sqrt(2)]
    for basis_a, basis_b in itertools.combinations([z, x, y], 2):
        for a in basis_a:
            for b in basis_b:
                assert abs(np.vdot(a, b)) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
