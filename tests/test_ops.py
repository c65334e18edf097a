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
        assert np.array_equal(ops.PAULIS[0], np.eye(2))

    def test_y_convention(self):
        assert np.array_equal(ops.PAULIS[2], np.array([[0, -1j], [1j, 0]]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_orthogonality(self, n):
        # Tr(E_p^dag E_q) = 2^n delta_pq, exhaustively, over the strings
        # E_s = PAULIS[s_1] (x) ... in `pauli_strings` order that index chi
        mats = [ops.tensor(*(ops.PAULIS[p] for p in s)) for s in ops.pauli_strings(n)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                want = 2**n if i == j else 0.0
                assert abs(np.trace(a.conj().T @ b) - want) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_hermitian_unitary(self, n):
        for s in ops.pauli_strings(n):
            m = ops.tensor(*(ops.PAULIS[p] for p in s))
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
        projs = [ops.projector(b) for b in ops.bell_basis()]
        assert np.allclose(sum(projs), np.eye(4))
        for i, a in enumerate(projs):
            for j, b in enumerate(projs):
                want = a if i == j else np.zeros((4, 4))
                assert np.allclose(a @ b, want, atol=1e-14)


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


def test_mutually_unbiased_prep_bases():
    # {|0>,|1>}, {|+>,|->}, {|+i>,|-i>}: all cross overlaps have magnitude 1/sqrt(2)
    z = [np.array([1, 0], complex), np.array([0, 1], complex)]
    x = [np.array([1, 1], complex) / math.sqrt(2), np.array([1, -1], complex) / math.sqrt(2)]
    y = [np.array([1, 1j], complex) / math.sqrt(2), np.array([1, -1j], complex) / math.sqrt(2)]
    for basis_a, basis_b in itertools.combinations([z, x, y], 2):
        for a in basis_a:
            for b in basis_b:
                assert abs(np.vdot(a, b)) == pytest.approx(1 / math.sqrt(2), abs=1e-14)


class TestHermitianPart:
    @pytest.mark.parametrize("d", [1, 4, 64])
    def test_bits_of_complex_division(self, d, rng):
        # no exact zeros, so halving through the float view is bit for bit
        # what (a + a^H) / 2 computes
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        before = a.copy()
        herm = ops.hermitian_part(a)
        assert herm.tobytes() == ((a + a.conj().T) / 2).tobytes()
        assert a.tobytes() == before.tobytes()

    def test_negative_zero_kept(self):
        # complex division by 2 computes (re + im * 0) / 2, turning -0.0 + 0j
        # into +0.0; the float view halves each part on its own
        herm = ops.hermitian_part(np.array([[complex(-0.0, 0.0)]]))
        assert math.copysign(1.0, herm[0, 0].real) == -1.0
        assert math.copysign(1.0, herm[0, 0].imag) == 1.0
