import functools
import itertools
import math

import numpy as np
import pytest

from dcqdlab import ops


def string_matrix(s):
    """The Pauli string E_s as the Kronecker product of PAULIS[s_i], first qubit leftmost."""
    return functools.reduce(np.kron, (ops.PAULIS[p] for p in s))


class TestPauliMatrix:
    def test_identity(self):
        assert np.array_equal(ops.PAULIS[0], np.eye(2))

    def test_y_convention(self):
        assert np.array_equal(ops.PAULIS[2], np.array([[0, -1j], [1j, 0]]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_orthogonality(self, n):
        # Tr(E_p^dag E_q) = 2^n delta_pq, exhaustively, over the strings
        # E_s = PAULIS[s_1] (x) ... in `pauli_strings` order that index chi
        mats = [string_matrix(s) for s in ops.pauli_strings(n)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                want = 2**n if i == j else 0.0
                assert abs(np.trace(a.conj().T @ b) - want) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_hermitian_unitary(self, n):
        for s in ops.pauli_strings(n):
            m = string_matrix(s)
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
        projs = [np.outer(b, b.conj()) for b in ops.bell_basis()]
        assert np.allclose(sum(projs), np.eye(4))
        for i, a in enumerate(projs):
            for j, b in enumerate(projs):
                want = a if i == j else np.zeros((4, 4))
                assert np.allclose(a @ b, want, atol=1e-14)


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
