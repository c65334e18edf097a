import functools
import itertools
import math

import numpy as np
import pytest

from dcqdlab import channels, dcqd, ops, sampling
from dcqdlab.exceptions import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidConfigurationError,
    InvalidDistributionError,
)


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


@pytest.mark.parametrize("n", [-1, 1.5, "2", None, True])
def test_pauli_strings_need_a_non_negative_integer(n):
    # -1 raised itertools' ValueError and 1.5 or "2" a TypeError
    for call in (ops.pauli_strings, ops.pauli_labels):
        with pytest.raises(InvalidConfigurationError, match="non-negative integer"):
            call(n)


def _with_entry(value, side):
    """A side x side nested list of numbers with `value` at [1][1]."""
    rows = [[0.25 if i == j else 0 for j in range(side)] for i in range(side)]
    rows[1][1] = value
    return rows


# entry point -> (a call on one side x side matrix, that side, its error); a
# Kraus entry point gets a set of that one operator
ARRAY_ENTRY_POINTS = {
    "check_kraus": (lambda m: channels.check_kraus([m]), 2, InvalidChannelError),
    "as_chi": (lambda m: channels.as_chi([m], 1), 2, InvalidChannelError),
    "chi_from_kraus": (lambda m: channels.chi_from_kraus([m]), 2, InvalidChannelError),
    "compose": (lambda m: channels.compose(channels.bit_flip(0.1), [m]), 2, InvalidChannelError),
    "validate_chi": (channels.validate_chi, 4, InvalidChannelError),
    "trace_gap": (lambda m: channels.trace_gap([m]), 2, InvalidChannelError),
    "min_eigenvalue": (ops.min_eigenvalue, 2, InvalidChannelError),
    "hermiticity_deviation": (ops.hermiticity_deviation, 2, InvalidChannelError),
    "kraus_from_chi": (channels.kraus_from_chi, 4, InvalidChannelError),
    "kraus_from_choi": (channels.kraus_from_choi, 4, InvalidChannelError),
    "solve": (lambda q: dcqd.pair_scheme().solve(np.reshape(q, 16)), 4, InvalidDistributionError),
    "sample": (
        lambda q: sampling.sample(dcqd.pair_scheme(), np.reshape(q, 16), 10, 1),
        4,
        InvalidDistributionError,
    ),
    "reconstruct_from_probabilities": (
        dcqd.reconstruct_from_probabilities, 4, InvalidDistributionError
    ),
    "closed_form_chi": (dcqd.closed_form_chi, 4, InvalidDistributionError),
    "reconstruct_coherence": (
        lambda q: dcqd.reconstruct_coherence(dcqd.COH_Z, q[1], q[0]), 4, InvalidDistributionError
    ),
}
NOT_NUMBERS = {
    "numeric_strings": lambda side: [[str(x) for x in row] for row in _with_entry(0.25, side)],
    "none_entry": lambda side: _with_entry(None, side),
    "object_numbers": lambda side: np.array(_with_entry(0.25, side), dtype=object),
    "complex": lambda side: np.array(_with_entry(0.25, side)) + 0j,
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
def test_arrays_must_hold_numbers(entry, case):
    # one rule (`ops.number_array`) at every array entry point: numeric text
    # was parsed in a Kraus set, a None entry read as NaN and an object array
    # of numbers accepted as a Kraus set or as data; each is refused as not
    # numbers, before any NaN can appear
    call, side, error = ARRAY_ENTRY_POINTS[entry]
    matrix = NOT_NUMBERS[case](side)
    if case == "complex" and error is InvalidChannelError:
        call(matrix)  # complex values are numbers in a channel
        return
    message = "real numbers" if error is InvalidDistributionError else "of numbers"
    with pytest.raises(error, match=message):
        call(matrix)


@pytest.mark.parametrize(
    "call,value",
    [
        (channels.trace_gap, np.ones((2, 2))),
        (channels.trace_gap, np.ones((1, 2, 3))),
        (channels.trace_gap, np.ones((0, 2, 2))),
        (ops.min_eigenvalue, np.ones(3)),
        (ops.min_eigenvalue, np.ones((2, 3))),
        (ops.hermiticity_deviation, np.ones(3)),
        (ops.hermiticity_deviation, np.ones((0, 0))),
    ],
)
def test_square_helpers_need_square_matrices(call, value):
    # min_eigenvalue leaked numpy's LinAlgError and hermiticity_deviation
    # returned 0.0 for a vector
    with pytest.raises(DimensionMismatchError, match="is not a nonempty"):
        call(value)


def test_trace_gap_casts_a_stack_of_numbers():
    # an integer stack is cast to complex, as the stacked Kraus set is
    gap = channels.trace_gap([[[1, 0], [0, 0]]])
    assert gap.dtype == complex
    np.testing.assert_array_equal(gap, [[0, 0], [0, 1]])
