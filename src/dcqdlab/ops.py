"""Dense complex linear algebra and qubit primitives.

Everything else in the package is built on the conventions fixed here:

* Computational basis: within a primary/ancilla pair the primary qubit A is
  the most significant factor, so the two-qubit basis order |00>, |01>,
  |10>, |11> reads |q_A q_B>.  The library only ever builds one pair; the
  dense n-pair register of the test oracle is laid out primary-block first,
  [A_1 .. A_n, B_1 .. B_n], with A_1 most significant.
* Pauli operators are indexed 0:I, 1:X, 2:Y, 3:Z with Y = [[0,-i],[i,0]];
  the one-qubit table `PAULIS` is the library's only Pauli basis.
  Multi-qubit Pauli strings are tuples of these digits, enumerated in
  lexicographic order (first qubit most significant), which also fixes the
  row/column order of every process matrix.  The string E_s is the
  Kronecker product of PAULIS[s_i], but no n-qubit string matrix is ever
  built: every n-qubit map applies the one-qubit table along each qubit.
* The Bell basis is ordered (phi+, psi+, psi-, phi-).  With this order the
  state obtained by acting with Pauli index m on the primary half of phi+
  is (up to phase) basis element m, so a Bell-type measurement detects the
  Pauli label of a single error directly.

All functions are pure; arrays are treated as immutable values.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Iterator, Optional

import numpy as np

from .exceptions import InvalidConfigurationError

PAULI_LABELS = "IXYZ"

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool and anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number (`numbers.Real`) that a float holds, NaN and inf
    included; False for a bool, a string, None, a complex number and an int
    beyond every float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def number_array(value, complex_ok: bool) -> Optional[np.ndarray]:
    """`np.asarray(value)` if it holds numbers, else None: the one rule for input arrays.

    Every array that crosses the library boundary is judged here.  Numbers
    are entries of dtype kind bool, int, uint or float, and complex where
    `complex_ok`.  Text, an object array (whatever it holds, None included)
    and ragged input are not, and are refused before any cast, so no string
    is parsed and no None becomes NaN.  The caller raises its own error and
    casts the array it gets.
    """
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # ragged
        return None
    return a if a.dtype.kind in ("biufc" if complex_ok else "biuf") else None


def pauli_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All 4**n Pauli strings on n qubits in lexicographic (index) order.

    n must be a non-negative integer (`is_integer`), or
    `InvalidConfigurationError` is raised.
    """
    if not (is_integer(n) and n >= 0):
        raise InvalidConfigurationError(f"n must be a non-negative integer, got {n!r:.80}")
    return itertools.product(range(4), repeat=n)


def pauli_labels(n: int) -> list[str]:
    """Text labels ('I', 'X', ..., 'IX', ...) matching `pauli_strings` order."""
    return ["".join(PAULI_LABELS[p] for p in s) for s in pauli_strings(n)]


def bell_basis() -> list[np.ndarray]:
    """The four Bell states in the order (phi+, psi+, psi-, phi-).

    Index m of this list is the state that the Pauli error with index m,
    acting on the primary qubit of phi+, maps phi+ onto.
    """
    s = 1.0 / math.sqrt(2)
    phi_plus = np.array([s, 0, 0, s], dtype=complex)
    psi_plus = np.array([0, s, s, 0], dtype=complex)
    psi_minus = np.array([0, -s, s, 0], dtype=complex)
    phi_minus = np.array([s, 0, 0, -s], dtype=complex)
    return [phi_plus, psi_plus, psi_minus, phi_minus]


def hermiticity_deviation(a: np.ndarray) -> float:
    """Max entrywise deviation of a from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2 of a square complex128 matrix, as a new array.

    The halving multiplies the float64 view by 0.5: exact for finite
    entries, and half the cost of numpy's complex division by 2, whose
    result it matches except, at most, in the sign of an exact zero.
    """
    herm = np.conjugate(a.T, order="C")
    herm += a
    parts = herm.view(np.float64)
    parts *= 0.5
    return herm


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a."""
    return float(np.linalg.eigvalsh(hermitian_part(np.asarray(a, dtype=complex))).min())

