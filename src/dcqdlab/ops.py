"""Dense complex linear algebra, qubit primitives and the input rules every module shares.

The input rules: `is_integer` and `is_real` for scalars, `number_array`
and `square_array` for arrays, the register bound (`check_register_size`,
n in 1..`MAX_QUBITS`), the chi rule (`checked_matrix`: a finite 4**n x
4**n chi or d**2 x d**2 Choi matrix of numbers) and the data rule
(`real_data`, then `check_finite`); callers reach the last three as `ops.<name>`.

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

from .exceptions import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidConfigurationError,
    InvalidDistributionError,
)

PAULI_LABELS = "IXYZ"

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)

# Largest register any entry point accepts: its process matrix has
# 16**n complex entries, 16 MiB at n = 5.  Checked before anything of size
# 16**n is allocated.
MAX_QUBITS = 5


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


def square_array(value, ndim: int, name: str) -> np.ndarray:
    """`value`, an array of numbers (`number_array`) of `ndim` square matrices, as complex.

    Its `ndim` axes (2 for one matrix, 3 for a (K, d, d) stack) must end
    in two of one length, and it must not be empty.  Not numbers raise
    `InvalidChannelError` and another shape `DimensionMismatchError`: the
    one rule for a matrix or a stack of them in a channel.
    """
    a = number_array(value, complex_ok=True)
    if a is None:
        raise InvalidChannelError(f"{name} must be an array of numbers, got {value!r:.80}")
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or not a.size:
        form = "(K, d, d)" if ndim == 3 else "(d, d)"
        raise DimensionMismatchError(f"{name} shape {a.shape} is not a nonempty {form}")
    return a.astype(complex, copy=False)


def check_register_size(n: int) -> None:
    """Reject register sizes that are not integers in 1..`MAX_QUBITS` (chi of 16**n entries).

    An integer is an `int` or a numpy integer; a bool, a float (even 2.0)
    or a string is not.
    """
    if not is_integer(n):
        raise InvalidConfigurationError(f"qubit count must be an integer, got {n!r}")
    if n < 1:
        raise InvalidConfigurationError(f"need at least one pair, got n={n}")
    if n > MAX_QUBITS:
        raise InvalidConfigurationError(
            f"n = {n} needs a process matrix of 16**{n} complex entries; the limit is "
            f"16**{MAX_QUBITS} entries (16 MiB)"
        )


def checked_matrix(matrix, name: str, qubits: bool) -> tuple[np.ndarray, int]:
    """A chi (`qubits`) or Choi matrix as a complex array, and d with side d**2: the chi rule.

    It must be a square matrix of numbers (`square_array`), its side
    d**2 with d >= 2, a power of 2 for chi (4**n x 4**n), or
    `DimensionMismatchError` is raised; a non-finite entry raises
    `InvalidChannelError`, and so does anything that is not an array of
    numbers.
    """
    m = square_array(matrix, 2, name)
    d = math.isqrt(len(m))
    if d < 2 or d * d != len(m) or (qubits and d & (d - 1)):
        form = "4**n x 4**n" if qubits else "d**2 x d**2"
        raise DimensionMismatchError(f"{name} shape {m.shape} is not {form}")
    if not np.isfinite(m).all():
        raise InvalidChannelError(f"{name} has a non-finite entry")
    return m, d


def real_data(data) -> np.ndarray:
    """Outcome data as a float array, if they are an array of real numbers (`number_array`).

    Anything else raises `InvalidDistributionError`: complex data instead of
    losing their imaginary part, text instead of being parsed, and an object
    array, None entries included, instead of reading None as NaN.  With
    `check_finite`, the data rule.
    """
    a = number_array(data, complex_ok=False)
    if a is None:
        raise InvalidDistributionError(
            f"outcome data must be real numbers, not complex, strings or other objects: {data!r:.80}"
        )
    return a.astype(float, copy=False)


def check_finite(data: np.ndarray) -> None:
    """Reject outcome data with a NaN or infinite entry (`InvalidDistributionError`)."""
    if not np.isfinite(data).all():
        raise InvalidDistributionError("outcome data contain NaN or infinite entries")


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
    """Max entrywise deviation of a square matrix (`square_array`) from its conjugate transpose."""
    a = square_array(a, 2, "matrix")
    return float(np.max(np.abs(a - a.conj().T)))


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
    """Smallest eigenvalue of the Hermitian part of a square matrix (`square_array`)."""
    return float(np.linalg.eigvalsh(hermitian_part(square_array(a, 2, "matrix"))).min())

