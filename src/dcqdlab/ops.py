"""Dense complex linear algebra and qubit primitives.

Everything else in the package is built on the conventions fixed here:

* Computational basis: within a primary/ancilla pair the primary qubit A is
  the most significant factor, so the two-qubit basis order |00>, |01>,
  |10>, |11> reads |q_A q_B>.  For n pairs the register is laid out
  primary-block first, [A_1 .. A_n, B_1 .. B_n], with A_1 most significant.
* Pauli operators are indexed 0:I, 1:X, 2:Y, 3:Z with Y = [[0,-i],[i,0]].
  Multi-qubit Pauli strings are tuples of these digits, enumerated in
  lexicographic order (first qubit most significant), which also fixes the
  row/column order of every process matrix.
* The Bell basis is ordered (phi+, psi+, psi-, phi-).  With this order the
  state obtained by acting with Pauli index m on the primary half of phi+
  is (up to phase) basis element m, so a Bell-type measurement detects the
  Pauli label of a single error directly.

All functions are pure; arrays are treated as immutable values.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exceptions import DimensionMismatchError

PAULI_LABELS = "IXYZ"

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)

BELL_LABELS = ("phi+", "psi+", "psi-", "phi-")


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors)."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    return reduce(np.kron, [np.asarray(f, dtype=complex) for f in factors])


def pauli_matrix(letters: Sequence[int]) -> np.ndarray:
    """Matrix of the Pauli string with the given digits (0:I 1:X 2:Y 3:Z)."""
    letters = tuple(int(p) for p in letters)
    if not letters:
        raise ValueError("empty Pauli string")
    if any(p not in (0, 1, 2, 3) for p in letters):
        raise ValueError(f"Pauli digits must be in 0..3, got {letters}")
    return tensor(*(PAULIS[p] for p in letters))


def pauli_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All 4**n Pauli strings on n qubits in lexicographic (index) order."""
    return itertools.product(range(4), repeat=n)


def pauli_labels(n: int) -> list[str]:
    """Text labels ('I', 'X', ..., 'IX', ...) matching `pauli_strings` order."""
    return ["".join(PAULI_LABELS[p] for p in s) for s in pauli_strings(n)]


def pauli_basis(n: int) -> np.ndarray:
    """Stack of all 4**n Pauli-string matrices, shape (4**n, 2**n, 2**n)."""
    return np.array([pauli_matrix(s) for s in pauli_strings(n)])


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


def bell_projectors() -> list[np.ndarray]:
    """Rank-1 projectors onto the Bell states, in `bell_basis` order."""
    return [projector(b) for b in bell_basis()]


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a state vector psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """Tr(op rho).

    Real to machine precision whenever `op` is Hermitian and `rho` is a
    valid density operator; callers take `.real` where that is guaranteed.
    """
    rho = np.asarray(rho)
    op = np.asarray(op)
    if rho.shape != op.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match state shape {rho.shape}"
        )
    return complex(np.trace(op @ rho))


def partial_trace(rho: np.ndarray, keep: Iterable[int], dims: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in `keep`.

    Parameters
    ----------
    rho : square matrix on the tensor product of the factors in `dims`.
    keep : indices (into `dims`) of the subsystems to retain, in order.
    dims : dimension of every tensor factor, left factor first.

    Returns
    -------
    Reduced density matrix on the kept factors, in their original order.
    """
    dims = tuple(int(d) for d in dims)
    rho = np.asarray(rho, dtype=complex)
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {rho.shape} inconsistent with factor dims {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {len(dims)} factors")
    traced = [i for i in range(len(dims)) if i not in keep]
    t = rho.reshape(dims + dims)
    nsub = len(dims)
    for ax in sorted(traced, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + nsub)
        nsub -= 1
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


def permute_qubits(a: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder the qubits of a state vector or square operator.

    `perm[i]` is the old position of the qubit that ends up at position i
    (position 0 = most significant factor).
    """
    perm = list(perm)
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
    a = np.asarray(a, dtype=complex)
    dim = 2**k
    if a.ndim == 1:
        if a.shape != (dim,):
            raise DimensionMismatchError(f"vector length {a.shape[0]} != 2**{k}")
        return a.reshape([2] * k).transpose(perm).reshape(dim)
    if a.shape != (dim, dim):
        raise DimensionMismatchError(f"matrix shape {a.shape} != ({dim}, {dim})")
    axes = perm + [p + k for p in perm]
    return a.reshape([2] * (2 * k)).transpose(axes).reshape(dim, dim)


def hermiticity_deviation(a: np.ndarray) -> float:
    """Max entrywise deviation of a from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a."""
    a = np.asarray(a, dtype=complex)
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2).min())

