"""The per-pair factored engine behind every reconstruction in dcqdlab.

Every experiment here is n copies of one small experiment: each primary
qubit (with its ancilla, if any) gets the same inputs and the same readout.
One readout table T describes the small experiment.  Row r is one (input,
outcome) pair and an operator K on the qubit gives that row the amplitude
sum_{a, a'} K[a, a'] T[r, (a, a')].  From T come

* the forward model `pair_probabilities`: each Kraus operator, arranged
  with one (a, a') axis per qubit, contracted with T along every axis,
  gives the probabilities of all R**n joint rows at once;
* the per-pair design `readout_design`, D1[r, (m, m')] = c[r, m]
  conj(c[r, m']) with c[r, m] = sum T[r, (a, a')] E_m[a, a'], so the design
  of all n copies is a permuted n-fold Kronecker power of D1;
* the solver `solve`: one SVD of D1 gives its rank (the full design has
  rank(D1)**n), cond(D1)**n and pinv(D1); pinv(D1) applied along every
  pair axis of the data is the least-squares chi.

The direct protocol (`dcqd`), the partial Bell analyzer (`sampling`, a merge
matrix on the rows of D1) and the SQPT baseline (`sqpt`) differ only in T.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import ops
from .exceptions import IllPosedConfigurationError

__all__ = ["pair_axes", "pair_probabilities", "readout_design", "solve", "unpair_axes"]

# Kraus operators are contracted in batches of at most this many amplitudes.
_BATCH_ENTRIES = 2**20


def pair_axes(x: np.ndarray, n: int, d: int) -> np.ndarray:
    """(..., d**n, d**n) -> (..., d*d, ..., d*d) with axis i = (row digit i, col digit i)."""
    lead = x.shape[:-2]
    k = len(lead)
    perm = list(range(k)) + [k + j for i in range(n) for j in (i, n + i)]
    return x.reshape(lead + (d,) * (2 * n)).transpose(perm).reshape(lead + (d * d,) * n)


def unpair_axes(t: np.ndarray, n: int, d: int) -> np.ndarray:
    """Inverse of `pair_axes` without leading axes: (d*d,)*n -> (d**n, d**n)."""
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return t.reshape((d,) * (2 * n)).transpose(perm).reshape(d**n, d**n)


def _per_pair(t: np.ndarray, mats: Sequence[np.ndarray], lead: int = 0) -> np.ndarray:
    """Apply mats[i] along pair axis i (the axes after the first `lead`)."""
    for m in mats:
        # contracts the current first pair axis and appends the result last,
        # so after n steps the pair axes are back in order
        t = np.tensordot(t, m, axes=([lead], [1]))
    return t


def pair_probabilities(kraus: Sequence[np.ndarray], tables: Sequence[np.ndarray]) -> np.ndarray:
    """q[r_1, .., r_n] = sum_K |sum_{a, a'} K[a, a'] prod_i tables[i][r_i, (a_i, a'_i)]|^2."""
    n = len(tables)
    k = pair_axes(np.asarray(kraus, dtype=complex), n, 2)
    shape = tuple(t.shape[0] for t in tables)
    step = max(1, _BATCH_ENTRIES // math.prod(shape))
    q = np.zeros(math.prod(shape))
    for start in range(0, len(k), step):
        amp = _per_pair(k[start : start + step], tables, lead=1)
        # |amp|^2 summed over Kraus operators, on the (re, im) float view
        parts = amp.reshape(len(amp), -1).view(float)
        squares = np.einsum("ki,ki->i", parts, parts)
        q += squares[0::2] + squares[1::2]
    return q.reshape(shape)


def readout_design(table: np.ndarray) -> np.ndarray:
    """Per-pair design D1[r, (m, m')] = c[r, m] conj(c[r, m']) of an R x 4 readout table."""
    c = np.asarray(table) @ ops.pauli_basis(1).reshape(4, 4).T
    return np.einsum("rm,rn->rmn", c, c.conj()).reshape(len(c), 16)


def solve(design: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares chi of n pairs and the condition number of their design.

    `design` is the R x 16 per-pair design and `data` has one axis of length
    R per pair.  Returns the exactly Hermitian (chi + chi^H)/2 and
    cond(design)**n.  A rank-deficient design raises instead of returning a
    wrong chi.
    """
    n = data.ndim
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(design.shape) * np.finfo(float).eps))
    if rank < 16:
        raise IllPosedConfigurationError(
            f"per-pair design has rank {rank} < 16, so the design of {n} pair(s) has rank "
            f"{rank}**{n} < 16**{n}; the data do not determine chi"
        )
    pinv = (vh.conj().T / s) @ u.conj().T
    # axis i of x is (m_i, m'_i); rows of chi are (m_1..m_n)
    chi = unpair_axes(_per_pair(data, [pinv] * n), n, 4)
    return (chi + chi.conj().T) / 2, float(s[0] / s[-1]) ** n
