"""The per-pair linear map behind every forward model and every reconstruction.

Every experiment here is n copies of one small experiment: each primary
qubit (with its ancilla, if any) gets the same inputs and the same readout.
Every outcome probability is linear in chi, so the small experiment is one
R x 16 per-pair design D1 and the experiment on n pairs is D1 applied along
every pair axis of chi (a permuted n-fold Kronecker power of D1):

* `per_pair` applies one small matrix along each pair axis; the forward
  model, the solver and the Kraus <-> chi conversions in `channels` all go
  through it.  Each pair axis is one 2-D GEMM on a transposed view of the
  current array, so no operand is copied into a new layout first; leading
  axes (a Kraus index) are moved behind the pair axes once;
* `readout_design` builds D1 from an R x 4 readout table T (row r is one
  (input, outcome) pair, and an operator K on the qubit gives it the
  amplitude sum_{a, a'} K[a, a'] T[r, (a, a')]):
  D1[r, (m, m')] = c[r, m] conj(c[r, m']) with c[r, m] = sum T[r, (a, a')] E_m[a, a'];
* the forward model `forward` applies D1 to chi: q = D1^{(x) n} chi;
* the solver `solve` applies its pseudo-inverse: one SVD of D1 gives its
  rank (the full design has rank(D1)**n), cond(D1)**n and pinv(D1), and
  pinv(D1) along every pair axis of the data is the least-squares chi.
  The SVD runs once per distinct D1 per process (a small bounded cache
  keyed on D1's exact bytes), since every call with the same amplitudes
  or scheme factors the same matrix.

The direct protocol (`dcqd`), the partial Bell analyzer (`sampling`, a merge
matrix on the rows of D1) and the SQPT baseline (`sqpt`) differ only in T.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from . import ops
from .exceptions import IllPosedConfigurationError

__all__ = ["forward", "pair_axes", "per_pair", "readout_design", "solve", "unpair_axes"]


def pair_axes(x: np.ndarray, n: int, d: int) -> np.ndarray:
    """(..., d**n, d**n) -> (..., d*d, ..., d*d) with axis i = (row digit i, col digit i)."""
    lead = x.shape[:-2]
    k = len(lead)
    perm = list(range(k)) + [k + j for i in range(n) for j in (i, n + i)]
    return x.reshape(lead + (d,) * (2 * n)).transpose(perm).reshape(lead + (d * d,) * n)


def unpair_axes(t: np.ndarray, n: int, d: int) -> np.ndarray:
    """Inverse of `pair_axes`: (..., d*d, ..., d*d) -> (..., d**n, d**n)."""
    lead = t.shape[: t.ndim - n]
    k = len(lead)
    perm = list(range(k)) + [k + j for j in range(0, 2 * n, 2)]
    perm += [k + j for j in range(1, 2 * n, 2)]
    return t.reshape(lead + (d,) * (2 * n)).transpose(perm).reshape(lead + (d**n, d**n))


def per_pair(t: np.ndarray, mats: Sequence[np.ndarray], lead: int = 0) -> np.ndarray:
    """Apply mats[i] along pair axis i (the axes after the first `lead`)."""
    t = np.asarray(t)
    if lead:
        # the leading axes go behind the pair axes once (one copy at the
        # first step) and come back to the front after the last step
        t = np.moveaxis(t, range(lead), range(t.ndim - lead, t.ndim))
    for m in mats:
        # one 2-D GEMM on a transposed view: contracts the current first axis
        # and appends the result last, so after n steps every axis is back
        # in order
        t = (t.reshape(t.shape[0], -1).T @ m.T).reshape(t.shape[1:] + m.shape[:1])
    return t


def forward(designs: Sequence[np.ndarray], chi: np.ndarray) -> np.ndarray:
    """Outcome probabilities of n pairs: designs[i] applied along pair axis i of chi.

    q[r_1, .., r_n] = Re sum_{m, m'} prod_i designs[i][r_i, (m_i, m'_i)] chi[m, m'],
    with rows and columns of chi ordered like `ops.pauli_strings(n)`.
    """
    return per_pair(pair_axes(chi, len(designs), 4), designs).real


def readout_design(table: np.ndarray) -> np.ndarray:
    """Per-pair design D1[r, (m, m')] = c[r, m] conj(c[r, m']) of an R x 4 readout table."""
    c = np.asarray(table) @ ops.pauli_basis(1).reshape(4, 4).T
    return np.einsum("rm,rn->rmn", c, c.conj()).reshape(len(c), 16)


@functools.lru_cache(maxsize=32)
def _factorize(
    buf: bytes, shape: tuple[int, ...], dtype: str
) -> tuple[Optional[np.ndarray], Optional[float], int]:
    """(pinv, cond, rank) of the design whose exact bytes, shape and dtype are given.

    pinv and cond are None when the design is rank deficient; the caller
    raises, so that error is raised on every call, not cached away.
    """
    design = np.frombuffer(buf, dtype=dtype).reshape(shape)
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(shape) * np.finfo(float).eps))
    if rank < 16:
        return None, None, rank
    pinv = (vh.conj().T / s) @ u.conj().T
    pinv.flags.writeable = False
    return pinv, float(s[0] / s[-1]), rank


def solve(design: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares chi of n pairs and the condition number of their design.

    `design` is the R x 16 per-pair design and `data` has one axis of length
    R per pair.  Returns the exactly Hermitian (chi + chi^H)/2 and
    cond(design)**n.  A rank-deficient design raises instead of returning a
    wrong chi.  The SVD runs once per distinct design per process: pinv(design),
    its cond and its rank are cached (at most 32 designs) on the design's
    exact bytes, shape and dtype, and the cached pinv is read-only.
    """
    n = data.ndim
    design = np.asarray(design)
    pinv, cond, rank = _factorize(design.tobytes(), design.shape, design.dtype.str)
    if pinv is None:
        raise IllPosedConfigurationError(
            f"per-pair design has rank {rank} < 16, so the design of {n} pair(s) has rank "
            f"{rank}**{n} < 16**{n}; the data do not determine chi"
        )
    # axis i of x is (m_i, m'_i); rows of chi are (m_1..m_n)
    chi = unpair_axes(per_pair(data, [pinv] * n), n, 4)
    # (chi + chi^H) / 2 with one temporary, bit for bit
    herm = np.conjugate(chi.T, order="C")
    herm += chi
    herm /= 2
    return herm, cond**n
