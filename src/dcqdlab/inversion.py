"""The per-pair linear map behind every forward model and every reconstruction.

Every experiment here is n copies of one small experiment: each primary
qubit (with its ancilla, if any) gets the same inputs and the same readout.
Every datum (an outcome probability, or a Pauli expectation in `sqpt`) is
linear in chi, so the small experiment is one R x 16 per-pair design D1,
and the experiment on n pairs is D1 applied along every pair axis of chi
(a permuted n-fold Kronecker power of D1):

* `per_pair` applies one small matrix along each pair axis; the forward
  model, the solver and the Kraus <-> chi conversions in `channels` all go
  through it.  Each pair axis is one 2-D GEMM on a transposed view of the
  current array, so no operand is copied into a new layout first; a
  trailing axis (a Kraus index) rides along and comes back first;
* `readout_design` builds D1 from an R x 4 readout table T (row r is one
  (input, outcome) pair, and an operator K on the qubit gives it the
  amplitude sum_{a, a'} K[a, a'] T[r, (a, a')]):
  D1[r, (m, m')] = c[r, m] conj(c[r, m']) with c[r, m] = sum T[r, (a, a')] E_m[a, a']
  and E_m = ops.PAULIS[m], the one-qubit Pauli table;
* the forward model `forward` applies a per-pair design along each pair
  axis of chi: q = D1^{(x) n} chi;
* `Scheme(readout, outcomes, inputs, row_map)` is one pair's experiment: S
  settings (I inputs x S / I measurements each) x K outcomes and its
  read-only per-pair design D1, `readout` or, with a real row map of its
  outcomes, `row_map @ readout`, rows ordered (setting, outcome).  It is the
  one place that knows the size of the experiment on n pairs: `counts(n)`
  gives its I**n inputs, (S / I)**n measurements per input and S**n
  configurations, and `check_pairs(n)` bounds its data, len(D1)**n entries,
  by the 16**MAX_QUBITS entries of the largest chi before anything of that
  size is built.  Its `forward` checks n and the shape of chi, then
  applies `readout`, then `row_map`, along each pair axis; its `solve`
  checks that the data are real (`_real_data`) and finite (`_check_finite`),
  then applies the pseudo-inverse: one SVD of
  D1, kept on the scheme, gives its rank (the full design has
  rank(D1)**n), cond(D1)**n and pinv(D1), and pinv(D1) along every pair
  axis of the data is the least-squares chi.  Each experiment keeps its
  schemes (per amplitudes, or once per process), so the SVD runs once per
  scheme;
* `ReconstructionResult` is what every `solve` returns, for every scheme:
  chi, the qubit and configuration counts and the design's rank and
  condition number on n pairs.

The direct protocol's schemes (`dcqd`) share one readout table: the full
experiment, one setting, and the partial Bell analyzer, which merges outcomes.
The SQPT baseline (`sqpt`) is a square scheme of 16 (input, Pauli)
settings x 1 outcome whose data are Pauli expectations; it builds its
design D1[(i, p), (m, m')] = Tr(E_p E_m rho_i E_m'^dag) itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import ops
from .exceptions import (
    DimensionMismatchError,
    IllPosedConfigurationError,
    InvalidConfigurationError,
    InvalidDistributionError,
)

__all__ = [
    "ReconstructionResult", "Scheme", "forward", "pair_axes", "per_pair", "readout_design", "unpair_axes",
]


def pair_axes(x: np.ndarray, n: int, d) -> np.ndarray:
    """(..., r**n, c**n) -> (..., r*c, ..., r*c) with axis i = (row digit i, col digit i).

    `d` is the digit shape (r, c), or one int for r = c = d.
    """
    r, c = (d, d) if np.ndim(d) == 0 else d
    lead = x.shape[:-2]
    k = len(lead)
    perm = list(range(k)) + [k + j for i in range(n) for j in (i, n + i)]
    return x.reshape(lead + (r,) * n + (c,) * n).transpose(perm).reshape(lead + (r * c,) * n)


def unpair_axes(t: np.ndarray, n: int, d) -> np.ndarray:
    """Inverse of `pair_axes`: (..., r*c, ..., r*c) -> (..., r**n, c**n)."""
    r, c = (d, d) if np.ndim(d) == 0 else d
    lead = t.shape[: t.ndim - n]
    k = len(lead)
    perm = list(range(k)) + [k + j for j in range(0, 2 * n, 2)]
    perm += [k + j for j in range(1, 2 * n, 2)]
    return t.reshape(lead + (r, c) * n).transpose(perm).reshape(lead + (r**n, c**n))


def per_pair(t: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Apply mats[i] along axis i of t; axes after the pair axes come out first."""
    t = np.asarray(t)
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
    c = np.asarray(table) @ np.reshape(ops.PAULIS, (4, 4)).T
    return np.einsum("rm,rn->rmn", c, c.conj()).reshape(len(c), 16)


def _real_data(data) -> np.ndarray:
    """Outcome data as a float array, if they are an array of real numbers (`ops.number_array`).

    Anything else raises `InvalidDistributionError`: complex data instead of
    losing their imaginary part, text instead of being parsed, and an object
    array, None entries included, instead of reading None as NaN.
    """
    a = ops.number_array(data, complex_ok=False)
    if a is None:
        raise InvalidDistributionError(
            f"outcome data must be real numbers, not complex, strings or other objects: {data!r:.80}"
        )
    return a.astype(float, copy=False)


def _check_finite(data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise InvalidDistributionError("outcome data contain NaN or infinite entries")


@dataclass
class ReconstructionResult:
    """Reconstructed process matrix plus solver diagnostics, built by `Scheme.solve`.

    `chi` is the exactly Hermitian least-squares estimate on `n_qubits`
    pairs; `n_configurations` is the scheme's `counts(n)["n_experiments"]`
    (4**n for DCQD, 8**n for the partial Bell analyzer, 16**n for SQPT).
    `design_rank` and `design_cond` describe the design of all
    configurations, rank(D1)**n and cond(D1)**n, at every n.  For a single
    pair `dcqd.characterize` also evaluates the closed-form route:
    `chi_closed_form` is that chi and `residual` the max entrywise distance
    between the two; elsewhere both are None.
    """

    chi: np.ndarray
    n_qubits: int
    n_configurations: int
    residual: Optional[float] = None
    chi_closed_form: Optional[np.ndarray] = None
    design_rank: Optional[int] = None
    design_cond: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Scheme:
    """One pair's experiment: `settings` x `outcomes` rows of a read-only per-pair design.

    `design` is the R x 16 per-pair design, `readout` (the table's outcomes)
    or `row_map @ readout` (a real map of them), each copied read-only; rows
    ordered (setting, outcome) and columns (m, m') of chi; the settings are
    ordered (input, measurement), `inputs` inputs with settings / inputs
    measurements each.  The experiment on n pairs runs `settings**n`
    configurations (`counts`); its data have one axis of length R per pair,
    at most 16**`channels.MAX_QUBITS` entries in all
    (`check_pairs`), and `unpair_axes(data, n, (settings, outcomes))` puts
    configurations in rows and joint outcomes in columns.  The data are
    outcome probabilities, or any other data linear in chi, such as the
    Pauli expectations of `sqpt`'s one-outcome settings; `sampling.sample`
    draws only from probabilities.
    """

    readout: np.ndarray
    outcomes: int
    inputs: int
    row_map: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("readout", "row_map"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.array(getattr(self, name)))
                getattr(self, name).flags.writeable = False

    @functools.cached_property
    def design(self) -> np.ndarray:
        design = self.readout if self.row_map is None else self.row_map @ self.readout
        design.flags.writeable = False
        return design

    @property
    def settings(self) -> int:
        return len(self.design) // self.outcomes

    def counts(self, n: int) -> dict[str, int]:
        """Inputs, measurements per input and configurations of n pairs, as exact integers."""
        s, i = self.settings, self.inputs
        return {"n_inputs": i**n, "n_measurements": (s // i) ** n, "n_experiments": s**n}

    def check_pairs(self, n: int) -> None:
        """Reject n pairs before anything of their size is built.

        n must pass `channels.check_register_size`, and the data, len(design)**n
        entries, may not exceed the 16**MAX_QUBITS entries of the largest chi;
        either raises `InvalidConfigurationError`.
        """
        from . import channels  # which imports this module

        channels.check_register_size(n)
        if len(self.design) ** n > 16**channels.MAX_QUBITS:
            raise InvalidConfigurationError(
                f"the data of {n} pairs have {len(self.design)}**{n} entries; the limit is "
                f"16**{channels.MAX_QUBITS}, the entries of the largest chi"
            )

    def _pairs(self, data: np.ndarray) -> int:
        """The pairs of `data`: one axis of len(design) each, at least one (`check_pairs`)."""
        shape = np.shape(data)
        if not shape or shape.count(len(self.design)) != len(shape):
            raise DimensionMismatchError(
                f"data of shape {shape}, expected one axis of {len(self.design)} per pair"
            )
        self.check_pairs(len(shape))
        return len(shape)

    def forward(self, chi: np.ndarray, n: int) -> np.ndarray:
        """Outcome probabilities of n pairs, one axis per pair: `forward`, then the row map.

        Before any arithmetic, n must pass `check_pairs` and chi must be
        4**n x 4**n (`DimensionMismatchError`).
        """
        self.check_pairs(n)
        if np.shape(chi) != (4**n, 4**n):
            raise DimensionMismatchError(
                f"chi of shape {np.shape(chi)} on {n} pair(s), expected ({4**n}, {4**n})"
            )
        data = forward([self.readout] * n, chi)
        return data if self.row_map is None else per_pair(data, [self.row_map] * n)

    @functools.cached_property
    def _svd(self) -> tuple[Optional[np.ndarray], Optional[float], int]:
        """(pinv, cond, rank) of the design, pinv read-only; pinv and cond are
        None when the design is rank deficient, so `solve` raises on every call."""
        u, s, vh = np.linalg.svd(self.design, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(self.design.shape) * np.finfo(float).eps))
        if rank < 16:
            return None, None, rank
        pinv = (vh.conj().T / s) @ u.conj().T
        pinv.flags.writeable = False
        return pinv, float(s[0] / s[-1]), rank

    def solve(self, data: np.ndarray) -> ReconstructionResult:
        """Least-squares chi of n pairs, with the counts and conditioning of their design.

        `data` has one axis of length R per pair; data that are not real
        numbers raise `InvalidDistributionError` (`_real_data`), then no
        axis, or one of another length, `DimensionMismatchError`, then a NaN
        or infinite entry `InvalidDistributionError`.  The result's chi is the
        exactly Hermitian (chi + chi^H)/2, with rank(design)**n and
        cond(design)**n.  A rank-deficient design raises instead of
        returning a wrong chi.
        """
        data = _real_data(data)
        n = self._pairs(data)
        _check_finite(data)
        pinv, cond, rank = self._svd
        if pinv is None:
            raise IllPosedConfigurationError(
                f"per-pair design has rank {rank} < 16, so the design of {n} pair(s) has rank "
                f"{rank}**{n} < 16**{n}; the data do not determine chi"
            )
        # axis i of x is (m_i, m'_i); rows of chi are (m_1..m_n)
        chi = unpair_axes(per_pair(data, [pinv] * n), n, 4)
        return ReconstructionResult(
            ops.hermitian_part(chi), n, self.counts(n)["n_experiments"],
            design_rank=rank**n, design_cond=cond**n,
        )
