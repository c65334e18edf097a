"""Quantum channels: Kraus, process-matrix (chi) and Choi representations.

A channel on n qubits is given as a plain sequence of 2**n x 2**n complex
Kraus operators, or as a `ChannelSpec`; a one-qubit channel given for n
qubits means n independent copies of it.  The process matrix chi is the
coefficient matrix of the same map expanded in the Pauli-string basis,

    E(rho) = sum_mn chi[m, n] E_m rho E_n^dag,

with rows/columns ordered like `ops.pauli_strings(n)`.  chi is Hermitian,
positive semidefinite, and has trace <= 1 (= 1 for trace-preserving maps);
its diagonal and off-diagonal entries are referred to as the dynamical
population and coherence of the map.  `as_chi` is the channel boundary of
every reconstruction: it checks the register size before anything is
allocated, validates a channel once and returns its chi on n qubits, the
Kronecker power of the 4 x 4 chi for a one-qubit channel, so no i.i.d.
channel is expanded to 4**n Kraus operators.  A raw Kraus set is stacked
into one (K, d, d) complex array and validated once (`check_kraus`); the
conversion to chi takes that same array, so the set is not stacked again.
`Chi.of(channel, n)` keeps that result, with n and its trace preservation,
as one value that every entry point takes and `as_chi` hands back as it is.
Each check has one tolerance, a module constant (`*_ATOL`, `KEEP_TOL`, `EIG_FLOOR`).

The Choi matrix used here lives on (input factor) x (output factor):
C = sum_ij |i><j| (x) E(|i><j|), so trace-preservation reads
Tr_out C = identity on the input factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import inversion, ops
from .exceptions import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidConfigurationError,
    NotCompletelyPositiveError,
)
from .ops import is_integer, is_real

__all__ = [
    "ChannelSpec",
    "Chi",
    "ChiValidation",
    "amplitude_damping",
    "as_chi",
    "bit_flip",
    "check_kraus",
    "check_register_size",
    "chi_from_kraus",
    "compose",
    "depolarizing",
    "identity_channel",
    "kraus_from_chi",
    "kraus_from_choi",
    "kraus_from_spec",
    "phase_damping",
    "phase_flip",
    "random_channel",
    "rotation",
    "validate_chi",
]

# Largest register any entry point accepts: its process matrix has
# 16**n complex entries, 16 MiB at n = 5.  Checked before anything of size
# 16**n is allocated.
MAX_QUBITS = 5

# Tolerances: of sum K^dag K <= I; of chi and Choi eigenvalues (below -CP_ATOL
# the map is not CP, up to KEEP_TOL they give no Kraus operator); of `validate_chi`
KRAUS_ATOL = 1e-10
CP_ATOL = 1e-9
KEEP_TOL = 1e-12
HERMITIAN_ATOL = 1e-10
EIG_FLOOR = -1e-9
TRACE_ATOL = 1e-10
TP_ATOL = 1e-10


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


# One-qubit Pauli matrices (E_m = ops.PAULIS[m]) that the n-qubit maps below
# apply along every pair axis: TRACE[m, (a, a')] = E_m[a', a] / 2 takes K to
# Tr(E_m K) / 2, EXPAND[(a, a'), m] = E_m[a, a'] takes v to sum_m v[m] E_m,
# and PRODUCTS[(a, c), (m, n)] = (E_n E_m)[a, c].
_PAULI_TRACE = np.array([e.T.ravel() for e in ops.PAULIS]) / 2
_PAULI_EXPAND = np.array([e.ravel() for e in ops.PAULIS]).T
_PAULI_PRODUCTS = np.einsum("nab,mbc->acmn", ops.PAULIS, ops.PAULIS).reshape(4, 16)


def trace_gap(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """I - sum K^dag K: zero for a trace-preserving set, PSD for a trace-decreasing one."""
    mats = np.asarray(kraus, dtype=complex)
    d = mats.shape[-1]
    # the operators stacked as one (K d) x d matrix F, so sum K^dag K = F^H F
    f = mats.reshape(-1, d)
    return np.eye(d) - f.conj().T @ f


def check_kraus(
    kraus: Sequence[np.ndarray], trace_preserving: Optional[bool] = None
) -> list[np.ndarray]:
    """Validate a Kraus set and return it as a list of complex arrays.

    The set must be non-empty, square, of uniform power-of-two dimension,
    and trace non-increasing: sum K^dag K <= I within `KRAUS_ATOL`.  With
    trace_preserving=True equality is required; with False, strict decrease
    somewhere.  A set that is not an array of numbers (`ops.number_array`:
    text, None entries and object arrays are not) raises
    `InvalidChannelError` too.
    """
    return list(_stacked_kraus(kraus, trace_preserving))


def _chi_not_kraus() -> InvalidChannelError:
    """The error for a `Chi` given where a Kraus set is needed."""
    return InvalidChannelError(
        "a Chi is a process matrix, not a Kraus set; its Kraus set is kraus_from_chi(value.matrix)"
    )


def _malformed(kraus) -> InvalidChannelError:
    """The error for a Kraus set that does not stack into one (K, d, d) array of numbers.

    Each operator is judged on its own by `ops.number_array`; when all are
    arrays of numbers, the message names the first shape that is not the
    first operator's square one.
    """
    if isinstance(kraus, Chi):
        return _chi_not_kraus()
    try:
        mats = [ops.number_array(k, complex_ok=True) for k in kraus]
    except TypeError:  # not a sequence
        mats = [None]
    if not mats:
        return InvalidChannelError("empty Kraus set")
    if any(k is None for k in mats):
        return InvalidChannelError("Kraus operators must be arrays of numbers of one shape")
    d = mats[0].shape[0] if mats[0].ndim == 2 else 0
    shape = next((k.shape for k in mats if k.shape != (d, d)), None)
    return InvalidChannelError(f"Kraus operators must share a square shape, got {shape}")


def _kraus_array(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """A Kraus set stacked once into a (K, d, d) complex array, K >= 1 and d a power of 2.

    The set must be an array of numbers, complex ones included, by the rule
    of `ops.number_array`: numeric text is not parsed and a None entry is
    not read as NaN.  Only the structure is checked; anything else raises
    `InvalidChannelError`.
    """
    a = ops.number_array(kraus, complex_ok=True)
    if a is None or a.ndim != 3 or a.shape[1] != a.shape[2] or not len(a):
        raise _malformed(kraus)
    d = a.shape[1]
    if d < 2 or d & (d - 1):
        raise InvalidChannelError(f"Kraus dimension {d} is not a power of 2")
    return np.ascontiguousarray(a, dtype=complex)


def _stacked_kraus(
    kraus: Sequence[np.ndarray], trace_preserving: Optional[bool] = None
) -> np.ndarray:
    """`check_kraus` on the set stacked once, returned as one (K, d, d) complex array."""
    stacked = _kraus_array(kraus)
    # sum K^dag K <= I bounds every entry by 1; checking first also keeps
    # NaN and overflow out of the eigenvalue check below
    if not np.all(np.abs(stacked.view(float)) <= 1 + KRAUS_ATOL):
        raise InvalidChannelError(
            "Kraus set has a non-finite entry or a real or imaginary part beyond 1, "
            "which no trace non-increasing set has"
        )
    gap = trace_gap(stacked)
    lo = ops.min_eigenvalue(gap)
    if lo < -KRAUS_ATOL:
        raise InvalidChannelError(
            f"Kraus set increases trace: min eig of (I - sum K^dag K) = {lo:.3e}"
        )
    residual = float(np.max(np.abs(gap)))
    if trace_preserving is True and residual > KRAUS_ATOL:
        raise InvalidChannelError(
            f"Kraus set not trace preserving within {KRAUS_ATOL}: residual {residual:.3e}"
        )
    if trace_preserving is False and residual <= KRAUS_ATOL:
        raise InvalidChannelError("Kraus set flagged non-trace-preserving but sums to identity")
    return stacked


def n_qubits(kraus: Sequence[np.ndarray]) -> int:
    """The qubits of a checked Kraus set: its operators are 2**n x 2**n arrays."""
    return len(kraus[0]).bit_length() - 1


def chi_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Process matrix of a Kraus set.

    Expands each operator as K_i = sum_m c[i, m] E_m with
    c[i, m] = Tr(E_m K_i) / 2**n, then chi[m, n] = sum_i c[i, m] c[i, n]*.
    Only the set's structure is checked (`_kraus_array`: an array of
    numbers by the rule of `ops.number_array`, of shape (K, d, d)): a set
    that `check_kraus` already passed is not checked again.
    """
    mats = _kraus_array(kraus)
    n = n_qubits(mats)
    k = len(mats)
    # one copy puts the pair axes (row digit i, column digit i) first and the
    # Kraus index last, where `per_pair` wants it; it comes back first
    perm = [1 + j for i in range(n) for j in (i, n + i)] + [0]
    t = mats.reshape((k,) + (2,) * (2 * n)).transpose(perm).reshape((4,) * n + (k,))
    c = inversion.per_pair(t, [_PAULI_TRACE] * n).reshape(k, 4**n)
    return c.T @ c.conj()


def _checked_matrix(matrix, name: str, qubits: bool) -> tuple[np.ndarray, int]:
    """A chi (`qubits`) or Choi matrix as a complex array, and d with side d**2.

    The side must be d**2 with d >= 2, a power of 2 for chi (4**n x 4**n),
    or `DimensionMismatchError` is raised; a non-finite entry raises
    `InvalidChannelError`, and so does anything that is not an array of
    numbers (`ops.number_array`).
    """
    m = ops.number_array(matrix, complex_ok=True)
    if m is None:
        raise InvalidChannelError(f"{name} must be an array of numbers, got {matrix!r:.80}")
    side = m.shape[0] if m.ndim == 2 else 0
    d = math.isqrt(side)
    if d < 2 or m.shape != (d * d, d * d) or (qubits and d & (d - 1)):
        form = "4**n x 4**n" if qubits else "d**2 x d**2"
        raise DimensionMismatchError(f"{name} shape {m.shape} is not {form}")
    if not np.isfinite(m).all():
        raise InvalidChannelError(f"{name} has a non-finite entry")
    return m.astype(complex, copy=False), d


def kraus_from_chi(chi: np.ndarray) -> list[np.ndarray]:
    """Kraus set of a process matrix, via eigendecomposition of chi.

    Eigenvalues up to `KEEP_TOL` are dropped; eigenvalues below -`CP_ATOL`
    mean the map is not completely positive and raise.  chi must be
    4**n x 4**n and finite (`_checked_matrix`).
    """
    chi, d = _checked_matrix(chi, "chi", qubits=True)
    n = d.bit_length() - 1
    return _kraus_from_psd(
        chi, d, "chi has eigenvalue {:.3e} below -{}; no Kraus form exists",
        # one axis per qubit, then the operator index, which `per_pair` returns first
        lambda columns: inversion.unpair_axes(
            inversion.per_pair(columns.reshape((4,) * n + (-1,)), [_PAULI_EXPAND] * n), n, 2
        ),
    )


def _kraus_from_psd(m: np.ndarray, d: int, not_cp: str, operators) -> list[np.ndarray]:
    """`operators` of the columns sqrt(lam_i) v_i of m's Hermitian part with lam_i > `KEEP_TOL`.

    An eigenvalue below -`CP_ATOL` raises `NotCompletelyPositiveError`, whose
    message is `not_cp` formatted with it and `CP_ATOL`; the zero map gets one
    zero d x d operator.
    """
    vals, vecs = np.linalg.eigh(ops.hermitian_part(m))
    if vals.min() < -CP_ATOL:
        raise NotCompletelyPositiveError(not_cp.format(vals.min(), CP_ATOL))
    keep = vals > KEEP_TOL
    if not keep.any():
        # the all-zero map still needs one (zero) operator to stay a valid set
        return [np.zeros((d, d), dtype=complex)]
    return list(operators(vecs[:, keep] * np.sqrt(vals[keep])))


def compose(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Kraus set of (second after first); count multiplies, no minimization.

    Each set gets the structural check of `chi_from_kraus`.
    """
    a, b = _kraus_array(first), _kraus_array(second)
    if a.shape[1:] != b.shape[1:]:
        raise DimensionMismatchError(
            f"cannot compose channels of dims {a.shape[1:]} and {b.shape[1:]}"
        )
    return [k2 @ k1 for k2 in b for k1 in a]


@dataclass
class ChiValidation:
    """Validation report for a process matrix; numbers, not exceptions."""

    hermiticity_deviation: float
    min_eigenvalue: float
    trace: float
    tp_residual: Optional[float]
    hermitian_ok: bool
    psd_ok: bool
    trace_ok: bool
    tp_ok: Optional[bool]

    @property
    def all_ok(self) -> bool:
        checks = [self.hermitian_ok, self.psd_ok, self.trace_ok]
        if self.tp_ok is not None:
            checks.append(self.tp_ok)
        return all(checks)


def validate_chi(chi: np.ndarray, trace_preserving: bool = False) -> ChiValidation:
    """Report how far chi is from a valid (optionally TP) process matrix.

    TP residual is the max deviation of sum_mn chi[m, n] E_n E_m from the
    identity; it is only computed when trace_preserving is requested.  The
    checks use `HERMITIAN_ATOL`, `EIG_FLOOR`, `TRACE_ATOL` and `TP_ATOL`.
    chi must be 4**n x 4**n and finite (`_checked_matrix`).
    """
    chi, _ = _checked_matrix(chi, "chi", qubits=True)
    dev = ops.hermiticity_deviation(chi)
    lo = ops.min_eigenvalue(chi)
    tr = float(np.trace(chi).real)
    tp_residual = tp_ok = None
    if trace_preserving:
        tp_residual = _tp_residual(chi)
        tp_ok = tp_residual <= TP_ATOL
    return ChiValidation(
        hermiticity_deviation=dev,
        min_eigenvalue=lo,
        trace=tr,
        tp_residual=tp_residual,
        hermitian_ok=dev <= HERMITIAN_ATOL,
        psd_ok=lo >= EIG_FLOOR,
        trace_ok=tr <= 1.0 + TRACE_ATOL,
        tp_ok=tp_ok,
    )


def _tp_residual(chi: np.ndarray) -> float:
    """max |sum_mn chi[m, n] E_n E_m - I|, which is max |I - sum K^dag K| of chi's Kraus sets."""
    n = int(round(math.log2(chi.shape[0]) / 2))
    pairs = inversion.pair_axes(chi, n, 4)
    acc = inversion.unpair_axes(inversion.per_pair(pairs, [_PAULI_PRODUCTS] * n), n, 2)
    return float(np.max(np.abs(acc - np.eye(2**n))))


# ---------------------------------------------------------------------------
# Choi form and random channels
# ---------------------------------------------------------------------------


def kraus_from_choi(choi: np.ndarray) -> list[np.ndarray]:
    """Kraus set of a Choi matrix (input-major convention of this module), as `kraus_from_chi`."""
    choi, d = _checked_matrix(choi, "Choi", qubits=False)
    return _kraus_from_psd(
        choi, d, "Choi matrix has eigenvalue {:.3e} below -{}",
        lambda columns: [c.reshape(d, d).T for c in columns.T],
    )


def random_channel(
    n: int,
    rank: Optional[int] = None,
    trace_preserving: bool = True,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> list[np.ndarray]:
    """Random completely positive map on n qubits, as a Kraus set.

    Draws a Ginibre matrix G and forms the (PSD) Choi candidate G G^dag.
    The trace-preserving variant whitens the input marginal so that
    Tr_out C = I exactly; the non-TP variant rescales so the map is trace
    non-increasing with a random overall survival weight.  n is bounded
    like every register (`check_register_size`); `seed` is None or a
    non-negative integer, and `rng` None or a numpy Generator.
    """
    check_register_size(n)
    if rank is not None and not is_integer(rank):
        raise InvalidChannelError(f"Kraus rank must be an integer, got {rank!r}")
    if not (seed is None or (is_integer(seed) and seed >= 0)):
        raise InvalidChannelError(f"seed must be None or a non-negative integer, got {seed!r}")
    if not (rng is None or isinstance(rng, np.random.Generator)):
        raise InvalidChannelError(f"rng must be None or a numpy Generator, got {rng!r:.80}")
    if rng is None:
        rng = np.random.default_rng(seed)
    d = 2**n
    r = rank if rank is not None else d * d
    if not 1 <= r <= d * d:
        raise InvalidChannelError(f"Kraus rank must be in 1..{d * d}, got {r}")
    g = rng.normal(size=(d * d, r)) + 1j * rng.normal(size=(d * d, r))
    w = g @ g.conj().T
    # Tr_out of the input-major Choi candidate
    marginal = np.trace(w.reshape(d, d, d, d), axis1=1, axis2=3)
    if trace_preserving:
        vals, vecs = np.linalg.eigh(marginal)
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
        whiten = np.kron(inv_sqrt, np.eye(d))
        choi = whiten @ w @ whiten.conj().T
    else:
        top = float(np.linalg.eigvalsh(marginal).max())
        survival = rng.uniform(0.3, 0.95)
        choi = w * (survival / top)
    return kraus_from_choi(choi)


# ---------------------------------------------------------------------------
# Named single-qubit channels
# ---------------------------------------------------------------------------


def identity_channel(n: int = 1) -> list[np.ndarray]:
    check_register_size(n)
    return [np.eye(2**n, dtype=complex)]


def bit_flip(p: float) -> list[np.ndarray]:
    """X applied with probability p."""
    _check_probability("p", p)
    return [math.sqrt(1 - p) * ops.IDENTITY_2, math.sqrt(p) * ops.PAULI_X]


def phase_flip(p: float) -> list[np.ndarray]:
    """Z applied with probability p."""
    _check_probability("p", p)
    return [math.sqrt(1 - p) * ops.IDENTITY_2, math.sqrt(p) * ops.PAULI_Z]


def depolarizing(p: float) -> list[np.ndarray]:
    """Each of X, Y, Z applied with probability p/4 (population 1 - 3p/4)."""
    _check_probability("p", p)
    return [
        math.sqrt(1 - 3 * p / 4) * ops.IDENTITY_2,
        math.sqrt(p / 4) * ops.PAULI_X,
        math.sqrt(p / 4) * ops.PAULI_Y,
        math.sqrt(p / 4) * ops.PAULI_Z,
    ]


def amplitude_damping(
    gamma: Optional[float] = None,
    t: Optional[float] = None,
    T1: Optional[float] = None,
) -> list[np.ndarray]:
    """Energy relaxation |1> -> |0>, by decay probability or by (t, T1).

    The duration form uses gamma = 1 - exp(-t/T1), so the |00><11|
    off-diagonal of an entangled pair picks up exp(-t/(2 T1)).
    """
    gamma = _rate_from_args("gamma", gamma, t, T1, "T1")
    return [
        np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex),
    ]


def phase_damping(
    lam: Optional[float] = None,
    t: Optional[float] = None,
    T2: Optional[float] = None,
) -> list[np.ndarray]:
    """Pure dephasing, by rate lam or by (t, T2).

    The duration form uses lam = 1 - exp(-t/T2), which multiplies
    coherences by exp(-t/(2 T2)).
    """
    lam = _rate_from_args("lambda", lam, t, T2, "T2")
    return [
        np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex),
        np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex),
    ]


def rotation(axis: str, angle: float) -> list[np.ndarray]:
    """Unitary channel exp(-i angle P/2) for P in {X, Y, Z}."""
    axes = {"x": ops.PAULI_X, "y": ops.PAULI_Y, "z": ops.PAULI_Z}
    p = axes.get(axis.lower()) if isinstance(axis, str) else None
    if p is None:
        raise InvalidChannelError(f"rotation axis must be x, y or z, got {axis!r}")
    if not (is_real(angle) and math.isfinite(angle)):
        raise InvalidChannelError(f"rotation angle must be finite, got {angle!r:.80}")
    u = math.cos(angle / 2) * ops.IDENTITY_2 - 1j * math.sin(angle / 2) * p
    return [u]


def _check_probability(name: str, value: float) -> None:
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise InvalidChannelError(f"{name} must be a probability in [0, 1], got {value!r}")


def _rate_from_args(
    name: str,
    direct: Optional[float],
    t: Optional[float],
    tc: Optional[float],
    tc_name: str,
) -> float:
    if direct is not None:
        if t is not None or tc is not None:
            raise InvalidChannelError(f"give either {name} or (t, {tc_name}), not both")
        _check_probability(name, direct)
        return float(direct)
    if t is None or tc is None:
        raise InvalidChannelError(f"need {name} or both t and {tc_name}")
    # written so that NaN fails both checks; tc = inf (no decay) is allowed
    if not (is_real(tc) and tc > 0):
        raise InvalidChannelError(f"{tc_name} must be positive, got {tc!r:.80}")
    if not (is_real(t) and 0 <= t < math.inf):
        raise InvalidChannelError(f"duration t must be finite and non-negative, got {t!r:.80}")
    return 1.0 - math.exp(-t / tc)


# ---------------------------------------------------------------------------
# Declarative channel specifications (the CLI ingestion boundary)
# ---------------------------------------------------------------------------

# kind -> (the names of the parameters its spec takes, each at most once; how
# many of them, from the first, the flag form takes by position; the spec
# field it reads, "operators" or "stages", or None).  A kind that reads a
# field and takes no parameter can only be given as a file.
CHANNEL_PARAMS = {
    "unitary": (("axis", "angle"), 2, "operators"),
    "bit_flip": (("p",), 1, None),
    "phase_flip": (("p",), 1, None),
    "depolarizing": (("p",), 1, None),
    "amplitude_damping": (("gamma", "t", "T1"), 1, None),
    "phase_damping": (("lambda", "t", "T2"), 1, None),
    "composed": ((), 0, "stages"),
    "explicit_kraus": ((), 0, "operators"),
    "identity": (("n",), 0, None),
}
CHANNEL_KINDS = tuple(CHANNEL_PARAMS)
# the one parameter given as text; every other one is a real number
TEXT_PARAM = "axis"


def kind_row(kind) -> tuple[tuple[str, ...], int, Optional[str]]:
    """`kind`'s row of `CHANNEL_PARAMS`; an unknown kind raises `InvalidChannelError`."""
    if not (isinstance(kind, str) and kind in CHANNEL_PARAMS):
        raise InvalidChannelError(
            f"unknown channel kind {kind!r} (known: {', '.join(CHANNEL_KINDS)})"
        )
    return CHANNEL_PARAMS[kind]


@dataclass(eq=False)
class ChannelSpec:
    """Declarative description of a ground-truth channel.

    `params` carries scalar parameters (probabilities, angles, durations and
    time constants in one consistent arbitrary time unit); `operators`
    carries explicit matrices and `stages` sub-specs (applied in order), each
    for the kinds whose row of `CHANNEL_PARAMS` reads it.
    """

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    operators: Optional[tuple[np.ndarray, ...]] = None
    stages: Optional[tuple["ChannelSpec", ...]] = None


def kraus_from_spec(spec: ChannelSpec) -> list[np.ndarray]:
    """Build the Kraus set a ChannelSpec describes (single qubit unless the
    spec carries explicit multi-qubit operators).

    A parameter, or an `operators` or `stages` field, that the kind's row of
    `CHANNEL_PARAMS` does not list raises `InvalidChannelError`.
    """
    if isinstance(spec, Chi):
        raise _chi_not_kraus()
    if not isinstance(spec, ChannelSpec):
        raise InvalidChannelError(f"expected a ChannelSpec, got {type(spec).__name__}")
    kind = spec.kind
    params = {k: v if k == TEXT_PARAM else _number(kind, k, v) for k, v in spec.params.items()}
    names, _, reads = kind_row(kind)
    unknown = [k for k in params if k not in names]
    if unknown:
        raise InvalidChannelError(
            f"{kind} spec takes no parameter {', '.join(map(repr, unknown))}; its parameters: "
            f"{', '.join(map(repr, names)) or 'none'}"
        )
    for name in ("operators", "stages"):
        if name != reads and getattr(spec, name) is not None:
            raise InvalidChannelError(f"{kind} spec takes no {name}")
    if kind == "identity":
        n = params.pop("n", 1.0)
        if not (n.is_integer() and 1 <= n <= MAX_QUBITS):
            raise InvalidChannelError(
                f"identity n must be an integer in 1..{MAX_QUBITS}, got {n!r}"
            )
        return identity_channel(int(n))
    if kind == "bit_flip":
        return bit_flip(_take(params, "p", kind))
    if kind == "phase_flip":
        return phase_flip(_take(params, "p", kind))
    if kind == "depolarizing":
        return depolarizing(_take(params, "p", kind))
    if kind == "amplitude_damping":
        return amplitude_damping(
            gamma=params.get("gamma"), t=params.get("t"), T1=params.get("T1")
        )
    if kind == "phase_damping":
        return phase_damping(lam=params.get("lambda"), t=params.get("t"), T2=params.get("T2"))
    if kind == "unitary":
        if spec.operators is not None:
            if params:
                raise InvalidChannelError("unitary spec takes a matrix or axis and angle, not both")
            if len(spec.operators) != 1:
                raise InvalidChannelError("unitary spec takes exactly one matrix")
            return check_kraus(spec.operators, trace_preserving=True)
        axis = params.pop("axis", None)
        angle = params.pop("angle", None)
        if axis is None or angle is None:
            raise InvalidChannelError("unitary spec needs a matrix or axis and angle")
        return rotation(str(axis), angle)
    if kind == "explicit_kraus":
        if not spec.operators:
            raise InvalidChannelError("explicit_kraus spec carries no operators")
        return check_kraus(spec.operators)
    # composed
    if not spec.stages:
        raise InvalidChannelError("composed spec carries no stages")
    kraus = kraus_from_spec(spec.stages[0])
    for stage in spec.stages[1:]:
        kraus = _canonical(compose(kraus, kraus_from_spec(stage)))
    return kraus


def _canonical(kraus: list[np.ndarray]) -> list[np.ndarray]:
    """The canonical set of a Kraus set of more than d**2 operators.

    d**2 is the largest Kraus rank on dimension d; a smaller set is returned
    as it is.
    """
    if len(kraus) > kraus[0].shape[0] ** 2:
        return kraus_from_chi(chi_from_kraus(kraus))
    return kraus


def _validated(channel, n: Optional[int]) -> tuple[Sequence[np.ndarray], int]:
    """The Kraus set of a channel argument and how many i.i.d. copies of it act on n qubits.

    A spec is built by `kraus_from_spec` (a list); a raw Kraus sequence is
    validated and stacked once by `check_kraus`'s checks (a (K, d, d) array).
    A set on n qubits (or any set when n is None) is one copy; a one-qubit
    set is n copies; any other size raises.
    """
    if isinstance(channel, ChannelSpec):
        kraus = kraus_from_spec(channel)
    else:
        kraus = _stacked_kraus(channel)
    have = n_qubits(kraus)
    if n is None or have == n:
        return kraus, 1
    if have == 1 and n > 1:
        return kraus, n
    raise DimensionMismatchError(f"channel acts on {have} qubits, expected {n}")


@dataclass(frozen=True, eq=False)
class Chi:
    """A channel converted once: its read-only chi on `n` qubits and its TP flag.

    Build it with `Chi.of`.  `trace_preserving` is judged within `TP_ATOL` on
    n qubits, where a one-qubit set's deviation grows up to n-fold.
    """

    matrix: np.ndarray
    n: int
    trace_preserving: bool

    @classmethod
    def of(cls, channel, n: int) -> "Chi":
        """The `Chi` of a channel argument on n qubits (`as_chi`'s checks and errors)."""
        matrix = as_chi(channel, n)
        matrix.flags.writeable = False
        return cls(matrix, n, _tp_residual(matrix) <= TP_ATOL)


def as_chi(channel, n: int) -> np.ndarray:
    """Process matrix on n qubits of a channel argument (spec, Kraus sequence or `Chi`).

    The channel boundary of every path that needs the channel's chi: the
    channel is validated once, at the size it was given.  A set on n qubits
    is converted by `chi_from_kraus`; a one-qubit set is the i.i.d. channel
    on n qubits, whose chi is the n-fold Kronecker power of its 4 x 4 chi
    (Pauli strings are ordered like `ops.pauli_strings`, qubit 1 most
    significant, so no permutation is needed).  A `Chi` on n qubits gives
    its own read-only matrix back.  Any other size raises
    `DimensionMismatchError`.  n outside 1..`MAX_QUBITS` raises
    `InvalidConfigurationError` before the channel is looked at.  A bare 2-D
    array is rejected: it could be chi or a one-operator Kraus set.
    """
    check_register_size(n)
    if isinstance(channel, Chi):
        if channel.n != n:
            raise DimensionMismatchError(f"channel acts on {channel.n} qubits, expected {n}")
        return channel.matrix
    kraus, copies = _validated(channel, n)
    chi = chi1 = chi_from_kraus(kraus)
    for _ in range(copies - 1):
        # np.kron(chi, chi1): the same products, without np.kron's call overhead
        chi = (chi[:, None, :, None] * chi1[None, :, None, :]).reshape(len(chi) * len(chi1), -1)
    return chi


def as_kraus(channel, n: Optional[int] = None) -> list[np.ndarray]:
    """Normalize a channel argument (spec or Kraus sequence) to a Kraus list.

    For callers that need the Kraus operators themselves; chi comes from
    `as_chi`, which never expands a channel.  A raw Kraus sequence is
    validated by `check_kraus`.  When `n` is given (an integer in
    1..`MAX_QUBITS`, or `InvalidConfigurationError`), a single-qubit set is
    extended to n qubits as an i.i.d. tensor product of up to 4**n
    operators (it is first reduced by `_canonical`); an explicit n-qubit
    set is passed through.  The expansion stays, although no library path
    uses it: it is a route to the n-qubit chi (`chi_from_kraus` of the
    expanded set) that does not go through `as_chi`'s Kronecker power, so
    ground truths built on it check that power instead of repeating it.
    """
    if n is not None:
        check_register_size(n)
    kraus, copies = _validated(channel, n)
    if copies == 1:
        return list(kraus)
    kraus = _canonical(kraus)
    out = kraus
    for _ in range(copies - 1):
        out = [np.kron(a, b) for a in out for b in kraus]
    return out


def _take(params: dict, key: str, kind: str) -> float:
    try:
        return params.pop(key)
    except KeyError:
        raise InvalidChannelError(f"{kind} spec needs parameter {key!r}") from None


def _number(kind: str, key: str, value) -> float:
    """`value` as a float; anything `ops.is_real` refuses (a bool, text, None) raises."""
    if not is_real(value):
        raise InvalidChannelError(f"{kind} parameter {key!r} must be a number, got {value!r}")
    return float(value)
