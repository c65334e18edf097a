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

__all__ = [
    "ChannelSpec",
    "ChiValidation",
    "amplitude_damping",
    "apply_channel",
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
    "kraus_tensor",
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


def check_register_size(n: int) -> None:
    """Reject register sizes outside 1..`MAX_QUBITS` (chi of 16**n entries)."""
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
    kraus: Sequence[np.ndarray],
    trace_preserving: Optional[bool] = None,
    atol: float = 1e-10,
) -> list[np.ndarray]:
    """Validate a Kraus set and return it as a list of complex arrays.

    The set must be non-empty, square, of uniform power-of-two dimension,
    and trace non-increasing: sum K^dag K <= I.  With trace_preserving=True
    equality is required; with False, strict decrease somewhere.  A set that
    is not an array of numbers raises `InvalidChannelError` too.
    """
    return list(_stacked_kraus(kraus, trace_preserving, atol))


def _malformed(kraus) -> InvalidChannelError:
    """The error for a Kraus set that does not stack into one (K, d, d) array of numbers."""
    try:
        mats = [np.asarray(k, dtype=complex) for k in kraus]
    except (TypeError, ValueError, OverflowError):
        return InvalidChannelError("Kraus operators must be arrays of numbers of one shape")
    if not mats:
        return InvalidChannelError("empty Kraus set")
    d = mats[0].shape[0] if mats[0].ndim == 2 else 0
    shape = next((k.shape for k in mats if k.ndim != 2 or k.shape != (d, d)), None)
    return InvalidChannelError(f"Kraus operators must share a square shape, got {shape}")


def _stacked_kraus(
    kraus: Sequence[np.ndarray], trace_preserving: Optional[bool] = None, atol: float = 1e-10
) -> np.ndarray:
    """`check_kraus` on the set stacked once, returned as one (K, d, d) complex array."""
    try:
        stacked = np.ascontiguousarray(kraus, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise _malformed(kraus) from None
    if stacked.ndim != 3 or stacked.shape[1] != stacked.shape[2] or not len(stacked):
        raise _malformed(kraus)
    d = stacked.shape[1]
    if d < 2 or d & (d - 1):
        raise InvalidChannelError(f"Kraus dimension {d} is not a power of 2")
    # sum K^dag K <= I bounds every entry by 1; checking first also keeps
    # NaN and overflow out of the eigenvalue check below
    if not np.all(np.abs(stacked.view(float)) <= 1 + atol):
        raise InvalidChannelError(
            "Kraus set has a non-finite entry or a real or imaginary part beyond 1, "
            "which no trace non-increasing set has"
        )
    gap = trace_gap(stacked)
    lo = ops.min_eigenvalue(gap)
    if lo < -atol:
        raise InvalidChannelError(
            f"Kraus set increases trace: min eig of (I - sum K^dag K) = {lo:.3e}"
        )
    if trace_preserving is True and float(np.max(np.abs(gap))) > atol:
        raise InvalidChannelError(
            f"Kraus set not trace preserving within {atol}: residual {np.max(np.abs(gap)):.3e}"
        )
    if trace_preserving is False and float(np.max(np.abs(gap))) <= atol:
        raise InvalidChannelError("Kraus set flagged non-trace-preserving but sums to identity")
    return stacked


def n_qubits(kraus: Sequence[np.ndarray]) -> int:
    d = np.asarray(kraus[0]).shape[0]
    return int(round(math.log2(d)))


def chi_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Process matrix of a Kraus set.

    Expands each operator as K_i = sum_m c[i, m] E_m with
    c[i, m] = Tr(E_m K_i) / 2**n, then chi[m, n] = sum_i c[i, m] c[i, n]*.
    """
    mats = np.asarray(kraus, dtype=complex)
    n = n_qubits(mats)
    k = len(mats)
    # one copy puts the pair axes (row digit i, column digit i) first and the
    # Kraus index last, where `per_pair` wants it; it comes back first
    perm = [1 + j for i in range(n) for j in (i, n + i)] + [0]
    t = mats.reshape((k,) + (2,) * (2 * n)).transpose(perm).reshape((4,) * n + (k,))
    c = inversion.per_pair(t, [_PAULI_TRACE] * n).reshape(k, 4**n)
    return c.T @ c.conj()


def kraus_from_chi(chi: np.ndarray, atol: float = 1e-9, keep_tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus set of a process matrix, via eigendecomposition of chi.

    Eigenvalues below `keep_tol` are dropped; eigenvalues below -`atol`
    mean the map is not completely positive and raise.
    """
    chi = np.asarray(chi, dtype=complex)
    dd = chi.shape[0]
    n = int(round(math.log2(dd) / 2))
    if chi.shape != (dd, dd) or 4**n != dd:
        raise DimensionMismatchError(f"chi shape {chi.shape} is not 4**n x 4**n")
    herm = (chi + chi.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    if vals.min() < -atol:
        raise NotCompletelyPositiveError(
            f"chi has eigenvalue {vals.min():.3e} below -{atol}; no Kraus form exists"
        )
    keep = vals > keep_tol
    if not keep.any():
        # the all-zero map still needs one (zero) operator to stay a valid set
        return [np.zeros((2**n, 2**n), dtype=complex)]
    # column i holds sqrt(lam_i) v_i: one axis per qubit, then the operator
    # index, which `per_pair` returns first
    v = (vecs[:, keep] * np.sqrt(vals[keep])).reshape((4,) * n + (-1,))
    return list(inversion.unpair_axes(inversion.per_pair(v, [_PAULI_EXPAND] * n), n, 2))


def apply_channel(
    kraus: Sequence[np.ndarray], rho: np.ndarray, ancilla_dim: int = 1
) -> np.ndarray:
    """Apply a channel to the leading (most significant) factor of rho.

    With ancilla_dim > 1 the channel acts as E (x) identity on a register
    of dimension (Kraus dim) * ancilla_dim; this is the "channel on the
    primary qubits only" extension used by every protocol here.
    """
    rho = np.asarray(rho, dtype=complex)
    mats = [np.asarray(k, dtype=complex) for k in kraus]
    d = mats[0].shape[0]
    total = d * ancilla_dim
    if rho.shape != (total, total):
        raise DimensionMismatchError(
            f"state dim {rho.shape} does not match channel dim {d} x ancilla {ancilla_dim}"
        )
    if ancilla_dim > 1:
        eye = np.eye(ancilla_dim)
        mats = [np.kron(k, eye) for k in mats]
    out = np.zeros_like(rho)
    for k in mats:
        out += k @ rho @ k.conj().T
    return out


def compose(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Kraus set of (second after first); count multiplies, no minimization."""
    a = [np.asarray(k, dtype=complex) for k in first]
    b = [np.asarray(k, dtype=complex) for k in second]
    if a[0].shape != b[0].shape:
        raise DimensionMismatchError(
            f"cannot compose channels of dims {a[0].shape} and {b[0].shape}"
        )
    return [k2 @ k1 for k2 in b for k1 in a]


def kraus_tensor(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Kraus set of the parallel (tensor) product channel a (x) b."""
    return [np.kron(ka, kb) for ka in a for kb in b]


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


def validate_chi(
    chi: np.ndarray,
    trace_preserving: bool = False,
    hermitian_atol: float = 1e-10,
    eig_floor: float = -1e-9,
    trace_atol: float = 1e-10,
    tp_atol: float = 1e-10,
) -> ChiValidation:
    """Report how far chi is from a valid (optionally TP) process matrix.

    TP residual is the max deviation of sum_mn chi[m, n] E_n E_m from the
    identity; it is only computed when trace_preserving is requested.
    """
    chi = np.asarray(chi, dtype=complex)
    dev = ops.hermiticity_deviation(chi)
    lo = ops.min_eigenvalue(chi)
    tr = float(np.trace(chi).real)
    tp_residual = None
    tp_ok = None
    if trace_preserving:
        tp_residual = _tp_residual(chi)
        tp_ok = tp_residual <= tp_atol
    return ChiValidation(
        hermiticity_deviation=dev,
        min_eigenvalue=lo,
        trace=tr,
        tp_residual=tp_residual,
        hermitian_ok=dev <= hermitian_atol,
        psd_ok=lo >= eig_floor,
        trace_ok=tr <= 1.0 + trace_atol,
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


def kraus_from_choi(choi: np.ndarray, atol: float = 1e-9, keep_tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus set of a Choi matrix (input-major convention of this module)."""
    choi = np.asarray(choi, dtype=complex)
    dd = choi.shape[0]
    d = int(round(math.sqrt(dd)))
    if choi.shape != (dd, dd) or d * d != dd:
        raise DimensionMismatchError(f"Choi shape {choi.shape} is not d**2 x d**2")
    vals, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    if vals.min() < -atol:
        raise NotCompletelyPositiveError(
            f"Choi matrix has eigenvalue {vals.min():.3e} below -{atol}"
        )
    out = []
    for lam, vec in zip(vals, vecs.T):
        if lam <= keep_tol:
            continue
        out.append(math.sqrt(lam) * vec.reshape(d, d).T)
    if not out:
        out.append(np.zeros((d, d), dtype=complex))
    return out


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
    non-increasing with a random overall survival weight.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    d = 2**n
    r = rank if rank is not None else d * d
    if not 1 <= r <= d * d:
        raise InvalidChannelError(f"Kraus rank must be in 1..{d * d}, got {r}")
    g = rng.normal(size=(d * d, r)) + 1j * rng.normal(size=(d * d, r))
    w = g @ g.conj().T
    marginal = ops.partial_trace(w, keep=[0], dims=(d, d))
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
    try:
        p = {"x": ops.PAULI_X, "y": ops.PAULI_Y, "z": ops.PAULI_Z}[axis.lower()]
    except KeyError:
        raise InvalidChannelError(f"rotation axis must be x, y or z, got {axis!r}") from None
    if not math.isfinite(angle):
        raise InvalidChannelError(f"rotation angle must be finite, got {angle!r}")
    u = math.cos(angle / 2) * ops.IDENTITY_2 - 1j * math.sin(angle / 2) * p
    return [u]


def _check_probability(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
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
    if not tc > 0:
        raise InvalidChannelError(f"{tc_name} must be positive, got {tc!r}")
    if not 0 <= t < math.inf:
        raise InvalidChannelError(f"duration t must be finite and non-negative, got {t!r}")
    return 1.0 - math.exp(-t / tc)


# ---------------------------------------------------------------------------
# Declarative channel specifications (the CLI ingestion boundary)
# ---------------------------------------------------------------------------

CHANNEL_KINDS = (
    "unitary",
    "bit_flip",
    "phase_flip",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "composed",
    "explicit_kraus",
    "identity",
)


@dataclass(eq=False)
class ChannelSpec:
    """Declarative description of a ground-truth channel.

    `params` carries scalar parameters (probabilities, angles, durations and
    time constants in one consistent arbitrary time unit); `operators`
    carries explicit matrices for the unitary and explicit_kraus kinds;
    `stages` carries sub-specs for the composed kind (applied in order).
    """

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    operators: Optional[tuple[np.ndarray, ...]] = None
    stages: Optional[tuple["ChannelSpec", ...]] = None


def kraus_from_spec(spec: ChannelSpec) -> list[np.ndarray]:
    """Build the Kraus set a ChannelSpec describes (single qubit unless the
    spec carries explicit multi-qubit operators)."""
    kind = spec.kind
    params = {k: v if k == "axis" else _number(kind, k, v) for k, v in spec.params.items()}
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
    if kind == "composed":
        if not spec.stages:
            raise InvalidChannelError("composed spec carries no stages")
        kraus = kraus_from_spec(spec.stages[0])
        for stage in spec.stages[1:]:
            kraus = _canonical(compose(kraus, kraus_from_spec(stage)))
        return kraus
    raise InvalidChannelError(f"unknown channel kind {kind!r} (known: {', '.join(CHANNEL_KINDS)})")


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


def as_chi(channel, n: int) -> np.ndarray:
    """Process matrix on n qubits of a channel argument (spec or Kraus sequence).

    The channel boundary of every path that needs the channel's chi: the
    channel is validated once, at the size it was given.  A set on n qubits
    is converted by `chi_from_kraus`; a one-qubit set is the i.i.d. channel
    on n qubits, whose chi is the n-fold Kronecker power of its 4 x 4 chi
    (Pauli strings are ordered like `ops.pauli_strings`, qubit 1 most
    significant, so no permutation is needed).  Any other size raises
    `DimensionMismatchError`.  n outside 1..`MAX_QUBITS` raises
    `InvalidConfigurationError` before the channel is looked at.
    """
    check_register_size(n)
    kraus, copies = _validated(channel, n)
    chi1 = chi_from_kraus(kraus)
    chi = chi1
    for _ in range(copies - 1):
        # np.kron(chi, chi1): the same products, without np.kron's call overhead
        chi = (chi[:, None, :, None] * chi1[None, :, None, :]).reshape(len(chi) * len(chi1), -1)
    return chi


def as_kraus(channel, n: Optional[int] = None) -> list[np.ndarray]:
    """Normalize a channel argument (spec or Kraus sequence) to a Kraus list.

    For callers that need the Kraus operators themselves; chi comes from
    `as_chi`, which never expands a channel.  A raw Kraus sequence is
    validated by `check_kraus`.  When `n` is given, a single-qubit set is
    extended to n qubits as an i.i.d. tensor product of up to 4**n
    operators (it is first reduced by `_canonical`); an explicit n-qubit
    set is passed through.
    """
    kraus, copies = _validated(channel, n)
    if copies == 1:
        return list(kraus)
    kraus = _canonical(kraus)
    out = kraus
    for _ in range(copies - 1):
        out = kraus_tensor(out, kraus)
    return out


def _take(params: dict, key: str, kind: str) -> float:
    try:
        return params.pop(key)
    except KeyError:
        raise InvalidChannelError(f"{kind} spec needs parameter {key!r}") from None


def _number(kind: str, key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidChannelError(
            f"{kind} parameter {key!r} must be a number, got {value!r}"
        ) from None
