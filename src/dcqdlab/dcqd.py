"""Direct characterization of quantum dynamics on n primary qubits.

Each primary qubit is paired with one ancilla qubit.  A configuration
assigns one of four settings to every pair:

======== ============================ =================== ===============
setting  input state (pair)           stabilizer          normalizer
======== ============================ =================== ===============
pop      (|00> + |11>)/sqrt(2)        Z^A Z^B, X^A X^B    (joint BSM)
coh_z    a|00> + b|11>                Z^A Z^B             X^A X^B
coh_x    a|+>|0> + b|->|1>            X^A Z^B             Z^A X^B
coh_y    a|+i>|0> + b|-i>|1>          Y^A Z^B             Z^A X^B
======== ============================ =================== ===============

The measurement in every setting is the Bell-state measurement conjugated
by the preparation rotation V on the primary qubit (V = I, I, H, S H).
Its 4 outcomes per pair are labelled like the Bell basis, i.e. outcome
digit k carries the (stabilizer, normalizer) eigenvalue pair
(+,+), (-,+), (-,-), (+,-) for k = 0..3.

The pop setting returns the full diagonal of chi in one measurement; each
coh setting returns two off-diagonal entries of chi (four real numbers) in
one measurement.  All 4**n configurations together determine every entry.

An experiment's data are one float array of shape (4**n, 4**n): row c is
configuration c of `all_configurations(n, alpha, beta)` and column k its
joint outcome (digits pair 1 first).  Exact probabilities
(`all_outcome_probabilities`) and sampled frequencies share this layout;
`reconstruct_from_probabilities` reads n from its shape.

Every pair sees the same four settings and the same measurement, so the
experiment factorizes over pairs.  This module supplies the 16 x 4 per-pair
readout table (4 settings x 4 outcomes); its 16 x 16 single-pair design A1
(`inversion.readout_design`, built once per process for each amplitude
pair by `pair_design`) carries every exact and sampled path through the
shared per-pair map in `inversion`:

* forward model: the probability array is A1 applied along every pair axis
  of the channel's chi;
* solver: the stacked design of all configurations is a permuted n-fold
  Kronecker power of A1, so chi is A1^-1 applied along every pair axis of
  the data, and the design's rank and condition number are rank(A1)**n and
  cond(A1)**n.

The single-pair closed forms below (n = 1) are the paper's route and serve
as an independent cross-check of the solver.  The readout table is the
module's only model of the experiment: no 2n-qubit state or measurement
basis is ever built.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channels, inversion, ops
from .exceptions import (
    DimensionMismatchError,
    IllPosedConfigurationError,
    InvalidConfigurationError,
    InvalidDistributionError,
)

POP = "pop"
COH_Z = "coh_z"
COH_X = "coh_x"
COH_Y = "coh_y"
SETTINGS = (POP, COH_Z, COH_X, COH_Y)

PREP_ROTATIONS = {
    POP: ops.IDENTITY_2,
    COH_Z: ops.IDENTITY_2,
    COH_X: ops.HADAMARD,
    COH_Y: ops.PHASE_S @ ops.HADAMARD,
}

# Paper-independent well-conditioned default: both Re and Im of
# alpha * conj(beta) are nonzero and |alpha| != |beta|.
DEFAULT_ALPHA = complex(math.cos(math.pi / 8))
DEFAULT_BETA = complex(math.sin(math.pi / 8)) * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


def _conjugation_permutation(v: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Permutation and signs with V^dag E_m V = sign[m] * E_perm[m].

    Holds for every Clifford rotation used here; fails loudly otherwise.
    """
    perm = []
    signs = []
    for m in range(4):
        t = v.conj().T @ ops.PAULIS[m] @ v
        for k in range(4):
            for s in (1, -1):
                if np.allclose(t, s * ops.PAULIS[k], atol=1e-12):
                    perm.append(k)
                    signs.append(s)
                    break
            else:
                continue
            break
        else:
            raise ValueError("rotation does not permute the Pauli basis")
    return tuple(perm), tuple(signs)


FRAME_PERM = {}
FRAME_SIGN = {}
for _setting in (COH_Z, COH_X, COH_Y):
    FRAME_PERM[_setting], FRAME_SIGN[_setting] = _conjugation_permutation(
        PREP_ROTATIONS[_setting]
    )


def _check_amplitudes(alpha: complex, beta: complex) -> None:
    """The input amplitudes must be finite and normalized."""
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise InvalidConfigurationError(
            f"amplitudes must be finite, got alpha={alpha!r}, beta={beta!r}"
        )
    a, b = abs(alpha), abs(beta)
    # a * a overflows to inf where a ** 2 would raise OverflowError
    norm = a * a + b * b
    if abs(norm - 1.0) > 1e-10:
        raise InvalidConfigurationError(f"|alpha|^2 + |beta|^2 = {norm!r} != 1")


@dataclass(frozen=True)
class Configuration:
    """One experimental configuration: a setting per pair plus amplitudes.

    The (alpha, beta) pair is shared by every coh-type pair of the
    configuration; pop pairs always use the maximally entangled state.
    Construction performs only structural checks; the amplitude constraints
    of coherence settings are enforced by `validate_configuration`.
    """

    settings: tuple[str, ...]
    alpha: complex = DEFAULT_ALPHA
    beta: complex = DEFAULT_BETA

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        if not self.settings:
            raise InvalidConfigurationError("configuration needs at least one pair")
        bad = [s for s in self.settings if s not in SETTINGS]
        if bad:
            raise InvalidConfigurationError(f"unknown settings {bad}; valid: {SETTINGS}")
        _check_amplitudes(self.alpha, self.beta)

    @property
    def n(self) -> int:
        return len(self.settings)

    @property
    def label(self) -> str:
        return ",".join(self.settings)


def validate_configuration(config: Configuration, tol: float = 1e-12) -> None:
    """Enforce the amplitude constraints of coherence settings.

    Coherence reconstruction divides by <Z^A>, <U> and <Z^A U> of the input
    pair, which are proportional to |alpha|^2 - |beta|^2, Re(alpha beta*)
    and Im(alpha beta*); all three must be bounded away from zero.
    """
    if all(s == POP for s in config.settings):
        return
    a, b = config.alpha, config.beta
    if abs(a) < tol or abs(b) < tol:
        raise InvalidConfigurationError(
            "coherence settings need both amplitudes nonzero, got "
            f"alpha={a!r}, beta={b!r}"
        )
    cross = a * b.conjugate()
    checks = [
        (abs(a) ** 2 - abs(b) ** 2, "|alpha| = |beta| makes <Z^A> vanish"),
        (cross.real, "Re(alpha beta*) = 0 makes the normalizer expectation <U> vanish"),
        (cross.imag, "Im(alpha beta*) = 0 makes <Z^A U> vanish"),
    ]
    for value, message in checks:
        if abs(value) < tol:
            raise InvalidConfigurationError(message)


def all_configurations(
    n: int, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> list[Configuration]:
    """The 4**n configurations in index order (setting digits, pair 1 first)."""
    if n < 1:
        raise InvalidConfigurationError(f"need at least one pair, got n={n}")
    return [
        Configuration(settings=s, alpha=alpha, beta=beta)
        for s in itertools.product(SETTINGS, repeat=n)
    ]


@dataclass
class OutcomeDistribution:
    """Exact outcome probabilities of one configuration.

    Sums to 1 for trace-preserving channels and to Tr[E(rho)] otherwise;
    no renormalization is ever applied.
    """

    config: Configuration
    probabilities: np.ndarray


# ---------------------------------------------------------------------------
# Forward model through the per-pair engine
# ---------------------------------------------------------------------------

def _readout_table(alpha: complex, beta: complex) -> np.ndarray:
    """Per-pair readout M[(s, k), (a, a')] = sum_b conj(W_s[(a, b), k]) psi_s[(a', b)].

    Setting s prepares psi_s = (V_s (x) I)(a|00> + b|11>), with
    (a, b) = (alpha, beta) and (1, 1)/sqrt(2) for pop, and measures the Bell
    states rotated the same way, W_s[:, k] = (V_s (x) I) |Bell_k>, with V_s
    from PREP_ROTATIONS.  Outcome k's amplitude after a primary-qubit
    operator K is then sum K[a, a'] M[(s, k), (a, a')].  Raises
    `InvalidConfigurationError` on non-finite or unnormalized amplitudes.
    """
    alpha, beta = complex(alpha), complex(beta)
    _check_amplitudes(alpha, beta)
    # bell[k, a, b]: Bell state k with the primary qubit first
    bell = np.array(ops.bell_basis()).reshape(4, 2, 2)
    pop = 1.0 / math.sqrt(2)
    rows = []
    for s in SETTINGS:
        v = PREP_ROTATIONS[s]
        w = np.einsum("ac,kcb->kab", v, bell)
        psi = v @ np.diag([pop, pop] if s == POP else [alpha, beta])
        rows.append(np.einsum("kab,cb->kac", w.conj(), psi).reshape(4, 4))
    return np.vstack(rows)


def outcome_probabilities(channel, config: Configuration) -> OutcomeDistribution:
    """Probabilities q_k = Tr[P_k E(rho_c)] with the channel on the primary block."""
    channels.check_register_size(config.n)
    chi = channels.as_chi(channel, config.n)
    # rows of A1 grouped by setting: a1[s] is setting s's 4 x 16 design
    a1 = pair_design(config.alpha, config.beta).reshape(4, 4, 16)
    q = inversion.forward([a1[SETTINGS.index(s)] for s in config.settings], chi)
    return OutcomeDistribution(config=config, probabilities=q.ravel())


def _experiment(
    channel, n: int, alpha: complex, beta: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A1, the channel's chi on n qubits and its exact data, one axis per pair.

    Checks the register size, then the amplitudes (once: every coherence
    configuration carries the same constraints, and every n has one), then
    the channel.  Axis i of the data is (setting_i, outcome_i).
    """
    channels.check_register_size(n)
    validate_configuration(Configuration(settings=(COH_Z,), alpha=alpha, beta=beta))
    a1 = pair_design(alpha, beta)
    chi = channels.as_chi(channel, n)
    return a1, chi, inversion.forward([a1] * n, chi)


def all_outcome_probabilities(
    channel, n: int, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> np.ndarray:
    """Exact outcome probabilities of all 4**n configurations, shape (4**n, 4**n).

    Row c is configuration c of `all_configurations(n, alpha, beta)` and
    column k its joint outcome.  Checks the register size, then the
    amplitudes, then the channel, and applies A1 along every pair axis of
    the channel's chi (`channels.as_chi`).
    """
    _, _, q = _experiment(channel, n, alpha, beta)
    # rows become configurations
    return inversion.unpair_axes(q, n, 4)


# ---------------------------------------------------------------------------
# Closed-form reconstruction (single pair)
# ---------------------------------------------------------------------------


def reconstruct_population(dist: OutcomeDistribution) -> np.ndarray:
    """Diagonal of chi from the all-pop configuration: chi_mm = q_m.

    Outcome digit k of a pop pair detects the Pauli error with the same
    index, so the joint outcome index coincides with the Pauli-string index
    of the population it measures.
    """
    if any(s != POP for s in dist.config.settings):
        raise InvalidConfigurationError(
            f"population reconstruction needs an all-pop configuration, got {dist.config.label}"
        )
    return np.asarray(dist.probabilities, dtype=float).copy()


def input_pair_expectations(config: Configuration) -> dict[str, float]:
    """The three scalar factors of the coherence equations.

    Keys: 'stabilizer_bias' = <Z^A> = |alpha|^2 - |beta|^2,
    'normalizer' = <X^A X^B> = 2 Re(alpha beta*),
    'cross_imag' = Im(alpha beta*), i.e. <Z^A X^A X^B> = -2i * cross_imag.
    """
    a, b = config.alpha, config.beta
    cross = a * b.conjugate()
    return {
        "stabilizer_bias": abs(a) ** 2 - abs(b) ** 2,
        "normalizer": 2.0 * cross.real,
        "cross_imag": cross.imag,
    }


def reconstruct_coherence(
    dist: OutcomeDistribution, diagonals: np.ndarray, tol: float = 1e-12
) -> tuple[complex, complex]:
    """Rotated-frame coherences (chi'_03, chi'_12) of one coh configuration.

    Works on a single pair.  The four outcome probabilities give four real
    equations: the stabilizer sums q0+q3 and q1+q2 determine Re(chi'_03)
    and Im(chi'_12) once the diagonals are known, and the normalizer
    differences q0-q3 and q1-q2 determine Im(chi'_03) and Re(chi'_12).
    `diagonals` are the canonical-frame populations (from the pop
    configuration); they are permuted into the rotated frame internally.
    Use `map_frame` to place the returned values into the canonical chi.
    """
    config = dist.config
    if config.n != 1 or config.settings[0] not in (COH_Z, COH_X, COH_Y):
        raise InvalidConfigurationError(
            f"coherence reconstruction needs one coh-type pair, got {config.label}"
        )
    factors = input_pair_expectations(config)
    for key, name in (
        ("stabilizer_bias", "<Z^A>"),
        ("normalizer", "<U> = <X^A X^B>"),
        ("cross_imag", "<Z^A U>"),
    ):
        if abs(factors[key]) < tol:
            raise IllPosedConfigurationError(
                f"configuration {config.label} has vanishing factor {name}; "
                "choose amplitudes with |alpha| != |beta| and complex alpha beta*"
            )
    setting = config.settings[0]
    iperm = np.argsort(FRAME_PERM[setting])
    dp = np.asarray(diagonals, dtype=float)[iperm]
    q = np.asarray(dist.probabilities, dtype=float)
    s_plus, s_minus = q[0] + q[3], q[1] + q[2]
    d_plus, d_minus = q[0] - q[3], q[1] - q[2]
    z_bias = factors["stabilizer_bias"]
    u_exp = factors["normalizer"]
    cross4 = 4.0 * factors["cross_imag"]
    re03 = (s_plus - dp[0] - dp[3]) / (2.0 * z_bias)
    im12 = (s_minus - dp[1] - dp[2]) / (2.0 * z_bias)
    im03 = (d_plus - (dp[0] - dp[3]) * u_exp) / cross4
    re12 = ((dp[1] - dp[2]) * u_exp - d_minus) / cross4
    return complex(re03, im03), complex(re12, im12)


def map_frame(setting: str, coh_stab: complex, coh_norm: complex) -> dict[tuple[int, int], complex]:
    """Canonical-frame chi entries determined by one coh configuration.

    The preparation rotation V permutes Pauli labels with signs,
    V^dag E_m V = sign[m] E_perm[m], so the rotated-frame entries
    (chi'_03, chi'_12) land at canonical positions chi[m, n] =
    sign[m] sign[n] chi'[perm[m], perm[n]].  Returns the two upper-triangle
    entries this configuration pins down (conjugates implied).
    """
    if setting not in (COH_Z, COH_X, COH_Y):
        raise InvalidConfigurationError(f"no frame mapping for setting {setting!r}")
    perm = FRAME_PERM[setting]
    sign = FRAME_SIGN[setting]
    iperm = np.argsort(perm)
    out: dict[tuple[int, int], complex] = {}
    for (a, b), value in (((0, 3), coh_stab), ((1, 2), coh_norm)):
        m, n = int(iperm[a]), int(iperm[b])
        v = sign[m] * sign[n] * value
        if m > n:
            m, n, v = n, m, v.conjugate()
        out[(m, n)] = v
    return out


# ---------------------------------------------------------------------------
# The design and the solve
# ---------------------------------------------------------------------------


def pair_design(alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA) -> np.ndarray:
    """Single-pair complex design A1[(s, k), (m, m')] = C_s[k, m] conj(C_s[k, m']).

    C_s[k, m] = <outcome k| (E_m (x) I) |input of setting s> is the
    amplitude of outcome k after Pauli error m, read off the readout table
    (`inversion.readout_design`).  Rows run over (setting, outcome), columns
    over (m, m') of chi.

    A1 is built once per process for each exact (alpha, beta) and the
    returned array is read-only.  The cache (at most 32 amplitude pairs) is
    keyed on the bits of both amplitudes, so amplitudes that differ only in
    a signed zero get their own A1.  Non-finite or unnormalized amplitudes
    raise `InvalidConfigurationError` on every call.
    """
    alpha, beta = complex(alpha), complex(beta)
    return _pair_design(*(x.hex() for z in (alpha, beta) for x in (z.real, z.imag)))


@functools.lru_cache(maxsize=32)
def _pair_design(alpha_re: str, alpha_im: str, beta_re: str, beta_im: str) -> np.ndarray:
    """`pair_design` of the amplitudes whose parts are given by `float.hex`."""
    alpha = complex(float.fromhex(alpha_re), float.fromhex(alpha_im))
    beta = complex(float.fromhex(beta_re), float.fromhex(beta_im))
    a1 = inversion.readout_design(_readout_table(alpha, beta))
    a1.flags.writeable = False
    return a1


@dataclass
class ReconstructionResult:
    """Reconstructed process matrix plus solver diagnostics.

    `chi` comes from the factored solver and is exactly Hermitian.  For a
    single pair the closed-form route is also evaluated and `residual` is
    the max entrywise distance between the two; with more pairs the closed
    forms are not defined and both fields are None.  `design_rank` and
    `design_cond` describe the complex design of all configurations,
    rank(A1)**n and cond(A1)**n, at every n; the partial Bell-analyzer path
    reports its merged design instead.
    """

    chi: np.ndarray
    n_qubits: int
    n_configurations: int
    residual: Optional[float] = None
    chi_closed_form: Optional[np.ndarray] = None
    design_rank: Optional[int] = None
    design_cond: Optional[float] = None


def _check_finite(data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise InvalidDistributionError("outcome data contain NaN or infinite entries")


def closed_form_chi(
    probabilities, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> np.ndarray:
    """Single-pair chi assembled from the four per-setting closed forms.

    Expects the 4 x 4 probability array of one pair, rows in setting order
    (pop, coh_z, coh_x, coh_y).
    """
    q = np.asarray(probabilities, dtype=float)
    if q.shape != (4, 4):
        raise InvalidConfigurationError("closed form needs the 4 single-pair distributions")
    _check_finite(q)
    dists = [
        OutcomeDistribution(Configuration(settings=(s,), alpha=alpha, beta=beta), row)
        for s, row in zip(SETTINGS, q)
    ]
    diag = reconstruct_population(dists[0])
    chi = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(chi, diag)
    for dist in dists[1:]:
        coh_stab, coh_norm = reconstruct_coherence(dist, diag)
        for (m, n), value in map_frame(dist.config.settings[0], coh_stab, coh_norm).items():
            chi[m, n] = value
            chi[n, m] = value.conjugate()
    return chi


def _solve(a1: np.ndarray, data: np.ndarray) -> ReconstructionResult:
    """Solve on A1 for chi from data with one axis per pair (`inversion.solve`)."""
    n = data.ndim
    chi, cond = inversion.solve(a1, data)
    return ReconstructionResult(
        chi=chi,
        n_qubits=n,
        n_configurations=4**n,
        design_rank=16**n,
        design_cond=cond,
    )


def reconstruct_from_probabilities(
    probabilities, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> ReconstructionResult:
    """Solve for chi from the data of all 4**n configurations.

    `probabilities` is the (4**n, 4**n) array of `all_outcome_probabilities`
    (row c configuration c of `all_configurations(n, alpha, beta)`, column k
    its joint outcome), exact probabilities or empirical frequencies alike;
    n comes from its shape, and no renormalization or positivity repair is
    applied.  The solve (`inversion.solve`) applies A1^-1 along each pair
    axis of the data.  A register beyond `channels.check_register_size`, non-finite
    data or a rank-deficient A1 (degenerate amplitudes) raises instead of
    returning a wrong chi.
    """
    q = np.asarray(probabilities, dtype=float)
    rows = q.shape[0] if q.ndim else 0
    n = (rows.bit_length() - 1) // 2
    if n < 1 or q.shape != (4**n, 4**n):
        raise DimensionMismatchError(f"data of shape {q.shape}, expected (4**n, 4**n) with n >= 1")
    channels.check_register_size(n)
    _check_finite(q)
    return _solve(pair_design(alpha, beta), inversion.pair_axes(q, n, 4))


def characterize(
    channel,
    n: int = 1,
    alpha: complex = DEFAULT_ALPHA,
    beta: complex = DEFAULT_BETA,
) -> ReconstructionResult:
    """Full chi reconstruction from exact statistics of all 4**n configurations.

    With exact probabilities the result equals the ground-truth process
    matrix of the channel to solver precision, for trace-preserving and
    trace-decreasing channels alike.  One A1 (`pair_design`, built once per
    process for these amplitudes) forwards the channel's chi and solves the
    data.
    """
    a1, _, data = _experiment(channel, n, alpha, beta)
    result = _solve(a1, data)
    if n == 1:
        chi_cf = closed_form_chi(data.reshape(4, 4), alpha, beta)
        result.chi_closed_form = chi_cf
        result.residual = float(np.max(np.abs(chi_cf - result.chi)))
    return result
