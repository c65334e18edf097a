"""Direct characterization of quantum dynamics on n primary qubits.

Each primary qubit is paired with one ancilla qubit.  A configuration is
a tuple of setting names, one of four per pair:

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

The input amplitudes (alpha, beta) are shared by every coh pair and are
plain arguments of every entry point; `validate_amplitudes` is their one
check for a full experiment, and `_check_amplitudes` the one check that
they are finite, normalized numbers.  A configuration's data are its
outcome probabilities (`outcome_probabilities(channel, settings, alpha,
beta)`, a vector of 4**n).  An experiment's data are one float array of
shape (4**n, 4**n): row c is configuration c of `all_configurations(n)`
and column k its joint outcome (digits pair 1 first).  Exact probabilities
(`all_outcome_probabilities`) and sampled frequencies share this layout;
`reconstruct_from_probabilities` reads n from its shape.  Complex or
non-finite data raise `InvalidDistributionError`.

Every pair sees the same four settings and the same measurement, so the
experiment factorizes over pairs.  This module supplies the 16 x 4 per-pair
readout table (4 settings x 4 outcomes), and one cache (`_schemes`) builds
its 16 x 16 single-pair design A1 (`inversion.readout_design`) and every
scheme on it, each with its SVD, once per process for each amplitude pair:

* `pair_scheme`, 4 settings x 4 outcomes, carries every exact and sampled
  path.  Its forward model applies A1 along every pair axis of chi; the
  stacked design of all configurations is a permuted n-fold Kronecker power
  of A1, so chi is A1^-1 along every pair axis of the data, with rank
  rank(A1)**n and condition number cond(A1)**n.  Its `solve` returns the
  `inversion.ReconstructionResult` that every scheme's does, named here as
  `ReconstructionResult` too;
* `setting_scheme` is one setting's 4 rows of A1, the one configuration
  `relax` forwards and samples; `outcome_probabilities` forwards through
  the designs of its settings' schemes;
* `optics_scheme` is the partial Bell analyzer on every pair: G resolves two
  of the four Bell states and merges the other two, and measuring its
  complement G_c as well restores full rank.  Its row map `_MERGE`, the
  block-diagonal [G; G_c] of each setting, makes 8 (setting, analyzer)
  settings x 3 outcomes, 8**n configurations whose 24**n data entries
  limit it to n = 1..4 (`inversion.Scheme.check_pairs`).

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
import numbers

import numpy as np

from . import channels, inversion, ops
from .exceptions import (
    DimensionMismatchError,
    IllPosedConfigurationError,
    InvalidConfigurationError,
)
from .inversion import ReconstructionResult

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

# |alpha|, |beta| and the factors of the coherence equations must exceed this
FACTOR_TOL = 1e-12


def _conjugation_permutation(v: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Permutation and signs with V^dag E_m V = sign[m] * E_perm[m].

    Reads them off the expansion c[m, k] = Tr(E_k V^dag E_m V) / 2 in
    `ops.PAULIS`.  Holds for every Clifford rotation used here; fails loudly
    otherwise.
    """
    c = np.einsum("kba,ja,mjc,cb->mk", ops.PAULIS, v.conj(), ops.PAULIS, v) / 2
    perm = np.argmax(np.abs(c), axis=1)
    sign = np.round(c[range(4), perm].real)
    if not np.allclose(c, np.eye(4)[perm] * sign[:, None], atol=1e-12):
        raise ValueError("rotation does not permute the Pauli basis")
    return tuple(int(k) for k in perm), tuple(int(s) for s in sign)


FRAME_PERM = {}
FRAME_SIGN = {}
for _setting in (COH_Z, COH_X, COH_Y):
    FRAME_PERM[_setting], FRAME_SIGN[_setting] = _conjugation_permutation(
        PREP_ROTATIONS[_setting]
    )


def _check_amplitudes(alpha, beta) -> tuple[complex, complex]:
    """The input amplitudes as complex numbers; they must be finite, normalized numbers.

    A string, None or any other non-number raises `InvalidConfigurationError`
    like a non-finite or unnormalized pair.
    """
    if not (isinstance(alpha, numbers.Number) and isinstance(beta, numbers.Number)):
        raise InvalidConfigurationError(
            f"amplitudes must be numbers, got alpha={alpha!r}, beta={beta!r}"
        )
    alpha, beta = complex(alpha), complex(beta)
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise InvalidConfigurationError(
            f"amplitudes must be finite, got alpha={alpha!r}, beta={beta!r}"
        )
    a, b = abs(alpha), abs(beta)
    # a * a overflows to inf where a ** 2 would raise OverflowError
    norm = a * a + b * b
    if abs(norm - 1.0) > 1e-10:
        raise InvalidConfigurationError(f"|alpha|^2 + |beta|^2 = {norm!r} != 1")
    return alpha, beta


def validate_amplitudes(alpha, beta) -> None:
    """Check amplitudes for the coherence settings, which every full experiment has.

    They must pass `_check_amplitudes`; then, since coherence reconstruction
    divides by <Z^A>, <U> and <Z^A U> of the input pair, which are
    proportional to |alpha|^2 - |beta|^2, Re(alpha beta*) and
    Im(alpha beta*) (read from `input_pair_expectations`), all three must
    exceed `FACTOR_TOL` in magnitude.
    Raises `InvalidConfigurationError`.
    """
    a, b = _check_amplitudes(alpha, beta)
    if abs(a) < FACTOR_TOL or abs(b) < FACTOR_TOL:
        raise InvalidConfigurationError(
            "coherence settings need both amplitudes nonzero, got "
            f"alpha={a!r}, beta={b!r}"
        )
    factors = input_pair_expectations(a, b)
    checks = [
        (factors["stabilizer_bias"], "|alpha| = |beta| makes <Z^A> vanish"),
        # normalizer = 2 Re(alpha beta*), so half of it is Re(alpha beta*) exactly
        (
            factors["normalizer"] / 2,
            "Re(alpha beta*) = 0 makes the normalizer expectation <U> vanish",
        ),
        (factors["cross_imag"], "Im(alpha beta*) = 0 makes <Z^A U> vanish"),
    ]
    for value, message in checks:
        if abs(value) < FACTOR_TOL:
            raise InvalidConfigurationError(message)


def all_configurations(n: int) -> list[tuple[str, ...]]:
    """The 4**n configurations in index order, each a tuple of setting names (pair 1 first).

    n is bounded like every register (`channels.check_register_size`).
    """
    channels.check_register_size(n)
    return list(itertools.product(SETTINGS, repeat=n))


# ---------------------------------------------------------------------------
# Forward model through the per-pair engine
# ---------------------------------------------------------------------------

def _readout_table(alpha: complex, beta: complex) -> np.ndarray:
    """Per-pair readout M[(s, k), (a, a')] = sum_b conj(W_s[(a, b), k]) psi_s[(a', b)].

    Setting s prepares psi_s = (V_s (x) I)(a|00> + b|11>), with
    (a, b) = (alpha, beta) and (1, 1)/sqrt(2) for pop, and measures the Bell
    states rotated the same way, W_s[:, k] = (V_s (x) I) |Bell_k>, with V_s
    from PREP_ROTATIONS.  Outcome k's amplitude after a primary-qubit
    operator K is then sum K[a, a'] M[(s, k), (a, a')].  The amplitudes are
    checked before `_schemes` builds it.
    """
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


# The analyzer on one setting's outcomes (phi+, psi+, psi-, phi-): G merges
# phi+ with phi- and resolves psi+ and psi-, its complement G_c resolves phi+
# and phi- and merges psi+ with psi-.  Row g of either is outcome group g,
# groups in the order of their smallest outcome.
_G = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
_G_C = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
# [G; G_c] for each setting: rows (setting, analyzer, group), columns (setting, outcome)
_MERGE = np.kron(np.eye(4), np.vstack([_G, _G_C]))


def _check_settings(settings: tuple) -> None:
    bad = [s for s in settings if s not in SETTINGS]
    if bad:
        raise InvalidConfigurationError(f"unknown settings {bad}; valid: {SETTINGS}")


def outcome_probabilities(
    channel, settings, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> np.ndarray:
    """Probabilities q_k = Tr[P_k E(rho_c)] of one configuration, a vector of 4**n.

    `settings` names the setting of each of the n pairs, and the channel acts
    on the primary block.  Checks the settings (unknown, none or not a
    sequence raise `InvalidConfigurationError`), the register size, the
    amplitudes (`_check_amplitudes`) and then the channel.
    """
    try:
        settings = tuple(settings)
    except TypeError:
        raise InvalidConfigurationError(f"settings must be a sequence, got {settings!r}") from None
    if not settings:
        raise InvalidConfigurationError("configuration needs at least one pair")
    _check_settings(settings)
    channels.check_register_size(len(settings))
    singles = _schemes(*_check_amplitudes(alpha, beta))[2]
    chi = channels.as_chi(channel, len(settings))
    return inversion.forward([singles[SETTINGS.index(s)].design for s in settings], chi).ravel()


def _experiment(
    channel, n: int, alpha: complex, beta: complex
) -> tuple[inversion.Scheme, np.ndarray, np.ndarray]:
    """The pair scheme, the channel's chi on n qubits and its exact data, one axis per pair.

    Checks the register size, then the amplitudes (`validate_amplitudes`),
    then the channel.  Axis i of the data is (setting_i, outcome_i).
    """
    channels.check_register_size(n)
    validate_amplitudes(alpha, beta)
    scheme = pair_scheme(alpha, beta)
    chi = channels.as_chi(channel, n)
    return scheme, chi, scheme.forward(chi, n)


def all_outcome_probabilities(
    channel, n: int, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> np.ndarray:
    """Exact outcome probabilities of all 4**n configurations, shape (4**n, 4**n).

    Row c is configuration c of `all_configurations(n)` and column k its
    joint outcome.  Checks the register size, then the amplitudes, then the
    channel, and applies A1 along every pair axis of the channel's chi
    (`channels.as_chi`).
    """
    _, _, q = _experiment(channel, n, alpha, beta)
    # rows become configurations
    return inversion.unpair_axes(q, n, 4)


# ---------------------------------------------------------------------------
# Closed-form reconstruction (single pair)
# ---------------------------------------------------------------------------


def input_pair_expectations(alpha: complex, beta: complex) -> dict[str, float]:
    """The three scalar factors of the coherence equations.

    Keys: 'stabilizer_bias' = <Z^A> = |alpha|^2 - |beta|^2,
    'normalizer' = <X^A X^B> = 2 Re(alpha beta*),
    'cross_imag' = Im(alpha beta*), i.e. <Z^A X^A X^B> = -2i * cross_imag.
    The amplitudes are checked by `_check_amplitudes`.
    """
    a, b = _check_amplitudes(alpha, beta)
    cross = a * b.conjugate()
    return {
        "stabilizer_bias": abs(a) ** 2 - abs(b) ** 2,
        "normalizer": 2.0 * cross.real,
        "cross_imag": cross.imag,
    }


def reconstruct_coherence(
    setting: str,
    probabilities,
    diagonals: np.ndarray,
    alpha: complex = DEFAULT_ALPHA,
    beta: complex = DEFAULT_BETA,
) -> tuple[complex, complex]:
    """Rotated-frame coherences (chi'_03, chi'_12) of one coh setting on a single pair.

    The four outcome probabilities give four real equations: the stabilizer
    sums q0+q3 and q1+q2 determine Re(chi'_03) and Im(chi'_12) once the
    diagonals are known, and the normalizer differences q0-q3 and q1-q2
    determine Im(chi'_03) and Re(chi'_12).  `diagonals` are the
    canonical-frame populations (the pop setting's probabilities); they are
    permuted into the rotated frame internally.  Use `map_frame` to place
    the returned values into the canonical chi.  Both must be 4 finite real
    numbers: data that are not real numbers, or not finite, raise
    `InvalidDistributionError`, and another shape `DimensionMismatchError`.
    """
    if setting not in (COH_Z, COH_X, COH_Y):
        raise InvalidConfigurationError(
            f"coherence reconstruction needs one coh-type pair, got {setting}"
        )
    factors = input_pair_expectations(alpha, beta)
    for key, name in (
        ("stabilizer_bias", "<Z^A>"),
        ("normalizer", "<U> = <X^A X^B>"),
        ("cross_imag", "<Z^A U>"),
    ):
        if abs(factors[key]) < FACTOR_TOL:
            raise IllPosedConfigurationError(
                f"configuration {setting} has vanishing factor {name}; "
                "choose amplitudes with |alpha| != |beta| and complex alpha beta*"
            )
    q, dp = inversion._real_data(probabilities), inversion._real_data(diagonals)
    if q.shape != (4,) or dp.shape != (4,):
        raise DimensionMismatchError(
            "coherence reconstruction needs 4 probabilities and 4 diagonals, "
            f"got {q.shape} and {dp.shape}"
        )
    inversion._check_finite(np.concatenate((q, dp)))
    dp = dp[np.argsort(FRAME_PERM[setting])]
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


@functools.lru_cache(maxsize=32)
def _schemes(alpha: complex, beta: complex) -> tuple:
    """The pair scheme, the analyzer's and each setting's (in `SETTINGS` order), on one A1.

    Keyed on the checked complex amplitudes, at most 32 pairs: amplitudes
    that differ only in a signed zero share their (bit-identical) schemes.
    """
    a1 = inversion.readout_design(_readout_table(alpha, beta))
    # each setting has its own input: 4 inputs of one measurement each, which
    # the analyzer reads twice, with G and with G_c
    singles = tuple(inversion.Scheme(a1[4 * s : 4 * s + 4], 4, 1) for s in range(4))
    return inversion.Scheme(a1, 4, 4), inversion.Scheme(a1, 3, 4, _MERGE), singles


def pair_scheme(alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA) -> inversion.Scheme:
    """The per-pair scheme of these amplitudes: 4 settings x 4 outcomes on A1.

    Built once per process for each amplitude pair (`_schemes`), so A1 and
    its SVD are too.  Amplitudes that fail `_check_amplitudes` raise
    `InvalidConfigurationError` on every call.
    """
    return _schemes(*_check_amplitudes(alpha, beta))[0]


def optics_scheme(alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA) -> inversion.Scheme:
    """The partial Bell analyzer's scheme, A1 with the row map `_MERGE`: 8 settings x 3 groups."""
    return _schemes(*_check_amplitudes(alpha, beta))[1]


def setting_scheme(
    setting: str, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> inversion.Scheme:
    """One setting of `pair_scheme(alpha, beta)` as a scheme: 1 setting x 4 outcomes.

    Its design is rows 4s..4s+3 of A1 for setting s of `SETTINGS`, read by
    one input.  It has rank 4, so `forward` and `sampling.sample` work on
    it and `solve` refuses.  Checks the setting, then the amplitudes.
    """
    _check_settings((setting,))
    return _schemes(*_check_amplitudes(alpha, beta))[2][SETTINGS.index(setting)]


def closed_form_chi(
    probabilities, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> np.ndarray:
    """Single-pair chi assembled from the four per-setting closed forms.

    Expects the 4 x 4 probability array of one pair, rows in setting order
    (pop, coh_z, coh_x, coh_y), real and finite: `reconstruct_coherence`
    checks every row's finiteness, the pop row as its diagonals.
    """
    q = inversion._real_data(probabilities)
    if q.shape != (4, 4):
        raise InvalidConfigurationError("closed form needs the 4 single-pair distributions")
    # outcome m of the pop setting detects Pauli error m: the pop row is diag(chi)
    chi = np.diag(q[0]).astype(complex)
    for setting, row in zip(SETTINGS[1:], q[1:]):
        coh_stab, coh_norm = reconstruct_coherence(setting, row, q[0], alpha, beta)
        for (m, n), value in map_frame(setting, coh_stab, coh_norm).items():
            chi[m, n] = value
            chi[n, m] = value.conjugate()
    return chi


def reconstruct_from_probabilities(
    probabilities, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> ReconstructionResult:
    """Solve for chi from the data of all 4**n configurations.

    `probabilities` is the (4**n, 4**n) array of `all_outcome_probabilities`
    (row c configuration c of `all_configurations(n)`, column k its joint
    outcome), exact probabilities or empirical frequencies alike;
    n comes from its shape, and no renormalization or positivity repair is
    applied.  The solve (`pair_scheme`) applies A1^-1 along each pair
    axis of the data.  A register beyond `channels.check_register_size`,
    complex or non-finite data or a rank-deficient A1 (degenerate
    amplitudes) raises instead of returning a wrong chi.
    """
    q = inversion._real_data(probabilities)
    rows = q.shape[0] if q.ndim else 0
    n = (rows.bit_length() - 1) // 2
    if n < 1 or q.shape != (4**n, 4**n):
        raise DimensionMismatchError(f"data of shape {q.shape}, expected (4**n, 4**n) with n >= 1")
    channels.check_register_size(n)
    return pair_scheme(alpha, beta).solve(inversion.pair_axes(q, n, 4))


def characterize(
    channel,
    n: int = 1,
    alpha: complex = DEFAULT_ALPHA,
    beta: complex = DEFAULT_BETA,
) -> ReconstructionResult:
    """Full chi reconstruction from exact statistics of all 4**n configurations.

    With exact probabilities the result equals the ground-truth process
    matrix of the channel to solver precision, for trace-preserving and
    trace-decreasing channels alike.  One scheme (`pair_scheme`, built once
    per process for these amplitudes) forwards the channel's chi and solves
    the data.
    """
    scheme, _, data = _experiment(channel, n, alpha, beta)
    result = scheme.solve(data)
    if n == 1:
        chi_cf = closed_form_chi(data.reshape(4, 4), alpha, beta)
        result.chi_closed_form = chi_cf
        result.residual = float(np.max(np.abs(chi_cf - result.chi)))
    return result
