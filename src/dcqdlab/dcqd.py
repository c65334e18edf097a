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
they are finite, normalized numbers.  `_coherence_factors` is the one
judge of the three factors that the coherence equations divide by: it
serves `validate_amplitudes` and both closed forms.  A configuration's data are its
outcome probabilities (`outcome_probabilities(channel, settings, alpha,
beta)`, a vector of 4**n).  An experiment's data are one float array of
shape (4**n, 4**n): row c is configuration c of `all_configurations(n)`
and column k its joint outcome (digits pair 1 first).  Exact probabilities
(`all_outcome_probabilities`) and sampled frequencies share this layout;
`reconstruct_from_probabilities` reads n from its shape.  Complex or
non-finite data raise `InvalidDistributionError`.

A full experiment is judged by the scheme that runs it, in one order:
the amplitudes as numbers (`_check_amplitudes`, as the scheme is looked
up), then n against that scheme (`inversion.Scheme.check_pairs`: the
register bound, then the data bound), then the amplitude factors
(`validate_amplitudes`), then the channel (`channels.as_chi`), then the
seed and the shots.  `_experiment` is the whole setup of `characterize`,
`all_outcome_probabilities`, `sampling.characterize_sampled` and
`sampling.characterize_with_optics`; it takes the scheme and returns the
channel's chi, which the caller forwards.  `reconstruct_from_probabilities`
reads n from its data's shape and bounds it with `pair_scheme(alpha,
beta)`, whose lookup judges the amplitudes as numbers first; it judges no
factors (its docstring says why).  The CLI keeps the whole order: it judges
--alpha/--beta, --n and the factors with the scheme of its command before
it reads the channel, and the seed before it computes anything from the
channel, so every command that takes amplitudes fails as the library would.

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
as an independent cross-check of the solver.  `closed_form_chi` solves the
three coh settings in one array pass (`_coherences`) and places them with a
frame table built once at import from `FRAME_PERM` and `FRAME_SIGN`;
`reconstruct_coherence` is its one-setting case and `map_frame` reads
the same table.  The readout table is the
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
    InvalidConfigurationError,
    InvalidDistributionError,
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


_COH = SETTINGS[1:]
FRAME_PERM, FRAME_SIGN = {}, {}
for _setting in _COH:
    FRAME_PERM[_setting], FRAME_SIGN[_setting] = _conjugation_permutation(PREP_ROTATIONS[_setting])

# The frame table, one row per coh setting in `_COH` order, built once and
# read by `map_frame` and the closed forms.  Frame label j of setting s is
# canonical label _FRAME_LABELS[s, j], and chi[m, n] at (m, n) =
# _FRAME_ENTRIES[s, k] is _FRAME_SIGNS[s, k] times coherence k of
# (chi'_03, chi'_12).
_FRAME_LABELS = np.argsort([FRAME_PERM[s] for s in _COH], axis=1)
_FRAME_ENTRIES = _FRAME_LABELS[:, [[0, 3], [1, 2]]]
_FRAME_SIGNS = np.array(
    [[FRAME_SIGN[s][m] * FRAME_SIGN[s][n] for m, n in mn] for s, mn in zip(_COH, _FRAME_ENTRIES)]
)


def _check_amplitudes(alpha, beta) -> tuple[complex, complex]:
    """The input amplitudes as complex numbers; they must be finite, normalized numbers.

    A string, a bool (Python's or numpy's), None or any other non-number
    raises `InvalidConfigurationError` like a non-finite or unnormalized pair.
    """
    if not all(isinstance(x, numbers.Number) and not isinstance(x, bool) for x in (alpha, beta)):
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


def _factors(a: complex, b: complex) -> tuple[float, float, float]:
    """The coherence factors of checked amplitudes, not judged (`_coherence_factors` judges them).

    <Z^A> = |alpha|^2 - |beta|^2, <U> = 2 Re(alpha beta*) and Im(alpha beta*).
    """
    cross = a * b.conjugate()
    return abs(a) ** 2 - abs(b) ** 2, 2.0 * cross.real, cross.imag


def _coherence_factors(alpha, beta) -> tuple[float, float, float]:
    """The three factors of the coherence equations (`_factors`), judged nonzero: the one rule.

    The amplitudes must pass `_check_amplitudes` and both exceed
    `FACTOR_TOL` in magnitude; then |alpha|^2 - |beta|^2, Re(alpha beta*)
    and Im(alpha beta*) must, in that order.  The first that does not raises
    `InvalidConfigurationError`, whose message names the vanishing factor.
    """
    a, b = _check_amplitudes(alpha, beta)
    if abs(a) < FACTOR_TOL or abs(b) < FACTOR_TOL:
        raise InvalidConfigurationError(
            "coherence settings need both amplitudes nonzero, got "
            f"alpha={a!r}, beta={b!r}"
        )
    z_bias, u_exp, cross_imag = factors = _factors(a, b)
    checks = [
        (z_bias, "|alpha| = |beta| makes <Z^A> vanish"),
        # <U> = 2 Re(alpha beta*), so half of it is Re(alpha beta*) exactly
        (u_exp / 2, "Re(alpha beta*) = 0 makes the normalizer expectation <U> vanish"),
        (cross_imag, "Im(alpha beta*) = 0 makes <Z^A U> vanish"),
    ]
    for value, message in checks:
        if abs(value) < FACTOR_TOL:
            raise InvalidConfigurationError(message)
    return factors


def validate_amplitudes(alpha, beta) -> None:
    """Check amplitudes for the coherence settings, which every full experiment has.

    Coherence reconstruction divides by <Z^A>, <U> and <Z^A U> of the input
    pair, which are proportional to |alpha|^2 - |beta|^2, Re(alpha beta*)
    and Im(alpha beta*); `_coherence_factors`, which the closed forms call
    too, judges them.  Raises `InvalidConfigurationError`.
    """
    _coherence_factors(alpha, beta)


def all_configurations(n: int) -> list[tuple[str, ...]]:
    """The 4**n configurations in index order, each a tuple of setting names (pair 1 first).

    n is bounded like every register (`ops.check_register_size`).
    """
    ops.check_register_size(n)
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
    on the primary block.  Checks the settings (unknown, none, a bare str or
    bytes, whose letters are not settings, or not a sequence raise
    `InvalidConfigurationError`), the register size, the amplitudes
    (`_check_amplitudes`) and then the channel.
    """
    if isinstance(settings, (str, bytes)):
        raise InvalidConfigurationError(f"settings must be a sequence of setting names, got {settings!r:.80}")
    try:
        settings = tuple(settings)
    except TypeError:
        raise InvalidConfigurationError(f"settings must be a sequence, got {settings!r}") from None
    if not settings:
        raise InvalidConfigurationError("configuration needs at least one pair")
    _check_settings(settings)
    ops.check_register_size(len(settings))
    singles = _schemes(*_check_amplitudes(alpha, beta))[2]
    chi = channels.as_chi(channel, len(settings))
    return inversion.forward([singles[SETTINGS.index(s)].design for s in settings], chi).ravel()


def _experiment(
    scheme: inversion.Scheme, channel, n: int, alpha: complex, beta: complex
) -> np.ndarray:
    """The channel's chi on n qubits, after the checks of a full experiment in their one order.

    `scheme` is the one that will run the experiment, looked up by the caller
    from the amplitudes, which judges them as numbers.  Then n must pass
    `scheme.check_pairs`, the amplitudes `validate_amplitudes`, and the
    channel `channels.as_chi`; the caller forwards the chi it returns.  The
    CLI makes the same checks in the same order (`cli._load_channel`), so it
    forwards its loaded `channels.Chi` without calling this.
    """
    scheme.check_pairs(n)
    validate_amplitudes(alpha, beta)
    return channels.as_chi(channel, n)


def all_outcome_probabilities(
    channel, n: int, alpha: complex = DEFAULT_ALPHA, beta: complex = DEFAULT_BETA
) -> np.ndarray:
    """Exact outcome probabilities of all 4**n configurations, shape (4**n, 4**n).

    Row c is configuration c of `all_configurations(n)` and column k its
    joint outcome.  Checks its inputs in the one order (module docstring),
    with n against `pair_scheme`, and applies A1 along every pair axis of
    the channel's chi (`channels.as_chi`).
    """
    scheme = pair_scheme(alpha, beta)
    q = scheme.forward(_experiment(scheme, channel, n, alpha, beta))
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
    The amplitudes are checked by `_check_amplitudes`; the factors are not
    judged, since real amplitudes are legal where no coherence is solved.
    """
    keys = ("stabilizer_bias", "normalizer", "cross_imag")
    return dict(zip(keys, _factors(*_check_amplitudes(alpha, beta))))


def _coherences(q: np.ndarray, frame_pops: np.ndarray, factors: tuple) -> np.ndarray:
    """Rotated-frame coherences (chi'_03, chi'_12) of k coh settings, a k x 2 complex array.

    q holds the settings' k x 4 outcome probabilities and frame_pops the
    k x 4 populations in each setting's frame; the factors come from
    `_coherence_factors`.  The stabilizer sums q0+q3 and q1+q2 give
    Re(chi'_03) and Im(chi'_12), the normalizer differences q0-q3 and q1-q2
    give Im(chi'_03) and Re(chi'_12).  The parts are written into an empty
    array, so that no sum with 1j can flip the sign of a zero.
    """
    z_bias, u_exp, cross_imag = factors
    q0, q1, q2, q3 = q.T
    d0, d1, d2, d3 = frame_pops.T
    coh = np.empty((len(q), 2), dtype=complex)
    coh[:, 0].real = (q0 + q3 - d0 - d3) / (2.0 * z_bias)
    coh[:, 0].imag = (q0 - q3 - (d0 - d3) * u_exp) / (4.0 * cross_imag)
    coh[:, 1].real = ((d1 - d2) * u_exp - (q1 - q2)) / (4.0 * cross_imag)
    coh[:, 1].imag = (q1 + q2 - d1 - d2) / (2.0 * z_bias)
    return coh


def reconstruct_coherence(
    setting: str,
    probabilities,
    diagonals: np.ndarray,
    alpha: complex = DEFAULT_ALPHA,
    beta: complex = DEFAULT_BETA,
) -> tuple[complex, complex]:
    """Rotated-frame coherences (chi'_03, chi'_12) of one coh setting on a single pair.

    The one-setting case of `closed_form_chi`'s pass (`_coherences`).
    `diagonals` are the canonical-frame populations (the pop setting's
    probabilities); the frame table permutes them into the rotated frame.
    Use `map_frame` to place the returned values into the canonical chi.
    Checks the setting, then the amplitudes and their factors
    (`_coherence_factors`, `InvalidConfigurationError`), then the data:
    both must be 4 finite real numbers.  Data that are not real numbers,
    or not finite, raise `InvalidDistributionError`, and another shape
    `DimensionMismatchError`.
    """
    if setting not in _COH:
        raise InvalidConfigurationError(
            f"coherence reconstruction needs one coh-type pair, got {setting}"
        )
    factors = _coherence_factors(alpha, beta)
    q, diag = ops.real_data(probabilities), ops.real_data(diagonals)
    if q.shape != (4,) or diag.shape != (4,):
        raise DimensionMismatchError(
            "coherence reconstruction needs 4 probabilities and 4 diagonals, "
            f"got {q.shape} and {diag.shape}"
        )
    ops.check_finite(np.concatenate((q, diag)))
    frame_pops = diag[_FRAME_LABELS[[_COH.index(setting)]]]
    coh_stab, coh_norm = _coherences(q[None], frame_pops, factors)[0]
    return complex(coh_stab), complex(coh_norm)


def map_frame(setting: str, coh_stab: complex, coh_norm: complex) -> dict[tuple[int, int], complex]:
    """Canonical-frame chi entries determined by one coh configuration.

    The preparation rotation V permutes Pauli labels with signs,
    V^dag E_m V = sign[m] E_perm[m], so the rotated-frame entries
    (chi'_03, chi'_12) land at canonical positions chi[m, n] =
    sign[m] sign[n] chi'[perm[m], perm[n]]; the frame table holds those
    positions and signs.  Returns the two upper-triangle entries this
    configuration pins down (conjugates implied).  Both values must be
    numbers (not bools), and then finite complex numbers, as the data of
    `reconstruct_coherence` must be finite; each check raises
    `InvalidDistributionError` with its own message.
    """
    if setting not in _COH:
        raise InvalidConfigurationError(f"no frame mapping for setting {setting!r}")
    values = (coh_stab, coh_norm)
    if not all(isinstance(v, numbers.Number) and not isinstance(v, bool) for v in values):
        raise InvalidDistributionError(f"coherences must be numbers, got {values!r:.80}")
    # each part a real number a float holds (`ops.is_real`: no int beyond every float) and finite
    if not all(ops.is_real(p) and math.isfinite(p) for v in values for p in (v.real, v.imag)):
        raise InvalidDistributionError(f"coherences must be finite complex numbers, got {values!r:.80}")
    s = _COH.index(setting)
    # an entry below the diagonal is stored as its conjugate above it
    return {
        (min(m, n), max(m, n)): sign * v if m < n else (sign * v).conjugate()
        for (m, n), sign, v in zip(_FRAME_ENTRIES[s].tolist(), _FRAME_SIGNS[s].tolist(), values)
    }


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
    """Single-pair chi from the paper's closed forms, all three coh settings in one pass.

    Expects the 4 x 4 probability array of one pair, rows in setting order
    (pop, coh_z, coh_x, coh_y), real and finite.  The pop row is diag(chi);
    `_coherences` solves the three coh rows against it and the frame table
    places them, entry for entry what `reconstruct_coherence` and
    `map_frame` give setting by setting.  Checks that the data are real
    numbers (`InvalidDistributionError`) of shape 4 x 4
    (`DimensionMismatchError`), then the amplitudes and their factors
    (`_coherence_factors`), then that the data are finite.
    """
    q = ops.real_data(probabilities)
    if q.shape != (4, 4):
        raise DimensionMismatchError(f"closed form needs 4 single-pair distributions, got {q.shape}")
    factors = _coherence_factors(alpha, beta)
    ops.check_finite(q)
    # outcome m of the pop setting detects Pauli error m: the pop row is diag(chi)
    chi = np.diag(q[0]).astype(complex)
    coh = _FRAME_SIGNS * _coherences(q[1:], q[0][_FRAME_LABELS], factors)
    # each entry and its conjugate, on whichever side of the diagonal it lies
    m, n = _FRAME_ENTRIES[..., 0], _FRAME_ENTRIES[..., 1]
    chi[m, n] = coh
    chi[n, m] = coh.conj()
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
    axis of the data.  Complex data or another shape raise first; then,
    in the one order (module docstring), the amplitudes as numbers and n
    against the scheme (`check_pairs`); then non-finite data or a
    rank-deficient A1 (degenerate amplitudes) raise instead of returning a
    wrong chi.

    Unlike every other full-experiment entry point it judges no amplitude
    factors: the paper's ill-posed guard (acceptance criterion 10,
    `tests/test_acceptance.py`) needs the solver itself to refuse data taken
    with degenerate amplitudes such as (0.8, 0.6), with
    `IllPosedConfigurationError` from its rank check, and a factor check
    would raise `InvalidConfigurationError` first.
    """
    q = ops.real_data(probabilities)
    rows = q.shape[0] if q.ndim else 0
    n = (rows.bit_length() - 1) // 2
    if n < 1 or q.shape != (4**n, 4**n):
        raise DimensionMismatchError(f"data of shape {q.shape}, expected (4**n, 4**n) with n >= 1")
    scheme = pair_scheme(alpha, beta)
    scheme.check_pairs(n)
    return scheme.solve(inversion.pair_axes(q, n, 4))


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
    the data.  Checks its inputs in the one order (module docstring).
    """
    scheme = pair_scheme(alpha, beta)
    data = scheme.forward(_experiment(scheme, channel, n, alpha, beta))
    result = scheme.solve(data)
    if n == 1:
        chi_cf = closed_form_chi(data.reshape(4, 4), alpha, beta)
        result.chi_closed_form = chi_cf
        result.residual = float(np.max(np.abs(chi_cf - result.chi)))
    return result
