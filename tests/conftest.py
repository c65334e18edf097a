"""Shared test oracles, kept independent of the library code paths they check."""

import functools
import itertools
import math

import numpy as np
import pytest

from dcqdlab import channels, dcqd

# naive Pauli definitions, written out rather than imported
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE_PAULIS = [I2, SX, SY, SZ]

# The dense n-pair experiment, written out from the protocol rather than from
# the library's readout table.  Settings are keyed by name: pop, coh_z, coh_x,
# coh_y.  V is the preparation rotation on the primary qubit, and the Bell
# states are ordered (phi+, psi+, psi-, phi-), primary qubit first.
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
PREP_ROTATIONS = {"pop": I2, "coh_z": I2, "coh_x": HADAMARD, "coh_y": PHASE_S @ HADAMARD}
_S = 1.0 / math.sqrt(2)
BELL_STATES = [
    np.array([_S, 0, 0, _S], dtype=complex),
    np.array([0, _S, _S, 0], dtype=complex),
    np.array([0, -_S, _S, 0], dtype=complex),
    np.array([_S, 0, 0, -_S], dtype=complex),
]

# Pauli letters (A, B) of the commuting measurement pair per setting, and the
# eigenvalues (stabilizer, normalizer) carried by outcome digit 0..3.
STABILIZER_LETTERS = {"pop": (3, 3), "coh_z": (3, 3), "coh_x": (1, 3), "coh_y": (2, 3)}
NORMALIZER_LETTERS = {"pop": (1, 1), "coh_z": (1, 1), "coh_x": (3, 1), "coh_y": (3, 1)}
OUTCOME_EIGENVALUES = ((+1, +1), (-1, +1), (-1, -1), (+1, -1))


def naive_pauli(letters):
    out = np.array([[1.0]], dtype=complex)
    for p in letters:
        out = np.kron(out, SINGLE_PAULIS[p])
    return out


def naive_pauli_list(n):
    return [naive_pauli(s) for s in itertools.product(range(4), repeat=n)]


def kraus_action(kraus, rho):
    """Channel action in operator-sum form, by direct summation."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        out += k @ rho @ k.conj().T
    return out


def primary_action(kraus, rho, ancilla_dim):
    """`kraus_action` of a channel on the leading factor of rho, as E (x) I on an ancilla of ancilla_dim."""
    eye = np.eye(ancilla_dim)
    return kraus_action([np.kron(np.asarray(k, dtype=complex), eye) for k in kraus], rho)


def chi_action(chi, rho, n):
    """Channel action from a process matrix, by the double loop over the basis."""
    paulis = naive_pauli_list(n)
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for m in range(len(paulis)):
        for k in range(len(paulis)):
            out += chi[m, k] * paulis[m] @ rho @ paulis[k].conj().T
    return out


def actions_agree(route_a, route_b, n, atol=1e-9, rng=None):
    """Compare two channel actions on all Pauli-basis inputs and a random state."""
    rng = rng or np.random.default_rng(1234)
    inputs = list(naive_pauli_list(n))
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    inputs.append(rho / np.trace(rho))
    return all(np.allclose(route_a(r), route_b(r), atol=atol) for r in inputs)


def random_density(n, rng):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _kron_pairs(pair_vectors):
    """Kronecker product of per-pair vectors, reordered from [A1 B1 A2 B2 ..] to [A1..An B1..Bn]."""
    n = len(pair_vectors)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    joint = functools.reduce(np.kron, pair_vectors)
    return joint.reshape([2] * (2 * n)).transpose(order).reshape(-1)


# The library's default input amplitudes, for the oracles' defaults.
ALPHA, BETA = dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA


def input_state(settings, alpha=ALPHA, beta=BETA):
    """2n-qubit input state of a configuration (one setting per pair), primary block first.

    Pair i holds (V_s (x) I)(a|00> + b|11>) for its setting s, with
    (a, b) = (alpha, beta), or (1, 1)/sqrt(2) for pop.
    """
    pairs = []
    for s in settings:
        a, b = (_S, _S) if s == "pop" else (alpha, beta)
        pairs.append(np.kron(PREP_ROTATIONS[s], I2) @ np.array([a, 0, 0, b], dtype=complex))
    return _kron_pairs(pairs)


def measurement_basis(settings):
    """The 4**n joint measurement states, outcome digits (pair 1 first) in Bell order.

    Per pair these are the Bell states rotated by the pair's preparation
    rotation, (V_s (x) I)|Bell_k>.
    """
    pair_bases = [[np.kron(PREP_ROTATIONS[s], I2) @ b for b in BELL_STATES] for s in settings]
    return [
        _kron_pairs([pair_bases[i][k] for i, k in enumerate(digits)])
        for digits in itertools.product(range(4), repeat=len(settings))
    ]


def amplitude_matrix(settings, alpha=ALPHA, beta=BETA):
    """C[k, m] = <outcome_k| (E_m on primaries) |input state>.

    The input is pure and every outcome projector has rank 1, so the design
    factorizes through C: Tr[P_k E_m rho_c E_n^dag] = C[k, m] conj(C[k, n]).
    """
    n = len(settings)
    d = 2**n
    psi = input_state(settings, alpha, beta).reshape(d, d)
    w = np.array([e @ psi for e in naive_pauli_list(n)]).reshape(d * d, d * d)
    return np.array(measurement_basis(settings)).conj() @ w.T


def design_matrix(settings, alpha=ALPHA, beta=BETA):
    """Dense complex design A[k, m*D + n] = Tr[P_k E_m rho_c E_n^dag] of one configuration."""
    c = amplitude_matrix(settings, alpha, beta)
    return np.einsum("km,kn->kmn", c, c.conj()).reshape(c.shape[0], -1)


def choi_from_kraus(kraus):
    """Choi matrix sum_ij |i><j| (x) E(|i><j|), input factor first, by direct summation."""
    d = np.asarray(kraus[0]).shape[0]
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, kraus_action(kraus, unit))
    return choi


def density_matrix_probabilities(kraus, settings, alpha=ALPHA, beta=BETA):
    """Outcome probabilities by full density-matrix simulation of the register.

    Builds the 2n-qubit input projector, applies the channel to the primary
    block and reads out every joint measurement state; independent of the
    per-pair factored engine.
    """
    psi = input_state(settings, alpha, beta)
    rho_out = primary_action(kraus, np.outer(psi, psi.conj()), 2 ** len(settings))
    return np.array([np.vdot(b, rho_out @ b).real for b in measurement_basis(settings)])


# Channel files nested too deeply to read: a composed chain 495 deep and an
# unclosed run of 5000 brackets.  The chain is written as text, since
# `json.dumps` of it would overflow the stack too.
NESTED_CHANNEL_FILES = {
    "chain495": '{"kind":"composed","stages":[' * 495 + '{"kind":"identity"}' + "]}" * 495,
    "brackets5000": '{"kind":"composed","stages":' + "[" * 5000,
}


def per_pair_reference(t, mats):
    """`inversion.per_pair` as a loop of `np.tensordot` steps (mats[i] along pair axis i)."""
    for m in mats:
        # contracts the current first axis and appends the result last, so
        # after n steps the pair axes are back in order, behind any others
        t = np.tensordot(t, m, axes=([0], [1]))
    return t


@pytest.fixture
def channel_untouched(monkeypatch):
    """Fail on any conversion or expansion of a channel: for tests of checks made before one.

    `as_chi` and `as_kraus` still run their own register check, which comes
    before they look at the channel (`_validated`).
    """

    def untouched(*args, **kwargs):
        raise AssertionError("channel expanded before the size check")

    for name in ("_validated", "chi_from_kraus"):
        monkeypatch.setattr(channels, name, untouched)


def stacked_design(configs, alpha=ALPHA, beta=BETA):
    """Dense complex design of a configuration set, rows stacked in order."""
    return np.vstack([design_matrix(c, alpha, beta) for c in configs])


def real_design(settings, alpha=ALPHA, beta=BETA):
    """Real design of one configuration over the Hermitian parameters of chi.

    Parameters: the diagonal of chi, then (Re, Im) of its strict upper
    triangle in row-major order (see `unflatten_hermitian`).
    """
    c = amplitude_matrix(settings, alpha, beta)
    dim = c.shape[1]
    rows, cols = np.triu_indices(dim, k=1)
    cross = c[:, rows] * c[:, cols].conj()
    out = np.empty((len(c), dim * dim))
    out[:, :dim] = np.abs(c) ** 2
    out[:, dim::2] = 2.0 * cross.real
    out[:, dim + 1 :: 2] = -2.0 * cross.imag
    return out


def unflatten_hermitian(x, dim):
    """Hermitian matrix of a parameter vector in the order of `real_design`."""
    chi = np.diag(x[:dim]).astype(complex)
    rows, cols = np.triu_indices(dim, k=1)
    upper = x[dim::2] + 1j * x[dim + 1 :: 2]
    chi[rows, cols] = upper
    chi[cols, rows] = upper.conj()
    return chi


# outcome groups of the partial Bell analyzer and of its complement, in the
# Bell order (phi+, psi+, psi-, phi-)
OPTICS_GROUPS = ([(0, 3), (1,), (2,)], [(0,), (1, 2), (3,)])


def optics_lstsq_oracle(channel, shots=None, seed=None, n=1):
    """Partial Bell-analyzer chi on n pairs by real-parameter least squares.

    A configuration is one (setting, analyzer) per pair, the analyzer
    `OPTICS_GROUPS[0]` or its complement `OPTICS_GROUPS[1]`; its outcome
    groups are the products of each pair's groups.  Sums the rows of each
    group of the real design and the matching probabilities.  With `shots`,
    draws each configuration's counts itself, the library's seeding
    contract written out: one spawned seed per configuration, in the row
    order of `unpair_axes(data, n, (8, 3))` (pair 1's (setting, analyzer)
    most significant), and a multinomial over the merged probabilities
    clipped at 0 with the lost mass appended.  Solves with a dense `lstsq`;
    independent of the per-pair solver and of the library's sampler.
    """
    probs = dcqd.all_outcome_probabilities(channel, n)
    configs = list(itertools.product(itertools.product(range(4), range(2)), repeat=n))
    children = np.random.SeedSequence(seed).spawn(len(configs))
    rows, values = [], []
    for config, child in zip(configs, children):
        settings = [s for s, _ in config]
        base = real_design(tuple(dcqd.SETTINGS[s] for s in settings))
        q = probs[np.ravel_multi_index(settings, (4,) * n)]
        groups = [
            [np.ravel_multi_index(outcomes, (4,) * n) for outcomes in itertools.product(*product)]
            for product in itertools.product(*(OPTICS_GROUPS[j] for _, j in config))
        ]
        rows += [base[g].sum(axis=0) for g in groups]
        merged = np.array([q[g].sum() for g in groups])
        if shots is not None:
            merged = np.clip(merged, 0.0, None)
            pvals = np.append(merged, max(0.0, 1.0 - merged.sum()))
            merged = np.random.default_rng(child).multinomial(shots, pvals / pvals.sum())[:-1] / shots
        values.append(merged)
    x, *_ = np.linalg.lstsq(np.array(rows), np.concatenate(values), rcond=None)
    return unflatten_hermitian(x, 4**n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
