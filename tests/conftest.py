"""Shared test oracles, kept independent of the library code paths they check."""

import functools
import itertools
import math

import numpy as np
import pytest

from dcqdlab import channels, dcqd, sampling

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


def input_state(config):
    """2n-qubit input state of a configuration, primary block first.

    Pair i holds (V_s (x) I)(a|00> + b|11>) for its setting s, with
    (a, b) = (alpha, beta), or (1, 1)/sqrt(2) for pop.
    """
    pairs = []
    for s in config.settings:
        a, b = (_S, _S) if s == "pop" else (config.alpha, config.beta)
        pairs.append(np.kron(PREP_ROTATIONS[s], I2) @ np.array([a, 0, 0, b], dtype=complex))
    return _kron_pairs(pairs)


def measurement_basis(config):
    """The 4**n joint measurement states, outcome digits (pair 1 first) in Bell order.

    Per pair these are the Bell states rotated by the pair's preparation
    rotation, (V_s (x) I)|Bell_k>.
    """
    pair_bases = [[np.kron(PREP_ROTATIONS[s], I2) @ b for b in BELL_STATES] for s in config.settings]
    return [
        _kron_pairs([pair_bases[i][k] for i, k in enumerate(digits)])
        for digits in itertools.product(range(4), repeat=config.n)
    ]


def amplitude_matrix(config):
    """C[k, m] = <outcome_k| (E_m on primaries) |input state>.

    The input is pure and every outcome projector has rank 1, so the design
    factorizes through C: Tr[P_k E_m rho_c E_n^dag] = C[k, m] conj(C[k, n]).
    """
    d = 2**config.n
    psi = input_state(config).reshape(d, d)
    w = np.array([e @ psi for e in naive_pauli_list(config.n)]).reshape(d * d, d * d)
    return np.array(measurement_basis(config)).conj() @ w.T


def design_matrix(config):
    """Dense complex design A[k, m*D + n] = Tr[P_k E_m rho_c E_n^dag] of one configuration."""
    c = amplitude_matrix(config)
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


def density_matrix_probabilities(kraus, config):
    """Outcome probabilities by full density-matrix simulation of the register.

    Builds the 2n-qubit input projector, applies the channel to the primary
    block and reads out every joint measurement state; independent of the
    per-pair factored engine.
    """
    psi = input_state(config)
    rho_out = channels.apply_channel(kraus, np.outer(psi, psi.conj()), ancilla_dim=2**config.n)
    return np.array([np.vdot(b, rho_out @ b).real for b in measurement_basis(config)])


def per_pair_reference(t, mats, lead=0):
    """`inversion.per_pair` as a loop of `np.tensordot` steps (mats[i] along pair axis i)."""
    for m in mats:
        # contracts the current first pair axis and appends the result last,
        # so after n steps the pair axes are back in order
        t = np.tensordot(t, m, axes=([lead], [1]))
    return t


@pytest.fixture
def channel_untouched(monkeypatch):
    """Fail on any conversion or expansion of a channel: for tests of checks made before one."""

    def untouched(*args, **kwargs):
        raise AssertionError("channel expanded before the size check")

    for name in ("as_kraus", "as_chi", "chi_from_kraus"):
        monkeypatch.setattr(channels, name, untouched)


def stacked_design(configs):
    """Dense complex design of a configuration set, rows stacked in order."""
    return np.vstack([design_matrix(c) for c in configs])


def real_design(config):
    """Real design of one configuration over the Hermitian parameters of chi.

    Parameters: the diagonal of chi, then (Re, Im) of its strict upper
    triangle in row-major order (see `unflatten_hermitian`).
    """
    c = amplitude_matrix(config)
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


def optics_lstsq_oracle(channel, shots=None, seed=None):
    """Partial Bell-analyzer chi by real-parameter least squares.

    Sums the rows of each outcome group of the real design and the matching
    probabilities, draws the same seeded counts as the library (one spawned
    seed per configuration and analyzer setting, in that order) and solves
    with a dense `lstsq`; independent of the per-pair solver.
    """
    model = sampling.OpticsModel()
    probs = dcqd.all_outcome_probabilities(channel, 1)
    children = np.random.SeedSequence(seed).spawn(2 * len(probs))
    rows, values = [], []
    for i, (config, q) in enumerate(zip(dcqd.all_configurations(1), probs)):
        base = real_design(config)
        for j, setting in enumerate([model, model.complement()]):
            groups = [list(g) for g in setting.groups()]
            rows += [base[g].sum(axis=0) for g in groups]
            merged = np.array([q[g].sum() for g in groups])
            if shots is not None:
                merged = sampling.sample_counts(merged, shots, children[2 * i + j]).counts / shots
            values.append(merged)
    x, *_ = np.linalg.lstsq(np.array(rows), np.concatenate(values), rcond=None)
    return unflatten_hermitian(x, 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
