"""Shared test oracles, kept independent of the library code paths they check."""

import numpy as np
import pytest

from dcqdlab import channels, dcqd, ops, sampling

# naive Pauli definitions, written out rather than imported
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE_PAULIS = [I2, SX, SY, SZ]


def naive_pauli(letters):
    out = np.array([[1.0]], dtype=complex)
    for p in letters:
        out = np.kron(out, SINGLE_PAULIS[p])
    return out


def naive_pauli_list(n):
    import itertools

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


def density_matrix_probabilities(kraus, config):
    """Outcome probabilities by full density-matrix simulation of the register.

    Builds the 2n-qubit input projector, applies the channel to the primary
    block and reads out every joint measurement state; independent of the
    per-pair factored engine.
    """
    rho = ops.projector(dcqd.build_input_state(config, check=False))
    rho_out = channels.apply_channel(kraus, rho, ancilla_dim=2**config.n)
    return np.array([np.vdot(b, rho_out @ b).real for b in dcqd.measurement_basis(config)])


@pytest.fixture
def channel_untouched(monkeypatch):
    """Fail on any conversion or expansion of a channel: for tests of checks made before one."""

    def untouched(*args, **kwargs):
        raise AssertionError("channel expanded before the size check")

    for name in ("as_kraus", "as_chi", "chi_from_kraus"):
        monkeypatch.setattr(channels, name, untouched)


def stacked_design(configs):
    """Dense complex design of a configuration set, rows stacked in order."""
    return np.vstack([dcqd.design_matrix(c) for c in configs])


def real_design(config):
    """Real design of one configuration over the Hermitian parameters of chi.

    Parameters: the diagonal of chi, then (Re, Im) of its strict upper
    triangle in row-major order (see `unflatten_hermitian`).
    """
    c = dcqd.amplitude_matrix(config)
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
