"""Shared test oracles, kept independent of the library code paths they check."""

import numpy as np
import pytest

from dcqdlab import channels, dcqd, ops

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
def rng():
    return np.random.default_rng(20240811)
