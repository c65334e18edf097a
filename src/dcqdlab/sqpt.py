"""Standard quantum process tomography baseline.

Prepares the 4**n product inputs over {|0>, |1>, |+>, |+i>}, measures every
qubit of each output in the eigenbases of X, Y and Z (exact probabilities;
finite shots are deliberately not modelled here), and linearly inverts for
chi.  Inputs and readout are the same on every qubit, so the experiment is
n copies of a one-qubit experiment: a 24 x 4 readout table (4 inputs x 3
bases x 2 eigenvectors) gives the 24 x 16 per-qubit design that `inversion`
applies to chi and inverts; it is built once per process.  Bookkeeping
counts 4**n Pauli settings per input, i.e. 16**n experimental
configurations in total, against 4**n for the direct protocol in `dcqd`
(see `resources`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channels, inversion, resources

_KET_0 = np.array([1, 0], dtype=complex)
_KET_1 = np.array([0, 1], dtype=complex)
_KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
_KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)
_KET_PLUS_I = np.array([1, 1j], dtype=complex) / math.sqrt(2)
_KET_MINUS_I = np.array([1, -1j], dtype=complex) / math.sqrt(2)
INPUT_KETS = (_KET_0, _KET_1, _KET_PLUS, _KET_PLUS_I)
# +1 and -1 eigenvectors of X, Y and Z
READOUT_KETS = (_KET_PLUS, _KET_MINUS, _KET_PLUS_I, _KET_MINUS_I, _KET_0, _KET_1)


def _readout_table() -> np.ndarray:
    """T[(i, e), (a, a')] = conj(e[a]) psi_i[a'], so <e|K|psi_i> = sum K[a, a'] T[(i, e), (a, a')]."""
    return np.array([np.outer(e.conj(), psi).ravel() for psi in INPUT_KETS for e in READOUT_KETS])


@functools.lru_cache(maxsize=1)
def _design() -> np.ndarray:
    """The read-only 24 x 16 per-qubit design, built once per process."""
    design = inversion.readout_design(_readout_table())
    design.flags.writeable = False
    return design


@dataclass
class SqptResult:
    """Process matrix estimated by the SQPT baseline plus resource counts."""

    chi: np.ndarray
    n_qubits: int
    n_inputs: int
    n_settings_per_input: int
    n_experiments: int


def sqpt_characterize(channel, n: int = 1) -> SqptResult:
    """Reconstruct chi by preparing product inputs and tomographing outputs.

    Exact probabilities make the tomography lossless, so the result matches
    the ground-truth process matrix to solver precision; what this baseline
    quantifies is the experiment count, not accuracy.
    """
    channels.check_register_size(n)
    counts = resources.resource_counts(n)["sqpt"]
    design = _design()
    q = inversion.forward([design] * n, channels.as_chi(channel, n))
    chi, _cond = inversion.solve(design, q)
    return SqptResult(
        chi=chi,
        n_qubits=n,
        n_inputs=counts["n_inputs"],
        n_settings_per_input=counts["n_measurements"],
        n_experiments=counts["n_experiments"],
    )
