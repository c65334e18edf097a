"""Standard quantum process tomography baseline.

The square SQPT of Chuang & Nielsen (J. Mod. Opt. 44, 2455 (1997)):
prepares the 4**n product inputs over {|0>, |1>, |+>, |+i>} and reads
every Pauli-string expectation of each output (exact expectations; finite
shots are deliberately not modelled here), then linearly inverts for chi.
Inputs and readout are the same on every qubit, so the experiment is n
copies of a one-qubit experiment: the 16 x 16 per-qubit design
D[(i, p), (m, m')] = Tr(E_p E_m rho_i E_m'^dag), rho_i one of the 4 inputs
and E_p one of the 4 Paulis of `ops.PAULIS`, is an `inversion.Scheme` of
16 (input, Pauli) settings x 1 outcome whose data are Pauli expectations.
It forwards chi and inverts the data; the scheme and its SVD are built
once per process.  The experiment on n qubits runs the scheme's 16**n
settings: 4**n inputs times 4**n Pauli settings each (`Scheme.counts`),
against 4**n configurations for the direct protocol in `dcqd`; `resources`
tabulates both from the schemes.  Its result is the
`inversion.ReconstructionResult` of every scheme: 16**n configurations, a
design of rank 16**n and cond(D)**n, about 3.23**n against DCQD's
6.20**n.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import channels, inversion, ops

_KET_0 = np.array([1, 0], dtype=complex)
_KET_1 = np.array([0, 1], dtype=complex)
_KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
_KET_PLUS_I = np.array([1, 1j], dtype=complex) / math.sqrt(2)
INPUT_KETS = (_KET_0, _KET_1, _KET_PLUS, _KET_PLUS_I)


def _design() -> np.ndarray:
    """D[(i, p), (m, m')] = Tr(E_p E_m rho_i E_m'^dag) with rho_i = |psi_i><psi_i|.

    The Paulis are Hermitian, so E_m'^dag[d, a] = E_m'[d, a].
    """
    e, psi = np.array(ops.PAULIS), np.array(INPUT_KETS)
    return np.einsum("pab,mbc,ic,id,nda->ipmn", e, e, psi, psi.conj(), e).reshape(16, 16)


@functools.lru_cache(maxsize=1)
def _scheme() -> inversion.Scheme:
    """The per-qubit scheme, built once per process: 16 (input, Pauli) settings x 1 outcome."""
    return inversion.Scheme(_design(), 1, len(INPUT_KETS))


def sqpt_characterize(channel, n: int = 1) -> inversion.ReconstructionResult:
    """Reconstruct chi by preparing product inputs and tomographing outputs.

    Exact expectations make the tomography lossless, so the result matches
    the ground-truth process matrix to solver precision; what this baseline
    quantifies is the experiment count, not accuracy.  Returns the scheme's
    `inversion.ReconstructionResult`, with 16**n configurations.
    """
    # as_chi checks the register first, so a bad n gets its message
    chi = channels.as_chi(channel, n)
    scheme = _scheme()
    return scheme.solve(scheme.forward(chi))
