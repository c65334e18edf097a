"""dcqdlab: simulation laboratory for direct characterization of quantum dynamics.

Simulates open-system dynamics on small qubit registers and reconstructs
the process matrix chi either with the entanglement-assisted DCQD protocol
(Bell-type error-detecting measurements, 4**n configurations) or with the
standard process-tomography baseline (16**n configurations), with exact or
finite-shot statistics, a partial Bell-analyzer measurement model, and
joint T1/T2 estimation from a single Bell-state measurement.  Every
sampled path draws through one sampler, `sampling.sample`.
"""

from .channels import (
    ChannelSpec,
    amplitude_damping,
    bit_flip,
    chi_from_kraus,
    compose,
    depolarizing,
    identity_channel,
    kraus_from_chi,
    kraus_from_spec,
    phase_damping,
    phase_flip,
    random_channel,
    rotation,
    validate_chi,
)
from .dcqd import (
    ReconstructionResult,
    all_configurations,
    characterize,
    outcome_probabilities,
    reconstruct_coherence,
)
from .relax import RelaxEstimate, estimate_T1, estimate_T2, joint_estimate
from .resources import resource_counts, resource_table
from .sampling import characterize_sampled
from .sqpt import sqpt_characterize

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "ReconstructionResult",
    "RelaxEstimate",
    "all_configurations",
    "amplitude_damping",
    "bit_flip",
    "characterize",
    "characterize_sampled",
    "chi_from_kraus",
    "compose",
    "depolarizing",
    "estimate_T1",
    "estimate_T2",
    "identity_channel",
    "joint_estimate",
    "kraus_from_chi",
    "kraus_from_spec",
    "outcome_probabilities",
    "phase_damping",
    "phase_flip",
    "random_channel",
    "reconstruct_coherence",
    "resource_counts",
    "resource_table",
    "rotation",
    "sqpt_characterize",
    "validate_chi",
]
