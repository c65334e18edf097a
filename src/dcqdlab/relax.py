"""Joint T1/T2 estimation from a single Bell-type measurement.

A pair is prepared in a|00> + b|11> and the primary qubit undergoes
amplitude damping for a duration t1 followed by phase damping for t2.
Measuring the commuting pair Z^A Z^B and X^A X^B (one Bell-state
measurement) then determines both time constants at once:

* the probability of the stabilizer -1 outcome is (1 - exp(-t1/T1))|b|^2,
  inverted exactly as 1/T1 = -(1/t1) ln(1 - 2 p_minus / (1 - <Z^A>_in));
* the normalizer expectation decays by exp(-t'/(2 T2')) with
  t'/T2' = t1/T1 + t2/T2, so t'/T2' = -2 ln(<X^A X^B>_out / <X^A X^B>_in)
  and T2 follows once T1 is known.

Real amplitudes are fine here (only <Z^A>_in != 1 and Re(a b*) != 0 are
needed), unlike the full coherence protocol in `dcqd`.  Zero decay is a
legitimate limit and is reported as an infinite time constant rather than
an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channels, dcqd, ops, sampling
from .exceptions import (
    IllPosedInputError,
    InconsistentDataError,
    InvalidStateError,
    SaturationError,
)

__all__ = [
    "RelaxEstimate",
    "estimate_T1",
    "estimate_T2",
    "forward_model",
    "joint_estimate",
]


@dataclass
class RelaxEstimate:
    """Jointly estimated time constants with the inputs that produced them.

    t_prime_over_T2_prime is the combined dephasing exponent
    t1/T1 + t2/T2; the consistency relation holds by construction.
    """

    T1: float
    t_prime_over_T2_prime: float
    T2: float
    alpha: complex
    beta: complex
    t1: float
    t2: float


def _pair_config(alpha: complex, beta: complex) -> dcqd.Configuration:
    """The coh_z configuration of a|00> + b|11>; it validates the amplitudes."""
    return dcqd.Configuration(settings=(dcqd.COH_Z,), alpha=alpha, beta=beta)


def forward_model(
    alpha: complex, beta: complex, t1: float, T1: float, t2: float, T2: float
) -> np.ndarray:
    """Final two-qubit density operator of the damping sequence.

    Amplitude damping (t1, T1) then phase damping (t2, T2) on the primary
    qubit of a|00> + b|11>; populations obey
    <00|rho_f|00> + <01|rho_f|01> = 1 - exp(-t1/T1) (1 - |a|^2) and the
    entangled coherence is <00|rho_f|11> = exp(-t'/(2 T2')) a b*.
    """
    rho = ops.projector(dcqd.build_input_state(_pair_config(alpha, beta), check=False))
    sequence = channels.compose(
        channels.amplitude_damping(t=t1, T1=T1),
        channels.phase_damping(t=t2, T2=T2),
    )
    return channels.apply_channel(sequence, rho, ancilla_dim=2)


def estimate_T1(p_minus: float, t1: float, rho_in: np.ndarray) -> float:
    """Invert the stabilizer -1 probability of the damped pair for T1.

    `rho_in` is the two-qubit input state (used for <Z^A>).  p_minus = 0
    means no decay and returns math.inf.
    """
    if t1 <= 0:
        raise InvalidStateError(f"t1 must be positive to resolve T1, got {t1!r}")
    z_in = ops.expectation(np.asarray(rho_in, dtype=complex), np.kron(ops.PAULI_Z, ops.IDENTITY_2)).real
    if abs(1.0 - z_in) < 1e-12:
        raise IllPosedInputError("<Z^A> = 1 on the input (beta = 0); T1 leaves no signature")
    if p_minus < -1e-12:
        raise InconsistentDataError(f"negative probability {p_minus!r}")
    gamma = 2.0 * max(p_minus, 0.0) / (1.0 - z_in)
    if gamma > 1.0 + 1e-12:
        raise InconsistentDataError(
            f"stabilizer -1 probability {p_minus!r} exceeds the reachable maximum "
            f"{(1.0 - z_in) / 2.0!r}"
        )
    if gamma <= 0.0:
        return math.inf
    if gamma >= 1.0 - 1e-12:
        raise SaturationError(
            "damping saturated (ln argument 0); t1 too long to resolve T1"
        )
    return -t1 / math.log1p(-gamma)


def estimate_T2(
    x_expect_out: float, x_expect_in: float, t1: float, t2: float, T1: float
) -> tuple[float, float]:
    """Invert the normalizer decay for (t'/T2', T2), given T1.

    The ratio of output to input X^A X^B expectations must lie in (0, 1];
    ratio 1 (no dephasing beyond the amplitude damping) gives T2 = inf.
    """
    if abs(x_expect_in) < 1e-12:
        raise IllPosedInputError(
            "<X^A X^B> vanishes on the input (Re(alpha beta*) = 0); T2 leaves no signature"
        )
    ratio = x_expect_out / x_expect_in
    if ratio <= 0.0:
        raise InconsistentDataError(f"expectation ratio {ratio!r} outside (0, 1]")
    if ratio > 1.0 + 1e-9:
        raise InconsistentDataError(f"expectation ratio {ratio!r} exceeds 1")
    ratio = min(ratio, 1.0)
    t_prime = -2.0 * math.log(ratio)
    ad_part = 0.0 if math.isinf(T1) else t1 / T1
    denom = t_prime - ad_part
    if t2 <= 0 or denom <= 1e-15:
        return t_prime, math.inf
    return t_prime, t2 / denom


def joint_estimate(
    channel,
    alpha: complex,
    beta: complex,
    t1: float,
    t2: float,
    shots: Optional[int] = None,
    seed=None,
) -> RelaxEstimate:
    """Estimate T1 and T2 from one Bell-state measurement of the damped pair.

    Runs the given channel (in simulation the amplitude+phase damping
    sequence under test) on the primary half of a|00> + b|11> and measures
    the canonical Bell projectors once.  Both the stabilizer -1 probability
    and the normalizer expectation are read off that single outcome
    distribution (or, with `shots`, a single counts table).
    """
    config = _pair_config(alpha, beta)
    psi = dcqd.build_input_state(config, check=False)
    q = dcqd.outcome_probabilities(channel, config).probabilities
    if shots is not None:
        q = sampling.empirical_frequencies(sampling.sample_counts(q, shots, seed))
    p_minus = float(q[1] + q[2])
    x_out = float(q[0] + q[1] - q[2] - q[3])
    x_in = 2.0 * (alpha * beta.conjugate()).real
    T1 = estimate_T1(p_minus, t1, ops.projector(psi))
    t_prime, T2 = estimate_T2(x_out, x_in, t1, t2, T1)
    return RelaxEstimate(
        T1=T1,
        t_prime_over_T2_prime=t_prime,
        T2=T2,
        alpha=complex(alpha),
        beta=complex(beta),
        t1=float(t1),
        t2=float(t2),
    )
