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

This module only estimates.  The outcome distribution is the coh_z
configuration of the per-pair scheme (`dcqd.setting_scheme`, rows 4..7 of
A1), measured from the channel's chi by `sampling.measure`: exact, or with
shots drawn by the one sampler (`sampling.sample`: the one configuration
row with child 0 of `SeedSequence(seed)`).  The input factors <Z^A>_in and
<X^A X^B>_in come from `dcqd.input_pair_expectations`; no state is
simulated here.  Real amplitudes are fine (only <Z^A>_in != 1 and
Re(a b*) != 0 are needed), unlike the full coherence protocol in `dcqd`,
so the amplitudes get only `dcqd._check_amplitudes` (finite, normalized
numbers, not bools).  Non-finite
data and data that are not real numbers raise `InconsistentDataError`;
durations and T1 that are not real numbers in range (NaN included) raise
`InvalidStateError`.  Zero decay is a legitimate limit and is reported as
an infinite time constant rather than an error, and T1 = inf means no
amplitude damping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import channels, dcqd, sampling
from .exceptions import (
    IllPosedInputError,
    InconsistentDataError,
    InvalidStateError,
    SaturationError,
)
from .ops import is_real

__all__ = [
    "RelaxEstimate",
    "estimate_T1",
    "estimate_T2",
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


def estimate_T1(p_minus: float, t1: float, alpha: complex, beta: complex) -> float:
    """Invert the stabilizer -1 probability of the damped pair for T1.

    alpha, beta are the input amplitudes; only <Z^A>_in = |alpha|^2 - |beta|^2
    enters (`dcqd.input_pair_expectations`, whose amplitude check raises
    `InvalidConfigurationError`).  p_minus = 0 means no decay and returns
    math.inf.  t1 must be positive and finite (`InvalidStateError`), and
    p_minus a finite real number (`InconsistentDataError`).
    """
    # written so that NaN fails too
    if not (is_real(t1) and 0 < t1 < math.inf):
        raise InvalidStateError(f"t1 must be positive and finite to resolve T1, got {t1!r}")
    z_in = dcqd.input_pair_expectations(alpha, beta)["stabilizer_bias"]
    if abs(1.0 - z_in) < dcqd.FACTOR_TOL:
        raise IllPosedInputError("<Z^A> = 1 on the input (beta = 0); T1 leaves no signature")
    if not (is_real(p_minus) and math.isfinite(p_minus)):
        raise InconsistentDataError(
            f"stabilizer -1 probability must be finite, got {p_minus!r:.80}"
        )
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
    ratio 1 (no dephasing beyond the amplitude damping) gives T2 = inf, as
    does t2 = 0.  The durations t1 and t2 must be finite and non-negative
    and T1 positive, inf (no amplitude damping) included, or
    `InvalidStateError` is raised; the expectations must be finite real
    numbers (`InconsistentDataError`).
    """
    # written so that NaN fails too; T1 = inf means no amplitude damping
    if not (is_real(t2) and 0 <= t2 < math.inf):
        raise InvalidStateError(f"t2 must be finite and non-negative, got {t2!r:.80}")
    if not (is_real(t1) and 0 <= t1 < math.inf):
        raise InvalidStateError(f"t1 must be finite and non-negative, got {t1!r:.80}")
    if not (is_real(T1) and T1 > 0):
        raise InvalidStateError(f"T1 must be positive, got {T1!r:.80}")
    if not all(is_real(x) and math.isfinite(x) for x in (x_expect_out, x_expect_in)):
        raise InconsistentDataError(
            f"expectations must be finite, got {x_expect_out!r:.80} and {x_expect_in!r:.80}"
        )
    if abs(x_expect_in) < dcqd.FACTOR_TOL:
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
    if t2 == 0 or denom <= 1e-15:
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
    distribution (or, with `shots`, a single configuration's frequencies),
    both from `sampling.measure` on the coh_z scheme, which checks `seed`
    like `sampling.sample`'s with or without `shots`; with `shots` the seed
    is checked first, then the shot count, then the data.
    """
    x_in = dcqd.input_pair_expectations(alpha, beta)["normalizer"]
    alpha, beta = complex(alpha), complex(beta)  # numbers, as that call checked
    scheme = dcqd.setting_scheme(dcqd.COH_Z, alpha, beta)
    q = sampling.measure(scheme, channels.as_chi(channel, 1), shots, seed)
    p_minus = float(q[1] + q[2])
    x_out = float(q[0] + q[1] - q[2] - q[3])
    T1 = estimate_T1(p_minus, t1, alpha, beta)
    t_prime, T2 = estimate_T2(x_out, x_in, t1, t2, T1)
    return RelaxEstimate(
        T1=T1,
        t_prime_over_T2_prime=t_prime,
        T2=T2,
        alpha=alpha,
        beta=beta,
        t1=float(t1),
        t2=float(t2),
    )
