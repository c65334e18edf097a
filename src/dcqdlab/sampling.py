"""Finite-shot statistics and the partial Bell-analyzer reconstruction.

Sampling is multinomial per configuration, driven by one documented seed,
and `sample(scheme, data, shots, seed)` is the one sampler: it checks the
whole array once (`_cell_probabilities`), spawns
`numpy.random.SeedSequence(seed)` once per configuration and draws row c of
the configuration layout (`inversion.unpair_axes`) with child c, so runs
are bit-identical for a given seed and independent across configurations.
Every sampled path draws through it: the full experiment
(`characterize_sampled`), the partial Bell analyzer
(`characterize_with_optics`, on `dcqd.optics_scheme`) and the one coh_z
configuration of `relax.joint_estimate` (`dcqd.setting_scheme`).
`measure(scheme, chi, shots, seed)` is the one step from chi to data, exact
or drawn: `scheme.forward(chi)`, then `sample` with shots set, or the seed
check alone without; the analyzer and `relax` take their data from it.
Reconstruction from sampled frequencies is the same raw linear inversion as
the exact path (`inversion.Scheme.solve`); no renormalization and no
positivity repair is applied, so negative chi eigenvalues at finite shots
are reported, not hidden."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channels, dcqd, inversion
from .exceptions import InvalidDistributionError
from .ops import is_integer

__all__ = [
    "SampledMetrics",
    "characterize_sampled",
    "characterize_with_optics",
    "measure",
    "sample",
]


# Largest shot count numpy's multinomial sampler takes (an int64).
MAX_SHOTS = 2**63 - 1


def _checked_seed(seed):
    """`seed` if it is None, a non-negative integer (not a bool) or a
    SeedSequence; anything else, a Generator included, raises
    `InvalidDistributionError`."""
    if seed is None or isinstance(seed, np.random.SeedSequence) or (is_integer(seed) and seed >= 0):
        return seed
    raise InvalidDistributionError(
        f"seed must be None, a non-negative integer or a SeedSequence, got {seed!r}"
    )


def _seed_sequence(seed) -> np.random.SeedSequence:
    seed = _checked_seed(seed)
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _checked_shots(shots) -> None:
    if not (is_integer(shots) and 1 <= shots <= MAX_SHOTS):
        raise InvalidDistributionError(f"shots must be an integer in 1..2**63 - 1, got {shots!r}")


def _cell_probabilities(rows: np.ndarray) -> np.ndarray:
    """Each of the real `rows` clipped at 0, its lost mass appended, normalized.

    The first row with an entry below -1e-12 (or NaN) or a sum above
    1 + 1e-10 raises `InvalidDistributionError`.
    """
    lo, total = rows.min(axis=1), rows.sum(axis=1)
    # written so that NaN fails both checks, -inf the first and inf the second
    low, high = ~(lo >= -1e-12), ~(total <= 1.0 + 1e-10)
    first = np.argmax(low | high)
    if low[first]:
        raise InvalidDistributionError(f"outcome probability {lo[first]:.3e} is negative or NaN")
    if high[first]:
        raise InvalidDistributionError(f"outcome probabilities sum to {float(total[first])} > 1")
    rows = np.clip(rows, 0.0, None)
    pvals = np.column_stack([rows, np.maximum(0.0, 1.0 - rows.sum(axis=1))])
    pvals /= pvals.sum(axis=1, keepdims=True)
    return pvals


@dataclass
class SampledMetrics:
    """Error of a finite-shot reconstruction against the known ground truth."""

    shots: int
    frobenius_error: float
    max_entry_error: float


def characterize_sampled(
    channel,
    n: int = 1,
    shots: int = 10000,
    seed=None,
    alpha: complex = dcqd.DEFAULT_ALPHA,
    beta: complex = dcqd.DEFAULT_BETA,
) -> tuple[inversion.ReconstructionResult, SampledMetrics]:
    """Full reconstruction from `shots` samples per configuration.

    Returns the reconstruction (raw linear inversion of the empirical
    frequencies) together with its Frobenius distance from the exact
    process matrix of the channel.
    """
    scheme, chi_true, data = dcqd._experiment(channel, n, alpha, beta)
    result = scheme.solve(sample(scheme, data, shots, seed))
    delta = result.chi - chi_true
    return result, SampledMetrics(shots, float(np.linalg.norm(delta)), float(np.max(np.abs(delta))))


def sample(scheme: inversion.Scheme, data: np.ndarray, shots: int, seed) -> np.ndarray:
    """Empirical frequencies of `shots` draws per configuration, in the layout of `data`.

    `data` are a scheme's outcome probabilities, one axis per pair
    (`inversion.Scheme.forward`).  Row c of their configuration layout
    (`inversion.unpair_axes` with the scheme's (settings, outcomes) digits)
    is drawn with child c of `SeedSequence(seed)`, spawned once for all
    rows.  The seed is checked first, then the shot count, then the shape
    (no axis, or one that is not len(design) long, raises
    `DimensionMismatchError`), then the whole array (`_cell_probabilities`),
    whose first bad row raises `InvalidDistributionError`.
    """
    parent = _seed_sequence(seed)
    _checked_shots(shots)
    q = inversion._real_data(data)
    n, digits = scheme._pairs(q), (scheme.settings, scheme.outcomes)
    pvals = _cell_probabilities(inversion.unpair_axes(q, n, digits))
    children = parent.spawn(len(pvals))
    drawn = np.array([np.random.default_rng(c).multinomial(shots, p) for p, c in zip(pvals, children)])
    return inversion.pair_axes(drawn[:, :-1] / shots, n, digits)


def measure(scheme: inversion.Scheme, chi: np.ndarray, shots: Optional[int] = None, seed=None) -> np.ndarray:
    """A scheme's data of chi, one axis per pair: exact, or drawn with `shots` set.

    The exact data are `scheme.forward(chi)`; with `shots` set they are
    `sample(scheme, data, shots, seed)`.  The seed is checked either way
    (`_checked_seed`), after chi and its pairs (`inversion.Scheme.forward`).
    """
    data = scheme.forward(chi)
    if shots is None:
        _checked_seed(seed)
        return data
    return sample(scheme, data, shots, seed)


def characterize_with_optics(
    channel,
    alpha: complex = dcqd.DEFAULT_ALPHA,
    beta: complex = dcqd.DEFAULT_BETA,
    shots: Optional[int] = None,
    seed=None,
    n: int = 1,
) -> inversion.ReconstructionResult:
    """Reconstruction of n qubits through a partial Bell analyzer on every pair.

    Every setting of a pair is measured twice, once with the analyzer G and
    once with its complement G_c (`dcqd.optics_scheme`), so the
    configuration count grows from 4**n to 8**n while full rank is
    recovered.  The data come from `measure`: exact, or with `shots` set
    each configuration sampled independently.  The amplitudes' finiteness
    and norm are checked first, then n against the scheme's data bound
    (`check_pairs`: n = 1..4), then the amplitudes for a full experiment
    (`dcqd.validate_amplitudes`), before the channel is looked at.
    """
    scheme = dcqd.optics_scheme(alpha, beta)
    scheme.check_pairs(n)
    dcqd.validate_amplitudes(alpha, beta)
    return scheme.solve(measure(scheme, channels.as_chi(channel, n), shots, seed))
