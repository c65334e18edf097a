"""Finite-shot statistics and the partial Bell-analyzer measurement model.

Sampling is multinomial per configuration, driven by one documented seed:
`sample(scheme, data, shots, seed)` checks the whole array once
(`_cell_probabilities`), spawns `numpy.random.SeedSequence(seed)` once per
configuration and draws row c of the configuration layout
(`inversion.unpair_axes`) with child c, so runs are bit-identical for a
given seed and independent across configurations.  Reconstruction from
sampled frequencies is the same raw linear inversion as the exact path
(`dcqd._solve`); no renormalization and no positivity repair is applied,
so negative chi eigenvalues at finite shots are reported, not hidden.

The optics model captures a linear-optics Bell analyzer that can only
resolve two of the four Bell states and reports the other two as a single
merged symbol.  It is a merge matrix G on the four outcome rows of each
setting.  Merged outcomes make a single configuration's design rank
deficient; measuring the complementary analyzer setting as well (swapping
which pair is resolved) restores full rank at twice the configuration
count per pair.  The analyzer is then a scheme of its own, 8 (setting,
analyzer) settings x 3 outcomes: its design is `_MERGE @ A1`, `_MERGE` the
block-diagonal [G; G_complement] of each setting (rows 6s..6s+5), built
once per DCQD pair scheme, and its data on n pairs are the DCQD data
merged the same way along every pair axis, 8**n configurations.  Those
data, 24**n entries, outgrow chi's 16**n, so the scheme's data bound
(`inversion.Scheme.check_pairs`) admits n = 1..4.
`apply_optics_model(probabilities, model)` merges one pair's
probabilities."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dcqd, inversion
from .exceptions import (
    DimensionMismatchError,
    InvalidConfigurationError,
    InvalidDistributionError,
)
from .ops import BELL_LABELS, is_integer

__all__ = [
    "CountsTable",
    "OpticsModel",
    "SampledMetrics",
    "apply_optics_model",
    "characterize_sampled",
    "characterize_with_optics",
    "empirical_frequencies",
    "sample",
    "sample_counts",
]


# Largest shot count numpy's multinomial sampler takes (an int64).
MAX_SHOTS = 2**63 - 1


def _checked_seed(seed, generator_ok: bool = False):
    """`seed` if it is None, a non-negative integer (not a bool), a SeedSequence
    or, when `generator_ok`, a Generator; anything else raises
    `InvalidDistributionError`."""
    if (
        seed is None
        or isinstance(seed, np.random.SeedSequence)
        or (generator_ok and isinstance(seed, np.random.Generator))
        or (is_integer(seed) and seed >= 0)
    ):
        return seed
    raise InvalidDistributionError(
        f"seed must be None, a non-negative integer or a SeedSequence, got {seed!r}"
    )


def _seed_sequence(seed) -> np.random.SeedSequence:
    seed = _checked_seed(seed)
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass
class CountsTable:
    """Multinomial counts over the outcomes of one probability vector.

    For trace-decreasing channels a trial can produce no outcome at all;
    those trials land in `lost`, so counts.sum() + lost == shots always
    holds (lost == 0 for trace-preserving channels).
    """

    shots: int
    counts: np.ndarray
    lost: int = 0


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
        raise InvalidDistributionError(f"outcome probabilities sum to {total[first]!r} > 1")
    rows = np.clip(rows, 0.0, None)
    pvals = np.column_stack([rows, np.maximum(0.0, 1.0 - rows.sum(axis=1))])
    pvals /= pvals.sum(axis=1, keepdims=True)
    return pvals


def sample_counts(probabilities, shots: int, seed=None) -> CountsTable:
    """Draw a multinomial sample from a vector of outcome probabilities.

    `seed` is None, a non-negative integer, a SeedSequence or a Generator;
    identical seeds give identical counts.  `shots` must be an integer in
    1..`MAX_SHOTS`, the probabilities must pass `_cell_probabilities` and
    the seed must be one of those, or `InvalidDistributionError` is raised.
    """
    _checked_shots(shots)
    q = dcqd._real_data(probabilities)
    if q.ndim != 1 or not q.size:
        raise DimensionMismatchError(f"expected a non-empty probability vector, got shape {q.shape}")
    (pvals,) = _cell_probabilities(q[None])
    rng = np.random.default_rng(_checked_seed(seed, generator_ok=True))
    drawn = rng.multinomial(shots, pvals)
    return CountsTable(shots=shots, counts=drawn[:-1], lost=int(drawn[-1]))


def empirical_frequencies(table: CountsTable) -> np.ndarray:
    """Unbiased frequency estimates of the outcome probabilities.

    Divides by the full shot count (not by detected events), so for
    trace-decreasing channels the frequencies estimate the sub-normalized
    probabilities directly.
    """
    return table.counts / table.shots


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
) -> tuple[dcqd.ReconstructionResult, SampledMetrics]:
    """Full reconstruction from `shots` samples per configuration.

    Returns the reconstruction (raw linear inversion of the empirical
    frequencies) together with its Frobenius distance from the exact
    process matrix of the channel.
    """
    scheme, chi_true, data = dcqd._experiment(channel, n, alpha, beta)
    result = dcqd._solve(scheme, sample(scheme, data, shots, seed))
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
    whose first bad row raises what `sample_counts` raises for it.
    """
    parent = _seed_sequence(seed)
    _checked_shots(shots)
    q = dcqd._real_data(data)
    n, digits = scheme._pairs(q), (scheme.settings, scheme.outcomes)
    pvals = _cell_probabilities(inversion.unpair_axes(q, n, digits))
    children = parent.spawn(len(pvals))
    drawn = np.array([np.random.default_rng(c).multinomial(shots, p) for p, c in zip(pvals, children)])
    return inversion.pair_axes(drawn[:, :-1] / shots, n, digits)


# ---------------------------------------------------------------------------
# Partial Bell-state analyzer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpticsModel:
    """Which Bell-type outcomes an analyzer resolves vs reports merged.

    Outcome indices follow the Bell order (phi+, psi+, psi-, phi-).  The
    default models a standard two-photon interferometric analyzer: the psi
    pair is resolved, the phi pair produces one indistinguishable symbol.
    A model acts on one pair; the optics scheme puts the default model and
    its complement on every pair.  The two groups are
    stored as tuples of integers (`ops.is_integer`) that partition 0..3,
    with a non-empty merged group; anything else raises
    `InvalidDistributionError`.
    """

    resolved: tuple[int, ...] = (1, 2)
    merged: tuple[int, ...] = (0, 3)

    def __post_init__(self):
        try:
            resolved, merged = tuple(self.resolved), tuple(self.merged)
        except TypeError:  # not two iterables
            resolved = merged = ()
        combined = resolved + merged
        if not (merged and all(map(is_integer, combined)) and sorted(combined) == [0, 1, 2, 3]):
            raise InvalidDistributionError(
                f"resolved {self.resolved!r} and merged {self.merged!r} must partition 0..3 "
                "into integers, with a non-empty merged group"
            )
        object.__setattr__(self, "resolved", resolved)
        object.__setattr__(self, "merged", merged)

    def complement(self) -> "OpticsModel":
        """The analyzer setting with the two outcome groups swapped."""
        return OpticsModel(resolved=self.merged, merged=self.resolved)

    def groups(self) -> list[tuple[int, ...]]:
        """Outcome groups in canonical order (by smallest member index)."""
        out = [tuple(sorted(self.merged))] + [(i,) for i in self.resolved]
        return sorted(out, key=lambda g: g[0])

    def labels(self) -> list[str]:
        return ["/".join(BELL_LABELS[i] for i in g) for g in self.groups()]

    @property
    def merge_matrix(self) -> np.ndarray:
        """G[g, k] = 1 when outcome k belongs to group g of `groups()`, else 0."""
        return np.array([[float(k in g) for k in range(4)] for g in self.groups()])


def apply_optics_model(probabilities, model: OpticsModel) -> dict[str, float]:
    """Merge a pair's 4 outcome probabilities that the analyzer cannot tell apart.

    The merged values are the raw sums, so total mass is preserved exactly.
    Probabilities that are complex or fail `_cell_probabilities` raise
    `InvalidDistributionError`, and a model that is not an `OpticsModel`
    raises `InvalidConfigurationError`.
    """
    if not isinstance(model, OpticsModel):
        raise InvalidConfigurationError(f"model must be an OpticsModel, got {model!r}")
    q = dcqd._real_data(probabilities)
    if q.shape != (4,):
        raise DimensionMismatchError("optics model is defined per pair (n = 1)")
    _cell_probabilities(q[None])
    return dict(zip(model.labels(), map(float, model.merge_matrix @ q)))


# [G; G_complement] of the default analyzer for each setting: rows (setting,
# analyzer, group), columns (setting, outcome)
_MERGE = np.kron(
    np.eye(4), np.vstack([m.merge_matrix for m in (OpticsModel(), OpticsModel().complement())])
)


@functools.lru_cache(maxsize=32)
def _optics_scheme(pair: inversion.Scheme) -> inversion.Scheme:
    """The analyzer's scheme on a DCQD pair scheme: 8 (setting, analyzer) settings x 3 groups.

    Its inputs are the pair's, each read by both analyzers.
    """
    return inversion.Scheme(_MERGE @ pair.design, 3, pair.inputs)


def characterize_with_optics(
    channel,
    alpha: complex = dcqd.DEFAULT_ALPHA,
    beta: complex = dcqd.DEFAULT_BETA,
    shots: Optional[int] = None,
    seed=None,
    n: int = 1,
) -> dcqd.ReconstructionResult:
    """Reconstruction of n qubits through a partial Bell analyzer on every pair.

    Every setting of a pair is measured twice, once with the default
    `OpticsModel` and once with its complement, so the configuration count
    grows from 4**n to 8**n while full rank is recovered.  With `shots` set,
    each configuration is sampled independently (`sample`).  The merge acts
    on the DCQD data along every pair axis, so each merged probability is
    the sum of its terms.  The amplitudes' finiteness and norm are checked
    first, then n against the scheme's data bound (`check_pairs`: n = 1..4),
    before the channel is looked at.
    """
    scheme = _optics_scheme(dcqd.pair_scheme(alpha, beta))
    scheme.check_pairs(n)
    _, _, q = dcqd._experiment(channel, n, alpha, beta)
    data = inversion.per_pair(q, [_MERGE] * n)
    if shots is None:
        _checked_seed(seed)
    else:
        data = sample(scheme, data, shots, seed)
    return dcqd._solve(scheme, data)
