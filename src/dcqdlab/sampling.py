"""Finite-shot statistics and the partial Bell-analyzer measurement model.

Sampling is multinomial per configuration, driven by one documented seed:
`numpy.random.SeedSequence(seed)` is spawned once per configuration and
child c draws row c of the probability array, so runs are bit-identical
for a given seed and independent across configurations.  Reconstruction
from sampled frequencies is the same raw linear inversion as the exact
path; no renormalization and no positivity repair is applied, so negative
chi eigenvalues at finite shots are reported, not hidden.

The optics model captures a linear-optics Bell analyzer that can only
resolve two of the four Bell states and reports the other two as a single
merged symbol.  It is a merge matrix G on the four outcome rows of each
setting.  Merged outcomes make a single configuration's design rank
deficient; measuring the complementary analyzer setting as well (swapping
which pair is resolved) restores full rank at twice the configuration
count.  The single-pair design is then [G; G_complement] applied to each
setting's rows of A1, and the shared solver in `inversion` inverts it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import channels, dcqd, inversion
from .exceptions import DimensionMismatchError, InvalidDistributionError

__all__ = [
    "CountsTable",
    "OpticsModel",
    "SampledMetrics",
    "apply_optics_model",
    "characterize_sampled",
    "characterize_with_optics",
    "empirical_frequencies",
    "merged_design_matrix",
    "sample_counts",
]


def _seed_sequence(seed) -> np.random.SeedSequence:
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


def sample_counts(probabilities, shots: int, seed=None) -> CountsTable:
    """Draw a multinomial sample from a vector of outcome probabilities.

    `seed` is anything `numpy.random.default_rng` accepts (int,
    SeedSequence, Generator); identical seeds give identical counts.
    """
    if shots <= 0:
        raise InvalidDistributionError(f"shots must be positive, got {shots}")
    q = np.asarray(probabilities, dtype=float)
    if q.ndim != 1 or not q.size:
        raise DimensionMismatchError(f"expected a non-empty probability vector, got shape {q.shape}")
    if q.min() < -1e-12:
        raise InvalidDistributionError(f"negative outcome probability {q.min():.3e}")
    total = q.sum()
    if total > 1.0 + 1e-10:
        raise InvalidDistributionError(f"outcome probabilities sum to {total!r} > 1")
    q = np.clip(q, 0.0, None)
    pvals = np.append(q, max(0.0, 1.0 - q.sum()))
    pvals /= pvals.sum()
    rng = np.random.default_rng(seed)
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
    q = dcqd.all_outcome_probabilities(channel, n, alpha, beta)
    children = _seed_sequence(seed).spawn(len(q))
    freqs = [
        empirical_frequencies(sample_counts(row, shots, child))
        for row, child in zip(q, children)
    ]
    result = dcqd.reconstruct_from_probabilities(freqs, alpha, beta)
    chi_true = channels.chi_from_kraus(channels.as_kraus(channel, n))
    delta = result.chi - chi_true
    metrics = SampledMetrics(
        shots=shots,
        frobenius_error=float(np.linalg.norm(delta)),
        max_entry_error=float(np.max(np.abs(delta))),
    )
    return result, metrics


# ---------------------------------------------------------------------------
# Partial Bell-state analyzer
# ---------------------------------------------------------------------------


def _default_resolved() -> tuple[int, ...]:
    return (1, 2)


def _default_merged() -> tuple[int, ...]:
    return (0, 3)


@dataclass(frozen=True)
class OpticsModel:
    """Which Bell-type outcomes an analyzer resolves vs reports merged.

    Outcome indices follow the Bell order (phi+, psi+, psi-, phi-).  The
    default models a standard two-photon interferometric analyzer: the psi
    pair is resolved, the phi pair produces one indistinguishable symbol.
    Defined for single-pair (n = 1) configurations.
    """

    resolved: tuple[int, ...] = field(default_factory=_default_resolved)
    merged: tuple[int, ...] = field(default_factory=_default_merged)

    def __post_init__(self):
        combined = sorted(self.resolved + self.merged)
        if combined != [0, 1, 2, 3]:
            raise InvalidDistributionError(
                f"resolved {self.resolved} and merged {self.merged} must partition 0..3"
            )

    def complement(self) -> "OpticsModel":
        """The analyzer setting with the two outcome groups swapped."""
        return OpticsModel(resolved=self.merged, merged=self.resolved)

    def groups(self) -> list[tuple[int, ...]]:
        """Outcome groups in canonical order (by smallest member index)."""
        out = [tuple(sorted(self.merged))] + [(i,) for i in self.resolved]
        return sorted(out, key=lambda g: g[0])

    def labels(self) -> list[str]:
        from .ops import BELL_LABELS

        return ["/".join(BELL_LABELS[i] for i in g) for g in self.groups()]

    @property
    def merge_matrix(self) -> np.ndarray:
        """G[g, k] = 1 when outcome k belongs to group g of `groups()`, else 0."""
        return np.array([[float(k in g) for k in range(4)] for g in self.groups()])


def apply_optics_model(dist: dcqd.OutcomeDistribution, model: OpticsModel) -> dict[str, float]:
    """Merge outcome probabilities the analyzer cannot tell apart.

    Total probability mass is preserved exactly; only the resolution drops.
    """
    q = np.asarray(dist.probabilities, dtype=float)
    if q.shape != (4,):
        raise DimensionMismatchError("optics model is defined per pair (n = 1)")
    return dict(zip(model.labels(), map(float, model.merge_matrix @ q)))


def merged_design_matrix(
    config: dcqd.Configuration, models: Sequence[OpticsModel]
) -> np.ndarray:
    """Stacked complex design matrix of one configuration under analyzer models.

    One model per analyzer setting; each contributes its merged rows G @ A.
    Rank analysis of this matrix quantifies what a partial Bell analyzer can
    and cannot reconstruct.
    """
    if config.n != 1:
        raise DimensionMismatchError("optics model is defined per pair (n = 1)")
    base = dcqd.design_matrix(config)
    return np.vstack([model.merge_matrix @ base for model in models])


def characterize_with_optics(
    channel,
    alpha: complex = dcqd.DEFAULT_ALPHA,
    beta: complex = dcqd.DEFAULT_BETA,
    shots: Optional[int] = None,
    seed=None,
    model: Optional[OpticsModel] = None,
) -> dcqd.ReconstructionResult:
    """Single-qubit reconstruction through a partial Bell analyzer.

    Every configuration is measured twice, once with the base analyzer
    setting and once with its complement, so the experiment count doubles
    to 2 * 4 while full rank is recovered.  With `shots` set, each analyzer
    setting is sampled independently.
    """
    model = model if model is not None else OpticsModel()
    merges = [model.merge_matrix, model.complement().merge_matrix]
    q = dcqd.all_outcome_probabilities(channel, 1, alpha, beta)
    children = _seed_sequence(seed).spawn(len(q) * len(merges))
    values = []
    for i, row in enumerate(q):
        for j, g in enumerate(merges):
            merged = g @ row
            if shots is not None:
                table = sample_counts(merged, shots, children[i * len(merges) + j])
                merged = empirical_frequencies(table)
            values.append(merged)
    # rows (setting, analyzer setting, group), matching `values`
    a1 = dcqd.pair_design(alpha, beta).reshape(len(q), 4, 16)
    design = np.vstack([g @ block for block in a1 for g in merges])
    chi, cond = inversion.solve(design, np.concatenate(values))
    return dcqd.ReconstructionResult(
        chi=chi,
        n_qubits=1,
        n_configurations=len(values),
        design_rank=16,
        design_cond=cond,
    )
