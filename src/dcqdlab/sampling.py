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
setting's rows of A1, `merged_design_matrix(setting, models, alpha, beta)`
stacked over the four settings, and the shared solver in `inversion`
inverts it.  `apply_optics_model(probabilities, model)` merges one pair's
outcome probabilities the same way."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dcqd, inversion
from .exceptions import (
    DimensionMismatchError,
    InvalidConfigurationError,
    InvalidDistributionError,
)
from .ops import is_integer

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


def sample_counts(probabilities, shots: int, seed=None) -> CountsTable:
    """Draw a multinomial sample from a vector of outcome probabilities.

    `seed` is None, a non-negative integer, a SeedSequence or a Generator;
    identical seeds give identical counts.  `shots` must be an integer in
    1..`MAX_SHOTS`, the probabilities real and finite and the seed one of
    those, or `InvalidDistributionError` is raised.
    """
    if not (is_integer(shots) and 1 <= shots <= MAX_SHOTS):
        raise InvalidDistributionError(f"shots must be an integer in 1..2**63 - 1, got {shots!r}")
    q = dcqd._real_data(probabilities)
    if q.ndim != 1 or not q.size:
        raise DimensionMismatchError(f"expected a non-empty probability vector, got shape {q.shape}")
    lo, total = q.min(), q.sum()
    # written so that NaN fails both checks, -inf the first and inf the second
    if not lo >= -1e-12:
        raise InvalidDistributionError(f"outcome probability {lo:.3e} is negative or NaN")
    if not total <= 1.0 + 1e-10:
        raise InvalidDistributionError(f"outcome probabilities sum to {total!r} > 1")
    q = np.clip(q, 0.0, None)
    pvals = np.append(q, max(0.0, 1.0 - q.sum()))
    pvals /= pvals.sum()
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
    return _sample_and_solve(dcqd._experiment(channel, n, alpha, beta), shots, seed)


def _sample_and_solve(
    experiment: tuple[np.ndarray, np.ndarray, np.ndarray], shots: int, seed
) -> tuple[dcqd.ReconstructionResult, SampledMetrics]:
    """`characterize_sampled` of an exact experiment (A1, chi, data) of `dcqd._experiment`."""
    a1, chi_true, data = experiment
    n = data.ndim
    q = inversion.unpair_axes(data, n, 4)
    children = _seed_sequence(seed).spawn(len(q))
    freqs = np.array(
        [empirical_frequencies(sample_counts(row, shots, child)) for row, child in zip(q, children)]
    )
    result = dcqd._solve(a1, inversion.pair_axes(freqs, n, 4))
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


@dataclass(frozen=True)
class OpticsModel:
    """Which Bell-type outcomes an analyzer resolves vs reports merged.

    Outcome indices follow the Bell order (phi+, psi+, psi-, phi-).  The
    default models a standard two-photon interferometric analyzer: the psi
    pair is resolved, the phi pair produces one indistinguishable symbol.
    Defined for single-pair (n = 1) configurations.
    """

    resolved: tuple[int, ...] = (1, 2)
    merged: tuple[int, ...] = (0, 3)

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


def apply_optics_model(probabilities, model: OpticsModel) -> dict[str, float]:
    """Merge a pair's 4 outcome probabilities that the analyzer cannot tell apart.

    Total probability mass is preserved exactly; only the resolution drops.
    Complex probabilities raise `InvalidDistributionError`.
    """
    q = dcqd._real_data(probabilities)
    if q.shape != (4,):
        raise DimensionMismatchError("optics model is defined per pair (n = 1)")
    return dict(zip(model.labels(), map(float, model.merge_matrix @ q)))


def merged_design_matrix(
    setting: str,
    models: Sequence[OpticsModel],
    alpha: complex = dcqd.DEFAULT_ALPHA,
    beta: complex = dcqd.DEFAULT_BETA,
) -> np.ndarray:
    """Stacked complex design matrix of one setting under analyzer models.

    One model per analyzer setting; each contributes its merged rows G @ A,
    A the 4 rows of A1 (`dcqd.pair_design`) that belong to the setting.
    `characterize_with_optics` stacks these for its design.  Rank analysis
    of this matrix quantifies what a partial Bell analyzer can and cannot
    reconstruct.  `models` must be a non-empty sequence of `OpticsModel`s,
    or `InvalidConfigurationError` is raised.
    """
    if setting not in dcqd.SETTINGS:
        raise InvalidConfigurationError(f"unknown setting {setting!r}; valid: {dcqd.SETTINGS}")
    if not models or not all(isinstance(m, OpticsModel) for m in models):
        raise InvalidConfigurationError(
            f"models must be a non-empty sequence of OpticsModel, got {models!r}"
        )
    a1 = dcqd.pair_design(alpha, beta).reshape(4, 4, 16)
    base = a1[dcqd.SETTINGS.index(setting)]
    return np.vstack([model.merge_matrix @ base for model in models])


def characterize_with_optics(
    channel,
    alpha: complex = dcqd.DEFAULT_ALPHA,
    beta: complex = dcqd.DEFAULT_BETA,
    shots: Optional[int] = None,
    seed=None,
) -> dcqd.ReconstructionResult:
    """Single-qubit reconstruction through a partial Bell analyzer.

    Every configuration is measured twice, once with the default
    `OpticsModel` and once with its complement, so the experiment count
    doubles to 2 * 4 while full rank is recovered.  With `shots` set, each
    analyzer setting is sampled independently.
    """
    model = OpticsModel()
    models = [model, model.complement()]
    merges = [m.merge_matrix for m in models]
    _, _, data = dcqd._experiment(channel, 1, alpha, beta)
    q = data.reshape(4, 4)
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
    design = np.vstack([merged_design_matrix(s, models, alpha, beta) for s in dcqd.SETTINGS])
    chi, cond = inversion.solve(design, np.concatenate(values))
    return dcqd.ReconstructionResult(
        chi=chi,
        n_qubits=1,
        n_configurations=len(values),
        design_rank=16,
        design_cond=cond,
    )
