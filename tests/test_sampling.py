import math

import numpy as np
import pytest

from conftest import optics_lstsq_oracle
from dcqdlab import channels, dcqd, sampling
from dcqdlab.exceptions import (
    DimensionMismatchError,
    InvalidConfigurationError,
    InvalidDistributionError,
)


class TestSampleCounts:
    def test_deterministic_distribution(self):
        table = sampling.sample_counts([1, 0, 0, 0], shots=1000, seed=3)
        assert np.array_equal(table.counts, [1000, 0, 0, 0])
        assert table.lost == 0

    def test_same_seed_same_counts(self):
        a = sampling.sample_counts([0.4, 0.3, 0.2, 0.1], shots=5000, seed=11)
        b = sampling.sample_counts([0.4, 0.3, 0.2, 0.1], shots=5000, seed=11)
        assert np.array_equal(a.counts, b.counts)

    def test_binomial_concentration(self):
        # 5 sigma band around p = 0.75 at 10^6 shots: sigma = sqrt(pq/N)
        shots = 10**6
        table = sampling.sample_counts([0.75, 0.25, 0, 0], shots=shots, seed=123)
        sigma = math.sqrt(0.75 * 0.25 / shots)
        assert abs(table.counts[0] / shots - 0.75) < 5 * sigma

    def test_counts_conserved(self):
        table = sampling.sample_counts([0.4, 0.3, 0.2, 0.1], shots=777, seed=5)
        assert table.counts.sum() + table.lost == 777

    def test_subnormalized_mass_goes_to_lost(self):
        table = sampling.sample_counts([0.25, 0.25, 0, 0], shots=10**5, seed=9)
        assert table.counts.sum() + table.lost == 10**5
        assert abs(table.lost / 10**5 - 0.5) < 0.01

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistributionError):
            sampling.sample_counts([0.5, 0.6, -0.1, 0], shots=10, seed=0)

    def test_excess_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            sampling.sample_counts([0.5, 0.6, 0, 0], shots=10, seed=0)

    def test_tiny_negative_clipped(self):
        table = sampling.sample_counts([1.0, -1e-14, 0, 0], shots=100, seed=0)
        assert table.counts[0] == 100

    def test_hoeffding_band(self):
        # max_k |qhat_k - q_k| < 5 sqrt(ln(8/delta) / 2N) with delta = 0.01
        q = np.array([0.4, 0.3, 0.2, 0.1])
        shots = 20000
        bound = 5 * math.sqrt(math.log(8 / 0.01) / (2 * shots))
        for seed in range(10):
            table = sampling.sample_counts(q, shots=shots, seed=seed)
            assert np.max(np.abs(table.counts / shots - q)) < bound

    @pytest.mark.parametrize("shape", [(2, 2), (0,), ()])
    def test_needs_probability_vector(self, shape):
        with pytest.raises(DimensionMismatchError):
            sampling.sample_counts(np.full(shape, 0.25), shots=10, seed=0)


class TestCharacterizeSampled:
    def test_seeded_runs_identical(self):
        kraus = channels.amplitude_damping(gamma=0.35)
        r1, m1 = sampling.characterize_sampled(kraus, shots=2000, seed=42)
        r2, m2 = sampling.characterize_sampled(kraus, shots=2000, seed=42)
        assert np.array_equal(r1.chi, r2.chi)
        assert m1.frobenius_error == m2.frobenius_error

    @pytest.mark.parametrize("n", [1, 2])
    def test_seeding_contract(self, n, rng):
        # row c of the probability array is drawn with child c of SeedSequence(seed)
        kraus = channels.random_channel(n, trace_preserving=False, rng=rng)
        shots, seed = 3000, 17
        probs = dcqd.all_outcome_probabilities(kraus, n)
        children = np.random.SeedSequence(seed).spawn(4**n)
        freqs = []
        for q, child in zip(probs, children):
            q = np.clip(q, 0.0, None)
            pvals = np.append(q, max(0.0, 1.0 - q.sum()))
            counts = np.random.default_rng(child).multinomial(shots, pvals / pvals.sum())
            freqs.append(counts[:-1] / shots)
        want = dcqd.reconstruct_from_probabilities(freqs).chi
        result, _ = sampling.characterize_sampled(kraus, n, shots=shots, seed=seed)
        assert np.array_equal(result.chi, want)

    def test_bit_flip_population_accuracy(self):
        result, _ = sampling.characterize_sampled(channels.bit_flip(0.25), shots=10**5, seed=7)
        assert abs(result.chi[1, 1].real - 0.25) < 0.01

    def test_error_shrinks_with_shots(self):
        kraus = channels.amplitude_damping(gamma=0.35)
        errs = {
            shots: np.median(
                [
                    sampling.characterize_sampled(kraus, shots=shots, seed=seed)[1].frobenius_error
                    for seed in range(5)
                ]
            )
            for shots in (10**3, 10**5)
        }
        assert errs[10**5] < errs[10**3] / 3

    def test_register_size_guard(self, monkeypatch):
        # same bound as the exact path, checked before the channel is expanded
        def untouched(*args, **kwargs):
            raise AssertionError("channel expanded before the size check")

        monkeypatch.setattr(channels, "as_kraus", untouched)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            sampling.characterize_sampled(channels.identity_channel(), n=6, shots=10, seed=0)

    def test_rejects_non_finite_amplitudes(self):
        with pytest.raises(InvalidConfigurationError, match="finite"):
            sampling.characterize_sampled(
                channels.bit_flip(0.1), shots=10, seed=0, alpha=float("nan"), beta=0.5
            )

    def test_two_pair_sampled_reconstruction(self, rng):
        kraus = channels.random_channel(2, trace_preserving=True, rng=rng)
        result, metrics = sampling.characterize_sampled(kraus, n=2, shots=10**6, seed=5)
        assert result.design_rank == 256
        assert metrics.frobenius_error < 40 / math.sqrt(10**6)

    def test_no_renormalization_for_subnormalized_maps(self, rng):
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        chi_true = channels.chi_from_kraus(kraus)
        result, metrics = sampling.characterize_sampled(kraus, shots=10**6, seed=1)
        assert abs(np.trace(result.chi).real - np.trace(chi_true).real) < 0.01
        assert metrics.frobenius_error < 0.05


class TestOpticsModel:
    def test_default_partition(self):
        model = sampling.OpticsModel()
        assert set(model.resolved) == {1, 2}
        assert set(model.merged) == {0, 3}
        assert model.complement().resolved == model.merged

    def test_bad_partition_rejected(self):
        with pytest.raises(InvalidDistributionError):
            sampling.OpticsModel(resolved=(1, 2), merged=(2, 3))

    def test_merging_example(self):
        dist = dcqd.OutcomeDistribution(
            dcqd.Configuration(settings=(dcqd.POP,)), np.array([0.75, 0.25, 0, 0])
        )
        merged = sampling.apply_optics_model(dist, sampling.OpticsModel())
        assert merged == {"phi+/phi-": 0.75, "psi+": 0.25, "psi-": 0.0}

    def test_mass_preserved(self, rng):
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        for config in dcqd.all_configurations(1):
            dist = dcqd.outcome_probabilities(kraus, config)
            merged = sampling.apply_optics_model(dist, sampling.OpticsModel())
            assert sum(merged.values()) == pytest.approx(dist.probabilities.sum(), abs=1e-12)

    def test_pop_rank_deficient_then_restored(self):
        pop = dcqd.all_configurations(1)[0]
        model = sampling.OpticsModel()
        single = sampling.merged_design_matrix(pop, [model])
        both = sampling.merged_design_matrix(pop, [model, model.complement()])
        assert np.linalg.matrix_rank(single) == 3
        assert np.linalg.matrix_rank(both) == 4

    def test_full_configuration_set_rank_restored(self):
        model = sampling.OpticsModel()
        single = np.vstack(
            [sampling.merged_design_matrix(c, [model]) for c in dcqd.all_configurations(1)]
        )
        both = np.vstack(
            [
                sampling.merged_design_matrix(c, [model, model.complement()])
                for c in dcqd.all_configurations(1)
            ]
        )
        assert np.linalg.matrix_rank(single) < 16
        assert np.linalg.matrix_rank(both) == 16

    def test_characterize_with_optics_exact(self, rng):
        kraus = channels.random_channel(1, trace_preserving=True, rng=rng)
        chi_true = channels.chi_from_kraus(kraus)
        result = sampling.characterize_with_optics(kraus)
        assert np.linalg.norm(result.chi - chi_true) < 1e-9
        assert result.n_configurations == 8  # doubled

    def test_merge_matrix(self):
        model = sampling.OpticsModel()
        assert model.merge_matrix.tolist() == [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
        assert model.complement().merge_matrix.tolist() == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]

    @pytest.mark.parametrize("shots", [None, 1000])
    def test_optics_matches_real_lstsq_oracle(self, shots, rng):
        # the complex least-squares solution of real data is Hermitian, so the
        # per-pair solver and a real-parameter lstsq give the same chi; the
        # seeded counts are the same too
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        for seed in range(3):
            result = sampling.characterize_with_optics(kraus, shots=shots, seed=seed)
            want = optics_lstsq_oracle(kraus, shots=shots, seed=seed)
            assert np.max(np.abs(result.chi - want)) < 1e-12
        assert result.design_rank == 16
        assert result.design_cond == pytest.approx(9.93, abs=0.01)

    def test_characterize_with_optics_sampled(self):
        result = sampling.characterize_with_optics(channels.bit_flip(0.25), shots=10**5, seed=3)
        assert abs(result.chi[1, 1].real - 0.25) < 0.02
