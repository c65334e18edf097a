import math

import numpy as np
import pytest

from conftest import design_matrix, optics_lstsq_oracle
from dcqdlab import channels, dcqd, inversion, relax, sampling, sqpt
from dcqdlab.exceptions import (
    DimensionMismatchError,
    InvalidConfigurationError,
    InvalidDistributionError,
)

# the partial Bell analyzer on one setting's outcomes (phi+, psi+, psi-, phi-)
# and its complement, one row per outcome group
G = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
G_C = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=float)

# one configuration row of 4 outcomes: the coh_z setting as a scheme
ONE_ROW = dcqd.setting_scheme(dcqd.COH_Z)


def draw(q, shots, seed):
    """Frequencies of `shots` draws from the outcome probabilities `q` of one row."""
    return sampling.sample(ONE_ROW, q, shots, seed)


@pytest.mark.parametrize(
    "call",
    [
        lambda q: dcqd.reconstruct_from_probabilities(q),
        lambda q: dcqd.closed_form_chi(q),
        lambda q: draw(q[1], shots=10, seed=1),
        lambda q: sampling.sample(dcqd.optics_scheme(), q, shots=10, seed=1),
        lambda q: dcqd.reconstruct_coherence(dcqd.COH_Z, q[1], q[0]),
        lambda q: sampling.sample(dcqd.pair_scheme(), np.ravel(q), shots=10, seed=1),
        lambda q: dcqd.pair_scheme().solve(q),
    ],
    # sample_counts: one configuration row (`draw`); optics: the analyzer's scheme
    ids=["reconstruct", "closed_form", "sample_counts", "optics", "coherence", "sample", "solve"],
)
def test_complex_data_rejected(call):
    # the imaginary part is not dropped: a complex array raises before the cast
    q = np.ones((4, 4)) * (1 + 1j) / 4
    with pytest.raises(InvalidDistributionError, match="real"):
        call(q)
    # the same values with a zero imaginary part are still complex data
    with pytest.raises(InvalidDistributionError, match="real"):
        call(dcqd.all_outcome_probabilities(channels.bit_flip(0.1), 1) + 0j)
    # non-numeric data raised numpy's own ValueError (or, in `solve`, its
    # UFuncTypeError, and a TypeError for an object array); numeric strings
    # are not parsed, and complex objects are complex data
    objects = np.full((4, 4), 0.25j, dtype=object)
    for bad in (np.full((4, 4), "abc"), np.full((4, 4), "0.25"), objects):
        with pytest.raises(InvalidDistributionError, match="real"):
            call(bad)


@pytest.mark.parametrize("data", ["abc", (q for q in [0.5, 0.5]), [[0.5], [0.2, 0.3]], [None, 1j]])
def test_non_numeric_counts_data_rejected(data):
    # these raised numpy's ValueError or the builtin TypeError
    with pytest.raises(InvalidDistributionError, match="real"):
        draw(data, shots=10, seed=0)


class TestSampleCounts:
    """The counts `sample` draws for one configuration row (`draw`)."""

    def test_deterministic_distribution(self):
        assert np.array_equal(draw([1, 0, 0, 0], shots=1000, seed=3), [1, 0, 0, 0])

    def test_same_seed_same_counts(self):
        a = draw([0.4, 0.3, 0.2, 0.1], shots=5000, seed=11)
        b = draw([0.4, 0.3, 0.2, 0.1], shots=5000, seed=11)
        assert np.array_equal(a, b)

    def test_binomial_concentration(self):
        # 5 sigma band around p = 0.75 at 10^6 shots: sigma = sqrt(pq/N)
        shots = 10**6
        freqs = draw([0.75, 0.25, 0, 0], shots=shots, seed=123)
        sigma = math.sqrt(0.75 * 0.25 / shots)
        assert abs(freqs[0] - 0.75) < 5 * sigma

    def test_counts_conserved(self):
        # frequencies are counts / shots, and a normalized row loses no trial
        counts = draw([0.4, 0.3, 0.2, 0.1], shots=777, seed=5) * 777
        assert np.max(np.abs(counts - np.rint(counts))) < 1e-9
        assert np.rint(counts).sum() == 777

    def test_subnormalized_mass_goes_to_lost(self):
        # frequencies divide by every shot, so the lost half stays lost
        freqs = draw([0.25, 0.25, 0, 0], shots=10**5, seed=9)
        assert abs(freqs.sum() - 0.5) < 0.01

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistributionError):
            draw([0.5, 0.6, -0.1, 0], shots=10, seed=0)

    def test_excess_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            draw([0.5, 0.6, 0, 0], shots=10, seed=0)

    def test_tiny_negative_clipped(self):
        assert np.array_equal(draw([1.0, -1e-14, 0, 0], shots=100, seed=0), [1, 0, 0, 0])

    def test_hoeffding_band(self):
        # max_k |qhat_k - q_k| < 5 sqrt(ln(8/delta) / 2N) with delta = 0.01
        q = np.array([0.4, 0.3, 0.2, 0.1])
        shots = 20000
        bound = 5 * math.sqrt(math.log(8 / 0.01) / (2 * shots))
        for seed in range(10):
            assert np.max(np.abs(draw(q, shots=shots, seed=seed) - q)) < bound

    @pytest.mark.parametrize(
        "probs", [[math.nan, 0.5, 0, 0], [math.inf, 0.0, 0, 0], [0.5, -math.inf, 0, 0]]
    )
    def test_non_finite_probability_rejected(self, probs):
        with pytest.raises(InvalidDistributionError, match="NaN| > 1"):
            draw(probs, shots=10, seed=0)

    @pytest.mark.parametrize(
        "shots", [0, -5, 2.5, 10.0, math.inf, math.nan, True, 2**63, 10**20, "10"]
    )
    def test_shots_must_be_an_int64_count(self, shots):
        with pytest.raises(InvalidDistributionError, match="shots"):
            draw([0.5, 0.5, 0, 0], shots=shots, seed=0)

    def test_largest_shot_count_accepted(self):
        assert sampling.MAX_SHOTS == 2**63 - 1
        assert np.array_equal(draw([1.0, 0, 0, 0], shots=sampling.MAX_SHOTS, seed=0), [1, 0, 0, 0])
        assert np.array_equal(draw([0, 1.0, 0, 0], shots=np.int64(7), seed=0), [0, 1, 0, 0])

    @pytest.mark.parametrize("shape", [(2, 2), (0,), ()])
    def test_needs_probability_vector(self, shape):
        with pytest.raises(DimensionMismatchError):
            draw(np.full(shape, 0.25), shots=10, seed=0)


BAD_SEEDS = [-1, 1.5, "abc", True, np.float64(2.0), [1, 2]]
# sample_counts: the counts of one configuration row (`draw`)
SEED_ENTRY_POINTS = {
    "sample_counts": lambda seed: draw([0.5, 0.5, 0, 0], shots=10, seed=seed),
    "characterize_sampled": lambda seed: sampling.characterize_sampled(
        channels.bit_flip(0.1), shots=10, seed=seed
    ),
    "characterize_with_optics": lambda seed: sampling.characterize_with_optics(
        channels.bit_flip(0.1), shots=10, seed=seed
    ),
    "characterize_with_optics_exact": lambda seed: sampling.characterize_with_optics(
        channels.bit_flip(0.1), seed=seed
    ),
    "joint_estimate": lambda seed: relax.joint_estimate(
        channels.compose(
            channels.amplitude_damping(t=1.0, T1=2.0), channels.phase_damping(t=1.0, T2=1.0)
        ),
        0.8, 0.6, 1.0, 1.0, shots=10**5, seed=seed,
    ),
    "joint_estimate_exact": lambda seed: relax.joint_estimate(
        channels.identity_channel(), 0.8, 0.6, 1.0, 1.0, seed=seed
    ),
    "measure": lambda seed: sampling.measure(ONE_ROW, channels.as_chi(channels.bit_flip(0.1), 1), 10, seed),
    "measure_exact": lambda seed: sampling.measure(
        ONE_ROW, channels.as_chi(channels.bit_flip(0.1), 1), seed=seed
    ),
}


class TestSeeds:
    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    @pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
    def test_bad_seed_rejected(self, entry, seed):
        # numpy used to raise its own ValueError or TypeError
        with pytest.raises(InvalidDistributionError, match="seed must be"):
            SEED_ENTRY_POINTS[entry](seed)

    @pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
    def test_integer_seeds_accepted(self, entry):
        for seed in (None, 0, np.int64(3), 2**70):
            SEED_ENTRY_POINTS[entry](seed)

    @pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
    def test_generator_rejected(self, entry):
        # joint_estimate took a Generator, with or without shots
        with pytest.raises(InvalidDistributionError, match="seed must be"):
            SEED_ENTRY_POINTS[entry](np.random.default_rng(4))

    def test_seed_sequence_accepted(self):
        a, _ = sampling.characterize_sampled(channels.bit_flip(0.1), shots=10, seed=np.random.SeedSequence(8))
        b, _ = sampling.characterize_sampled(channels.bit_flip(0.1), shots=10, seed=8)
        assert np.array_equal(a.chi, b.chi)


class TestCharacterizeSampled:
    @pytest.mark.parametrize("shots", [2.5, 10**20])
    def test_bad_shot_count_rejected(self, shots):
        # 2.5 used to be truncated to 2 shots, giving a chi of trace 0.8
        with pytest.raises(InvalidDistributionError, match="shots"):
            sampling.characterize_sampled(channels.depolarizing(0.1), 1, shots=shots, seed=0)
        with pytest.raises(InvalidDistributionError, match="shots"):
            sampling.characterize_with_optics(channels.depolarizing(0.1), shots=shots, seed=0)

    def test_seeded_runs_identical(self):
        kraus = channels.amplitude_damping(gamma=0.35)
        r1, m1 = sampling.characterize_sampled(kraus, shots=2000, seed=42)
        r2, m2 = sampling.characterize_sampled(kraus, shots=2000, seed=42)
        assert np.array_equal(r1.chi, r2.chi)
        assert m1.frobenius_error == m2.frobenius_error

    @pytest.mark.parametrize("n", [1, 2, 3])
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

    def test_register_size_guard(self, channel_untouched):
        # same bound as the exact path, checked before the channel is expanded
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


class TestSample:
    # a hand-made n = 2 DCQD array: 16 configuration rows of 16 outcomes
    scheme = dcqd.pair_scheme()
    rows = np.full((16, 16), 1 / 32)
    NEGATIVE, EXCESS = [-0.5] + [0.0] * 15, [0.5] * 16

    def sample_rows(self, rows, shots=100, seed=0):
        return sampling.sample(self.scheme, inversion.pair_axes(rows, 2, 4), shots, seed)

    @pytest.mark.parametrize(
        "bad,later,message",
        [
            (NEGATIVE, EXCESS, "outcome probability -5.000e-01 is negative or NaN"),
            ([math.nan] + [0.0] * 15, EXCESS, "outcome probability nan is negative or NaN"),
            (EXCESS, NEGATIVE, "outcome probabilities sum to 8.0 > 1"),
            ([math.inf] + [0.0] * 15, NEGATIVE, "outcome probabilities sum to inf > 1"),
        ],
        ids=["negative", "nan", "excess", "inf"],
    )
    def test_first_bad_row_reported(self, bad, later, message):
        # row 11 fails the other check, which must not mask row 7
        rows = self.rows.copy()
        rows[7], rows[11] = bad, later
        with pytest.raises(InvalidDistributionError) as got:
            self.sample_rows(rows)
        assert str(got.value) == message

    def test_seed_then_shots_then_data_before_any_draw(self, monkeypatch):
        rows = self.rows.copy()
        rows[7] = -0.5
        drawn = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed))
        with pytest.raises(InvalidDistributionError, match="seed must be"):
            self.sample_rows(rows, shots=0, seed=-1)
        with pytest.raises(InvalidDistributionError, match="shots"):
            self.sample_rows(rows, shots=0)
        with pytest.raises(InvalidDistributionError, match="negative"):
            self.sample_rows(rows)
        assert drawn == []

    @pytest.mark.parametrize("data", [np.float64(0.1), np.full(15, 0.01), np.full((16, 15), 0.01)])
    def test_data_of_another_shape_rejected(self, data):
        # a 15-long axis raised numpy's "cannot reshape" ValueError
        with pytest.raises(DimensionMismatchError, match="one axis of 16 per pair"):
            sampling.sample(self.scheme, data, 10, 1)


class TestMeasure:
    # a scheme's data of chi: its exact data, or `sample` of them with shots set
    SCHEMES = {
        "pair": dcqd.pair_scheme,
        "optics": dcqd.optics_scheme,
        "coh_y": lambda: dcqd.setting_scheme(dcqd.COH_Y, 0.6, 0.48 + 0.64j),
    }

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_exact_or_drawn_bit_for_bit(self, name, n, rng):
        scheme = self.SCHEMES[name]()
        chi = channels.as_chi(channels.random_channel(1, trace_preserving=False, rng=rng), n)
        exact = scheme.forward(chi)
        assert sampling.measure(scheme, chi).tobytes() == exact.tobytes()
        drawn = sampling.measure(scheme, chi, 200, 5)
        assert drawn.tobytes() == sampling.sample(scheme, exact, 200, 5).tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_sqpt_expectations_exact_only(self, n, rng):
        # SQPT's data are Pauli expectations, which the sampler refuses
        scheme = sqpt._scheme()
        chi = channels.as_chi(channels.random_channel(1, rng=rng), n)
        assert sampling.measure(scheme, chi).tobytes() == scheme.forward(chi).tobytes()
        with pytest.raises(InvalidDistributionError, match="negative"):
            sampling.measure(scheme, chi, 10, 1)

    def test_chi_as_nested_lists(self):
        # a list chi raised AttributeError in the forward model
        chi = channels.as_chi(channels.bit_flip(0.25), 1)
        scheme = dcqd.pair_scheme()
        assert sampling.measure(scheme, chi.tolist()).tobytes() == scheme.forward(chi).tobytes()


class TestOpticsModel:
    def test_default_partition(self):
        # each analyzer's groups partition the 4 outcomes; the analyzer merges
        # phi+ with phi- and resolves the psi pair, its complement the reverse
        for g in (dcqd._G, dcqd._G_C):
            assert np.array_equal(np.sum(g, axis=0), [1, 1, 1, 1])
        assert [np.flatnonzero(row).tolist() for row in dcqd._G] == [[0, 3], [1], [2]]
        assert [np.flatnonzero(row).tolist() for row in dcqd._G_C] == [[0], [1, 2], [3]]

    def test_optics_design_is_the_merged_designs(self):
        # the design of characterize_with_optics is each setting's 4 rows of A1
        # merged by the analyzer and by its complement, bit for bit
        for alpha, beta in [(dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA), (0.6, 0.8j)]:
            pair, scheme = dcqd.pair_scheme(alpha, beta), dcqd.optics_scheme(alpha, beta)
            merged = [g @ pair.design[4 * s : 4 * s + 4] for s in range(4) for g in (G, G_C)]
            assert np.array_equal(scheme.design, np.vstack(merged))
            assert (scheme.settings, scheme.outcomes) == (8, 3)
        result = sampling.characterize_with_optics(channels.bit_flip(0.25))
        chi_true = channels.chi_from_kraus(channels.bit_flip(0.25))
        assert np.max(np.abs(result.chi - chi_true)) < 1e-12

    @pytest.mark.parametrize("alpha,beta", [(dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA), (0.6, 0.48 + 0.64j)])
    def test_forward_merges_the_dcqd_data(self, alpha, beta, rng):
        # the analyzer's scheme forwards A1 and then its row map, which is
        # the DCQD data merged along every pair axis, bit for bit
        pair, optics = dcqd.pair_scheme(alpha, beta), dcqd.optics_scheme(alpha, beta)
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        for n in range(1, 5):
            chi = channels.as_chi(kraus, n)
            want = inversion.per_pair(pair.forward(chi), [dcqd._MERGE] * n)
            assert np.array_equal(optics.forward(chi), want)

    @pytest.mark.parametrize(
        "probs,message",
        [
            ([math.nan, 0, 0, math.inf], "negative or NaN"),
            ([-5, 2, 2, 2], "negative or NaN"),
            ([0.5, 0.5, 0.5, 0], "sum to"),
            ([0, 0, 0, math.inf], "sum to"),
        ],
    )
    def test_bad_probabilities_rejected(self, probs, message):
        # the pop setting's bad probabilities, summed over each analyzer's
        # groups, are rejected by the sampler of the optics path
        merged = dcqd._MERGE @ np.full(16, 0.25)
        merged[:6] = np.concatenate([np.where(g, probs, 0.0).sum(axis=1) for g in (G, G_C)])
        with pytest.raises(InvalidDistributionError, match=message):
            sampling.sample(dcqd.optics_scheme(), merged, 10, 0)

    def test_mass_preserved(self, rng):
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        for config in dcqd.all_configurations(1):
            q = dcqd.outcome_probabilities(kraus, config)
            s = dcqd.SETTINGS.index(config[0])
            merged = (dcqd._MERGE @ np.kron(np.eye(4)[s], q)).reshape(4, 2, 3)
            # each analyzer's groups of setting s sum to the setting's mass
            assert merged[s].sum(axis=1) == pytest.approx([q.sum()] * 2, abs=1e-12)

    def test_pop_rank_deficient_then_restored(self):
        # pop's rows of the optics design: 0-2 the default analyzer, 3-5 its complement
        design = dcqd.optics_scheme().design
        single, both = design[0:3], design[0:6]
        assert np.linalg.matrix_rank(single) == 3
        assert np.linalg.matrix_rank(both) == 4

    @pytest.mark.parametrize("alpha,beta", [(dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA), (0.6, 0.8j)])
    def test_merged_design_matches_dense_rows(self, alpha, beta):
        for setting in dcqd.SETTINGS:
            dense = design_matrix((setting,), alpha, beta)
            s = dcqd.SETTINGS.index(setting)
            rows = dcqd.optics_scheme(alpha, beta).design[6 * s : 6 * s + 6]
            for groups, got in (([G], rows[:3]), ([G_C], rows[3:]), ([G, G_C], rows)):
                want = np.vstack([g @ dense for g in groups])
                assert np.max(np.abs(got - want)) < 1e-15

    def test_full_configuration_set_rank_restored(self):
        # rows 6s..6s+2 are setting s under the default analyzer alone
        both = dcqd.optics_scheme().design
        single = both.reshape(4, 2, 3, 16)[:, 0].reshape(12, 16)
        assert np.linalg.matrix_rank(single) < 16
        assert np.linalg.matrix_rank(both) == 16

    def test_characterize_with_optics_exact(self, rng):
        kraus = channels.random_channel(1, trace_preserving=True, rng=rng)
        chi_true = channels.chi_from_kraus(kraus)
        result = sampling.characterize_with_optics(kraus)
        assert np.linalg.norm(result.chi - chi_true) < 1e-9
        assert result.n_configurations == 8  # doubled

    def test_merge_matrix(self):
        # [G; G_c] on each setting's 4 outcomes, and nothing across settings
        assert np.array_equal(dcqd._MERGE, np.kron(np.eye(4), np.vstack([G, G_C])))

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

    @pytest.mark.parametrize("shots", [None, 1000])
    def test_optics_matches_real_lstsq_oracle_on_two_pairs(self, shots, rng):
        kraus = channels.random_channel(2, trace_preserving=False, rng=rng)
        for seed in range(2):
            result = sampling.characterize_with_optics(kraus, shots=shots, seed=seed, n=2)
            want = optics_lstsq_oracle(kraus, shots=shots, seed=seed, n=2)
            assert np.max(np.abs(result.chi - want)) < 1e-10
        assert result.n_configurations == 64
        assert result.design_cond == pytest.approx(9.93**2, rel=0.01)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_optics_exact_on_n_pairs(self, n, rng):
        # a one-qubit (i.i.d.) channel at n = 4 keeps the Kraus set small
        kraus = channels.random_channel(n if n < 4 else 1, trace_preserving=False, rng=rng)
        result = sampling.characterize_with_optics(kraus, n=n)
        assert np.max(np.abs(result.chi - channels.as_chi(kraus, n))) < 1e-12
        assert (result.n_qubits, result.n_configurations) == (n, 8**n)

    def test_optics_data_bound(self, channel_untouched):
        # 24**5 data entries exceed the 16**5 of the largest chi; checked
        # before the channel is looked at, after the register size
        with pytest.raises(InvalidConfigurationError, match=r"24\*\*5 entries; the limit is 16\*\*5"):
            sampling.characterize_with_optics(channels.identity_channel(), n=5)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            sampling.characterize_with_optics(channels.identity_channel(), n=6)
        with pytest.raises(InvalidConfigurationError, match="at least one pair"):
            sampling.characterize_with_optics(channels.identity_channel(), n=0)

    def test_characterize_with_optics_sampled(self):
        result = sampling.characterize_with_optics(channels.bit_flip(0.25), shots=10**5, seed=3)
        assert abs(result.chi[1, 1].real - 0.25) < 0.02
