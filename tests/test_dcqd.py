import cmath
import math
import time

import numpy as np
import pytest

import conftest
from conftest import density_matrix_probabilities, stacked_design
from dcqdlab import channels, dcqd, inversion, ops
from dcqdlab.exceptions import (
    DimensionMismatchError,
    IllPosedConfigurationError,
    InvalidConfigurationError,
    InvalidDistributionError,
)

S2 = 1.0 / math.sqrt(2)


def measurement_projectors(config):
    return [ops.projector(b) for b in conftest.measurement_basis(config)]


def config_for(setting, alpha=None, beta=None):
    kwargs = {}
    if alpha is not None:
        kwargs["alpha"] = alpha
        kwargs["beta"] = beta
    return dcqd.Configuration(settings=(setting,), **kwargs)


class TestConfiguration:
    def test_four_settings_per_pair(self):
        configs = dcqd.all_configurations(1)
        assert [c.settings[0] for c in configs] == [dcqd.POP, dcqd.COH_Z, dcqd.COH_X, dcqd.COH_Y]
        assert len(dcqd.all_configurations(2)) == 16

    def test_default_amplitudes_well_conditioned(self):
        c = config_for(dcqd.COH_Z)
        dcqd.validate_configuration(c)
        cross = c.alpha * c.beta.conjugate()
        assert abs(abs(c.alpha) - abs(c.beta)) > 0.1
        assert abs(cross.real) > 0.01 and abs(cross.imag) > 0.01

    def test_rejects_equal_magnitudes(self):
        with pytest.raises(InvalidConfigurationError):
            dcqd.validate_configuration(config_for(dcqd.COH_Z, S2, S2))

    def test_rejects_real_cross_term(self):
        with pytest.raises(InvalidConfigurationError, match="Im"):
            dcqd.validate_configuration(config_for(dcqd.COH_X, 0.8, 0.6))

    def test_rejects_imaginary_cross_term(self):
        with pytest.raises(InvalidConfigurationError, match="Re"):
            dcqd.validate_configuration(config_for(dcqd.COH_X, 0.8, 0.6j))

    def test_rejects_zero_amplitude(self):
        with pytest.raises(InvalidConfigurationError):
            dcqd.validate_configuration(config_for(dcqd.COH_Y, 1.0, 0.0))

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidConfigurationError):
            dcqd.Configuration(settings=(dcqd.COH_Z,), alpha=1.0, beta=1.0)

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (float("nan"), 0.5),
            (0.5, complex(0.0, float("nan"))),
            (float("inf"), 0.5),
            # finite, but |alpha|**2 overflows a float
            (1e200, 1e200),
        ],
    )
    def test_rejects_non_finite_amplitudes(self, alpha, beta):
        with pytest.raises(InvalidConfigurationError):
            dcqd.Configuration(settings=(dcqd.COH_Z,), alpha=alpha, beta=beta)
        with pytest.raises(InvalidConfigurationError):
            dcqd.characterize(channels.depolarizing(0.1), 1, alpha=alpha, beta=beta)

    def test_pop_only_ignores_amplitudes(self):
        dcqd.validate_configuration(config_for(dcqd.POP, S2, S2))


class TestInputStates:
    def test_pop_is_maximally_entangled(self):
        psi = conftest.input_state(config_for(dcqd.POP))
        assert np.allclose(psi, ops.bell_basis()[0], atol=1e-14)

    def test_coh_x_rotated_state(self):
        # a|+>|0> + b|->|1> for real amplitudes (validation bypassed)
        a, b = 0.8, 0.6
        psi = conftest.input_state(config_for(dcqd.COH_X, a, b))
        plus = np.array([1, 1], complex) * S2
        minus = np.array([1, -1], complex) * S2
        want = a * np.kron(plus, [1, 0]) + b * np.kron(minus, [0, 1])
        assert np.allclose(psi, want, atol=1e-14)

    def test_coh_y_rotated_state(self):
        c = config_for(dcqd.COH_Y)
        psi = conftest.input_state(c)
        plus_i = np.array([1, 1j], complex) * S2
        minus_i = np.array([1, -1j], complex) * S2
        want = c.alpha * np.kron(plus_i, [1, 0]) + c.beta * np.kron(minus_i, [0, 1])
        assert np.allclose(psi, want, atol=1e-14)

    def test_equal_amplitudes_rejected_at_build(self):
        # the forward model, which stands in for every input state, rejects them
        with pytest.raises(InvalidConfigurationError):
            dcqd.all_outcome_probabilities(channels.identity_channel(), 1, S2, S2)

    def test_two_pair_layout(self):
        # pair 1 pop, pair 2 coh_z; register order [A1 A2 B1 B2]
        c = dcqd.Configuration(settings=(dcqd.POP, dcqd.COH_Z))
        psi = conftest.input_state(c)
        a, b = c.alpha, c.beta
        want = np.zeros(16, dtype=complex)
        # S2 (|00>_AB1 + |11>_AB1) (x) (a|00>_AB2 + b|11>_AB2), reordered
        for q1, amp1 in [(0, S2), (1, S2)]:
            for q2, amp2 in [(0, a), (1, b)]:
                idx = (q1 << 3) | (q2 << 2) | (q1 << 1) | q2
                want[idx] = amp1 * amp2
        assert np.allclose(psi, want, atol=1e-14)


class TestMeasurementProjectors:
    def test_coh_z_projectors_are_bell(self):
        projs = measurement_projectors(config_for(dcqd.COH_Z))
        for got, bell in zip(projs, ops.bell_basis()):
            assert np.allclose(got, ops.projector(bell), atol=1e-14)

    @pytest.mark.parametrize("setting", dcqd.SETTINGS)
    def test_joint_eigenbasis_of_stabilizer_and_normalizer(self, setting):
        # simultaneous diagonalization oracle: each measurement state is an
        # eigenstate of both operators with the labelled eigenvalues
        config = config_for(setting)
        sa, sb = conftest.STABILIZER_LETTERS[setting]
        na, nb = conftest.NORMALIZER_LETTERS[setting]
        stab = np.kron(ops.PAULIS[sa], ops.PAULIS[sb])
        norm = np.kron(ops.PAULIS[na], ops.PAULIS[nb])
        assert np.allclose(stab @ norm, norm @ stab, atol=1e-14)
        for k, vec in enumerate(conftest.measurement_basis(config)):
            es, en = conftest.OUTCOME_EIGENVALUES[k]
            assert np.allclose(stab @ vec, es * vec, atol=1e-12)
            assert np.allclose(norm @ vec, en * vec, atol=1e-12)

    @pytest.mark.parametrize("setting", dcqd.SETTINGS)
    def test_orthonormal_and_complete(self, setting):
        projs = measurement_projectors(config_for(setting))
        assert np.allclose(sum(projs), np.eye(4), atol=1e-13)
        basis = conftest.measurement_basis(config_for(setting))
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(4), atol=1e-13)

    def test_input_state_stabilized(self):
        # every configuration's input is a +1 eigenstate of its stabilizer
        for setting in dcqd.SETTINGS:
            config = config_for(setting)
            psi = conftest.input_state(config)
            sa, sb = conftest.STABILIZER_LETTERS[setting]
            stab = np.kron(ops.PAULIS[sa], ops.PAULIS[sb])
            assert np.allclose(stab @ psi, psi, atol=1e-12)

    def test_two_pair_completeness(self):
        projs = measurement_projectors(dcqd.Configuration(settings=(dcqd.COH_X, dcqd.POP)))
        assert len(projs) == 16
        assert np.allclose(sum(projs), np.eye(16), atol=1e-13)


class TestOutcomeProbabilities:
    def test_identity_pop(self):
        dist = dcqd.outcome_probabilities(channels.identity_channel(), config_for(dcqd.POP))
        assert np.allclose(dist.probabilities, [1, 0, 0, 0], atol=1e-14)

    def test_bit_flip_pop(self):
        dist = dcqd.outcome_probabilities(channels.bit_flip(0.25), config_for(dcqd.POP))
        assert np.allclose(dist.probabilities, [0.75, 0.25, 0, 0], atol=1e-14)

    def test_error_detection_identity(self):
        # Pauli m applied to phi+ triggers outcome m with certainty
        for m, name in enumerate("IXYZ"):
            kraus = [ops.PAULIS[m]]
            dist = dcqd.outcome_probabilities(kraus, config_for(dcqd.POP))
            want = np.zeros(4)
            want[m] = 1.0
            assert np.allclose(dist.probabilities, want, atol=1e-12), name

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9])
    def test_amplitude_damping_pop_flip_mass(self, gamma):
        dist = dcqd.outcome_probabilities(
            channels.amplitude_damping(gamma=gamma), config_for(dcqd.POP)
        )
        q = dist.probabilities
        assert q[1] + q[2] == pytest.approx(gamma / 2, abs=1e-12)

    def test_direct_matches_design_route(self, rng):
        # independent routes: Kraus application vs design-matrix contraction
        for tp in (True, False):
            kraus = channels.random_channel(1, trace_preserving=tp, rng=rng)
            x = channels.chi_from_kraus(kraus).ravel()
            for config in dcqd.all_configurations(1):
                direct = dcqd.outcome_probabilities(kraus, config).probabilities
                via_design = conftest.design_matrix(config) @ x
                assert np.allclose(direct, via_design, atol=1e-12)

    def test_completeness_sums_to_channel_trace(self, rng):
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        for config in dcqd.all_configurations(1):
            psi = conftest.input_state(config)
            rho_out = channels.apply_channel(kraus, ops.projector(psi), ancilla_dim=2)
            total = dcqd.outcome_probabilities(kraus, config).probabilities.sum()
            assert total == pytest.approx(np.trace(rho_out).real, abs=1e-12)


class TestReconstructPopulation:
    def test_identity(self):
        dist = dcqd.OutcomeDistribution(config_for(dcqd.POP), np.array([1.0, 0, 0, 0]))
        assert np.allclose(dcqd.reconstruct_population(dist), [1, 0, 0, 0])

    def test_bit_flip(self):
        dist = dcqd.outcome_probabilities(channels.bit_flip(0.25), config_for(dcqd.POP))
        diag = dcqd.reconstruct_population(dist)
        want = np.diag(channels.chi_from_kraus(channels.bit_flip(0.25))).real
        assert np.allclose(diag, want, atol=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.4, 1.0])
    def test_depolarizing(self, p):
        dist = dcqd.outcome_probabilities(channels.depolarizing(p), config_for(dcqd.POP))
        diag = dcqd.reconstruct_population(dist)
        assert np.allclose(diag, [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-12)
        want = np.diag(channels.chi_from_kraus(channels.depolarizing(p))).real
        assert np.allclose(diag, want, atol=1e-12)

    def test_requires_pop(self):
        dist = dcqd.OutcomeDistribution(config_for(dcqd.COH_Z), np.ones(4) / 4)
        with pytest.raises(InvalidConfigurationError):
            dcqd.reconstruct_population(dist)


class TestReconstructCoherence:
    def run_closed_form(self, kraus, setting):
        pop = dcqd.outcome_probabilities(kraus, config_for(dcqd.POP))
        diag = dcqd.reconstruct_population(pop)
        dist = dcqd.outcome_probabilities(kraus, config_for(setting))
        coh_stab, coh_norm = dcqd.reconstruct_coherence(dist, diag)
        return dcqd.map_frame(setting, coh_stab, coh_norm)

    def test_identity_channel_no_coherence(self):
        entries = self.run_closed_form(channels.identity_channel(), dcqd.COH_Z)
        assert entries[(0, 3)] == pytest.approx(0.0, abs=1e-12)
        assert entries[(1, 2)] == pytest.approx(0.0, abs=1e-12)

    def test_z_rotation_coherence(self):
        # exp(-i (pi/2) Z / 2): chi_00 = chi_33 = 1/2, chi_03 = i/2
        entries = self.run_closed_form(channels.rotation("z", math.pi / 2), dcqd.COH_Z)
        assert entries[(0, 3)] == pytest.approx(0.5j, abs=1e-12)

    def test_x_rotation_frame_sign(self):
        kraus = channels.rotation("x", 0.8)
        chi = channels.chi_from_kraus(kraus)
        entries = self.run_closed_form(kraus, dcqd.COH_X)
        assert entries[(0, 1)] == pytest.approx(chi[0, 1], abs=1e-12)

    @pytest.mark.parametrize(
        "setting,positions",
        [(dcqd.COH_Z, ((0, 3), (1, 2))), (dcqd.COH_X, ((0, 1), (2, 3))), (dcqd.COH_Y, ((0, 2), (1, 3)))],
    )
    def test_against_ground_truth(self, setting, positions, rng):
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        chi = channels.chi_from_kraus(kraus)
        entries = self.run_closed_form(kraus, setting)
        assert set(entries.keys()) == set(positions)
        for pos in positions:
            assert entries[pos] == pytest.approx(chi[pos], abs=1e-10)

    def test_amplitude_damping_value(self):
        kraus = channels.amplitude_damping(gamma=0.5)
        chi = channels.chi_from_kraus(kraus)
        entries = self.run_closed_form(kraus, dcqd.COH_Z)
        assert chi[0, 3] == pytest.approx(0.125, abs=1e-12)  # gamma / 4
        assert entries[(0, 3)] == pytest.approx(chi[0, 3], abs=1e-10)

    def test_ill_posed_factors_named(self):
        diag = np.array([1.0, 0, 0, 0])
        q = np.array([1.0, 0, 0, 0])
        cases = [
            (S2, S2 * 1j, "<Z^A>"),  # |alpha| = |beta|
            (0.8, 0.6j, "<U>"),  # Re(alpha beta*) = 0
            (0.8, 0.6, "<Z^A U>"),  # Im(alpha beta*) = 0
        ]
        for alpha, beta, name in cases:
            dist = dcqd.OutcomeDistribution(config_for(dcqd.COH_Z, alpha, beta), q)
            with pytest.raises(IllPosedConfigurationError, match=__import__("re").escape(name)):
                dcqd.reconstruct_coherence(dist, diag)


class TestMapFrame:
    def test_coh_z_is_identity(self):
        entries = dcqd.map_frame(dcqd.COH_Z, 0.1 + 0.2j, 0.3 - 0.4j)
        assert entries[(0, 3)] == pytest.approx(0.1 + 0.2j)
        assert entries[(1, 2)] == pytest.approx(0.3 - 0.4j)

    def test_coh_x_targets(self):
        entries = dcqd.map_frame(dcqd.COH_X, 0.1 + 0.2j, 0.3 - 0.4j)
        assert set(entries.keys()) == {(0, 1), (2, 3)}
        assert entries[(0, 1)] == pytest.approx(0.1 + 0.2j)
        # chi'_12 lands at chi_32 with a sign flip; stored as its conjugate at (2, 3)
        assert entries[(2, 3)] == pytest.approx(-(0.3 - 0.4j).conjugate())

    def test_coh_y_targets(self):
        entries = dcqd.map_frame(dcqd.COH_Y, 0.1 + 0.2j, 0.3 - 0.4j)
        assert set(entries.keys()) == {(0, 2), (1, 3)}


class TestDesignMatrix:
    def test_pop_rows_pick_diagonals(self):
        a = conftest.design_matrix(config_for(dcqd.POP))
        want = np.zeros((4, 16), dtype=complex)
        for k in range(4):
            want[k, k * 4 + k] = 1.0
        assert np.allclose(a, want, atol=1e-14)

    def test_stacked_rank_full_with_defaults(self):
        a = stacked_design(dcqd.all_configurations(1))
        assert a.shape == (16, 16)
        assert np.linalg.matrix_rank(a) == 16

    def test_stacked_rank_two_pairs(self):
        a = stacked_design(dcqd.all_configurations(2))
        assert a.shape == (256, 256)
        assert np.linalg.matrix_rank(a) == 256

    def test_degenerate_amplitudes_lose_rank(self):
        configs = [
            dcqd.Configuration(settings=c.settings, alpha=0.8, beta=0.6)
            for c in dcqd.all_configurations(1)
        ]
        assert np.linalg.matrix_rank(stacked_design(configs)) < 16


class TestCharacterize:
    def test_identity(self):
        result = dcqd.characterize(channels.identity_channel(), 1)
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.allclose(result.chi, want, atol=1e-12)
        assert result.residual < 1e-10
        assert result.n_configurations == 4
        assert result.design_rank == 16

    @pytest.mark.parametrize("tp", [True, False])
    def test_random_single_qubit_maps(self, tp, rng):
        for _ in range(10):
            kraus = channels.random_channel(1, trace_preserving=tp, rng=rng)
            chi_true = channels.chi_from_kraus(kraus)
            result = dcqd.characterize(kraus, 1)
            assert np.linalg.norm(result.chi - chi_true) < 1e-9
            assert result.residual < 1e-9
            assert np.allclose(result.chi_closed_form, chi_true, atol=1e-9)

    def test_two_qubit_map(self, rng):
        kraus = channels.random_channel(2, trace_preserving=True, rng=rng)
        chi_true = channels.chi_from_kraus(kraus)
        result = dcqd.characterize(kraus, 2)
        assert np.linalg.norm(result.chi - chi_true) < 1e-8
        assert result.n_configurations == 16
        assert result.residual is None and result.chi_closed_form is None

    def test_reconstruction_hermitian_and_nearly_psd(self, rng):
        kraus = channels.random_channel(1, trace_preserving=True, rng=rng)
        result = dcqd.characterize(kraus, 1)
        assert ops.hermiticity_deviation(result.chi) == 0.0  # by construction
        assert ops.min_eigenvalue(result.chi) > -1e-8

    def test_rejects_bad_amplitudes(self):
        with pytest.raises(InvalidConfigurationError):
            dcqd.characterize(channels.identity_channel(), 1, alpha=S2, beta=S2)

    def test_rank_deficiency_raises_when_unvalidated(self):
        # bypassing validation still cannot produce a silent wrong answer
        configs = [
            dcqd.Configuration(settings=c.settings, alpha=0.8, beta=0.6)
            for c in dcqd.all_configurations(1)
        ]
        probs = [
            dcqd.outcome_probabilities(channels.identity_channel(), c).probabilities
            for c in configs
        ]
        # the rank defect is found on every call, with the same message
        messages = []
        for _ in range(2):
            with pytest.raises(IllPosedConfigurationError, match="rank") as info:
                dcqd.reconstruct_from_probabilities(probs, alpha=0.8, beta=0.6)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_register_size_guard(self, channel_untouched):
        # the bound is on chi's 16**n entries and is checked before the
        # channel is expanded or anything of size 16**n is allocated
        assert channels.MAX_QUBITS == 5

        with pytest.raises(InvalidConfigurationError, match="n=0"):
            dcqd.characterize(channels.identity_channel(), 0)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            dcqd.characterize(channels.identity_channel(), 6)
        config6 = dcqd.Configuration(settings=(dcqd.POP,) * 6)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            dcqd.outcome_probabilities(channels.identity_channel(), config6)
        # a huge n is compared as a qubit count; 16**n is never computed
        with pytest.raises(InvalidConfigurationError):
            channels.check_register_size(10**12)

    def test_unitary_two_qubit_channel(self):
        # a non-product channel: CNOT with primary block as control/target
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        chi_true = channels.chi_from_kraus([cnot])
        result = dcqd.characterize([cnot], 2)
        assert np.linalg.norm(result.chi - chi_true) < 1e-9

    def test_closed_form_vs_inversion_on_composed_channel(self):
        kraus = channels.compose(channels.rotation("y", 0.4), channels.depolarizing(0.2))
        result = dcqd.characterize(kraus, 1)
        assert result.residual < 1e-10


class TestFactoredEngine:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("rows", [4, 16, 24])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_per_pair_matches_tensordot(self, n, lead, rows, dtype, rng):
        # bit for bit, for a design (rows x 16, on axes of chi) and a
        # pseudo-inverse (16 x rows, on axes of data), both complex as in
        # every caller, on real and complex data
        def draw(shape, kind):
            x = rng.normal(size=shape)
            return x + 1j * rng.normal(size=shape) if kind is complex else x

        for shape in ((rows, 16), (16, rows)):
            mats = [draw(shape, complex) for _ in range(n)]
            t = draw((3,) * lead + (shape[1],) * n, dtype)
            want = conftest.per_pair_reference(t, mats, lead)
            got = inversion.per_pair(t, mats, lead)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tp", [True, False])
    def test_probabilities_match_density_matrix(self, n, tp, rng):
        kraus = channels.random_channel(n, trace_preserving=tp, rng=rng)
        probs = dcqd.all_outcome_probabilities(kraus, n)
        assert probs.shape == (4**n, 4**n)
        for config, row in zip(dcqd.all_configurations(n), probs):
            want = density_matrix_probabilities(kraus, config)
            assert np.max(np.abs(row - want)) < 1e-14
            got = dcqd.outcome_probabilities(kraus, config).probabilities
            assert np.max(np.abs(got - want)) < 1e-14

    def test_probabilities_match_density_matrix_three_pairs(self, rng):
        kraus = channels.random_channel(3, trace_preserving=False, rng=rng)
        probs = dcqd.all_outcome_probabilities(kraus, 3)
        configs = dcqd.all_configurations(3)
        for index in range(0, 64, 9):
            config = configs[index]
            want = density_matrix_probabilities(kraus, config)
            assert np.max(np.abs(probs[index] - want)) < 1e-14
            got = dcqd.outcome_probabilities(kraus, config).probabilities
            assert np.max(np.abs(got - want)) < 1e-14

    def test_pair_design_matches_single_pair_designs(self):
        dense = stacked_design(dcqd.all_configurations(1))
        assert np.max(np.abs(dcqd.pair_design() - dense)) < 1e-15

    @pytest.mark.parametrize(
        "alpha,beta", [(dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA), (0.6, 0.8j), (0.8, 0.6)]
    )
    def test_readout_table_matches_dense_reference(self, alpha, beta):
        rows = []
        for s in dcqd.SETTINGS:
            config = dcqd.Configuration(settings=(s,), alpha=alpha, beta=beta)
            w = np.array(conftest.measurement_basis(config)).reshape(4, 2, 2)
            psi = conftest.input_state(config).reshape(2, 2)
            rows.append(np.einsum("kab,cb->kac", w.conj(), psi).reshape(4, 4))
        assert np.array_equal(dcqd._readout_table(alpha, beta), np.vstack(rows))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_characterize_builds_a1_once(self, n, monkeypatch):
        # A1 is built once per process for each exact (alpha, beta)
        calls = []
        original = inversion.readout_design

        def counting(table):
            calls.append(1)
            return original(table)

        monkeypatch.setattr(inversion, "readout_design", counting)
        dcqd._pair_design.cache_clear()
        kraus = channels.random_channel(1, seed=2)
        dcqd.characterize(kraus, n)
        assert len(calls) == 1
        dcqd.characterize(kraus, n)
        assert len(calls) == 1
        dcqd.characterize(kraus, n, alpha=0.6, beta=0.8 * cmath.exp(1j * math.pi / 3))
        assert len(calls) == 2

    def test_pair_design_cache_keys_on_exact_bits(self):
        # 0.0 == -0.0, but the two amplitudes are different inputs
        plus = dcqd.pair_design(0.6, complex(0.8, 0.0))
        minus = dcqd.pair_design(0.6, complex(0.8, -0.0))
        assert plus is not minus
        assert np.array_equal(plus, minus)
        assert dcqd.pair_design(0.6, complex(0.8, 0.0)) is plus

    @pytest.mark.parametrize("alpha,beta", [(float("nan"), 0.5), (0.9, 0.1)])
    def test_pair_design_rejects_bad_amplitudes_every_call(self, alpha, beta):
        for _ in range(2):
            with pytest.raises(InvalidConfigurationError):
                dcqd.pair_design(alpha, beta)

    def test_cached_arrays_are_read_only(self):
        a1 = dcqd.pair_design()
        with pytest.raises(ValueError):
            a1[0, 0] = 1.0
        pinv, _cond, _rank = inversion._factorize(a1.tobytes(), a1.shape, a1.dtype.str)
        with pytest.raises(ValueError):
            pinv[0, 0] = 1.0
        chi = dcqd.characterize(channels.depolarizing(0.1)).chi
        assert np.array_equal(chi, dcqd.characterize(channels.depolarizing(0.1)).chi)

    def test_one_svd_per_design(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        inversion._factorize.cache_clear()
        kraus = channels.random_channel(1, seed=2)
        for _ in range(100):
            dcqd.characterize(kraus, 1)
        assert len(calls) == 1

    def test_stacked_design_is_permuted_kronecker_square(self):
        a1 = dcqd.pair_design()
        dense = stacked_design(dcqd.all_configurations(2))
        # kron rows (s1 k1 s2 k2), cols (m1 m1' m2 m2'); dense rows
        # (s1 s2 k1 k2), cols (m1 m2 m1' m2')
        kron = np.kron(a1, a1).reshape((4,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
        assert np.max(np.abs(kron.reshape(256, 256) - dense)) < 1e-15

    def test_chi_matches_dense_lstsq(self, rng):
        kraus = channels.random_channel(2, trace_preserving=False, rng=rng)
        probs = dcqd.all_outcome_probabilities(kraus, 2)
        configs = dcqd.all_configurations(2)
        x, *_ = np.linalg.lstsq(stacked_design(configs), probs.ravel(), rcond=None)
        dense = x.reshape(16, 16)
        chi = dcqd.reconstruct_from_probabilities(probs).chi
        assert np.max(np.abs(chi - dense)) < 1e-12

    @pytest.mark.parametrize("kind", ["random", "iid"])
    def test_three_qubit_characterize(self, kind, rng):
        if kind == "random":
            channel = channels.random_channel(3, trace_preserving=True, rng=rng)
        else:
            channel = channels.ChannelSpec(kind="amplitude_damping", params={"gamma": 0.3})
        start = time.perf_counter()
        result = dcqd.characterize(channel, 3)
        elapsed = time.perf_counter() - start
        chi_true = channels.chi_from_kraus(channels.as_kraus(channel, 3))
        assert np.max(np.abs(result.chi - chi_true)) < 1e-10
        assert ops.hermiticity_deviation(result.chi) == 0.0
        assert result.n_configurations == 64
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "n,kraus",
        [
            (4, channels.compose(channels.rotation("y", 0.7), channels.amplitude_damping(0.2))),
            (5, channels.rotation("y", 0.7)),
            # four Kraus operators, so 4**5 = 1024 at n = 5
            (5, channels.random_channel(1, seed=3)),
        ],
        ids=["n4", "n5", "n5_rank4"],
    )
    def test_larger_registers(self, n, kraus):
        # an i.i.d. channel's chi is the Kronecker power of its one-qubit chi
        start = time.perf_counter()
        result = dcqd.characterize(kraus, n)
        elapsed = time.perf_counter() - start
        chi_true = ops.tensor(*[channels.chi_from_kraus(kraus)] * n)
        assert np.max(np.abs(result.chi - chi_true)) < 1e-10
        assert elapsed < 5.0

    def test_iid_expansion_uses_canonical_kraus_set(self):
        # three composed depolarizing stages: 64 one-qubit Kraus operators,
        # which would be 64**3 at n = 3 without the canonical set; a composed
        # spec is reduced while it is built, a raw Kraus list by `as_kraus`
        stages = tuple(channels.ChannelSpec("depolarizing", {"p": p}) for p in (0.1, 0.2, 0.3))
        spec = channels.ChannelSpec("composed", stages=stages)
        first, second, third = (channels.kraus_from_spec(s) for s in stages)
        raw = channels.compose(channels.compose(first, second), third)
        assert len(raw) == 64
        assert len(channels.as_kraus(raw, 3)) <= 4**3
        assert len(channels.kraus_from_spec(spec)) <= 4
        assert len(channels.as_kraus(spec, 3)) <= 4**3
        start = time.perf_counter()
        result = dcqd.characterize(spec, 3)
        elapsed = time.perf_counter() - start
        chi1 = channels.chi_from_kraus(channels.kraus_from_spec(spec))
        assert np.max(np.abs(result.chi - ops.tensor(chi1, chi1, chi1))) < 1e-10
        assert elapsed < 1.0

    def test_diagnostics_at_every_n(self):
        cond1 = np.linalg.cond(dcqd.pair_design())
        assert cond1 == pytest.approx(6.2, abs=0.01)
        for n in (1, 2, 3):
            result = dcqd.characterize(channels.identity_channel(), n)
            assert result.design_rank == 16**n
            assert result.design_cond == pytest.approx(cond1**n, rel=1e-12)
        dense = stacked_design(dcqd.all_configurations(2))
        assert np.linalg.cond(dense) == pytest.approx(cond1**2, rel=1e-10)

    def test_degenerate_pair_design_rank(self):
        assert np.linalg.matrix_rank(dcqd.pair_design(0.8, 0.6)) == 10

    def test_solver_needs_full_configuration_set(self):
        probs = dcqd.all_outcome_probabilities(channels.identity_channel(), 1)
        with pytest.raises(DimensionMismatchError):
            dcqd.reconstruct_from_probabilities(probs[:, :3])

    @pytest.mark.parametrize("shape", [(8, 8), (1, 1), (4,), (16, 4), ()])
    def test_solver_reads_n_from_shape(self, shape):
        with pytest.raises(DimensionMismatchError):
            dcqd.reconstruct_from_probabilities(np.zeros(shape))

    def test_solver_checks_register_size(self, monkeypatch):
        # n = 6 data are rejected before the solve would allocate a 16**6 chi;
        # the broadcast array allocates nothing itself
        def never(*args, **kwargs):
            raise AssertionError("solver reached")

        monkeypatch.setattr(inversion, "solve", never)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            dcqd.reconstruct_from_probabilities(np.broadcast_to(0.0, (4**6, 4**6)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_solver_rejects_non_finite_data(self, bad):
        for n in (1, 2):
            probs = dcqd.all_outcome_probabilities(channels.depolarizing(0.1), n)
            probs[-1, 0] = bad
            with pytest.raises(InvalidDistributionError, match="NaN or infinite"):
                dcqd.reconstruct_from_probabilities(probs)
        probs = dcqd.all_outcome_probabilities(channels.depolarizing(0.1), 1)
        probs[2, 1] = bad
        with pytest.raises(InvalidDistributionError, match="NaN or infinite"):
            dcqd.closed_form_chi(probs)

    def test_solver_checks_amplitudes(self):
        probs = dcqd.all_outcome_probabilities(channels.identity_channel(), 1)
        with pytest.raises(InvalidConfigurationError):
            dcqd.reconstruct_from_probabilities(probs, alpha=math.nan)
        with pytest.raises(InvalidConfigurationError):
            dcqd.reconstruct_from_probabilities(probs, alpha=1.0, beta=1.0)

    def test_configuration_objects_do_not_grow_with_n(self, monkeypatch):
        built = []
        original = dcqd.Configuration.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(dcqd.Configuration, "__post_init__", counting)
        per_n = []
        for n in (2, 3):
            built.clear()
            dcqd.characterize(channels.identity_channel(), n)
            per_n.append(len(built))
        assert per_n[0] == per_n[1] <= 9
