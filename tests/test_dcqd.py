import cmath
import collections
import functools
import itertools
import math
import time

import numpy as np
import pytest

import conftest
from conftest import density_matrix_probabilities, stacked_design
from dcqdlab import channels, dcqd, inversion, ops, relax
from dcqdlab.exceptions import (
    DimensionMismatchError,
    IllPosedConfigurationError,
    InvalidChannelError,
    InvalidConfigurationError,
    InvalidDistributionError,
)

S2 = 1.0 / math.sqrt(2)


def measurement_projectors(settings):
    return [np.outer(b, b.conj()) for b in conftest.measurement_basis(settings)]


class TestConfiguration:
    def test_four_settings_per_pair(self):
        configs = dcqd.all_configurations(1)
        assert configs == [(dcqd.POP,), (dcqd.COH_Z,), (dcqd.COH_X,), (dcqd.COH_Y,)]
        assert len(dcqd.all_configurations(2)) == 16
        assert dcqd.all_configurations(2)[6] == (dcqd.COH_Z, dcqd.COH_X)

    def test_default_amplitudes_well_conditioned(self):
        a, b = dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA
        dcqd.validate_amplitudes(a, b)
        cross = a * b.conjugate()
        assert abs(abs(a) - abs(b)) > 0.1
        assert abs(cross.real) > 0.01 and abs(cross.imag) > 0.01

    def test_rejects_equal_magnitudes(self):
        with pytest.raises(InvalidConfigurationError):
            dcqd.validate_amplitudes(S2, S2)

    def test_rejects_real_cross_term(self):
        with pytest.raises(InvalidConfigurationError, match="Im"):
            dcqd.validate_amplitudes(0.8, 0.6)

    def test_rejects_imaginary_cross_term(self):
        with pytest.raises(InvalidConfigurationError, match="Re"):
            dcqd.validate_amplitudes(0.8, 0.6j)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(InvalidConfigurationError):
            dcqd.validate_amplitudes(1.0, 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidConfigurationError):
            dcqd.validate_amplitudes(1.0, 1.0)
        with pytest.raises(InvalidConfigurationError):
            dcqd.outcome_probabilities(channels.identity_channel(), (dcqd.POP,), 1.0, 1.0)

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
            dcqd.validate_amplitudes(alpha, beta)
        with pytest.raises(InvalidConfigurationError):
            dcqd.characterize(channels.depolarizing(0.1), 1, alpha=alpha, beta=beta)

    def test_pop_only_ignores_amplitudes(self):
        # |alpha| = |beta| leaves the coherence equations singular, but the
        # pop setting always prepares the maximally entangled state
        kraus = channels.bit_flip(0.25)
        got = dcqd.outcome_probabilities(kraus, (dcqd.POP, dcqd.POP), S2, S2)
        assert np.allclose(got, dcqd.outcome_probabilities(kraus, (dcqd.POP, dcqd.POP)), atol=1e-15)

    @pytest.mark.parametrize("settings", [(), ("pop", "coh_w"), "pop", (None,), None, 3])
    def test_outcome_probabilities_rejects_bad_settings(self, settings):
        with pytest.raises(InvalidConfigurationError):
            dcqd.outcome_probabilities(channels.identity_channel(), settings)

    def test_outcome_probabilities_check_order(self, channel_untouched):
        # settings, then register size, then amplitudes, then the channel
        with pytest.raises(InvalidConfigurationError, match="unknown settings"):
            dcqd.outcome_probabilities(None, ("coh_w",) * 6, math.nan)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            dcqd.outcome_probabilities(None, (dcqd.POP,) * 6, math.nan)
        with pytest.raises(InvalidConfigurationError, match="finite"):
            dcqd.outcome_probabilities(None, (dcqd.POP,), math.nan)

    @pytest.mark.parametrize(
        "setting,shown",
        [("bogus", "['bogus']"), (None, "[None]"), (["pop"], "[['pop']]")],
        ids=["bogus", "none", "list"],
    )
    def test_setting_scheme_rejects_unknown_setting(self, setting, shown):
        # these raised the builtin ValueError of tuple.index; the check and its
        # message are outcome_probabilities'
        message = f"unknown settings {shown}; valid: ('pop', 'coh_z', 'coh_x', 'coh_y')"
        for call in (
            lambda: dcqd.setting_scheme(setting),
            lambda: dcqd.outcome_probabilities(channels.identity_channel(), (setting,)),
        ):
            with pytest.raises(InvalidConfigurationError) as got:
                call()
            assert str(got.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            lambda a, b: dcqd.characterize(channels.bit_flip(0.1), 1, alpha=a, beta=b),
            lambda a, b: dcqd.pair_scheme(a, b).design,
            lambda a, b: dcqd.optics_scheme(a, b).design,
            lambda a, b: dcqd.outcome_probabilities(channels.bit_flip(0.1), (dcqd.COH_Z,), a, b),
            lambda a, b: relax.joint_estimate(channels.bit_flip(0.1), a, b, 1.0, 1.0),
            lambda a, b: dcqd.input_pair_expectations(a, b),
        ],
        ids=[
            "characterize", "pair_design", "optics_design", "outcome_probabilities", "joint_estimate",
            "input_pair_expectations",
        ],
    )
    @pytest.mark.parametrize(
        "alpha,beta",
        [
            ("x", dcqd.DEFAULT_BETA), ("a", "b"), (None, 0.6), (0.8, [0.6]), ("0.8", 0.6),
            # bools were read as 1 and 0, so (True, False) built and cached a scheme
            (True, False), (True, 0.0), (0.0, True), (np.True_, np.False_),
        ],
    )
    def test_non_numeric_amplitudes_raise_dcqdlab_error(self, call, alpha, beta):
        with pytest.raises(InvalidConfigurationError, match="must be numbers"):
            call(alpha, beta)


class TestInputStates:
    def test_pop_is_maximally_entangled(self):
        psi = conftest.input_state((dcqd.POP,))
        assert np.allclose(psi, ops.bell_basis()[0], atol=1e-14)

    def test_coh_x_rotated_state(self):
        # a|+>|0> + b|->|1> for real amplitudes (validation bypassed)
        a, b = 0.8, 0.6
        psi = conftest.input_state((dcqd.COH_X,), a, b)
        plus = np.array([1, 1], complex) * S2
        minus = np.array([1, -1], complex) * S2
        want = a * np.kron(plus, [1, 0]) + b * np.kron(minus, [0, 1])
        assert np.allclose(psi, want, atol=1e-14)

    def test_coh_y_rotated_state(self):
        psi = conftest.input_state((dcqd.COH_Y,))
        plus_i = np.array([1, 1j], complex) * S2
        minus_i = np.array([1, -1j], complex) * S2
        a, b = dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA
        want = a * np.kron(plus_i, [1, 0]) + b * np.kron(minus_i, [0, 1])
        assert np.allclose(psi, want, atol=1e-14)

    def test_equal_amplitudes_rejected_at_build(self):
        # the forward model, which stands in for every input state, rejects them
        with pytest.raises(InvalidConfigurationError):
            dcqd.all_outcome_probabilities(channels.identity_channel(), 1, S2, S2)

    def test_two_pair_layout(self):
        # pair 1 pop, pair 2 coh_z; register order [A1 A2 B1 B2]
        psi = conftest.input_state((dcqd.POP, dcqd.COH_Z))
        a, b = dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA
        want = np.zeros(16, dtype=complex)
        # S2 (|00>_AB1 + |11>_AB1) (x) (a|00>_AB2 + b|11>_AB2), reordered
        for q1, amp1 in [(0, S2), (1, S2)]:
            for q2, amp2 in [(0, a), (1, b)]:
                idx = (q1 << 3) | (q2 << 2) | (q1 << 1) | q2
                want[idx] = amp1 * amp2
        assert np.allclose(psi, want, atol=1e-14)


class TestMeasurementProjectors:
    def test_coh_z_projectors_are_bell(self):
        projs = measurement_projectors((dcqd.COH_Z,))
        for got, bell in zip(projs, ops.bell_basis()):
            assert np.allclose(got, np.outer(bell, bell.conj()), atol=1e-14)

    @pytest.mark.parametrize("setting", dcqd.SETTINGS)
    def test_joint_eigenbasis_of_stabilizer_and_normalizer(self, setting):
        # simultaneous diagonalization oracle: each measurement state is an
        # eigenstate of both operators with the labelled eigenvalues
        sa, sb = conftest.STABILIZER_LETTERS[setting]
        na, nb = conftest.NORMALIZER_LETTERS[setting]
        stab = np.kron(ops.PAULIS[sa], ops.PAULIS[sb])
        norm = np.kron(ops.PAULIS[na], ops.PAULIS[nb])
        assert np.allclose(stab @ norm, norm @ stab, atol=1e-14)
        for k, vec in enumerate(conftest.measurement_basis((setting,))):
            es, en = conftest.OUTCOME_EIGENVALUES[k]
            assert np.allclose(stab @ vec, es * vec, atol=1e-12)
            assert np.allclose(norm @ vec, en * vec, atol=1e-12)

    @pytest.mark.parametrize("setting", dcqd.SETTINGS)
    def test_orthonormal_and_complete(self, setting):
        projs = measurement_projectors((setting,))
        assert np.allclose(sum(projs), np.eye(4), atol=1e-13)
        basis = conftest.measurement_basis((setting,))
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(4), atol=1e-13)

    def test_input_state_stabilized(self):
        # every configuration's input is a +1 eigenstate of its stabilizer
        for setting in dcqd.SETTINGS:
            psi = conftest.input_state((setting,))
            sa, sb = conftest.STABILIZER_LETTERS[setting]
            stab = np.kron(ops.PAULIS[sa], ops.PAULIS[sb])
            assert np.allclose(stab @ psi, psi, atol=1e-12)

    def test_two_pair_completeness(self):
        projs = measurement_projectors((dcqd.COH_X, dcqd.POP))
        assert len(projs) == 16
        assert np.allclose(sum(projs), np.eye(16), atol=1e-13)


class TestOutcomeProbabilities:
    def test_identity_pop(self):
        q = dcqd.outcome_probabilities(channels.identity_channel(), (dcqd.POP,))
        assert np.allclose(q, [1, 0, 0, 0], atol=1e-14)

    def test_bit_flip_pop(self):
        q = dcqd.outcome_probabilities(channels.bit_flip(0.25), (dcqd.POP,))
        assert np.allclose(q, [0.75, 0.25, 0, 0], atol=1e-14)

    def test_error_detection_identity(self):
        # Pauli m applied to phi+ triggers outcome m with certainty
        for m, name in enumerate("IXYZ"):
            kraus = [ops.PAULIS[m]]
            q = dcqd.outcome_probabilities(kraus, (dcqd.POP,))
            want = np.zeros(4)
            want[m] = 1.0
            assert np.allclose(q, want, atol=1e-12), name

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9])
    def test_amplitude_damping_pop_flip_mass(self, gamma):
        q = dcqd.outcome_probabilities(channels.amplitude_damping(gamma=gamma), (dcqd.POP,))
        assert q[1] + q[2] == pytest.approx(gamma / 2, abs=1e-12)

    def test_direct_matches_design_route(self, rng):
        # independent routes: Kraus application vs design-matrix contraction
        for tp in (True, False):
            kraus = channels.random_channel(1, trace_preserving=tp, rng=rng)
            x = channels.chi_from_kraus(kraus).ravel()
            for config in dcqd.all_configurations(1):
                direct = dcqd.outcome_probabilities(kraus, config)
                via_design = conftest.design_matrix(config) @ x
                assert np.allclose(direct, via_design, atol=1e-12)

    def test_completeness_sums_to_channel_trace(self, rng):
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        for config in dcqd.all_configurations(1):
            psi = conftest.input_state(config)
            rho_out = conftest.primary_action(kraus, np.outer(psi, psi.conj()), 2)
            total = dcqd.outcome_probabilities(kraus, config).sum()
            assert total == pytest.approx(np.trace(rho_out).real, abs=1e-12)


class TestReconstructPopulation:
    # the pop setting's outcome m detects Pauli error m: its probabilities are diag(chi)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_pop_configuration_is_diagonal_at_every_n(self, n):
        # population in one measurement: one configuration of 4**n outcomes
        spec = channels.ChannelSpec("composed", stages=(
            channels.ChannelSpec("unitary", {"axis": "y", "angle": 0.7}),
            channels.ChannelSpec("amplitude_damping", {"gamma": 0.2}),
        ))
        q = dcqd.outcome_probabilities(spec, (dcqd.POP,) * n)
        chi = channels.as_chi(spec, n)
        assert q.shape == (4**n,)
        assert np.max(np.abs(q - np.diag(chi).real)) < 1e-14

    def test_identity(self):
        probs = dcqd.all_outcome_probabilities(channels.identity_channel(), 1)
        diag = np.diag(dcqd.closed_form_chi(probs))
        assert np.array_equal(diag, probs[0])
        assert np.allclose(diag, [1, 0, 0, 0])

    def test_closed_form_needs_four_distributions(self):
        probs = dcqd.all_outcome_probabilities(channels.identity_channel(), 1)
        with pytest.raises(DimensionMismatchError, match="4 single-pair distributions"):
            dcqd.closed_form_chi(probs[:3])

    def test_bit_flip(self):
        diag = dcqd.outcome_probabilities(channels.bit_flip(0.25), (dcqd.POP,))
        want = np.diag(channels.chi_from_kraus(channels.bit_flip(0.25))).real
        assert np.allclose(diag, want, atol=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.4, 1.0])
    def test_depolarizing(self, p):
        diag = dcqd.outcome_probabilities(channels.depolarizing(p), (dcqd.POP,))
        assert np.allclose(diag, [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-12)
        want = np.diag(channels.chi_from_kraus(channels.depolarizing(p))).real
        assert np.allclose(diag, want, atol=1e-12)


class TestReconstructCoherence:
    def run_closed_form(self, kraus, setting):
        diag = dcqd.outcome_probabilities(kraus, (dcqd.POP,))
        q = dcqd.outcome_probabilities(kraus, (setting,))
        coh_stab, coh_norm = dcqd.reconstruct_coherence(setting, q, diag)
        return dcqd.map_frame(setting, coh_stab, coh_norm)

    @pytest.mark.parametrize("setting", [dcqd.POP, "coh_w"])
    def test_requires_coh_setting(self, setting):
        with pytest.raises(InvalidConfigurationError, match="coh-type"):
            dcqd.reconstruct_coherence(setting, np.ones(4) / 4, np.ones(4) / 4)

    @pytest.mark.parametrize(
        "q,diag",
        [(np.ones(2), np.ones(4)), (np.ones(4), np.ones(3)), (np.ones((4, 4)), np.ones(4))],
    )
    def test_needs_one_pair_of_data(self, q, diag):
        with pytest.raises(DimensionMismatchError):
            dcqd.reconstruct_coherence(dcqd.COH_Z, q, diag)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["probabilities", "diagonals"])
    def test_non_finite_data_rejected(self, which, bad):
        # returned (nan+nanj, ...) or -inf+infj, as closed_form_chi does not
        data = {"probabilities": [0.4, 0.2, 0.3, 0.1], "diagonals": [0.25] * 4}
        data[which][0] = bad
        with pytest.raises(InvalidDistributionError, match="NaN or infinite"):
            dcqd.reconstruct_coherence(dcqd.COH_Z, data["probabilities"], data["diagonals"])

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
            with pytest.raises(InvalidConfigurationError, match=__import__("re").escape(name)):
                dcqd.reconstruct_coherence(dcqd.COH_Z, q, diag, alpha, beta)


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

    def test_pop_has_no_frame(self):
        with pytest.raises(InvalidConfigurationError, match="no frame mapping"):
            dcqd.map_frame(dcqd.POP, 0.1 + 0.2j, 0.3 - 0.4j)

    @pytest.mark.parametrize("value", [None, "1", True, [1]])
    def test_values_must_be_numbers(self, value):
        # None raised a builtin TypeError and "1" came back as '1'
        for values in ((value, 1), (0.5j, value)):
            with pytest.raises(InvalidDistributionError, match="must be numbers"):
                dcqd.map_frame(dcqd.COH_Z, *values)


class TestOneFactorRule:
    # reconstruct_coherence and closed_form_chi judged the factors apart from
    # validate_amplitudes: another class and message, and |2 Re(alpha beta*)|
    # where validate_amplitudes tests |Re(alpha beta*)|, so Re = 7e-13 passed
    @pytest.mark.parametrize(
        "alpha,beta,name",
        [
            (S2, S2 * 1j, "<Z^A>"),  # |alpha| = |beta|
            (0.8, 0.6j, "<U>"),  # Re(alpha beta*) = 0
            (0.8, 0.6, "<Z^A U>"),  # Im(alpha beta*) = 0
            (0.8, 0.6 * cmath.exp(-1j * math.acos(7e-13 / 0.48)), "<U>"),  # Re = 7e-13
        ],
        ids=["equal_magnitudes", "real_cross_zero", "imag_cross_zero", "real_cross_7e-13"],
    )
    def test_one_class_and_message(self, alpha, beta, name):
        q = np.full((4, 4), 0.25)
        calls = [
            lambda: dcqd.validate_amplitudes(alpha, beta),
            lambda: dcqd.reconstruct_coherence(dcqd.COH_Z, q[1], q[0], alpha, beta),
            lambda: dcqd.closed_form_chi(q, alpha, beta),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(InvalidConfigurationError) as info:
                call()
            assert type(info.value) is InvalidConfigurationError
            messages.add(str(info.value))
        assert len(messages) == 1
        assert name + " vanish" in messages.pop()

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (16,), (4, 4, 1)])
    def test_closed_form_needs_a_4_by_4_array(self, shape):
        with pytest.raises(DimensionMismatchError, match="4 single-pair distributions"):
            dcqd.closed_form_chi(np.full(shape, 0.25))

    @pytest.mark.parametrize(
        "alpha,beta",
        [(dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA), (0.6, 0.8 * cmath.exp(1j * math.pi / 3))],
    )
    def test_one_pass_is_the_settings_one_by_one(self, alpha, beta, rng):
        # exact zeros too (identity, a Z flip), whose signs the pass keeps
        kinds = [channels.identity_channel(), channels.rotation("z", math.pi)]
        kinds += [channels.random_channel(1, trace_preserving=i % 2 == 0, rng=rng) for i in range(20)]
        for kraus in kinds:
            q = dcqd.all_outcome_probabilities(kraus, 1, alpha, beta)
            want = np.diag(q[0]).astype(complex)
            for setting, row in zip(dcqd.SETTINGS[1:], q[1:]):
                coh = dcqd.reconstruct_coherence(setting, row, q[0], alpha, beta)
                for (m, n), value in dcqd.map_frame(setting, *coh).items():
                    want[m, n], want[n, m] = value, value.conjugate()
            assert dcqd.closed_form_chi(q, alpha, beta).tobytes() == want.tobytes()

    def test_characterize_checks_each_input_once_per_route(self, monkeypatch):
        # the closed forms judged the amplitudes and the data once per coh
        # setting: 6 amplitude checks, 8 real-data checks and 4 finiteness checks
        counts = collections.Counter()

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args):
                counts[name] += 1
                return inner(*args)

            monkeypatch.setattr(module, name, counted)

        count(dcqd, "_check_amplitudes")
        count(inversion, "_real_data")
        count(inversion, "_check_finite")
        dcqd.characterize(channels.Chi.of(channels.depolarizing(0.1), 1), 1)
        assert counts == {"_check_amplitudes": 3, "_real_data": 2, "_check_finite": 2}


class TestDesignMatrix:
    def test_pop_rows_pick_diagonals(self):
        a = conftest.design_matrix((dcqd.POP,))
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
        configs = dcqd.all_configurations(1)
        assert np.linalg.matrix_rank(stacked_design(configs, 0.8, 0.6)) < 16


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
        probs = [
            dcqd.outcome_probabilities(channels.identity_channel(), c, 0.8, 0.6)
            for c in dcqd.all_configurations(1)
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
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            dcqd.outcome_probabilities(channels.identity_channel(), (dcqd.POP,) * 6)
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
    @pytest.mark.parametrize("trailing", [0, 1])
    @pytest.mark.parametrize("rows", [4, 16, 24])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_per_pair_matches_tensordot(self, n, trailing, rows, dtype, rng):
        # bit for bit, for a design (rows x 16, on axes of chi) and a
        # pseudo-inverse (16 x rows, on axes of data), both complex as in
        # every caller, on real and complex data; a trailing axis is the
        # Kraus index of `chi_from_kraus` and `kraus_from_chi`
        def draw(shape, kind):
            x = rng.normal(size=shape)
            return x + 1j * rng.normal(size=shape) if kind is complex else x

        for shape in ((rows, 16), (16, rows)):
            mats = [draw(shape, complex) for _ in range(n)]
            t = draw((shape[1],) * n + (3,) * trailing, dtype)
            want = conftest.per_pair_reference(t, mats)
            got = inversion.per_pair(t, mats)
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
            got = dcqd.outcome_probabilities(kraus, config)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_probabilities_match_density_matrix_three_pairs(self, rng):
        kraus = channels.random_channel(3, trace_preserving=False, rng=rng)
        probs = dcqd.all_outcome_probabilities(kraus, 3)
        configs = dcqd.all_configurations(3)
        for index in range(0, 64, 9):
            config = configs[index]
            want = density_matrix_probabilities(kraus, config)
            assert np.max(np.abs(probs[index] - want)) < 1e-14
            got = dcqd.outcome_probabilities(kraus, config)
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize(
        "data",
        [np.float64(0.1), np.full(15, 0.01), np.full((16, 15), 0.01)],
        ids=["scalar", "15", "16x15"],
    )
    def test_solve_rejects_data_of_another_shape(self, data):
        # a scalar gave a 1 x 1 "chi" with cond 1.0, a 15-long axis numpy's matmul ValueError
        with pytest.raises(DimensionMismatchError, match="one axis of 16 per pair"):
            dcqd.pair_scheme().solve(data)

    @pytest.mark.parametrize(
        "scheme,chi,error,message",
        [
            (dcqd.optics_scheme, np.broadcast_to(0j, (1024, 1024)), InvalidConfigurationError, r"24\*\*5 entries"),
            (dcqd.pair_scheme, np.broadcast_to(0j, (4096, 4096)), InvalidConfigurationError, r"16\*\*6"),
            (dcqd.pair_scheme, np.broadcast_to(0j, (16, 4)), DimensionMismatchError, r"chi shape \(16, 4\)"),
            (
                lambda: dcqd.setting_scheme(dcqd.COH_X), np.broadcast_to(0j, (4, 4, 4)),
                DimensionMismatchError, r"chi shape \(4, 4, 4\)",
            ),
            (dcqd.pair_scheme, [[0.25] * 4] * 3 + [[0.25] * 3], InvalidChannelError, "array of numbers"),
            (dcqd.pair_scheme, [["0.25"] * 4] * 4, InvalidChannelError, "array of numbers"),
            (dcqd.pair_scheme, np.full((4, 4), None), InvalidChannelError, "array of numbers"),
            (dcqd.pair_scheme, np.full((4, 4), np.nan), InvalidChannelError, "non-finite"),
            (dcqd.optics_scheme, np.full((4, 4), np.inf), InvalidChannelError, "non-finite"),
        ],
        ids=["optics_n5", "pair_n6", "non_square", "3d", "ragged", "text", "none", "nan", "inf"],
    )
    def test_forward_checks_before_building(self, scheme, chi, error, message, monkeypatch):
        # the analyzer's 24**5 data entries were built (199 MB) before the
        # bound that refuses them, a chi of the wrong size raised numpy's
        # reshape ValueError, and a chi that is not a finite array of numbers
        # raised numpy's or Python's errors or gave NaN data; chi is judged by
        # the chi rule and its pairs are bounded before any arithmetic
        def untouched(*args, **kwargs):
            raise AssertionError("forward model reached")

        monkeypatch.setattr(inversion, "per_pair", untouched)
        with pytest.raises(error, match=message):
            scheme().forward(chi)

    def test_pair_design_matches_single_pair_designs(self):
        dense = stacked_design(dcqd.all_configurations(1))
        assert np.max(np.abs(dcqd.pair_scheme().design - dense)) < 1e-15

    @pytest.mark.parametrize(
        "alpha,beta", [(dcqd.DEFAULT_ALPHA, dcqd.DEFAULT_BETA), (0.6, 0.8j), (0.8, 0.6)]
    )
    def test_readout_table_matches_dense_reference(self, alpha, beta):
        rows = []
        for s in dcqd.SETTINGS:
            w = np.array(conftest.measurement_basis((s,))).reshape(4, 2, 2)
            psi = conftest.input_state((s,), alpha, beta).reshape(2, 2)
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
        dcqd._schemes.cache_clear()
        kraus = channels.random_channel(1, seed=2)
        dcqd.characterize(kraus, n)
        assert len(calls) == 1
        dcqd.characterize(kraus, n)
        assert len(calls) == 1
        # every scheme of the same amplitudes comes from that one A1
        dcqd.optics_scheme()
        for setting in dcqd.SETTINGS:
            dcqd.setting_scheme(setting)
        dcqd.outcome_probabilities(kraus, (dcqd.COH_Y,) * n)
        assert len(calls) == 1
        dcqd.characterize(kraus, n, alpha=0.6, beta=0.8 * cmath.exp(1j * math.pi / 3))
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha,beta", [(0.6 + 0j, 0.8j), (0.6 + 0j, 0.48 + 0.64j)])
    def test_signed_zero_amplitudes_give_bit_identical_schemes(self, alpha, beta):
        # 0.0 == -0.0, so the cache keeps one entry for both signs of a zero
        # part; built on its own, each variant has the same designs and chi bit
        # for bit
        chi = channels.as_chi(channels.random_channel(1, trace_preserving=False, seed=5), 2)
        parts = (alpha.real, alpha.imag, beta.real, beta.imag)
        built = []
        for signs in itertools.product((1.0, -1.0), repeat=4):
            p = [math.copysign(x, s) if x == 0 else x for x, s in zip(parts, signs)]
            dcqd._schemes.cache_clear()
            pair, optics, singles = dcqd._schemes(complex(p[0], p[1]), complex(p[2], p[3]))
            designs = [s.design for s in (pair, optics, *singles)]
            built.append(designs + [pair.solve(pair.forward(chi)).chi])
        for other in built[1:]:
            assert all(x.tobytes() == y.tobytes() for x, y in zip(built[0], other))
        assert dcqd.pair_scheme(alpha, beta) is dcqd.pair_scheme(alpha.conjugate(), beta)

    @pytest.mark.parametrize("alpha,beta", [(float("nan"), 0.5), (0.9, 0.1)])
    def test_pair_design_rejects_bad_amplitudes_every_call(self, alpha, beta):
        for _ in range(2):
            with pytest.raises(InvalidConfigurationError):
                dcqd.pair_scheme(alpha, beta).design

    def test_cached_arrays_are_read_only(self):
        a1 = dcqd.pair_scheme().design
        with pytest.raises(ValueError):
            a1[0, 0] = 1.0
        pinv, _cond, _rank = dcqd.pair_scheme()._svd
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
        dcqd._schemes.cache_clear()
        kraus = channels.random_channel(1, seed=2)
        for _ in range(100):
            dcqd.characterize(kraus, 1)
        assert len(calls) == 1

    def test_stacked_design_is_permuted_kronecker_square(self):
        a1 = dcqd.pair_scheme().design
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

    @pytest.mark.parametrize("n", [4, 5])
    def test_largest_registers_against_expanded_kraus(self, n):
        # the ground truth is the chi of the expanded Kraus set, which does not
        # go through as_chi's Kronecker power
        spec = channels.ChannelSpec(kind="amplitude_damping", params={"gamma": 0.3})
        chi_true = channels.chi_from_kraus(channels.as_kraus(spec, n))
        result = dcqd.characterize(spec, n)
        assert np.max(np.abs(result.chi - chi_true)) < 1e-10
        assert result.n_configurations == 4**n

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
        chi_true = functools.reduce(np.kron, [channels.chi_from_kraus(kraus)] * n)
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
        assert np.max(np.abs(result.chi - np.kron(np.kron(chi1, chi1), chi1))) < 1e-10
        assert elapsed < 1.0

    def test_diagnostics_at_every_n(self):
        cond1 = np.linalg.cond(dcqd.pair_scheme().design)
        assert cond1 == pytest.approx(6.2, abs=0.01)
        for n in (1, 2, 3):
            result = dcqd.characterize(channels.identity_channel(), n)
            assert result.design_rank == 16**n
            assert result.design_cond == pytest.approx(cond1**n, rel=1e-12)
        dense = stacked_design(dcqd.all_configurations(2))
        assert np.linalg.cond(dense) == pytest.approx(cond1**2, rel=1e-10)

    def test_degenerate_pair_design_rank(self):
        assert np.linalg.matrix_rank(dcqd.pair_scheme(0.8, 0.6).design) == 10

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

        monkeypatch.setattr(inversion.Scheme, "solve", never)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
            dcqd.reconstruct_from_probabilities(np.broadcast_to(0.0, (4**6, 4**6)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_solver_rejects_non_finite_data(self, bad):
        for n in (1, 2):
            probs = dcqd.all_outcome_probabilities(channels.depolarizing(0.1), n)
            probs[-1, 0] = bad
            with pytest.raises(InvalidDistributionError, match="NaN or infinite"):
                dcqd.reconstruct_from_probabilities(probs)
            # the scheme's own solve, which returned a NaN chi with a RuntimeWarning
            with pytest.raises(InvalidDistributionError, match="NaN or infinite"):
                dcqd.pair_scheme().solve(inversion.pair_axes(probs, n, 4))
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
