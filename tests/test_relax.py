import cmath
import math

import numpy as np
import pytest

from conftest import primary_action
from dcqdlab import channels, dcqd, ops, relax
from dcqdlab.exceptions import (
    IllPosedInputError,
    InconsistentDataError,
    InvalidChannelError,
    InvalidConfigurationError,
    InvalidStateError,
    SaturationError,
)

ALPHA = math.sqrt(2 / 3)
BETA = math.sqrt(1 / 3)


def damping_sequence(t1, T1, t2, T2):
    return channels.compose(
        channels.amplitude_damping(t=t1, T1=T1), channels.phase_damping(t=t2, T2=T2)
    )


def final_state(alpha, beta, t1, T1, t2, T2):
    """The damped pair's density operator, by the test oracle (channel on the primary qubit)."""
    psi = np.array([alpha, 0, 0, beta], dtype=complex)
    return primary_action(damping_sequence(t1, T1, t2, T2), np.outer(psi, psi.conj()), 2)


class TestForwardModel:
    def test_zero_durations_leave_state(self):
        psi = np.array([ALPHA, 0, 0, BETA], dtype=complex)
        rho_f = final_state(ALPHA, BETA, 0.0, 2.0, 0.0, 1.0)
        assert np.allclose(rho_f, np.outer(psi, psi.conj()), atol=1e-14)

    def test_flip_probability_value(self):
        # Tr(P_minus rho_f) = gamma |beta|^2 = (1 - e^{-1/2})/3
        rho_f = final_state(ALPHA, BETA, 1.0, 2.0, 1.0, 1.0)
        p_minus = (rho_f[1, 1] + rho_f[2, 2]).real
        assert p_minus == pytest.approx((1 - math.exp(-0.5)) / 3, abs=1e-12)
        assert p_minus == pytest.approx(0.13116, abs=5e-6)

    def test_coherence_decay_factor(self):
        # <00|rho_f|11> = exp(-t'/(2 T2')) alpha beta*, t'/T2' = t1/T1 + t2/T2
        rho_f = final_state(ALPHA, BETA, 1.0, 2.0, 1.0, 1.0)
        assert rho_f[0, 3] == pytest.approx(math.exp(-0.75) * ALPHA * BETA, abs=1e-12)

    def test_matches_channel_composition_exactly(self):
        # the composed sequence equals the two channels applied in turn, and
        # its Bell readout is the coh_z row of the library's readout table
        alpha = 0.6 + 0.48j
        beta = math.sqrt(1 - abs(alpha) ** 2)
        psi = np.array([alpha, 0, 0, beta], dtype=complex)
        rho_in = np.outer(psi, psi.conj())
        in_turn = primary_action(
            channels.phase_damping(t=0.4, T2=0.8),
            primary_action(channels.amplitude_damping(t=0.7, T1=1.9), rho_in, 2),
            2,
        )
        rho_f = final_state(alpha, beta, 0.7, 1.9, 0.4, 0.8)
        assert np.allclose(rho_f, in_turn, atol=1e-14)
        bell = [np.vdot(b, rho_f @ b).real for b in ops.bell_basis()]
        q = dcqd.outcome_probabilities(damping_sequence(0.7, 1.9, 0.4, 0.8), (dcqd.COH_Z,), alpha, beta)
        assert np.allclose(q, bell, atol=1e-14)

    def test_rejects_bad_time_constants(self):
        with pytest.raises(InvalidChannelError):
            damping_sequence(1.0, -2.0, 1.0, 1.0)


class TestEstimateT1:
    def test_frozen_round_trip(self):
        p_minus = (1 - math.exp(-0.5)) / 3
        assert relax.estimate_T1(p_minus, 1.0, ALPHA, BETA) == pytest.approx(2.0, abs=1e-10)

    def test_no_decay_sentinel(self):
        assert relax.estimate_T1(0.0, 1.0, ALPHA, BETA) == math.inf

    def test_saturation(self):
        with pytest.raises(SaturationError):
            relax.estimate_T1(BETA**2, 1.0, ALPHA, BETA)

    def test_inconsistent_data(self):
        with pytest.raises(InconsistentDataError):
            relax.estimate_T1(BETA**2 + 0.05, 1.0, ALPHA, BETA)

    def test_negative_probability(self):
        with pytest.raises(InconsistentDataError, match="negative probability"):
            relax.estimate_T1(-0.1, 1.0, ALPHA, BETA)

    def test_ill_posed_input(self):
        with pytest.raises(IllPosedInputError):
            relax.estimate_T1(0.1, 1.0, 1.0, 0.0)

    def test_needs_positive_duration(self):
        with pytest.raises(InvalidStateError):
            relax.estimate_T1(0.1, 0.0, ALPHA, BETA)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability(self, bad):
        with pytest.raises(InconsistentDataError, match="finite"):
            relax.estimate_T1(bad, 1.0, ALPHA, BETA)

    @pytest.mark.parametrize("bad", ["a", None, "0.1", 0.1j])
    def test_non_number_probability(self, bad):
        # a string or None raised the builtin TypeError
        with pytest.raises(InconsistentDataError, match="finite"):
            relax.estimate_T1(bad, 1.0, ALPHA, BETA)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, "a", None])
    def test_bad_duration(self, bad):
        with pytest.raises(InvalidStateError, match="t1"):
            relax.estimate_T1(0.1, bad, ALPHA, BETA)

    @pytest.mark.parametrize("alpha,beta", [(math.nan, BETA), (0.9, 0.1), ("0.8", BETA)])
    def test_bad_amplitudes(self, alpha, beta):
        with pytest.raises(InvalidConfigurationError):
            relax.estimate_T1(0.1, 1.0, alpha, beta)

    def test_stabilizer_bias_of_amplitudes(self):
        # <Z^A> = |alpha|^2 - |beta|^2 whatever the phases: a complex pair
        # with the moduli of (ALPHA, BETA) inverts to the same T1
        p_minus = (1 - math.exp(-0.5)) / 3
        alpha, beta = ALPHA * cmath.exp(0.3j), BETA * cmath.exp(-1.1j)
        assert relax.estimate_T1(p_minus, 1.0, alpha, beta) == pytest.approx(2.0, abs=1e-10)


class TestEstimateT2:
    def test_no_dephasing_sentinel(self):
        t_prime, T2 = relax.estimate_T2(0.9428, 0.9428, 1.0, 1.0, math.inf)
        assert t_prime == 0.0
        assert T2 == math.inf

    def test_logarithm_identity(self):
        x_in = 2 * ALPHA * BETA
        t_prime, _ = relax.estimate_T2(x_in * math.exp(-0.5), x_in, 0.0, 1.0, math.inf)
        assert t_prime == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        x_in = 2 * ALPHA * BETA
        x_out = x_in * math.exp(-0.75)  # t1/T1 = 0.5, t2/T2 = 1.0
        t_prime, T2 = relax.estimate_T2(x_out, x_in, 1.0, 1.0, 2.0)
        assert t_prime == pytest.approx(1.5, abs=1e-10)
        assert T2 == pytest.approx(1.0, abs=1e-10)

    def test_nonpositive_ratio(self):
        with pytest.raises(InconsistentDataError):
            relax.estimate_T2(-0.1, 0.9, 1.0, 1.0, 2.0)
        with pytest.raises(InconsistentDataError):
            relax.estimate_T2(1.0, 0.9, 1.0, 1.0, 2.0)

    def test_zero_input_expectation(self):
        with pytest.raises(IllPosedInputError):
            relax.estimate_T2(0.0, 0.0, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["out", "in"])
    def test_non_finite_expectation(self, which, bad):
        x = {"out": 0.5, "in": 0.9, which: bad}
        with pytest.raises(InconsistentDataError, match="finite"):
            relax.estimate_T2(x["out"], x["in"], 1.0, 1.0, 2.0)


    @pytest.mark.parametrize(
        "name,bad",
        [
            ("T1", 0.0), ("T1", -1.0), ("T1", math.nan), ("T1", -math.inf), ("T1", "a"),
            ("t1", -1.0), ("t1", math.nan), ("t1", math.inf), ("t1", None),
            ("t2", -1.0), ("t2", "a"),
        ],
    )
    def test_bad_time_rejected(self, name, bad):
        # T1 = 0 raised ZeroDivisionError, a NaN gave T2 = nan, a negative
        # t1 or T1 a finite T2, and a string the builtin TypeError
        args = {"t1": 1.0, "t2": 1.0, "T1": 2.0, name: bad}
        with pytest.raises(InvalidStateError, match=name):
            relax.estimate_T2(0.5, 0.8, args["t1"], args["t2"], args["T1"])

    def test_infinite_T1_is_no_damping(self):
        x_in = 2 * ALPHA * BETA
        _, T2 = relax.estimate_T2(x_in * math.exp(-0.5), x_in, 1.0, 1.0, math.inf)
        assert T2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("which", ["out", "in"])
    def test_non_number_expectation(self, which):
        x = {"out": 0.5, "in": 0.9, which: "a"}
        with pytest.raises(InconsistentDataError, match="finite"):
            relax.estimate_T2(x["out"], x["in"], 1.0, 1.0, 2.0)


class TestJointEstimate:
    def test_exact_round_trip(self):
        est = relax.joint_estimate(damping_sequence(1.0, 2.0, 1.0, 1.0), ALPHA, BETA, 1.0, 1.0)
        assert est.T1 == pytest.approx(2.0, abs=1e-9)
        assert est.T2 == pytest.approx(1.0, abs=1e-9)
        assert est.t_prime_over_T2_prime == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("T1,T2", [(0.5, 0.4), (2.0, 1.0), (3.0, 5.0), (10.0, 0.3)])
    @pytest.mark.parametrize("t1,t2", [(0.2, 0.5), (1.0, 1.0)])
    def test_round_trip_grid(self, T1, T2, t1, t2):
        est = relax.joint_estimate(damping_sequence(t1, T1, t2, T2), ALPHA, BETA, t1, t2)
        assert est.T1 == pytest.approx(T1, rel=1e-9)
        assert est.T2 == pytest.approx(T2, rel=1e-9)

    def test_consistency_relation(self):
        est = relax.joint_estimate(damping_sequence(0.4, 1.7, 0.9, 0.6), ALPHA, BETA, 0.4, 0.9)
        assert est.t_prime_over_T2_prime == pytest.approx(
            est.t1 / est.T1 + est.t2 / est.T2, abs=1e-9
        )

    def test_uses_single_measurement(self, monkeypatch):
        # both estimates must come from one draw of one configuration row
        from dcqdlab import sampling

        calls = []
        original = sampling.sample

        def counting(scheme, data, shots, seed):
            calls.append(scheme.counts(np.ndim(data))["n_experiments"])
            return original(scheme, data, shots, seed)

        monkeypatch.setattr(sampling, "sample", counting)
        relax.joint_estimate(
            damping_sequence(1.0, 2.0, 1.0, 1.0), ALPHA, BETA, 1.0, 1.0, shots=1000, seed=0
        )
        assert calls == [1]

    @pytest.mark.parametrize("seed", [0, 17])
    def test_seeding_contract(self, seed):
        # the coh_z row is drawn with child 0 of SeedSequence(seed)
        seq, shots = damping_sequence(1.0, 2.0, 1.0, 1.0), 3000
        q = np.clip(dcqd.outcome_probabilities(seq, (dcqd.COH_Z,), ALPHA, BETA), 0.0, None)
        pvals = np.append(q, max(0.0, 1.0 - q.sum()))
        (child,) = np.random.SeedSequence(seed).spawn(1)
        freqs = np.random.default_rng(child).multinomial(shots, pvals / pvals.sum())[:-1] / shots
        T1 = relax.estimate_T1(float(freqs[1] + freqs[2]), 1.0, ALPHA, BETA)
        x_in = 2 * ALPHA * BETA
        _, T2 = relax.estimate_T2(float(freqs[0] + freqs[1] - freqs[2] - freqs[3]), x_in, 1.0, 1.0, T1)
        est = relax.joint_estimate(seq, ALPHA, BETA, 1.0, 1.0, shots=shots, seed=seed)
        assert (est.T1, est.T2) == (T1, T2)

    def test_sampled_accuracy(self):
        seq = damping_sequence(1.0, 2.0, 1.0, 1.0)
        est = relax.joint_estimate(seq, ALPHA, BETA, 1.0, 1.0, shots=10**6, seed=5)
        assert abs(est.T1 - 2.0) / 2.0 < 0.02
        assert abs(est.T2 - 1.0) < 0.02

    def test_seeded_reproducible(self):
        seq = damping_sequence(1.0, 2.0, 1.0, 1.0)
        a = relax.joint_estimate(seq, ALPHA, BETA, 1.0, 1.0, shots=5000, seed=2)
        b = relax.joint_estimate(seq, ALPHA, BETA, 1.0, 1.0, shots=5000, seed=2)
        assert (a.T1, a.T2) == (b.T1, b.T2)

    @pytest.mark.parametrize("alpha,beta", [(math.nan, BETA), (0.9, 0.1)])
    def test_bad_amplitudes_rejected_by_configuration(self, alpha, beta):
        with pytest.raises(InvalidConfigurationError):
            relax.joint_estimate(channels.identity_channel(), alpha, beta, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_non_finite_duration_rejected(self, which, bad):
        durations = {"t1": 1.0, "t2": 1.0, which: bad}
        with pytest.raises(InvalidStateError, match=which):
            relax.joint_estimate(
                damping_sequence(1.0, 2.0, 1.0, 1.0), ALPHA, BETA, durations["t1"], durations["t2"]
            )

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_non_number_duration_rejected(self, which):
        # raised the builtin TypeError
        durations = {"t1": 1.0, "t2": 1.0, which: "a"}
        with pytest.raises(InvalidStateError, match=which):
            relax.joint_estimate(
                damping_sequence(1.0, 2.0, 1.0, 1.0), ALPHA, BETA, durations["t1"], durations["t2"]
            )

    def test_no_decay_channel(self):
        est = relax.joint_estimate(channels.identity_channel(), ALPHA, BETA, 1.0, 1.0)
        assert est.T1 == math.inf
        assert est.T2 == math.inf
