"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import time

import numpy as np

from dcqdlab import channels, dcqd, ops, relax, resources, sampling, sqpt
from dcqdlab.exceptions import IllPosedConfigurationError, InvalidConfigurationError


def verdict(number, passed, detail):
    status = "pass" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{status}] {detail}")
    assert passed, detail


def random_maps(count, n, rng, mix_tp=True):
    out = []
    for i in range(count):
        tp = bool(i % 2) if mix_tp else True
        out.append(channels.random_channel(n, trace_preserving=tp, rng=rng))
    return out


def test_01_error_detection_identity():
    # each Pauli error on half of phi+ fires its own Bell outcome with certainty
    start = time.perf_counter()
    worst = 1.0
    for m in range(4):
        q = dcqd.outcome_probabilities([ops.PAULIS[m]], (dcqd.POP,))
        worst = min(worst, q[m])
        others = np.delete(q, m)
        worst = min(worst, 1.0 - np.max(np.abs(others)))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst > 1.0 - 1e-12 and elapsed < 1.0,
        f"detection probability >= {worst:.15f} (tol 1e-12), {elapsed:.3f} s",
    )


def test_02_population_in_single_measurement():
    rng = np.random.default_rng(2)
    worst = 0.0
    for kraus in random_maps(100, 1, rng):
        truth = np.diag(channels.chi_from_kraus(kraus)).real
        diag = dcqd.outcome_probabilities(kraus, (dcqd.POP,))
        worst = max(worst, float(np.max(np.abs(diag - truth))))
    verdict(2, worst < 1e-10, f"100 random maps, max |chi_mm error| = {worst:.2e} < 1e-10")


def test_03_full_single_qubit_reconstruction():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst_frob = 0.0
    worst_residual = 0.0
    for kraus in random_maps(100, 1, rng):
        truth = channels.chi_from_kraus(kraus)
        result = dcqd.characterize(kraus, 1)
        worst_frob = max(worst_frob, float(np.linalg.norm(result.chi - truth)))
        worst_residual = max(worst_residual, result.residual)
    elapsed = time.perf_counter() - start
    verdict(
        3,
        worst_frob < 1e-9 and worst_residual < 1e-9 and elapsed < 10.0,
        f"100 maps (TP and non-TP): frob {worst_frob:.2e} < 1e-9, "
        f"closed-form residual {worst_residual:.2e} < 1e-9, {elapsed:.1f} s < 10 s",
    )


def test_04_two_qubit_reconstruction():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst = 0.0
    for kraus in random_maps(20, 2, rng, mix_tp=False):
        truth = channels.chi_from_kraus(kraus)
        result = dcqd.characterize(kraus, 2)
        assert result.n_configurations == 16
        worst = max(worst, float(np.linalg.norm(result.chi - truth)))
    elapsed = time.perf_counter() - start
    verdict(
        4,
        worst < 1e-8 and elapsed < 60.0,
        f"20 random TP maps, 16 configurations: frob {worst:.2e} < 1e-8, {elapsed:.1f} s < 60 s",
    )


def test_05_method_equivalence_and_advantage():
    rng = np.random.default_rng(5)
    worst = 0.0
    for kraus in random_maps(20, 1, rng):
        r_dcqd = dcqd.characterize(kraus, 1)
        r_sqpt = sqpt.sqpt_characterize(kraus, 1)
        worst = max(worst, float(np.max(np.abs(r_dcqd.chi - r_sqpt.chi))))
        assert (r_sqpt.n_configurations, r_dcqd.n_configurations) == (16, 4)
    verdict(
        5,
        worst < 1e-8,
        f"DCQD and SQPT agree entrywise to {worst:.2e} < 1e-8 while N_exp is 16 vs 4",
    )


def test_06_resource_table():
    ok = True
    for n in range(1, 5):
        counts = resources.resource_counts(n)
        ok &= counts["sqpt"] == {
            "hilbert_dim": 2**n,
            "n_inputs": 4**n,
            "n_measurements": 4**n,
            "n_experiments": 16**n,
        }
        ok &= counts["aapt_nonseparable"] == {
            "hilbert_dim": 4**n,
            "n_inputs": 1,
            "n_measurements": 4**n + 1,
            "n_experiments": 4**n + 1,
        }
        ok &= counts["dcqd"] == {
            "hilbert_dim": 4**n,
            "n_inputs": 4**n,
            "n_measurements": 1,
            "n_experiments": 4**n,
        }
    three = resources.resource_counts(3)
    four = resources.resource_counts(4)
    ok &= (three["sqpt"]["n_experiments"], three["dcqd"]["n_experiments"]) == (4096, 64)
    ok &= (four["sqpt"]["n_experiments"], four["dcqd"]["n_experiments"]) == (65536, 256)
    verdict(6, ok, "exact integer table for n=1..4 incl. 4096 -> 64 and 65536 -> 256")


def test_07_shot_noise_scaling():
    start = time.perf_counter()
    kraus = channels.amplitude_damping(gamma=0.35)
    medians = {}
    for shots in (10**4, 10**6):
        errors = [
            sampling.characterize_sampled(kraus, shots=shots, seed=seed)[1].frobenius_error
            for seed in range(20)
        ]
        medians[shots] = float(np.median(errors))
    ratio = medians[10**4] / medians[10**6]
    elapsed = time.perf_counter() - start
    verdict(
        7,
        3.3 <= ratio <= 30.0 and elapsed < 300.0,
        f"median error 1e4 shots / 1e6 shots = {ratio:.2f} in [3.3, 30] "
        f"(1/sqrt(N) predicts 10), {elapsed:.1f} s < 300 s",
    )


def test_08_partial_bell_analyzer():
    # the pop rows of the optics design: 0-2 the default analyzer, 3-5 its complement too
    design = dcqd.optics_scheme().design
    rank_single = np.linalg.matrix_rank(design[0:3])
    rank_double = np.linalg.matrix_rank(design[0:6])
    result = sampling.characterize_with_optics(channels.bit_flip(0.25))
    ok = (
        rank_single == 3
        and rank_double == 4
        and result.n_configurations == 2 * 4
        and abs(result.chi[1, 1].real - 0.25) < 1e-10
    )
    verdict(
        8,
        ok,
        f"merged outcomes: rank {rank_single} < 4; complementary setting restores rank "
        f"{rank_double} at 2x configurations ({result.n_configurations})",
    )


def test_09_t1_t2_joint_estimation():
    alpha, beta = math.sqrt(2 / 3), math.sqrt(1 / 3)
    sequence = channels.compose(
        channels.amplitude_damping(t=1.0, T1=2.0), channels.phase_damping(t=1.0, T2=1.0)
    )
    exact = relax.joint_estimate(sequence, alpha, beta, 1.0, 1.0)
    exact_ok = abs(exact.T1 - 2.0) < 1e-9 and abs(exact.T2 - 1.0) < 1e-9
    t1_errors, t2_errors = [], []
    for seed in range(20):
        est = relax.joint_estimate(sequence, alpha, beta, 1.0, 1.0, shots=10**6, seed=seed)
        t1_errors.append(abs(est.T1 - 2.0) / 2.0)
        t2_errors.append(abs(est.T2 - 1.0) / 1.0)
    med_t1, med_t2 = float(np.median(t1_errors)), float(np.median(t2_errors))
    verdict(
        9,
        exact_ok and med_t1 < 0.02 and med_t2 < 0.02,
        f"one configuration: exact (T1, T2) = ({exact.T1:.12f}, {exact.T2:.12f}); "
        f"1e6 shots median rel. errors {med_t1:.4f}, {med_t2:.4f} < 2%",
    )


def test_10_ill_posed_guard():
    s2 = 1 / math.sqrt(2)
    rejected_equal = rejected_real = rank_deficient = False
    try:
        dcqd.characterize(channels.identity_channel(), 1, alpha=s2, beta=s2)
    except InvalidConfigurationError:
        rejected_equal = True
    try:
        dcqd.characterize(channels.identity_channel(), 1, alpha=0.8, beta=0.6)
    except InvalidConfigurationError:
        rejected_real = True
    # even with validation bypassed, the solver refuses the singular system
    probs = [
        dcqd.outcome_probabilities(channels.identity_channel(), c, 0.8, 0.6)
        for c in dcqd.all_configurations(1)
    ]
    try:
        dcqd.reconstruct_from_probabilities(probs, alpha=0.8, beta=0.6)
    except IllPosedConfigurationError:
        rank_deficient = True
    verdict(
        10,
        rejected_equal and rejected_real and rank_deficient,
        "degenerate amplitudes rejected at validation and flagged rank-deficient at the solver",
    )
