import math

import numpy as np
import pytest

from conftest import (
    actions_agree,
    chi_action,
    choi_from_kraus,
    kraus_action,
    naive_pauli_list,
    random_density,
)
from dcqdlab import channels, dcqd, ops, sampling, sqpt
from dcqdlab.exceptions import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidConfigurationError,
    NotCompletelyPositiveError,
)


def amplitude_damping_total(sub=1.0):
    # gamma = 1: K0 = |0><0|, K1 = |0><1|
    return [
        np.array([[1, 0], [0, 0]], dtype=complex) * math.sqrt(sub),
        np.array([[0, 1], [0, 0]], dtype=complex) * math.sqrt(sub),
    ]


class TestChiFromKraus:
    def test_identity(self):
        chi = channels.chi_from_kraus(channels.identity_channel())
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.allclose(chi, want, atol=1e-14)

    def test_bit_flip_diagonal(self):
        chi = channels.chi_from_kraus(channels.bit_flip(0.25))
        assert np.allclose(chi, np.diag([0.75, 0.25, 0, 0]), atol=1e-14)
        # oracle: both routes agree on every Pauli-basis input
        assert actions_agree(
            lambda r: kraus_action(channels.bit_flip(0.25), r),
            lambda r: chi_action(chi, r, 1),
            n=1,
            atol=1e-12,
        )

    def test_total_amplitude_damping_entries(self):
        chi = channels.chi_from_kraus(amplitude_damping_total())
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.25
        want[1, 1] = want[2, 2] = 0.25
        want[1, 2] = -0.25j
        want[2, 1] = 0.25j
        assert np.allclose(chi, want, atol=1e-14)
        assert actions_agree(
            lambda r: kraus_action(amplitude_damping_total(), r),
            lambda r: chi_action(chi, r, 1),
            n=1,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reproduces_channel_on_random_maps(self, n, rng):
        kraus = channels.random_channel(n, trace_preserving=False, rng=rng)
        chi = channels.chi_from_kraus(kraus)
        assert actions_agree(
            lambda r: kraus_action(kraus, r),
            lambda r: chi_action(chi, r, n),
            n=n,
            atol=1e-10,
            rng=rng,
        )

    def test_unitary_chi_has_rank_one(self):
        chi = channels.chi_from_kraus(channels.rotation("y", 0.7))
        vals = np.sort(np.linalg.eigvalsh(chi))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(vals[-2]) < 1e-10


class TestKrausFromChi:
    def test_identity(self):
        chi = np.diag([1.0, 0, 0, 0]).astype(complex)
        kraus = channels.kraus_from_chi(chi)
        assert len(kraus) == 1
        assert np.allclose(np.abs(kraus[0]), np.eye(2), atol=1e-12)

    def test_bit_flip_equivalent_action(self):
        chi = np.diag([0.75, 0.25, 0, 0]).astype(complex)
        kraus = channels.kraus_from_chi(chi)
        assert actions_agree(
            lambda r: kraus_action(kraus, r),
            lambda r: kraus_action(channels.bit_flip(0.25), r),
            n=1,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tp", [True, False])
    def test_round_trip_preserves_action(self, n, tp, rng):
        kraus = channels.random_channel(n, trace_preserving=tp, rng=rng)
        chi = channels.chi_from_kraus(kraus)
        back = channels.kraus_from_chi(chi)
        assert np.allclose(channels.chi_from_kraus(back), chi, atol=1e-9)
        assert actions_agree(
            lambda r: kraus_action(kraus, r),
            lambda r: kraus_action(back, r),
            n=n,
            atol=1e-9,
            rng=rng,
        )

    def test_rejects_negative_chi(self):
        chi = np.diag([1.2, -0.2, 0, 0]).astype(complex)
        with pytest.raises(NotCompletelyPositiveError):
            channels.kraus_from_chi(chi)


class TestApplyChannel:
    def test_identity_leaves_state(self):
        rho = ops.projector(ops.bell_basis()[0])
        out = channels.apply_channel(channels.identity_channel(), rho, ancilla_dim=2)
        assert np.allclose(out, rho, atol=1e-14)

    def test_full_bit_flip_maps_phi_to_psi(self):
        rho = ops.projector(ops.bell_basis()[0])
        out = channels.apply_channel(channels.bit_flip(1.0), rho, ancilla_dim=2)
        assert np.allclose(out, ops.projector(ops.bell_basis()[1]), atol=1e-14)

    def test_damping_sequence_matches_stated_elements(self):
        # amplitude damping for t1 then phase damping for t2 on the primary
        # half of a|00> + b|11>:
        #   <00|rho_f|00> + <01|rho_f|01> = 1 - exp(-t1/T1) (1 - |a|^2)
        #   <00|rho_f|11> = exp(-t'/(2 T2')) a b*,  t'/T2' = t1/T1 + t2/T2
        a, b = math.sqrt(2 / 3), math.sqrt(1 / 3)
        t1, big_t1, t2, big_t2 = 1.25, 2.0, 0.75, 1.0
        psi = np.array([a, 0, 0, b], dtype=complex)
        seq = channels.compose(
            channels.amplitude_damping(t=t1, T1=big_t1),
            channels.phase_damping(t=t2, T2=big_t2),
        )
        rho_f = channels.apply_channel(seq, ops.projector(psi), ancilla_dim=2)
        pop0 = (rho_f[0, 0] + rho_f[1, 1]).real
        assert pop0 == pytest.approx(1 - math.exp(-t1 / big_t1) * (1 - a**2), abs=1e-12)
        t_prime = t1 / big_t1 + t2 / big_t2
        assert rho_f[0, 3] == pytest.approx(math.exp(-t_prime / 2) * a * b, abs=1e-12)

    def test_trace_preserved_for_tp(self, rng):
        kraus = channels.random_channel(1, trace_preserving=True, rng=rng)
        for _ in range(3):
            rho = random_density(1, rng)
            out = channels.apply_channel(kraus, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            channels.apply_channel(channels.bit_flip(0.5), np.eye(4) / 4)


class TestCompose:
    def test_identity_composition(self):
        seq = channels.compose(channels.identity_channel(), channels.identity_channel())
        rho = ops.projector(np.array([1, 1j], dtype=complex) / math.sqrt(2))
        assert np.allclose(channels.apply_channel(seq, rho), rho, atol=1e-14)

    def test_bit_flip_probabilities_add(self):
        p, q = 0.2, 0.3
        seq = channels.compose(channels.bit_flip(p), channels.bit_flip(q))
        chi = channels.chi_from_kraus(seq)
        r = p * (1 - q) + q * (1 - p)
        assert np.allclose(np.diag(chi).real, [1 - r, r, 0, 0], atol=1e-12)

    def test_kraus_count_multiplies(self):
        seq = channels.compose(channels.bit_flip(0.2), channels.depolarizing(0.1))
        assert len(seq) == 8

    def test_order_matters(self, rng):
        first = channels.rotation("x", 0.9)
        second = channels.amplitude_damping(gamma=0.5)
        ab = channels.compose(first, second)
        rho = random_density(1, rng)
        direct = kraus_action(second, kraus_action(first, rho))
        assert np.allclose(kraus_action(ab, rho), direct, atol=1e-12)

    def test_tensor_product_channel(self, rng):
        a = channels.bit_flip(0.3)
        b = channels.amplitude_damping(gamma=0.4)
        joint = channels.kraus_tensor(a, b)
        rho_a, rho_b = random_density(1, rng), random_density(1, rng)
        out = kraus_action(joint, np.kron(rho_a, rho_b))
        assert np.allclose(out, np.kron(kraus_action(a, rho_a), kraus_action(b, rho_b)), atol=1e-12)


class TestValidateChi:
    def test_generated_chi_passes(self, rng):
        kraus = channels.random_channel(1, trace_preserving=True, rng=rng)
        report = channels.validate_chi(channels.chi_from_kraus(kraus), trace_preserving=True)
        assert report.all_ok
        assert report.tp_residual < 1e-10

    def test_trace_violation_flagged(self):
        report = channels.validate_chi(np.diag([1.0, 0.5, 0, 0]).astype(complex))
        assert not report.trace_ok
        assert report.trace == pytest.approx(1.5)
        assert not report.all_ok

    def test_non_hermitian_flagged(self):
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 1] = 1.0
        report = channels.validate_chi(chi)
        assert not report.hermitian_ok

    def test_non_tp_channel_reports_residual(self):
        chi = channels.chi_from_kraus(amplitude_damping_total(sub=0.5))
        report = channels.validate_chi(chi, trace_preserving=True)
        assert report.tp_residual > 0.1
        assert not report.tp_ok
        assert channels.validate_chi(chi).all_ok  # fine as a non-TP map

    @pytest.mark.parametrize("tp", [True, False])
    def test_tp_residual_matches_double_sum(self, tp, rng):
        chi = channels.chi_from_kraus(channels.random_channel(3, trace_preserving=tp, rng=rng))
        paulis = naive_pauli_list(3)
        acc = sum(chi[m, k] * paulis[k] @ paulis[m] for m in range(64) for k in range(64))
        want = np.max(np.abs(acc - np.eye(8)))
        report = channels.validate_chi(chi, trace_preserving=True)
        assert report.tp_residual == pytest.approx(want, abs=1e-13)
        assert report.tp_ok is tp

    def test_tp_constraint_rank_is_four(self):
        # the TP condition sum_mn chi[m,n] E_n E_m = I removes exactly 4 of
        # the 16 parameters of a single-qubit chi: the map from chi to
        # sum_mn chi[m,n] E_n E_m has rank 4 (complex rank here, equal to
        # the real rank on Hermitian chi)
        basis = ops.pauli_basis(1)
        columns = [
            np.einsum("mn,nab,mbc->ac", unit.reshape(4, 4), basis, basis).ravel()
            for unit in np.eye(16)
        ]
        assert np.linalg.matrix_rank(np.array(columns).T) == 4


class TestRandomChannel:
    def test_tp_channels_are_tp(self, rng):
        for _ in range(5):
            kraus = channels.random_channel(1, trace_preserving=True, rng=rng)
            channels.check_kraus(kraus, trace_preserving=True)

    def test_non_tp_channels_decrease_trace(self, rng):
        kraus = channels.random_channel(1, trace_preserving=False, rng=rng)
        channels.check_kraus(kraus)
        chi = channels.chi_from_kraus(kraus)
        assert np.trace(chi).real < 1.0
        assert ops.min_eigenvalue(chi) > -1e-10

    def test_seeded_reproducible(self):
        a = channels.random_channel(1, seed=7)
        b = channels.random_channel(1, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rank_control(self, rng):
        kraus = channels.random_channel(1, rank=2, trace_preserving=True, rng=rng)
        assert len(kraus) == 2


class TestChoi:
    def test_round_trip_action(self, rng):
        kraus = channels.random_channel(2, trace_preserving=True, rng=rng)
        back = channels.kraus_from_choi(choi_from_kraus(kraus))
        assert actions_agree(
            lambda r: kraus_action(kraus, r),
            lambda r: kraus_action(back, r),
            n=2,
            atol=1e-9,
            rng=rng,
        )

    def test_identity_choi(self):
        choi = choi_from_kraus(channels.identity_channel())
        omega = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(choi, np.outer(omega, omega), atol=1e-14)


class TestSpecs:
    def test_named_kinds_build(self):
        for spec, expect_len in [
            (channels.ChannelSpec("bit_flip", {"p": 0.25}), 2),
            (channels.ChannelSpec("depolarizing", {"p": 0.1}), 4),
            (channels.ChannelSpec("amplitude_damping", {"gamma": 0.3}), 2),
            (channels.ChannelSpec("amplitude_damping", {"t": 1.0, "T1": 2.0}), 2),
            (channels.ChannelSpec("phase_damping", {"t": 1.0, "T2": 2.0}), 2),
            (channels.ChannelSpec("unitary", {"axis": "z", "angle": 0.5}), 1),
            (channels.ChannelSpec("identity"), 1),
        ]:
            assert len(channels.kraus_from_spec(spec)) == expect_len

    def test_parameter_ranges_enforced(self):
        with pytest.raises(InvalidChannelError):
            channels.kraus_from_spec(channels.ChannelSpec("bit_flip", {"p": 1.5}))
        with pytest.raises(InvalidChannelError):
            channels.amplitude_damping(t=1.0, T1=-2.0)
        with pytest.raises(InvalidChannelError):
            channels.amplitude_damping(gamma=0.1, t=1.0, T1=1.0)
        with pytest.raises(InvalidChannelError):
            channels.kraus_from_spec(channels.ChannelSpec("nonsense"))

    @pytest.mark.parametrize(
        "build,kwargs",
        [
            (channels.amplitude_damping, {"t": 1.0, "T1": math.nan}),
            (channels.amplitude_damping, {"t": math.nan, "T1": 2.0}),
            (channels.amplitude_damping, {"t": math.inf, "T1": math.inf}),
            (channels.phase_damping, {"t": 1.0, "T2": math.nan}),
            (channels.phase_damping, {"t": math.nan, "T2": 2.0}),
        ],
    )
    def test_non_finite_time_arguments_rejected(self, build, kwargs):
        with pytest.raises(InvalidChannelError):
            build(**kwargs)

    def test_infinite_time_constant_means_no_decay(self):
        assert np.allclose(channels.amplitude_damping(t=1.0, T1=math.inf)[0], np.eye(2))
        assert np.allclose(channels.phase_damping(t=1.0, T2=math.inf)[0], np.eye(2))

    def test_trace_gap(self):
        assert np.max(np.abs(channels.trace_gap(channels.depolarizing(0.3)))) < 1e-15
        gap = channels.trace_gap(amplitude_damping_total(sub=0.5))
        assert ops.min_eigenvalue(gap) > 0.1

    def test_composed_spec(self):
        spec = channels.ChannelSpec(
            "composed",
            stages=(
                channels.ChannelSpec("amplitude_damping", {"t": 1.0, "T1": 2.0}),
                channels.ChannelSpec("phase_damping", {"t": 1.0, "T2": 1.0}),
            ),
        )
        kraus = channels.kraus_from_spec(spec)
        want = channels.compose(
            channels.amplitude_damping(t=1.0, T1=2.0), channels.phase_damping(t=1.0, T2=1.0)
        )
        assert all(np.allclose(x, y) for x, y in zip(kraus, want))

    def test_composed_spec_is_bounded(self):
        # 8 depolarizing stages compose to 4**8 operators without the canonical set
        p = 0.15
        stages = tuple(channels.ChannelSpec("depolarizing", {"p": p}) for _ in range(8))
        kraus = channels.kraus_from_spec(channels.ChannelSpec("composed", stages=stages))
        assert len(kraus) <= 4
        want = channels.chi_from_kraus(channels.depolarizing(1 - (1 - p) ** 8))
        assert np.max(np.abs(channels.chi_from_kraus(kraus) - want)) < 1e-12

    def test_explicit_kraus_validated(self):
        bad = channels.ChannelSpec(
            "explicit_kraus", operators=(np.array([[2, 0], [0, 2]], dtype=complex),)
        )
        with pytest.raises(InvalidChannelError):
            channels.kraus_from_spec(bad)

    def test_as_kraus_tensor_extension(self, rng):
        kraus2 = channels.as_kraus(channels.bit_flip(0.25), n=2)
        assert kraus2[0].shape == (4, 4)
        rho = random_density(2, rng)
        a = channels.bit_flip(0.25)
        want = kraus_action(channels.kraus_tensor(a, a), rho)
        assert np.allclose(kraus_action(kraus2, rho), want, atol=1e-12)
        with pytest.raises(DimensionMismatchError):
            channels.as_kraus(channels.random_channel(2, seed=1), n=1)


BAD_RAW_KRAUS = {
    "nan": [np.full((2, 2), np.nan)],
    "trace_increasing": [5 * np.eye(2)],
    "not_square": [np.ones((2, 4))],
    "empty": [],
    "not_power_of_two": [np.eye(3)],
    "strings": [[["a", "b"], ["c", "d"]]],
    "object_entry": [[[{}, 0], [0, 1]]],
    "none_entry": [[[None, 0], [0, 1]]],
    "ragged_operator": [[[1, 0], [0]]],
    "ragged_set": [np.eye(2), np.eye(4)],
    "one_dimensional": [np.array([1, 0])],
    "three_dimensional": [np.zeros((2, 2, 2))],
}

# the message of each malformed set, one stacked (K, d, d) array of numbers
# being the only accepted form
MALFORMED_KRAUS_MESSAGES = {
    "strings": "arrays of numbers",
    "object_entry": "arrays of numbers",
    "ragged_operator": "arrays of numbers",
    "ragged_set": r"share a square shape, got \(4, 4\)",
    "one_dimensional": r"share a square shape, got \(2,\)",
    "three_dimensional": r"share a square shape, got \(2, 2, 2\)",
    "not_square": r"share a square shape, got \(2, 4\)",
    "empty": "empty Kraus set",
}


@pytest.mark.parametrize("case", sorted(BAD_RAW_KRAUS))
@pytest.mark.parametrize(
    "entry",
    [
        lambda k: dcqd.characterize(k, 1),
        lambda k: sampling.characterize_sampled(k, 1, shots=10, seed=0),
        lambda k: sqpt.sqpt_characterize(k, 1),
    ],
    ids=["characterize", "characterize_sampled", "sqpt_characterize"],
)
def test_raw_kraus_validated_at_entry_points(entry, case):
    with pytest.raises(InvalidChannelError):
        entry(BAD_RAW_KRAUS[case])


@pytest.mark.parametrize("case", sorted(MALFORMED_KRAUS_MESSAGES))
def test_malformed_kraus_message(case):
    kraus = BAD_RAW_KRAUS[case]
    message = MALFORMED_KRAUS_MESSAGES[case]
    with pytest.raises(InvalidChannelError, match=message):
        channels.check_kraus(kraus)
    with pytest.raises(InvalidChannelError, match=message):
        channels.as_chi(kraus, 1)


SPEC_OF_KIND = {
    "unitary": channels.ChannelSpec("unitary", {"axis": "x", "angle": 0.9}),
    "bit_flip": channels.ChannelSpec("bit_flip", {"p": 0.2}),
    "phase_flip": channels.ChannelSpec("phase_flip", {"p": 0.3}),
    "depolarizing": channels.ChannelSpec("depolarizing", {"p": 0.4}),
    "amplitude_damping": channels.ChannelSpec("amplitude_damping", {"gamma": 0.3}),
    "phase_damping": channels.ChannelSpec("phase_damping", {"lambda": 0.25}),
    "composed": channels.ChannelSpec(
        "composed",
        stages=(
            channels.ChannelSpec("amplitude_damping", {"t": 1.0, "T1": 2.0}),
            channels.ChannelSpec("depolarizing", {"p": 0.1}),
        ),
    ),
    "explicit_kraus": channels.ChannelSpec(
        "explicit_kraus",
        operators=tuple(channels.random_channel(1, trace_preserving=False, seed=5)),
    ),
    "identity": channels.ChannelSpec("identity"),
}


class TestAsChi:
    def test_every_kind_covered(self):
        assert sorted(SPEC_OF_KIND) == sorted(channels.CHANNEL_KINDS)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", channels.CHANNEL_KINDS)
    def test_spec_matches_expanded_kraus(self, kind, n):
        # a one-qubit spec on n qubits: Kronecker power of its 4 x 4 chi
        spec = SPEC_OF_KIND[kind]
        want = channels.chi_from_kraus(channels.as_kraus(spec, n))
        assert np.max(np.abs(channels.as_chi(spec, n) - want)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_raw_kraus_matches_expanded_kraus(self, n, rng):
        one_qubit = channels.random_channel(1, trace_preserving=False, rng=rng)
        n_qubit = channels.random_channel(n, rng=rng)
        for kraus in (one_qubit, n_qubit):
            want = channels.chi_from_kraus(channels.as_kraus(kraus, n))
            assert np.max(np.abs(channels.as_chi(kraus, n) - want)) <= 1e-15

    def test_rejects_other_sizes(self):
        with pytest.raises(DimensionMismatchError):
            channels.as_chi(channels.random_channel(2, seed=1), 3)

    @pytest.mark.parametrize(
        "n,message", [(0, "n=0"), (6, r"16\*\*6"), (8, r"16\*\*8")], ids=["n0", "n6", "n8"]
    )
    @pytest.mark.parametrize("channel", ["kraus", "spec"])
    def test_register_bound_before_allocation(self, n, message, channel, monkeypatch):
        # n = 8 would be a 64 GiB Kronecker power; neither the 4 x 4 chi nor
        # any Kronecker product may be built before the bound is checked
        def untouched(*args, **kwargs):
            raise AssertionError("chi built before the register size check")

        monkeypatch.setattr(channels, "chi_from_kraus", untouched)
        monkeypatch.setattr(np, "kron", untouched)
        arg = channels.bit_flip(0.1) if channel == "kraus" else SPEC_OF_KIND["bit_flip"]
        with pytest.raises(InvalidConfigurationError, match=message):
            channels.as_chi(arg, n)


def test_trace_gap_matches_naive_sum(rng):
    for tp in (False, True):
        kraus = channels.random_channel(3, trace_preserving=tp, rng=rng)
        assert len(kraus) == 64
        naive = np.eye(8) - sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(channels.trace_gap(kraus) - naive)) <= 1e-15
