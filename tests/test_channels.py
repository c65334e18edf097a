import math

import numpy as np
import pytest

from conftest import (
    actions_agree,
    chi_action,
    choi_from_kraus,
    kraus_action,
    naive_pauli_list,
    primary_action,
    random_density,
)
from dcqdlab import channels, dcqd, ops, resources, sampling, sqpt
from dcqdlab.exceptions import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidConfigurationError,
    NotCompletelyPositiveError,
)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


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

    def test_zero_chi_gives_one_zero_operator(self):
        kraus = channels.kraus_from_chi(np.zeros((4, 4)))
        assert len(kraus) == 1
        assert np.array_equal(kraus[0], np.zeros((2, 2)))

    def test_rejects_negative_chi(self):
        chi = np.diag([1.2, -0.2, 0, 0]).astype(complex)
        with pytest.raises(NotCompletelyPositiveError):
            channels.kraus_from_chi(chi)


@pytest.mark.parametrize(
    "convert",
    [
        channels.kraus_from_chi,
        channels.kraus_from_choi,
        channels.validate_chi,
        lambda m: channels.validate_chi(m, trace_preserving=True),
    ],
    ids=["kraus_from_chi", "kraus_from_choi", "validate_chi", "validate_chi_tp"],
)
@pytest.mark.parametrize(
    "matrix,error",
    [
        (5, DimensionMismatchError),
        (np.eye(3), DimensionMismatchError),
        (np.eye(4)[:, :3], DimensionMismatchError),
        (np.eye(1), DimensionMismatchError),
        (np.zeros((2, 4, 4)), DimensionMismatchError),
        (np.full((4, 4), np.nan), InvalidChannelError),
        (np.diag([1.0, 0.0, 0.0, np.inf]), InvalidChannelError),
        (np.diag([1.0, 0.0, 0.0, complex(0.0, np.nan)]), InvalidChannelError),
        ("abc", InvalidChannelError),
        ([["a"]], InvalidChannelError),
        ([["1", "0"], ["0", "1"]], InvalidChannelError),
        ([[1, 0], [0]], InvalidChannelError),
        (None, InvalidChannelError),
    ],
    ids=[
        "scalar", "3x3", "4x3", "1x1", "3d", "all_nan", "inf", "nan_imag", "string",
        "string_entry", "numeric_strings", "ragged", "none",
    ],
)
def test_chi_and_choi_inputs_checked(convert, matrix, error):
    # one check of shape and finiteness, before any eigendecomposition; the
    # strings raised numpy's "complex() arg is a malformed string" or were
    # parsed as numbers
    with pytest.raises(error):
        convert(matrix)


def test_choi_side_need_not_be_a_power_of_two():
    # a qutrit Choi matrix (d = 3) is a valid input; a 9 x 9 chi is not
    choi = np.zeros((9, 9), dtype=complex)
    choi[0, 0] = 1.0
    assert len(channels.kraus_from_choi(choi)) == 1
    with pytest.raises(DimensionMismatchError, match=r"4\*\*n"):
        channels.kraus_from_chi(choi)


def projector(psi):
    return np.outer(psi, np.conj(psi))


class TestApplyChannel:
    # the channel on the primary half of a pair, by the test oracle
    def test_identity_leaves_state(self):
        rho = projector(ops.bell_basis()[0])
        out = primary_action(channels.identity_channel(), rho, 2)
        assert np.allclose(out, rho, atol=1e-14)

    def test_full_bit_flip_maps_phi_to_psi(self):
        rho = projector(ops.bell_basis()[0])
        out = primary_action(channels.bit_flip(1.0), rho, 2)
        assert np.allclose(out, projector(ops.bell_basis()[1]), atol=1e-14)

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
        rho_f = primary_action(seq, projector(psi), 2)
        pop0 = (rho_f[0, 0] + rho_f[1, 1]).real
        assert pop0 == pytest.approx(1 - math.exp(-t1 / big_t1) * (1 - a**2), abs=1e-12)
        t_prime = t1 / big_t1 + t2 / big_t2
        assert rho_f[0, 3] == pytest.approx(math.exp(-t_prime / 2) * a * b, abs=1e-12)

    def test_trace_preserved_for_tp(self, rng):
        kraus = channels.random_channel(1, trace_preserving=True, rng=rng)
        for _ in range(3):
            rho = random_density(1, rng)
            out = kraus_action(kraus, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


class TestCompose:
    def test_identity_composition(self):
        seq = channels.compose(channels.identity_channel(), channels.identity_channel())
        rho = projector(np.array([1, 1j], dtype=complex) / math.sqrt(2))
        assert np.allclose(kraus_action(seq, rho), rho, atol=1e-14)

    def test_bit_flip_probabilities_add(self):
        p, q = 0.2, 0.3
        seq = channels.compose(channels.bit_flip(p), channels.bit_flip(q))
        chi = channels.chi_from_kraus(seq)
        r = p * (1 - q) + q * (1 - p)
        assert np.allclose(np.diag(chi).real, [1 - r, r, 0, 0], atol=1e-12)

    def test_kraus_count_multiplies(self):
        seq = channels.compose(channels.bit_flip(0.2), channels.depolarizing(0.1))
        assert len(seq) == 8

    def test_dimensions_must_match(self):
        with pytest.raises(DimensionMismatchError, match="cannot compose"):
            channels.compose(channels.bit_flip(0.1), channels.identity_channel(2))

    def test_order_matters(self, rng):
        first = channels.rotation("x", 0.9)
        second = channels.amplitude_damping(gamma=0.5)
        ab = channels.compose(first, second)
        rho = random_density(1, rng)
        direct = kraus_action(second, kraus_action(first, rho))
        assert np.allclose(kraus_action(ab, rho), direct, atol=1e-12)

    def test_tensor_product_channel(self, rng):
        # the i.i.d. expansion on two qubits acts as a (x) a on product states
        a = channels.amplitude_damping(gamma=0.4)
        joint = channels.as_kraus(a, 2)
        rho_a, rho_b = random_density(1, rng), random_density(1, rng)
        out = kraus_action(joint, np.kron(rho_a, rho_b))
        assert np.allclose(out, np.kron(kraus_action(a, rho_a), kraus_action(a, rho_b)), atol=1e-12)


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
        basis = np.array(ops.PAULIS)
        columns = [
            np.einsum("mn,nab,mbc->ac", unit.reshape(4, 4), basis, basis).ravel()
            for unit in np.eye(16)
        ]
        assert np.linalg.matrix_rank(np.array(columns).T) == 4


class TestRandomChannel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tp_channels_are_tp(self, n, rng):
        # the whitened input marginal at d = 2, 4 and 8
        for _ in range(5):
            kraus = channels.random_channel(n, trace_preserving=True, rng=rng)
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

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": -1}, {"seed": "x"}, {"seed": 1.5}, {"rng": "x"}, {"rng": 3}],
        ids=["negative", "str", "float", "rng-str", "rng-int"],
    )
    def test_seed_must_be_a_non_negative_integer(self, kwargs):
        # these raised numpy's errors, or the builtin AttributeError
        with pytest.raises(InvalidChannelError, match="seed|rng"):
            channels.random_channel(1, **kwargs)

    def test_rng_and_seed_not_both(self):
        # the seed was dropped: rng=g, seed=s drew from g alone
        with pytest.raises(InvalidChannelError, match="either rng or seed, not both"):
            channels.random_channel(1, rng=np.random.default_rng(1), seed=2)

    @pytest.mark.parametrize("rank", [2.5, 2.0, "2", True], ids=["2.5", "2.0", "str", "bool"])
    def test_rank_must_be_an_integer(self, rank):
        # these raised the builtin TypeError from inside numpy or a comparison
        with pytest.raises(InvalidChannelError, match="rank must be an integer"):
            channels.random_channel(1, rank=rank, seed=1)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_must_be_in_range(self, rank):
        with pytest.raises(InvalidChannelError, match=r"Kraus rank must be in 1\.\.4"):
            channels.random_channel(1, rank=rank, seed=1)


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
            (channels.ChannelSpec("unitary", operators=(PAULI_X,)), 1),
            (channels.ChannelSpec("identity"), 1),
        ]:
            assert len(channels.kraus_from_spec(spec)) == expect_len
        matrix = channels.kraus_from_spec(channels.ChannelSpec("unitary", operators=(PAULI_X,)))[0]
        assert np.array_equal(matrix, PAULI_X)

    @pytest.mark.parametrize("params", [None, [("p", 0.1)], "p=0.1"], ids=repr)
    def test_spec_params_must_be_a_mapping(self, params):
        # None and a list of pairs raised AttributeError ("no attribute 'items'")
        with pytest.raises(InvalidChannelError, match="params must be a mapping"):
            channels.kraus_from_spec(channels.ChannelSpec("bit_flip", params=params))

    def test_spec_must_be_a_channel_spec(self):
        with pytest.raises(InvalidChannelError, match="expected a ChannelSpec"):
            channels.kraus_from_spec("bit_flip:0.1")

    def test_parameter_ranges_enforced(self):
        with pytest.raises(InvalidChannelError):
            channels.kraus_from_spec(channels.ChannelSpec("bit_flip", {"p": 1.5}))
        with pytest.raises(InvalidChannelError):
            channels.amplitude_damping(t=1.0, T1=-2.0)
        with pytest.raises(InvalidChannelError):
            channels.amplitude_damping(gamma=0.1, t=1.0, T1=1.0)
        with pytest.raises(InvalidChannelError):
            channels.kraus_from_spec(channels.ChannelSpec("nonsense"))
        # a bool is no probability, as it is no register size (ops.is_integer)
        for p in (True, "0.1", None, 1j):
            with pytest.raises(InvalidChannelError, match="probability"):
                channels.bit_flip(p)
        # these raised the builtin AttributeError or TypeError
        for axis, angle in [(None, 1.0), ("x", "a"), ("x", None), ("x", 1j), (3, 1.0)]:
            with pytest.raises(InvalidChannelError, match="rotation"):
                channels.rotation(axis, angle)

    @pytest.mark.parametrize(
        "build,kwargs",
        [
            (channels.amplitude_damping, {"t": 1.0, "T1": math.nan}),
            (channels.amplitude_damping, {"t": math.nan, "T1": 2.0}),
            (channels.amplitude_damping, {"t": math.inf, "T1": math.inf}),
            (channels.phase_damping, {"t": 1.0, "T2": math.nan}),
            (channels.phase_damping, {"t": math.nan, "T2": 2.0}),
            # these raised the builtin TypeError
            (channels.amplitude_damping, {"t": "a", "T1": 1.0}),
            (channels.amplitude_damping, {"t": 1.0, "T1": "2"}),
            (channels.phase_damping, {"t": 1.0, "T2": "a"}),
            (channels.phase_damping, {"t": 1j, "T2": 1.0}),
        ],
    )
    def test_non_finite_time_arguments_rejected(self, build, kwargs):
        with pytest.raises(InvalidChannelError):
            build(**kwargs)

    @pytest.mark.parametrize(
        "kind,params,extra,message",
        [
            # these built the channel and ignored the unknown key
            ("depolarizing", {"p": 0.1, "q": 0.9}, {}, "no parameter 'q'; its parameters: 'p'"),
            ("amplitude_damping", {"t": 1, "T1": 2, "T2": 1}, {}, "'gamma', 't', 'T1'"),
            ("identity", {"p": 0.1}, {}, "its parameters: 'n'"),
            ("composed", {"p": 0.1}, {"stages": (channels.ChannelSpec("identity"),)}, "none"),
            ("explicit_kraus", {"n": 1}, {"operators": (np.eye(2),)}, "none"),
            ("unitary", {"axis": "x", "angle": 1, "p": 0}, {}, "no parameter 'p'"),
            # this used the matrix and dropped the axis and angle
            ("unitary", {"axis": "x", "angle": 1}, {"operators": (np.eye(2),)}, "not both"),
            # these built the channel and dropped the field the kind does not read
            ("bit_flip", {"p": 0.1}, {"operators": (np.eye(2),)}, "bit_flip spec takes no operators"),
            (
                "explicit_kraus", {},
                {"operators": (np.eye(2),), "stages": (channels.ChannelSpec("identity"),)},
                "explicit_kraus spec takes no stages",
            ),
            (
                "composed", {},
                {"stages": (channels.ChannelSpec("identity"),), "operators": (np.eye(2),)},
                "composed spec takes no operators",
            ),
            (
                "unitary", {"axis": "x", "angle": 1},
                {"stages": (channels.ChannelSpec("identity"),)},
                "unitary spec takes no stages",
            ),
            ("unitary", {}, {"operators": (PAULI_X, PAULI_X)}, "exactly one matrix"),
            ("unitary", {}, {"operators": (0.5 * PAULI_X,)}, "not trace preserving"),
        ],
        ids=["depolarizing", "amplitude_damping", "identity", "composed", "explicit_kraus",
             "unitary", "unitary_both", "bit_flip_operators", "explicit_kraus_stages",
             "composed_operators", "unitary_stages", "unitary_two_matrices",
             "unitary_not_unitary"],
    )
    def test_parameters_the_kind_does_not_take(self, kind, params, extra, message):
        spec = channels.ChannelSpec(kind, params, **extra)
        with pytest.raises(InvalidChannelError, match=message):
            channels.kraus_from_spec(spec)
        with pytest.raises(InvalidChannelError, match=message):
            channels.as_chi(spec, 1)

    def test_parameter_table_lists_every_kind(self):
        assert channels.CHANNEL_KINDS == tuple(channels.CHANNEL_PARAMS)
        for kind, spec in SPEC_OF_KIND.items():
            names, n_positional, reads, build = channels.CHANNEL_PARAMS[kind]
            assert set(spec.params) <= set(names)
            assert n_positional <= len(names)
            fields = {f for f in ("operators", "stages") if getattr(spec, f) is not None}
            assert fields <= {reads}
            if build is not None:
                # the spec is its row's builder on the row's parameters, bit for bit
                got = channels.kraus_from_spec(spec)
                want = build(*(spec.params.get(k) for k in names))
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

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
        want = kraus_action([np.kron(x, y) for x in a for y in a], rho)
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
    "string": "abc",
    "object_entry": [[[{}, 0], [0, 1]]],
    "none_entry": [[[None, 0], [0, 1]]],
    "ragged_operator": [[[1, 0], [0]]],
    "ragged_set": [np.eye(2), np.eye(4)],
    "one_dimensional": [np.array([1, 0])],
    "three_dimensional": [np.zeros((2, 2, 2))],
    "increases_trace": [np.eye(2), 0.5 * PAULI_X],
}

# the message of each malformed set, one stacked (K, d, d) array of numbers
# being the only accepted form
MALFORMED_KRAUS_MESSAGES = {
    "strings": "arrays of numbers",
    "string": "arrays of numbers",
    "object_entry": "arrays of numbers",
    "ragged_operator": "arrays of numbers",
    "ragged_set": r"share a square shape, got \(4, 4\)",
    "one_dimensional": r"share a square shape, got \(2,\)",
    "three_dimensional": r"share a square shape, got \(2, 2, 2\)",
    "not_square": r"share a square shape, got \(2, 4\)",
    "empty": "empty Kraus set",
    "not_power_of_two": "not a power of 2",
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
    # the structural check alone; these raised ValueError or IndexError
    for convert in (channels.chi_from_kraus, lambda k: channels.compose(k, channels.bit_flip(0.1))):
        with pytest.raises(InvalidChannelError, match=message):
            convert(kraus)


@pytest.mark.parametrize(
    "kraus,flag,message",
    [
        (BAD_RAW_KRAUS["increases_trace"], None, "Kraus set increases trace"),
        ([0.9 * np.eye(2)], True, "not trace preserving within"),
        (channels.bit_flip(0.1), False, "flagged non-trace-preserving"),
    ],
    ids=["increases", "flagged_tp", "flagged_non_tp"],
)
def test_trace_checks(kraus, flag, message):
    with pytest.raises(InvalidChannelError, match=message):
        channels.check_kraus(kraus, trace_preserving=flag)


@pytest.mark.parametrize("flag", [1, 0, "yes", "no", 1.0, np.int64(1)], ids=repr)
def test_check_kraus_flag_must_be_a_bool(flag):
    # np.True_ and 1 passed `is True` and skipped the TP requirement
    with pytest.raises(InvalidChannelError, match="trace_preserving must be a bool or None"):
        channels.check_kraus([0.5 * np.eye(2)], trace_preserving=flag)
    with pytest.raises(InvalidChannelError, match="not trace preserving"):
        channels.check_kraus([0.5 * np.eye(2)], trace_preserving=np.True_)
    assert len(channels.check_kraus(channels.bit_flip(0.1), trace_preserving=np.True_)) == 2


@pytest.mark.parametrize("flag", [None, 1, "no", 0.0], ids=repr)
def test_random_channel_flag_must_be_a_bool(flag):
    # "no" is truthy, so it drew a trace-preserving map
    with pytest.raises(InvalidChannelError, match="trace_preserving must be a bool"):
        channels.random_channel(1, trace_preserving=flag, seed=1)
    got, want = (channels.random_channel(1, trace_preserving=f, seed=1) for f in (np.False_, False))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("flag", [None, 1, "no", 0.0], ids=repr)
def test_validate_chi_flag_must_be_a_bool(flag):
    # "no" ran the TP check
    chi = channels.chi_from_kraus(channels.bit_flip(0.1))
    with pytest.raises(InvalidChannelError, match="trace_preserving must be a bool"):
        channels.validate_chi(chi, trace_preserving=flag)
    assert channels.validate_chi(chi, trace_preserving=np.True_).tp_ok is True
    assert channels.validate_chi(chi, trace_preserving=np.False_).tp_residual is None


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


class TestChi:
    def test_as_chi_returns_the_same_read_only_array(self):
        value = channels.Chi.of(channels.random_channel(2, seed=3), 2)
        assert channels.as_chi(value, 2) is value.matrix
        with pytest.raises(ValueError):
            value.matrix[0, 0] = 0

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_other_sizes(self, n):
        value = channels.Chi.of(channels.bit_flip(0.1), 2)
        with pytest.raises(DimensionMismatchError):
            channels.as_chi(value, n)

    def test_register_bound_first(self):
        value = channels.Chi.of(channels.bit_flip(0.1), 2)
        with pytest.raises(InvalidConfigurationError, match=r"16\*\*9"):
            channels.as_chi(value, 9)

    def test_bare_matrix_rejected(self):
        # a 4 x 4 array could be chi or a one-operator Kraus set on two qubits
        with pytest.raises(InvalidChannelError):
            channels.as_chi(channels.Chi.of(channels.bit_flip(0.1), 1).matrix, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_characterize_bit_for_bit(self, n, rng):
        for channel in (SPEC_OF_KIND["amplitude_damping"], channels.random_channel(n, rng=rng)):
            want = dcqd.characterize(channel, n)
            got = dcqd.characterize(channels.Chi.of(channel, n), n)
            assert np.array_equal(got.chi, want.chi)
            assert (got.design_cond, got.residual) == (want.design_cond, want.residual)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("tp", [True, False])
    def test_trace_preserving_as_validate_chi_judges(self, n, tp, rng):
        value = channels.Chi.of(channels.random_channel(1, trace_preserving=tp, rng=rng), n)
        assert value.trace_preserving is tp
        assert channels.validate_chi(value.matrix, trace_preserving=True).tp_ok is tp

    @pytest.mark.parametrize(
        "call",
        [
            channels.kraus_from_spec,
            channels.as_kraus,
            channels.check_kraus,
        ],
        ids=["kraus_from_spec", "as_kraus", "check_kraus"],
    )
    def test_not_a_kraus_set(self, call):
        # the builtin TypeError, AttributeError, and a message about array shapes before
        with pytest.raises(InvalidChannelError, match=r"kraus_from_chi\(value\.matrix\)"):
            call(channels.Chi.of(channels.bit_flip(0.1), 1))


# every public entry point that takes a register size n
REGISTER_ENTRY_POINTS = {
    "as_chi": lambda n: channels.as_chi(channels.bit_flip(0.1), n),
    "as_kraus": lambda n: channels.as_kraus(channels.bit_flip(0.1), n),
    "identity_channel": channels.identity_channel,
    "random_channel": lambda n: channels.random_channel(n, seed=1),
    "all_configurations": dcqd.all_configurations,
    "characterize": lambda n: dcqd.characterize(channels.bit_flip(0.1), n),
    "all_outcome_probabilities": lambda n: dcqd.all_outcome_probabilities(channels.bit_flip(0.1), n),
    "characterize_sampled": lambda n: sampling.characterize_sampled(
        channels.bit_flip(0.1), n, shots=10, seed=0
    ),
    "sqpt_characterize": lambda n: sqpt.sqpt_characterize(channels.bit_flip(0.1), n),
    "resource_counts": resources.resource_counts,
    "resource_table": lambda n: resources.resource_table([n]),
}


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(2.0), "2", True, np.bool_(True)], ids=repr)
@pytest.mark.parametrize("entry", sorted(REGISTER_ENTRY_POINTS))
def test_register_size_must_be_integer(entry, n):
    # 2.5 used to raise the builtin TypeError, True to pass as 1 and
    # resource_counts(2.5) to return float counts
    with pytest.raises(InvalidConfigurationError, match="integer"):
        REGISTER_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("entry", sorted(REGISTER_ENTRY_POINTS))
def test_numpy_integer_register_size(entry):
    want, got = (REGISTER_ENTRY_POINTS[entry](n) for n in (2, np.int64(2)))
    if entry == "characterize_sampled":
        want, got = want[0], got[0]
    np.testing.assert_equal(getattr(got, "chi", got), getattr(want, "chi", want))


def test_trace_gap_matches_naive_sum(rng):
    for tp in (False, True):
        kraus = channels.random_channel(3, trace_preserving=tp, rng=rng)
        assert len(kraus) == 64
        naive = np.eye(8) - sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(channels.trace_gap(kraus) - naive)) <= 1e-15
