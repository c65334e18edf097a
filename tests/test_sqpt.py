import time

import numpy as np
import pytest

from dcqdlab import channels, dcqd, inversion, ops, resources, serialize, sqpt
from dcqdlab.exceptions import InvalidConfigurationError


def test_plan_counts_and_span():
    result = sqpt.sqpt_characterize(channels.identity_channel(), 1)
    counts = sqpt._scheme().counts(1)
    assert counts["n_inputs"] == 4
    assert counts["n_measurements"] == 4
    assert result.n_configurations == 16
    result2 = sqpt.sqpt_characterize(channels.identity_channel(2), 2)
    assert result2.n_configurations == 256
    # the scheme runs the experiments that the resource table counts
    for n in range(1, resources.MAX_N + 1):
        assert sqpt._scheme().settings ** n == resources.resource_counts(n)["sqpt"]["n_experiments"]


def test_resource_counts_are_the_old_formulas():
    # the counts the table wrote by hand before it read them from the schemes
    for n in range(1, resources.MAX_N + 1):
        assert resources.resource_counts(n) == {
            "sqpt": {"hilbert_dim": 2**n, "n_inputs": 4**n, "n_measurements": 4**n, "n_experiments": 16**n},
            "aapt_nonseparable": {
                "hilbert_dim": 4**n, "n_inputs": 1, "n_measurements": 4**n + 1, "n_experiments": 4**n + 1,
            },
            "dcqd": {"hilbert_dim": 4**n, "n_inputs": 4**n, "n_measurements": 1, "n_experiments": 4**n},
        }
        assert all(type(v) is int for row in resources.resource_counts(n).values() for v in row.values())


@pytest.mark.parametrize("n", [np.int64(3), np.uint8(15), np.int32(1)], ids=repr)
def test_numpy_qubit_counts_give_python_ints(n):
    # np.int64(3) gave numpy int64 counts, which json refused to dump
    counts = resources.resource_counts(n)
    assert all(type(v) is int for row in counts.values() for v in row.values())
    rows = resources.resource_table([n])
    assert all(type(v) is int for row in rows for k, v in row.items() if k != "scheme")
    assert serialize.load_json(serialize.dump_json({"rows": rows}))["rows"] == rows


@pytest.mark.parametrize("scheme", [dcqd.pair_scheme, dcqd.optics_scheme, sqpt._scheme], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "n", [-1, 0, 16, 2.5, 2.0, True, "2", None, np.int64(16), np.int64(40)], ids=repr
)
def test_scheme_counts_judge_n(scheme, n):
    # counts(-1) gave 0.25, counts(2.5) 32.0, counts(True) 4 and counts("2")
    # the builtin TypeError, and numpy integers overflowed: SQPT's
    # n_experiments at np.int64(16) and the pair scheme's n_inputs at
    # np.int64(40) were 0
    with pytest.raises(InvalidConfigurationError, match=r"qubit count must be an integer in 1\.\.15"):
        scheme().counts(n)


@pytest.mark.parametrize("n", [15, np.int64(15), np.uint8(15)], ids=repr)
def test_scheme_counts_are_python_ints(n):
    counts = sqpt._scheme().counts(n)
    assert counts == {"n_inputs": 4**15, "n_measurements": 4**15, "n_experiments": 16**15}
    assert all(type(v) is int for v in counts.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_resource_rows_are_what_the_schemes_run(n):
    counts = resources.resource_counts(n)
    assert counts["dcqd"]["n_experiments"] == dcqd.characterize(channels.identity_channel(), n).n_configurations
    result = sqpt.sqpt_characterize(channels.identity_channel(), n)
    scheme_counts = sqpt._scheme().counts(n)
    assert (counts["sqpt"]["n_inputs"], counts["sqpt"]["n_measurements"], counts["sqpt"]["n_experiments"]) == (
        scheme_counts["n_inputs"], scheme_counts["n_measurements"], result.n_configurations,
    )


def test_register_size_guard(channel_untouched):
    # the shared bound of every entry point, checked before the channel is expanded
    with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
        sqpt.sqpt_characterize(channels.identity_channel(), 6)


def test_single_qubit_design():
    # 4 inputs x 4 Pauli expectations against the 16 entries of chi
    design = sqpt._scheme().design
    assert design.shape == (16, 16)
    assert np.linalg.matrix_rank(design) == 16
    assert np.linalg.cond(design) == pytest.approx(3.23, abs=0.01)


def test_diagnostics_at_every_n():
    # the result every scheme returns: 16**n configurations on a design of
    # rank 16**n and cond 3.23**n, with no closed form
    cond1 = np.linalg.cond(sqpt._scheme().design)
    for n in (1, 2, 3):
        result = sqpt.sqpt_characterize(channels.identity_channel(), n)
        assert type(result) is inversion.ReconstructionResult
        assert (result.n_qubits, result.n_configurations, result.design_rank) == (n, 16**n, 16**n)
        assert result.design_cond == pytest.approx(cond1**n, rel=1e-12)
        assert result.residual is None and result.chi_closed_form is None


def test_design_built_once_and_read_only(monkeypatch):
    calls = []
    original = sqpt._design

    def counting():
        calls.append(1)
        return original()

    monkeypatch.setattr(sqpt, "_design", counting)
    sqpt._scheme.cache_clear()
    for n in (1, 2, 1):
        sqpt.sqpt_characterize(channels.depolarizing(0.2), n)
    assert len(calls) == 1
    design = sqpt._scheme().design
    assert np.array_equal(design, original())
    with pytest.raises(ValueError):
        design[0, 0] = 1.0


def test_identity_channel():
    result = sqpt.sqpt_characterize(channels.identity_channel(), 1)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(result.chi, want, atol=1e-10)
    assert result.n_configurations == 16


@pytest.mark.parametrize("tp", [True, False])
def test_matches_ground_truth(tp, rng):
    kraus = channels.random_channel(1, trace_preserving=tp, rng=rng)
    chi_true = channels.chi_from_kraus(kraus)
    result = sqpt.sqpt_characterize(kraus, 1)
    assert np.linalg.norm(result.chi - chi_true) < 1e-9


@pytest.mark.parametrize("tp", [True, False])
def test_method_equivalence_with_dcqd(tp, rng):
    # same channel, two very different measurement strategies, same chi
    for _ in range(5):
        kraus = channels.random_channel(1, trace_preserving=tp, rng=rng)
        r_sqpt = sqpt.sqpt_characterize(kraus, 1)
        r_dcqd = dcqd.characterize(kraus, 1)
        assert np.max(np.abs(r_sqpt.chi - r_dcqd.chi)) < 1e-8
        assert (r_sqpt.n_configurations, r_dcqd.n_configurations) == (16, 4)


def test_two_qubit_baseline(rng):
    kraus = channels.random_channel(2, trace_preserving=True, rng=rng)
    chi_true = channels.chi_from_kraus(kraus)
    result = sqpt.sqpt_characterize(kraus, 2)
    assert np.linalg.norm(result.chi - chi_true) < 1e-8
    assert result.n_configurations == 256


@pytest.mark.parametrize("tp", [True, False])
def test_two_qubit_method_equivalence_with_dcqd(tp, rng):
    kraus = channels.random_channel(2, trace_preserving=tp, rng=rng)
    r_sqpt = sqpt.sqpt_characterize(kraus, 2)
    r_dcqd = dcqd.characterize(kraus, 2)
    assert np.max(np.abs(r_sqpt.chi - r_dcqd.chi)) < 1e-12
    assert ops.hermiticity_deviation(r_sqpt.chi) == 0.0


@pytest.mark.parametrize("kind", ["random", "iid"])
def test_three_qubit_baseline(kind, rng):
    if kind == "random":
        channel = channels.random_channel(3, trace_preserving=True, rng=rng)
    else:
        channel = channels.ChannelSpec(kind="amplitude_damping", params={"gamma": 0.3})
    start = time.perf_counter()
    result = sqpt.sqpt_characterize(channel, 3)
    elapsed = time.perf_counter() - start
    chi_true = channels.chi_from_kraus(channels.as_kraus(channel, 3))
    assert np.max(np.abs(result.chi - chi_true)) < 1e-10
    counts = sqpt._scheme().counts(3)
    assert (counts["n_inputs"], counts["n_measurements"], result.n_configurations) == (64, 64, 4096)
    assert elapsed < 1.0


def test_four_qubit_baseline_against_expanded_kraus():
    # the ground truth does not go through as_chi's Kronecker power; n = 5
    # is the largest register
    spec = channels.ChannelSpec(kind="amplitude_damping", params={"gamma": 0.3})
    for n in (4, 5):
        chi_true = channels.chi_from_kraus(channels.as_kraus(spec, n))
        result = sqpt.sqpt_characterize(spec, n)
        assert np.max(np.abs(result.chi - chi_true)) < 1e-10
        counts = sqpt._scheme().counts(n)
        assert (counts["n_inputs"], counts["n_measurements"], result.n_configurations) == (
            4**n,
            4**n,
            16**n,
        )


@pytest.mark.parametrize("n", [1, 2])
def test_resource_ratio_is_quartic(n):
    counts = resources.resource_counts(n)
    assert counts["sqpt"]["n_experiments"] // counts["dcqd"]["n_experiments"] == 4**n
