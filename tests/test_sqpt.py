import time

import numpy as np
import pytest

from dcqdlab import channels, dcqd, inversion, ops, resources, sqpt
from dcqdlab.exceptions import InvalidConfigurationError


def test_plan_counts_and_span():
    result = sqpt.sqpt_characterize(channels.identity_channel(), 1)
    assert result.n_inputs == 4
    assert result.n_settings_per_input == 4
    assert result.n_experiments == 16
    result2 = sqpt.sqpt_characterize(channels.identity_channel(2), 2)
    assert result2.n_experiments == 256


def test_register_size_guard(monkeypatch):
    # the shared bound of every entry point, checked before the channel is expanded
    def untouched(*args, **kwargs):
        raise AssertionError("channel expanded before the size check")

    monkeypatch.setattr(channels, "as_kraus", untouched)
    with pytest.raises(InvalidConfigurationError, match=r"16\*\*6"):
        sqpt.sqpt_characterize(channels.identity_channel(), 6)


def test_single_qubit_design():
    # 4 inputs x 3 bases x 2 eigenvectors against the 16 entries of chi
    design = inversion.readout_design(sqpt._readout_table())
    assert design.shape == (24, 16)
    assert np.linalg.matrix_rank(design) == 16
    assert np.linalg.cond(design) == pytest.approx(5.59, abs=0.01)


def test_identity_channel():
    result = sqpt.sqpt_characterize(channels.identity_channel(), 1)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(result.chi, want, atol=1e-10)
    assert result.n_experiments == 16


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
        assert (r_sqpt.n_experiments, r_dcqd.n_configurations) == (16, 4)


def test_two_qubit_baseline(rng):
    kraus = channels.random_channel(2, trace_preserving=True, rng=rng)
    chi_true = channels.chi_from_kraus(kraus)
    result = sqpt.sqpt_characterize(kraus, 2)
    assert np.linalg.norm(result.chi - chi_true) < 1e-8
    assert result.n_experiments == 256


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
    assert (result.n_inputs, result.n_settings_per_input, result.n_experiments) == (64, 64, 4096)
    assert elapsed < 1.0


@pytest.mark.parametrize("n", [1, 2])
def test_resource_ratio_is_quartic(n):
    counts = resources.resource_counts(n)
    assert counts["sqpt"]["n_experiments"] // counts["dcqd"]["n_experiments"] == 4**n
