"""Property tests of the per-pair engine over random CP maps and amplitudes."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcqdlab import channels, dcqd, ops

# derandomized and without an example database, so every run draws the same
# examples; few examples keep the suite fast
PROPERTIES = settings(derandomize=True, database=None, max_examples=12, deadline=None)


@st.composite
def cp_maps(draw):
    """(n, Kraus set) of a random CP map on 1 or 2 qubits, TP or trace decreasing."""
    n = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 4**n))
    tp = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return n, channels.random_channel(n, rank=rank, trace_preserving=tp, seed=seed)


# theta away from pi/4 (|alpha| = |beta|), phi away from 0 and pi/2
# (Re or Im of alpha beta* vanishing), so every draw is well posed
amplitudes = st.builds(
    lambda theta, phi: (complex(math.cos(theta)), math.sin(theta) * cmath.exp(1j * phi)),
    st.floats(0.2, 0.6),
    st.floats(0.3, 1.25),
)


@PROPERTIES
@given(cp_maps(), amplitudes)
def test_inverse_undoes_forward(channel, amps):
    n, kraus = channel
    probs = dcqd.all_outcome_probabilities(kraus, n, *amps)
    result = dcqd.reconstruct_from_probabilities(probs, *amps)
    assert np.max(np.abs(result.chi - channels.chi_from_kraus(kraus))) < 1e-10


@PROPERTIES
@given(cp_maps(), amplitudes)
def test_forward_undoes_inverse(channel, amps):
    n, kraus = channel
    probs = dcqd.all_outcome_probabilities(kraus, n, *amps)
    chi = dcqd.reconstruct_from_probabilities(probs, *amps).chi
    again = dcqd.all_outcome_probabilities(channels.kraus_from_chi(chi), n, *amps)
    assert np.max(np.abs(probs - again)) < 1e-12


@PROPERTIES
@given(cp_maps(), amplitudes)
def test_chi_exactly_hermitian(channel, amps):
    n, kraus = channel
    probs = dcqd.all_outcome_probabilities(kraus, n, *amps)
    chi = dcqd.reconstruct_from_probabilities(probs, *amps).chi
    assert ops.hermiticity_deviation(chi) == 0.0


@PROPERTIES
@given(cp_maps(), amplitudes)
def test_all_pop_mass_is_chi_trace(channel, amps):
    n, kraus = channel
    probs = dcqd.all_outcome_probabilities(kraus, n, *amps)
    assert dcqd.all_configurations(n)[0] == (dcqd.POP,) * n
    chi = dcqd.reconstruct_from_probabilities(probs, *amps).chi
    assert math.isclose(probs[0].sum(), np.trace(chi).real, abs_tol=1e-12)
    # population in one measurement: outcome m of the all-pop row is chi_mm
    assert np.allclose(probs[0], np.diag(chi).real, rtol=0, atol=1e-12)
    assert np.allclose(probs[0], np.diag(channels.chi_from_kraus(kraus)).real, rtol=0, atol=1e-12)
