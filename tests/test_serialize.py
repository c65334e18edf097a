import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcqdlab import channels, dcqd, serialize
from dcqdlab.exceptions import DcqdLabError, InvalidChannelError


class TestParseChannelArg:
    def test_positional_probability(self):
        spec = serialize.parse_channel_arg("bit_flip:0.25")
        assert spec.kind == "bit_flip"
        assert spec.params == {"p": 0.25}

    def test_named_duration_form(self):
        spec = serialize.parse_channel_arg("amplitude_damping:t=1,T1=2")
        assert spec.params == {"t": 1.0, "T1": 2.0}

    def test_unitary_axis_angle(self):
        spec = serialize.parse_channel_arg("unitary:z,1.5708")
        assert spec.params == {"axis": "z", "angle": 1.5708}
        kraus = channels.kraus_from_spec(spec)
        assert len(kraus) == 1

    def test_identity_bare(self):
        assert serialize.parse_channel_arg("identity").kind == "identity"

    def test_file_reference(self, tmp_path):
        doc = {"kind": "phase_flip", "params": {"p": 0.125}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = serialize.parse_channel_arg(f"@{path}")
        assert spec.kind == "phase_flip"
        assert spec.params["p"] == 0.125

    @pytest.mark.parametrize(
        "bad",
        ["", "unknown_kind:0.5", "bit_flip:0.1,0.2", "bit_flip:abc", "composed:1"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidChannelError):
            serialize.parse_channel_arg(bad)


class TestSpecJson:
    def test_round_trip_with_operators(self):
        kraus = channels.amplitude_damping(gamma=0.3)
        spec = channels.ChannelSpec("explicit_kraus", operators=tuple(kraus))
        doc = serialize.spec_to_dict(spec)
        text = json.dumps(doc)
        back = serialize.spec_from_dict(json.loads(text))
        rebuilt = channels.kraus_from_spec(back)
        for a, b in zip(kraus, rebuilt):
            assert np.array_equal(a, b)

    def test_pair_encoding_row_major(self):
        m = np.array([[1 + 2j, 3], [0, -1j]])
        pairs = serialize.matrix_to_pairs(m)
        assert pairs == [[[1.0, 2.0], [3.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        assert np.array_equal(serialize.matrix_from_pairs(pairs), m)

    def test_composed_round_trip(self):
        spec = channels.ChannelSpec(
            "composed",
            stages=(
                channels.ChannelSpec("amplitude_damping", {"t": 1.0, "T1": 2.0}),
                channels.ChannelSpec("phase_damping", {"t": 1.0, "T2": 1.0}),
            ),
        )
        back = serialize.spec_from_dict(json.loads(json.dumps(serialize.spec_to_dict(spec))))
        assert back.stages[1].params == {"t": 1.0, "T2": 1.0}

    def test_malformed_documents(self):
        with pytest.raises(InvalidChannelError):
            serialize.spec_from_dict({"params": {}})
        with pytest.raises(InvalidChannelError):
            serialize.matrix_from_pairs([[["x", 0.0]]])


# JSON-like values, valid and not: null, booleans, numbers of any size
# including non-finite ones, numeric and non-numeric strings, short lists
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(["nan", "inf", "-1", "0.25", "1e308", "abc", "x", "z", "2"]),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2))
_PARAMS = st.dictionaries(
    st.sampled_from(["p", "gamma", "lambda", "t", "T1", "T2", "axis", "angle", "n"]),
    _VALUES,
    max_size=4,
)
_ENTRY = st.one_of(st.tuples(_SCALARS, _SCALARS).map(list), _VALUES)
_MATRIX = st.one_of(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(_ENTRY, min_size=d, max_size=d), min_size=d, max_size=d)
    ),
    _VALUES,
)
_LEAF = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(channels.CHANNEL_KINDS), _SCALARS)},
    optional={
        "params": st.one_of(_PARAMS, _SCALARS),
        "operators": st.one_of(st.lists(_MATRIX, max_size=2), _SCALARS),
    },
)
_DOCUMENTS = st.one_of(
    _SCALARS,
    st.recursive(
        _LEAF,
        lambda inner: st.fixed_dictionaries(
            {"kind": st.just("composed")},
            optional={"stages": st.one_of(st.lists(inner, max_size=3), _SCALARS)},
        ),
        max_leaves=4,
    ),
)


# compact flag text: a known kind, then numbers, names and separators
_FLAGS = st.builds(
    "{}:{}".format,
    st.sampled_from(channels.CHANNEL_KINDS),
    st.text(alphabet="0123456789.,=-+einafxyzT_", max_size=14),
)
FUZZ = settings(derandomize=True, database=None, max_examples=400, deadline=None)


def _finite_kraus_or_dcqdlab_error(make_spec):
    try:
        kraus = channels.kraus_from_spec(make_spec())
    except DcqdLabError:
        return
    assert all(np.isfinite(k).all() for k in kraus)


@FUZZ
@given(_DOCUMENTS)
def test_spec_documents_raise_only_dcqdlab_errors(doc):
    _finite_kraus_or_dcqdlab_error(lambda: serialize.spec_from_dict(doc))


@FUZZ
@given(_FLAGS)
@example("unitary:z,nan")
@example("identity:n=1.7")
@example("identity:n=1e400")
def test_channel_flags_raise_only_dcqdlab_errors(text):
    _finite_kraus_or_dcqdlab_error(lambda: serialize.parse_channel_arg(text))


class TestChiReport:
    def make_report(self):
        kraus = channels.rotation("y", 0.3)
        result = dcqd.characterize(kraus, 1)
        validation = channels.validate_chi(result.chi, trace_preserving=True)
        return serialize.chi_report(
            result.chi,
            method="dcqd",
            n_qubits=1,
            n_configurations=result.n_configurations,
            validation=validation,
            closed_form_residual=result.residual,
        ), result.chi

    def test_json_round_trip_is_bit_exact(self):
        report, chi = self.make_report()
        text = serialize.dump_json(report)
        back = serialize.chi_from_report(serialize.load_json(text))
        assert np.array_equal(back, chi)

    def test_report_fields(self):
        report, _ = self.make_report()
        assert report["kind"] == "chi_report"
        assert report["basis"] == ["I", "X", "Y", "Z"]
        assert report["validation"]["all_ok"] is True
        assert report["n_configurations"] == 4

    def test_csv_rows(self):
        report, chi = self.make_report()
        rows = serialize.chi_rows(report)
        assert len(rows) == 16
        assert rows[3] == {
            "row": "I",
            "col": "Z",
            "real": chi[0, 3].real,
            "imag": chi[0, 3].imag,
        }
        text = serialize.dump_csv(rows)
        assert text.splitlines()[0] == "row,col,real,imag"
        assert len(text.splitlines()) == 17


def test_infinity_encoding():
    assert serialize._finite_or_none(math.inf) == "inf"
    assert serialize._finite_or_none(2.0) == 2.0
    assert serialize._finite_or_none(None) is None
