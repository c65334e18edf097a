import base64
import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NESTED_CHANNEL_FILES
from dcqdlab import channels, dcqd, ops, serialize
from dcqdlab.exceptions import DcqdLabError, DimensionMismatchError, InvalidChannelError


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

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"{\"kind\": ", "is not JSON"),
            (b"kind: identity", "is not JSON"),
            (b'{"kind": "identity", "params": {"label": "\xff"}}', "is not UTF-8"),
            (b"\xff\xfe{\x00}\x00", "is not UTF-8"),
            *((text.encode(), "nested too deeply") for text in NESTED_CHANNEL_FILES.values()),
        ],
        ids=["truncated", "yaml", "latin-1", "utf-16", *NESTED_CHANNEL_FILES],
    )
    def test_rejects_unreadable_file(self, content, message, tmp_path):
        # these raised json.JSONDecodeError, UnicodeDecodeError and (the deeply
        # nested files) RecursionError
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        for read in (serialize.parse_channel_arg, serialize.load_channel_arg):
            with pytest.raises(InvalidChannelError, match=message) as info:
                read(f"@{path}")
            assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "text,key",
        [
            ("bit_flip:0.1,p=0.3", "p"),
            ("bit_flip:p=0.1,p=0.3", "p"),
            ("unitary:z,1.5,axis=x", "axis"),
            ("amplitude_damping:t=1,T1=2,t=3", "t"),
        ],
    )
    def test_rejects_repeated_key(self, text, key):
        # the later value used to win
        with pytest.raises(InvalidChannelError, match=f"parameter '{key}' given twice"):
            serialize.parse_channel_arg(text)

    @pytest.mark.parametrize(
        "content",
        [
            '{"kind": "bit_flip", "params": {"p": 0.1, "p": 0.3}}',
            '{"kind": "bit_flip", "kind": "phase_flip", "params": {"p": 0.1}}',
            '{"kind": "composed", "stages": [{"kind": "identity", "params": {"n": 1, "n": 1}}]}',
        ],
        ids=["params", "top", "stage"],
    )
    def test_rejects_repeated_key_in_file(self, content, tmp_path):
        # json.loads keeps the last value of a repeated key
        path = tmp_path / "spec.json"
        path.write_text(content)
        for read in (serialize.parse_channel_arg, serialize.load_channel_arg):
            with pytest.raises(InvalidChannelError, match="twice") as info:
                read(f"@{path}")
            assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "source",
        [
            "depolarizing:p=0.1,q=0.9",
            '{"kind": "bit_flip", "params": {"p": 0.1, "q": 1}}',
            '{"kind": "unitary", "params": {"axis": "x", "angle": 1},'
            ' "operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
        ],
        ids=["flag", "file", "unitary_file"],
    )
    def test_parameters_the_kind_does_not_take(self, source, tmp_path):
        # parsed as they are; building the channel rejects them
        if source.startswith("{"):
            path = tmp_path / "spec.json"
            path.write_text(source)
            source = f"@{path}"
        spec = serialize.parse_channel_arg(source)
        with pytest.raises(InvalidChannelError, match="no parameter 'q'|not both"):
            channels.kraus_from_spec(spec)

    def test_unknown_kind_message_of_flag_and_file(self, tmp_path):
        # the flag form had its own message ("...; known kinds: ...")
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "bogus", "params": {"p": 0.5}}')
        messages = []
        for source in ("bogus:0.5", f"@{path}"):
            with pytest.raises(InvalidChannelError) as info:
                channels.kraus_from_spec(serialize.parse_channel_arg(source))
            messages.append(str(info.value))
        known = ", ".join(channels.CHANNEL_KINDS)
        assert messages == [f"unknown channel kind 'bogus' (known: {known})"] * 2

    def test_nested_spec_beyond_the_stack(self, tmp_path, monkeypatch):
        # where json.loads nests deeper than spec_from_dict can recurse
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "identity"}')

        def too_deep(doc):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(serialize, "spec_from_dict", too_deep)
        with pytest.raises(InvalidChannelError, match="nested too deeply") as info:
            serialize.load_channel_arg(f"@{path}")
        assert str(path) in str(info.value)


class TestChannelEcho:
    def test_flag_form_echoed_whole(self):
        spec, echo = serialize.load_channel_arg("amplitude_damping:t=1,T1=2")
        assert echo == serialize.spec_to_dict(spec)
        assert echo == {"kind": "amplitude_damping", "params": {"t": 1.0, "T1": 2.0}}
        assert serialize.load_channel_arg("unitary:z,1.5708")[1] == {
            "kind": "unitary", "params": {"axis": "z", "angle": 1.5708}
        }

    def test_flag_form_non_finite_params_echoed_as_text(self):
        # an unknown key is parsed as a number too
        spec, echo = serialize.load_channel_arg("amplitude_damping:t=1,T1=inf,note=nan")
        assert spec.params["T1"] == math.inf
        assert echo == {
            "kind": "amplitude_damping", "params": {"t": 1.0, "T1": "inf", "note": "nan"}
        }
        serialize.dump_json(echo)

    def test_file_echoed_by_digest_and_operator_count(self, tmp_path):
        kraus = channels.amplitude_damping(gamma=0.3)
        spec = channels.ChannelSpec("explicit_kraus", operators=tuple(kraus))
        path = tmp_path / "ad.json"
        path.write_text(json.dumps(serialize.spec_to_dict(spec)), encoding="utf-8")
        loaded, echo = serialize.load_channel_arg(f" @{path} ")
        assert echo == {
            "kind": "explicit_kraus",
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "n_operators": 2,
        }
        for a, b in zip(loaded.operators, kraus):
            assert np.array_equal(a, b)

    def test_file_without_operators_has_no_count(self, tmp_path):
        path = tmp_path / "pf.json"
        path.write_bytes(b'{"kind": "phase_flip", "params": {"p": 0.125}}')
        spec, echo = serialize.load_channel_arg(f"@{path}")
        assert spec.params == {"p": 0.125}
        assert echo == {"kind": "phase_flip", "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


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
        # ints and floats, signed zeros too, are read bit for bit
        pairs = [[[1, -0.0], [0.25, 2]], [[-3, 1e-300], [0.0, -1]]]
        want = np.array([[complex(float(re), float(im)) for re, im in row] for row in pairs])
        assert serialize.matrix_from_pairs(pairs).tobytes() == want.tobytes()

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
        # a bool or numeric text was read as a number, as float() reads it
        for entry in (True, False, "1", "0.5"):
            for pair in ([entry, 0], [0, entry]):
                with pytest.raises(InvalidChannelError, match="malformed complex matrix"):
                    serialize.matrix_from_pairs([[pair, [0, 0]], [[0, 0], [1, 0]]])


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
        text = "".join(serialize.chi_csv(report))
        rows = _csv_entries(text)
        assert len(rows) == 16
        assert rows[3] == {
            "row": "I",
            "col": "Z",
            "real": chi[0, 3].real,
            "imag": chi[0, 3].imag,
        }
        assert text.splitlines()[0] == "row,col,real,imag"
        assert len(text.splitlines()) == 17

    def test_csv_of_no_rows_is_empty(self):
        assert serialize.dump_csv([]) == ""


def _bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def _awkward_chi(n: int) -> np.ndarray:
    """A 4**n x 4**n matrix with signed zeros and subnormal entries."""
    rng = np.random.default_rng(n)
    d = 4**n
    chi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    chi[0, 0] = complex(-0.0, 5e-324)
    chi[0, 1] = complex(2.2250738585072014e-308 / 3, -0.0)
    chi[1, 0] = complex(-0.0, -0.0)
    chi[-1, -1] = complex(-1e-310, 1e-300)
    return chi


def _csv_entries(text: str) -> list[dict]:
    """The entries of a chi CSV, their parts read back as floats."""
    return [
        {**row, "real": float(row["real"]), "imag": float(row["imag"])}
        for row in csv.DictReader(io.StringIO(text))
    ]


def _report_of(chi: np.ndarray, n: int) -> dict:
    return serialize.chi_report(
        chi, method="dcqd", n_qubits=n, n_configurations=4**n,
        validation=channels.validate_chi(chi),
    )


class TestChiEncoding:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_is_bit_exact(self, n):
        chi = _awkward_chi(n)
        report = _report_of(chi, n)
        assert set(report["chi"]) == {"encoding", "shape", "data"}
        assert report["chi"]["encoding"] == "base64-complex128-le"
        assert report["chi"]["shape"] == [4**n, 4**n]
        back = serialize.chi_from_report(serialize.load_json(serialize.dump_json(report)))
        assert back.dtype == complex and back.flags.writeable
        assert np.array_equal(_bits(back), _bits(chi))

    def test_data_is_little_endian_row_major(self):
        chi = np.arange(16, dtype=float).reshape(4, 4) * (1 - 2j)
        raw = base64.b64decode(serialize.encode_chi(chi)["data"])
        assert raw == chi.astype("<c16").tobytes(order="C")

    @pytest.mark.parametrize("n", [1, 3])
    def test_list_form_decodes_to_same_bits(self, n):
        # the form of reports written before the base64 encoding
        chi = _awkward_chi(n)
        report = _report_of(chi, n)
        del report["chi"]
        report["chi_real"], report["chi_imag"] = chi.real.tolist(), chi.imag.tolist()
        back = serialize.chi_from_report(serialize.load_json(serialize.dump_json(report)))
        assert np.array_equal(_bits(back), _bits(chi))

    def test_csv_rows_match_list_form(self):
        chi = _awkward_chi(2)
        text = "".join(serialize.chi_csv(_report_of(chi, 2)))
        rows = _csv_entries(text)
        labels = ops.pauli_labels(2)
        assert [(r["row"], r["col"]) for r in rows] == [(a, b) for a in labels for b in labels]
        assert [r["real"] for r in rows] == [v for row in chi.real.tolist() for v in row]
        assert [r["imag"] for r in rows] == [v for row in chi.imag.tolist() for v in row]
        assert "-0.0" in text

    @pytest.mark.parametrize(
        "basis", [["I", "X", "Y"], ["I", "X", "Y", "Z"], None], ids=["three-labels", "n1-labels", "no-basis"]
    )
    def test_csv_labels_come_from_chi(self, basis):
        # the labels were zipped from report["basis"]: three of them wrote 3
        # rows of a 16 x 16 chi, the n = 1 labels 4 x 4 entries, and a report
        # without them raised the builtin KeyError
        chi = _awkward_chi(2)
        report = _report_of(chi, 2)
        expected = "".join(serialize.chi_csv(report))
        if basis is None:
            del report["basis"]
        else:
            report["basis"] = basis
        assert "".join(serialize.chi_csv(report)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_csv_matches_dict_writer(self, n):
        # the per-entry dicts that csv.DictWriter wrote before the chi CSV was
        # formatted directly, kept here as the oracle of its bytes
        chi = _awkward_chi(n)
        chi[0, 2] = complex(1e-5, -1e16)
        chi[2, 0] = complex(-1e16, 1e-5)
        chi[-1, 0] = complex(5e-324, -0.0)
        report = _report_of(chi, n)
        labels = report["basis"]
        re, im = chi.real.tolist(), chi.imag.tolist()
        entries = [
            {"row": labels[m], "col": labels[k], "real": re[m][k], "imag": im[m][k]}
            for m in range(len(labels))
            for k in range(len(labels))
        ]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(entries[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(entries)
        chunks = list(serialize.chi_csv(report))
        # the header, then one chunk of 4**n lines per chi row
        assert len(chunks) == 1 + 4**n
        assert all(chunk.count("\n") == 4**n for chunk in chunks[1:])
        assert "".join(chunks) == buf.getvalue()
        assert "1e-05" in chunks[1] and "-1e+16" in chunks[1] and "5e-324" in chunks[-1]


def _encoded(chi, **override) -> dict:
    return {"chi": {**serialize.encode_chi(chi), **override}}


_EYE4 = np.eye(4, dtype=complex)


@pytest.mark.parametrize(
    "report,error",
    [
        ([], InvalidChannelError),
        ({}, InvalidChannelError),
        ({"chi_real": _EYE4.real.tolist()}, InvalidChannelError),
        ({"chi": "AAAA"}, InvalidChannelError),
        ({"chi": {"shape": [4, 4], "data": ""}}, InvalidChannelError),
        (_encoded(_EYE4, encoding="base64-complex64-le"), InvalidChannelError),
        (_encoded(_EYE4, data="not base64!"), InvalidChannelError),
        (_encoded(_EYE4, data=None), InvalidChannelError),
        (_encoded(_EYE4, data="é"), InvalidChannelError),
        (_encoded(_EYE4, shape=[4, 3]), InvalidChannelError),
        (_encoded(_EYE4, shape=[16]), InvalidChannelError),
        (_encoded(_EYE4, shape=[4.0, 4.0]), InvalidChannelError),
        (_encoded(_EYE4, shape=[-4, -4]), InvalidChannelError),
        (_encoded(_EYE4, data=serialize.encode_chi(_EYE4)["data"][:-4]), InvalidChannelError),
        (_encoded(np.eye(2)), DimensionMismatchError),
        (_encoded(np.zeros((4, 16))), DimensionMismatchError),
        (_encoded(np.diag([1, 0, 0, math.nan])), InvalidChannelError),
        ({"chi_real": [[1.0, 0.0], [0.0]], "chi_imag": [[0.0, 0.0], [0.0]]}, InvalidChannelError),
        ({"chi_real": [["x"] * 4] * 4, "chi_imag": [[0.0] * 4] * 4}, InvalidChannelError),
        # these decoded to diag(1, 0, 0, 1): the text "1" and the boolean true read as numbers
        (
            {"chi_real": [["1", 0, 0, 0], [0] * 4, [0] * 4, [0, 0, 0, 1]], "chi_imag": [[0] * 4] * 4},
            InvalidChannelError,
        ),
        (
            {"chi_real": [[1, 0, 0, 0], [0] * 4, [0] * 4, [0, 0, 0, True]], "chi_imag": [[0] * 4] * 4},
            InvalidChannelError,
        ),
        ({"chi_real": [[1e400] * 4] * 4, "chi_imag": [[0.0] * 4] * 4}, InvalidChannelError),
        ({"chi_real": [[10**400] * 4] * 4, "chi_imag": [[0.0] * 4] * 4}, InvalidChannelError),
        ({"chi_real": _EYE4.real.tolist(), "chi_imag": [[0.0] * 4]}, InvalidChannelError),
        ({"chi_real": np.eye(3).tolist(), "chi_imag": np.zeros((3, 3)).tolist()}, DimensionMismatchError),
    ],
    ids=[
        "not-object", "no-chi", "no-imag", "chi-string", "no-encoding", "unknown-encoding",
        "bad-base64", "data-null", "data-non-ascii", "byte-count", "shape-1d", "shape-floats",
        "shape-negative", "truncated", "2x2", "not-square", "nan", "ragged-lists",
        "text-entries", "numeric-text-entry", "bool-entry", "inf-entries", "huge-int-entries", "list-shapes-differ", "3x3-lists",
    ],
)
def test_malformed_report_rejected(report, error):
    # these raised KeyError, numpy's ValueError or returned a broadcast sum
    with pytest.raises(error):
        serialize.chi_from_report(report)


def test_infinity_encoding():
    assert serialize._finite_or_none(math.inf) == "inf"
    assert serialize._finite_or_none(2.0) == 2.0
    assert serialize._finite_or_none(None) is None
