"""Channel-spec parsing and report serialization.

Channel specs cross the CLI boundary either as compact flag text
("bit_flip:0.25", "amplitude_damping:t=1,T1=2", "unitary:z,1.5708") or as
JSON documents ("@file.json") with the schema

    {"kind": "...", "params": {...},
     "operators": [matrix, ...],        # unitary / explicit_kraus
     "stages": [spec, ...]}             # composed

where a matrix is a row-major list of rows of [re, im] pairs -- exactly
representable and diff friendly.  One table, `channels.CHANNEL_PARAMS`,
says for each kind which parameters it takes (JSON numbers, but the text
`axis`), how many the flag form takes by position, which of the two lists
it reads and what builds it; a kind that reads a list and takes no
parameter is given as a file only.  `load_channel_arg` reads both forms;
a spec's parameters are judged once, when `channels.kraus_from_spec`
builds it.  A spec read from a file is echoed into reports by the
SHA-256 digest of the file's bytes (and its operator count), not by its
operators.

A process-matrix report stores chi once, as `encode_chi` writes it: the
base64 text of its little-endian complex128 bytes, with its shape.  Encoding
and decoding are linear in the number of entries and bit-exact; the report
also carries the Pauli-string index legend.  `chi_csv` gives the
per-entry, human-readable CSV view, one `row,col,real,imag` line per entry,
written one chi row at a time; the other CSV reports go through `dump_csv`.
"""

from __future__ import annotations

import base64
import csv
import dataclasses
import hashlib
import io
import json
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from . import channels, ops
from .exceptions import InvalidChannelError


def parse_channel_arg(text: str) -> channels.ChannelSpec:
    """Parse a --channel value, flag text or @file, into a ChannelSpec (`load_channel_arg`)."""
    return load_channel_arg(text)[0]


def load_channel_arg(text: str) -> tuple[channels.ChannelSpec, dict]:
    """A --channel value's ChannelSpec and its echo for reports.

    The kind's row of `channels.CHANNEL_PARAMS` gives the names of a flag's
    positional values; every value but `channels.TEXT_PARAM` is a number.
    A flag-form spec is echoed whole, in `spec_to_dict`'s form, with a
    non-finite number (T1=inf) written as its repr, as `_finite_or_none`
    writes one, so the echo stays strict JSON; an @file spec by its kind,
    the SHA-256 digest of the file's bytes and, when the file lists
    operators, their count.  Which parameters the kind takes, and their
    values, are judged once, when the spec is built
    (`channels.kraus_from_spec`).
    """
    text = text.strip()
    if not text:
        raise InvalidChannelError("empty channel specification")
    if text.startswith("@"):
        return _read_channel_file(text[1:])
    kind, _, arg_text = text.partition(":")
    kind = kind.strip()
    names, n_positional, reads, _ = channels.kind_row(kind)
    if reads and not names:
        raise InvalidChannelError(f"{kind} channels must be given as a JSON file (@file.json)")
    params: dict = {}
    if arg_text:
        for i, piece in enumerate(arg_text.split(",")):
            piece = piece.strip()
            if "=" in piece:
                key, _, raw = piece.partition("=")
                key = key.strip()
            else:
                if i >= n_positional:
                    raise InvalidChannelError(
                        f"too many positional parameters for {kind!r} in {text!r}"
                    )
                key, raw = names[i], piece
            if key in params:
                raise InvalidChannelError(f"parameter {key!r} given twice in channel {text!r}")
            params[key] = raw.strip() if key == channels.TEXT_PARAM else _parse_number(raw, text)
    # a flag param is a float (an unknown key's too) or the axis string
    echo = {k: v if isinstance(v, str) else _finite_or_none(v) for k, v in params.items()}
    spec = channels.ChannelSpec(kind=kind, params=params)
    return spec, {"kind": kind, "params": echo} if echo else {"kind": kind}


def _read_channel_file(path: str) -> tuple[channels.ChannelSpec, dict]:
    """Read a channel file once, as bytes, into its spec and digest echo.

    A key given twice in one JSON object raises `InvalidChannelError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    def unique_keys(pairs: list) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise InvalidChannelError(f"channel file {path!r} gives key {key!r} twice")
            obj[key] = value
        return obj

    try:
        spec = spec_from_dict(json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys))
    except UnicodeDecodeError:
        raise InvalidChannelError(f"channel file {path!r} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InvalidChannelError(f"channel file {path!r} is not JSON: {exc}") from None
    except RecursionError:
        # from json.loads or spec_from_dict, whichever runs out of stack first
        raise InvalidChannelError(f"channel file {path!r} is nested too deeply to read") from None
    echo = {"kind": spec.kind, "sha256": hashlib.sha256(data).hexdigest()}
    if spec.operators is not None:
        echo["n_operators"] = len(spec.operators)
    return spec, echo


def _parse_number(raw: str, context: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InvalidChannelError(f"cannot parse number {raw!r} in channel {context!r}") from None


# ---------------------------------------------------------------------------
# JSON encoding of specs and matrices
# ---------------------------------------------------------------------------


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Row-major [re, im] pair encoding of a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_pairs(rows) -> np.ndarray:
    """The complex matrix of row-major [re, im] pairs of numbers, or `InvalidChannelError`."""
    try:
        parts = [x for row in rows for re, im in row for x in (re, im)]
        # json reads a number as an int or a float; a bool, text or null is
        # rejected as a spec parameter is, and so is an int beyond every float
        if len({len(row) for row in rows}) <= 1 and set(map(type, parts)) <= {int, float}:
            return np.array(parts, dtype=float).view(complex).reshape(len(rows), -1)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidChannelError(f"malformed complex matrix, not rows of [re, im] numbers: {rows!r:.80}")


def spec_to_dict(spec: channels.ChannelSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.params:
        out["params"] = {k: v for k, v in spec.params.items()}
    if spec.operators is not None:
        out["operators"] = [matrix_to_pairs(op) for op in spec.operators]
    if spec.stages is not None:
        out["stages"] = [spec_to_dict(s) for s in spec.stages]
    return out


def spec_from_dict(data: dict) -> channels.ChannelSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidChannelError("channel JSON must be an object with a 'kind' field")
    kind = data["kind"]
    params = data.get("params", {})
    for key in ("operators", "stages"):
        if not isinstance(data.get(key, []), list):
            raise InvalidChannelError(f"'{key}' must be a list")
    operators = None
    if "operators" in data:
        operators = tuple(matrix_from_pairs(op) for op in data["operators"])
    stages = None
    if "stages" in data:
        stages = tuple(spec_from_dict(s) for s in data["stages"])
    return channels.ChannelSpec(kind=kind, params=params, operators=operators, stages=stages)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _finite_or_none(x: Optional[float]):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def validation_to_dict(report: channels.ChiValidation) -> dict:
    """`report`'s fields in their order, a non-finite `tp_residual` as text, then `all_ok`."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {**fields, "tp_residual": _finite_or_none(report.tp_residual), "all_ok": report.all_ok}


def chi_report(
    chi: np.ndarray,
    method: str,
    n_qubits: int,
    n_configurations: int,
    validation: channels.ChiValidation,
    channel_spec: Optional[dict] = None,
    **extra,
) -> dict:
    """Assemble the canonical JSON-ready chi report."""
    report = {
        "kind": "chi_report",
        "method": method,
        "n_qubits": n_qubits,
        "basis": ops.pauli_labels(n_qubits),
        "chi": encode_chi(chi),
        "n_configurations": n_configurations,
        "validation": validation_to_dict(validation),
    }
    if channel_spec is not None:
        report["channel"] = channel_spec
    report.update(extra)
    return report


CHI_ENCODING = "base64-complex128-le"


def encode_chi(chi: np.ndarray) -> dict:
    """chi as JSON: base64 of its row-major little-endian complex128 bytes."""
    m = np.asarray(chi, dtype="<c16")
    return {
        "encoding": CHI_ENCODING,
        "shape": list(m.shape),
        "data": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def chi_from_report(report: dict) -> np.ndarray:
    """The complex process matrix stored in a chi report, bit for bit.

    Reads the `encode_chi` form under "chi" and, for reports written before
    it, separate "chi_real" and "chi_imag" lists of rows, zipped into the
    [re, im] pairs that `matrix_from_pairs` reads, so their entries must be
    JSON numbers like every JSON matrix's.  A missing or malformed field
    raises `InvalidChannelError`; the matrix then passes the chi input check
    (`DimensionMismatchError` unless 4**n x 4**n, `InvalidChannelError` for
    a non-finite entry).
    """
    if not isinstance(report, dict):
        raise InvalidChannelError("a chi report must be a JSON object")
    if "chi" in report:
        chi = _decode_chi(report["chi"])
    elif "chi_real" in report and "chi_imag" in report:
        try:
            rows = [
                list(zip(re, im, strict=True))
                for re, im in zip(report["chi_real"], report["chi_imag"], strict=True)
            ]
        except (TypeError, ValueError):
            raise InvalidChannelError(
                "chi_real and chi_imag must be lists of rows of one shape"
            ) from None
        chi = matrix_from_pairs(rows)
    else:
        raise InvalidChannelError("chi report has no 'chi' (or 'chi_real' and 'chi_imag') field")
    return ops.checked_matrix(chi, "chi", qubits=True)[0]


def _decode_chi(field) -> np.ndarray:
    if not isinstance(field, dict) or not {"encoding", "shape", "data"} <= field.keys():
        raise InvalidChannelError("'chi' must be an object with encoding, shape and data")
    if field["encoding"] != CHI_ENCODING:
        raise InvalidChannelError(
            f"unknown chi encoding {field['encoding']!r}; expected {CHI_ENCODING!r}"
        )
    shape = field["shape"]
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(k) is int and k >= 0 for k in shape)
    ):
        raise InvalidChannelError(f"chi shape {shape!r} is not a pair of sizes")
    try:
        raw = base64.b64decode(field["data"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InvalidChannelError(f"chi data is not base64: {exc}") from None
    if len(raw) != 16 * shape[0] * shape[1]:
        raise InvalidChannelError(
            f"chi data holds {len(raw)} bytes, not the {16 * shape[0] * shape[1]} of shape {shape}"
        )
    return np.frombuffer(raw, dtype="<c16").reshape(shape).astype(complex)


def dump_json(report: dict) -> str:
    """Strict JSON text: a NaN or infinity raises ValueError instead of being written."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def load_json(text: str) -> dict:
    return json.loads(text)


def chi_csv(report: dict) -> Iterator[str]:
    """The CSV view of a chi report: the header, then one text chunk per chi row.

    Each entry is a `row,col,real,imag` line of its Pauli-string labels and
    the repr of each part, the bytes `csv.DictWriter` writes for them: the
    labels are [IXYZ]+ and the parts finite floats, so no cell is quoted.
    chi is decoded here, with `chi_from_report`'s checks, and is the
    report's one source: the labels are `ops.pauli_labels` of the n its
    side gives, whatever the report's "basis" says.  Each chunk is
    formatted when it is read, so the whole text is never held at once.
    """
    chi = chi_from_report(report)
    labels = ops.pauli_labels((len(chi).bit_length() - 1) // 2)

    def chunks() -> Iterator[str]:
        yield "row,col,real,imag\n"
        for label, row in zip(labels, chi):
            re, im = row.real.tolist(), row.imag.tolist()
            yield "".join([f"{label},{col},{r!r},{i!r}\n" for col, r, i in zip(labels, re, im)])

    return chunks()


def dump_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
