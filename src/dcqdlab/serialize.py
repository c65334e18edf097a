"""Channel-spec parsing and report serialization.

Channel specs cross the CLI boundary either as compact flag text
("bit_flip:0.25", "amplitude_damping:t=1,T1=2", "unitary:z,1.5708") or as
JSON documents ("@file.json") with the schema

    {"kind": "...", "params": {...},
     "operators": [matrix, ...],        # unitary / explicit_kraus
     "stages": [spec, ...]}             # composed

where a matrix is a row-major list of rows of [re, im] pairs -- exactly
representable and diff friendly.  Process-matrix reports store the real
and imaginary parts as separate matrices plus the Pauli-string index
legend; JSON floats round-trip bit for bit through Python's repr-based
encoder, so reading a report back reproduces the matrix exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Optional, Sequence

import numpy as np

from . import channels, ops
from .exceptions import InvalidChannelError

# positional parameter names of the compact "kind:value" flag form
_POSITIONAL = {
    "bit_flip": ("p",),
    "phase_flip": ("p",),
    "depolarizing": ("p",),
    "amplitude_damping": ("gamma",),
    "phase_damping": ("lambda",),
    "unitary": ("axis", "angle"),
}

_STRING_PARAMS = {"axis"}


def parse_channel_arg(text: str) -> channels.ChannelSpec:
    """Parse a --channel flag value into a ChannelSpec."""
    text = text.strip()
    if not text:
        raise InvalidChannelError("empty channel specification")
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return spec_from_dict(json.load(fh))
    kind, _, arg_text = text.partition(":")
    kind = kind.strip()
    if kind not in channels.CHANNEL_KINDS:
        raise InvalidChannelError(
            f"unknown channel kind {kind!r}; known kinds: {', '.join(channels.CHANNEL_KINDS)}"
        )
    if kind in ("composed", "explicit_kraus"):
        raise InvalidChannelError(f"{kind} channels must be given as a JSON file (@file.json)")
    params: dict = {}
    if arg_text:
        positional = list(_POSITIONAL.get(kind, ()))
        for i, piece in enumerate(arg_text.split(",")):
            piece = piece.strip()
            if "=" in piece:
                key, _, raw = piece.partition("=")
                key = key.strip()
            else:
                if i >= len(positional):
                    raise InvalidChannelError(
                        f"too many positional parameters for {kind!r} in {text!r}"
                    )
                key, raw = positional[i], piece
            params[key] = raw.strip() if key in _STRING_PARAMS else _parse_number(raw, text)
    return channels.ChannelSpec(kind=kind, params=params)


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
    try:
        return np.array(
            [[complex(float(re), float(im)) for re, im in row] for row in rows], dtype=complex
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidChannelError(f"malformed complex matrix: {exc}") from None


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
    if not isinstance(params, dict):
        raise InvalidChannelError("'params' must be an object")
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
    return {
        "hermiticity_deviation": float(report.hermiticity_deviation),
        "min_eigenvalue": float(report.min_eigenvalue),
        "trace": float(report.trace),
        "tp_residual": _finite_or_none(report.tp_residual),
        "hermitian_ok": report.hermitian_ok,
        "psd_ok": report.psd_ok,
        "trace_ok": report.trace_ok,
        "tp_ok": report.tp_ok,
        "all_ok": report.all_ok,
    }


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
        "chi_real": np.asarray(chi).real.tolist(),
        "chi_imag": np.asarray(chi).imag.tolist(),
        "n_configurations": n_configurations,
        "validation": validation_to_dict(validation),
    }
    if channel_spec is not None:
        report["channel"] = channel_spec
    for key, value in extra.items():
        report[key] = value
    return report


def chi_from_report(report: dict) -> np.ndarray:
    """Rebuild the complex process matrix stored in a chi report."""
    return np.array(report["chi_real"], dtype=float) + 1j * np.array(
        report["chi_imag"], dtype=float
    )


def dump_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def load_json(text: str) -> dict:
    return json.loads(text)


def chi_rows(report: dict) -> list[dict]:
    """Flatten a chi report into per-entry CSV rows."""
    labels = report["basis"]
    re = report["chi_real"]
    im = report["chi_imag"]
    return [
        {"row": labels[m], "col": labels[n], "real": re[m][n], "imag": im[m][n]}
        for m in range(len(labels))
        for n in range(len(labels))
    ]


def dump_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
