"""Experiment-count bookkeeping for the three characterization schemes.

All counts are exact integers: for n qubits, standard process tomography
needs 4**n input states times 4**n non-commuting measurement settings
each (16**n experimental configurations); ancilla-assisted tomography
with non-separable measurements needs a single input and 4**n + 1
settings; the direct scheme needs 4**n entangled inputs and a single
fixed Bell-type measurement each.  The counts of the direct scheme and of
standard tomography are those of the schemes that run them
(`dcqd.pair_scheme()` and `sqpt._scheme()`, through
`inversion.Scheme.counts`); only the Hilbert dimensions and the
ancilla-assisted row, which no scheme here runs, are formulas.

Counts are tabulated for n = 1..`MAX_N`, the bound of
`inversion.Scheme.counts`: the largest, 16**n, then fits a signed 64-bit
integer, so JSON and CSV readers that parse integers into int64 read
every count exactly.  `counts` judges n for every scheme, and
`resource_counts` asks the SQPT scheme's first: any other n, and any n
that is not an integer (a bool, a float, a string), raises
`InvalidConfigurationError` there.
"""

from __future__ import annotations

from . import dcqd, sqpt
from .exceptions import InvalidConfigurationError
from .inversion import MAX_N  # re-exported: the counts' bound

SCHEMES = ("sqpt", "aapt_nonseparable", "dcqd")


def resource_counts(n: int) -> dict[str, dict[str, int]]:
    """Per-scheme resource counts for an n-qubit map as exact integers.

    Keys per scheme: hilbert_dim (dimension the experiment acts in),
    n_inputs, n_measurements (settings per input) and n_experiments
    (their product).  n is judged by the SQPT scheme's `counts` first (an
    integer in 1..`MAX_N`); a numpy integer gives Python ints too, so every
    count is exact and JSON-serializable.
    """
    sqpt_counts = sqpt._scheme().counts(n)
    n = int(n)
    return {
        "sqpt": {"hilbert_dim": 2**n, **sqpt_counts},
        "aapt_nonseparable": {
            "hilbert_dim": 4**n,
            "n_inputs": 1,
            "n_measurements": 4**n + 1,
            "n_experiments": 4**n + 1,
        },
        "dcqd": {"hilbert_dim": 4**n, **dcqd.pair_scheme().counts(n)},
    }


def resource_table(n_values) -> list[dict[str, int | str]]:
    """Flat table rows (one per n and scheme) for reporting.

    `n_values` must be iterable and the first n outside 1..`MAX_N` raises,
    each with `InvalidConfigurationError`, so a long range fails at once.
    """
    if not hasattr(n_values, "__iter__"):
        raise InvalidConfigurationError(f"qubit counts must be iterable, got {n_values!r:.80}")
    rows: list[dict[str, int | str]] = []
    for n in n_values:
        counts = resource_counts(n)
        for scheme in SCHEMES:
            rows.append({"n": int(n), "scheme": scheme, **counts[scheme]})
    return rows


def format_table(rows) -> str:
    """Fixed-width text rendering of `resource_table` rows."""
    header = ("n", "scheme", "hilbert_dim", "n_inputs", "n_measurements", "n_experiments")
    cells = [header] + [[str(r[k]) for k in header] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
