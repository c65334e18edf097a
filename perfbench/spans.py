"""Span tracer that wraps the public functions of every dcqdlab module.

The library is not edited: `Tracer.install` replaces module attributes with
timing wrappers and `Tracer.remove` puts the originals back.  Calls made
inside the library go through module attributes (`dcqd.outcome_probabilities`,
`channels.apply_channel`, ...) or module globals, so they are traced too.
`numpy.kron` gets a call counter instead of a span: it runs about a thousand
times per n = 2 reconstruction, and a span for each would swamp the layers
that call it.

A span is `[name, start, end, parent, op, raised]`; `parent` is the index of
the enclosing span (-1 for the op's root span) and `op` the op index.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

import numpy as np

LAYERS = (
    "ops",
    "channels",
    "dcqd",
    "inversion",
    "sampling",
    "sqpt",
    "relax",
    "serialize",
    "cli",
    "resources",
)

ROOT = "op"

# Per-layer metrics named by the benchmark besides the <layer>.* totals:
# metric name -> (unit, how it is computed, the spans it reads).
# "self" sums self time over the spans, "calls" counts them.
NAMED = {
    "inversion.solve_hermitian.self_s": ("s", "self", ("inversion.solve_hermitian",)),
    "dcqd.measurement_basis.calls": ("count", "calls", ("dcqd.measurement_basis",)),
    "dcqd.measurement_basis.self_s": ("s", "self", ("dcqd.measurement_basis",)),
    "dcqd.outcome_probabilities.self_s": ("s", "self", ("dcqd.outcome_probabilities",)),
    "channels.apply_channel.calls": ("count", "calls", ("channels.apply_channel",)),
    "channels.apply_channel.self_s": ("s", "self", ("channels.apply_channel",)),
    "ops.pauli_basis.calls": ("count", "calls", ("ops.pauli_basis",)),
    "dcqd.stacked_design.self_s": ("s", "self", ("dcqd.stacked_design",)),
    "dcqd.reconstruct.self_s": ("s", "self", ("dcqd.reconstruct_from_probabilities",)),
    "dcqd.closed_form.self_s": (
        "s",
        "self",
        (
            "dcqd.closed_form_chi",
            "dcqd.reconstruct_population",
            "dcqd.reconstruct_coherence",
            "dcqd.map_frame",
            "dcqd.input_pair_expectations",
        ),
    ),
    "sampling.sample_counts.calls": ("count", "calls", ("sampling.sample_counts",)),
    "sampling.sample_counts.self_s": ("s", "self", ("sampling.sample_counts",)),
    "sampling.characterize_with_optics.self_s": (
        "s",
        "self",
        ("sampling.characterize_with_optics",),
    ),
    "sqpt.tomograph_state.self_s": ("s", "self", ("sqpt.tomograph_state",)),
    "sqpt.sqpt_characterize.self_s": ("s", "self", ("sqpt.sqpt_characterize",)),
    "relax.joint_estimate.self_s": ("s", "self", ("relax.joint_estimate",)),
    "channels.as_kraus.self_s": ("s", "self", ("channels.as_kraus",)),
    "channels.chi_from_kraus.self_s": ("s", "self", ("channels.chi_from_kraus",)),
    "channels.validate_chi.self_s": ("s", "self", ("channels.validate_chi",)),
    "serialize.chi_report.self_s": ("s", "self", ("serialize.chi_report",)),
    "serialize.dump.self_s": ("s", "self", ("serialize.dump_json", "serialize.dump_csv")),
}

# Calls counted per op kind for the detail record of a traced run.
KIND_CALLS = ("ops.pauli_basis", "dcqd.measurement_basis", "dcqd.outcome_probabilities")

# Counters kept at the span boundaries themselves, in the unit the metric uses.
COUNTERS = {
    "numpy.kron.calls": "count",
    "inversion.design_mb": "MB",
    "serialize.bytes_out": "B",
}


def _report_bytes(args, text: str) -> int:
    return len(text.encode("utf-8"))


# span -> (counter, amount the call adds, from its arguments and result)
HOOKS = {
    "inversion.solve_hermitian": ("inversion.design_mb", lambda args, _: np.asarray(args[0]).nbytes / 1e6),
    "serialize.dump_json": ("serialize.bytes_out", _report_bytes),
    "serialize.dump_csv": ("serialize.bytes_out", _report_bytes),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """In-memory spans and counters for the ops of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op = -1
        # counters[name][op] -> value
        self.counters: dict[str, dict[int, float]] = {name: {} for name in COUNTERS}

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"dcqdlab.{layer}")
            for name, fn in list(_public_functions(module)):
                self._patch(module, name, self._wrap(f"{layer}.{name}", fn))
        self._patch(np, "kron", self._count_kron(np.kron))

    def remove(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _add(self, counter: str, value: float) -> None:
        per_op = self.counters[counter]
        per_op[self.op] = per_op.get(self.op, 0) + value

    def _count_kron(self, kron):
        def counted_kron(*args, **kwargs):
            self._add("numpy.kron.calls", 1)
            return kron(*args, **kwargs)

        return counted_kron

    def _wrap(self, span_name: str, fn):
        hook = HOOKS.get(span_name)

        def traced(*args, **kwargs):
            result = self._enter_call(span_name, fn, args, kwargs)
            if hook is not None:
                counter, amount = hook
                self._add(counter, amount(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter_call(self, span_name, fn, args, kwargs):
        stack = self._stack
        record = [span_name, 0.0, 0.0, stack[-1], self.op, False]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    # -- ops ----------------------------------------------------------------

    def run_op(self, op_index: int, call):
        """Run `call` as op `op_index` under a root span and return its result."""
        self.op = op_index
        self._stack.append(-1)
        try:
            return self._enter_call(ROOT, call, (), {})
        finally:
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(tracer: Tracer, window_ops: set[int], n_ops: int, op_kinds: dict[int, str]) -> dict:
    """Per-layer metrics (per op), and per-kind counts for the detail record.

    Times are averaged over all `n_ops` traced ops; counts and counters over
    the ops in `window_ops`, a fixed prefix of the run, so that they repeat
    exactly for a seed however many ops the run completed.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    kinds: dict[str, dict[str, float]] = {}
    for op in window_ops:
        row = kinds.setdefault(op_kinds[op], dict.fromkeys(("ops", "numpy.kron.calls", *KIND_CALLS), 0))
        row["ops"] += 1
        row["numpy.kron.calls"] += tracer.counters["numpy.kron.calls"].get(op, 0)
    for i, (name, start, end, _parent, op, raised) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        if op in window_ops:
            calls[name] = calls.get(name, 0) + 1
            if name in KIND_CALLS:
                kinds[op_kinds[op]][name] += 1
        if raised:
            errors[name] = errors.get(name, 0) + 1
    op_time = sum(end - start for name, start, end, *_ in spans if name == ROOT)

    n_window = len(window_ops)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, (unit, how, names) in NAMED.items():
        if how == "self":
            metrics[metric] = (sum(self_s.get(n, 0.0) for n in names) / n_ops, unit)
        else:
            metrics[metric] = (sum(calls.get(n, 0) for n in names) / n_window, unit)
    for counter, unit in COUNTERS.items():
        total = sum(v for op, v in tracer.counters[counter].items() if op in window_ops)
        metrics[counter] = (total / n_window, unit)
    configs = calls.get("dcqd.outcome_probabilities", 0)
    basis_builds = calls.get("dcqd.measurement_basis", 0)
    metrics["dcqd.measurement_basis.per_config"] = (basis_builds / configs if configs else 0.0, "ratio")
    accounted = 0.0
    for layer in LAYERS:
        names = [n for n in self_s if n.split(".", 1)[0] == layer]
        layer_self = sum(self_s[n] for n in names)
        accounted += layer_self
        metrics[f"{layer}.calls"] = (sum(calls.get(n, 0) for n in names) / n_window, "count")
        metrics[f"{layer}.self_s"] = (layer_self / n_ops, "s")
        metrics[f"{layer}.errors"] = (sum(errors.get(n, 0) for n in names), "count")
    metrics["trace.op_s"] = (op_time / n_ops, "s")
    metrics["trace.unaccounted_s"] = (self_s.get(ROOT, 0.0) / n_ops, "s")
    metrics["trace.accounted_frac"] = (accounted / op_time, "ratio")

    per_kind = {
        kind: {
            (key if key in ("ops", "numpy.kron.calls") else f"{key}.calls"): (
                v if key == "ops" else v / row["ops"]
            )
            for key, v in row.items()
        }
        for kind, row in sorted(kinds.items())
    }
    return {"metrics": metrics, "per_kind": per_kind}
