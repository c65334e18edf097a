"""The benchmark workloads: seeded inputs, the op each drives, its check.

Every workload is a fixed cycle of op kinds.  The inputs of op i are drawn
from `numpy.random.default_rng([seed, i])`, so they depend on the seed and
the op index only, never repeat within a run, and can be made before the op
starts.  The kind of op i is `cycle[i % len(cycle)]`; kinds are spread over
the cycle evenly, so every prefix of a run holds each kind in proportion and
the percentiles of a run do not depend on where it stopped.

Each op's check runs after the op's timer stops.  A check raises
`CheckFailed`; the runner counts it against `failed_frac`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from dcqdlab import channels, cli, dcqd, relax, sampling, serialize

# Bounds on sampled reconstruction errors, as c / sqrt(shots).  Over 300
# seeded draws per kind (shots 1e2..1e6, random CP maps) the largest
# observed values of error * sqrt(shots) were 6.3 (n = 1), 5.9 (optics),
# 16.6 (n = 2, 40 draws) and 15.4 (relative T1/T2 error): the constants
# leave a factor of 2.4 to 4 over those.
FROBENIUS_C = {1: 20.0, 2: 40.0}
OPTICS_C = 20.0
RELAX_C = 60.0
EXACT_TOL = 1e-8

# default amplitudes of `dcqdlab partial`
RELAX_ALPHA = math.sqrt(2.0 / 3.0)
RELAX_BETA = math.sqrt(1.0 / 3.0)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: bytes
    # files the op reads or writes, deleted once the op is done with
    files: tuple[str, ...] = ()


def spread_cycle(weights: dict[str, int]) -> list[str]:
    """Smooth weighted round robin: each kind's share of every prefix stays
    within one op of its weight share."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    out = []
    for _ in range(total):
        for kind, w in weights.items():
            credit[kind] += w
        pick = max(credit, key=credit.get)
        credit[pick] -= total
        out.append(pick)
    return out


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, (list, tuple)) and part and isinstance(part[0], np.ndarray):
            for a in part:
                h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


def _shots(rng: np.random.Generator, lo_exp: float, hi_exp: float) -> int:
    return int(round(10 ** rng.uniform(lo_exp, hi_exp)))


def _sampling_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def _truth(kraus, n: int) -> np.ndarray:
    return channels.chi_from_kraus(channels.as_kraus(kraus, n))


def _random_channel(rng: np.random.Generator, n: int) -> tuple[list[np.ndarray], bool]:
    """Full Kraus rank random CP map; trace preserving or decreasing by coin."""
    tp = bool(rng.integers(2))
    return channels.random_channel(n, trace_preserving=tp, rng=rng), tp


# ---------------------------------------------------------------------------
# exact_n3: dcqd.characterize(channel, n=3) on exact statistics
# ---------------------------------------------------------------------------
# Why: the worst hot path.  One op is about 16 s, about 90% of it in the
# dense lstsq of the 4096 x 4096 design.  Random 3-qubit maps carry 64 Kraus
# operators; i.i.d. amplitude damping expands to 8 and i.i.d. depolarizing
# to 64, so the forward model's Kraus loop varies between ops.

EXACT_N3_CYCLE = ["random_n3", "iid_amplitude_damping", "random_n3", "iid_depolarizing"]


def _exact_n3_op(seed: int, i: int, workdir: str) -> Op:
    rng = np.random.default_rng([seed, i])
    kind = EXACT_N3_CYCLE[i % len(EXACT_N3_CYCLE)]
    if kind == "random_n3":
        channel, tp = _random_channel(rng, 3)
        kraus3 = channel
        digest = _digest(kind, tp, channel)
    else:
        if kind == "iid_amplitude_damping":
            params = {"gamma": float(rng.uniform(0.05, 0.6))}
        else:
            params = {"p": float(rng.uniform(0.02, 0.5))}
        channel = channels.ChannelSpec(kind=kind[len("iid_"):], params=params)
        kraus3 = channels.as_kraus(channel, 3)
        tp = True
        digest = _digest(kind, sorted(params.items()))

    def check(result):
        err = float(np.max(np.abs(result.chi - channels.chi_from_kraus(kraus3))))
        _require(err <= EXACT_TOL, f"{kind}: max entry error {err:.3e}")
        _require(
            channels.validate_chi(result.chi, trace_preserving=tp).all_ok,
            f"{kind}: validate_chi failed",
        )

    return Op(kind, lambda: dcqd.characterize(channel, n=3), check, digest)


# ---------------------------------------------------------------------------
# sampled_sweep: finite-shot reconstruction, many short ops
# ---------------------------------------------------------------------------
# Why: the per-configuration forward model dominates these ops and the solve
# is a few percent; it is the only workload that samples, and the only one
# that takes the n <= 2 SVD-diagnostics path on sampled data.  n = 1 ops
# (about 2 ms) are 14 of 20 and n = 2 ops (about 55 ms) 4 of 20, so the
# median falls inside the n = 1 group and the 90th percentile in the middle
# of the n = 2 group, not on the gap between them.  It is not in
# BENCHMARK.json: its timings spread too widely from run to run on the
# shared machine the bounds were set on (see perfbench/README.md).

SAMPLED_CYCLE = spread_cycle(
    {
        "sampled_n1": 10,
        "optics_n1": 4,
        "relax": 2,
        "sampled_n2_random": 2,
        "sampled_n2_iid_amplitude_damping": 1,
        "sampled_n2_iid_depolarizing": 1,
    }
)


def _sampled_op(seed: int, i: int, workdir: str) -> Op:
    rng = np.random.default_rng([seed, i])
    kind = SAMPLED_CYCLE[i % len(SAMPLED_CYCLE)]
    if kind == "relax":
        return _relax_op(rng)
    n = 2 if kind.startswith("sampled_n2") else 1
    if kind.startswith("sampled_n2_iid"):
        name = kind[len("sampled_n2_iid_"):]
        param = float(rng.uniform(0.02, 0.5))
        build = channels.amplitude_damping if name == "amplitude_damping" else channels.depolarizing
        channel = build(param)
    else:
        channel, _tp = _random_channel(rng, n)
    shots = _shots(rng, 2, 6)
    sample_seed = _sampling_seed(rng)
    digest = _digest(kind, shots, sample_seed, channel)
    if kind == "optics_n1":

        def call():
            return sampling.characterize_with_optics(channel, shots=shots, seed=sample_seed)

        def check(result):
            again = call()
            _require(np.array_equal(result.chi, again.chi), "optics: same seed, different counts")
            err = float(np.linalg.norm(result.chi - _truth(channel, 1)))
            _require(err <= OPTICS_C / math.sqrt(shots), f"optics: error {err:.3e} at {shots} shots")

        return Op(kind, call, check, digest)

    def call():
        return sampling.characterize_sampled(channel, n=n, shots=shots, seed=sample_seed)

    def check(output):
        result, metrics = output
        again, _ = call()
        _require(np.array_equal(result.chi, again.chi), f"{kind}: same seed, different counts")
        err = float(np.linalg.norm(result.chi - _truth(channel, n)))
        _require(abs(err - metrics.frobenius_error) <= 1e-9, f"{kind}: reported error disagrees")
        _require(err <= FROBENIUS_C[n] / math.sqrt(shots), f"{kind}: error {err:.3e} at {shots} shots")

    return Op(kind, call, check, digest)


def _relax_params(rng: np.random.Generator) -> dict:
    return {
        "T1": float(rng.uniform(1.5, 3.0)),
        "T2": float(rng.uniform(0.8, 2.0)),
        "t1": float(rng.uniform(0.5, 1.0)),
        "t2": float(rng.uniform(0.5, 1.0)),
        "shots": _shots(rng, 4, 6),
        "seed": _sampling_seed(rng),
    }


def _check_relax(label: str, T1: float, T2: float, p: dict) -> None:
    bound = RELAX_C / math.sqrt(p["shots"])
    for name, est, true in (("T1", T1, p["T1"]), ("T2", T2, p["T2"])):
        _require(math.isfinite(est), f"{label}: {name} estimate {est!r}")
        rel = abs(est - true) / true
        _require(rel <= bound, f"{label}: {name} relative error {rel:.3e} at {p['shots']} shots")


def _relax_op(rng: np.random.Generator) -> Op:
    p = _relax_params(rng)
    sequence = channels.compose(
        channels.amplitude_damping(t=p["t1"], T1=p["T1"]),
        channels.phase_damping(t=p["t2"], T2=p["T2"]),
    )

    def call():
        return relax.joint_estimate(
            sequence, RELAX_ALPHA, RELAX_BETA, p["t1"], p["t2"], shots=p["shots"], seed=p["seed"]
        )

    def check(est):
        again = call()
        _require((est.T1, est.T2) == (again.T1, again.T2), "relax: same seed, different counts")
        _check_relax("relax", est.T1, est.T2, p)

    return Op("relax", call, check, _digest("relax", sorted(p.items())))


# ---------------------------------------------------------------------------
# cli_reports: in-process `dcqdlab.cli.main(argv)` over all six subcommands
# ---------------------------------------------------------------------------
# Why: the only workload that drives argument and channel-spec parsing,
# report building and JSON/CSV writes, `validate_chi` on every report, and
# the sqpt baseline.  Fast commands (2.6-6 ms) are 14 of 20, sample-sweep
# (about 26 ms) 1 of 20, the 50-55 ms group (sqpt, exact n = 2
# characterize) 4 of 20 and compare (about 100 ms) 1 of 20.  The median then
# lies inside the fast group and the 90th percentile inside the 50-55 ms
# group, and sqpt plus compare take about half of the cycle time.

CLI_CYCLE = spread_cycle(
    {
        "char_n1_json": 3,
        "char_n1_csv": 2,
        "char_shots": 3,
        "char_optics": 3,
        "partial_shots": 2,
        "resources": 1,
        "sample_sweep": 1,
        "sqpt_n2": 2,
        "char_n2_json": 1,
        "char_n2_csv": 1,
        "compare_n2": 1,
    }
)

# Channel kinds per CLI op kind, cycled by the op's occurrence in the cycle.
# "@random" writes a random CP map as an explicit_kraus JSON file.
CLI_CHANNELS = {
    "char_n1_json": ("depolarizing", "amplitude_damping_t", "@random"),
    "char_n1_csv": ("bit_flip", "unitary"),
    "char_shots": ("phase_damping", "@random", "depolarizing"),
    "char_optics": ("amplitude_damping", "phase_flip", "@random"),
    "sample_sweep": ("bit_flip",),
    "sqpt_n2": ("depolarizing", "@random"),
    "char_n2_json": ("@random",),
    "char_n2_csv": ("amplitude_damping",),
    "compare_n2": ("phase_damping",),
}


def _occurrence(cycle: list[str], i: int) -> int:
    """How many earlier ops of the same kind precede op i."""
    slot = i % len(cycle)
    return (i // len(cycle)) * cycle.count(cycle[slot]) + cycle[:slot].count(cycle[slot])


def _cli_channel(rng, choice: str, n: int, path: str) -> tuple[str, list[np.ndarray]]:
    """A --channel argument and the Kraus set it stands for.

    "@random" writes a random CP map to `path` as an explicit_kraus spec.
    """
    if choice == "@random":
        kraus, _tp = _random_channel(rng, n)
        spec = channels.ChannelSpec(kind="explicit_kraus", operators=tuple(kraus))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(serialize.spec_to_dict(spec), fh)
        return "@" + path, kraus
    if choice == "unitary":
        axis = "xyz"[int(rng.integers(3))]
        angle = float(rng.uniform(0.1, 3.0))
        return f"unitary:{axis},{angle!r}", channels.rotation(axis, angle)
    if choice == "amplitude_damping_t":
        t, T1 = float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 4.0))
        return f"amplitude_damping:t={t!r},T1={T1!r}", channels.amplitude_damping(t=t, T1=T1)
    value = float(rng.uniform(0.02, 0.5))
    build = {
        "depolarizing": channels.depolarizing,
        "amplitude_damping": channels.amplitude_damping,
        "phase_damping": channels.phase_damping,
        "bit_flip": channels.bit_flip,
        "phase_flip": channels.phase_flip,
    }[choice]
    return f"{choice}:{value!r}", build(value)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _chi_from_csv(text: str, n: int) -> np.ndarray:
    labels = [
        "".join("IXYZ"[d] for d in digits)
        for digits in np.ndindex(*([4] * n))
    ]
    index = {label: k for k, label in enumerate(labels)}
    chi = np.zeros((4**n, 4**n), dtype=complex)
    for row in csv.DictReader(io.StringIO(text)):
        chi[index[row["row"]], index[row["col"]]] = complex(float(row["real"]), float(row["imag"]))
    return chi


def _check_exact(label: str, chi: np.ndarray, truth: np.ndarray) -> None:
    err = float(np.max(np.abs(chi - truth)))
    _require(err <= EXACT_TOL, f"{label}: max entry error {err:.3e}")


def _cli_op(seed: int, i: int, workdir: str) -> Op:
    rng = np.random.default_rng([seed, i])
    kind = CLI_CYCLE[i % len(CLI_CYCLE)]
    out_name = f"report_{i}.out"
    out_path = os.path.join(workdir, out_name)
    channel_path = os.path.join(workdir, f"channel_{i}.json")
    kraus: list[np.ndarray] = []
    argv: list[str]
    check_report: Callable[[str], None]

    if kind == "resources":
        n_min = int(rng.integers(1, 3))
        n_max = int(rng.integers(n_min, 7))
        argv = ["resources", "--n-min", str(n_min), "--n-max", str(n_max), "--format", "json"]

        def check_report(text):
            rows = serialize.load_json(text)["rows"]
            want = {"sqpt": lambda n: 16**n, "aapt_nonseparable": lambda n: 4**n + 1, "dcqd": lambda n: 4**n}
            _require(len(rows) == 3 * (n_max - n_min + 1), "resources: row count")
            for row in rows:
                _require(row["n_experiments"] == want[row["scheme"]](row["n"]), f"resources: {row}")

    elif kind == "partial_shots":
        p = _relax_params(rng)
        argv = [
            "partial", "--T1", repr(p["T1"]), "--T2", repr(p["T2"]), "--t1", repr(p["t1"]),
            "--t2", repr(p["t2"]), "--shots", str(p["shots"]), "--seed", str(p["seed"]),
        ]

        def check_report(text):
            est = serialize.load_json(text)["estimates"]
            _check_relax("partial", est["T1"], est["T2"], p)

    else:
        choices = CLI_CHANNELS[kind]
        choice = choices[_occurrence(CLI_CYCLE, i) % len(choices)]
        n = 2 if kind.endswith("n2") or "_n2_" in kind else 1
        channel_arg, kraus = _cli_channel(rng, choice, n, channel_path)

        def truth():
            return _truth(kraus, n)

        if kind == "sample_sweep":
            shots = sorted({_shots(rng, 2, 5) for _ in range(3)})
            argv = [
                "sample-sweep", "--channel", channel_arg, "--shots", *map(str, shots),
                "--repeats", "3", "--seed", str(_sampling_seed(rng)),
            ]

            def check_report(text):
                rows = serialize.load_json(text)["rows"]
                _require([r["shots"] for r in rows] == shots, "sample-sweep: rows")
                for r in rows:
                    bound = FROBENIUS_C[1] / math.sqrt(r["shots"])
                    _require(r["median_frobenius_error"] <= bound, f"sample-sweep: {r}")

        elif kind == "compare_n2":
            argv = ["compare", "--channel", channel_arg, "--n", "2"]

            def check_report(text):
                report = serialize.load_json(text)
                for method in ("dcqd", "sqpt"):
                    _check_exact(f"compare/{method}", serialize.chi_from_report(report[method]), truth())

        elif kind == "sqpt_n2":
            argv = ["sqpt", "--channel", channel_arg, "--n", "2"]

            def check_report(text):
                _check_exact("sqpt", serialize.chi_from_report(serialize.load_json(text)), truth())

        else:
            argv = ["characterize", "--channel", channel_arg, "--n", str(n)]
            if kind == "char_shots":
                shots = _shots(rng, 2, 6)
                argv += ["--shots", str(shots), "--seed", str(_sampling_seed(rng))]

                def check_report(text):
                    chi = serialize.chi_from_report(serialize.load_json(text))
                    err = float(np.linalg.norm(chi - truth()))
                    _require(err <= FROBENIUS_C[1] / math.sqrt(shots), f"char --shots: error {err:.3e}")

            elif kind.endswith("_csv"):
                argv += ["--format", "csv"]

                def check_report(text):
                    _check_exact(kind, _chi_from_csv(text, n), truth())

            else:
                if kind == "char_optics":
                    argv.append("--optics")

                def check_report(text):
                    report = serialize.load_json(text)
                    _require(report["validation"]["all_ok"], f"{kind}: validation failed")
                    _check_exact(kind, serialize.chi_from_report(report), truth())

    argv += ["--output", out_name]

    def call():
        return cli.main(argv)

    def check(code):
        _require(code == cli.EXIT_OK, f"{kind}: exit code {code}")
        check_report(_read(out_path))

    # the channel file's path differs between runs; its contents are in `kraus`
    stable_argv = ["@file" if a.startswith("@") else a for a in argv]
    return Op(kind, call, check, _digest(kind, stable_argv, kraus), (out_path, channel_path))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[int, int, str], Op]
    # the first `window` ops feed the exact counters and the input hash;
    # every run completes at least this many
    window: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_n3", _exact_n3_op, 2),
        Workload("sampled_sweep", _sampled_op, len(SAMPLED_CYCLE)),
        Workload("cli_reports", _cli_op, len(CLI_CYCLE)),
    )
}
