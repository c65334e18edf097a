"""Command-line driver.

Subcommands: characterize (direct protocol, exact or sampled, optionally
through the partial Bell-analyzer model), sqpt (baseline), compare (both
methods on the same channel), partial (joint T1/T2 estimation), resources
(experiment-count table) and sample-sweep (shot-noise scaling).

`main` parses with one parser, of all six subcommands as `COMMANDS`
describes them, built on first use and kept for the life of the process;
parsing fills a new namespace from the parser's defaults on every call, and
argparse reads the terminal width when it formats help, not when it builds.
The handler is looked up by name in this module when `main` runs.

Every handler loads, runs, then emits: `_load_channel` converts the channel
once per command, to the `channels.Chi` that every library call takes and
every error against the truth reads, and `_emit` writes every report.  Each
reconstruction (`characterize` in every mode, `sqpt`) is reported by
`_chi_report` from its `inversion.ReconstructionResult`: it validates the
estimate, refuses one from exact statistics that fails, writes the result's
configuration count, closed-form residual, design rank and condition number,
and ends the report with the Frobenius and largest-entry errors against the
channel's chi, which `compare` gives for both of its methods.

Reports are JSON by default (chi bit-exact, as `serialize.encode_chi`
writes it; a channel file echoed by its digest) or CSV for tabular views.
Output goes to stdout unless --output is given; relative output paths are
resolved against $DCQDLAB_OUTPUT_DIR when set.  An error's exit code is its
class's entry in `EXIT_CODES`, the nearest one along its MRO: 2 for an
argument, channel-spec, shape or file error, 3 for an ill-posed
configuration, 4 for a numerical validation failure or a bad --shots or
--seed; 0 is success.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Optional

import numpy as np

from . import channels, dcqd, inversion, relax, resources, sampling, serialize, sqpt
from .exceptions import (
    DcqdLabError,
    DimensionMismatchError,
    IllPosedConfigurationError,
    IllPosedInputError,
    InvalidChannelError,
    InvalidConfigurationError,
    InvalidDistributionError,
    InvalidStateError,
    NotCompletelyPositiveError,
)

OUTPUT_DIR_ENV = "DCQDLAB_OUTPUT_DIR"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ILL_POSED = 3
EXIT_VALIDATION = 4

# exit code of an error that reaches `main`: the entry of the first class of
# its MRO listed here.  Every dcqdlab error is also a ValueError, so one that
# should exit 2 is listed; the others exit 4 through DcqdLabError.
EXIT_CODES = {
    DimensionMismatchError: EXIT_PARSE,
    InvalidChannelError: EXIT_PARSE,
    NotCompletelyPositiveError: EXIT_VALIDATION,
    InvalidConfigurationError: EXIT_ILL_POSED,
    IllPosedConfigurationError: EXIT_ILL_POSED,
    IllPosedInputError: EXIT_ILL_POSED,
    DcqdLabError: EXIT_VALIDATION,
    OSError: EXIT_PARSE,
    ValueError: EXIT_PARSE,
}


def _add_io(p: argparse.ArgumentParser, formats=("json", "csv"), default="json") -> None:
    p.add_argument("--output", help=f"output file (relative paths use ${OUTPUT_DIR_ENV})")
    p.add_argument("--format", choices=formats, default=default, help="report format")


def _add_channel(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--channel",
        required=True,
        help="channel spec, e.g. bit_flip:0.25, amplitude_damping:t=1,T1=2, "
        "unitary:z,1.5708, identity, or @spec.json",
    )
    p.add_argument("--n", type=int, default=1, help="number of primary qubits")


def _add_amplitudes(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--alpha", type=complex, default=dcqd.DEFAULT_ALPHA,
        help="entangled-input amplitude alpha (complex literal, e.g. 0.6 or 0.5+0.5j)",
    )
    p.add_argument(
        "--beta", type=complex, default=dcqd.DEFAULT_BETA, help="entangled-input amplitude beta"
    )


def _characterize_args(p: argparse.ArgumentParser) -> None:
    _add_channel(p)
    _add_amplitudes(p)
    p.add_argument("--shots", type=int, default=None, help="shots per configuration (exact statistics when omitted)")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--optics", action="store_true", help="use the partial Bell-analyzer model")
    _add_io(p)


def _sqpt_args(p: argparse.ArgumentParser) -> None:
    _add_channel(p)
    _add_io(p)


def _compare_args(p: argparse.ArgumentParser) -> None:
    _add_channel(p)
    _add_amplitudes(p)
    _add_io(p)


def _partial_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--T1", type=float, required=True, help="true amplitude-damping time constant")
    p.add_argument("--T2", type=float, required=True, help="true phase-damping time constant")
    p.add_argument("--t1", type=float, required=True, help="amplitude-damping duration")
    p.add_argument("--t2", type=float, required=True, help="phase-damping duration")
    p.add_argument("--alpha", type=complex, default=complex(math.sqrt(2.0 / 3.0)))
    p.add_argument("--beta", type=complex, default=complex(math.sqrt(1.0 / 3.0)))
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_io(p)


def _resources_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help=f"single qubit count (1..{resources.MAX_N})")
    # a range, 1..4 unless given; refused together with --n
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    _add_io(p, formats=("text", "json", "csv"), default="text")


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_channel(p)
    _add_amplitudes(p)
    p.add_argument("--shots", type=int, nargs="+", required=True, help="shot counts to sweep")
    p.add_argument("--repeats", type=int, default=20, help="independent runs per shot count")
    p.add_argument("--seed", type=int, default=0)
    _add_io(p)


# name -> (help, argument adder, handler).  The handler is named, not held:
# `main` looks it up in this module on every call, so a replaced cmd_*
# function (a tracer's wrapper, a test's stub) is the one that runs.
COMMANDS = {
    "characterize": ("direct characterization of a channel", _characterize_args, "cmd_characterize"),
    "sqpt": ("standard process tomography baseline", _sqpt_args, "cmd_sqpt"),
    "compare": (
        "direct protocol vs baseline on one channel (exact statistics)",
        _compare_args,
        "cmd_compare",
    ),
    "partial": ("joint T1/T2 estimation from one Bell measurement", _partial_args, "cmd_partial"),
    "resources": ("experiment-count table per scheme", _resources_args, "cmd_resources"),
    "sample-sweep": ("reconstruction error vs shots per configuration", _sweep_args, "cmd_sweep"),
}


def build_parser() -> argparse.ArgumentParser:
    """The dcqdlab parser with every subcommand of `COMMANDS`; every call returns a new parser."""
    parser = argparse.ArgumentParser(
        prog="dcqdlab",
        description="Simulate and characterize quantum dynamics on small qubit registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process."""
    return build_parser()


def _emit(args, report: dict, rows: Optional[list] = None) -> None:
    """Write `report` (JSON), `rows` (CSV; a chi report's chi by default) or their table.

    The report is built, or chi decoded, before the output file is opened; a
    chi CSV is written one chi row at a time (`serialize.chi_csv`).
    """
    if args.format == "json":
        chunks = [serialize.dump_json(report)]
    elif args.format == "csv":
        chunks = serialize.chi_csv(report) if rows is None else [serialize.dump_csv(rows)]
    else:
        chunks = [resources.format_table(rows) + "\n"]
    if args.output:
        # an absolute --output replaces the directory
        path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), args.output)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _load_channel(args) -> tuple[channels.Chi, dict]:
    """The --channel map as a `channels.Chi` on --n qubits (checked first) and its echo."""
    channels.check_register_size(args.n)
    spec, echo = serialize.load_channel_arg(args.channel)
    return channels.Chi.of(spec, args.n), echo


def _errors_vs_truth(estimate: np.ndarray, chi: channels.Chi) -> dict:
    """The Frobenius and largest-entry distances of an estimate from the channel's chi."""
    delta = estimate - chi.matrix
    return {
        "frobenius_error_vs_truth": float(np.linalg.norm(delta)),
        "max_entry_error_vs_truth": float(np.max(np.abs(delta))),
    }


def _chi_report(
    chi: channels.Chi, echo: dict, result: inversion.ReconstructionResult, method: str,
    exact: bool, **fields,
) -> dict:
    """The report of every command that reconstructs chi, written from its result.

    The estimate is validated with the channel's TP flag; one from `exact`
    statistics that fails raises `InvalidStateError`.  After the channel
    come the result's diagnostics (`closed_form_residual`, `design_rank`,
    `design_cond`), then the method's own `fields`, then both errors against
    the channel's chi.
    """
    estimate = result.chi
    validation = channels.validate_chi(estimate, trace_preserving=chi.trace_preserving)
    if exact and not validation.all_ok:
        raise InvalidStateError(
            f"{method} reconstruction from exact statistics failed validation: "
            f"{serialize.validation_to_dict(validation)}"
        )
    return serialize.chi_report(
        estimate, method, chi.n, result.n_configurations, validation, echo,
        closed_form_residual=result.residual, design_rank=result.design_rank,
        design_cond=result.design_cond, **fields, **_errors_vs_truth(estimate, chi),
    )


def cmd_characterize(args) -> int:
    if args.optics:
        # the analyzer's data outgrow chi, so their bound (after the register's)
        # comes before the channel is loaded; the bound reads only the number
        # of design rows, the same for all amplitudes
        dcqd.optics_scheme().check_pairs(args.n)
    chi, spec_dict = _load_channel(args)
    if args.optics:
        result = sampling.characterize_with_optics(
            chi, alpha=args.alpha, beta=args.beta, shots=args.shots, seed=args.seed, n=args.n
        )
        method = "dcqd_optics"
    elif args.shots is not None:
        # `_chi_report` computes the errors as SampledMetrics does, from the same arrays
        result, _ = sampling.characterize_sampled(
            chi, n=args.n, shots=args.shots, seed=args.seed, alpha=args.alpha, beta=args.beta
        )
        method = "dcqd_sampled"
    else:
        result = dcqd.characterize(chi, n=args.n, alpha=args.alpha, beta=args.beta)
        # no seed is used here, but a bad one fails as in the sampled modes
        sampling._checked_seed(args.seed)
        method = "dcqd"
    report = _chi_report(
        chi, spec_dict, result, method, exact=args.shots is None, shots=args.shots, seed=args.seed
    )
    _emit(args, report)
    return EXIT_OK


def cmd_sqpt(args) -> int:
    chi, spec_dict = _load_channel(args)
    result = sqpt.sqpt_characterize(chi, n=args.n)
    counts = resources.resource_counts(args.n)["sqpt"]
    report = _chi_report(
        chi, spec_dict, result, "sqpt", exact=True,
        n_inputs=counts["n_inputs"], n_settings_per_input=counts["n_measurements"],
    )
    _emit(args, report)
    return EXIT_OK


def cmd_compare(args) -> int:
    chi, spec_dict = _load_channel(args)
    r_dcqd = dcqd.characterize(chi, n=args.n, alpha=args.alpha, beta=args.beta)
    r_sqpt = sqpt.sqpt_characterize(chi, n=args.n)
    diff = r_dcqd.chi - r_sqpt.chi

    def sub_report(estimate: np.ndarray, n_experiments: int) -> dict:
        return {
            "n_experiments": n_experiments,
            **_errors_vs_truth(estimate, chi),
            "chi": serialize.encode_chi(estimate),
        }

    report = {
        "kind": "compare_report",
        "n_qubits": args.n,
        "channel": spec_dict,
        "trace_preserving": chi.trace_preserving,
        "max_entry_difference": float(np.max(np.abs(diff))),
        "frobenius_difference": float(np.linalg.norm(diff)),
        "dcqd": sub_report(r_dcqd.chi, r_dcqd.n_configurations),
        "sqpt": sub_report(r_sqpt.chi, r_sqpt.n_configurations),
        "resources": resources.resource_counts(args.n),
    }
    keys = ("n_experiments", "frobenius_error_vs_truth")
    rows = [{"method": name, **{k: report[name][k] for k in keys}} for name in ("dcqd", "sqpt")]
    _emit(args, report, rows)
    return EXIT_OK


def cmd_partial(args) -> int:
    sequence = channels.compose(
        channels.amplitude_damping(t=args.t1, T1=args.T1),
        channels.phase_damping(t=args.t2, T2=args.T2),
    )
    est = relax.joint_estimate(
        sequence, args.alpha, args.beta, args.t1, args.t2, shots=args.shots, seed=args.seed
    )
    def _rel(est_v: float, true_v: float) -> Optional[float]:
        if not (math.isfinite(est_v) and math.isfinite(true_v)):
            return None
        return abs(est_v - true_v) / abs(true_v)

    report = {
        "kind": "partial_report",
        "inputs": {
            "alpha": [args.alpha.real, args.alpha.imag],
            "beta": [args.beta.real, args.beta.imag],
            "t1": args.t1,
            "t2": args.t2,
            "true_T1": serialize._finite_or_none(args.T1),
            "true_T2": serialize._finite_or_none(args.T2),
            "shots": args.shots,
            "seed": args.seed,
        },
        "estimates": {
            "T1": serialize._finite_or_none(est.T1),
            "T2": serialize._finite_or_none(est.T2),
            "t_prime_over_T2_prime": serialize._finite_or_none(est.t_prime_over_T2_prime),
        },
        "relative_errors": {
            "T1": _rel(est.T1, args.T1),
            "T2": _rel(est.T2, args.T2),
        },
        "n_configurations": 1,
    }
    rows = [
        {"quantity": "T1", "estimate": est.T1, "truth": args.T1},
        {"quantity": "T2", "estimate": est.T2, "truth": args.T2},
        {
            "quantity": "t_prime_over_T2_prime",
            "estimate": est.t_prime_over_T2_prime,
            "truth": args.t1 / args.T1 + args.t2 / args.T2,
        },
    ]
    _emit(args, report, rows)
    return EXIT_OK


def cmd_resources(args) -> int:
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise InvalidConfigurationError("give --n or --n-min/--n-max, not both")
        n_values = [args.n]
    else:
        n_min = 1 if args.n_min is None else args.n_min
        n_max = 4 if args.n_max is None else args.n_max
        if n_min < 1 or n_max < n_min:
            raise InvalidConfigurationError(
                f"bad range --n-min {n_min} --n-max {n_max}"
            )
        n_values = range(n_min, n_max + 1)
    rows = resources.resource_table(n_values)
    _emit(args, {"kind": "resource_report", "rows": rows}, rows)
    return EXIT_OK


def cmd_sweep(args) -> int:
    chi, spec_dict = _load_channel(args)
    if args.repeats < 1 or any(s < 1 for s in args.shots):
        raise InvalidDistributionError("shots and repeats must be positive")
    # the exact data once per command
    scheme, chi_true, data = dcqd._experiment(chi, args.n, args.alpha, args.beta)
    # one child per run, spawned when the run starts: the same children in
    # the same order as spawning all len(shots) * repeats of them up front
    parent = sampling._seed_sequence(args.seed)
    rows = []
    for shots in args.shots:
        errors = []
        for _ in range(args.repeats):
            (child,) = parent.spawn(1)
            freqs = sampling.sample(scheme, data, shots, child)
            errors.append(float(np.linalg.norm(scheme.solve(freqs).chi - chi_true)))
        rows.append(
            {
                "shots": shots,
                "repeats": args.repeats,
                "median_frobenius_error": float(np.median(errors)),
                "min_frobenius_error": float(np.min(errors)),
                "max_frobenius_error": float(np.max(errors)),
            }
        )
    report = {
        "kind": "sweep_report",
        "n_qubits": args.n,
        "channel": spec_dict,
        "seed": args.seed,
        "rows": rows,
    }
    _emit(args, report, rows)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return globals()[COMMANDS[args.command][2]](args)
    except (DcqdLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
