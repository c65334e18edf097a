"""Command-line driver.

Subcommands: characterize (direct protocol, exact or sampled, optionally
through the partial Bell-analyzer model), sqpt (baseline), compare (both
methods on the same channel), partial (joint T1/T2 estimation), resources
(experiment-count table) and sample-sweep (shot-noise scaling).

Reports are JSON by default (canonical, bit-exact round trip) or CSV for
tabular views.  Output goes to stdout unless --output is given; relative
output paths are resolved against $DCQDLAB_OUTPUT_DIR when set.  Exit
codes: 0 success, 2 argument/parse error, 3 ill-posed configuration,
4 numerical validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

import numpy as np

from . import channels, dcqd, relax, resources, sampling, serialize, sqpt
from .exceptions import (
    DcqdLabError,
    IllPosedConfigurationError,
    IllPosedInputError,
    InconsistentDataError,
    InvalidChannelError,
    InvalidConfigurationError,
    InvalidDistributionError,
    InvalidStateError,
    NotCompletelyPositiveError,
    SaturationError,
)

OUTPUT_DIR_ENV = "DCQDLAB_OUTPUT_DIR"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ILL_POSED = 3
EXIT_VALIDATION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcqdlab",
        description="Simulate and characterize quantum dynamics on small qubit registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, formats=("json", "csv"), default="json"):
        p.add_argument("--output", help=f"output file (relative paths use ${OUTPUT_DIR_ENV})")
        p.add_argument("--format", choices=formats, default=default, help="report format")

    def add_channel(p: argparse.ArgumentParser):
        p.add_argument(
            "--channel",
            required=True,
            help="channel spec, e.g. bit_flip:0.25, amplitude_damping:t=1,T1=2, "
            "unitary:z,1.5708, identity, or @spec.json",
        )
        p.add_argument("--n", type=int, default=1, help="number of primary qubits")

    def add_amplitudes(p: argparse.ArgumentParser):
        p.add_argument(
            "--alpha", type=complex, default=None,
            help="entangled-input amplitude alpha (complex literal, e.g. 0.6 or 0.5+0.5j)",
        )
        p.add_argument("--beta", type=complex, default=None, help="entangled-input amplitude beta")

    p = sub.add_parser("characterize", help="direct characterization of a channel")
    add_channel(p)
    add_amplitudes(p)
    p.add_argument("--shots", type=int, default=None, help="shots per configuration (exact statistics when omitted)")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--optics", action="store_true", help="use the partial Bell-analyzer model (n=1)")
    add_io(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("sqpt", help="standard process tomography baseline")
    add_channel(p)
    add_io(p)
    p.set_defaults(func=cmd_sqpt)

    p = sub.add_parser("compare", help="direct protocol vs baseline on one channel (exact statistics)")
    add_channel(p)
    add_amplitudes(p)
    add_io(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("partial", help="joint T1/T2 estimation from one Bell measurement")
    p.add_argument("--T1", type=float, required=True, help="true amplitude-damping time constant")
    p.add_argument("--T2", type=float, required=True, help="true phase-damping time constant")
    p.add_argument("--t1", type=float, required=True, help="amplitude-damping duration")
    p.add_argument("--t2", type=float, required=True, help="phase-damping duration")
    p.add_argument("--alpha", type=complex, default=complex(math.sqrt(2.0 / 3.0)))
    p.add_argument("--beta", type=complex, default=complex(math.sqrt(1.0 / 3.0)))
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    add_io(p)
    p.set_defaults(func=cmd_partial)

    p = sub.add_parser("resources", help="experiment-count table per scheme")
    p.add_argument("--n", type=int, default=None, help=f"single qubit count (1..{resources.MAX_N})")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=4)
    add_io(p, formats=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("sample-sweep", help="reconstruction error vs shots per configuration")
    add_channel(p)
    add_amplitudes(p)
    p.add_argument("--shots", type=int, nargs="+", required=True, help="shot counts to sweep")
    p.add_argument("--repeats", type=int, default=20, help="independent runs per shot count")
    p.add_argument("--seed", type=int, default=0)
    add_io(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _emit(text: str, args) -> None:
    if args.output:
        path = args.output
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_kraus(args) -> tuple[list[np.ndarray], np.ndarray, dict, bool]:
    """The channel's Kraus set as loaded, its chi on n qubits, its spec and its TP flag.

    A one-qubit set stays one-qubit (`channels.as_chi` extends it).  The
    flag is judged on the channel on n qubits, from chi: the n-fold power of
    a one-qubit set deviates from trace preservation up to n times as much.
    """
    channels.check_register_size(args.n)
    spec = serialize.parse_channel_arg(args.channel)
    kraus = channels.as_kraus(spec)
    chi = channels.as_chi(kraus, args.n)
    trace_preserving = channels._tp_residual(chi) <= 1e-10
    return kraus, chi, serialize.spec_to_dict(spec), trace_preserving


def _amplitudes(args) -> tuple[complex, complex]:
    alpha = args.alpha if args.alpha is not None else dcqd.DEFAULT_ALPHA
    beta = args.beta if args.beta is not None else dcqd.DEFAULT_BETA
    return alpha, beta


def _emit_chi(report: dict, args) -> None:
    if args.format == "csv":
        _emit(serialize.dump_csv(serialize.chi_rows(report)), args)
    else:
        _emit(serialize.dump_json(report), args)


def cmd_characterize(args) -> int:
    kraus, chi_true, spec_dict, tp = _load_kraus(args)
    alpha, beta = _amplitudes(args)
    extra: dict = {"shots": args.shots, "seed": args.seed}
    if args.optics:
        if args.n != 1:
            raise InvalidConfigurationError("the partial Bell-analyzer model is defined for n=1")
        result = sampling.characterize_with_optics(
            kraus, alpha=alpha, beta=beta, shots=args.shots, seed=args.seed
        )
        method = "dcqd_optics"
    elif args.shots is not None:
        result, metrics = sampling.characterize_sampled(
            kraus, n=args.n, shots=args.shots, seed=args.seed, alpha=alpha, beta=beta
        )
        method = "dcqd_sampled"
        extra["frobenius_error_vs_truth"] = metrics.frobenius_error
        extra["max_entry_error_vs_truth"] = metrics.max_entry_error
    else:
        result = dcqd.characterize(kraus, n=args.n, alpha=alpha, beta=beta)
        method = "dcqd"
        extra["frobenius_error_vs_truth"] = float(np.linalg.norm(result.chi - chi_true))
    validation = channels.validate_chi(result.chi, trace_preserving=tp)
    if args.shots is None and not validation.all_ok:
        raise InvalidStateError(
            "exact-statistics reconstruction failed validation: "
            f"{serialize.validation_to_dict(validation)}"
        )
    report = serialize.chi_report(
        result.chi,
        method=method,
        n_qubits=args.n,
        n_configurations=result.n_configurations,
        validation=validation,
        channel_spec=spec_dict,
        closed_form_residual=result.residual,
        design_rank=result.design_rank,
        design_cond=result.design_cond,
        **extra,
    )
    _emit_chi(report, args)
    return EXIT_OK


def cmd_sqpt(args) -> int:
    kraus, chi_true, spec_dict, tp = _load_kraus(args)
    result = sqpt.sqpt_characterize(kraus, n=args.n)
    validation = channels.validate_chi(result.chi, trace_preserving=tp)
    if not validation.all_ok:
        raise InvalidStateError(
            f"baseline reconstruction failed validation: {serialize.validation_to_dict(validation)}"
        )
    report = serialize.chi_report(
        result.chi,
        method="sqpt",
        n_qubits=args.n,
        n_configurations=result.n_experiments,
        validation=validation,
        channel_spec=spec_dict,
        n_inputs=result.n_inputs,
        n_settings_per_input=result.n_settings_per_input,
        frobenius_error_vs_truth=float(np.linalg.norm(result.chi - chi_true)),
    )
    _emit_chi(report, args)
    return EXIT_OK


def cmd_compare(args) -> int:
    kraus, chi_true, spec_dict, tp = _load_kraus(args)
    alpha, beta = _amplitudes(args)
    r_dcqd = dcqd.characterize(kraus, n=args.n, alpha=alpha, beta=beta)
    r_sqpt = sqpt.sqpt_characterize(kraus, n=args.n)
    diff = r_dcqd.chi - r_sqpt.chi
    counts = resources.resource_counts(args.n)
    report = {
        "kind": "compare_report",
        "n_qubits": args.n,
        "channel": spec_dict,
        "trace_preserving": tp,
        "max_entry_difference": float(np.max(np.abs(diff))),
        "frobenius_difference": float(np.linalg.norm(diff)),
        "dcqd": {
            "n_experiments": r_dcqd.n_configurations,
            "frobenius_error_vs_truth": float(np.linalg.norm(r_dcqd.chi - chi_true)),
            "chi_real": r_dcqd.chi.real.tolist(),
            "chi_imag": r_dcqd.chi.imag.tolist(),
        },
        "sqpt": {
            "n_experiments": r_sqpt.n_experiments,
            "frobenius_error_vs_truth": float(np.linalg.norm(r_sqpt.chi - chi_true)),
            "chi_real": r_sqpt.chi.real.tolist(),
            "chi_imag": r_sqpt.chi.imag.tolist(),
        },
        "resources": counts,
    }
    if args.format == "csv":
        rows = [
            {
                "method": name,
                "n_experiments": report[name]["n_experiments"],
                "frobenius_error_vs_truth": report[name]["frobenius_error_vs_truth"],
            }
            for name in ("dcqd", "sqpt")
        ]
        _emit(serialize.dump_csv(rows), args)
    else:
        _emit(serialize.dump_json(report), args)
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
        if not math.isfinite(est_v):
            return None
        return abs(est_v - true_v) / abs(true_v)

    report = {
        "kind": "partial_report",
        "inputs": {
            "alpha": [args.alpha.real, args.alpha.imag],
            "beta": [args.beta.real, args.beta.imag],
            "t1": args.t1,
            "t2": args.t2,
            "true_T1": args.T1,
            "true_T2": args.T2,
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
    if args.format == "csv":
        rows = [
            {"quantity": "T1", "estimate": est.T1, "truth": args.T1},
            {"quantity": "T2", "estimate": est.T2, "truth": args.T2},
            {
                "quantity": "t_prime_over_T2_prime",
                "estimate": est.t_prime_over_T2_prime,
                "truth": args.t1 / args.T1 + args.t2 / args.T2,
            },
        ]
        _emit(serialize.dump_csv(rows), args)
    else:
        _emit(serialize.dump_json(report), args)
    return EXIT_OK


def cmd_resources(args) -> int:
    if args.n is not None:
        n_values = [args.n]
    else:
        if args.n_min < 1 or args.n_max < args.n_min:
            raise InvalidConfigurationError(
                f"bad range --n-min {args.n_min} --n-max {args.n_max}"
            )
        n_values = range(args.n_min, args.n_max + 1)
    rows = resources.resource_table(n_values)
    if args.format == "json":
        _emit(serialize.dump_json({"kind": "resource_report", "rows": rows}), args)
    elif args.format == "csv":
        _emit(serialize.dump_csv(rows), args)
    else:
        _emit(resources.format_table(rows) + "\n", args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    kraus, _chi, spec_dict, _tp = _load_kraus(args)
    alpha, beta = _amplitudes(args)
    if args.repeats < 1 or any(s < 1 for s in args.shots):
        raise InvalidDistributionError("shots and repeats must be positive")
    experiment = dcqd._experiment(kraus, args.n, alpha, beta)
    # one child per run, spawned when the run starts: the same children in
    # the same order as spawning all len(shots) * repeats of them up front
    parent = np.random.SeedSequence(args.seed)
    rows = []
    for shots in args.shots:
        errors = []
        for _ in range(args.repeats):
            (child,) = parent.spawn(1)
            _, metrics = sampling._sample_and_solve(experiment, shots, child)
            errors.append(metrics.frobenius_error)
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
    if args.format == "csv":
        _emit(serialize.dump_csv(rows), args)
    else:
        _emit(serialize.dump_json(report), args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NotCompletelyPositiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InvalidChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidConfigurationError, IllPosedConfigurationError, IllPosedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED
    except (
        InvalidStateError,
        InvalidDistributionError,
        SaturationError,
        InconsistentDataError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DcqdLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
