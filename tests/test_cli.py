import argparse
import hashlib
import json
import math
import time

import numpy as np
import pytest

from conftest import NESTED_CHANNEL_FILES
from dcqdlab import channels, cli, dcqd, exceptions, resources, sampling, serialize, sqpt
from dcqdlab.exceptions import InvalidChannelError, InvalidConfigurationError


PARTIAL = ["partial", "--T1", "2", "--T2", "1", "--t1", "1", "--t2", "1"]


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that fails on a NaN, Infinity or -Infinity token."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestCharacterize:
    def test_bit_flip_report(self, tmp_path, capsys):
        out = tmp_path / "chi.json"
        code, _, _ = run(
            ["characterize", "--channel", "bit_flip:0.25", "--n", "1", "--output", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads(out.read_text())
        chi = serialize.chi_from_report(report)
        assert chi[0, 0].real == pytest.approx(0.75, abs=1e-10)
        assert chi[1, 1].real == pytest.approx(0.25, abs=1e-10)
        assert report["method"] == "dcqd"
        assert report["n_configurations"] == 4
        assert report["validation"]["all_ok"] is True
        assert report["closed_form_residual"] < 1e-10

    def test_sampled_run_is_deterministic(self, capsys):
        args = ["characterize", "--channel", "depolarizing:0.2", "--shots", "5000", "--seed", "9"]
        code1, out1, _ = run(args, capsys)
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["method"] == "dcqd_sampled"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["characterize", "--channel", "identity", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row,col,real,imag"
        assert len(lines) == 17

    def test_optics_mode(self, capsys):
        for n, configurations in ((1, 8), (2, 64)):
            code, out, _ = run(
                ["characterize", "--channel", "bit_flip:0.25", "--optics", "--n", str(n)], capsys
            )
            assert code == 0
            report = json.loads(out)
            assert report["method"] == "dcqd_optics"
            assert report["n_configurations"] == configurations
            assert serialize.chi_from_report(report).shape == (4**n, 4**n)

    def test_optics_n_checked_before_the_channel(self, capsys, channel_untouched):
        # chi on all five qubits used to be built and judged first; the
        # analyzer's data on 5 pairs exceed the data bound
        code, _, err = run(
            ["characterize", "--channel", "depolarizing:0.1", "--n", "5", "--optics"], capsys
        )
        assert code == cli.EXIT_ILL_POSED
        assert "24**5" in err
        # an n out of range gets the register message first
        code, _, err = run(
            ["characterize", "--channel", "depolarizing:0.1", "--n", "9", "--optics"], capsys
        )
        assert code == cli.EXIT_ILL_POSED
        assert "16**9" in err

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, _, _ = run(
            ["characterize", "--channel", "identity", "--output", "report.json"], capsys
        )
        assert code == 0
        assert (tmp_path / "report.json").exists()


class TestExitCodes:
    def test_unknown_channel_kind(self, capsys):
        code, _, err = run(["characterize", "--channel", "nonsense:1"], capsys)
        assert code == 2
        assert "nonsense" in err

    def test_bad_parameter_value(self, capsys):
        code, _, _ = run(["characterize", "--channel", "bit_flip:1.5"], capsys)
        assert code == 2

    def test_missing_required_flag(self, capsys):
        assert cli.main(["characterize"]) == 2

    def test_ill_posed_amplitudes(self, capsys):
        s2 = repr(1 / math.sqrt(2))
        code, _, err = run(
            ["characterize", "--channel", "identity", "--alpha", s2, "--beta", s2], capsys
        )
        assert code == 3
        assert "alpha" in err

    @pytest.mark.parametrize(
        "amplitudes,extra,message",
        [
            pytest.param(("nan", "0.5"), [], "finite", id="extra0"),
            pytest.param(("nan", "0.5"), ["--shots", "1000", "--seed", "1"], "finite", id="extra1"),
            pytest.param(("nan", "0.5"), ["--optics"], "finite", id="extra2"),
            # finite, but |alpha|**2 overflows a float
            pytest.param(("1e200", "1e200"), [], "!= 1", id="huge"),
            pytest.param(("1e200", "1e200"), ["--shots", "1000", "--seed", "1"], "!= 1", id="huge-shots"),
            pytest.param(("1e200", "1e200"), ["--optics"], "!= 1", id="huge-optics"),
        ],
    )
    def test_non_finite_amplitude(self, amplitudes, extra, message, capsys):
        alpha, beta = amplitudes
        code, _, err = run(
            ["characterize", "--channel", "depolarizing:0.1", "--alpha", alpha, "--beta", beta]
            + extra,
            capsys,
        )
        assert code == cli.EXIT_ILL_POSED
        assert message in err

    def test_register_size_limit(self, capsys, channel_untouched):
        code, _, err = run(["characterize", "--channel", "identity", "--n", "6"], capsys)
        assert code == cli.EXIT_ILL_POSED
        assert "16**6" in err

    @pytest.mark.parametrize("channel", ["amplitude_damping:t=1,T1=nan", "phase_damping:t=nan,T2=1"])
    def test_nan_time_constant(self, channel, capsys):
        code, _, err = run(["characterize", "--channel", channel], capsys)
        assert code == cli.EXIT_PARSE
        assert "must be" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "--channel", "identity"],
            ["characterize", "--channel", "identity", "--optics"],
            ["sample-sweep", "--channel", "identity"],
            ["partial", "--T1", "2", "--T2", "1", "--t1", "1", "--t2", "1"],
        ],
        ids=["characterize", "optics", "sample-sweep", "partial"],
    )
    def test_shot_count_beyond_int64(self, argv, capsys):
        code, _, err = run(argv + ["--shots", str(10**20), "--seed", "1"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert "shots must be an integer" in err

    @pytest.mark.parametrize(
        "amplitudes",
        [
            ["--alpha", "nan"],
            ["--alpha", "0.9", "--beta", "0.1"],
            ["--alpha", "1e200", "--beta", "1e200"],
        ],
    )
    def test_partial_bad_amplitudes(self, amplitudes, capsys):
        argv = ["partial", "--T1", "2", "--T2", "1", "--t1", "1", "--t2", "1"] + amplitudes
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_ILL_POSED
        assert "alpha" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "bit_flip", "params": {"p": None}},
            {"kind": "bit_flip", "params": {"p": "abc"}},
            {"kind": "explicit_kraus", "operators": [[[["nan", 0], [0, 0]], [[0, 0], [1, 0]]]]},
            {"kind": "explicit_kraus", "operators": [[[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]]},
            {"kind": "unitary", "operators": [[[["nan", 0], [0, 0]], [[0, 0], [1, 0]]]]},
            {"kind": "unitary", "params": {"axis": "z", "angle": "nan"}},
            {"kind": "identity", "params": {"n": 1.7}},
            {"kind": "identity", "params": {"n": 40}},
            {"kind": "identity", "params": {"n": 13}},
            {"kind": "composed", "stages": None},
            # these ran bit_flip(0.1), echoing one operator; bit_flip(1.0); and bit_flip(0.1)
            {
                "kind": "bit_flip", "params": {"p": 0.1},
                "operators": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]], "stages": [{"kind": "identity"}],
            },
            {"kind": "bit_flip", "params": {"p": True}},
            {"kind": "bit_flip", "params": {"p": "0.1"}},
            # these built the identity: a matrix entry true, or "1", read as 1
            {"kind": "unitary", "operators": [[[[True, 0], [0, 0]], [[0, 0], ["1", 0]]]]},
            {"kind": "unitary", "operators": [[[[1, 0], [0, False]], [[0, 0], [1, 0]]]]},
            {"kind": "explicit_kraus", "operators": [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]]},
        ],
        ids=[
            "p_null", "p_text", "kraus_nan", "kraus_huge", "unitary_nan", "angle_nan",
            "identity_fraction", "identity_n40", "identity_n13", "stages_null",
            "fields_not_read", "p_true", "p_numeric_text", "entry_true", "entry_false",
            "entry_numeric_text",
        ],
    )
    def test_malformed_spec_file(self, doc, tmp_path, capsys):
        with pytest.raises(InvalidChannelError):
            channels.kraus_from_spec(serialize.spec_from_dict(doc))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["characterize", "--channel", f"@{path}"], capsys)
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "channel,message",
        [
            # a missing parameter is judged by the kind's builder
            ("bit_flip", "p must be a probability in [0, 1], got None"),
            ("unitary:z", "rotation angle must be finite, got None"),
            ("unitary:angle=1", "rotation axis must be x, y or z, got None"),
            ("amplitude_damping:t=1", "need gamma or both t and T1"),
            ({"kind": "unitary", "params": {"axis": "z"}}, "rotation angle must be finite, got None"),
            # params that are not an object are judged by kraus_from_spec, not the file reader
            (
                {"kind": "bit_flip", "params": [["p", 0.1]]},
                "bit_flip spec params must be a mapping, got [['p', 0.1]]",
            ),
            (
                {"kind": "bit_flip", "params": None},
                "bit_flip spec params must be a mapping, got None",
            ),
        ],
        ids=["bit_flip", "unitary_axis", "unitary_angle", "amplitude_damping", "file_axis",
             "file_params_list", "file_params_null"],
    )
    def test_spec_message(self, channel, message, tmp_path, capsys):
        if isinstance(channel, dict):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(channel))
            channel = f"@{path}"
        with pytest.raises(InvalidChannelError) as info:
            channels.kraus_from_spec(serialize.parse_channel_arg(channel))
        assert str(info.value) == message
        assert run(["characterize", "--channel", channel], capsys) == (
            cli.EXIT_PARSE, "", f"error: {message}\n"
        )

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    # every error main reports and the code it exits with
    ERROR_CODES = [
        (exceptions.DcqdLabError, 4),
        (exceptions.DimensionMismatchError, 2),
        (exceptions.InvalidStateError, 4),
        (exceptions.InvalidChannelError, 2),
        (exceptions.NotCompletelyPositiveError, 4),
        (exceptions.InvalidConfigurationError, 3),
        (exceptions.IllPosedConfigurationError, 3),
        (exceptions.InvalidDistributionError, 4),
        (exceptions.SaturationError, 4),
        (exceptions.InconsistentDataError, 4),
        (exceptions.IllPosedInputError, 3),
        (OSError, 2),
        (FileNotFoundError, 2),
        (ValueError, 2),
    ]

    @pytest.mark.parametrize("error,code", ERROR_CODES, ids=[e.__name__ for e, _ in ERROR_CODES])
    def test_exit_code_of_each_error(self, error, code, capsys, monkeypatch):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_resources", fail)
        assert run(["resources", "--n", "1"], capsys) == (code, "", "error: boom\n")

    def test_exact_estimate_failing_validation(self, capsys, monkeypatch):
        # an exact estimate that fails validation is refused, not reported
        original = dcqd.characterize

        def negated(*args, **kwargs):
            result = original(*args, **kwargs)
            result.chi = -result.chi
            return result

        monkeypatch.setattr(dcqd, "characterize", negated)
        code, out, err = run(["characterize", "--channel", "depolarizing:0.1"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: dcqd reconstruction from exact statistics failed validation")

    def test_every_dcqdlab_error_has_a_code(self):
        defined = {
            c for c in vars(exceptions).values() if isinstance(c, type) and issubclass(c, Exception)
        }
        assert defined <= {error for error, _ in self.ERROR_CODES}

    def test_other_errors_propagate(self, capsys, monkeypatch):
        def fail(args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "cmd_resources", fail)
        with pytest.raises(KeyError):
            cli.main(["resources", "--n", "1"])

    @pytest.mark.parametrize(
        "channel,message",
        [
            ("depolarizing:p=0.1,q=0.9", "depolarizing spec takes no parameter 'q'"),
            ("bit_flip:0.1,p=0.3", "parameter 'p' given twice"),
        ],
    )
    def test_spec_parameter_not_taken(self, channel, message, capsys):
        # both used to run: depolarizing(0.1) and bit_flip(0.3)
        code, out, err = run(["characterize", "--channel", channel], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "--channel", "identity", "--shots", "10"],
            ["characterize", "--channel", "identity", "--optics"],
            ["sample-sweep", "--channel", "identity", "--shots", "10"],
            ["partial", "--T1", "2", "--T2", "1", "--t1", "1", "--t2", "1", "--shots", "10"],
            # no seed is used here; a bad one used to be echoed into the report
            ["characterize", "--channel", "identity"],
            PARTIAL,
        ],
        ids=["characterize", "optics", "sample-sweep", "partial", "exact", "partial-exact"],
    )
    def test_negative_seed(self, argv, capsys):
        # numpy's "expected non-negative integer" used to exit 2
        code, out, err = run(argv + ["--seed", "-1"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == "error: seed must be None, a non-negative integer or a SeedSequence, got -1\n"

    @pytest.mark.parametrize("shots", [[], ["--shots", "10"]], ids=["exact", "shots"])
    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["characterize", "--channel", "identity", "--alpha", "nan"], 3, "must be finite"),
            (["characterize", "--channel", "bit_flip:2"], 2, "probability"),
            (PARTIAL + ["--alpha", "nan"], 3, "must be finite"),
            (["partial", "--T1", "2", "--T2", "1", "--t1", "0", "--t2", "1"], 4, "seed must be"),
        ],
        ids=["amplitudes", "channel", "partial-amplitudes", "partial-t1"],
    )
    def test_seed_precedence(self, argv, code, message, shots, capsys):
        # with several bad arguments, the exact mode reports the one that
        # the sampled mode reports
        got, _, err = run(argv + shots + ["--seed", "-1"], capsys)
        assert got == code
        assert message in err


class TestSqptAndCompare:
    def test_sqpt_report(self, capsys):
        code, out, _ = run(["sqpt", "--channel", "bit_flip:0.25"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "sqpt"
        assert report["n_configurations"] == 16
        chi = serialize.chi_from_report(report)
        assert chi[1, 1].real == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    def test_sqpt_report_diagnostics(self, n, capsys):
        # the diagnostics of every chi report, then the counts of the inputs
        code, out, _ = run(["sqpt", "--channel", "depolarizing:0.1", "--n", str(n)], capsys)
        assert code == 0
        report = strict_json(out)
        keys = list(report)
        assert keys[keys.index("channel") + 1 :][:5] == [
            "closed_form_residual", "design_rank", "design_cond", "n_inputs", "n_settings_per_input",
        ]
        assert report["closed_form_residual"] is None
        assert report["design_rank"] == 16**n
        assert report["design_cond"] == pytest.approx(3.2255**n, rel=1e-4)
        assert report["n_inputs"] == report["n_settings_per_input"] == 4**n
        assert report["n_configurations"] == 16**n

    def test_compare_reports_both_methods(self, capsys):
        code, out, _ = run(["compare", "--channel", "amplitude_damping:0.4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dcqd"]["n_experiments"] == 4
        assert report["sqpt"]["n_experiments"] == 16
        assert report["max_entry_difference"] < 1e-8
        assert report["resources"]["dcqd"]["n_experiments"] == 4

    def test_compare_chis_decode(self, capsys):
        code, out, _ = run(["compare", "--channel", "amplitude_damping:0.4", "--n", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        truth = channels.Chi.of(serialize.parse_channel_arg("amplitude_damping:0.4"), 2).matrix
        chis = {m: serialize.chi_from_report(report[m]) for m in ("dcqd", "sqpt")}
        for method, chi in chis.items():
            assert chi.shape == (16, 16)
            assert float(np.linalg.norm(chi - truth)) == report[method]["frobenius_error_vs_truth"]
        assert float(np.max(np.abs(chis["dcqd"] - chis["sqpt"]))) == report["max_entry_difference"]

    def test_compare_rejects_shots_flag(self, capsys):
        assert cli.main(["compare", "--channel", "identity", "--shots", "100"]) == 2


class TestChiReportErrors:
    # every command that reconstructs chi, in each of its modes
    CASES = [
        (["characterize"], 1),
        (["characterize"], 2),
        (["characterize", "--shots", "2000", "--seed", "3"], 1),
        (["characterize", "--shots", "2000", "--seed", "3"], 2),
        (["characterize", "--optics"], 1),
        (["characterize", "--optics", "--shots", "500", "--seed", "2"], 1),
        (["sqpt"], 1),
        (["sqpt"], 2),
        (["compare"], 1),
        (["compare"], 2),
    ]
    KEYS = ["frobenius_error_vs_truth", "max_entry_error_vs_truth"]

    IDS = [" ".join(a for a in argv if not a.isdigit()) + f" n={n}" for argv, n in CASES]

    @pytest.mark.parametrize("argv,n", CASES, ids=IDS)
    def test_both_errors_against_the_channel(self, argv, n, capsys):
        flag = "amplitude_damping:t=1,T1=2"
        code, out, _ = run(argv + ["--channel", flag, "--n", str(n)], capsys)
        assert code == 0
        report = json.loads(out)
        truth = channels.Chi.of(serialize.parse_channel_arg(flag), n).matrix
        if argv[0] == "compare":
            reports = [report["dcqd"], report["sqpt"]]
            assert all(list(r)[-3:] == self.KEYS + ["chi"] for r in reports)
        else:
            reports = [report]
            assert list(report)[-2:] == self.KEYS
        for r in reports:
            delta = serialize.chi_from_report(r) - truth
            assert r["frobenius_error_vs_truth"] == float(np.linalg.norm(delta))
            assert r["max_entry_error_vs_truth"] == float(np.max(np.abs(delta)))

    SCHEMES = {
        "dcqd": dcqd.pair_scheme,
        "dcqd_sampled": dcqd.pair_scheme,
        "dcqd_optics": dcqd.optics_scheme,
        "sqpt": sqpt._scheme,
    }

    @pytest.mark.parametrize(
        "argv,n",
        [c for c in CASES if c[0][0] != "compare"],
        ids=[i for c, i in zip(CASES, IDS) if c[0][0] != "compare"],
    )
    def test_diagnostics_from_the_result(self, argv, n, capsys):
        # every chi report writes the same three diagnostics right after the channel
        code, out, _ = run(argv + ["--channel", "amplitude_damping:t=1,T1=2", "--n", str(n)], capsys)
        assert code == 0
        report = json.loads(out)
        keys = list(report)
        diagnostics = ["closed_form_residual", "design_rank", "design_cond"]
        assert keys[keys.index("channel") + 1 :][:3] == diagnostics
        scheme = self.SCHEMES[report["method"]]()
        _pinv, cond, rank = scheme._svd
        assert (report["design_rank"], report["design_cond"]) == (rank**n, cond**n)
        assert report["n_configurations"] == scheme.counts(n)["n_experiments"]
        assert (report["closed_form_residual"] is None) == (report["method"] != "dcqd" or n > 1)


class TestPartial:
    def test_exact_estimates(self, capsys):
        code, out, _ = run(
            ["partial", "--T1", "2", "--T2", "1", "--t1", "1", "--t2", "1"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["estimates"]["T1"] == pytest.approx(2.0, abs=1e-9)
        assert report["estimates"]["T2"] == pytest.approx(1.0, abs=1e-9)
        assert report["n_configurations"] == 1

    def test_sampled_estimates(self, capsys):
        code, out, _ = run(
            [
                "partial", "--T1", "2", "--T2", "1", "--t1", "1", "--t2", "1",
                "--shots", "1000000", "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["relative_errors"]["T1"] < 0.05
        assert report["relative_errors"]["T2"] < 0.05

    @pytest.mark.parametrize("seed", [None, "1", "4", "6"])
    def test_infinite_truth_writes_strict_json(self, seed, capsys):
        # "true_T2": Infinity and, sampled, "relative_errors": {"T2": NaN} before
        argv = ["partial", "--T1", "2", "--T2", "inf", "--t1", "1", "--t2", "1"]
        if seed is not None:
            argv += ["--shots", "1000", "--seed", seed]
        code, out, _ = run(argv, capsys)
        assert code == 0
        report = strict_json(out)
        assert report["inputs"]["true_T2"] == "inf"
        assert report["relative_errors"]["T2"] is None

    def test_report_writer_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize.dump_json({"x": math.nan})


class TestResources:
    def test_largest_register_counts_exact(self, capsys):
        code, out, _ = run(["resources", "--n", "15", "--format", "json"], capsys)
        assert code == 0
        by_scheme = {r["scheme"]: r for r in json.loads(out)["rows"]}
        assert by_scheme["sqpt"]["n_experiments"] == 16**15
        assert by_scheme["sqpt"]["hilbert_dim"] == 2**15
        assert by_scheme["aapt_nonseparable"]["n_measurements"] == 4**15 + 1
        assert by_scheme["dcqd"]["n_experiments"] == 4**15
        code, out, _ = run(["resources", "--n", "15", "--format", "csv"], capsys)
        assert code == 0
        assert str(16**15) in out

    @pytest.mark.parametrize(
        "argv",
        [["--n", "16"], ["--n", "0"], ["--n", "100000"], ["--n-min", "1", "--n-max", "100000000"]],
        ids=["n16", "n0", "n100000", "n_max_huge"],
    )
    def test_register_bound(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run(["resources"] + argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_ILL_POSED
        assert out == ""
        assert "1..15" in err

    def test_library_bound(self):
        assert resources.MAX_N == 15
        for bad in (0, 16):
            with pytest.raises(InvalidConfigurationError, match="1..15"):
                resources.resource_counts(bad)
        start = time.perf_counter()
        with pytest.raises(InvalidConfigurationError, match="got 16"):
            resources.resource_table(range(1, 10**8))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n_values", [None, 3])
    def test_library_needs_an_iterable(self, n_values):
        # raised the builtin TypeError
        with pytest.raises(InvalidConfigurationError, match="iterable"):
            resources.resource_table(n_values)

    @pytest.mark.parametrize("argv", [["--n-min", "0"], ["--n-min", "3", "--n-max", "2"]])
    def test_bad_range(self, argv, capsys):
        code, out, err = run(["resources"] + argv, capsys)
        assert code == cli.EXIT_ILL_POSED
        assert out == ""
        assert "bad range" in err

    @pytest.mark.parametrize(
        "argv", [["--n-min", "5"], ["--n-max", "3"], ["--n-min", "1", "--n-max", "4"]],
        ids=["n_min", "n_max", "both"],
    )
    def test_n_and_range_refused(self, argv, capsys):
        # --n 2 --n-min 5 printed the n = 2 table and ignored the range
        code, out, err = run(["resources", "--n", "2"] + argv, capsys)
        assert (code, out) == (cli.EXIT_ILL_POSED, "")
        assert "give --n or --n-min/--n-max, not both" in err

    @pytest.mark.parametrize("argv,n_values", [(["--n-min", "3"], [3, 4]), (["--n-max", "2"], [1, 2])])
    def test_range_defaults(self, argv, n_values, capsys):
        code, out, _ = run(["resources", "--format", "json"] + argv, capsys)
        assert code == 0
        assert sorted({r["n"] for r in json.loads(out)["rows"]}) == n_values

    def test_single_n_text(self, capsys):
        code, out, _ = run(["resources", "--n", "3"], capsys)
        assert code == 0
        assert "4096" in out
        assert " 64" in out

    def test_range_json(self, capsys):
        code, out, _ = run(["resources", "--n-min", "1", "--n-max", "4", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        by_key = {(r["n"], r["scheme"]): r["n_experiments"] for r in rows}
        assert by_key[(1, "sqpt")] == 16
        assert by_key[(1, "aapt_nonseparable")] == 5
        assert by_key[(1, "dcqd")] == 4
        assert by_key[(4, "sqpt")] == 65536
        assert by_key[(4, "dcqd")] == 256

    def test_csv(self, capsys):
        code, out, _ = run(["resources", "--n", "2", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("n,scheme,")
        assert any("256" in line for line in out.splitlines())


class TestSweep:
    ARGV = [
        "sample-sweep", "--channel", "bit_flip:0.3",
        "--shots", "200", "2000", "--repeats", "3", "--seed", "5",
    ]

    def test_report_matches_up_front_spawn(self, capsys, monkeypatch):
        # the report seeded by one SeedSequence(seed).spawn(len(shots) * repeats)
        _, out, _ = run(self.ARGV, capsys)
        children = iter(np.random.SeedSequence(5).spawn(2 * 3))
        original = sampling.sample

        def up_front(scheme, data, shots, _child):
            return original(scheme, data, shots, next(children))

        monkeypatch.setattr(sampling, "sample", up_front)
        _, reference, _ = run(self.ARGV, capsys)
        assert next(children, None) is None
        assert out == reference

    def test_seeds_spawned_per_run(self, capsys, monkeypatch):
        requests = []

        class Recording(np.random.SeedSequence):
            def spawn(self, n_children):
                requests.append(n_children)
                return super().spawn(n_children)

        _, out, _ = run(self.ARGV, capsys)
        monkeypatch.setattr(np.random, "SeedSequence", Recording)
        code, recorded, _ = run(self.ARGV, capsys)
        assert code == 0
        assert recorded == out
        assert requests
        assert 2 * 3 not in requests

    def test_sweep_rows(self, capsys):
        code, out, _ = run(
            [
                "sample-sweep", "--channel", "amplitude_damping:0.35",
                "--shots", "1000", "100000", "--repeats", "3", "--seed", "0",
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["shots"] for r in rows] == [1000, 100000]
        assert rows[1]["median_frobenius_error"] < rows[0]["median_frobenius_error"]

    @pytest.mark.parametrize("argv", [["--shots", "0"], ["--shots", "10", "--repeats", "0"]])
    def test_shots_and_repeats_must_be_positive(self, argv, capsys):
        code, out, err = run(["sample-sweep", "--channel", "identity"] + argv, capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == "error: shots and repeats must be positive\n"

    def test_seeded_identical_output(self, capsys):
        args = [
            "sample-sweep", "--channel", "bit_flip:0.3",
            "--shots", "2000", "--repeats", "2", "--seed", "5",
        ]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2


def test_explicit_kraus_file(tmp_path, capsys):
    doc = {
        "kind": "explicit_kraus",
        "operators": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [math.sqrt(0.5), 0.0]]],
            [[[0.0, 0.0], [math.sqrt(0.5), 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        ],
    }
    path = tmp_path / "ad.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["characterize", "--channel", f"@{path}"])
    assert code == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nearly_trace_preserving_kraus_file(n, tmp_path, capsys):
    # sum K^dag K = (1 - 6e-11) I: trace preserving within 1e-10 on one qubit,
    # not on three, so the TP flag must be judged on the channel on n qubits
    scale = math.sqrt(1 - 6e-11)
    kraus = [scale * k for k in channels.amplitude_damping(0.3)]
    spec = channels.ChannelSpec(kind="explicit_kraus", operators=tuple(kraus))
    path = tmp_path / "near_tp.json"
    path.write_text(json.dumps(serialize.spec_to_dict(spec)))
    code, out, _ = run(["characterize", "--channel", f"@{path}", "--n", str(n)], capsys)
    assert code == 0
    assert json.loads(out)["validation"]["all_ok"] is True


class TestReports:
    def test_n4_json_report_size(self, capsys):
        # 3.9 MB while chi was written as lists of decimal floats
        code, out, _ = run(["characterize", "--channel", "depolarizing:0.1", "--n", "4"], capsys)
        assert code == 0
        assert len(out.encode()) < 1_500_000
        report = json.loads(out)
        assert serialize.chi_from_report(report).shape == (256, 256)
        assert report["validation"]["all_ok"] is True

    def test_csv_bytes_unchanged(self, capsys):
        # the sha256 of the CSV written while chi was stored as lists of floats
        code, out, _ = run(
            ["characterize", "--channel", "amplitude_damping:0.3", "--n", "2", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8c47ebb7bbadc7b9de3027ccbc45b366e8028f7790adb5778f3680d29664c692"
        )

    @pytest.mark.parametrize("command", ["characterize", "sqpt", "compare", "sample-sweep"])
    def test_file_channel_echoed_by_digest(self, command, tmp_path, capsys):
        spec = channels.ChannelSpec("explicit_kraus", operators=tuple(channels.random_channel(1, seed=2)))
        path = tmp_path / "map.json"
        path.write_text(json.dumps(serialize.spec_to_dict(spec)))
        extra = ["--shots", "100", "--repeats", "1"] if command == "sample-sweep" else []
        code, out, _ = run([command, "--channel", f"@{path}", *extra], capsys)
        assert code == 0
        assert json.loads(out)["channel"] == {
            "kind": "explicit_kraus",
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "n_operators": len(spec.operators),
        }

    def test_flag_channel_echoed_whole(self, capsys):
        code, out, _ = run(["characterize", "--channel", "amplitude_damping:t=1,T1=2"], capsys)
        assert code == 0
        assert json.loads(out)["channel"] == {
            "kind": "amplitude_damping", "params": {"t": 1.0, "T1": 2.0}
        }

    @pytest.mark.parametrize("command", ["characterize", "sqpt", "compare", "sample-sweep"])
    @pytest.mark.parametrize(
        "flag,echo",
        [
            ("amplitude_damping:t=1,T1=inf", {"t": 1.0, "T1": "inf"}),
            ("phase_damping:t=1,T2=inf", {"t": 1.0, "T2": "inf"}),
        ],
    )
    def test_flag_channel_with_infinite_time_constant(self, command, flag, echo, capsys):
        # tc = inf (no decay) is a valid channel, so its report must be written
        extra = ["--shots", "100", "--repeats", "1"] if command == "sample-sweep" else []
        code, out, err = run([command, "--channel", flag, *extra], capsys)
        assert (code, err) == (0, "")
        assert strict_json(out)["channel"] == {"kind": flag.partition(":")[0], "params": echo}

    @pytest.mark.parametrize(
        "content", [b"{\"kind\": ", b"\xff\xfe{\x00}\x00"], ids=["not-json", "not-utf8"]
    )
    def test_unreadable_channel_file(self, content, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        code, out, err = run(["characterize", "--channel", f"@{path}"], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err.startswith("error: channel file ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("name", NESTED_CHANNEL_FILES)
def test_deeply_nested_channel_file(name, tmp_path, capsys):
    # both ended in a RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text(NESTED_CHANNEL_FILES[name])
    code, out, err = run(["characterize", "--channel", f"@{path}"], capsys)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == f"error: channel file {str(path)!r} is nested too deeply to read\n"


def test_unphysical_kraus_file_rejected(tmp_path, capsys):
    doc = {"kind": "explicit_kraus", "operators": [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["characterize", "--channel", f"@{path}"], capsys)
    assert code == 2
    assert "trace" in err


class TestOneConversion:
    # a file-loaded map is validated once and converted to chi once per
    # command, however many library calls the command makes
    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "--n", "2"],
            ["characterize", "--n", "2", "--shots", "100", "--seed", "1"],
            ["characterize", "--optics"],
            ["sqpt", "--n", "2"],
            ["compare", "--n", "2"],
            ["sample-sweep", "--n", "2", "--shots", "100", "--repeats", "2"],
        ],
        ids=["exact", "shots", "optics", "sqpt", "compare", "sample-sweep"],
    )
    def test_one_conversion_per_command(self, argv, tmp_path, capsys, monkeypatch):
        n = 2 if "--n" in argv else 1
        kraus = channels.random_channel(n, seed=4)
        spec = channels.ChannelSpec(kind="explicit_kraus", operators=tuple(kraus))
        path = tmp_path / "map.json"
        path.write_text(json.dumps(serialize.spec_to_dict(spec)))
        calls = {"chi_from_kraus": 0, "_stacked_kraus": 0}
        for name in calls:
            original = getattr(channels, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(channels, name, counting)
        code, _, err = run(argv + ["--channel", f"@{path}"], capsys)
        assert (code, err) == (0, "")
        assert calls == {"chi_from_kraus": 1, "_stacked_kraus": 1}


class TestEmit:
    # per command: its arguments, the JSON report's kind and the CSV header
    CASES = {
        "characterize": (["--channel", "bit_flip:0.25"], "chi_report", "row,col,real,imag"),
        "sqpt": (["--channel", "bit_flip:0.25"], "chi_report", "row,col,real,imag"),
        "compare": (
            ["--channel", "phase_damping:0.3", "--n", "2"],
            "compare_report",
            "method,n_experiments,frobenius_error_vs_truth",
        ),
        "partial": (PARTIAL[1:], "partial_report", "quantity,estimate,truth"),
        "resources": (
            ["--n", "2"],
            "resource_report",
            "n,scheme,hilbert_dim,n_inputs,n_measurements,n_experiments",
        ),
        "sample-sweep": (
            ["--channel", "bit_flip:0.3", "--shots", "100", "--repeats", "2"],
            "sweep_report",
            "shots,repeats,median_frobenius_error,min_frobenius_error,max_frobenius_error",
        ),
    }

    @staticmethod
    def formats(command):
        (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
        (fmt,) = (a for a in sub.choices[command]._actions if a.dest == "format")
        return fmt.choices

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_format(self, command, capsys):
        args, kind, header = self.CASES[command]
        for fmt in self.formats(command):
            code, out, err = run([command, *args, "--format", fmt], capsys)
            assert (code, err) == (0, "")
            if fmt == "json":
                assert json.loads(out)["kind"] == kind
            elif fmt == "csv":
                assert out.splitlines()[0] == header
            else:
                assert fmt == "text"
                assert out == resources.format_table(resources.resource_table([2])) + "\n"

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_output_file_matches_stdout(self, command, tmp_path, capsys):
        # --output gets the bytes stdout gets, in every format; a chi CSV is
        # written one chi row at a time
        args, _, _ = self.CASES[command]
        for fmt in self.formats(command):
            code, out, err = run([command, *args, "--format", fmt], capsys)
            assert (code, err) == (0, "")
            path = tmp_path / f"report.{fmt}"
            code, printed, err = run([command, *args, "--format", fmt, "--output", str(path)], capsys)
            assert (code, printed, err) == (0, "", "")
            assert path.read_bytes() == out.encode("utf-8")


class TestCommandSequence:
    # each command run alone on cold design caches, then all of them in one
    # sequence: the bytes written and the exit codes must not depend on what
    # ran before
    SEQUENCE = [
        ["characterize", "--channel", "depolarizing:0.2", "--shots", "500", "--seed", "3"],
        ["characterize", "--channel", "depolarizing:0.2"],
        ["characterize", "--channel", "amplitude_damping:0.3", "--n", "2", "--format", "csv"],
        ["compare", "--channel", "identity", "--shots", "100"],
        ["partial", "--T1", "2", "--T2", "1", "--t1", "1", "--t2", "1", "--shots", "1000", "--seed", "2"],
        ["sample-sweep", "--channel", "bit_flip:0.3", "--shots", "200", "--repeats", "2"],
        ["characterize"],
        ["sqpt", "--channel", "bit_flip:0.2"],
        ["resources", "--n", "2", "--format", "json"],
        ["characterize", "--channel", "bit_flip:0.25", "--optics"],
    ]

    def test_sequence_matches_cold_runs(self, capsys):
        warm = [run(argv, capsys) for argv in self.SEQUENCE]
        cold = []
        for argv in self.SEQUENCE:
            for cache in (dcqd._schemes, sqpt._scheme, cli._parser):
                cache.cache_clear()
            cold.append(run(argv, capsys))
        assert [c[0] for c in warm] == [0, 0, 0, 2, 0, 0, 2, 0, 0, 0]
        assert warm == cold

    def test_handler_looked_up_when_main_runs(self, capsys, monkeypatch):
        # perfbench traces the cli layer by replacing the module's cmd_* handlers,
        # which may happen after main has built and kept the resources parser
        assert run(["resources", "--n", "1"], capsys)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_resources", lambda args: seen.append(args.n) or 0)
        assert cli.main(["resources", "--n", "2"]) == 0
        assert seen == [2]
        assert capsys.readouterr().out == ""


@pytest.fixture
def cold_parsers():
    """No parser kept by `cli.main` before the test, and none left after it."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestParser:
    # argv cases whose output is argparse's own: help, usage and errors
    CASES = [
        [],
        ["--help"],
        ["-h", "characterize"],
        ["bogus"],
        ["characterize"],
        ["characterize", "--bogus"],
        ["characterize", "--channel", "identity", "--n", "abc"],
        *([name, "--help"] for name in cli.COMMANDS),
        # reported by the top-level parser, whose usage lists every choice
        ["resources", "--n", "2", "extra"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "none")
    def test_output_matches_full_parser(self, argv, capsys, cold_parsers, monkeypatch):
        # the parser main keeps, on the call that builds it and on a repeat,
        # against a new one on every call (cold_parsers is listed first, so it
        # clears the cache after monkeypatch has put `cli._parser` back)
        monkeypatch.setenv("COLUMNS", "80")
        got = run(argv, capsys)
        assert run(argv, capsys) == got
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert got == run(argv, capsys)
        assert got[0] == (0 if "--help" in argv or "-h" in argv else cli.EXIT_PARSE)

    @pytest.mark.parametrize("argv", [["resources", "--n", "2"], ["bogus"]], ids=["known", "unknown"])
    def test_parsers_built(self, argv, capsys, monkeypatch, cold_parsers):
        # the top-level parser and all six subcommands' on the first call,
        # whatever the command; none on a repeat
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        first = run(argv, capsys)
        assert len(built) == 7
        assert run(argv, capsys) == first
        assert len(built) == 7

    def test_warm_parser_reapplies_defaults(self, capsys, cold_parsers):
        # options given to one call must not leak into the next through the
        # kept parser, parse errors included
        base = ["characterize", "--channel", "bit_flip:0.25"]
        sequence = [
            base + ["--shots", "500", "--seed", "3", "--format", "csv"],
            base + ["--optics"],
            base + ["--n", "abc"],
            base,
            ["characterize", "--bogus"],
            base + ["--shots", "500", "--seed", "3", "--format", "csv"],
            base,
        ]
        warm = [run(argv, capsys) for argv in sequence]
        cold = []
        for argv in sequence:
            cli._parser.cache_clear()
            cold.append(run(argv, capsys))
        assert [c[0] for c in warm] == [0, 0, 2, 0, 2, 0, 0]
        assert warm == cold

    def test_returned_parser_is_not_kept(self, capsys, cold_parsers):
        expected = run(["resources"], capsys)
        cli._parser.cache_clear()
        parser = cli.build_parser()
        (sub,) = (a for a in parser._actions if a.dest == "command")
        sub.choices["resources"].set_defaults(n_max=2, format="json")
        assert run(["resources"], capsys) == expected
        assert cli.build_parser() is not parser

    @pytest.mark.parametrize("argv", [["--help"], ["characterize", "--help"]], ids=" ".join)
    def test_help_width_read_when_printed(self, argv, capsys, monkeypatch, cold_parsers):
        monkeypatch.setenv("COLUMNS", "200")
        wide = run(argv, capsys)
        monkeypatch.setenv("COLUMNS", "80")
        narrow = run(argv, capsys)
        cli._parser.cache_clear()
        assert narrow == run(argv, capsys)
        assert narrow != wide
