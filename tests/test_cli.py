import json
import math
import time

import numpy as np
import pytest

from dcqdlab import channels, cli, dcqd, inversion, resources, sampling, serialize, sqpt
from dcqdlab.exceptions import InvalidChannelError, InvalidConfigurationError


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, _ = run(
            ["characterize", "--channel", "bit_flip:0.25", "--optics"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "dcqd_optics"
        assert report["n_configurations"] == 8

    def test_optics_needs_single_qubit(self, capsys):
        code, _, err = run(
            ["characterize", "--channel", "bit_flip:0.25", "--n", "2", "--optics"], capsys
        )
        assert code == 3
        assert "n=1" in err

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
        ],
        ids=[
            "p_null", "p_text", "kraus_nan", "kraus_huge", "unitary_nan", "angle_nan",
            "identity_fraction", "identity_n40", "identity_n13", "stages_null",
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

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2


class TestSqptAndCompare:
    def test_sqpt_report(self, capsys):
        code, out, _ = run(["sqpt", "--channel", "bit_flip:0.25"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "sqpt"
        assert report["n_configurations"] == 16
        chi = serialize.chi_from_report(report)
        assert chi[1, 1].real == pytest.approx(0.25, abs=1e-9)

    def test_compare_reports_both_methods(self, capsys):
        code, out, _ = run(["compare", "--channel", "amplitude_damping:0.4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dcqd"]["n_experiments"] == 4
        assert report["sqpt"]["n_experiments"] == 16
        assert report["max_entry_difference"] < 1e-8
        assert report["resources"]["dcqd"]["n_experiments"] == 4

    def test_compare_rejects_shots_flag(self, capsys):
        assert cli.main(["compare", "--channel", "identity", "--shots", "100"]) == 2


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
        original = sampling._sample_and_solve

        def up_front(experiment, shots, _child):
            return original(experiment, shots, next(children))

        monkeypatch.setattr(sampling, "_sample_and_solve", up_front)
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


def test_unphysical_kraus_file_rejected(tmp_path, capsys):
    doc = {"kind": "explicit_kraus", "operators": [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["characterize", "--channel", f"@{path}"], capsys)
    assert code == 2
    assert "trace" in err


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
            for cache in (dcqd._pair_design, sqpt._design, inversion._factorize):
                cache.cache_clear()
            cold.append(run(argv, capsys))
        assert [c[0] for c in warm] == [0, 0, 0, 2, 0, 0, 2, 0, 0, 0]
        assert warm == cold

    def test_handler_looked_up_when_main_runs(self, capsys, monkeypatch):
        # perfbench traces the cli layer by replacing the module's cmd_* handlers
        seen = []
        monkeypatch.setattr(cli, "cmd_resources", lambda args: seen.append(args.n) or 0)
        assert cli.main(["resources", "--n", "2"]) == 0
        assert seen == [2]
        assert capsys.readouterr().out == ""
