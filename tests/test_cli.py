import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import pytest

from gmtauber import generators
from gmtauber.cli import dumps_document, main
from gmtauber.ifn import IFN, IFNTauberReport
from gmtauber.mcore import Verdict
from gmtauber.tauber import TauberReport
from gmtauber.weights import LambdaGrid, SvaPlusEstimate, default_report_window


def run_cli(*argv) -> int:
    return main(list(argv))


def load(path) -> dict:
    return json.loads(path.read_text())


class TestAnalyze:
    def test_oscillating_with_alternating_weights(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "analyze",
            "--generator", "ex2",
            "--weights", "alternating:2,1",
            "--n-max", "2000",
            "--no-timestamp",
            "--out", str(out),
        )
        assert code == 0
        doc = load(out)
        assert doc["schema_version"] == 1
        assert doc["analysis"]["limit_estimate"]["value"] == pytest.approx(
            2.0 ** (1.0 / 3.0), abs=5e-4
        )
        assert doc["analysis"]["gbar"]["passed"] is True
        assert doc["weights"]["sva"]["verdict"] is True

    def test_infinite_estimates_serialize(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "analyze",
            "--generator", "ex1",
            "--weights", "harmonic",
            "--n-max", "2000",
            "--tol", "1.5",
            "--no-timestamp",
            "--out", str(out),
        )
        assert code == 0
        doc = load(out)
        assert doc["analysis"]["tauber"]["con1_estimate"] == "inf"
        assert doc["analysis"]["tauber"]["recovery_verdict"] is False

    def test_estimate_below_the_overflow_point_stays_finite(self, tmp_path):
        # The window is [1, 1]: the Landau bound is exp(709.5), finite
        # although above exp(709).
        src = tmp_path / "big.txt"
        src.write_text("log:\n0.0\n709.5\n709.5\n709.5\n")
        out = tmp_path / "r.json"
        assert run_cli("analyze", "--in", str(src), "--no-timestamp", "--out", str(out)) == 0
        tauber = load(out)["analysis"]["tauber"]
        assert tauber["landau_bound_estimate"] == 1.3549863193146328e308

    def test_determinism(self, tmp_path):
        out = tmp_path / "same.json"
        args = [
            "analyze",
            "--generator", "ex2",
            "--weights", "ones",
            "--n-max", "500",
            "--no-timestamp",
            "--out", str(out),
        ]
        assert run_cli(*args) == 0
        first = out.read_bytes()
        assert run_cli(*args) == 0
        assert out.read_bytes() == first

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "200", "--out", str(out)
        ) == 0
        assert "generated_at" in load(out)

    def test_round_trip_matches_fused_path(self, tmp_path):
        seq_file = tmp_path / "seq.txt"
        assert run_cli(
            "generate", "--generator", "ex2", "--n-max", "400", "--out", str(seq_file)
        ) == 0
        fused, refed = tmp_path / "fused.json", tmp_path / "refed.json"
        common = ["--weights", "alternating:2,1", "--no-timestamp"]
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "400", *common,
            "--out", str(fused),
        ) == 0
        assert run_cli(
            "analyze", "--in", str(seq_file), *common, "--out", str(refed)
        ) == 0
        d1, d2 = load(fused), load(refed)
        assert d1["analysis"] == d2["analysis"]
        assert d1["weights"] == d2["weights"]
        assert d1["sequence"]["length"] == d2["sequence"]["length"]

    def test_csv_output_with_sidecar(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(
            "analyze",
            "--generator", "ex2",
            "--n-max", "100",
            "--format", "csv",
            "--no-timestamp",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,log_u,log_w"
        assert len(lines) == 102
        sidecar = load(tmp_path / "r.csv.json")
        assert sidecar["schema_version"] == 1

    def test_csv_needs_out(self):
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "100", "--format", "csv"
        ) == 2

    def test_format_ignores_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GMT_DEFAULT_FORMAT", "csv")
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "50",
            "--no-timestamp", "--out", str(out),
        ) == 0
        assert load(out)["config"]["format"] == "json"
        assert not (tmp_path / "r.json.json").exists()

    @pytest.mark.parametrize(
        "flags, config",
        [
            ((), {}),
            (
                ("--lambda-grid", "1.5,0.75", "--window", "10:60", "--format", "csv"),
                {"lambda_grid": [1.5, 0.75], "window": "10:60", "format": "csv"},
            ),
        ],
        ids=["defaults", "given"],
    )
    def test_config_echo(self, tmp_path, capsys, flags, config):
        argv = ["analyze", "--generator", "ex2", *flags]
        if "csv" in flags:
            out = tmp_path / "r.csv"
            assert run_cli(*argv, "--out", str(out)) == 0
            doc = load(tmp_path / "r.csv.json")
            config = {**config, "out": str(out)}
        else:
            assert run_cli(*argv) == 0
            doc = json.loads(capsys.readouterr().out)
        assert doc["config"] == {
            "command": "analyze",
            "generator": "ex2",
            "input": None,
            "n_max": None,
            "weights": "ones",
            "lambda_grid": "default",
            "window": "last-half",
            "tol": 1.01,
            "theta": 1.05,
            "mode": None,
            "format": "json",
            "out": None,
            **config,
        }

    def test_window_flag(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "1000",
            "--window", "200:500", "--no-timestamp", "--out", str(out),
        ) == 0
        doc = load(out)
        assert doc["analysis"]["gbar"]["window"] == {"start": 200, "end": 500}

    def test_default_diagnostic_window_is_library_default(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex1", "--n-max", "1000",
            "--no-timestamp", "--out", str(out),
        ) == 0
        doc = load(out)
        win = default_report_window(1001, LambdaGrid.default())
        expect = {"start": win.start_index, "end": win.end_index}
        assert doc["analysis"]["tauber"]["window"] == expect
        assert doc["weights"]["sva"]["window"] == expect
        assert expect["end"] > expect["start"]
        assert doc["analysis"]["gbar"]["window"] == {"start": 500, "end": 1000}

    def test_window_crossing_the_bound_is_truncated(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "1000",
            "--window", "200:800", "--no-timestamp", "--out", str(out),
        ) == 0
        doc = load(out)
        assert doc["analysis"]["gbar"]["window"] == {"start": 200, "end": 800}
        assert doc["analysis"]["tauber"]["window"] == {"start": 200, "end": 500}
        assert doc["weights"]["sva"]["window"] == {"start": 200, "end": 500}

    def test_tiny_lambdas_keep_the_whole_range_usable(self, tmp_path):
        # (len-1)/max(lambda) overflows a float for a subnormal lambda
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "100",
            "--lambda-grid", "1e-320", "--no-timestamp", "--out", str(out),
        ) == 0
        assert load(out)["analysis"]["tauber"]["window"] == {"start": 50, "end": 100}


class TestIfnAnalyze:
    def test_hopping_sequence_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "ifn-analyze",
            "--generator", "ex3-ifn",
            "--n-max", "600",
            "--no-timestamp",
            "--out", str(out),
        )
        assert code == 0
        doc = load(out)
        xi = doc["analysis"]["xi_estimate"]
        assert xi["mu"] == pytest.approx(0.75, abs=2e-3)
        assert xi["nu"] == pytest.approx(1.0 / 9.0, abs=2e-3)
        assert doc["analysis"]["mean_verdict"]["passed"] is True
        assert doc["analysis"]["plain_convergence"] is False
        assert doc["analysis"]["tauber"]["recovery_verdict"] is False

    def test_otimes_mode(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "ifn-analyze",
            "--generator", "ex4-ifn",
            "--weights", "alternating:1,3",
            "--n-max", "600",
            "--mode", "otimes",
            "--no-timestamp",
            "--out", str(out),
        )
        assert code == 0
        doc = load(out)
        xi = doc["analysis"]["xi_estimate"]
        assert xi["mu"] == pytest.approx(1.0 / 27.0, abs=2e-3)
        assert xi["nu"] == pytest.approx(7.0 / 8.0, abs=2e-3)

    def test_default_diagnostic_window_is_library_default(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            "ifn-analyze", "--generator", "ex4-ifn", "--weights", "alternating:1,3",
            "--n-max", "600", "--mode", "otimes", "--no-timestamp", "--out", str(out),
        ) == 0
        doc = load(out)
        win = default_report_window(601, LambdaGrid.default())
        expect = {"start": win.start_index, "end": win.end_index}
        assert expect["end"] > expect["start"]
        assert doc["weights"]["sva"]["window"] == expect
        for comp in doc["analysis"]["tauber"]["components"].values():
            assert comp["window"] == expect
        assert doc["analysis"]["tauber"]["recovery_verdict"] is False

    def test_theta_reaches_component_reports(self, tmp_path):
        # Constant pairs (0.2, 0.3) with nu raised by e^0.2 at one index:
        # the nu component passes its gbar check with both condition
        # estimates near 1.221, so its verdict turns on --theta.
        n = 10**5
        lines = ["0.2,0.3"] * n
        lines[3 * n // 8] = f"0.2,{0.3 * math.exp(0.2)!r}"
        src = tmp_path / "seq.txt"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        for theta, verdict in ((None, False), (3.0, True)):
            flags = [] if theta is None else ["--theta", str(theta)]
            assert run_cli(
                "ifn-analyze", "--in", str(src), "--weights", "harmonic",
                *flags, "--no-timestamp", "--out", str(out),
            ) == 0
            tauber = load(out)["analysis"]["tauber"]
            nu = tauber["components"]["nu"]
            assert nu["gbar_verdict"]["passed"] is True
            assert nu["con1_estimate"] == pytest.approx(1.2214, abs=1e-4)
            assert nu["con2_estimate"] == pytest.approx(1.2210, abs=1e-4)
            for comp in tauber["components"].values():
                assert comp["theta"] == (1.05 if theta is None else theta)
            assert nu["recovery_verdict"] is verdict
            assert tauber["recovery_verdict"] is verdict

    def test_pairs_at_the_simplex_edge(self, tmp_path):
        # The geometric means of the first two pairs left the simplex
        # before W(mu) was clamped to W(1 - nu), and the run exited 3.
        src = tmp_path / "seq.txt"
        src.write_text("1.0,0.0\n5.638568035048517e-13,1.0\n" + "0.5,0.3\n" * 20)
        out = tmp_path / "r.json"
        assert run_cli(
            "ifn-analyze", "--in", str(src), "--mode", "otimes", "--no-timestamp",
            "--out", str(out),
        ) == 0
        assert load(out)["analysis"]["xi_estimate"]["mu"] > 0

    def test_precondition_failure_exits_3(self):
        # Index 0 of the drifting sequence has nu = 0: the additive mean
        # assumption fails loudly.
        assert run_cli("ifn-analyze", "--generator", "nonunique", "--n-max", "50") == 3

    def test_kind_mismatch_is_config_error(self):
        assert run_cli("ifn-analyze", "--generator", "ex2", "--n-max", "50") == 2
        assert run_cli("analyze", "--generator", "ex3-ifn", "--n-max", "50") == 2


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def windows(node):
    """Every value under a "window" key in a report subtree."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "window":
                yield value
            yield from windows(value)
    elif isinstance(node, list):
        for value in node:
            yield from windows(value)


class TestReportKeys:
    """A report's keys are the field names of the result types it holds,
    except where the serializer documents another spelling."""

    def test_analyze_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--weights", "alternating:2,1",
            "--n-max", "500", "--no-timestamp", "--out", str(out),
        ) == 0
        doc = load(out)
        analysis = doc["analysis"]
        assert set(analysis["tauber"]) == field_names(TauberReport)
        assert set(analysis["tauber"]["gbar_verdict"]) == field_names(Verdict)
        assert set(analysis["gbar"]) == field_names(Verdict)
        assert set(analysis["limit_estimate"]) == {"log", "value"}
        assert analysis["gbar"]["limit"] == analysis["limit_estimate"]
        assert set(doc["weights"]["sva"]) == field_names(SvaPlusEstimate)
        found = list(windows({k: v for k, v in doc.items() if k != "config"}))
        assert len(found) == 4
        assert all(set(win) == {"start", "end"} for win in found)

    def test_lambdas_are_keyed_by_repr(self, tmp_path):
        # lambda = 1.001 leaves every block (n, floor(1.001 n)] with n <= 90
        # empty, so con1 and forward slow oscillation skip it. The keys are
        # sorted as the strings they are written as: "10.0" before "2.0".
        out = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "exp-decay:c=2", "--n-max", "1000",
            "--lambda-grid", "1.001,2,10", "--window", "20:90", "--no-timestamp",
            "--out", str(out),
        ) == 0
        doc = load(out)
        tauber = doc["analysis"]["tauber"]
        assert tauber["skipped_lambdas"] == {
            "con1": ["1.001"], "con2": [], "slow_osc_backward": [], "slow_osc_forward": ["1.001"],
        }
        assert list(tauber["curves"]["con1"]) == ["10.0", "2.0"]
        assert list(tauber["curves"]["slow_osc_forward"]) == ["10.0", "2.0"]
        assert list(doc["weights"]["sva"]["per_lambda"]) == ["1.001", "10.0", "2.0"]

    def test_ifn_analyze_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            "ifn-analyze", "--generator", "ex4-ifn", "--weights", "alternating:1,3",
            "--n-max", "600", "--mode", "otimes", "--no-timestamp", "--out", str(out),
        ) == 0
        doc = load(out)
        analysis = doc["analysis"]
        tauber = analysis["tauber"]
        assert set(tauber) == field_names(IFNTauberReport)
        assert set(tauber["components"]) == set(tauber["component_labels"])
        for comp in tauber["components"].values():
            assert set(comp) == field_names(TauberReport)
            assert set(comp["gbar_verdict"]) == field_names(Verdict)
        assert set(analysis["mean_verdict"]) == field_names(Verdict)
        assert set(analysis["mean_verdict"]["limit"]) == field_names(IFN)
        assert set(analysis["xi_estimate"]) == field_names(IFN)
        for pair in doc["sequence"]["tail"] + analysis["means_tail"]:
            assert set(pair) == field_names(IFN)
        assert set(doc["weights"]["sva"]) == field_names(SvaPlusEstimate)
        found = list(windows({k: v for k, v in doc.items() if k != "config"}))
        assert len(found) == 6
        assert all(set(win) == {"start", "end"} for win in found)


class TestConfigErrors:
    def test_unknown_generator(self):
        assert run_cli("analyze", "--generator", "bogus") == 2

    def test_unknown_weights(self):
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "100", "--weights", "what"
        ) == 2

    @pytest.mark.parametrize("spec", ["ones:garbage", "harmonic:1,2", "ones:"])
    def test_parameterless_family_given_parameters(self, capsys, spec):
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "50", "--weights", spec
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        family = spec.partition(":")[0]
        assert err == f"error: {family} weights take no parameters, got {spec!r}\n"

    @pytest.mark.parametrize("custom", [False, True])
    def test_overflowing_weights(self, capsys, tmp_path, custom):
        spec = "alternating:1e308,1e308"
        if custom:
            f = tmp_path / "w.txt"
            f.write_text("1e308\n" * 101)
            spec = f"custom:{f}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert run_cli(
                "analyze", "--generator", "ex2", "--n-max", "100", "--weights", spec
            ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: cannot build weights {spec!r}: "
            "the weights' partial sums overflow from index 1\n"
        )

    def test_window_must_fit(self):
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "100", "--window", "50:500"
        ) == 2

    def test_window_past_the_bound(self, capsys):
        # length 101 under lambda max 2: lambda_n stays in range up to n = 50
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "100", "--window", "60:90"
        ) == 2
        assert "starts past 50" in capsys.readouterr().err

    def test_bad_window_spec(self):
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "100", "--window", "nope"
        ) == 2

    def test_bad_lambda_grid(self):
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "100", "--lambda-grid", "1.0"
        ) == 2

    @pytest.mark.parametrize("command", ["analyze --generator ex2", "ifn-analyze --generator ex3-ifn"])
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--window x", "window must look like start:end, got 'x'"),
            ("--window 1:a", "window bounds must be integers, got '1:a'"),
            ("--window 5:2", "window needs 0 <= start <= end, got '5:2'"),
            ("--lambda-grid a,b", "lambda grid must be comma-separated reals, got 'a,b'"),
            ("--lambda-grid 1", "bad lambda grid: lambda = 1 is not allowed in the grid"),
            ("--lambda-grid 2,2", "bad lambda grid: lambda grid contains duplicate values"),
            ("--lambda-grid -1", "bad lambda grid: lambda values must be positive reals, got -1.0"),
            ("--lambda-grid inf", "bad lambda grid: lambda values must be positive reals, got inf"),
            (
                "--lambda-grid 1e308",
                "sequence of length 101 is too short for lambda grid max 1e+308: raise "
                "--n-max (or use a longer --in file) or lower the largest --lambda-grid value",
            ),
        ],
    )
    def test_malformed_flag_message(self, capsys, command, flag, message):
        assert run_cli(*command.split(), "--n-max", "100", *flag.split()) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unknown_format_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--generator", "ex2", "--format", "yaml")
        assert exc.value.code == 2
        assert "argument --format: invalid choice: 'yaml'" in capsys.readouterr().err

    def test_flags_are_checked_before_the_generator(self, capsys):
        assert run_cli("analyze", "--generator", "bogus", "--lambda-grid", "1") == 2
        assert capsys.readouterr().err == (
            "error: bad lambda grid: lambda = 1 is not allowed in the grid\n"
        )

    def test_repeated_generator_parameter(self, capsys):
        assert run_cli("generate", "--generator", "constant:c=3,c=4") == 2
        assert capsys.readouterr() == (
            "", "error: generator parameter 'c' is given more than once\n"
        )

    def test_n_max_rejected_with_input_file(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("log:\n0.0\n0.1\n")
        assert run_cli("analyze", "--in", str(f), "--n-max", "5") == 2

    def test_missing_input_file(self):
        assert run_cli("analyze", "--in", "/nonexistent/seq.txt") == 2

    def test_window_without_an_index_past_zero(self, capsys):
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "10", "--window", "0:0"
        ) == 2
        err = capsys.readouterr().err
        assert "window 0:0" in err and "n >= 1" in err and "Landau" in err

    def test_window_truncated_to_index_zero(self, capsys):
        # length 2 under lambda max 2: the usable range is [0, 0]
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "1", "--window", "0:1"
        ) == 2
        assert "n >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, spec", [("analyze", "ex2"), ("ifn-analyze", "ex3-ifn")])
    def test_sequence_too_short_for_lambda_grid(self, capsys, command, spec):
        assert run_cli(command, "--generator", spec, "--n-max", "1") == 2
        err = capsys.readouterr().err
        assert "too short" in err and "--n-max" in err and "--lambda-grid" in err

    @pytest.mark.parametrize("spec", ["exp-decay:c=inf", "constant:c=inf", "exp-decay:c=nan"])
    def test_non_finite_generator_parameter(self, capsys, spec):
        assert run_cli("analyze", "--generator", spec, "--n-max", "10") == 2
        assert "must be finite" in capsys.readouterr().err

    def test_header_only_sequence_file(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("log:\n")
        assert run_cli("analyze", "--in", str(f)) == 2
        assert f"sequence file {f} has no values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("analyze", "log:\n0.1\nabc\n"),
            ("analyze", "log:\n0.1\nnan\n0.2\n"),
            ("analyze", "1.0\n-2.0\n"),
            ("ifn-analyze", "0.2,0.3\n0.2,x\n"),
        ],
        ids=["log-not-numeric", "log-nan", "plain-negative", "ifn-not-numeric"],
    )
    def test_malformed_sequence_file(self, tmp_path, capsys, command, text):
        f = tmp_path / "seq.txt"
        f.write_text(text)
        assert run_cli(command, "--in", str(f)) == 2
        assert str(f) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_ifn_file_message(self, tmp_path, capsys, kind):
        # The exact text of the plain Path.read_text error, not one from
        # the C parser (such as numpy's "<path> not found.").
        f = tmp_path / "seq.txt"
        if kind == "missing":
            expected = (
                f"cannot read sequence file {f}: "
                f"[Errno 2] No such file or directory: '{f}'"
            )
        elif kind == "directory":
            f.mkdir()
            expected = f"cannot read sequence file {f}: [Errno 21] Is a directory: '{f}'"
        else:
            f.write_bytes(b"0.5,0.3\n\xff\xfe,0.1\n")
            expected = (
                f"malformed sequence file {f}: 'utf-8' codec can't decode byte "
                "0xff in position 8: invalid start byte"
            )
        assert run_cli("ifn-analyze", "--in", str(f)) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"


class TestThresholdFlags:
    """--tol and --theta are configuration: a value outside their range
    exits 2 naming the flag instead of failing later (exit 3) or being
    written into the report as a bare NaN or Infinity token."""

    GENERATOR = {"analyze": "ex2", "ifn-analyze": "ex3-ifn"}

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("analyze", "--tol", "0"),
            ("analyze", "--tol", "-1"),
            ("analyze", "--tol", "1"),
            ("analyze", "--tol", "nan"),
            ("analyze", "--tol", "inf"),
            ("analyze", "--theta", "-1"),
            ("analyze", "--theta", "0.5"),
            ("analyze", "--theta", "nan"),
            ("analyze", "--theta", "inf"),
            ("ifn-analyze", "--tol", "0"),
            ("ifn-analyze", "--tol", "-1"),
            ("ifn-analyze", "--tol", "nan"),
            ("ifn-analyze", "--tol", "inf"),
            ("ifn-analyze", "--theta", "-1"),
            ("ifn-analyze", "--theta", "nan"),
            ("ifn-analyze", "--theta", "inf"),
        ],
    )
    def test_out_of_range_is_config_error(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "r.json"
        code = run_cli(
            command, "--generator", self.GENERATOR[command], "--n-max", "200",
            flag, value, "--no-timestamp", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be a finite real")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("analyze", ("--tol", "1.000001", "--theta", "1")),
            ("ifn-analyze", ("--tol", "1e-9", "--theta", "1")),
            ("ifn-analyze", ("--tol", "2.5", "--theta", "1e6")),
        ],
    )
    def test_edge_values_accepted(self, tmp_path, command, flags):
        out = tmp_path / "r.json"
        assert run_cli(
            command, "--generator", self.GENERATOR[command], "--n-max", "200",
            *flags, "--no-timestamp", "--out", str(out),
        ) == 0
        doc = load(out)
        assert doc["config"]["tol"] == float(flags[1])
        assert doc["config"]["theta"] == float(flags[3])

    def test_documents_are_strict_json(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                dumps_document({"tol": bad})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_report_rejects_non_json_constants(self, tmp_path, capsys, token):
        doc_path = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "200",
            "--no-timestamp", "--out", str(doc_path),
        ) == 0
        doc_path.write_text(doc_path.read_text().replace('"theta": 1.05', f'"theta": {token}'))
        assert token in doc_path.read_text()
        assert run_cli("report", "--in", str(doc_path)) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestGenerateCommand:
    def test_writes_log_domain_file(self, tmp_path):
        out = tmp_path / "seq.txt"
        assert run_cli("generate", "--generator", "ex1", "--n-max", "5", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "log:"
        assert len(lines) == 7

    def test_stdout(self, capsys):
        assert run_cli("generate", "--generator", "ex3-ifn", "--n-max", "2") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].count(",") == 1


class TestReportCommand:
    def test_summary_and_csv_conversion(self, tmp_path, capsys):
        doc_path = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "500",
            "--no-timestamp", "--out", str(doc_path),
        ) == 0
        curves_path = tmp_path / "curves.csv"
        assert run_cli(
            "report", "--in", str(doc_path), "--format", "csv",
            "--out", str(curves_path),
        ) == 0
        captured = capsys.readouterr().out
        assert "gbar verdict" in captured
        lines = curves_path.read_text().splitlines()
        assert lines[0] == "section,lambda,value"
        assert any(line.startswith("con1,") for line in lines[1:])

    def test_json_normalization(self, tmp_path):
        doc_path = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "200",
            "--no-timestamp", "--out", str(doc_path),
        ) == 0
        out = tmp_path / "copy.json"
        assert run_cli("report", "--in", str(doc_path), "--format", "json", "--out", str(out)) == 0
        assert load(out) == load(doc_path)

    def test_csv_needs_out(self, tmp_path, capsys):
        doc_path = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "200",
            "--no-timestamp", "--out", str(doc_path),
        ) == 0
        assert run_cli("report", "--in", str(doc_path), "--format", "csv") == 2
        assert capsys.readouterr() == ("", "error: --format csv needs --out\n")

    def test_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"hello\": 1}")
        assert run_cli("report", "--in", str(bad)) == 2
        notjson = tmp_path / "notjson.txt"
        notjson.write_text("plain text")
        assert run_cli("report", "--in", str(notjson)) == 2


    @pytest.mark.parametrize(
        "edit, message",
        [
            ("schema-only", "lacks the key 'sequence'"),
            ("no-limit-estimate", "lacks the key 'limit_estimate'"),
            ("sequence-not-an-object", "is malformed: list indices"),
            ("lambda-not-a-number", "is malformed: could not convert string to float"),
        ],
    )
    def test_malformed_schema_1_report(self, tmp_path, capsys, edit, message):
        doc_path = tmp_path / "r.json"
        assert run_cli(
            "analyze", "--generator", "ex2", "--n-max", "200",
            "--no-timestamp", "--out", str(doc_path),
        ) == 0
        doc = load(doc_path)
        if edit == "schema-only":
            doc = {"schema_version": 1}
        elif edit == "no-limit-estimate":
            del doc["analysis"]["limit_estimate"]
        elif edit == "sequence-not-an-object":
            doc["sequence"] = []
        else:
            doc["analysis"]["tauber"]["curves"]["con1"]["abc"] = 1.0
        doc_path.write_text(json.dumps(doc))
        out = tmp_path / "curves.csv"
        capsys.readouterr()
        assert run_cli("report", "--in", str(doc_path), "--format", "csv", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: report {doc_path} ")
        assert message in captured.err
        assert captured.out == "" and not out.exists()


class TestOutPath:
    """An --out that cannot be written exits 2 naming the flag: a missing
    directory or a directory is rejected before any work, and an OSError
    while writing is caught too."""

    RUNS = {
        "analyze-json": ("analyze", "--generator", "ex2", "--n-max", "200", "--no-timestamp"),
        "analyze-csv": ("analyze", "--generator", "ex2", "--n-max", "200",
                        "--format", "csv", "--no-timestamp"),
        "ifn-analyze": ("ifn-analyze", "--generator", "ex3-ifn", "--n-max", "200",
                        "--no-timestamp"),
        "generate": ("generate", "--generator", "ex2", "--n-max", "20"),
    }

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(generators, "generate_array", refuse)

    def _report(self, tmp_path) -> str:
        doc_path = tmp_path / "r.json"
        assert run_cli(*self.RUNS["analyze-json"], "--out", str(doc_path)) == 0
        return str(doc_path)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_missing_directory(self, tmp_path, capsys, no_work, run):
        out = tmp_path / "nodir" / "x.out"
        assert run_cli(*self.RUNS[run], "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: {out.parent} is not an existing directory\n"
        )

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_directory(self, tmp_path, capsys, no_work, run):
        assert run_cli(*self.RUNS[run], "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory\n"

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_report_command(self, tmp_path, capsys, target):
        doc_path = self._report(tmp_path)
        out = tmp_path / "nodir" / "y.json" if target == "missing-dir" else tmp_path
        capsys.readouterr()
        assert run_cli("report", "--in", doc_path, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out {out}")
        assert captured.out == ""

    def test_csv_sidecar_that_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        (tmp_path / "r.csv.json").mkdir()
        assert run_cli(*self.RUNS["analyze-csv"], "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}.json for --out: ")
        assert "Is a directory" in err

    @pytest.mark.parametrize("run", ["analyze-csv", "ifn-analyze"])
    def test_csv_sidecar_is_checked_before_work(self, tmp_path, capsys, no_work, run):
        out = tmp_path / "r.csv"
        (tmp_path / "r.csv.json").mkdir()
        argv = self.RUNS[run] if run == "analyze-csv" else (*self.RUNS[run], "--format", "csv")
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}.json for --out: Is a directory\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("run", ["analyze-json", "generate"])
    def test_write_error(self, capsys, run):
        assert run_cli(*self.RUNS[run], "--out", "/dev/full") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full for --out: ")
        assert "No space left on device" in err


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "gmtauber", "analyze",
                "--generator", "ex2", "--n-max", "200",
                "--no-timestamp", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert load(out)["schema_version"] == 1
