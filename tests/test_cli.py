"""Command-line interface: output formats, exit codes, environment knobs.

Everything runs in-process through main(argv) for speed; a single
subprocess test proves the installed console script exists.
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from pipow import bench, cli, reference, series, symmetric
from pipow.exactnum import FixedDecimal
from pipow.series import partial_sum
from pipow.cli import (
    EXIT_INFEASIBLE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSumCommand:
    def test_exact_rational_text(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--depth", "2", "--upto", "3")
        assert code == EXIT_OK
        assert "value: 7/18" in out

    def test_empty_sum_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--depth", "3", "--upto", "2")
        assert code == EXIT_OK
        assert "value: 0" in out

    def test_as_decimal_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--depth", "2", "--upto", "3",
                               "--as-decimal", "--digits", "8")
        assert code == EXIT_OK
        assert "value: 0.38888889" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--depth", "2", "--upto", "3",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert list(payload) == ["depth", "truncation", "mode", "value",
                                 "tail_bound", "reference", "abs_error"]
        assert payload["depth"] == 2
        assert payload["truncation"] == 3
        assert payload["mode"] == "exact"
        assert payload["value"] == "7/18"
        assert isinstance(payload["tail_bound"], str)
        assert isinstance(payload["abs_error"], str)

    def test_csv_round_trips_json(self, capsys, tmp_path):
        args = ("sum", "--depth", "1", "--upto", "100", "--mode", "fixed",
                "--digits", "15")
        code, json_out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == EXIT_OK
        code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        payload = json.loads(json_out)
        assert len(rows) == 1
        for key in ("depth", "truncation", "mode", "value", "tail_bound"):
            assert rows[0][key] == str(payload[key])

    def test_csv_header_schema(self, capsys):
        _, out, _ = run_cli(capsys, "sum", "--depth", "1", "--upto", "2",
                            "--format", "csv")
        header = out.splitlines()[0]
        assert header == ("depth,truncation,mode,value,tail_bound,"
                          "reference,abs_error")

    def test_fixed_mode_tracks_reference(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--depth", "1", "--upto",
                               "1000000", "--mode", "fixed", "--digits", "12",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        abs_error = Fraction(payload["abs_error"].replace(".", "")) / (
            10**14)  # digits + 2 places shown
        assert abs_error < Fraction(1, 10**6)
        assert payload["value"].startswith("1.64493")

    def test_zero_truncation_bound_is_whole_series(self, capsys):
        # With no terms the certified tail must bound the full limit.
        code, out, _ = run_cli(capsys, "sum", "--depth", "1", "--upto", "0",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == "0"
        bound = Fraction(payload["tail_bound"].replace(".", "")) / 10**22
        assert bound > Fraction(16449, 10**4)  # > pi**2/6

    def test_exact_guardrail_and_override(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--depth", "1", "--upto",
                               "2500", "--mode", "exact")
        assert code == EXIT_INFEASIBLE
        assert "refused" in err
        code, out, _ = run_cli(capsys, "sum", "--depth", "1", "--upto",
                               "2500", "--mode", "exact", "--force-exact")
        assert code == EXIT_OK
        assert "value:" in out

    def test_exact_output_beyond_int_str_limit(self, capsys):
        # The reduced denominator of S_7(2000) has more than 4300 digits.
        code, out, _ = run_cli(capsys, "sum", "--depth", "7", "--upto",
                               "2000", "--format", "json")
        assert code == EXIT_OK
        value = json.loads(out)["value"]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            parsed = Fraction(value)
        finally:
            sys.set_int_max_str_digits(saved)
        assert parsed == partial_sum(7, 2000)
        assert parsed.denominator >= 10**4300

    def test_work_ceiling_flag(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--depth", "1", "--upto",
                               "5000", "--mode", "fixed",
                               "--work-ceiling", "100")
        assert code == EXIT_INFEASIBLE
        assert "refused" in err


class TestConvergeCommand:
    def test_four_digits(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--depth", "2",
                               "--digits", "4", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["truncation"] == 16450
        # Display is rounded to digits + 2 places, so an error a hair under
        # 10**-4 may print as exactly 0.000100; the strict value-level check
        # lives in the series tests.
        assert Fraction(payload["abs_error"].replace(".", "")) / 10**6 <= (
            Fraction(1, 10**4))

    def test_infeasible_fifty_digits(self, capsys):
        code, _, err = run_cli(capsys, "converge", "--depth", "2",
                               "--digits", "50")
        assert code == EXIT_INFEASIBLE
        assert "164493406701271984317368715096339390431528929163833" in err

    def test_env_ceiling_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORK_CEILING_ENV, "1000")
        code, _, err = run_cli(capsys, "converge", "--depth", "1",
                               "--digits", "6")
        assert code == EXIT_INFEASIBLE
        assert "1000001" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORK_CEILING_ENV, "1000")
        code, out, _ = run_cli(capsys, "converge", "--depth", "1",
                               "--digits", "6", "--work-ceiling", "2000000",
                               "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["truncation"] == 1000001

    def test_malformed_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORK_CEILING_ENV, "many")
        code, _, err = run_cli(capsys, "converge", "--depth", "1",
                               "--digits", "3")
        assert code == EXIT_USAGE
        assert "invalid request" in err


class TestTableCommand:
    def test_row_count_and_clamping(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-depth", "4",
                               "--digits", "6", "--work-ceiling", "20000",
                               "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["depth"]) for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert int(row["truncation"]) <= 20000

    def test_text_layout_has_aligned_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-depth", "3",
                               "--digits", "4")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 4  # header + one row per depth
        assert lines[0].split()[0] == "depth"


class TestVerifyTheoremCommand:
    def test_pass_at_m_six(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "--m", "6")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "--m", "4",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["m"] == 4
        assert payload["passed"] is True
        assert payload["mismatch_power"] is None
        assert len(payload["details"]) == 5

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        from pipow.symmetric import ExpansionReport

        def broken(n_vars):
            return ExpansionReport(n_vars=n_vars, passed=False,
                                   mismatch_power=1,
                                   details=("power 1: mismatch",))

        monkeypatch.setattr(cli, "verify_expansion", broken)
        code, out, _ = run_cli(capsys, "verify-theorem", "--m", "3")
        assert code == EXIT_MISMATCH
        assert "FAIL" in out

    @pytest.mark.parametrize("m", [symmetric.VERIFY_WORK_CEILING + 1,
                                   10**9])
    def test_oversized_m_is_refused_before_any_work(self, capsys,
                                                     monkeypatch, m):
        def expand_product(n_vars):
            raise AssertionError("the expansion started")

        monkeypatch.setattr(symmetric, "expand_product", expand_product)
        code, out, err = run_cli(capsys, "verify-theorem", "--m", str(m))
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert f"m = {m} " in err
        assert f"2**{m} terms" in err

    def test_large_m_warns(self, capsys):
        m = symmetric.PRACTICAL_VERIFY_CEILING + 1
        code, out, err = run_cli(capsys, "verify-theorem", "--m", str(m),
                                 "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["warning"].startswith(f"warning: {m} variables ")

    def test_no_warning_at_the_practical_ceiling(self, capsys):
        m = symmetric.PRACTICAL_VERIFY_CEILING
        code, out, err = run_cli(capsys, "verify-theorem", "--m", str(m))
        assert code == EXIT_OK
        assert not out.startswith("warning")
        assert out.endswith(f"expansion check for {m} variables: PASS\n")


class TestSincCommand:
    def test_half_argument(self, capsys):
        code, out, _ = run_cli(capsys, "sinc", "--x", "1/2", "--terms",
                               "1000", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["x"] == "1/2"
        assert payload["product"].startswith("0.63")
        assert payload["taylor"].startswith("0.6366197723")
        dev = Fraction(payload["product_vs_taylor"].replace(".", ""))
        assert dev > 0

    def test_zero_argument(self, capsys):
        code, out, _ = run_cli(capsys, "sinc", "--x", "0", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert Fraction(payload["product"]) == 1
        assert Fraction(payload["taylor"]) == 1

    def test_integer_zero_of_sinc(self, capsys):
        code, out, _ = run_cli(capsys, "sinc", "--x", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert Fraction(payload["product"]) == 0

    def test_outside_taylor_domain(self, capsys):
        code, out, _ = run_cli(capsys, "sinc", "--x", "5/2",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["taylor"] is None
        assert payload["product"] is not None

    def test_bad_rational(self, capsys):
        code, _, err = run_cli(capsys, "sinc", "--x", "1/0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("x, terms", [("7/2", 200), ("-11/6", 1140),
                                          ("2", 100)])
    def test_series_matches_exact_truncated_series(self, capsys, x, terms):
        # Row j's rounding error is multiplied by x**(2j), which for
        # |x| > 1 reaches the printed places unless the scale grows.
        code, out, _ = run_cli(capsys, "sinc", f"--x={x}", "--terms",
                               str(terms), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        rows = series._truncated_product(1, terms + 1, payload["powers"])
        x2 = Fraction(x) ** 2
        exact = sum(c * (-x2) ** j for j, c in enumerate(rows)) / rows[0]
        assert payload["series"] == FixedDecimal.from_rational(
            exact, 20).to_decimal_string()

    @pytest.mark.parametrize("x", ["-3", "-3/2"])
    def test_negative_argument_parses_after_a_space(self, capsys, x):
        code, spaced, _ = run_cli(capsys, "sinc", "--x", x, "--terms", "10")
        assert code == EXIT_OK
        assert f"x: {x}\n" in spaced
        code, joined, _ = run_cli(capsys, "sinc", f"--x={x}", "--terms", "10")
        assert code == EXIT_OK
        assert spaced == joined

    @pytest.mark.parametrize("env, terms", [
        (None, series.DEFAULT_WORK_CEILING + 1), ("50", 51),
    ])
    def test_terms_above_the_work_ceiling_are_refused(self, capsys,
                                                      monkeypatch, env,
                                                      terms):
        def no_work(*args):
            raise AssertionError("the sinc evaluation started")

        monkeypatch.setattr(cli, "_sinc_powers", no_work)
        monkeypatch.setattr(cli, "sinc_product", no_work)
        if env is None:
            monkeypatch.delenv(cli.WORK_CEILING_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.WORK_CEILING_ENV, env)
        ceiling = series.DEFAULT_WORK_CEILING if env is None else int(env)
        code, out, err = run_cli(capsys, "sinc", "--x", "1/2", "--terms",
                                 str(terms))
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert (f"truncation {terms} is above the work ceiling of {ceiling}"
                in err)

    def test_power_count_stops_at_the_truncation(self, capsys):
        # S_j(10) = 0 for j > 10, so ten powers give the whole series.
        code, out, _ = run_cli(capsys, "sinc", "--x", "3000", "--terms",
                               "10", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["powers"] == 10
        assert payload["series"] == payload["product"]


class TestBenchCommand:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "bench")
        assert code == EXIT_OK
        assert "exact-sweep" in out or "sweep" in out
        assert "refused" in out  # expected naive refusal row
        assert "routed" in out
        assert "pi-cold" in out

    def test_routed_sweep_disagreement_fails(self, monkeypatch):
        real = bench.partial_sum

        def skewed(depth, truncation, mode="exact", digits=20):
            value = real(depth, truncation, mode, digits)
            if mode == "fixed":
                return FixedDecimal(value.mantissa + depth * truncation,
                                    value.scale, value.guard)
            return value

        monkeypatch.setattr(bench, "partial_sum", skewed)
        rows, ok = bench.run_benchmark()
        assert not ok
        assert {row.status for row in rows
                if row.section == "sweep-fixed"} == {"MISMATCH"}

    def test_reference_disagreement_fails(self, monkeypatch):
        class Skewed(reference.PiCache):
            # One unit off at the narrow digit counts only, so the rounding
            # of the grown cache's wider value exposes it.
            def mantissa(self, scale):
                return (super().mantissa(scale)
                        + (scale in bench.REFERENCE_DIGITS))

        monkeypatch.setattr(bench, "PiCache", Skewed)
        rows, ok = bench.run_benchmark()
        assert not ok
        assert {row.status for row in rows
                if row.section == "reference"} == {"MISMATCH"}


class TestOutputPlumbing:
    def test_out_file_and_silent_stdout(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code = main(["sum", "--depth", "2", "--upto", "3", "--format",
                     "json", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out == ""
        on_disk = json.loads(target.read_text())
        assert on_disk["value"] == "7/18"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--max-depth", "3",
                              "--digits", "5", "--format", "json")
        _, second, _ = run_cli(capsys, "table", "--max-depth", "3",
                               "--digits", "5", "--format", "json")
        assert first == second


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["sum", "--depth", "0", "--upto", "5"],
        ["sum", "--depth", "2"],
        ["sum", "--depth", "2", "--upto", "-1"],
        ["sum", "--depth", "2", "--upto", "3", "--digits", "0"],
        ["frobnicate"],
        [],
    ])
    def test_exit_three(self, capsys, argv):
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("command", [
        ["sum", "--depth", "1", "--upto", "10"],
        ["converge", "--depth", "1"],
        ["table", "--max-depth", "2"],
    ])
    @pytest.mark.parametrize("digits", ["99991", "200000"])
    def test_digits_above_maximum_quote_the_request(self, capsys, command,
                                                    digits):
        # The reference guard is internal: the message names the user's
        # number and the largest one accepted, never digits + guard.
        limit = reference.MAX_PI_DIGITS - reference.REFERENCE_GUARD
        code, out, err = run_cli(capsys, *command, "--digits", digits)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"at most {limit} digits are supported, got {digits}" in err
        assert str(int(digits) + reference.REFERENCE_GUARD) not in err

    @pytest.mark.parametrize("command", ["sum", "converge", "table"])
    def test_work_ceiling_help_names_the_truncation(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == EXIT_OK
        assert "truncation N" in " ".join(out.split())
        assert "ring operations" not in out


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("pipow")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "sum" in proc.stdout
        assert "converge" in proc.stdout
