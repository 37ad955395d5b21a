"""Command-line interface: output formats, exit codes, refusals.

Everything runs in-process through main(argv) for speed; a single
subprocess test proves the installed console script exists.
"""

import csv
import hashlib
import importlib
import io
import json
import random
import re
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipow import bench, cli, reference, series, symmetric, tree
from pipow.exactnum import FixedDecimal, int_to_decimal
from pipow.series import partial_sum, required_truncation
from pipow.cli import (
    EXIT_INFEASIBLE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_certified(records, digits):
    """Each converged record's bound is at most 10**-digits (printed at
    digits + 2 places) and its value lies within that bound plus
    10**-digits of pi**(2n)/(2n+1)!, computed by mpmath."""
    with mpmath.workdps(digits + 30):
        for record in records:
            depth = record["depth"]
            limit = mpmath.pi ** (2 * depth) / mpmath.factorial(2 * depth + 1)
            bound = mpmath.mpf(record["tail_bound"])
            assert bound <= mpmath.mpf(10) ** -digits
            assert (abs(mpmath.mpf(record["value"]) - limit)
                    <= bound + mpmath.mpf(10) ** -digits)


def sum_record(out, output_format):
    """The one record a sum prints, every field a string."""
    if output_format == "json":
        return {key: str(value) for key, value in json.loads(out).items()}
    if output_format == "csv":
        (row,) = csv.DictReader(io.StringIO(out))
        return row
    return dict(line.split(": ", 1) for line in out.splitlines())


def places_text(value, places, up=False):
    """A nonnegative mpmath value at `places` places, rounded half-even
    (the judge's precision must decide the tie) or up, as the CLI prints
    it."""
    scaled = value * mpmath.mpf(10) ** places
    whole = int(mpmath.floor(scaled))
    part = scaled - whole
    if up:
        whole += part > 0
    else:
        assert abs(part - mpmath.mpf(1) / 2) > mpmath.mpf(10) ** -20
        whole += part > mpmath.mpf(1) / 2
    text = int_to_decimal(whole).rjust(places + 1, "0")
    return text[:-places] + "." + text[-places:]


class TestWideRequests:
    """Fixed sums shaped like the benchmark's wide workload, through
    cli.main, against mpmath: the limit and the observed error rounded
    half-even, and a tail bound at least (pi**2/6)**(depth-1) / N and
    within one printed unit of it rounded up."""

    @staticmethod
    def requests():
        rng = random.Random(28)
        return [(1 + i % 4, rng.randint(20, 300), rng.randint(500, 4297),
                 ("text", "json", "csv")[i % 3]) for i in range(16)]

    @pytest.mark.parametrize("depth, truncation, digits, output_format",
                             requests())
    def test_columns_match_mpmath(self, capsys, depth, truncation, digits,
                                  output_format):
        code, out, err = run_cli(
            capsys, "sum", "--mode", "fixed", "--depth", str(depth),
            "--upto", str(truncation), "--digits", str(digits), "--format",
            output_format)
        assert (code, err) == (EXIT_OK, "")
        record = sum_record(out, output_format)
        with mpmath.workdps(digits + 40):
            # S_depth(N) as the elementary symmetric polynomial of 1/l**2.
            row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * depth
            for index in range(1, truncation + 1):
                x = mpmath.mpf(1) / (index * index)
                for j in range(depth, 0, -1):
                    row[j] += row[j - 1] * x
            limit = mpmath.pi ** (2 * depth) / mpmath.factorial(2 * depth + 1)
            bound = (mpmath.pi ** 2 / 6) ** (depth - 1) / truncation
            assert record["reference"] == places_text(limit, digits)
            assert record["abs_error"] == places_text(
                abs(limit - row[depth]), digits + 2)
            # Decimal reads these strings past the int-str digit limit.
            printed, least = (Fraction(Decimal(text)) for text in (
                record["tail_bound"], places_text(bound, digits + 2, up=True)))
            assert least <= printed <= least + Fraction(1, 10 ** (digits + 2))


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

    def test_printed_tail_bound_is_rounded_up(self, capsys):
        # Rounded half-even at digits + 2 places it printed 0.000, below
        # the true tail sum_{l > 2000} 1/l**2 = 0.000499875...
        code, out, _ = run_cli(capsys, "sum", "--depth", "1", "--upto",
                               "2000", "--mode", "fixed", "--digits", "1",
                               "--format", "json")
        assert code == EXIT_OK
        bound = json.loads(out)["tail_bound"]
        assert bound == "0.001"
        assert mpmath.mpf(bound) >= mpmath.zeta(2, 2001)

    def test_exact_guardrail_and_override(self, capsys):
        # Exact mode past the default switch is served without a flag and
        # refused by its estimated work alone (the override flag now exits
        # 3: test_removed_knobs_are_usage_errors).
        code, out, _ = run_cli(capsys, "sum", "--depth", "1", "--upto",
                               "2500", "--mode", "exact", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == str(partial_sum(1, 2500))
        code, out, err = run_cli(capsys, "sum", "--depth", "1", "--upto",
                                 "40000", "--mode", "exact")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "sum --depth 1 --upto 40000 --digits 20 needs about" in err

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

    @pytest.mark.parametrize("argv, digits", [
        (["--depth", "1"], 10),
        (["--depth", "2", "--digits", "50"], 50),
        (["--depth", "300", "--digits", "3"], 3),
    ], ids=["default", "depth-2-fifty-digits", "depth-300"])
    def test_served_within_the_certified_bound(self, capsys, argv, digits):
        # Past the Euler-Maclaurin cutoff the row costs the same at any N,
        # so N far above 10**8 is served; the value lies within
        # tail_bound + 10**-digits of the limit, judged by mpmath.
        code, out, _ = run_cli(capsys, "converge", *argv, "--format",
                               "json")
        assert code == EXIT_OK
        assert_certified([json.loads(out)], digits)

    def test_fifty_digits_served_seventy_refused(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--depth", "2",
                               "--digits", "50", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["truncation"] == (
            164493406701271984317368715096339390431528929163833)
        code, out, err = run_cli(capsys, "converge", "--depth", "2",
                                 "--digits", "70")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "converge --depth 2 --digits 70 needs about" in err


class TestTableCommand:
    def test_row_count_and_truncations(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-depth", "4",
                               "--digits", "6", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["depth"]) for r in rows] == [1, 2, 3, 4]
        for depth, row in enumerate(rows, 1):
            assert int(row["truncation"]) == required_truncation(depth, 6)

    def test_default_rows_reach_twenty_digits(self, capsys):
        # Every row is served at its own truncation, above 10**20.
        code, out, _ = run_cli(capsys, "table", "--max-depth", "3",
                               "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [row["depth"] for row in rows] == [1, 2, 3]
        assert_certified(rows, 20)

    def test_text_layout_has_aligned_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-depth", "3",
                               "--digits", "4")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 4  # header + one row per depth
        assert lines[0].split()[0] == "depth"


class TestVerifyTheoremCommand:
    # sha256 over M = 0..13 of the exit code, stdout and stderr of
    # `verify-theorem --m M --format F`, each followed by a NUL, as the
    # dict-based engine printed them: the list form must print the same.
    PINNED = {
        "text": "a974470127e3059af917c0fb311ecf16"
                "85219744f8a8dd05e0bf18d5b6c93c6f",
        "csv": "cd784d773a413f3307cbcc914c815c59"
               "5334e7f69739028d8a2c775d37eb201a",
        "json": "2979c62e0b125042d50ace287b8ff8a6"
                "357396d5170d2c16fa9f9ce4cde87e17",
    }

    @pytest.mark.parametrize("output_format", ["text", "csv", "json"])
    def test_output_bytes_are_pinned(self, capsys, output_format):
        digest = hashlib.sha256()
        for m in range(14):
            code, out, err = run_cli(capsys, "verify-theorem", "--m", str(m),
                                     "--format", output_format)
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == self.PINNED[output_format]

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

        monkeypatch.setattr(symmetric, "verify_expansion", broken)
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
        rows, _ = tree._truncated_product(1, terms + 1, payload["powers"])
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

    @pytest.mark.parametrize("x", ["0", "1/1000", "1/3", "-5/16", "3/2",
                                   "15/8", "-7/3", "25/8", "50", "-201/2"])
    def test_power_count_is_the_first_small_term(self, x):
        # The count _sinc_powers must reproduce: one term at a time in
        # exact rationals.
        def first_small_term(x, digits, terms):
            ratio = (Fraction(16, 5) * x) ** 2
            term = Fraction(1)
            for j in range(1, terms + 1):
                term = term * ratio / ((2 * j) * (2 * j + 1))
                if term < Fraction(1, 10 ** (digits + 5)):
                    return j
            return terms

        x = Fraction(x)
        for digits in (1, 5, 20, 300):
            for terms in (0, 1, 2, 3, 40, 400, 10**6):
                assert (series._sinc_powers(x, digits, terms)
                        == first_small_term(x, digits, terms)), (digits, terms)

    @pytest.mark.parametrize("x", ["0", "1/3", "-5/16", "5/16", "3/2",
                                   "15/8", "-7/3", "25/8", "45/8", "50",
                                   "-201/2"])
    def test_power_floor_is_a_lower_bound(self, x):
        # The floor refuses a request before the power count is formed,
        # so it must never exceed that count. From x = 45/8 on it is
        # floor(16|x|/5), about twice what it is below.
        x = Fraction(x)
        for digits in (1, 20, 300):
            for terms in (0, 1, 3, 40, 10**6):
                assert (series._sinc_power_floor(x, terms)
                        <= series._sinc_powers(x, digits, terms))

    def test_zero_terms_is_the_empty_product(self, capsys):
        # No power is summed: the series row has depth 0.
        code, out, _ = run_cli(capsys, "sinc", "--x", "1/2", "--terms", "0",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["powers"] == 0
        assert payload["series"] == payload["product"] == "1." + "0" * 20

    def test_power_count_stops_at_the_truncation(self, capsys):
        # S_j(10) = 0 for j > 10, so ten powers give the whole series.
        code, out, _ = run_cli(capsys, "sinc", "--x", "3000", "--terms",
                               "10", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["powers"] == 10
        assert payload["series"] == payload["product"]


# Each message as the costing spread over the command line and the
# series module printed it, step counts included: planning every
# request in one place keeps every estimate and so every refusal.
# Among them: a table refused at a shallower row after its deepest
# passed (depth 1 of 4, depth 2 of 6), a sinc refused at the floor of
# its power count (x = 100000, 2551 and -30000), converge and table rows
# refused at the floor of a deep row (depth 3000, 5000 and 20000), before
# the chain that gives their truncation (0.47 s at depth 5000, 0.25 s
# for the table at depth 3000), and a
# count of over 15 digits quoted as a power of ten. Unrefused, the
# two fixed sums ran past 60 s, the sinc Taylor sum at 99990 digits
# for 168 s and the exact depth-500 sum for 15.6 s; the deep table ran
# past 120 s, the wide-x sinc's power count past 30 s, and the two
# reference constants of the empty depth-20000 sum take 27 s. The
# sinc series rows at x = 50, 200 and 1/2 ran for about 9 s, over 60 s
# and 34 s; the sincs at x = 700 and 1000 took 0.3 to 0.4 s to refuse
# with a Fraction loop for their power count, and the one at x = 2551
# about 0.23 s with the exact count; the depth-1 converge at 99000
# digits crashed after 11 s on a step count of over 4300 digits.
REFUSED = [
    ("sum --mode fixed --depth 2 --upto 99999999 --digits 200",
     "sum --depth 2 --upto 99999999 --digits 200 needs about 4345299985"),
    ("sum --mode fixed --depth 1 --upto 10000000 --digits 2000",
     "sum --depth 1 --upto 10000000 --digits 2000 needs about "
     "2888775328"),
    ("sinc --x 1/2 --terms 1 --digits 99990",
     "sinc --x 1/2 --terms 1 --digits 99990 needs about 20001087943"),
    ("sum --depth 500 --upto 2000",
     "sum --depth 500 --upto 2000 --digits 20 needs about 6010069735"),
    ("sum --depth 20000 --upto 5",
     "sum --depth 20000 --upto 5 --digits 20 needs about 755407640"),
    ("sum --depth 20000 --upto 0 --digits 50",
     "sum --depth 20000 --upto 0 --digits 50 needs about 756817400"),
    ("sum --mode exact --depth 3 --upto 40000",
     "sum --depth 3 --upto 40000 --digits 20 needs about 139191689"),
    ("converge --depth 2 --digits 70",
     "converge --depth 2 --digits 70 needs about 149141931"),
    ("converge --depth 20000 --digits 5",
     "converge --depth 20000 --digits 5 needs about 20943022174"),
    ("table --max-depth 20000 --digits 3",
     "table --max-depth 20000 --digits 3 needs about 20942625362"),
    ("sinc --x 100000 --terms 1000000",
     "sinc --x 100000 --terms 1000000 --digits 20 needs about "
     "307200000000"),
    ("sinc --x 2551 --terms 1000000 --digits 1",
     "sinc --x 2551 --terms 1000000 --digits 1 needs about 199903707"),
    ("sinc --x 700 --terms 100000",
     "sinc --x 700 --terms 100000 --digits 20 needs about 1443827833105"),
    ("sinc --x 1000 --terms 100000",
     "sinc --x 1000 --terms 100000 --digits 20 needs about "
     "6605980312487"),
    ("converge --depth 1 --digits 99000",
     "converge --depth 1 --digits 99000 needs about 10**7338"),
    ("converge --depth 5000 --digits 5",
     "converge --depth 5000 --digits 5 needs about 528485310"),
    ("table --max-depth 5000 --digits 3",
     "table --max-depth 5000 --digits 3 needs about 528438072"),
    ("converge --depth 3000 --digits 3",
     "converge --depth 3000 --digits 3 needs about 137900307"),
    ("table --max-depth 3000 --digits 3",
     "table --max-depth 3000 --digits 3 needs about 137900307"),
    ("table --max-depth 4 --digits 55",
     "table --max-depth 4 --digits 55 needs about 51559407"),
    ("table --max-depth 6 --digits 51",
     "table --max-depth 6 --digits 51 needs about 51672519"),
    ("sinc --x -30000 --terms 100000 --digits 5",
     "sinc --x -30000 --terms 100000 --digits 5 needs about "
     "27648000000"),
    ("converge --depth 1 --digits 4400",
     "converge --depth 1 --digits 4400 needs about 10**329"),
    ("sinc --x 50 --terms 2000",
     "sinc --x 50 --terms 2000 --digits 20 needs about 60283313"),
    ("sinc --x 200 --terms 5000",
     "sinc --x 200 --terms 5000 --digits 20 needs about 6938720708"),
    ("sinc --x 1/2 --terms 1000 --digits 2000",
     "sinc --x 1/2 --terms 1000 --digits 2000 needs about 397055452"),
]
# Refused at a row's truncation, which the chain of powers of pi**2
# gives; every other request is refused before the chain runs.
AFTER_CHAIN = {"converge --depth 2 --digits 70",
               "table --max-depth 4 --digits 55",
               "table --max-depth 6 --digits 51"}


def check_refused(capsys, monkeypatch, request_):
    """Run one row of REFUSED: exit 2, no stdout, the full message on one
    stderr line, under 0.5 s, and no work started."""
    def no_work(*args):
        raise AssertionError("the computation started")

    # Where the work starts: the row, the three sinc evaluations and the
    # chain of powers of pi**2.
    patched = [(series, "partial_sum"), (cli, "sinc_product"),
               (cli, "sinc_series"), (cli, "sinc_taylor")]
    if request_ not in AFTER_CHAIN:
        patched.append((series, "_pi_power_ratios"))
    for owner, name in patched:
        monkeypatch.setattr(owner, name, no_work)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *request_.split())
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (EXIT_INFEASIBLE, "")
    assert err == ("pipow: refused: %s digit steps, above the ceiling "
                   "of 50000000; lower one of these numbers\n"
                   % dict(REFUSED)[request_])


class TestRunawayRequests:
    # Named views onto rows of REFUSED, each run by check_refused.
    RUNAWAY = {
        "sum-depth-2": "sum --mode fixed --depth 2 --upto 99999999 "
                       "--digits 200",
        "sum-depth-1": "sum --mode fixed --depth 1 --upto 10000000 "
                       "--digits 2000",
        "sinc-taylor": "sinc --x 1/2 --terms 1 --digits 99990",
        "sum-exact": "sum --depth 500 --upto 2000",
        "sum-deep-references": "sum --depth 20000 --upto 5",
        "converge-seventy-digits": "converge --depth 2 --digits 70",
        "converge-deep": "converge --depth 20000 --digits 5",
        "table-deep": "table --max-depth 20000 --digits 3",
        "sinc-wide-x": "sinc --x 100000 --terms 1000000",
        "sinc-x-700": "sinc --x 700 --terms 100000",
        "sinc-x-1000": "sinc --x 1000 --terms 100000",
        "converge-wide": "converge --depth 1 --digits 99000",
    }

    @pytest.mark.parametrize("request_", list(RUNAWAY.values()),
                             ids=list(RUNAWAY))
    def test_refused_before_work(self, capsys, monkeypatch, request_):
        check_refused(capsys, monkeypatch, request_)

    @pytest.mark.parametrize("command, digits", [("converge --depth", 5),
                                                 ("table --max-depth", 3)],
                             ids=["converge", "table"])
    def test_deep_rows_refused_before_their_truncation(self, capsys,
                                                       monkeypatch, command,
                                                       digits):
        # The chain that gives the truncation raises pi**2/6 to the depth:
        # 0.47 s at depth 5000. The floor of the row refuses first, at the
        # places its truncation forces, N > 10**digits * 1.6449**4999, and
        # its pinned count is that floor.
        request_ = f"{command} 5000 --digits {digits}"
        steps = (3 * reference.pi_power_work(
            5000, digits + reference.REFERENCE_GUARD)
            + series.row_work_floor(5000, digits + 4999 * 2161 // 10000))
        assert dict(REFUSED)[request_] == f"{request_} needs about {steps}"
        check_refused(capsys, monkeypatch, request_)

    def test_huge_counts_are_quoted_as_powers_of_ten(self, capsys,
                                                     monkeypatch):
        request_ = "converge --depth 1 --digits 4400"
        assert dict(REFUSED)[request_].endswith("needs about 10**329")
        check_refused(capsys, monkeypatch, request_)

    def test_wide_x_refused_before_its_power_count(self, capsys,
                                                   monkeypatch):
        # The floor of the power count, about 16|x|/5 powers from
        # |x| = 45/8 on, refuses first; counting the powers took 0.23 s.
        def no_count(*args):
            raise AssertionError("the power count ran")

        monkeypatch.setattr(series, "_sinc_powers", no_count)
        check_refused(capsys, monkeypatch,
                      "sinc --x 2551 --terms 1000000 --digits 1")

    @pytest.mark.parametrize("x, terms", [("1/2", 200000000),
                                          ("1/1000", 100000000)])
    def test_many_factors_are_served(self, capsys, x, terms):
        # Past its head the product costs the same at any factor count;
        # counted per factor these were refused at 7800139306 and
        # 3900046263 steps. Each takes under 5 ms in-process, most of
        # it building the Euler-Maclaurin tables on first use.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sinc", "--x", x, "--terms",
                                 str(terms), "--format", "json")
        assert time.perf_counter() - start < 0.25
        assert code == EXIT_OK and err == ""
        xm = mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator
        n = terms + 1
        with mpmath.workdps(50):
            exact = (mpmath.gamma(n - xm) * mpmath.gamma(n + xm)
                     / mpmath.gamma(n) ** 2
                     * mpmath.sinpi(xm) / (mpmath.pi * xm))
            printed = json.loads(out)["product"]
            assert abs(mpmath.mpf(printed) - exact) < mpmath.mpf("5.0001e-21")

    # Named views onto requests that rows of REFUSED once held and that
    # are served now.
    ONCE_REFUSED = {
        "sinc-many-terms": ("1/2", 200000000),
    }

    @pytest.mark.parametrize("x, terms", list(ONCE_REFUSED.values()),
                             ids=list(ONCE_REFUSED))
    def test_served_at_a_flat_estimate(self, capsys, x, terms):
        # The estimate no longer counts a step per factor: at 20 digits it
        # stays within twice its value at 10**5 factors, far under the
        # ceiling, and the request runs to exit 0.
        q = Fraction(x)
        estimate = series.sinc_work(q, series._sinc_powers(q, 20, terms),
                                    terms, 20)
        small = series.sinc_work(q, series._sinc_powers(q, 20, 10**5),
                                 10**5, 20)
        assert estimate < 2 * small < series.STEP_CEILING // 100
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sinc", "--x", x, "--terms",
                                 str(terms))
        assert time.perf_counter() - start < 0.25
        assert (code, err) == (EXIT_OK, "")
        assert f"terms: {terms}\n" in out

    def test_deep_fixed_row_is_served(self, capsys):
        # The row takes about 0.1 s, and its estimate stays under the
        # step ceiling.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sum", "--mode", "fixed", "--depth",
                                 "2000", "--upto", "3000", "--digits", "20")
        assert time.perf_counter() - start < 2
        assert code == EXIT_OK and err == ""
        assert "value: 0." + "0" * 20 + "\n" in out

    def test_row_past_its_head_counts_only_the_tails_summed(self, capsys):
        # Past a 20-place head the row sums about a dozen tails, not one
        # per depth; counted per depth, this was refused at 50238600 steps.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sum", "--mode", "fixed", "--depth",
                                 "2700", "--upto", "3000", "--digits", "20")
        assert time.perf_counter() - start < 3
        assert code == EXIT_OK and err == ""
        assert "value: 0." + "0" * 20 + "\n" in out


class TestPinnedRefusals:
    @pytest.mark.parametrize("request_", [r for r, _ in REFUSED],
                             ids=[r for r, _ in REFUSED])
    def test_message_is_pinned(self, capsys, monkeypatch, request_):
        check_refused(capsys, monkeypatch, request_)


class TestOneChainPerRequest:
    """Each sum, converge and table request raises pi**2 to its powers in
    one chain (reference._pi_power_ratios); sinc in none."""

    @pytest.mark.parametrize("argv, chains", [
        ("sum --depth 3 --upto 0", 1),
        ("sum --depth 3 --upto 40", 1),
        ("sum --depth 2 --upto 5000 --digits 30", 1),
        *[("converge --depth %d --digits 6" % d, 1) for d in range(1, 6)],
        *[("table --max-depth %d --digits 6" % d, 1) for d in range(1, 7)],
        ("sinc --x 1/2 --terms 100", 0),
        ("sinc --x 3 --terms 40", 0),
    ])
    def test_chain_count(self, capsys, monkeypatch, argv, chains):
        calls = self.count_chains(monkeypatch)
        code, _, _ = run_cli(capsys, *argv.split())
        assert code == EXIT_OK
        assert len(calls) == chains

    def test_library_converge_runs_one_chain(self, monkeypatch):
        calls = self.count_chains(monkeypatch)
        series.converge(3, 6)
        assert len(calls) == 1

    @staticmethod
    def count_chains(monkeypatch):
        calls = []
        real = reference._pi_power_ratios

        def counting(targets):
            calls.append(targets)
            return real(targets)

        for owner in (reference, series):
            monkeypatch.setattr(owner, "_pi_power_ratios", counting)
        return calls


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

    def test_unwritable_out_file_is_one_line_and_exit_three(self, capsys,
                                                            tmp_path):
        target = tmp_path / "missing" / "result.txt"
        code, out, err = run_cli(capsys, "sum", "--depth", "3", "--upto",
                                 "5", "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"pipow: cannot write --out {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--max-depth", "3",
                              "--digits", "5", "--format", "json")
        _, second, _ = run_cli(capsys, "table", "--max-depth", "3",
                               "--digits", "5", "--format", "json")
        assert first == second


# Command lines whose rows take the Newton route past their head, so that
# they read zeta(2i) from the rows kept per working precision.
NEWTON_REQUESTS = {
    "converge": ["converge", "--depth", "3", "--digits", "5"],
    "table": ["table", "--max-depth", "4", "--digits", "4", "--format",
              "json"],
    "sinc": ["sinc", "--x", "-5/4", "--terms", "3000"],
    "sum-fixed": ["sum", "--mode", "fixed", "--depth", "16", "--upto",
                  "100000", "--digits", "30", "--format", "csv"],
}


class TestKeptZetaRows:
    @pytest.mark.parametrize("name", list(NEWTON_REQUESTS))
    def test_cold_and_warm_print_the_same_bytes(self, capsys, monkeypatch,
                                                name):
        zetas = tree._BlockCache()
        monkeypatch.setattr(series, "_ZETAS", zetas)
        cold = run_cli(capsys, *NEWTON_REQUESTS[name])
        assert cold[0] == EXIT_OK and cold[2] == ""
        assert len(zetas) > 0
        assert run_cli(capsys, *NEWTON_REQUESTS[name]) == cold

    def test_rows_kept_by_other_requests(self, capsys, monkeypatch):
        # Each command line served after all the others, in both orders,
        # prints what it printed as the first of its process.
        cold = {}
        for name, argv in NEWTON_REQUESTS.items():
            monkeypatch.setattr(series, "_ZETAS", tree._BlockCache())
            cold[name] = run_cli(capsys, *argv)
        monkeypatch.setattr(series, "_ZETAS", tree._BlockCache())
        for name in [*NEWTON_REQUESTS, *reversed(NEWTON_REQUESTS)]:
            assert run_cli(capsys, *NEWTON_REQUESTS[name]) == cold[name]


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
        # No reference bounds the digits at |x| > 2: only the parser does.
        ["sinc", "--x", "3", "--terms", "1"],
    ])
    @pytest.mark.parametrize("digits", ["99991", "200000", "2000000"])
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

    @pytest.mark.parametrize("command", [
        ["sum", "--depth", "1", "--upto", "10"],
        ["converge", "--depth", "1"],
        ["table", "--max-depth", "2"],
    ])
    @pytest.mark.parametrize("option", [["--work-ceiling", "100"],
                                        ["--force-exact"]])
    def test_removed_knobs_are_usage_errors(self, capsys, command, option):
        code, out, err = run_cli(capsys, *command, *option)
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments" in err


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


# --- pinned output layouts ---------------------------------------------------

# Small deterministic requests covering every layout: one record, several
# records (table), a wrapper object with its own text (verify-theorem,
# bench) and empty cells (sinc beyond the Taylor domain). bench runs on
# fixed rows, so no timing appears.
GOLDEN_REQUESTS = {
    "sum-exact": ["sum", "--depth", "2", "--upto", "3"],
    "sum-fixed": ["sum", "--depth", "2", "--upto", "10", "--mode", "fixed",
                  "--digits", "8"],
    "sum-as-decimal": ["sum", "--depth", "2", "--upto", "3", "--as-decimal",
                       "--digits", "8"],
    "sum-upto-0": ["sum", "--depth", "1", "--upto", "0", "--digits", "6"],
    "converge": ["converge", "--depth", "1", "--digits", "2"],
    "table": ["table", "--max-depth", "3", "--digits", "3"],
    "verify-theorem": ["verify-theorem", "--m", "3"],
    "sinc-half": ["sinc", "--x", "1/2", "--terms", "10", "--digits", "8"],
    "sinc-five-halves": ["sinc", "--x", "5/2", "--terms", "10",
                         "--digits", "8"],
    "bench": ["bench"],
}
GOLDEN_BENCH_ROWS = [
    bench.BenchRow("oracles", "product-tree", 1, 35, 35, 0.000123, "agree"),
    bench.BenchRow("oracles", "enumeration", 5, 100, 75287520, None,
                   "refused: 75287520 tuples > ceiling 10000000"),
    bench.BenchRow("reference", "pi-cold", 0, 0, 1000, 1.5, "agree"),
]
GOLDEN = {
    ("sum-exact", "text"): """\
depth: 2
truncation: 3
mode: exact
value: 7/18
tail_bound: 0.5483113556160754788242
reference: 0.81174242528335364364
abs_error: 0.4228535363944647547481
""",
    ("sum-exact", "csv"): """\
depth,truncation,mode,value,tail_bound,reference,abs_error
2,3,exact,7/18,0.5483113556160754788242,0.81174242528335364364,0.4228535363944647547481
""",
    ("sum-exact", "json"): """\
{
  "depth": 2,
  "truncation": 3,
  "mode": "exact",
  "value": "7/18",
  "tail_bound": "0.5483113556160754788242",
  "reference": "0.81174242528335364364",
  "abs_error": "0.4228535363944647547481"
}
""",
    ("sum-fixed", "text"): """\
depth: 2
truncation: 10
mode: fixed
value: 0.65987172
tail_bound: 0.1644934067
reference: 0.81174243
abs_error: 0.1518707067
""",
    ("sum-fixed", "csv"): """\
depth,truncation,mode,value,tail_bound,reference,abs_error
2,10,fixed,0.65987172,0.1644934067,0.81174243,0.1518707067
""",
    ("sum-fixed", "json"): """\
{
  "depth": 2,
  "truncation": 10,
  "mode": "fixed",
  "value": "0.65987172",
  "tail_bound": "0.1644934067",
  "reference": "0.81174243",
  "abs_error": "0.1518707067"
}
""",
    ("sum-as-decimal", "text"): """\
depth: 2
truncation: 3
mode: exact
value: 0.38888889
tail_bound: 0.5483113557
reference: 0.81174243
abs_error: 0.4228535364
""",
    ("sum-as-decimal", "csv"): """\
depth,truncation,mode,value,tail_bound,reference,abs_error
2,3,exact,0.38888889,0.5483113557,0.81174243,0.4228535364
""",
    ("sum-as-decimal", "json"): """\
{
  "depth": 2,
  "truncation": 3,
  "mode": "exact",
  "value": "0.38888889",
  "tail_bound": "0.5483113557",
  "reference": "0.81174243",
  "abs_error": "0.4228535364"
}
""",
    ("sum-upto-0", "text"): """\
depth: 1
truncation: 0
mode: exact
value: 0
tail_bound: 1.64493407
reference: 1.644934
abs_error: 1.64493407
""",
    ("sum-upto-0", "csv"): """\
depth,truncation,mode,value,tail_bound,reference,abs_error
1,0,exact,0,1.64493407,1.644934,1.64493407
""",
    ("sum-upto-0", "json"): """\
{
  "depth": 1,
  "truncation": 0,
  "mode": "exact",
  "value": "0",
  "tail_bound": "1.64493407",
  "reference": "1.644934",
  "abs_error": "1.64493407"
}
""",
    ("converge", "text"): """\
depth: 1
truncation: 101
mode: fixed
value: 1.64
tail_bound: 0.0100
reference: 1.64
abs_error: 0.0099
""",
    ("converge", "csv"): """\
depth,truncation,mode,value,tail_bound,reference,abs_error
1,101,fixed,1.64,0.0100,1.64,0.0099
""",
    ("converge", "json"): """\
{
  "depth": 1,
  "truncation": 101,
  "mode": "fixed",
  "value": "1.64",
  "tail_bound": "0.0100",
  "reference": "1.64",
  "abs_error": "0.0099"
}
""",
    ("table", "text"): """\
depth  truncation  mode   value  tail_bound  reference  abs_error
1      1001        fixed  1.644  0.00100     1.645      0.00100
2      1645        fixed  0.811  0.00100     0.812      0.00100
3      2706        fixed  0.190  0.00100     0.191      0.00030
""",
    ("table", "csv"): """\
depth,truncation,mode,value,tail_bound,reference,abs_error
1,1001,fixed,1.644,0.00100,1.645,0.00100
2,1645,fixed,0.811,0.00100,0.812,0.00100
3,2706,fixed,0.190,0.00100,0.191,0.00030
""",
    ("table", "json"): """\
[
  {
    "depth": 1,
    "truncation": 1001,
    "mode": "fixed",
    "value": "1.644",
    "tail_bound": "0.00100",
    "reference": "1.645",
    "abs_error": "0.00100"
  },
  {
    "depth": 2,
    "truncation": 1645,
    "mode": "fixed",
    "value": "0.811",
    "tail_bound": "0.00100",
    "reference": "0.812",
    "abs_error": "0.00100"
  },
  {
    "depth": 3,
    "truncation": 2706,
    "mode": "fixed",
    "value": "0.190",
    "tail_bound": "0.00100",
    "reference": "0.191",
    "abs_error": "0.00030"
  }
]
""",
    ("verify-theorem", "text"): """\
power 0: 1 squarefree monomials, three constructions agree
power 1: 3 squarefree monomials, three constructions agree
power 2: 3 squarefree monomials, three constructions agree
power 3: 1 squarefree monomials, three constructions agree
expansion check for 3 variables: PASS
""",
    ("verify-theorem", "csv"): """\
m,passed,mismatch_power,warning
3,true,,
""",
    ("verify-theorem", "json"): """\
{
  "m": 3,
  "passed": true,
  "mismatch_power": null,
  "details": [
    "power 0: 1 squarefree monomials, three constructions agree",
    "power 1: 3 squarefree monomials, three constructions agree",
    "power 2: 3 squarefree monomials, three constructions agree",
    "power 3: 1 squarefree monomials, three constructions agree"
  ],
  "warning": null
}
""",
    ("sinc-half", "text"): """\
x: 1/2
terms: 10
powers: 9
digits: 8
product: 0.65195342
series: 0.65195342
taylor: 0.63661977
product_vs_taylor: 0.01533365
series_vs_taylor: 0.01533365
""",
    ("sinc-half", "csv"): """\
x,terms,powers,digits,product,series,taylor,product_vs_taylor,series_vs_taylor
1/2,10,9,8,0.65195342,0.65195342,0.63661977,0.01533365,0.01533365
""",
    ("sinc-half", "json"): """\
{
  "x": "1/2",
  "terms": 10,
  "powers": 9,
  "digits": 8,
  "product": "0.65195342",
  "series": "0.65195342",
  "taylor": "0.63661977",
  "product_vs_taylor": "0.01533365",
  "series_vs_taylor": "0.01533365"
}
""",
    ("sinc-five-halves", "text"): """\
x: 5/2
terms: 10
powers: 10
digits: 8
product: 0.23211964
series: 0.23211964
taylor:\x20
product_vs_taylor:\x20
series_vs_taylor:\x20
""",
    ("sinc-five-halves", "csv"): """\
x,terms,powers,digits,product,series,taylor,product_vs_taylor,series_vs_taylor
5/2,10,10,8,0.23211964,0.23211964,,,
""",
    ("sinc-five-halves", "json"): """\
{
  "x": "5/2",
  "terms": 10,
  "powers": 10,
  "digits": 8,
  "product": "0.23211964",
  "series": "0.23211964",
  "taylor": null,
  "product_vs_taylor": null,
  "series_vs_taylor": null
}
""",
    ("bench", "text"): """\
active backend: pure-python

section    method        depth  truncation  operations  seconds   status
oracles    product-tree  1      35          35          0.000123  agree
oracles    enumeration   5      100         75287520              refused: 75287520 tuples > ceiling 10000000
reference  pi-cold       0      0           1000        1.500000  agree

all cross-checks passed
""",
    ("bench", "csv"): """\
section,method,depth,truncation,operations,seconds,status
oracles,product-tree,1,35,35,0.000123,agree
oracles,enumeration,5,100,75287520,,refused: 75287520 tuples > ceiling 10000000
reference,pi-cold,0,0,1000,1.500000,agree
""",
    ("bench", "json"): """\
{
  "backend": "pure-python",
  "ok": true,
  "rows": [
    {
      "section": "oracles",
      "method": "product-tree",
      "depth": "1",
      "truncation": "35",
      "operations": "35",
      "seconds": "0.000123",
      "status": "agree"
    },
    {
      "section": "oracles",
      "method": "enumeration",
      "depth": "5",
      "truncation": "100",
      "operations": "75287520",
      "seconds": "",
      "status": "refused: 75287520 tuples > ceiling 10000000"
    },
    {
      "section": "reference",
      "method": "pi-cold",
      "depth": "0",
      "truncation": "0",
      "operations": "1000",
      "seconds": "1.500000",
      "status": "agree"
    }
  ]
}
""",
}


class TestOutputLayouts:
    @pytest.mark.parametrize("name, output_format", list(GOLDEN))
    def test_stdout_is_pinned(self, capsys, monkeypatch, name,
                              output_format):
        monkeypatch.setattr(bench, "run_benchmark",
                            lambda: (GOLDEN_BENCH_ROWS, True))
        code, out, err = run_cli(capsys, *GOLDEN_REQUESTS[name], "--format",
                                 output_format)
        assert (code, err) == (EXIT_OK, "")
        assert out == GOLDEN[name, output_format]


def csv_writer_line(cells):
    """The line csv.writer writes for `cells`, as the CLI's csv used to."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()


class TestCsvLine:
    """cli._csv_line writes what csv.writer does, without loading csv."""

    @pytest.mark.parametrize("name", [name for name, output_format in GOLDEN
                                      if output_format == "csv"])
    def test_pinned_layouts(self, name):
        layout = GOLDEN[name, "csv"]
        rows = list(csv.reader(io.StringIO(layout)))
        assert "".join(map(csv_writer_line, rows)) == layout
        assert "".join(map(cli._csv_line, rows)) == layout

    def test_quoting_cases(self):
        for cells in ([""], ["", ""], ["a,b"], ['say "x"'], ["1\n2"],
                      ["\r"], ["-1/3", "", "0.5"], []):
            assert cli._csv_line(cells) == csv_writer_line(cells)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(""), st.text(
        alphabet="0123456789.-/,\"\n", max_size=12)), max_size=6))
    def test_random_cells(self, cells):
        assert cli._csv_line(cells) == csv_writer_line(cells)


# --- command lines left to argparse ------------------------------------------

TOP_HELP = """\
usage: pipow [-h] {sum,converge,table,verify-theorem,sinc,bench} ...

Nested reciprocal-square sums converging to pi**(2n)/(2n+1)!, with exact and
fixed-point modes.

positional arguments:
  {sum,converge,table,verify-theorem,sinc,bench}
    sum                 one partial sum S_depth(upto)
    converge            drive the truncation until the tail bound drops below
                        10**-digits
    table               one converged row per depth 1..max-depth
    verify-theorem      mechanically verify the product expansion against the
                        symmetric polynomials for m variables
    sinc                compare the product and series forms of
                        sin(pi*x)/(pi*x) at a rational x
    bench               cross-checked timings: exact oracles and the fixed
                        sweep

options:
  -h, --help            show this help message and exit
"""
SUM_HELP = """\
usage: pipow sum [-h] --depth DEPTH --upto UPTO [--mode {exact,fixed}]
                 [--as-decimal] [--digits DIGITS] [--format {text,csv,json}]
                 [--out OUT_PATH]

options:
  -h, --help            show this help message and exit
  --depth DEPTH
  --upto UPTO           truncation: largest index folded into the sum
  --mode {exact,fixed}  exact rationals or fixed decimals (default: exact up
                        to --upto 2000, fixed beyond)
  --as-decimal          render exact rational output as a decimal
  --digits DIGITS       requested decimal precision (default 20)
  --format {text,csv,json}
                        output format (default text)
  --out OUT_PATH        write output to this file instead of stdout
"""
SINC_HELP = """\
usage: pipow sinc [-h] --x X [--terms TERMS] [--digits DIGITS]
                  [--format {text,csv,json}] [--out OUT_PATH]

options:
  -h, --help            show this help message and exit
  --x X                 rational argument, 'p' or 'p/q'
  --terms TERMS         product factors / series truncation (default 100)
  --digits DIGITS       requested decimal precision (default 20)
  --format {text,csv,json}
                        output format (default text)
  --out OUT_PATH        write output to this file instead of stdout
"""
SUM_2_3 = ["sum", "--depth", "2", "--upto", "3"]
# Command lines that cli._plain_args declines, each with the exit code,
# stdout and stderr that argparse (CPython 3.11, 80 columns) gives it.
# argv None runs the console script that pyproject.toml names, as
# `pipow --help`.
IRREGULAR = {
    "empty": ([], EXIT_USAGE, "",
              "pipow: error: the following arguments are required: "
              "command\n"),
    "unknown-command": (
        ["frobnicate"], EXIT_USAGE, "",
        "pipow: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'sum', 'converge', 'table', 'verify-theorem', "
        "'sinc', 'bench')\n"),
    "help": (["--help"], EXIT_OK, TOP_HELP, ""),
    "h": (["-h"], EXIT_OK, TOP_HELP, ""),
    "sum-help": (["sum", "--help"], EXIT_OK, SUM_HELP, ""),
    "sinc-h": (["sinc", "-h"], EXIT_OK, SINC_HELP, ""),
    "abbreviation": (["sum", "--dep", "2", "--upto", "3"], EXIT_OK,
                     GOLDEN["sum-exact", "text"], ""),
    "repeated": (["sum", "--depth", "2", "--depth", "3", "--upto", "3"],
                 EXIT_OK, """\
depth: 3
truncation: 3
mode: exact
value: 1/36
tail_bound: 0.9019360280926151595967
reference: 0.19075182412208421370
abs_error: 0.1629740463443064359187
""", ""),
    "missing-upto": (["sum", "--depth", "2"], EXIT_USAGE, "",
                     "pipow sum: error: the following arguments are "
                     "required: --upto\n"),
    "depth-x": (["sum", "--depth", "x", "--upto", "3"], EXIT_USAGE, "",
                "pipow sum: error: argument --depth: 'x' is not an "
                "integer\n"),
    "upto-negative": (["sum", "--depth", "2", "--upto", "-1"],
                      EXIT_USAGE, "",
                      "pipow sum: error: argument --upto: value must be "
                      "nonnegative\n"),
    "mode-approx": (SUM_2_3 + ["--mode", "approx"], EXIT_USAGE, "",
                    "pipow sum: error: argument --mode: invalid choice: "
                    "'approx' (choose from 'exact', 'fixed')\n"),
    "digits-0": (SUM_2_3 + ["--digits", "0"], EXIT_USAGE, "",
                 "pipow sum: error: argument --digits: value must be a "
                 "positive integer\n"),
    "flag-with-value": (SUM_2_3 + ["--as-decimal=1"], EXIT_USAGE, "",
                        "pipow sum: error: argument --as-decimal: ignored "
                        "explicit argument '1'\n"),
    "double-dash": (SUM_2_3 + ["--"], EXIT_USAGE, "",
                    "pipow: error: unrecognized arguments: --\n"),
    "stray-token": (SUM_2_3 + ["extra"], EXIT_USAGE, "",
                    "pipow: error: unrecognized arguments: extra\n"),
    "negative-after-space": (["sinc", "--x", "-3/2", "--terms", "10"],
                             EXIT_OK, """\
x: -3/2
terms: 10
powers: 10
digits: 20
product: -0.26306892540014814585
series: -0.26306892540014814585
taylor: -0.21220659078919378103
product_vs_taylor: 0.05086233461095436483
series_vs_taylor: 0.05086233461095436483
""", ""),
    "digits-200000": (["converge", "--depth", "1", "--digits", "200000"],
                      EXIT_USAGE, "",
                      "pipow converge: error: argument --digits: at most "
                      "99990 digits are supported, got 200000\n"),
    "removed-knob": (["converge", "--depth", "1", "--work-ceiling", "5"],
                     EXIT_USAGE, "",
                     "pipow: error: unrecognized arguments: "
                     "--work-ceiling 5\n"),
    "format-without-value": (["table", "--max-depth", "2", "--format"],
                             EXIT_USAGE, "",
                             "pipow table: error: argument --format: "
                             "expected one argument\n"),
    "format-xml": (["bench", "--format", "xml"], EXIT_USAGE, "",
                   "pipow bench: error: argument --format: invalid choice: "
                   "'xml' (choose from 'text', 'csv', 'json')\n"),
    "console-script-help": (None, EXIT_OK, TOP_HELP, ""),
}


class TestIrregularCommandLines:
    @pytest.mark.parametrize("name", list(IRREGULAR))
    def test_argparse_output_is_pinned(self, capsys, monkeypatch, name):
        argv, code, out, err = IRREGULAR[name]
        monkeypatch.setenv("COLUMNS", "80")
        calls = []
        parse_args = cli._Parser.parse_args

        def counted(self, *args):
            calls.append(args)
            return parse_args(self, *args)

        monkeypatch.setattr(cli._Parser, "parse_args", counted)
        if argv is None:
            text = (ROOT / "pyproject.toml").read_text()
            module, function = re.search(r'^pipow = "([\w.]+):(\w+)"$',
                                         text, re.M).groups()
            monkeypatch.setattr(sys, "argv", ["pipow", "--help"])
            with pytest.raises(SystemExit) as stop:
                getattr(importlib.import_module(module), function)()
            argv, result = ["--help"], stop.value.code
        else:
            result = main(argv)
        assert cli._plain_args(argv) is None
        assert len(calls) == 1
        assert (result, *capsys.readouterr()) == (code, out, err)


def valid_values(action):
    """Values one option accepts, as a command line spells them."""
    if action.choices is not None:
        return st.sampled_from(action.choices)
    return {
        cli._positive_int: st.integers(1, 10**9).map(str),
        cli._series_digits: st.integers(1, cli.MAX_SERIES_DIGITS).map(str),
        cli._nonnegative_int: st.integers(0, 10**9).map(str),
        cli._rational: st.one_of(
            st.integers().map(str),
            st.builds("{}/{}".format, st.integers(),
                      st.integers(1, 10**9))),
        None: st.text(),
    }[action.type]


@st.composite
def plain_command_lines(draw):
    """A command, every required option and any subset of the others, in
    any order, each `--name value` or `--name=value` (always the latter
    for a value starting with '-'), a flag bare."""
    commands = cli._plain_commands()
    command = draw(st.sampled_from(sorted(commands)))
    options, _, _ = commands[command]
    actions = [action for action in dict.fromkeys(options.values())
               if action.required or draw(st.booleans())]
    argv = [command]
    for action in draw(st.permutations(actions)):
        option = action.option_strings[0]
        if action.nargs == 0:
            argv.append(option)
            continue
        value = draw(valid_values(action))
        if value.startswith("-") or draw(st.booleans()):
            argv.append(f"{option}={value}")
        else:
            argv += [option, value]
    return argv


class TestPlainReader:
    @settings(max_examples=300, deadline=None)
    @given(plain_command_lines())
    def test_reads_what_argparse_reads(self, argv):
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(cli._parser().parse_args(argv))
