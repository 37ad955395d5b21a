"""Per-request output checks, independent of ``pipow``.

Nothing here calls ``pipow``: the printed output is parsed as text and every
expected number comes from mpmath, either from a closed form or from the
defining recurrence evaluated in mpmath's own arithmetic. The one exception
is an exact rational, which is checked exactly against the integer form of
the same recurrence. ``check`` returns None for an accepted output and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import mpmath

def _option(argv: list, name: str, default=None):
    for i, item in enumerate(argv):
        if item == name:
            return argv[i + 1]
        if item.startswith(name + "="):
            return item[len(name) + 1:]
    return default


def parse(argv: list, stdout: str) -> list:
    """The output as a list of string-valued records, whatever the format."""
    fmt = _option(argv, "--format", "text")
    if fmt == "json":
        data = json.loads(stdout)
        rows = data if isinstance(data, list) else [data]
        return [{k: (None if v is None else
                     str(v).lower() if isinstance(v, bool) else str(v))
                 for k, v in row.items()} for row in rows]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    lines = stdout.splitlines()
    if argv[0] == "table":
        header = lines[0].split()
        return [dict(zip(header, line.split())) for line in lines[1:]]
    if argv[0] == "verify-theorem":
        passed = lines[-1].endswith(": PASS")
        m = lines[-1].split(" for ")[1].split()[0]
        return [{"m": m, "passed": "true" if passed else "false"}]
    record = {}
    for line in lines:
        key, _, value = line.partition(": ")
        record[key] = value
    return [record]


def _limit(depth: int):
    return mpmath.pi ** (2 * depth) / mpmath.factorial(2 * depth + 1)


def _nested_sum(depth: int, upto: int):
    """S_depth(upto) by the index sweep, in mpmath arithmetic."""
    row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * depth
    for ell in range(1, upto + 1):
        x = mpmath.mpf(1) / (ell * ell)
        for k in range(min(depth, ell), 0, -1):
            row[k] += x * row[k - 1]
    return row[depth]


def _scaled_sum(depth: int, upto: int) -> tuple:
    """(E, D) with S_depth(upto) = E / D exactly: the same sweep on the
    integer polynomial prod (l^2 + t), E its t^depth coefficient and
    D = (upto!)^2."""
    row = [1] + [0] * depth
    for ell in range(1, upto + 1):
        sq = ell * ell
        for k in range(min(depth, ell), 0, -1):
            row[k] = row[k] * sq + row[k - 1]
        row[0] *= sq
    return row[depth], row[0]


def _close(printed: str, exact, places: int, slack: int = 8) -> bool:
    """printed is exact rounded to `places` decimals (half an ulp, plus a
    margin far below it for the guard digits behind the rounding)."""
    tol = mpmath.mpf(10) ** -places / 2 + mpmath.mpf(10) ** -(places + slack)
    return abs(mpmath.mpf(printed) - exact) <= tol


def _check_series_row(row: dict, depth: int, digits: int, upto, mode: str):
    if int(row["depth"]) != depth or row["mode"] != mode:
        return "depth or mode does not echo the request"
    limit = _limit(depth)
    if not _close(row["reference"], limit, digits):
        return "reference is not pi^(2n)/(2n+1)! to the printed places"
    bound = mpmath.mpf(row["tail_bound"])
    if upto is None:  # converge / table: the truncation is the program's pick
        # The bound is printed at digits + 2 places, so a certified bound
        # just under 10^-digits may print as exactly 10^-digits.
        if bound > mpmath.mpf(10) ** -digits:
            return "tail bound is above 10^-digits"
        if abs(mpmath.mpf(row["value"]) - limit) > bound + mpmath.mpf(10) ** -digits:
            return "value is farther from the limit than tail_bound + 10^-digits"
        return None
    if int(row["truncation"]) != upto:
        return "truncation does not echo --upto"
    exact = _nested_sum(depth, upto)
    value = row["value"]
    if mode == "exact" and "." not in value:
        # An exact rational is checked exactly, by cross-multiplying with
        # the integer form of the sweep; mpmath's rationals are far slower.
        numerator, _, denominator = value.partition("/")
        scaled, scale = _scaled_sum(depth, upto)
        if int(numerator) * scale != int(denominator or 1) * scaled:
            return "exact fraction differs from the integer sweep"
    elif not _close(value, exact, digits):
        return "value differs from the mpmath sweep at the printed places"
    if limit - exact > bound + mpmath.mpf(10) ** -(digits + 2):
        return "tail bound is below the true tail"
    if not _close(row["abs_error"], limit - exact, digits + 2, slack=6):
        return "abs_error differs from |limit - S|"
    return None


def _check_series(argv: list, records: list):
    digits = int(_option(argv, "--digits", "20"))
    if argv[0] == "converge":
        depth = int(_option(argv, "--depth"))
        if len(records) != 1:
            return "expected one record"
        return _check_series_row(records[0], depth, digits, None, "fixed")
    if argv[0] == "table":
        max_depth = int(_option(argv, "--max-depth"))
        if len(records) != max_depth:
            return "expected one row per depth"
        for depth, row in enumerate(records, start=1):
            reason = _check_series_row(row, depth, digits, None, "fixed")
            if reason:
                return f"row {depth}: {reason}"
        return None
    depth = int(_option(argv, "--depth"))
    upto = int(_option(argv, "--upto"))
    mode = _option(argv, "--mode", "exact")
    if len(records) != 1:
        return "expected one record"
    return _check_series_row(records[0], depth, digits, upto, mode)


def _elementary(terms: int, count: int) -> list:
    """e_0..e_count of 1/1^2, ..., 1/terms^2 by Newton's identities on the
    power sums zeta(2i) - zeta(2i, terms + 1)."""
    powers = [None] + [mpmath.zeta(2 * i) - mpmath.zeta(2 * i, terms + 1)
                       for i in range(1, count + 1)]
    e = [mpmath.mpf(1)]
    for k in range(1, count + 1):
        acc = mpmath.mpf(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * powers[i]
        e.append(acc / k)
    return e


def _check_sinc(argv: list, records: list):
    if len(records) != 1:
        return "expected one record"
    row = records[0]
    x = Fraction(_option(argv, "--x"))
    terms = int(_option(argv, "--terms", "100"))
    digits = int(_option(argv, "--digits", "20"))
    powers = int(row["powers"])
    xm = mpmath.mpf(x.numerator) / x.denominator
    x2 = xm * xm
    product = mpmath.mpf(1)
    for k in range(1, terms + 1):
        product *= 1 - x2 / (k * k)
    if not _close(row["product"], product, digits):
        return "product differs from the mpmath product"
    # Newton's identities cancel about log10((2k)(2k+1)/pi^2) digits per
    # step; carry enough extra precision for that.
    extra = int(sum(math.log10(max(1.0, 4 * k * k / 9.8))
                    for k in range(1, powers + 1))) + 10
    with mpmath.extradps(extra):
        e = _elementary(terms, powers)
        series = mpmath.fsum((-1) ** j * e[j] * x2 ** j
                             for j in range(powers + 1))
        if not _close(row["series"], series, digits):
            return "series differs from the mpmath truncated series"
    first_omitted = ((mpmath.pi * abs(xm)) ** (2 * powers + 2)
                     / mpmath.factorial(2 * powers + 3))
    if first_omitted > mpmath.mpf(10) ** -(digits + 5):
        return "power count leaves a term above 10^-(digits+5)"
    if abs(x) <= 2:
        sinc = mpmath.mpf(1) if x == 0 else mpmath.sinpi(xm) / (mpmath.pi * xm)
        if not _close(row["taylor"], sinc, digits):
            return "taylor differs from sin(pi x)/(pi x)"
    return None


def _check_verify(argv: list, records: list):
    if len(records) != 1:
        return "expected one record"
    if records[0]["m"] != _option(argv, "--m"):
        return "m does not echo the request"
    if records[0]["passed"] != "true":
        return "verification did not pass"
    return None


_CHECKS = {
    "converge": _check_series,
    "table": _check_series,
    "sum": _check_series,
    "sinc": _check_sinc,
    "verify-theorem": _check_verify,
}


def check(argv: list, code: int, stdout: str):
    """None if the output is right for the request, else the reason."""
    if code != 0:
        return f"exit code {code}"
    digits = int(_option(argv, "--digits", "20"))
    with mpmath.workdps(digits + 20):
        try:
            records = parse(argv, stdout)
            return _CHECKS[argv[0]](argv, records)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"
