"""pipow command line.

Subcommands: sum, converge, table, verify-theorem, sinc, bench. Output is
deterministic for a given command line (benchmark timings excepted) in all
three formats (text, csv, json).

Exit codes: 0 success, 1 verification mismatch, 2 request refused as
infeasible under the work ceiling, 3 invalid arguments or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction

from . import _backend, bench
from .errors import DomainError, InfeasibleError
from .exactnum import FixedDecimal, div_round_up, int_to_decimal
from .reference import (
    MAX_PI_DIGITS,
    REFERENCE_GUARD,
    basel_power,
    reference_value,
    sinc_taylor,
)
from .series import (
    DEFAULT_WORK_CEILING,
    EXACT_TRUNCATION_LIMIT,
    SeriesResult,
    converge,
    partial_sum,
    required_truncation,
    sinc_product,
    sinc_series,
    tail_bound,
)
from .symmetric import PRACTICAL_VERIFY_CEILING, verify_expansion

__all__ = ["EXIT_INFEASIBLE", "EXIT_MISMATCH", "EXIT_OK", "EXIT_USAGE",
           "build_parser", "entrypoint", "main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3

WORK_CEILING_ENV = "PIPOW_WORK_CEILING"

# The series commands judge their output against reference constants at
# digits + REFERENCE_GUARD places, so the guard comes out of the pi budget.
MAX_SERIES_DIGITS = MAX_PI_DIGITS - REFERENCE_GUARD

# Schema-fixed field order for series results in every format.
RESULT_FIELDS = (
    "depth", "truncation", "mode", "value",
    "tail_bound", "reference", "abs_error",
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped to this tool's exit code 3."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token with a leading '-' as an option unless it
        # looks like a negative number; '-3/2' is one too, for --x.
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


def _series_digits(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_SERIES_DIGITS:
        raise argparse.ArgumentTypeError(
            "at most %d digits are supported, got %d"
            % (MAX_SERIES_DIGITS, value)
        )
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _rational(text: str) -> Fraction:
    """Accepts an integer 'p' or a fraction 'p/q' with nonzero q."""
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            numerator, denominator = int(parts[0]), int(parts[1])
            if denominator == 0:
                raise argparse.ArgumentTypeError("denominator must be nonzero")
            return Fraction(numerator, denominator)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"{text!r} is not a rational (expected 'p' or 'p/q')"
    )


def _resolve_work_ceiling(args) -> int:
    flag = getattr(args, "work_ceiling", None)
    if flag is not None:
        return flag
    env = os.environ.get(WORK_CEILING_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise DomainError(
                f"{WORK_CEILING_ENV} must be an integer, got {env!r}"
            )
        if value < 1:
            raise DomainError(f"{WORK_CEILING_ENV} must be positive")
        return value
    return DEFAULT_WORK_CEILING


def _add_common(sub, *, digits_default=20, digits_type=_series_digits):
    sub.add_argument("--digits", type=digits_type, default=digits_default,
                     help="requested decimal precision (default %(default)s)")
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text", dest="output_format",
                     help="output format (default %(default)s)")
    sub.add_argument("--out", dest="out_path", default=None,
                     help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pipow",
        description="Nested reciprocal-square sums converging to "
                    "pi**(2n)/(2n+1)!, with exact and fixed-point modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="one partial sum S_depth(upto)")
    p_sum.add_argument("--depth", type=_positive_int, required=True)
    p_sum.add_argument("--upto", type=_nonnegative_int, required=True,
                       help="truncation: largest index folded into the sum")
    p_sum.add_argument("--mode", choices=("exact", "fixed"), default=None,
                       help="exact rationals or fixed decimals (default: "
                            "exact up to --upto %d, fixed beyond)"
                            % EXACT_TRUNCATION_LIMIT)
    p_sum.add_argument("--force-exact", action="store_true",
                       help="allow exact mode above the default limit")
    p_sum.add_argument("--as-decimal", action="store_true",
                       help="render exact rational output as a decimal")
    p_sum.add_argument("--work-ceiling", type=_positive_int, default=None,
                       help="cap on the truncation N (env %s, default %d)"
                            % (WORK_CEILING_ENV, DEFAULT_WORK_CEILING))
    _add_common(p_sum)

    p_conv = sub.add_parser(
        "converge", help="drive the truncation until the tail bound "
                         "drops below 10**-digits")
    p_conv.add_argument("--depth", type=_positive_int, required=True)
    p_conv.add_argument("--work-ceiling", type=_positive_int, default=None,
                        help="cap on the truncation N (env %s, default %d)"
                             % (WORK_CEILING_ENV, DEFAULT_WORK_CEILING))
    _add_common(p_conv, digits_default=10)

    p_table = sub.add_parser(
        "table", help="one converged row per depth 1..max-depth, "
                      "clamped to the work ceiling")
    p_table.add_argument("--max-depth", type=_positive_int, required=True)
    p_table.add_argument("--work-ceiling", type=_positive_int, default=None,
                         help="cap on each row's truncation N (env %s, "
                              "default %d)"
                              % (WORK_CEILING_ENV, DEFAULT_WORK_CEILING))
    _add_common(p_table)

    p_verify = sub.add_parser(
        "verify-theorem",
        help="mechanically verify the product expansion against the "
             "symmetric polynomials for m variables")
    p_verify.add_argument("--m", type=_nonnegative_int, required=True,
                          dest="n_vars", help="number of variables")
    p_verify.add_argument("--format", choices=("text", "csv", "json"),
                          default="text", dest="output_format")
    p_verify.add_argument("--out", dest="out_path", default=None)

    p_sinc = sub.add_parser(
        "sinc", help="compare the product and series forms of "
                     "sin(pi*x)/(pi*x) at a rational x")
    p_sinc.add_argument("--x", type=_rational, required=True,
                        help="rational argument, 'p' or 'p/q'")
    p_sinc.add_argument("--terms", type=_nonnegative_int, default=100,
                        help="product factors / series truncation "
                             "(default %(default)s)")
    _add_common(p_sinc, digits_type=_positive_int)

    p_bench = sub.add_parser(
        "bench", help="cross-checked timings: exact oracles and the fixed "
                      "sweep")
    p_bench.add_argument("--format", choices=("text", "csv", "json"),
                         default="text", dest="output_format")
    p_bench.add_argument("--out", dest="out_path", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on first use and kept for the process."""
    return build_parser()


# --- rendering ------------------------------------------------------------


def _value_string(result: SeriesResult, as_decimal: bool, digits: int) -> str:
    value = result.value
    if isinstance(value, Fraction):
        if as_decimal:
            return FixedDecimal.from_rational(value, digits).to_decimal_string()
        numerator = int_to_decimal(value.numerator)
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{int_to_decimal(value.denominator)}"
    return value.to_decimal_string(digits)


def _result_strings(result: SeriesResult, digits: int,
                    as_decimal: bool) -> dict:
    # Bounds and errors get two extra places so a bound below 10**-digits
    # does not print as a row of zeros.
    return {
        "depth": result.depth,
        "truncation": result.truncation,
        "mode": result.mode,
        "value": _value_string(result, as_decimal, digits),
        "tail_bound": result.tail_bound.to_decimal_string(digits + 2),
        "reference": (None if result.reference is None
                      else result.reference.to_decimal_string(digits)),
        "abs_error": (None if result.abs_error is None
                      else result.abs_error.to_decimal_string(digits + 2)),
    }


def _render_results(results: list, args) -> str:
    as_decimal = getattr(args, "as_decimal", False)
    rows = [_result_strings(r, args.digits, as_decimal) for r in results]
    if args.output_format == "json":
        payload = rows[0] if len(rows) == 1 else rows
        return json.dumps(payload, indent=2) + "\n"
    if args.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)
        for row in rows:
            writer.writerow(["" if row[f] is None else str(row[f])
                             for f in RESULT_FIELDS])
        return buffer.getvalue()
    if len(rows) == 1:
        row = rows[0]
        lines = [f"{field}: {'' if row[field] is None else row[field]}"
                 for field in RESULT_FIELDS]
        return "\n".join(lines) + "\n"
    cells = [[("" if row[f] is None else str(row[f])) for f in RESULT_FIELDS]
             for row in rows]
    widths = [max(len(RESULT_FIELDS[i]), *(len(c[i]) for c in cells))
              for i in range(len(RESULT_FIELDS))]
    lines = ["  ".join(RESULT_FIELDS[i].ljust(widths[i])
                       for i in range(len(RESULT_FIELDS))).rstrip()]
    for cell in cells:
        lines.append("  ".join(cell[i].ljust(widths[i])
                               for i in range(len(RESULT_FIELDS))).rstrip())
    return "\n".join(lines) + "\n"


# --- subcommands -----------------------------------------------------------


def cmd_sum(args) -> tuple[str, int]:
    depth, truncation, digits = args.depth, args.upto, args.digits
    mode = args.mode
    if mode is None:
        mode = "exact" if truncation <= EXACT_TRUNCATION_LIMIT else "fixed"
    if (mode == "exact" and truncation > EXACT_TRUNCATION_LIMIT
            and not args.force_exact):
        raise InfeasibleError(
            "exact mode at truncation %d exceeds the limit of %d; "
            "use --mode fixed or --force-exact"
            % (truncation, EXACT_TRUNCATION_LIMIT),
            required=truncation, ceiling=EXACT_TRUNCATION_LIMIT,
        )
    if truncation > args.work_ceiling:
        raise InfeasibleError(
            "truncation %d is above the work ceiling of %d"
            % (truncation, args.work_ceiling),
            required=truncation, ceiling=args.work_ceiling,
        )
    value = partial_sum(depth, truncation, mode=mode, digits=digits)
    if truncation >= 1:
        bound = tail_bound(depth, truncation, digits)
    else:
        # Nothing summed yet: the whole series is the tail, bounded above
        # by (pi**2/6)**depth. Round up to keep the certificate sound.
        whole = basel_power(depth, digits + 10)
        bound = FixedDecimal(
            div_round_up(whole.mantissa + 1, 10**10), digits + 10, 10
        )
    ref = reference_value(depth, digits)
    if isinstance(value, Fraction):
        error = abs(
            FixedDecimal.from_rational(
                ref.as_fraction() - value, digits + 10, 10
            )
        )
    else:
        error = abs(ref - value)
    result = SeriesResult(
        depth=depth, truncation=truncation, mode=mode, value=value,
        tail_bound=bound, reference=ref, abs_error=error, digits=digits,
    )
    return _render_results([result], args), EXIT_OK


def cmd_converge(args) -> tuple[str, int]:
    result = converge(args.depth, args.digits, work_ceiling=args.work_ceiling)
    return _render_results([result], args), EXIT_OK


def cmd_table(args) -> tuple[str, int]:
    digits = args.digits
    results = []
    for depth in range(1, args.max_depth + 1):
        needed = required_truncation(depth, digits)
        truncation = min(needed, args.work_ceiling)
        value = partial_sum(depth, truncation, mode="fixed", digits=digits)
        bound = tail_bound(depth, truncation, digits)
        ref = reference_value(depth, digits)
        results.append(SeriesResult(
            depth=depth, truncation=truncation, mode="fixed", value=value,
            tail_bound=bound, reference=ref, abs_error=abs(ref - value),
            digits=digits,
        ))
    return _render_results(results, args), EXIT_OK


def cmd_verify_theorem(args) -> tuple[str, int]:
    warning = None
    if args.n_vars > PRACTICAL_VERIFY_CEILING:
        warning = (
            "warning: %d variables is above the practical ceiling of %d; "
            "the expansion has 2**%d terms and this may take a long time"
            % (args.n_vars, PRACTICAL_VERIFY_CEILING, args.n_vars)
        )
    report = verify_expansion(args.n_vars)
    code = EXIT_OK if report.passed else EXIT_MISMATCH
    if args.output_format == "json":
        payload = {
            "m": report.n_vars,
            "passed": report.passed,
            "mismatch_power": report.mismatch_power,
            "details": list(report.details),
            "warning": warning,
        }
        return json.dumps(payload, indent=2) + "\n", code
    if args.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["m", "passed", "mismatch_power", "warning"])
        writer.writerow([
            report.n_vars,
            "true" if report.passed else "false",
            "" if report.mismatch_power is None else report.mismatch_power,
            warning or "",
        ])
        return buffer.getvalue(), code
    lines = []
    if warning:
        lines.append(warning)
    lines.extend(report.details)
    lines.append(report.summary())
    return "\n".join(lines) + "\n", code


def cmd_sinc(args) -> tuple[str, int]:
    x, terms, digits = args.x, args.terms, args.digits
    if terms > args.work_ceiling:
        raise InfeasibleError(
            "truncation %d is above the work ceiling of %d"
            % (terms, args.work_ceiling),
            required=terms, ceiling=args.work_ceiling,
        )
    powers = _sinc_powers(x, digits, terms)
    product = sinc_product(x, terms, digits)
    series = sinc_series(x, powers, terms, digits)
    if abs(x) <= 2:
        taylor = sinc_taylor(x, digits)
        product_dev = abs(product - taylor).to_decimal_string(digits)
        series_dev = abs(series - taylor).to_decimal_string(digits)
        taylor_text = taylor.to_decimal_string(digits)
    else:
        taylor, taylor_text, product_dev, series_dev = None, None, None, None
    fields = {
        "x": str(x),
        "terms": terms,
        "powers": powers,
        "digits": digits,
        "product": product.to_decimal_string(digits),
        "series": series.to_decimal_string(digits),
        "taylor": taylor_text,
        "product_vs_taylor": product_dev,
        "series_vs_taylor": series_dev,
    }
    if args.output_format == "json":
        return json.dumps(fields, indent=2) + "\n", EXIT_OK
    if args.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(fields))
        writer.writerow(["" if fields[k] is None else str(fields[k])
                         for k in fields])
        return buffer.getvalue(), EXIT_OK
    lines = [f"{key}: {'' if val is None else val}"
             for key, val in fields.items()]
    return "\n".join(lines) + "\n", EXIT_OK


def _sinc_powers(x: Fraction, digits: int, terms: int) -> int:
    """Power cutoff for the sinc series: enough alternating terms that the
    first omitted one is below 10**-(digits+5), using pi < 16/5, and never
    more than the truncation `terms`, since S_j(terms) = 0 for j > terms."""
    ratio_base = (Fraction(16, 5) * abs(Fraction(x))) ** 2
    threshold = Fraction(1, 10 ** (digits + 5))
    j = 0
    term = Fraction(1)
    while j < terms:
        j += 1
        term = term * ratio_base / ((2 * j) * (2 * j + 1))
        if term < threshold:
            return j
    return terms


def cmd_bench(args) -> tuple[str, int]:
    rows, ok = bench.run_benchmark()
    code = EXIT_OK if ok else EXIT_MISMATCH
    header = ["section", "method", "depth", "truncation",
              "operations", "seconds", "status"]
    cells = [[row.section, row.method, str(row.depth), str(row.truncation),
              str(row.operations),
              "" if row.seconds is None else "%.6f" % row.seconds,
              row.status]
             for row in rows]
    if args.output_format == "json":
        payload = {
            "backend": _backend.BACKEND,
            "ok": ok,
            "rows": [dict(zip(header, cell)) for cell in cells],
        }
        return json.dumps(payload, indent=2) + "\n", code
    if args.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buffer.getvalue(), code
    widths = [max(len(header[i]), *(len(c[i]) for c in cells))
              for i in range(len(header))]
    lines = [f"active backend: {_backend.BACKEND}", ""]
    lines.append("  ".join(header[i].ljust(widths[i])
                           for i in range(len(header))).rstrip())
    for cell in cells:
        lines.append("  ".join(cell[i].ljust(widths[i])
                               for i in range(len(header))).rstrip())
    lines.append("")
    lines.append("all cross-checks passed" if ok
                 else "CROSS-CHECK MISMATCH: see rows above")
    return "\n".join(lines) + "\n", code


# --- driver ---------------------------------------------------------------


_COMMANDS = {
    "sum": cmd_sum,
    "converge": cmd_converge,
    "table": cmd_table,
    "verify-theorem": cmd_verify_theorem,
    "sinc": cmd_sinc,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args.work_ceiling = _resolve_work_ceiling(args)
        output, code = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"pipow: invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"pipow: refused: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
