"""pipow command line.

Subcommands: sum, converge, table, verify-theorem, sinc, bench. Output is
deterministic for a given command line (benchmark timings excepted) in all
three formats (text, csv, json).

Each series command plans its request in `series` (sum_plan,
converged_plan, sinc_plan), which refuses it there, then runs the plan and
renders the result; no costing happens here.

Exit codes: 0 success, 1 verification mismatch, 2 request refused before
any work (its estimated work is above a ceiling, series.STEP_CEILING for
sum, converge, table and sinc), 3 invalid arguments, domain errors or
an --out file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from decimal import ROUND_CEILING
from fractions import Fraction

from .errors import DomainError, InfeasibleError
from .exactnum import FixedDecimal, int_to_decimal
from .reference import MAX_PI_DIGITS, REFERENCE_GUARD, sinc_taylor
from .series import (
    EXACT_TRUNCATION_LIMIT,
    SeriesResult,
    converged_plan,
    series_results,
    sinc_plan,
    sinc_product,
    sinc_series,
    sum_plan,
)

__all__ = ["EXIT_INFEASIBLE", "EXIT_MISMATCH", "EXIT_OK", "EXIT_USAGE",
           "build_parser", "entrypoint", "main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3

# The series commands judge their output against reference constants at
# digits + REFERENCE_GUARD places, so the guard comes out of the pi budget.
MAX_SERIES_DIGITS = MAX_PI_DIGITS - REFERENCE_GUARD

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
    p_sum.add_argument("--as-decimal", action="store_true",
                       help="render exact rational output as a decimal")

    p_conv = sub.add_parser(
        "converge", help="drive the truncation until the tail bound "
                         "drops below 10**-digits")
    p_conv.add_argument("--depth", type=_positive_int, required=True)

    p_table = sub.add_parser(
        "table", help="one converged row per depth 1..max-depth")
    p_table.add_argument("--max-depth", type=_positive_int, required=True)

    p_verify = sub.add_parser(
        "verify-theorem",
        help="mechanically verify the product expansion against the "
             "symmetric polynomials for m variables")
    p_verify.add_argument("--m", type=_nonnegative_int, required=True,
                          dest="n_vars", help="number of variables")

    p_sinc = sub.add_parser(
        "sinc", help="compare the product and series forms of "
                     "sin(pi*x)/(pi*x) at a rational x")
    p_sinc.add_argument("--x", type=_rational, required=True,
                        help="rational argument, 'p' or 'p/q'")
    p_sinc.add_argument("--terms", type=_nonnegative_int, default=100,
                        help="product factors / series truncation "
                             "(default %(default)s)")

    sub.add_parser(
        "bench", help="cross-checked timings: exact oracles and the fixed "
                      "sweep")

    # Shared options, added after each command's own so --help lists them
    # last.
    for p, default in ((p_sum, 20), (p_conv, 10), (p_table, 20),
                       (p_sinc, 20)):
        p.add_argument("--digits", type=_series_digits, default=default,
                       help="requested decimal precision "
                            "(default %(default)s)")
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text", dest="output_format",
                       help="output format (default %(default)s)")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write output to this file instead of stdout")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on first use and kept for the process."""
    return build_parser()


@functools.cache
def _plain_commands() -> dict:
    """For each command of _parser(): its actions by option string, its
    namespace's defaults and its required dests, read off the parser once;
    None for a command holding an action other than help, a one-value
    store or a store_true flag, which _plain_args does not model."""
    subparsers = next(action for action in _parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    commands = {}
    for name, command in subparsers.choices.items():
        options, defaults, required = {}, {subparsers.dest: name}, set()
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not action.option_strings or not (
                    type(action) is argparse._StoreTrueAction
                    or type(action) is argparse._StoreAction
                    and action.nargs is None):
                options = None
                break
            options.update(dict.fromkeys(action.option_strings, action))
            defaults[action.dest] = action.default
            if action.required:
                required.add(action.dest)
        commands[name] = (None if options is None
                          else (options, defaults, required))
    return commands


def _plain_args(argv) -> argparse.Namespace | None:
    """The namespace _parser().parse_args(argv) returns, for a plain
    command line: a known command, then its own options, each spelled in
    full and given once, as `--name value` (a value not starting with
    '-') or `--name=value`, a flag bare, every value valid for its type
    and choices, every required option present. None for any other line
    (help, an error, an abbreviation, a repeat, '--', a stray token),
    which argparse then parses: it stays the one definition of the
    command line, its help and its error messages."""
    rules = _plain_commands().get(argv[0]) if argv else None
    if rules is None:
        return None
    options, defaults, required = rules
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, text = token.partition("=")
        action = options.get(name)
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:
            if equals:
                return None
            values[action.dest] = action.const
            continue
        if not equals:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values})


# --- rendering ------------------------------------------------------------


def _cell(value) -> str:
    """One csv or text cell: None is empty, a bool is true or false."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_line(cells: list) -> str:
    """One csv line of `cells`, as CPython 3.11's csv.writer with
    lineterminator="\n" and QUOTE_MINIMAL writes it: a cell holding `,`,
    `"` or a newline is quoted, each `"` doubled; a carriage return stays
    bare; a line whose only cell is empty is `""`."""
    if cells == [""]:
        return '""\n'
    return ",".join('"%s"' % cell.replace('"', '""')
                    if "," in cell or '"' in cell or "\n" in cell else cell
                    for cell in cells) + "\n"


def _table(records: list) -> list:
    """A header line and one line per record, in aligned columns."""
    header = list(records[0])
    rows = [header] + [[_cell(r[key]) for key in header] for r in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return ["  ".join(cell.ljust(width)
                      for cell, width in zip(row, widths)).rstrip()
            for row in rows]


def _render(records: list, output_format: str, payload=None,
            lines=None) -> str:
    """A command's output from its records, dicts with the same keys in
    the same order.

    json prints `payload`, by default the one record or the list of them;
    csv a header and one row per record; text the `lines`, by default
    `key: value` lines for one record and _table for several.
    """
    if output_format == "json":
        import json

        if payload is None:
            payload = records[0] if len(records) == 1 else records
        return json.dumps(payload, indent=2) + "\n"
    if output_format == "csv":
        rows = [list(records[0])] + [[_cell(v) for v in r.values()]
                                     for r in records]
        return "".join(map(_csv_line, rows))
    if lines is None:
        lines = ([f"{key}: {_cell(value)}" for key, value in records[0].items()]
                 if len(records) == 1 else _table(records))
    return "\n".join(lines) + "\n"


def _bound_text(bound: FixedDecimal, places: int) -> str:
    """bound rounded up, not half-even, at `places` places, so that the
    printed number still bounds what bound does."""
    return bound.to_decimal_string(places, ROUND_CEILING)


def _series_record(result: SeriesResult, args) -> dict:
    digits = args.digits
    value = result.value
    if not isinstance(value, Fraction):
        value_text = value.to_decimal_string(digits)
    elif getattr(args, "as_decimal", False):
        value_text = FixedDecimal.from_rational(
            value, digits).to_decimal_string()
    elif value.denominator == 1:
        value_text = int_to_decimal(value.numerator)
    else:
        value_text = (f"{int_to_decimal(value.numerator)}/"
                      f"{int_to_decimal(value.denominator)}")
    # Bounds and errors get two extra places so a bound below 10**-digits
    # does not print as a row of zeros; the bound is rounded up.
    return {
        "depth": result.depth,
        "truncation": result.truncation,
        "mode": result.mode,
        "value": value_text,
        "tail_bound": _bound_text(result.tail_bound, digits + 2),
        "reference": result.reference.to_decimal_string(digits),
        "abs_error": result.abs_error.to_decimal_string(digits + 2),
    }


def _render_series(results: list, args) -> str:
    return _render([_series_record(r, args) for r in results],
                   args.output_format)


# --- subcommands -----------------------------------------------------------


def cmd_sum(args) -> tuple[str, int]:
    plan = sum_plan(args.depth, args.upto, args.mode, args.digits,
                    "sum --depth %d --upto %d --digits %d"
                    % (args.depth, args.upto, args.digits))
    return _render_series(series_results(plan, args.digits), args), EXIT_OK


def _render_converged(args, depths: range, request: str) -> str:
    """The fixed rows at required_truncation(depth, digits), all planned
    (and refused) before any is computed."""
    plan = converged_plan(depths, args.digits,
                          request + " --digits %d" % args.digits)
    return _render_series(series_results(plan, args.digits), args)


def cmd_converge(args) -> tuple[str, int]:
    return _render_converged(args, range(args.depth, args.depth + 1),
                             "converge --depth %d" % args.depth), EXIT_OK


def cmd_table(args) -> tuple[str, int]:
    return _render_converged(args, range(1, args.max_depth + 1),
                             "table --max-depth %d" % args.max_depth), EXIT_OK


def cmd_verify_theorem(args) -> tuple[str, int]:
    from . import symmetric

    warning = None
    if args.n_vars > symmetric.PRACTICAL_VERIFY_CEILING:
        warning = (
            "warning: %d variables is above the practical ceiling of %d; "
            "the expansion has 2**%d terms and this may take a long time"
            % (args.n_vars, symmetric.PRACTICAL_VERIFY_CEILING, args.n_vars)
        )
    report = symmetric.verify_expansion(args.n_vars)
    payload = {
        "m": report.n_vars,
        "passed": report.passed,
        "mismatch_power": report.mismatch_power,
        "details": list(report.details),
        "warning": warning,
    }
    record = {key: value for key, value in payload.items()
              if key != "details"}
    lines = [warning] if warning else []
    lines += [*report.details, report.summary()]
    code = EXIT_OK if report.passed else EXIT_MISMATCH
    return _render([record], args.output_format, payload, lines), code


def cmd_sinc(args) -> tuple[str, int]:
    x, terms, digits = args.x, args.terms, args.digits
    powers = sinc_plan(x, terms, digits, "sinc --x %s --terms %d --digits %d"
                       % (x, terms, digits))
    product = sinc_product(x, terms, digits)
    series = sinc_series(x, powers, terms, digits)
    if abs(x) <= 2:
        taylor = sinc_taylor(x, digits)
        taylor_text = taylor.to_decimal_string(digits)
        product_dev = abs(product - taylor).to_decimal_string(digits)
        series_dev = abs(series - taylor).to_decimal_string(digits)
    else:
        taylor_text = product_dev = series_dev = None
    record = {
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
    return _render([record], args.output_format), EXIT_OK


def cmd_bench(args) -> tuple[str, int]:
    from . import KERNEL_BACKEND, bench

    rows, ok = bench.run_benchmark()
    records = []
    for row in rows:
        record = {key: str(value) for key, value in row._asdict().items()}
        record["seconds"] = "" if row.seconds is None else "%.6f" % row.seconds
        records.append(record)
    payload = {"backend": KERNEL_BACKEND, "ok": ok, "rows": records}
    lines = [f"active backend: {KERNEL_BACKEND}", "",
             *_table(records), "",
             "all cross-checks passed" if ok
             else "CROSS-CHECK MISMATCH: see rows above"]
    code = EXIT_OK if ok else EXIT_MISMATCH
    return _render(records, args.output_format, payload, lines), code


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
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        output, code = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"pipow: invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"pipow: refused: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.out_path:
        try:
            with open(args.out_path, "w", encoding="utf-8") as handle:
                handle.write(output)
        except OSError as exc:
            print(f"pipow: cannot write --out {args.out_path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(output)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
