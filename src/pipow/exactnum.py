"""Exact rationals and guarded fixed-point decimals.

Two number representations carry every value in this package. The stdlib
`fractions.Fraction` (always stored reduced) backs exact mode, where results
are bit-for-bit reproducible and comparisons are zero-tolerance.
`FixedDecimal` backs fixed mode: a value mantissa * 10**-scale held as one
`decimal.Decimal`, carrying `guard` extra digits beyond the precision the
caller asked for, with every lossy operation rounding half to even.

Every Decimal operation in the package runs in an explicit context, never
the thread's 28-digit default (which `Decimal.scaleb`, `abs()` and `-x`
would use, rounding silently), and is one of two kinds. It is exact, in
EXACT, whose precision and exponents are libmpdec's widest and which
traps Inexact, so that an operation meant to be exact raises rather than
rounds; or it is a rounding that a certificate counts: to the places
shown (quantize in ROUNDING, half-even, or up where a bound is printed),
or to a stated number of significant digits (`working`), whose error the
reference bounds in `reference._pi_power_ratios` and the ceilings in
`series._basel_ceiling` account for. A binary integer reaches a Decimal
exactly, through to_decimal.

Binary floating point is never used to hold a value; floats appear nowhere
in this module.
"""

from __future__ import annotations

import functools
import sys
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_DOWN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
)
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "FixedDecimal",
    "decimal_length",
    "div_exact",
    "div_round_half_even",
    "div_round_up",
    "div_to_decimal",
    "guard_digits",
    "int_to_decimal",
]

RationalLike = int | Fraction

# Decimal length above which int_to_decimal splits a value in two. CPython
# 3.11's int->str is quadratic with a larger constant than divmod: on a
# 2-vCPU Xeon, str took 15.5 / 62 / 246 / 1571 us at 1000 / 2000 / 4000 /
# 10**4 digits and the split with this cut 16.8 / 56 / 196 / 1094 us; cuts
# of 700 to 1400 came within 5% of it from 1300 digits on.
SPLIT_DIGITS = 1000
# 10**(2**k) at index k, grown by squaring on first use and kept.
_TEN_POWERS = [10]
# Contexts handed to Decimal operations, never set as a thread's context:
# ROUNDING rounds half-even unless told otherwise, and EXACT raises
# Inexact where an operation would round.
ROUNDING = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX,
                   Emin=MIN_EMIN,
                   traps=[InvalidOperation, DivisionByZero, Overflow])
EXACT = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX,
                Emin=MIN_EMIN,
                traps=[InvalidOperation, DivisionByZero, Overflow, Inexact])


@functools.lru_cache(maxsize=1024)
def unit(places: int, digit: int = 1) -> Decimal:
    """digit * 10**-places, exactly."""
    return Decimal((0, (digit,), -places))


@functools.lru_cache(maxsize=64)
def working(digits: int, rounding: str = ROUND_HALF_EVEN) -> Context:
    """A context rounding by `rounding` to `digits` significant digits,
    shared by every caller that asks the same, so never changed."""
    context = ROUNDING.copy()
    context.prec = digits
    context.rounding = rounding
    return context


def div_round_half_even(numerator: int, denominator: int) -> int:
    """Nearest integer to numerator/denominator, ties to even.

    The denominator must be positive; the numerator may be negative (the
    result is then the half-even rounding of the negative quotient, so the
    operation is symmetric about zero).
    """
    if denominator <= 0:
        raise DomainError("division requires a positive denominator")
    quotient, remainder = divmod(numerator, denominator)
    twice = 2 * remainder
    if twice > denominator or (twice == denominator and quotient & 1):
        quotient += 1
    return quotient


def div_exact(numerator: int, divisor: int) -> int:
    """numerator // divisor for a divisor that divides a numerator >= 0,
    from the top bits alone (Krandick & Jebelean, "Bidirectional exact
    integer division", J. Symbolic Comput. 21, 1996).

    The quotient q has at most b = len(numerator) - len(divisor) + 1 bits
    (len the bit length). Cut s = 2*len(divisor) - len(numerator) - 2 low
    bits from both: with r the bits cut from the divisor, numerator >> s
    is q*(divisor >> s) + (q*r >> s), and q*r >> s < q < 2**b <=
    divisor >> s, which keeps b + 1 bits, so the floor is q. That division
    costs about b**2 where the whole one costs b*len(divisor); for s <= 0
    it is the whole one.
    """
    shift = 2 * divisor.bit_length() - numerator.bit_length() - 2
    if shift <= 0 or not numerator:
        return numerator // divisor
    return (numerator >> shift) // (divisor >> shift)


def div_round_up(numerator: int, denominator: int) -> int:
    """Ceiling of numerator/denominator for a positive denominator."""
    if denominator <= 0:
        raise DomainError("division requires a positive denominator")
    return -((-numerator) // denominator)


def decimal_length(value: int) -> int:
    """len(str(value)) for value >= 0, with no int->str conversion and so
    none of its digit limit: at least 2**(b-1) for b bits, the value has
    at least (b-1)*0.30102999 + 1 digits, and each comparison with the
    next power of ten adds one."""
    digits = max(0, value.bit_length() - 1) * 30102999 // 10**8 + 1
    while value >= 10**digits:
        digits += 1
    return digits


def guard_digits(operation_count: int) -> int:
    """Guard-digit budget for a computation of the given operation count.

    Each fixed-point operation loses at most half a unit in the last
    carried place, so a run of `operation_count` operations stays well
    inside one unit at ten fewer digits than `10 + decimal_length(count)`
    (which equals 10 + ceil(log10(count + 1)) for positive counts).
    """
    if operation_count < 0:
        raise DomainError("operation count must be nonnegative")
    if operation_count == 0:
        return 10
    return 10 + decimal_length(operation_count)


def int_to_decimal(value: int) -> str:
    """Decimal digits of an integer of any size, equal to str(value).

    Plain str() up to SPLIT_DIGITS digits, if CPython's int->str digit
    limit (sys.get_int_max_str_digits(), 4300 by default) allows it;
    above, divide-and-conquer radix conversion (Brent & Zimmermann,
    Modern Computer Arithmetic, 2010, section 1.7): one divmod by
    10**(2**k) from a ladder kept for the process, 2**k at most half the
    digit count, each part rendered the same way and the low one padded
    with zeros to 2**k digits. No process-wide limit has to be lifted.
    """
    if value < 0:
        return "-" + int_to_decimal(-value)
    # value < 2**bits, so it has at most bits*log10(2) + 1 < bits*0.30103 + 1
    # decimal digits, and as value >= 2**(bits-1), at least bound - 1 below
    # 10**8 bits: more than the 2**k <= bound/2 of the cut, so the high part
    # is never 0.
    bound = value.bit_length() * 30103 // 100000 + 1
    limit = sys.get_int_max_str_digits()
    if bound <= SPLIT_DIGITS and (limit == 0 or bound <= limit):
        return str(value)
    k = (bound // 2).bit_length() - 1
    high, low = divmod(value, _ten_power(k))
    return int_to_decimal(high) + int_to_decimal(low).rjust(1 << k, "0")


def _ten_power(k: int) -> int:
    """10**(2**k), from the ladder kept for the process."""
    while len(_TEN_POWERS) <= k:
        _TEN_POWERS.append(_TEN_POWERS[-1] ** 2)
    return _TEN_POWERS[k]


def to_decimal(value: int, scale: int = 0) -> Decimal:
    """value * 10**-scale as a Decimal, exactly.

    libmpdec converts an int in time quadratic in its length, faster than
    int_to_decimal and a string up to SPLIT_DIGITS digits (0.4 against
    0.9 us at 40 digits, 16 against 19 us at 1000) and slower past them
    (109 against 91 us at 2400), so past them the string is parsed.
    """
    if value.bit_length() * 30103 // 100000 < SPLIT_DIGITS:
        decimal = Decimal(value)
        return EXACT.scaleb(decimal, -scale) if scale else decimal
    return Decimal("%sE-%d" % (int_to_decimal(value), scale))


def div_to_decimal(numerator: int, denominator: int, scale: int) -> Decimal:
    """numerator/denominator rounded half-even at 10**-scale, as a Decimal
    with exponent -scale: to_decimal(div_round_half_even(numerator *
    10**scale, denominator), scale), for a positive denominator.

    Whichever side is shorter is converted from binary: below 10**scale
    the numerator and the denominator, divided once in EXACT, with the
    quotient's parity read by a remainder by 2 (int() of it would be
    quadratic); else the quotient of the binary rounding. 10**scale is
    formed only where the denominator's bit length b leaves the comparison
    open: 2**b <= 10**scale for b <= 3.3219 * scale.
    """
    if denominator <= 0:
        raise DomainError("division requires a positive denominator")
    if denominator.bit_length() * 10000 > scale * 33219:
        one = 10**scale
        if denominator >= one:
            return to_decimal(div_round_half_even(numerator * one,
                                                  denominator), scale)
    divisor = to_decimal(denominator)
    quotient, remainder = EXACT.divmod(
        EXACT.scaleb(to_decimal(numerator), scale), divisor)
    # The quotient truncates towards zero and the remainder takes the
    # numerator's sign, so |numerator| is rounded and the sign carried back;
    # a nonzero numerator has |quotient| >= 1 here, so no -0 is formed.
    twice = EXACT.add(remainder, remainder).copy_abs()
    if twice > divisor or (twice == divisor
                           and EXACT.remainder(quotient, 2)):
        quotient = EXACT.add(quotient, -1 if numerator < 0 else 1)
    return EXACT.scaleb(quotient, -scale)


def to_int(value: Decimal) -> int:
    """int(value) for an integral Decimal, exactly.

    libmpdec's own conversion is quadratic in the length and slower than
    the split past SPLIT_DIGITS digits (268 against 171 us at 2400, 0.45 s
    against 36 ms at 99000), so above them the value is split as
    int_to_decimal splits an int, run backwards: high = value // 10**(2**k)
    and low = value - high * 10**(2**k), both exact and linear in decimal,
    joined by one product with the kept 10**(2**k).
    """
    if value.is_signed():
        return -to_int(value.copy_negate())
    bound = value.adjusted() + 1
    if bound <= SPLIT_DIGITS or not value:
        return int(value)
    k = (bound // 2).bit_length() - 1
    high = EXACT.scaleb(value, -(1 << k)).to_integral_value(ROUND_DOWN,
                                                           EXACT)
    low = EXACT.subtract(value, EXACT.scaleb(high, 1 << k))
    return to_int(high) * _ten_power(k) + to_int(low)


class FixedDecimal:
    """Fixed-point decimal value ``mantissa * 10**-scale``.

    `scale` counts the fractional digits carried internally; `guard` of
    those are safety digits beyond the precision the caller requested, so
    the displayed precision is ``scale - guard`` digits. The value is one
    Decimal with exponent -scale, formed from the integer mantissa by
    to_decimal, or handed over as such by _of. Instances are
    immutable. Subtraction is exact; rendering rounds half to even.
    """

    __slots__ = ("decimal", "scale", "guard")

    decimal: Decimal
    scale: int
    guard: int

    def __init__(self, mantissa: int, scale: int, guard: int = 0):
        if scale < 0:
            raise DomainError("scale must be nonnegative")
        if guard < 0 or guard > scale:
            raise DomainError("guard digits must satisfy 0 <= guard <= scale")
        _set_slots(self, to_decimal(mantissa, scale), scale, guard)

    @classmethod
    def _of(cls, value: Decimal, scale: int, guard: int) -> "FixedDecimal":
        """The instance holding `value`, a Decimal with exponent -scale."""
        fixed = object.__new__(cls)
        _set_slots(fixed, value, scale, guard)
        return fixed

    def __setattr__(self, name, value):
        raise AttributeError("FixedDecimal is immutable")

    @classmethod
    def from_rational(
        cls, value: RationalLike, digits: int, guard: int = 0
    ) -> "FixedDecimal":
        """Round value half-even to digits + guard fractional digits."""
        if digits < 0:
            raise DomainError("digit count must be nonnegative")
        q = Fraction(value)
        scale = digits + guard
        mantissa = div_round_half_even(q.numerator * 10**scale, q.denominator)
        return cls(mantissa, scale, guard)

    @property
    def mantissa(self) -> int:
        """value * 10**scale, an integer."""
        return to_int(EXACT.scaleb(self.decimal, self.scale))

    @property
    def digits(self) -> int:
        """Fractional digits of requested (non-guard) precision."""
        return self.scale - self.guard

    def as_fraction(self) -> Fraction:
        return Fraction(self.decimal)

    def __sub__(self, other) -> "FixedDecimal":
        """Exact difference at the wider scale, keeping the wider guard."""
        if not isinstance(other, FixedDecimal):
            return NotImplemented
        scale = max(self.scale, other.scale)
        guard = max(self.guard + scale - self.scale,
                    other.guard + scale - other.scale)
        return FixedDecimal._of(EXACT.subtract(self.decimal, other.decimal),
                                scale, guard)

    def __abs__(self) -> "FixedDecimal":
        return FixedDecimal._of(self.decimal.copy_abs(), self.scale,
                                self.guard)

    def to_decimal_string(self, display_digits: int | None = None,
                          rounding: str = ROUND_HALF_EVEN) -> str:
        """Plain decimal string with exactly display_digits fractional
        digits (default: the non-guard precision), rounded half to even,
        or by another decimal rounding mode such as ROUND_CEILING.

        One quantize and one format, each linear in the digits. Never uses
        exponent notation; a zero integer part renders as "0", and a value
        that rounds to zero as "0", never "-0".
        """
        if display_digits is None:
            display_digits = self.digits
        if display_digits < 0:
            raise DomainError("display digit count must be nonnegative")
        if display_digits > self.scale:
            raise DomainError(
                "cannot display %d fractional digits from a value carrying %d"
                % (display_digits, self.scale)
            )
        rounded = self.decimal.quantize(unit(display_digits), rounding,
                                        ROUNDING)
        return format(rounded if rounded else rounded.copy_abs(), "f")

    def __repr__(self):
        return (
            f"FixedDecimal({self.to_decimal_string(self.scale)!r},"
            f" guard={self.guard})"
        )


def _set_slots(fixed: FixedDecimal, value: Decimal, scale: int,
               guard: int) -> None:
    """Fill a new instance's slots, past FixedDecimal.__setattr__."""
    _SET_DECIMAL(fixed, value)
    _SET_SCALE(fixed, scale)
    _SET_GUARD(fixed, guard)


_SET_DECIMAL = FixedDecimal.decimal.__set__
_SET_SCALE = FixedDecimal.scale.__set__
_SET_GUARD = FixedDecimal.guard.__set__
