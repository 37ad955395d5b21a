"""Exact rationals and guarded fixed-point decimals.

Two number representations carry every value in this package. The stdlib
`fractions.Fraction` (always stored reduced) backs exact mode, where results
are bit-for-bit reproducible and comparisons are zero-tolerance.
`FixedDecimal` backs fixed mode: a big-integer mantissa scaled by a power of
ten, carrying `guard` extra digits beyond the precision the caller asked
for, with every lossy operation rounding half to even.

Binary floating point is never used to hold a value; floats appear nowhere
in this module.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "FixedDecimal",
    "decimal_length",
    "div_exact",
    "div_round_half_even",
    "div_round_up",
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
    while len(_TEN_POWERS) <= k:
        _TEN_POWERS.append(_TEN_POWERS[-1] ** 2)
    high, low = divmod(value, _TEN_POWERS[k])
    return int_to_decimal(high) + int_to_decimal(low).rjust(1 << k, "0")


class FixedDecimal:
    """Fixed-point decimal value ``mantissa * 10**-scale``.

    `scale` counts the fractional digits carried internally; `guard` of
    those are safety digits beyond the precision the caller requested, so
    the displayed precision is ``scale - guard`` digits. Instances are
    immutable. Subtraction is exact; rendering rounds half to even.
    """

    __slots__ = ("mantissa", "scale", "guard")

    mantissa: int
    scale: int
    guard: int

    def __init__(self, mantissa: int, scale: int, guard: int = 0):
        if scale < 0:
            raise DomainError("scale must be nonnegative")
        if guard < 0 or guard > scale:
            raise DomainError("guard digits must satisfy 0 <= guard <= scale")
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "guard", guard)

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
    def digits(self) -> int:
        """Fractional digits of requested (non-guard) precision."""
        return self.scale - self.guard

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 10**self.scale)

    def __sub__(self, other) -> "FixedDecimal":
        """Exact difference at the wider scale, keeping the wider guard."""
        if not isinstance(other, FixedDecimal):
            return NotImplemented
        scale = max(self.scale, other.scale)
        guard = max(self.guard + scale - self.scale,
                    other.guard + scale - other.scale)
        return FixedDecimal(self.mantissa * 10 ** (scale - self.scale)
                            - other.mantissa * 10 ** (scale - other.scale),
                            scale, guard)

    def __abs__(self) -> "FixedDecimal":
        return FixedDecimal(abs(self.mantissa), self.scale, self.guard)

    def to_decimal_string(self, display_digits: int | None = None) -> str:
        """Plain decimal string with exactly display_digits fractional
        digits (default: the non-guard precision), rounded half to even.

        Never uses exponent notation; a zero integer part renders as "0".
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
        mantissa = div_round_half_even(
            self.mantissa, 10 ** (self.scale - display_digits)
        )
        sign = "-" if mantissa < 0 else ""
        digits_str = int_to_decimal(abs(mantissa))
        if display_digits == 0:
            return sign + digits_str
        digits_str = digits_str.rjust(display_digits + 1, "0")
        whole, frac = digits_str[:-display_digits], digits_str[-display_digits:]
        return f"{sign}{whole}.{frac}"

    def __repr__(self):
        return (
            f"FixedDecimal({self.to_decimal_string(self.scale)!r},"
            f" guard={self.guard})"
        )
