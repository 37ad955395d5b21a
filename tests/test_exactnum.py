"""Exact-number layer: rounding, rendering, guard policy.

The rounding oracle here is deliberately independent of the module under
test: Python's round() implements banker's rounding on Fractions, and the
string oracle does schoolbook long division and rounds from the remainder.
"""

import random
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipow import exactnum
from pipow.errors import DomainError
from pipow.exactnum import (
    FixedDecimal,
    decimal_length,
    div_exact,
    div_round_half_even,
    div_round_up,
    div_to_decimal,
    guard_digits,
    int_to_decimal,
)


def oracle_decimal_string(value: Fraction, digits: int) -> str:
    """Half-even decimal rendering via long division, no shared code."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value * 10**digits
    whole, part = divmod(scaled.numerator, scaled.denominator)
    remainder = Fraction(part, scaled.denominator)
    if remainder > Fraction(1, 2) or (remainder == Fraction(1, 2) and whole % 2):
        whole += 1
    if whole == 0:
        sign = ""
    text = str(whole).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


class TestDivRoundHalfEven:
    @pytest.mark.parametrize(
        "num, den, expected",
        [
            (7, 2, 4),     # 3.5 -> even 4
            (5, 2, 2),     # 2.5 -> even 2
            (-7, 2, -4),   # -3.5 -> even -4
            (-5, 2, -2),   # -2.5 -> even -2
            (26, 10, 3),   # 2.6 -> 3
            (-26, 10, -3),
            (0, 7, 0),
            (1, 3, 0),
            (2, 3, 1),
        ],
    )
    def test_spot(self, num, den, expected):
        assert div_round_half_even(num, den) == expected

    @settings(max_examples=300, derandomize=True)
    @given(
        num=st.integers(min_value=-10**12, max_value=10**12),
        den=st.integers(min_value=1, max_value=10**9),
    )
    def test_matches_banker_rounding(self, num, den):
        # round() on Fraction is exact round-half-even: independent oracle.
        assert div_round_half_even(num, den) == round(Fraction(num, den))

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(DomainError):
            div_round_half_even(1, 0)
        with pytest.raises(DomainError):
            div_round_half_even(1, -2)


class TestDivExact:
    @staticmethod
    def cases():
        """(q, K) pairs: q = 0 and 1, K = 1, K a power of two, and q from
        far narrower than K to far wider, at random bits."""
        rng = random.Random(25)
        divisors = [1, 2, 3, 2**64, 2**4000, 2**4000 - 1]
        divisors += [rng.getrandbits(bits) | 1 << bits - 1
                     for bits in (1, 2, 31, 64, 65, 1000, 4001, 20000)]
        for divisor in divisors:
            for bits in (0, 1, 2, 30, 64, 500, 3999, 4000, 4001, 30000):
                quotient = rng.getrandbits(bits) | 1 << bits - 1 if bits else 0
                yield quotient, divisor
            yield 1, divisor

    def test_matches_floor_division(self):
        cases = 0
        for quotient, divisor in self.cases():
            assert div_exact(quotient * divisor, divisor) == quotient == (
                quotient * divisor // divisor), (quotient, divisor)
            cases += 1
        assert cases == 14 * 11

    @settings(max_examples=300, derandomize=True)
    @given(quotient=st.integers(min_value=0, max_value=2**3000),
           divisor=st.integers(min_value=1, max_value=2**3000))
    def test_matches_floor_division_on_any_sizes(self, quotient, divisor):
        assert div_exact(quotient * divisor, divisor) == quotient


class TestDivRoundUp:
    @settings(max_examples=200, derandomize=True)
    @given(
        num=st.integers(min_value=-10**12, max_value=10**12),
        den=st.integers(min_value=1, max_value=10**9),
    )
    def test_matches_ceiling(self, num, den):
        import math

        assert div_round_up(num, den) == math.ceil(Fraction(num, den))


class TestGuardDigits:
    @pytest.mark.parametrize(
        "count, expected",
        [(0, 10), (1, 11), (9, 11), (10, 12), (99, 12), (100, 13),
         (10**6, 17), (10**8, 19)],
    )
    def test_policy(self, count, expected):
        assert guard_digits(count) == expected

    def test_matches_log_formula(self):
        # 10 + ceil(log10(count + 1)), checked by pure integer comparison.
        for count in [1, 5, 9, 10, 11, 99, 100, 101, 10**5, 10**9]:
            g = guard_digits(count)
            assert 10 ** (g - 11) <= count < 10 ** (g - 10)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            guard_digits(-1)

    def test_counts_past_the_int_str_limit(self):
        # A truncation of 4300+ digits times the depth: the cost estimate
        # of a deep converge request takes its guard.
        assert guard_digits(20000 * 10**4320) == 10 + 4325


class TestFixedDecimalConstruction:
    def test_from_rational_seven_eighteenths(self):
        fd = FixedDecimal.from_rational(Fraction(7, 18), 6)
        assert fd.to_decimal_string() == "0.388889"
        assert fd.to_decimal_string() == oracle_decimal_string(Fraction(7, 18), 6)

    def test_from_rational_one_ninth(self):
        fd = FixedDecimal.from_rational(Fraction(1, 9), 6)
        assert fd.to_decimal_string() == "0.111111"

    def test_guard_split(self):
        fd = FixedDecimal.from_rational(Fraction(1, 3), 10, guard=5)
        assert fd.scale == 15
        assert fd.guard == 5
        assert fd.digits == 10

    def test_validation(self):
        with pytest.raises(DomainError):
            FixedDecimal(1, -1)
        with pytest.raises(DomainError):
            FixedDecimal(1, 5, guard=6)
        with pytest.raises(DomainError):
            FixedDecimal(1, 5, guard=-1)

    def test_immutable(self):
        fd = FixedDecimal(1, 2)
        with pytest.raises(AttributeError):
            fd.mantissa = 5


class TestFixedDecimalRendering:
    @pytest.mark.parametrize(
        "value, digits, expected",
        [
            (Fraction(1, 4), 2, "0.25"),
            (Fraction(1, 8), 2, "0.12"),   # 0.125 tie -> even
            (Fraction(3, 8), 2, "0.38"),   # 0.375 tie -> even
            (Fraction(-1, 8), 2, "-0.12"),
            (Fraction(5, 2), 0, "2"),      # 2.5 tie -> even
            (Fraction(7, 2), 0, "4"),
            (Fraction(12345, 1), 3, "12345.000"),
            (Fraction(0), 4, "0.0000"),
            (Fraction(-7, 18), 6, "-0.388889"),
        ],
    )
    def test_against_long_division_oracle(self, value, digits, expected):
        assert oracle_decimal_string(value, digits) == expected
        fd = FixedDecimal.from_rational(value, digits + 4, guard=4)
        assert fd.to_decimal_string(digits) == expected

    @settings(max_examples=300, derandomize=True)
    @given(
        numerator=st.integers(min_value=-10**9, max_value=10**9),
        denominator=st.integers(min_value=1, max_value=10**6),
        digits=st.integers(min_value=0, max_value=12),
    )
    def test_rendering_matches_oracle(self, numerator, denominator, digits):
        value = Fraction(numerator, denominator)
        fd = FixedDecimal.from_rational(value, digits)
        assert fd.to_decimal_string(digits) == oracle_decimal_string(value, digits)

    @settings(max_examples=200, derandomize=True)
    @given(
        mantissa=st.integers(min_value=-10**15, max_value=10**15),
        digits=st.integers(min_value=0, max_value=10),
    )
    def test_exactly_representable_round_trip(self, mantissa, digits):
        value = Fraction(mantissa, 10**digits)
        fd = FixedDecimal.from_rational(value, digits)
        assert fd.as_fraction() == value
        assert Fraction(fd.to_decimal_string(digits)) == value

    @settings(max_examples=150, derandomize=True)
    @given(
        numerator=st.integers(min_value=-10**9, max_value=10**9),
        denominator=st.integers(min_value=1, max_value=10**6),
        digits=st.sampled_from([10, 20]),
        guard=st.sampled_from([0, 5]),
    )
    def test_display_within_one_ulp_after_guard_pipeline(
        self, numerator, denominator, digits, guard
    ):
        # Value -> digits+guard storage -> digits display: the double
        # rounding stays within one unit in the displayed place.
        value = Fraction(numerator, denominator)
        fd = FixedDecimal.from_rational(value, digits, guard=guard)
        shown = Fraction(fd.to_decimal_string(digits))
        assert abs(shown - value) <= Fraction(1, 10**digits)

    def test_display_digit_count_errors(self):
        fd = FixedDecimal.from_rational(Fraction(1, 3), 5)
        with pytest.raises(DomainError):
            fd.to_decimal_string(6)
        with pytest.raises(DomainError):
            fd.to_decimal_string(-1)


@contextmanager
def int_str_limit(digits: int):
    """CPython's int<->str digit limit set to `digits` (0: none) for a block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestDecimalLength:
    @pytest.mark.parametrize("k", [*range(0, 40), 300, 1233, 4299, 4300,
                                   4301, 5000, 12345])
    def test_matches_str_at_powers_of_ten(self, k):
        with int_str_limit(0):
            for value in (10**k - 1, 10**k, 10**k + 1):
                assert decimal_length(value) == len(str(value))

    @given(st.integers(min_value=0, max_value=2**20000))
    @settings(max_examples=300, deadline=None)
    def test_matches_str(self, value):
        with int_str_limit(0):
            assert decimal_length(value) == len(str(value))


class TestIntToDecimal:
    """Rendering past CPython's int->str digit limit (4300 by default)."""

    @pytest.mark.parametrize("digit_count", [1, 2, 4299, 4300, 4301, 9000, 30001])
    def test_matches_str(self, digit_count):
        top = 10**digit_count
        for value in (0, top // 10, top - 1, top // 7, -(top // 3)):
            with int_str_limit(0):
                expected = str(value)
            assert int_to_decimal(value) == expected

    def test_honors_a_lowered_limit(self):
        value = 7**2000  # 1691 digits
        expected = str(value)
        with int_str_limit(640):
            assert int_to_decimal(value) == expected

    @pytest.mark.parametrize("sign", [1, -1])
    def test_fixed_rendering_beyond_the_limit(self, sign):
        # 5000 places of 1/7 repeat 142857; the 5001st digit (2) rounds down.
        expected = "0." + ("142857" * 834)[:5000]
        fd = FixedDecimal.from_rational(Fraction(sign, 7), 5000, guard=3)
        assert fd.to_decimal_string() == ("-" if sign < 0 else "") + expected


def split_cases():
    """Values around every cut of the split rendering: lengths next to
    SPLIT_DIGITS and to each 2**k up to 2**15, the powers of ten beside
    them, and values whose low part, below a cut, starts with zeros."""
    lengths = {999, 1000, 1001}
    for k in range(1, 16):
        lengths |= {2**k - 1, 2**k, 2**k + 1}
    values = [0]
    for n in sorted(lengths):
        top = 10**n
        values += [top // 10 + 1, top // 7, top - 1, top, top + 1,
                   top // 3 * 10 ** (n // 2) + 1, top // 9 * 10 ** (n // 2)]
    for k in range(9, 16):
        # Cut at 10**(2**k): the low 2**k digits are 0...0 then 5...5.
        values.append((10**2**k + 7) * 10**2**k + 10**(2**k - 40) // 9 * 5)
    return values


class TestSplitRendering:
    """int_to_decimal against str with the limit lifted, at and around
    each cut of the ladder."""

    def test_equals_str(self):
        # Negatives only below 5000 digits: the sign takes one path.
        values = split_cases()
        values += [-v for v in values if v < 10**5000]
        with int_str_limit(0):
            expected = [str(v) for v in values]
        assert [int_to_decimal(v) for v in values] == expected

    def test_equals_str_under_a_lowered_limit(self):
        values = [v for v in split_cases() if v < 10**5000]
        saved = sys.get_int_max_str_digits()
        with int_str_limit(0):
            expected = [str(v) for v in values]
        with int_str_limit(640):
            assert [int_to_decimal(v) for v in values] == expected
        assert sys.get_int_max_str_digits() == saved

    def test_ladder_holds_one_power_per_step(self):
        int_to_decimal(10**20000 + 1)
        ladder = exactnum._TEN_POWERS
        assert all(ladder[k] == 10**2**k for k in range(len(ladder)))


def int_path(mantissa: int, scale: int, display: int, up=False) -> str:
    """The rendering FixedDecimal had before it held a Decimal: integer
    rounding of the mantissa, then int_to_decimal, kept as the judge."""
    divisor = 10 ** (scale - display)
    rounded = (div_round_up(mantissa, divisor) if up
               else div_round_half_even(mantissa, divisor))
    sign = "-" if rounded < 0 else ""
    digits = int_to_decimal(abs(rounded))
    if display == 0:
        return sign + digits
    digits = digits.rjust(display + 1, "0")
    return f"{sign}{digits[:-display]}.{digits[-display:]}"


class TestDecimalRenderer:
    """quantize and format against the integer path, on mantissas from
    hypothesis and on the edges: zero, negatives, values that round to
    zero, no places shown, and scales past the int-str digit limit."""

    @settings(max_examples=400, derandomize=True)
    @given(mantissa=st.integers(min_value=-10**40, max_value=10**40),
           scale=st.integers(min_value=0, max_value=45),
           data=st.data())
    def test_matches_the_int_path(self, mantissa, scale, data):
        display = data.draw(st.integers(min_value=0, max_value=scale))
        fixed = FixedDecimal(mantissa, scale)
        assert fixed.to_decimal_string(display) == int_path(
            mantissa, scale, display)
        assert fixed.to_decimal_string(display, "ROUND_CEILING") == (
            int_path(mantissa, scale, display, up=True))

    @pytest.mark.parametrize("mantissa, scale, display, expected", [
        (0, 0, 0, "0"),
        (0, 5, 3, "0.000"),
        (-4, 1, 0, "0"),        # -0.4 rounds to zero: never "-0"
        (-5, 1, 0, "0"),        # -0.5 ties to the even zero
        (-15, 1, 0, "-2"),
        (-49, 3, 1, "0.0"),
        (-51, 3, 1, "-0.1"),
        (12345, 2, 0, "123"),
        (12355, 2, 1, "123.6"),
        (7, 0, 0, "7"),
    ])
    def test_edges(self, mantissa, scale, display, expected):
        assert int_path(mantissa, scale, display) == expected
        assert FixedDecimal(mantissa, scale).to_decimal_string(
            display) == expected

    def test_rounding_up_to_zero_is_unsigned(self):
        assert FixedDecimal(-4, 1).to_decimal_string(0, "ROUND_CEILING") == (
            "0")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_past_the_int_str_limit(self, sign):
        # Under the default limit of 4300 digits, mantissas of 5000 and
        # 9000 digits render at scales of 4400 and 8990 places.
        assert sys.get_int_max_str_digits() == 4300
        rng = random.Random(28)
        for length, scale in ((5000, 4400), (9000, 8990)):
            mantissa = sign * rng.randrange(10 ** (length - 1), 10**length)
            fixed = FixedDecimal(mantissa, scale, guard=10)
            assert fixed.mantissa == mantissa
            for display in (0, 1, scale - 10, scale):
                assert fixed.to_decimal_string(display) == int_path(
                    mantissa, scale, display)

    def test_subtraction_and_abs_stay_exact_past_28_digits(self):
        # The thread's default context would round these to 28 digits.
        a = FixedDecimal(10**60 + 1, 60)
        b = FixedDecimal(-(10**59), 61)
        assert (a - b).mantissa == (10**60 + 1) * 10 + 10**59
        assert abs(b - a).mantissa == (a - b).mantissa
        assert abs(b).to_decimal_string(61) == "0.01" + "0" * 59


class TestToInt:
    """to_int against int() on either side of SPLIT_DIGITS, at every cut
    of the split, and past the int-str digit limit."""

    @settings(max_examples=200, derandomize=True)
    @given(value=st.integers(min_value=-10**2500, max_value=10**2500))
    def test_matches_int(self, value):
        assert exactnum.to_int(exactnum.to_decimal(value)) == value

    def test_edges(self):
        rng = random.Random(28)
        values = [0, 1, -1, 10**exactnum.SPLIT_DIGITS,
                  10**exactnum.SPLIT_DIGITS - 1, 10**(2 * 1024),
                  -(10**9000 + 7)]
        values += [rng.randrange(10**(n - 1), 10**n)
                   for n in (1001, 2047, 2048, 2049, 4301, 9000)]
        for value in values:
            assert exactnum.to_int(exactnum.to_decimal(value)) == value
        # An integral value written with a positive exponent.
        assert exactnum.to_int(exactnum.to_decimal(123, -1500)) == (
            123 * 10**1500)


def binary_quotient(numerator: int, denominator: int, scale: int) -> tuple:
    """The binary half-even rounding of numerator * 10**scale / denominator,
    then int_to_decimal, kept as the judge: sign, digits and exponent."""
    mantissa = div_round_half_even(numerator * 10**scale, denominator)
    return Decimal("%sE-%d" % (int_to_decimal(mantissa), scale)).as_tuple()


class TestDivToDecimal:
    """div_to_decimal against the binary rounding, on either side of
    D < 10**scale: hypothesis operands, forced ties, zero and negative
    numerators, scale 0, quotients of 1 and more, and operands past the
    int-str digit limit."""

    @settings(max_examples=400, derandomize=True)
    @given(numerator=st.integers(min_value=-10**70, max_value=10**70),
           scale=st.integers(min_value=0, max_value=60),
           data=st.data())
    def test_matches_the_binary_rounding(self, numerator, scale, data):
        below = scale > 0 and data.draw(st.booleans())
        denominator = data.draw(
            st.integers(min_value=1, max_value=10**scale - 1) if below
            else st.integers(min_value=10**scale, max_value=10**(scale + 30)))
        assert div_to_decimal(numerator, denominator, scale).as_tuple() == (
            binary_quotient(numerator, denominator, scale))

    @pytest.mark.parametrize("scale, odd", [
        (2, 1), (2, 3), (2, 7), (3, 7), (7, 9), (40, 1), (40, 10**9 + 7)])
    def test_ties_go_to_the_even_quotient(self, scale, odd):
        # D = 2**(scale+1) * odd < 10**scale and numerator = odd * b for an
        # odd b: the scaled quotient is b * 5**scale / 2, a half, whose
        # floor is odd or even with b.
        denominator = 2**(scale + 1) * odd
        assert denominator < 10**scale
        parities = set()
        for b in (1, 3, 5, 7, 10**20 + 1, 10**20 + 3):
            numerator = odd * b
            assert 2 * (numerator * 10**scale % denominator) == denominator
            parities.add((b * 5**scale - 1) // 2 % 2)
            for signed in (numerator, -numerator):
                assert div_to_decimal(signed, denominator, scale).as_tuple(
                ) == binary_quotient(signed, denominator, scale)
        assert parities == {0, 1}

    @pytest.mark.parametrize("numerator, denominator, scale, expected", [
        (5, 2, 0, "2"), (7, 2, 0, "4"), (-5, 2, 0, "-2"), (-7, 2, 0, "-4"),
        (1, 8, 2, "0.12"), (3, 8, 2, "0.38"), (-1, 8, 2, "-0.12"),
        (-3, 8, 2, "-0.38"), (0, 7, 0, "0"), (0, 7, 5, "0.00000"),
        (0, 10**9, 5, "0.00000"), (-1, 3, 1, "-0.3"), (-1, 30, 1, "0.0"),
        (10**40 + 7, 3, 20, "3" * 39 + "5." + "6" * 19 + "7"),
        (22, 7, 0, "3"), (22, 7, 6, "3.142857")])
    def test_edges(self, numerator, denominator, scale, expected):
        got = div_to_decimal(numerator, denominator, scale)
        assert format(got, "f") == expected
        assert got.as_tuple() == binary_quotient(numerator, denominator,
                                                 scale)

    def test_past_the_int_str_limit(self):
        # Under the default limit of 4300 digits: 5000-digit operands over
        # a D below 10**scale (6000 places) and above it (3000), and a
        # 9000-digit quotient over a 3000-digit D.
        assert sys.get_int_max_str_digits() == 4300
        rng = random.Random(29)
        for sign in (1, -1):
            for length, scale, d_length in ((5000, 6000, 5000),
                                            (5000, 3000, 5000),
                                            (5000, 7000, 3000)):
                numerator = sign * rng.randrange(10**(length - 1),
                                                 10**length)
                denominator = rng.randrange(10**(d_length - 1),
                                            10**d_length)
                assert div_to_decimal(numerator, denominator, scale
                                      ).as_tuple() == binary_quotient(
                    numerator, denominator, scale)

    def test_rejects_nonpositive_denominator(self):
        for denominator in (0, -3):
            with pytest.raises(DomainError):
                div_to_decimal(1, denominator, 5)


class TestFixedDecimalArithmetic:
    def test_aligned_sub_exact(self):
        a = FixedDecimal.from_rational(Fraction(1, 8), 6)
        b = FixedDecimal.from_rational(Fraction(3, 4), 6)
        assert (b - a).as_fraction() == b.as_fraction() - a.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()

    def test_mixed_scale_sub_aligns_exactly(self):
        a = FixedDecimal(125, 3, guard=1)    # 0.125
        b = FixedDecimal(2500, 6, guard=2)   # 0.0025
        difference = a - b
        assert (difference.scale, difference.guard) == (6, 4)
        assert difference.as_fraction() == Fraction(1225, 10**4)

    def test_abs(self):
        a = FixedDecimal.from_rational(Fraction(-1, 4), 4)
        assert abs(a).as_fraction() == Fraction(1, 4)
        assert abs(FixedDecimal(5, 2)).mantissa == 5


class TestFixedDecimalComparison:
    def test_cross_scale_equality(self):
        assert FixedDecimal(25, 2).as_fraction() == (
            FixedDecimal(2500, 4).as_fraction())
        assert FixedDecimal(25, 2).as_fraction() == Fraction(1, 4)
        assert FixedDecimal(25, 2).as_fraction() != (
            FixedDecimal(26, 2).as_fraction())
