"""Reference constants against independent judges.

mpmath plays the judge for every constant: it shares no code with the
binary fixed-point evaluation under test, so agreement is meaningful
evidence. Both compute pi by Chudnovsky's series, so pi itself is also
checked against Machin's arctangent relation, kept here as a pi witness
that shares neither the series nor the arithmetic.
"""

import math
import random
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from pipow import reference, series
from pipow.errors import DomainError
from pipow.exactnum import decimal_length, div_round_half_even
from pipow.reference import (
    MAX_PI_DIGITS,
    PiCache,
    REFERENCE_GUARD,
    basel_power,
    pi_digits,
    reference_value,
    sinc_taylor,
)

mp.mp.dps = 120


def mp_fraction(value) -> Fraction:
    """Exact rational image of an mpmath float (binary, hence exact)."""
    sign, man, exp, _ = mp.mpf(value)._mpf_
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


PI = mp_fraction(+mp.pi)                     # accurate to ~120 digits
PI_KNOWN_PREFIX = "3.14159265358979323846"   # textbook digits


def _arctan_inverse_scaled(inverse: int, scale: int) -> int:
    """floor-ish arctan(1/inverse) * 10**scale by the alternating series.

    Each retained term is an integer division of the previous one, so the
    result differs from the true value by at most one unit per term; the
    series is cut when a term underflows the scale.
    """
    one = 10**scale
    term = one // inverse
    total = term
    inverse_sq = inverse * inverse
    j = 1
    sign = -1
    while True:
        term //= inverse_sq
        if term == 0:
            break
        total += sign * (term // (2 * j + 1))
        sign = -sign
        j += 1
    return total


def _machin_pi_mantissa(scale: int, extra: int = 10) -> int:
    """pi * 10**scale rounded half-even, via Machin's relation
    pi = 16*arctan(1/5) - 4*arctan(1/239).

    The two arctangent series run at scale + extra digits; with a few
    hundred retained terms the combined error stays far below half a unit
    at the returned scale, so the final rounding is exact.
    """
    work = scale + extra
    a5 = _arctan_inverse_scaled(5, work)
    a239 = _arctan_inverse_scaled(239, work)
    pi_work = 16 * a5 - 4 * a239
    return div_round_half_even(pi_work, 10**extra)


def correctly_rounded(compute, scale: int) -> int:
    """round_half_even(v * 10**scale) of the value compute() returns in
    mpmath at 2*scale + 50 digits."""
    with mp.workdps(2 * scale + 50):
        sign, man, exp, _ = (+compute())._mpf_
    scaled = man * 10**scale
    if exp >= 0:
        rounded = scaled << exp
    else:
        low = scaled & ((1 << -exp) - 1)
        half = 1 << (-exp - 1)
        # The judge's own error is far below 2**-64 of a unit, so a value
        # this far from the half point rounds like the true one.
        assert abs(low - half) > half >> 63
        rounded = (scaled >> -exp) + (low > half)
    return -rounded if sign else rounded


class TestPiDigits:
    def test_known_prefix(self):
        assert pi_digits(30).to_decimal_string().startswith(PI_KNOWN_PREFIX)

    @pytest.mark.parametrize("digits", [1, 2, 10, 30, 50, 100])
    def test_value_level_accuracy(self, digits):
        fd = pi_digits(digits)
        assert fd.digits == digits
        assert fd.guard == REFERENCE_GUARD
        # Guarded mantissa is itself within one unit of true pi.
        assert abs(fd.as_fraction() - PI) <= Fraction(2, 10**fd.scale)

    def test_spec_of_ten_digit_value(self):
        # The 10-digit request is accurate at value level to 10^-10.
        fd = pi_digits(10)
        assert abs(fd.as_fraction() - PI) < Fraction(1, 10**10)

    def test_fifty_digit_rendering_is_correctly_rounded(self):
        # Half-even rendering of true pi at 50 places, derived from the
        # oracle, must equal the package's rendering.
        scaled = PI * 10**50
        rounded = round(scaled)  # banker's rounding on Fraction
        expected = f"{str(rounded)[0]}.{str(rounded)[1:]}"
        assert pi_digits(50).to_decimal_string() == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            pi_digits(0)
        with pytest.raises(DomainError):
            pi_digits(MAX_PI_DIGITS + 1)

    def test_prefix_consistency_across_requests(self):
        wide = pi_digits(80).as_fraction()
        narrow = pi_digits(15).as_fraction()
        assert abs(wide - narrow) <= Fraction(1, 10**25)  # 15+guard places


class TestMachinInternals:
    def test_alternate_guard_settings_agree(self):
        # Same mantissa from two different working margins: the final
        # rounding is insensitive to the series cutoff slack.
        assert _machin_pi_mantissa(40) == _machin_pi_mantissa(40, extra=25)
        assert _machin_pi_mantissa(60) == _machin_pi_mantissa(60, extra=30)

    def test_mantissa_matches_oracle(self):
        mantissa = _machin_pi_mantissa(60)
        assert abs(Fraction(mantissa, 10**60) - PI) <= Fraction(1, 10**60)

    @pytest.mark.parametrize("digits", [1, 50, 1000, 4300, 20000])
    def test_pi_mantissa_matches_machin(self, digits):
        assert (reference._PI_CACHE.mantissa(digits)
                == _machin_pi_mantissa(digits))


class TestPiCache:
    def test_serves_narrower_from_wider(self):
        cache = PiCache()
        wide = cache.mantissa(50)
        narrow = cache.mantissa(20)
        # Narrow value is the half-even rounding of the wide one.
        assert abs(Fraction(narrow, 10**20) - Fraction(wide, 10**50)) <= (
            Fraction(1, 2 * 10**20)
        )

    def test_growth_then_reuse(self):
        cache = PiCache()
        first = cache.mantissa(10)
        second = cache.mantissa(10)
        assert first == second

    def test_thread_safety_smoke(self):
        cache = PiCache()
        results = {}

        def worker(scale):
            results[scale] = cache.mantissa(scale)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in (10, 20, 30, 40, 50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for scale, mantissa in results.items():
            assert abs(Fraction(mantissa, 10**scale) - PI) <= (
                Fraction(2, 10**scale)
            )

    def test_growth_recomputes_pi_a_logarithmic_number_of_times(
            self, monkeypatch):
        evaluations = []
        real = reference._chudnovsky_pi_bits

        def counting(bits):
            evaluations.append(bits)
            return real(bits)

        monkeypatch.setattr(reference, "_chudnovsky_pi_bits", counting)
        cache = PiCache()
        for digits in range(10, 20001, 50):
            cache.mantissa(digits)
        # Each evaluation at least doubles the bits, from those of 10
        # digits to those of 20000.
        assert len(evaluations) <= math.ceil(
            math.log2(evaluations[-1] / evaluations[0])) + 1
        assert cache.mantissa(20000) == _machin_pi_mantissa(20000)

    def test_growth_stops_at_the_widest_first_try(self, monkeypatch):
        widths = []
        pi_64 = reference._chudnovsky_pi_bits(64)

        def recording(bits):
            # Only the widths matter here, not the low bits of pi.
            widths.append(bits)
            return pi_64 << (bits - 64)

        monkeypatch.setattr(reference, "_chudnovsky_pi_bits", recording)
        cache, cap = PiCache(), reference._PI_CAP_BITS
        for bits in (100, 101, 150, 250, cap - 70, cap - 68, cap, cap + 1):
            cache.bits(bits)
        # Doubling below the cap, the cap for a request just wider than a
        # cache near it, and exactly the width asked past the cap.
        assert widths == [100, 200, 400, cap - 70, cap, cap + 1]
        # A fixed sum at the widest digits, then one whose (pi**2/6)**11
        # needs three more places: pi at the cap, not at twice 332300 bits
        # (3.2 s).
        monkeypatch.setattr(reference, "_PI_CACHE", PiCache())
        widths.clear()
        series.sum_plan(1, 100, "fixed", 99989)
        series.sum_plan(12, 100, "fixed", 99989)
        assert widths == [332300, cap]

    def test_cap_covers_every_accepted_first_try(self):
        # A series request's chain first asks the bits of its widest
        # target, (pi**2/6)**(depth-1) at digits + 2*REFERENCE_GUARD
        # places, whose working digits add _GUARD_DIGITS and the digits of
        # 2*depth + 3 less one, and its integer digits, one more than
        # estimated; its step estimate counts the chain twice, and
        # STEP_CEILING admits fewer powers the wider they are.
        guard = reference.REFERENCE_GUARD
        widths = {}
        for digits in (1000, 10000, 50000, 99000, MAX_PI_DIGITS - guard):
            depth = 0
            while 2 * reference.pi_power_work(depth + 1, digits + guard) <= (
                    series.STEP_CEILING):
                depth += 1
            power = depth - 1
            working = (power * 9943 // 10000 + 2 - decimal_length(6**power)
                       + digits + 2 * guard + reference._GUARD_DIGITS
                       + len(str(2 * depth + 3)) - 1)
            widths[digits] = working * 3322 // 1000 + 1
        widest = widths[MAX_PI_DIGITS - guard]
        assert max(widths.values()) == widest == 332347
        assert widest <= reference._PI_CAP_BITS < widest + 64

    def test_import_computes_no_pi(self):
        src = Path(reference.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, %r)\n"
             "import pipow, pipow.cli, pipow.reference as r\n"
             "print(r._PI_CACHE._bits)" % str(src)],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.strip() == "0"


class TestReferenceValue:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 8])
    def test_against_oracle(self, depth):
        fd = reference_value(depth, 40)
        oracle = mp_fraction(+(mp.pi ** (2 * depth) / mp.factorial(2 * depth + 1)))
        assert abs(fd.as_fraction() - oracle) < Fraction(1, 10**45)

    def test_depth_one_is_basel_value(self):
        # pi**2/3! and (pi**2/6)**1 are the same number via two paths.
        a = reference_value(1, 30).as_fraction()
        b = basel_power(1, 30).as_fraction()
        assert abs(a - b) <= Fraction(2, 10**40)

    def test_domain(self):
        with pytest.raises(DomainError):
            reference_value(0, 10)
        with pytest.raises(DomainError):
            reference_value(2, 0)


class TestBaselPower:
    def test_power_zero_is_exactly_one(self):
        fd = basel_power(0, 25)
        assert fd.as_fraction() == 1

    def test_spec_ten_digit_value_level(self):
        # (pi**2/6)**2 = pi**4/36 to at least 10 places.
        fd = basel_power(2, 10)
        oracle = mp_fraction(+(mp.pi**4 / 36))
        assert abs(fd.as_fraction() - oracle) < Fraction(1, 10**10)

    @pytest.mark.parametrize("power", [1, 2, 3, 5, 7])
    def test_against_oracle(self, power):
        fd = basel_power(power, 40)
        oracle = mp_fraction(+((mp.pi**2 / 6) ** power))
        assert abs(fd.as_fraction() - oracle) < Fraction(1, 10**45)

    def test_domain(self):
        with pytest.raises(DomainError):
            basel_power(-1, 10)
        with pytest.raises(DomainError):
            basel_power(2, 0)


class TestSincTaylor:
    def test_zero_is_exactly_one(self):
        assert sinc_taylor(0, 20).as_fraction() == 1

    def test_half(self):
        # sin(pi/2)/(pi/2) = 2/pi.
        fd = sinc_taylor(Fraction(1, 2), 20)
        oracle = mp_fraction(+(2 / mp.pi))
        assert abs(fd.as_fraction() - oracle) < Fraction(1, 10**24)

    def test_twenty_digit_rendering_matches_oracle(self):
        oracle = mp_fraction(+(2 / mp.pi)) * 10**20
        expected = "0." + str(round(oracle)).rjust(20, "0")
        assert sinc_taylor(Fraction(1, 2), 20).to_decimal_string() == expected

    @pytest.mark.parametrize("x", [1, 2, -1, -2, Fraction(3, 2)])
    def test_integer_zeros_and_oracle(self, x):
        fd = sinc_taylor(x, 25)
        q = Fraction(x)
        angle = mp.pi * mp.mpmathify(q.numerator) / q.denominator
        target = mp_fraction(+(mp.sin(angle) / angle))
        assert abs(fd.as_fraction() - target) < Fraction(1, 10**28)

    def test_even_function(self):
        a = sinc_taylor(Fraction(3, 4), 25)
        b = sinc_taylor(Fraction(-3, 4), 25)
        assert a.as_fraction() == b.as_fraction()

    def test_domain(self):
        with pytest.raises(DomainError):
            sinc_taylor(Fraction(21, 10), 10)
        with pytest.raises(DomainError):
            sinc_taylor(Fraction(1, 2), 0)


def force_the_retry(monkeypatch) -> list:
    """The outcomes, in order, of every certified rounding, binary
    (_round_certified) and decimal (_round_near), with the least first
    guard of each."""
    outcomes = []
    for name in ("_round_certified", "_round_near"):
        real = getattr(reference, name)

        def recording(*args, real=real):
            outcomes.append(real(*args))
            return outcomes[-1]

        monkeypatch.setattr(reference, name, recording)
    monkeypatch.setattr(reference, "_GUARD_BITS", 1)
    monkeypatch.setattr(reference, "_GUARD_DIGITS", 0)
    return outcomes


class TestCorrectRounding:
    """Every mantissa is v * 10**(digits + guard) rounded half-even, judged
    by mpmath at more than twice the digits."""

    DIGITS = [1, 20, 500, 4297, 4300, 20000]

    @pytest.mark.parametrize("digits", DIGITS)
    def test_reference_value(self, digits):
        scale = digits + REFERENCE_GUARD
        for depth in range(1, 13):
            expected = correctly_rounded(
                lambda: mp.pi ** (2 * depth) / mp.factorial(2 * depth + 1),
                scale)
            assert reference_value(depth, digits).mantissa == expected

    @pytest.mark.parametrize("digits", DIGITS)
    def test_basel_power(self, digits):
        scale = digits + REFERENCE_GUARD
        for power in range(12):
            expected = correctly_rounded(lambda: (mp.pi**2 / 6) ** power,
                                         scale)
            assert basel_power(power, digits).mantissa == expected

    @pytest.mark.parametrize("digits", DIGITS)
    def test_pi_mantissa(self, digits):
        assert (reference._PI_CACHE.mantissa(digits)
                == correctly_rounded(lambda: mp.pi, digits))

    # One x at 20000 digits: sinc there sums about 3800 terms, and
    # mpmath takes seconds more at multiples of pi/2.
    @pytest.mark.parametrize("digits, x", [
        (digits, x) for digits in DIGITS[:-1]
        for x in (Fraction(7, 5), 2, Fraction(-1, 3))
    ] + [(20000, Fraction(7, 5))])
    def test_sinc_taylor(self, digits, x):
        q = Fraction(x)

        def value():
            theta = mp.pi * q.numerator / q.denominator
            return mp.sin(theta) / theta

        expected = correctly_rounded(value, digits + REFERENCE_GUARD)
        assert sinc_taylor(x, digits).mantissa == expected

    def test_forced_near_tie_takes_the_retry(self, monkeypatch):
        # One guard bit, or no guard place past the error factor's digits,
        # puts the error bound across the half point, so the first try
        # cannot decide and the doubled guard must.
        outcomes = force_the_retry(monkeypatch)
        scale = 500 + REFERENCE_GUARD
        cases = [
            (lambda: reference_value(3, 500),
             lambda: mp.pi**6 / mp.factorial(7)),
            (lambda: basel_power(5, 500), lambda: (mp.pi**2 / 6) ** 5),
            (lambda: sinc_taylor(Fraction(1, 3), 500),
             lambda: mp.sin(mp.pi / 3) / (mp.pi / 3)),
        ]
        for compute, judge in cases:
            outcomes.clear()
            assert compute().mantissa == correctly_rounded(judge, scale)
            assert outcomes[0] is None
            assert outcomes[-1] is not None

    def test_rounds_only_outside_the_error_bound(self):
        # value = v * 2**8 within 3 units: the half point of the last place
        # is at low bits 128, and 3 * 10**scale of slack on each side of it
        # leaves the rounding open.
        base = 5 << 8
        assert reference._round_certified(base + 131, 8, 3, 0) is None
        assert reference._round_certified(base + 125, 8, 3, 0) is None
        assert reference._round_certified(base + 132, 8, 3, 0) == 6
        assert reference._round_certified(base + 124, 8, 3, 0) == 5
        # At scale 1 the slack is 30 units and the product carries the 10.
        assert reference._round_certified(5 * 256 + 13, 8, 3, 1) is None
        assert reference._round_certified(5 * 256 + 14, 8, 1, 1) == 51
        assert reference._round_certified(-(5 << 8) - 124, 8, 3, 0) == -5

    def test_decimal_rounds_only_outside_the_error_bound(self):
        # The half point of the last of 2 places is 0.125 for 0.12|3...:
        # within the error of it the rounding stays open.
        near = reference._round_near
        assert near(Decimal("0.1249"), Decimal("0.0001"), 2) is None
        assert near(Decimal("0.1251"), Decimal("0.0001"), 2) is None
        assert near(Decimal("0.1248"), Decimal("0.0001"), 2) == Decimal(
            "0.12")
        assert near(Decimal("0.1252"), Decimal("0.0001"), 2) == Decimal(
            "0.13")
        # An exact tie waits even with no error; a value on the grid never.
        assert near(Decimal("0.125"), Decimal(0), 2) is None
        assert near(Decimal("1"), Decimal("0.004"), 2) == Decimal("1.00")
        rounded = near(Decimal("3.14159"), Decimal("1E-9"), 3)
        assert str(rounded) == "3.142" and rounded.as_tuple().exponent == -3


def round_certified_by_ten(value, bits, error, scale):
    """_round_certified as it multiplied by 10**scale and masked `bits`
    low bits, kept as the judge of the 5**scale form."""
    pow10 = 10**scale
    scaled = value * pow10
    low = scaled & ((1 << bits) - 1)
    if abs(2 * low - (1 << bits)) <= 2 * error * pow10:
        return None
    return (scaled >> bits) + (2 * low > (1 << bits))


class TestRoundCertifiedByFive:
    def test_random_values(self):
        rng = random.Random(15)
        for _ in range(3000):
            scale = rng.randrange(0, 300)
            bits = scale * 3322 // 1000 + 1 + rng.randrange(1, 80)
            value = rng.randrange(-(1 << (bits + 20)), 1 << (bits + 20))
            error = rng.choice([0, 1, rng.randrange(1 << 12)])
            assert (reference._round_certified(value, bits, error, scale)
                    == round_certified_by_ten(value, bits, error, scale))

    def test_near_the_half_point(self):
        # value * 10**scale placed at the half point of the last place,
        # then moved by up to twice the slack, so both outcomes and the
        # open (None) band around it are crossed.
        rng = random.Random(16)
        outcomes = set()
        for _ in range(400):
            scale = rng.randrange(0, 60)
            bits = scale * 3322 // 1000 + 1 + rng.randrange(1, 20)
            error = rng.randrange(0, 5)
            # value whose scaled product lies nearest the half point of
            # rounded unit m
            m = rng.randrange(1 << 40)
            centre = ((2 * m + 1) << (bits - 1)) // 10**scale
            for step in range(-3 * error - 3, 3 * error + 4):
                value = centre + step
                new = reference._round_certified(value, bits, error, scale)
                assert new == round_certified_by_ten(value, bits, error,
                                                     scale)
                outcomes.add(new is None)
        assert outcomes == {True, False}

    def test_exact_half_ties_wait(self):
        # At scale 0 a value exactly on the half point is open at any error.
        assert reference._round_certified((5 << 8) + 128, 8, 0, 0) is None
        assert round_certified_by_ten((5 << 8) + 128, 8, 0, 0) is None


def chained(depth, digits, truncation):
    """A sum plan's pair: (pi**2/6)**p at digits + 10 and the limit at
    digits, p = depth - 1, or depth at truncation 0."""
    power = depth - 1 if truncation else depth
    return reference._pi_power_ratios([
        reference._basel_target(power, digits + 10),
        *reference._limit_targets(range(depth, depth + 1), digits)]), power


class TestOneChain:
    """One chain of pi**2 powers gives what separate calls give."""

    @pytest.mark.parametrize("digits", [1, 2, 17, 100, 999, 2048, 4300])
    def test_equals_separate_calls(self, digits, monkeypatch):
        # The separate calls each start from a cold cache, so they do not
        # read the powers the chained call left in the shared one.
        for depth in range(1, 65):
            for truncation in (0, 1):
                (basel, limit), power = chained(depth, digits, truncation)
                with monkeypatch.context() as cold:
                    cold.setattr(reference, "_PI_CACHE", PiCache())
                    basel_alone = basel_power(power, digits + 10)
                    cold.setattr(reference, "_PI_CACHE", PiCache())
                    separate = (basel_alone, reference_value(depth, digits))
                assert [(v.mantissa, v.scale, v.guard)
                        for v in (basel, limit)] == [
                    (v.mantissa, v.scale, v.guard) for v in separate]

    def test_equals_separate_calls_through_the_retry(self, monkeypatch):
        expected = {(depth, digits, truncation): (
            basel_power(depth - 1 if truncation else depth,
                        digits + 10).mantissa,
            reference_value(depth, digits).mantissa)
            for depth in range(1, 9) for digits in (1, 50, 500)
            for truncation in (0, 1)}
        outcomes = force_the_retry(monkeypatch)
        for (depth, digits, truncation), pair in expected.items():
            (basel, limit), _ = chained(depth, digits, truncation)
            assert (basel.mantissa, limit.mantissa) == pair
        assert None in outcomes

    def test_one_pi_square_per_try(self, monkeypatch):
        calls = []
        real = reference._PI_CACHE._square_powers

        def counting(digits, top):
            calls.append((digits, top))
            return real(digits, top)

        monkeypatch.setattr(reference._PI_CACHE, "_square_powers", counting)
        chained(5, 300, 10)
        assert [top for _, top in calls] == [5]

    def test_one_retry_serves_every_open_target(self, monkeypatch):
        # The targets of a table of rows 1..8 at 60 digits, tried with no
        # guard place past the error factor's: several stay open, and each
        # retry forms one chain, wider than the last, for all of them.
        def targets():
            return ([reference._basel_target(depth - 1, 70)
                     for depth in range(1, 9)]
                    + reference._limit_targets(range(1, 9), 60))

        expected = [v.mantissa for v in reference._pi_power_ratios(targets())]
        chains, outcomes = [], []
        real_powers, real_round = (reference._PI_CACHE._square_powers,
                                   reference._round_near)

        def counting(digits, top):
            chains.append(digits)
            return real_powers(digits, top)

        def recording(value, error, scale):
            # Each rounding under the try of the last request for powers.
            outcomes.append((len(chains), real_round(value, error, scale)))
            return outcomes[-1][1]

        monkeypatch.setattr(reference, "_GUARD_DIGITS", 0)
        monkeypatch.setattr(reference._PI_CACHE, "_square_powers", counting)
        monkeypatch.setattr(reference, "_round_near", recording)
        values = reference._pi_power_ratios(targets())
        assert [v.mantissa for v in values] == expected
        first = [rounded for tried, rounded in outcomes if tried == 1]
        assert first.count(None) >= 2
        assert all(a < b for a, b in zip(chains, chains[1:]))
        assert None not in [rounded for tried, rounded in outcomes
                            if tried == len(chains)]


def limit_judge(depth):
    return lambda: mp.pi ** (2 * depth) / mp.factorial(2 * depth + 1)


def basel_judge(power):
    return lambda: (mp.pi**2 / 6) ** power


class TestKeptPowers:
    """PiCache keeps pi**(2k) for k up to _KEPT_POWERS as Decimals of the
    digits its width B holds; a request rounds them to its working digits
    and forms the powers past them. Every mantissa must be what a cold
    cache and mpmath give."""

    K = reference._KEPT_POWERS
    # (depth, digits) limits, asked of one cache in this order.
    ORDERS = {
        "narrower after wider": [(3, 2000), (3, 50), (2, 700), (1, 1)],
        "wider after narrower": [(2, 50), (3, 700), (2, 2000), (4, 2001)],
        "past the kept powers": [(1, 60), (K + 5, 300), (3 * K, 120),
                                 (K + 1, 60), (K, 60), (2, 400)],
    }

    @staticmethod
    def cold(compute, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(reference, "_PI_CACHE", PiCache())
            return compute().mantissa

    @pytest.mark.parametrize("order", list(ORDERS))
    def test_any_order_equals_a_cold_cache_and_mpmath(self, order,
                                                      monkeypatch):
        monkeypatch.setattr(reference, "_PI_CACHE", PiCache())
        for depth, digits in self.ORDERS[order]:
            scale = digits + REFERENCE_GUARD
            for compute, judge, at in (
                    (lambda: reference_value(depth, digits),
                     limit_judge(depth), scale),
                    (lambda: basel_power(depth - 1, digits + 10),
                     basel_judge(depth - 1), scale + 10)):
                mantissa = compute().mantissa
                assert mantissa == self.cold(compute, monkeypatch)
                assert mantissa == correctly_rounded(judge, at)

    def test_a_cache_at_the_cap_serves_every_width(self, monkeypatch):
        # A request past half the cap after one below it grows pi, and the
        # kept powers with it, to exactly _PI_CAP_BITS; the requests after
        # it round the kept powers from there.
        cache = PiCache()
        monkeypatch.setattr(reference, "_PI_CACHE", cache)
        requests = [(2, 60000), (3, MAX_PI_DIGITS - 10), (self.K + 4, 3000),
                    (1, 5)]
        for depth, digits in requests:
            mantissa = reference_value(depth, digits).mantissa
            assert mantissa == self.cold(
                lambda: reference_value(depth, digits), monkeypatch)
            assert mantissa == correctly_rounded(limit_judge(depth),
                                                 digits + REFERENCE_GUARD)
            if depth == 3:
                assert cache._bits == reference._PI_CAP_BITS

    def test_forced_retry_certifies_every_target(self, monkeypatch):
        monkeypatch.setattr(reference, "_PI_CACHE", PiCache())
        outcomes = force_the_retry(monkeypatch)
        for depth, digits in [(2, 500), (4, 40), (self.K + 3, 200), (1, 900),
                              (8, 60)]:
            values = reference._pi_power_ratios(
                [reference._basel_target(depth - 1, digits + 10),
                 *reference._limit_targets(range(1, depth + 1), digits)])
            judges = [basel_judge(depth - 1)] + [
                limit_judge(d) for d in range(1, depth + 1)]
            assert [v.mantissa for v in values] == [
                correctly_rounded(judge, value.scale)
                for judge, value in zip(judges, values)]
        assert None in outcomes

    def test_threads_sharing_a_cache_get_the_cold_values(self, monkeypatch):
        requests = [(depth, digits) for depth in (1, 2, 5, self.K + 2)
                    for digits in (30, 300, 1500)]
        expected = {request: self.cold(
            lambda: reference_value(*request), monkeypatch)
            for request in requests}
        monkeypatch.setattr(reference, "_PI_CACHE", PiCache())
        results, errors = {}, []

        def worker(order):
            try:
                for request in order:
                    results[request, tuple(order)] = reference_value(
                        *request).mantissa
            except Exception as error:  # reported below, on the main thread
                errors.append(error)

        orders = [requests, requests[::-1], requests[1::2] + requests[::2],
                  requests[::2] + requests[1::2]]
        threads = [threading.Thread(target=worker, args=(order,))
                   for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == len(orders) * len(requests)
        for (request, _), mantissa in results.items():
            assert mantissa == expected[request]

    def test_patched_pi_leaves_no_stale_powers(self, monkeypatch):
        real = reference._chudnovsky_pi_bits

        def skewed(bits):
            return real(bits) + (1 << max(bits - 40, 0))

        truth = correctly_rounded(limit_judge(3), 90)
        # A replaced cache, on a skewed pi, while the shared one holds
        # powers: they are its own, and the shared ones are untouched.
        shared = reference._PI_CACHE
        reference_value(3, 80)
        with monkeypatch.context() as patch:
            patch.setattr(reference, "_chudnovsky_pi_bits", skewed)
            patch.setattr(reference, "_PI_CACHE", PiCache())
            assert reference_value(3, 80).mantissa != truth
        assert reference._PI_CACHE is shared
        assert reference_value(3, 80).mantissa == truth
        # One cache grown on the skewed pi, then on the true one: growth
        # drops the powers formed from the skewed pi.
        cache = PiCache()
        monkeypatch.setattr(reference, "_PI_CACHE", cache)
        with monkeypatch.context() as patch:
            patch.setattr(reference, "_chudnovsky_pi_bits", skewed)
            assert reference_value(3, 80).mantissa != truth
        assert len(cache._powers) == 3
        reference_value(3, 700)
        assert reference_value(3, 80).mantissa == truth

    def test_deep_powers_equal_mpmath(self, monkeypatch):
        # Past the kept powers the first power read is formed by squaring
        # the sixteenth, at every remainder of its power by 16 and at none;
        # a sum's pair reads it and the one after it.
        # 1100 places leave the judge's 2 * scale + 50 digits room for
        # the 1081 integer digits of (pi**2/6)**5000.
        monkeypatch.setattr(reference, "_PI_CACHE", PiCache())
        for power in (17, 31, 32, 33, 47, 100, 1000, 5000):
            assert basel_power(power, 1100).mantissa == correctly_rounded(
                basel_judge(power), 1100 + REFERENCE_GUARD)
        (basel, limit), _ = chained(1000, 1100, 5)
        assert basel.mantissa == correctly_rounded(basel_judge(999),
                                                   basel.scale)
        assert limit.mantissa == correctly_rounded(limit_judge(1000),
                                                   limit.scale)

    def test_never_more_than_the_kept_powers(self, monkeypatch):
        cache = PiCache()
        monkeypatch.setattr(reference, "_PI_CACHE", cache)
        reference_value(2, 100)
        assert len(cache._powers) == 2
        kept = list(cache._powers)
        # A narrower request with no new power forms none.
        reference_value(1, 50)
        assert cache._powers == kept
        for depth in (self.K - 1, 3 * self.K, self.K + 1, 5 * self.K):
            reference_value(depth, 100)
            assert len(cache._powers) == min(depth, self.K)
        assert len(cache._powers) == self.K
        # Growth drops them, and the next request keeps only its own.
        reference_value(2, 2000)
        assert len(cache._powers) == 2
