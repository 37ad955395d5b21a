"""High-precision reference constants, certified in binary and in decimal.

pi comes from the Chudnovsky series

    1/pi = 12 * sum_k (-1)**k (6k)! (13591409 + 545140134 k)
                / ((3k)! (k!)**3 640320**(3k + 3/2)),

summed by binary splitting (Haible & Papanikolaou, "Fast multiprecision
evaluation of series of rational numbers", ANTS 1998) into one integer
fraction, times one isqrt(10005 * 4**B): pi * 2**B costs a few balanced
big products and one big division. The shared PiCache keeps that mantissa
in bits, grows it geometrically up to the widest pi a command line asks,
and serves narrower requests by a shift. Beside it, it keeps the first
_KEPT_POWERS powers of pi**2 as decimal.Decimal values at the same width,
formed from its pi once each time it grows, so that a process serving
many requests forms each power once and not once a request.

pi itself and sinc(pi*x) by its Taylor series are assembled in binary
fixed point at w bits, where each rescale is a shift, together with an
integer bound on the absolute error in units of 2**-w. _round_certified
turns that into the decimal mantissa at digits plus ten guard places: one
multiplication by the power of five, then half-even rounding by shift and
mask. The ratios pi**(2n)/(2n+1)! and (pi**2/6)**p are formed in decimal
from the kept powers, in working precision fitted to each, with a bound
on the relative error; _round_near rounds them on the decimal grid. Both
round only when the discarded part lies farther than the error bound from
the half point, the one place where rounding to nearest can go either
way; otherwise the value is assembled again with twice the guard (Ziv,
"Fast evaluation of elementary mathematical functions with correctly
rounded last bit", ACM TOMS 1991), so every returned value is the
correctly rounded one. Every Decimal operation runs in an explicit
context and is exact, in exactnum.EXACT, which traps Inexact, or it is a
rounding the certificate counts: to a stated number of significant
digits, within _pi_power_ratios's bound, or the last one to the places,
which _round_near certifies.
_pi_power_ratios serves a sum's limit and its tail bound's (pi**2/6)**p
together, each with its own bound; a retry asks the powers once for all
of them. These values serve as the judge for everything the series code
produces, which is why they carry their own guard digits rather than
borrowing the caller's.
"""

from __future__ import annotations

import _thread
import math
from decimal import Decimal
from fractions import Fraction
from itertools import islice

from .errors import DomainError
from .exactnum import (EXACT, ROUNDING, FixedDecimal, to_decimal, unit,
                       working)

__all__ = [
    "MAX_PI_DIGITS",
    "PiCache",
    "REFERENCE_GUARD",
    "basel_power",
    "pi_digits",
    "pi_power_work",
    "reference_value",
    "sinc_taylor",
]

REFERENCE_GUARD = 10
MAX_PI_DIGITS = 10**5

# Bits carried beyond 10**scale on the first try of pi and sinc. Any
# positive value gives the correctly rounded result through the retry; 64
# keeps the chance of a retry below about 2**-45.
_GUARD_BITS = 64
# Places carried beyond 10**scale on the first try of _pi_power_ratios,
# besides the digits of its error factor. Any value >= 0 gives the
# correctly rounded result through the retry; 20 keeps the chance of a
# retry below about 2**-50 a target.
_GUARD_DIGITS = 20
# The widest pi a command line asks on its first try: the bits of the
# working digits of (pi**2/6)**p at MAX_PI_DIGITS + REFERENCE_GUARD places
# (_pi_power_ratios), that is those places, _GUARD_DIGITS, and at most
# _GUARD_DIGITS more for the digits of the error factor 2p + 3 and the
# integer digits of (pi**2/6)**p: 15 at p = 52, the most series.STEP_CEILING
# admits there (pi_power_work). pi alone asks fewer. PiCache doubles no
# further.
_PI_CAP_BITS = ((MAX_PI_DIGITS + REFERENCE_GUARD + 2 * _GUARD_DIGITS)
                * 3322 // 1000 + 1)
# Powers of pi**2 PiCache keeps beside pi: the worst case is _KEPT_POWERS
# Decimals of the 100049 digits _PI_CAP_BITS holds, about 0.66 MB at 16. A
# sum needs powers depth - 1 and depth, and converge and table every power
# up to their depth, so 16 covers every depth the benchmark's workloads ask
# (at most 6) with room; a deeper request runs the chain on from the
# sixteenth.
_KEPT_POWERS = 16


def _chudnovsky_split(a: int, b: int) -> tuple:
    """(P, Q, T) of the Chudnovsky terms a..b-1, a >= 1, by binary
    splitting: T/Q is their sum divided by the 13591409 of term 0."""
    if b - a == 1:
        p = -(6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        # 640320**3 / 24 = 10939058860032000
        return p, 10939058860032000 * a**3, p * (13591409 + 545140134 * a)
    middle = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, middle)
    p2, q2, t2 = _chudnovsky_split(middle, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _chudnovsky_pi_bits(bits: int) -> int:
    """pi * 2**bits within one unit.

    pi = 426880 sqrt(10005) Q / (13591409 Q + T) over terms 0..n-1, worked
    at 16 extra bits. The terms alternate and each is below 2**-45 of the
    one before (the ratio tends to 1728/640320**3, about 2**-47.1), so
    n = work//45 + 2 terms leave a relative error below 2**-(work+45). The
    floored isqrt costs under 0.04 units and the floored division under
    one, so the result is within 1.1 units at `work` and within one unit
    after the rounding shift.
    """
    work = bits + 16
    _, q, t = _chudnovsky_split(1, work // 45 + 2)
    root = math.isqrt(10005 << (2 * work))
    pi_work = 426880 * root * q // (13591409 * q + t)
    return (pi_work + (1 << 15)) >> 16


def _chain(acc: Decimal, square: Decimal, context):
    """acc * square rounded by `context`, then the same with that result,
    and so on: from acc = pi**(2k) and square = pi**2, the powers k + 1,
    k + 2, ... of pi**2 (see _pi_power_ratios for their bound)."""
    while True:
        acc = context.multiply(acc, square)
        yield acc


def _raised(base: Decimal, exponent: int, context) -> Decimal:
    """base**exponent, exponent >= 1, by squaring and multiplying, each
    product rounded by `context`."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else context.multiply(result,
                                                                  base)
        exponent >>= 1
        if not exponent:
            return result
        base = context.multiply(base, base)


class PiCache:
    """pi * 2**bits within one unit, for the widest bits asked so far, and
    the first _KEPT_POWERS powers of pi**2 in decimal at that width.

    A single instance is shared across the package; a lock serializes
    growth so concurrent callers never duplicate the evaluation. Growth at
    least doubles the stored bits up to _PI_CAP_BITS, so ever wider
    requests in any order cost O(log) evaluations, and a request a few
    bits wider than a cache near the cap computes pi at the cap, not at
    twice the cache. Narrower requests are served by a rounding right
    shift, which stays within one unit. Nothing is computed before the
    first request.

    The powers pi**(2k), k = 1, 2, ..., are Decimals of the P =
    floor(B * 0.30102999) significant digits the cache's B bits hold,
    formed from its pi under the same lock, on demand and at most
    _KEPT_POWERS of them, and are dropped whenever pi grows: they always
    come from the pi the instance holds, and a replaced cache brings its
    own.
    """

    def __init__(self):
        self._lock = _thread.allocate_lock()
        self._bits = 0
        self._value = 3  # pi within one unit at 2**0
        self._powers = []  # pi**(2k) as Decimals for k = 1..len(_powers)

    def _grow(self, bits: int) -> None:
        """Hold pi at `bits` or more; the caller holds the lock."""
        if bits > self._bits:
            self._bits = max(bits, min(2 * self._bits, _PI_CAP_BITS))
            self._value = _chudnovsky_pi_bits(self._bits)
            self._powers = []

    def bits(self, bits: int) -> int:
        with self._lock:
            self._grow(bits)
            shift = self._bits - bits
            # Rounded half up, within half a unit; no change at shift 0.
            return (self._value + ((1 << shift) >> 1)) >> shift

    def _square_powers(self, digits: int, top: int) -> list:
        """pi**(2k) for k = 1..min(top, _KEPT_POWERS), top >= 1, as
        Decimals of P >= digits significant digits: the kept powers, and
        those still missing formed by _chain at P.

        The cache grows to the bits of `digits`, at least digits * 3.322,
        so that P >= digits, as 3.322 * 0.30102999 > 1. pi**2 is taken to
        P exact places from p = self._value, 10**P <= 2**B, as
        floor(p**2 * 10**P / 4**B) = (p**2 * 5**P) >> (2B - P): one
        conversion to decimal."""
        with self._lock:
            self._grow(digits * 3322 // 1000 + 1)
            kept, width = self._powers, self._bits
            if len(kept) < min(top, _KEPT_POWERS):
                places = width * 30102999 // 10**8
                context = working(places)
                if not kept:
                    kept.append(to_decimal(
                        (self._value**2 * 5**places) >> (2 * width - places),
                        places))
                kept += islice(_chain(kept[-1], kept[0], context),
                               min(top, _KEPT_POWERS) - len(kept))
            return kept[:top]

    def mantissa(self, scale: int) -> int:
        """pi * 10**scale, correctly rounded half-even."""
        if scale < 0:
            raise DomainError("scale must be nonnegative")
        return _certified(lambda bits: [(self.bits(bits), 1)], [scale],
                          _GUARD_BITS)[0]


_PI_CACHE = PiCache()
_ONE = Decimal(1)


def _round_certified(value: int, bits: int, error: int, scale: int):
    """round_half_even(v * 10**scale) for every v with
    |value - v * 2**bits| <= error, or None when those v round apart;
    bits >= scale.

    value * 10**scale lies within error * 10**scale of v * 10**scale *
    2**bits. Rounding to nearest changes only across a half point, so when
    the discarded low `bits` bits are farther than that from one half,
    value and v round alike and the shift-and-mask rounding of value is
    the answer. As 10**scale = 5**scale * 2**scale, value * 5**scale
    shifted by bits - scale gives the same quotient, and its low bits and
    the slack error * 5**scale are those of the decimal product divided
    by 2**scale, so the test and the result are the same with a multiplier
    a third shorter. An exact value on the decimal grid, such as 1 or 0,
    has its low bits near 0 or the full shift, far from one half, so it
    never waits on a retry.
    """
    pow5 = 5**scale
    shift = bits - scale
    scaled = value * pow5
    low = scaled & ((1 << shift) - 1)
    if abs(2 * low - (1 << shift)) <= 2 * error * pow5:
        return None
    return (scaled >> shift) + (2 * low > (1 << shift))


def _certified(approximate, scales: list, guard: int) -> list:
    """The correctly rounded mantissas at 10**-scale of each of `scales`.

    approximate(bits) returns one (value, error) per scale, for its
    constant v with |value - v * 2**bits| <= error. It is called at the
    bits of 10**max(scales) plus `guard`, and again for all of them with
    the guard doubled while _round_certified leaves any open.
    """
    while True:
        # 3322/1000 > log2(10), so 2**bits > 10**scale * 2**guard.
        bits = max(scales) * 3322 // 1000 + 1 + guard
        mantissas = [_round_certified(value, bits, error, scale)
                     for (value, error), scale
                     in zip(approximate(bits), scales)]
        if None not in mantissas:
            return mantissas
        guard *= 2


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_PI_DIGITS:
        raise DomainError("digit count must be between 1 and %d, got %d"
                          % (MAX_PI_DIGITS, digits))


def pi_digits(digits: int) -> FixedDecimal:
    """pi to the requested fractional digits plus ten guard digits."""
    _check_digits(digits)
    scale = digits + REFERENCE_GUARD
    return FixedDecimal(_PI_CACHE.mantissa(scale), scale, REFERENCE_GUARD)


def _round_near(value: Decimal, error: Decimal, scale: int):
    """v rounded half-even to `scale` places for every v with
    |value - v| <= error, or None when those v round apart.

    Rounding to nearest changes only across a half point, so when value
    lies farther than error from the half point of its last place, every
    such v rounds as value does. The remainder and the sum are exact, so
    the test is; a value on the grid, such as 1, never waits on a retry.
    """
    rounded = ROUNDING.quantize(value, unit(scale))
    remainder = EXACT.subtract(value, rounded).copy_abs()
    if EXACT.add(remainder, error) >= unit(scale + 1, 5):
        return None
    return rounded


def _pi_power_ratios(targets: list) -> list:
    """pi**(2*power) / divisor at 10**-scale, correctly rounded half-even,
    for each (power, divisor, scale) of `targets` (_limit_targets,
    _basel_target), from one set of powers of pi**2.

    Write eta(W) = 10**(1 - W): a rounding to W significant digits moves a
    value by at most a relative eta(W) / 2, and a product rounded to W is
    within the sum of its factors' relative errors plus that, to first
    order. The kept powers c_k (PiCache) are at P digits, eps = eta(P):
    with p = pi * 2**B within one unit and 2**-B <= 10**-P, p**2 / 4**B
    is within (2 pi + 2) 10**-P of pi**2, and c_1, that floored to P
    places, within 9.3 * 10**-P, a relative 0.095 eps; each c_k =
    c_(k-1) * c_1 rounded adds at most (0.095 + 0.5) eps, so c_k is within
    a relative k * eps of pi**(2k) while k * eps is small. Past the K kept
    powers, the powers are products at W' <= P digits of kept ones rounded
    to W', each c_j then within j eps + eta(W') / 2 <= 1.5 j eta(W'): the
    first power read past K, or K + 1, by squaring c_K and one more
    product (_raised), those after it by _chain. Counted with each factor
    as often as it enters, c_k is built from kept factors whose powers sum
    to k by at most k - 1 roundings, so it is within 1.5 k eta(W') +
    (k - 1) eta(W') / 2; every c_k is within 2 k eta(W') for W <= W'.

    A target of power k rounds c_k to its working digits W <= W' and
    divides by the divisor at W, each half a unit, so its result x is
    within (2k + 1) eta(W) v of v, plus products of these terms, which
    W >= 2 * width + 3 keeps below eta(W) v; width is the digit count of
    2 * top + 3, top the largest power. Then, as |x| < 10**(adjusted(x) +
    1),

        |x - v| <= (2k + 2) eta(W) v <= (2k + 3) eta(W) |x|
                <  10**(width + adjusted(x) + 2 - W),

    the bound handed to _round_near. W is adjusted(c_k) -
    adjusted(divisor) + scale + guard - 1, at least 2 * width + 3, so
    that x carries about guard places past 10**-scale; W' and the P asked
    of PiCache are the greatest upper estimate of W, from
    adjusted(pi**(2k)) <= floor(0.9943 k), one more for a rounding up to a
    power of ten. The first guard is _GUARD_DIGITS + width, so the bound
    is below 10**(4 - _GUARD_DIGITS) of the last place; at
    _GUARD_DIGITS = 0 it is 100 such places or more for every target whose
    W is not raised to the least, and a near tie then always takes the
    retry. _round_near rounds every target from one set of powers, and
    the powers are asked again at the doubled guard for all of them while
    any stays open.
    """
    low, top = min(targets)[0], max(targets)[0]
    width = len(str(2 * top + 3))
    least, guard = 2 * width + 3, _GUARD_DIGITS + width
    # Per target: its power, divisor and scale, and its working digits
    # less adjusted(c_k) and guard; beside it that upper estimate of
    # adjusted(c_k) added.
    plans, estimates = [], []
    for power, divisor, scale in targets:
        divisor = to_decimal(divisor)
        offset = scale - divisor.adjusted() - 1
        plans.append((power, divisor, scale, offset))
        estimates.append(power * 9943 // 10000 + 1 + offset)
    while True:
        at = {0: _ONE}  # pi**(2*power); pi**0 needs no pi
        if top:
            kept = _PI_CACHE._square_powers(
                max(max(estimates) + guard, least), top)
            at.update(enumerate(kept, 1))
            if top > len(kept):
                context = working(max(max(
                    estimate for (power, *_), estimate
                    in zip(plans, estimates) if power > len(kept))
                    + guard, least))
                # The first power read past the kept ones by squaring from
                # the top kept one, the rest by the chain.
                first = max(low, len(kept) + 1)
                times, rest = divmod(first - 1, len(kept))
                acc = _raised(context.plus(kept[-1]), times, context)
                if rest:
                    acc = context.multiply(acc, context.plus(kept[rest - 1]))
                at.update(zip(range(first, top + 1), _chain(
                    acc, context.plus(kept[0]), context)))
        values, open_targets = [], 0
        for power, divisor, scale, offset in plans:
            power = at[power]
            digits = power.adjusted() + offset + guard
            if digits < least:
                digits = least
            context = working(digits)
            value = context.divide(context.plus(power), divisor)
            # 10**(width + adjusted(x) + 2 - W) >= (2k + 3) * 10**(...)
            value = _round_near(value, unit(
                digits - value.adjusted() - 2 - width), scale)
            open_targets += value is None
            values.append(value)
        if not open_targets:
            return [FixedDecimal._of(value, scale, REFERENCE_GUARD)
                    for value, (_, _, scale) in zip(values, targets)]
        guard *= 2


def _limit_targets(depths: range, digits: int) -> list:
    """The _pi_power_ratios targets of reference_value(depth, digits) for
    each depth of `depths`, each (2*depth + 1)! formed from the last."""
    if depths[0] < 1:
        raise DomainError("depth must be a positive integer")
    _check_digits(digits)
    factorial = math.factorial(2 * depths[0] - 1)
    targets = []
    for depth in depths:
        factorial *= 2 * depth * (2 * depth + 1)
        targets.append((depth, factorial, digits + REFERENCE_GUARD))
    return targets


def _basel_target(power: int, digits: int) -> tuple:
    """The _pi_power_ratios target of basel_power(power, digits)."""
    if power < 0:
        raise DomainError("power must be nonnegative")
    _check_digits(digits)
    return power, 6**power, digits + REFERENCE_GUARD


def reference_value(depth: int, digits: int) -> FixedDecimal:
    """pi**(2*depth) / (2*depth + 1)! at digits plus ten guard digits,
    correctly rounded half-even (see _pi_power_ratios for the bound).

    This is the exact limit of the depth-nested reciprocal-square sum, so
    it is the value partial sums are judged against.
    """
    return _pi_power_ratios(_limit_targets(range(depth, depth + 1),
                                           digits))[0]


def basel_power(power: int, digits: int) -> FixedDecimal:
    """(pi**2 / 6)**power at digits plus ten guard digits, correctly
    rounded half-even (see _pi_power_ratios for the bound).

    power 0 gives exactly 1; pi**2/6 itself is the depth-1 series limit and
    the base of the comparison bound on deeper sums.
    """
    return _pi_power_ratios([_basel_target(power, digits)])[0]


def pi_power_work(power: int, digits: int) -> int:
    """Estimated digit steps of reference_value or basel_power at (power,
    digits), pi cached: `power` products of the square at w working bits
    into an accumulator growing 3.3 bits a product, each its mean length
    times sqrt(w) / 400, as when every power was one binary product. A
    step took 24 to 54 ns then (powers 1 to 10**4, 5 to 5000 digits).

    The estimate is unchanged and still bounds the work from above: the
    powers are now Decimals of about as many digits as w bits hold, that
    do not grow with the power, and a request makes at most `power`
    products: none for a power it finds kept, and past the kept ones
    about 2 log2(power / 16) to reach the first power it reads and one
    for each power after it. As with pi, which the estimate leaves out,
    the kept powers are formed once for each width the cache grows to, at
    most _KEPT_POWERS products at that width; a command line serves one
    request from a cache as wide as that request, so there they are these
    products at w. A step now took 0.1 to 60 ns from 10**5 steps on, and
    up to 150 ns below them, where at most 16 kept powers are formed at a
    few thousand digits and a libmpdec product costs about seven times
    CPython's at the same width (0.5 ms against 69 us at 4300 digits, so
    8 ms for all 16)."""
    bits = (digits + REFERENCE_GUARD) * 3322 // 1000 + 1 + _GUARD_BITS + power
    return power * (bits + 33 * power // 20) * math.isqrt(bits) // 400


def sinc_taylor(x, digits: int) -> FixedDecimal:
    """sin(pi*x)/(pi*x) for rational |x| <= 2, by the Taylor series of sin,
    correctly rounded half-even at digits plus ten guard digits.

    Defined as exactly 1 at x = 0 (the removable singularity). At w bits,
    theta**2 = (pi*x)**2 is floored from the cached pi, within
    4 * (2*pi + 1) + 1 < 32 units for |x| <= 2, and each term
    theta**(2j)/(2j+1)! comes from the one before by a floored product
    with theta**2 and a floored division by 2j*(2j+1). Each term's error
    bound is carried along in integers from the previous term's value and
    bound. The sum stops at the first term that floors to 0: the true term
    there is below its bound, and the terms past it alternate and shrink
    (were theta**2 >= (2j+2)*(2j+3), every factor theta**2/(2i*(2i+1))
    up to i = j would exceed 1 and the term 2**w), so the rest of the
    series is below that bound too, which is added once more.
    """
    q = Fraction(x)
    _check_digits(digits)
    if abs(q) > 2:
        raise DomainError("sinc reference is only evaluated for |x| <= 2")
    out_scale = digits + REFERENCE_GUARD
    if q == 0:
        return FixedDecimal(10**out_scale, out_scale, REFERENCE_GUARD)
    num_sq, den_sq = q.numerator**2, q.denominator**2

    def approximate(bits):
        p = _PI_CACHE.bits(bits)
        theta_sq = (p * p * num_sq) // (den_sq << bits)
        theta_error = 32
        # sin(theta)/theta = sum_{j>=0} (-1)**j theta**(2j) / (2j+1)!
        total = term = 1 << bits
        error = term_error = 0
        j = 1
        while term != 0:
            spread = term_error * theta_sq + (term + term_error) * theta_error
            step = (2 * j) * (2 * j + 1)
            term = ((term * theta_sq) >> bits) // step
            term_error = ((spread >> bits) + 2) // step + 2
            total += -term if j & 1 else term
            error += term_error
            j += 1
        return [(total, error + term_error)]

    mantissa = _certified(approximate, [out_scale], _GUARD_BITS)[0]
    return FixedDecimal(mantissa, out_scale, REFERENCE_GUARD)
