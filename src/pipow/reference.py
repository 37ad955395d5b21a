"""High-precision reference constants on a binary fixed-point core.

pi comes from the Chudnovsky series

    1/pi = 12 * sum_k (-1)**k (6k)! (13591409 + 545140134 k)
                / ((3k)! (k!)**3 640320**(3k + 3/2)),

summed by binary splitting (Haible & Papanikolaou, "Fast multiprecision
evaluation of series of rational numbers", ANTS 1998) into one integer
fraction, times one isqrt(10005 * 4**B): pi * 2**B costs a few balanced
big products and one big division. The shared PiCache keeps that mantissa
in bits, grows it geometrically up to the widest pi a command line asks,
and serves narrower requests by a shift. Beside it, it keeps the first
_KEPT_POWERS powers of pi**2 at the same width, so that a process serving
many requests forms each power once and not once a request.

Every constant -- pi itself, pi**(2n)/(2n+1)!, (pi**2/6)**p and sinc(pi*x)
by its Taylor series -- is assembled in binary fixed point at w bits, where
each rescale is a shift, together with an integer bound on its absolute
error in units of 2**-w. One routine, _round_certified, turns that into
the decimal mantissa at digits plus ten guard places: one multiplication
by the power of five, then half-even rounding by shift and mask. It rounds
only when the discarded bits lie farther than the error bound from the
half point, the one place where rounding to nearest can go either way;
otherwise the value is assembled again with twice the guard bits (Ziv,
"Fast evaluation of elementary mathematical functions with correctly
rounded last bit", ACM TOMS 1991). One loop, _certified, does this for
every constant, so every returned mantissa is the correctly rounded
value. The powers of pi**2 come from one chain, _chain: PiCache runs it
at its own width for the powers it keeps, and _pi_power_ratios shifts
those to the width it asks and runs the chain on from the top kept power.
_pi_power_ratios serves a sum's limit and its tail bound's (pi**2/6)**p
together, each with its own bound; a retry asks the powers once for all
of them. These values serve as the judge for everything the series code
produces, which is why they carry their own guard digits rather than
borrowing the caller's.
"""

from __future__ import annotations

import _thread
import math
from fractions import Fraction

from .errors import DomainError
from .exactnum import FixedDecimal

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

# Bits carried beyond 10**scale on the first try. Any positive value gives
# the correctly rounded result through the retry; 64 keeps the chance of
# a retry below about 2**-45 for every constant here.
_GUARD_BITS = 64
# The widest pi a command line asks on its first try (_certified): the
# bits of MAX_PI_DIGITS + REFERENCE_GUARD places and _GUARD_BITS, plus one
# bit per power of pi**2, at most 52 there under series.STEP_CEILING
# (pi_power_work), so _GUARD_BITS more. PiCache doubles no further.
_PI_CAP_BITS = ((MAX_PI_DIGITS + REFERENCE_GUARD) * 3322 // 1000 + 1
                + 2 * _GUARD_BITS)
# Powers of pi**2 PiCache keeps beside pi: the worst case is _KEPT_POWERS
# mantissas of _PI_CAP_BITS bits, about 0.66 MB at 16. A sum needs powers
# depth - 1 and depth, and converge and table every power up to their
# depth, so 16 covers every depth the benchmark's workloads ask (at most
# 6) with room; a deeper request runs the chain on from the sixteenth.
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


def _chain(acc: int, square: int, bits: int):
    """(acc * square) >> bits, then the same with that result, and so on:
    from acc = pi**(2k) * 2**bits and square = pi**2 * 2**bits, the powers
    k + 1, k + 2, ... of pi**2, each floored from the one before. Every
    power of pi**2 is formed here (see _pi_power_ratios for its bound)."""
    while True:
        acc = (acc * square) >> bits
        yield acc


class PiCache:
    """pi * 2**bits within one unit, for the widest bits asked so far, and
    the first _KEPT_POWERS powers of pi**2 at that width.

    A single instance is shared across the package; a lock serializes
    growth so concurrent callers never duplicate the evaluation. Growth at
    least doubles the stored bits up to _PI_CAP_BITS, so ever wider
    requests in any order cost O(log) evaluations, and a request a few
    bits wider than a cache near the cap computes pi at the cap, not at
    twice the cache. Narrower requests are served by a rounding right
    shift, which stays within one unit. Nothing is computed before the
    first request.

    The powers pi**(2k) * 2**B, k = 1, 2, ..., at the cache's width B are
    formed from its pi under the same lock, on demand and at most
    _KEPT_POWERS of them, and are dropped whenever pi grows: they always
    come from the pi the instance holds, and a replaced cache brings its
    own.
    """

    def __init__(self):
        self._lock = _thread.allocate_lock()
        self._bits = 0
        self._value = 3  # pi within one unit at 2**0
        self._powers = []  # pi**(2k) * 2**_bits for k = 1..len(_powers)

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

    def _square_powers(self, bits: int, top: int) -> list:
        """pi**(2k) * 2**bits for k = 1..min(top, _KEPT_POWERS), top >= 1:
        the kept powers, those still missing formed by _chain at the
        cache's width, each shifted to `bits` by rounding."""
        with self._lock:
            self._grow(bits)
            kept, width = self._powers, self._bits
            if len(kept) < min(top, _KEPT_POWERS):
                if not kept:
                    kept.append((self._value * self._value) >> width)
                for _, power in zip(range(len(kept), min(top, _KEPT_POWERS)),
                                    _chain(kept[-1], kept[0], width)):
                    kept.append(power)
            shift = width - bits
            half = (1 << shift) >> 1
            return [(power + half) >> shift for power in kept[:top]]

    def mantissa(self, scale: int) -> int:
        """pi * 10**scale, correctly rounded half-even."""
        if scale < 0:
            raise DomainError("scale must be nonnegative")
        return _certified(lambda bits: [(self.bits(bits), 1)], [scale],
                          _GUARD_BITS)[0]


_PI_CACHE = PiCache()


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


def _pi_power_ratios(targets: list) -> list:
    """pi**(2*power) / divisor at 10**-scale, correctly rounded half-even,
    for each (power, divisor, scale) of `targets` (_limit_targets,
    _basel_target), from one chain of powers of pi**2.

    At w bits the chain is: p = pi * 2**w within one unit, the square
    (p*p) >> w, then the products acc = (acc * square) >> w (_chain) from
    acc = square (2**w, and no pi, for power 0) up to the largest power,
    and one floor division by each target's divisor of the accumulator at
    its power. The square is within 2*pi + 1 units, a relative
    0.74 * 2**-w, and each floor loses under one unit, a relative
    0.11 * 2**-w, so each product adds at most 0.85 * 2**-w to the relative
    error and, while power * 2**-w is small, acc is within a relative
    2 * power * 2**-w of pi**(2*power) * 2**w.

    The powers up to _KEPT_POWERS are that chain run by PiCache at its
    width B >= w, shifted to w by rounding; past them the chain runs on at
    w from the top kept power with the kept square. Both keep the bound.
    At B = w the shift is none and the chain is the one above. At B > w
    the kept power is within a relative 2 * power * 2**-B <= power * 2**-w
    and the shift adds half a unit, a relative below 0.06 * 2**-w as
    pi**(2*power) > 9.8, so it is within (power + 0.06) * 2**-w <=
    2 * power * 2**-w; the shifted square is within a relative
    (0.37 + 0.06) * 2**-w < 0.74 * 2**-w likewise. Each product past the
    kept powers then adds at most 0.74 + 0.11 = 0.85 times 2**-w, as at
    B = w, so from a kept power K within 2 * K * 2**-w the power k > K
    stays within 2 * k * 2**-w. With
    v = pi**(2*power) / divisor and x the result,

        |x - v * 2**w| <= 2 * power * v + 1
                       <= (2*power + 1) * ((x >> w) + 2)   units of 2**-w,

    the bound handed to _round_certified. It is relative to v, which grows
    like 1.65**power for divisor 6**power, so 64 guard bits plus the
    largest power keep the retry rare in both uses. _certified rounds every
    target from one chain, and asks the powers again at the wider bits for
    all of them while any stays open.
    """
    low, top = min(targets)[0], max(targets)[0]

    def approximate(bits):
        at = {0: 1 << bits}  # pi**(2*power) * 2**bits; pi**0 needs no pi
        if top:
            kept = _PI_CACHE._square_powers(bits, top)
            at.update(enumerate(kept, 1))
            if top > len(kept):
                for power, acc in zip(range(len(kept) + 1, top + 1),
                                      _chain(kept[-1], kept[0], bits)):
                    if power >= low:
                        at[power] = acc
        approximations = []
        for power, divisor, _ in targets:
            value = at[power] // divisor
            approximations.append(
                (value, (2 * power + 1) * ((value >> bits) + 2)))
        return approximations

    scales = [scale for _, _, scale in targets]
    return [FixedDecimal(mantissa, scale, REFERENCE_GUARD)
            for mantissa, scale in zip(
                _certified(approximate, scales, _GUARD_BITS + top), scales)]


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
    times sqrt(w) / 400. A step took 24 to 54 ns (powers 1 to 10**4, 5 to
    5000 digits).

    The estimate is the same with the powers PiCache keeps, and still
    bounds the work from above: a request makes at most these products at
    w, and none for a power it finds kept. As with pi, which the estimate
    leaves out, the kept powers are formed once for each width the cache
    grows to, at most _KEPT_POWERS products at that width; a command line
    serves one request from a cache as wide as that request, so there they
    are these products at w."""
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
