"""Nested reciprocal-square sums and their truncation control.

The depth-n partial sum over truncation N is

    S_n(N) = sum over 1 <= l_1 < l_2 < ... < l_n <= N of
             1 / (l_1**2 * l_2**2 * ... * l_n**2),

the elementary symmetric polynomial of degree n evaluated at x_l = 1/l**2.
As N grows, S_n(N) converges to pi**(2n) / (2n+1)!. This module computes
the partial sums four independent ways (a product tree over the integer
polynomial prod (l**2 + t), a single O(N*n) sweep, direct tuple
enumeration, and Newton's identities on power sums), bounds the truncation
error rigorously, and drives truncations to a requested precision under a
work ceiling.

Two arithmetic modes: exact rationals (the product tree, bit-for-bit,
practical for small N) and guarded fixed-point decimals (the pure-Python
sweep kernel `_backend.dp_row_scaled`, practical to N = 10**8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Union

from . import _backend
from .errors import DomainError, InfeasibleError
from .exactnum import (
    FixedDecimal,
    div_round_half_even,
    div_round_up,
    guard_digits,
)
from .reference import basel_power, reference_value

__all__ = [
    "DEFAULT_WORK_CEILING",
    "EXACT_TRUNCATION_LIMIT",
    "NAIVE_ENUMERATION_CEILING",
    "SeriesResult",
    "converge",
    "newton_cross_check",
    "partial_sum",
    "partial_sum_naive",
    "partial_sum_prefix",
    "required_truncation",
    "sinc_product",
    "sinc_series",
    "tail_bound",
]

# Ceiling on the truncation N accepted by converge and the CLI.
DEFAULT_WORK_CEILING = 10**8
# Ceiling on C(N, depth) above which direct tuple enumeration is refused.
NAIVE_ENUMERATION_CEILING = 10**7
# Largest truncation the CLI accepts in exact mode without an override:
# rational denominators grow superpolynomially with N.
EXACT_TRUNCATION_LIMIT = 2000

Value = Union[Fraction, FixedDecimal]


def _check_depth_truncation(depth: int, truncation: int) -> None:
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if truncation < 0:
        raise DomainError("truncation must be nonnegative")


def _truncated_product(low: int, high: int, depth: int) -> list:
    """Coefficients [c_0, ..., c_min(depth, high-low)] of
    prod_{l=low..high-1} (l**2 + t), lowest degree first, by balanced
    halving so the big multiplications pair operands of equal size."""
    if high - low == 1:
        return [low * low, 1][: depth + 1]
    middle = (low + high) // 2
    left = _truncated_product(low, middle, depth)
    right = _truncated_product(middle, high, depth)
    out = [0] * min(depth + 1, len(left) + len(right) - 1)
    for i, a in enumerate(left):
        for j, b in enumerate(right[: len(out) - i]):
            out[i + j] += a * b
    return out


def partial_sum(
    depth: int,
    truncation: int,
    mode: str = "exact",
    digits: int = 20,
) -> Value:
    """S_depth(truncation), exact by a product tree or fixed by the sweep.

    mode "exact" returns a reduced Fraction: with
    P(t) = prod_{l<=N} (l**2 + t), S_depth(N) = [t**depth] P / (N!)**2,
    so it costs one integer polynomial product cut off at degree `depth`
    and one division, with no per-index gcd as in the Fraction sweep. mode
    "fixed" returns a FixedDecimal from the descending-index sweep kernel,
    carrying `digits` requested places plus enough guard digits that the
    at most truncation*depth half-even roundings of the sweep stay clear
    of the requested places.
    """
    _check_depth_truncation(depth, truncation)
    if mode == "exact":
        if depth > truncation:
            return Fraction(0)
        if depth == 0:
            return Fraction(1)
        coefficients = _truncated_product(1, truncation + 1, depth)
        # The constant term is prod l**2 = (N!)**2.
        return Fraction(coefficients[depth], coefficients[0])
    if mode == "fixed":
        if digits < 1:
            raise DomainError("fixed mode requires at least one digit")
        guard = guard_digits(depth * truncation)
        scale = digits + guard
        row = _backend.dp_row_scaled(depth, truncation, scale)
        return FixedDecimal(row[depth], scale, guard)
    raise DomainError(f"unknown mode {mode!r}; expected 'exact' or 'fixed'")


def partial_sum_prefix(depth: int, truncation: int) -> list:
    """Exact values [S_depth(0), S_depth(1), ..., S_depth(truncation)].

    One descending-index Fraction sweep; the depth-limit entry is recorded
    after each index is folded in, so the whole prefix costs the same as
    the final value. Its last entry is the independent witness that the
    product tree in partial_sum must reproduce.
    """
    _check_depth_truncation(depth, truncation)
    row = [Fraction(1)] + [Fraction(0)] * depth
    prefix = [row[depth]]
    for ell in range(1, truncation + 1):
        x = Fraction(1, ell * ell)
        for k in range(min(depth, ell), 0, -1):
            row[k] += x * row[k - 1]
        prefix.append(row[depth])
    return prefix


def partial_sum_naive(depth: int, truncation: int) -> Fraction:
    """S_depth(truncation) by direct enumeration of index tuples.

    Walks every strictly increasing depth-tuple from 1..truncation and adds
    the exact reciprocal of the squared product. Cost is C(truncation,
    depth) tuples; requests beyond NAIVE_ENUMERATION_CEILING are refused,
    since this exists as an independent witness for small cases, not as a
    computation path.
    """
    _check_depth_truncation(depth, truncation)
    tuples = math.comb(truncation, depth)
    if tuples > NAIVE_ENUMERATION_CEILING:
        raise InfeasibleError(
            "enumeration of %d tuples exceeds the ceiling of %d"
            % (tuples, NAIVE_ENUMERATION_CEILING),
            required=tuples,
            ceiling=NAIVE_ENUMERATION_CEILING,
        )
    total = Fraction(0)
    for subset in combinations(range(1, truncation + 1), depth):
        denominator = 1
        for index in subset:
            denominator *= index * index
        total += Fraction(1, denominator)
    return total


def newton_cross_check(depth: int, truncation: int) -> Fraction:
    """S_depth(truncation) through Newton's identities on power sums.

    With p_j the sum of 1/l**(2j) over l = 1..truncation and e_0 = 1, the
    identities k*e_k = sum_{i=1..k} (-1)**(i-1) e_{k-i} p_i recover the
    elementary symmetric value e_depth without visiting any index tuple;
    an algebraically independent route from the product tree, the sweep
    and the enumeration.
    """
    _check_depth_truncation(depth, truncation)
    p = [Fraction(0)] * (depth + 1)
    for ell in range(1, truncation + 1):
        reciprocal = Fraction(1, ell * ell)
        power = Fraction(1)
        for j in range(1, depth + 1):
            power *= reciprocal
            p[j] += power
    e = [Fraction(1)]
    for k in range(1, depth + 1):
        acc = Fraction(0)
        sign = 1
        for i in range(1, k + 1):
            acc += sign * e[k - i] * p[i]
            sign = -sign
        e.append(acc / k)
    return e[depth]


def tail_bound(depth: int, truncation: int, digits: int) -> FixedDecimal:
    """Rigorous upper bound on S_depth(infinity) - S_depth(truncation).

    Every omitted tuple has largest index above the truncation; summing
    the depth-1 inner indices over all of 1..infinity and the outer index
    over truncation+1..infinity gives

        tail <= (pi**2/6)**(depth-1) * sum_{l > truncation} 1/l**2
             <  (pi**2/6)**(depth-1) / truncation.

    The returned value is that right-hand side rounded UP (never down) at
    digits plus ten guard places, so comparisons against it stay sound.
    """
    if depth < 1:
        raise DomainError("tail bound requires depth >= 1")
    if truncation < 1:
        raise DomainError("tail bound requires truncation >= 1")
    if digits < 1:
        raise DomainError("tail bound requires at least one digit")
    factor = basel_power(depth - 1, digits + 10)
    # factor carries scale digits+20 and sits within one unit of the true
    # power; adding one unit makes it a certified upper bound. Power 0 is
    # exactly 1 and needs no slack.
    upper = factor.mantissa + (0 if depth == 1 else 1)
    out_scale = digits + 10
    mantissa = div_round_up(upper, truncation * 10 ** (factor.scale - out_scale))
    return FixedDecimal(mantissa, out_scale, 10)


@dataclass(frozen=True)
class SeriesResult:
    """One computed partial sum with its error certificates.

    value is a Fraction in exact mode and a FixedDecimal in fixed mode.
    tail_bound always bounds the truncation error from above; reference
    and abs_error are present when a reference limit was evaluated.
    """

    depth: int
    truncation: int
    mode: str
    value: Value
    tail_bound: FixedDecimal
    reference: FixedDecimal | None = None
    abs_error: FixedDecimal | None = None
    digits: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "fixed"):
            raise DomainError("mode must be 'exact' or 'fixed'")
        if self.depth < 0 or self.truncation < 0:
            raise DomainError("depth and truncation must be nonnegative")


def required_truncation(depth: int, digits: int) -> int:
    """Least truncation N with tail_bound(depth, N, digits) < 10**-digits.

    Solved in closed form on the same integer mantissas tail_bound uses:
    with U the certified upper numerator at scale digits+20, the reported
    bound is ceil(U / (N*10**10)) units of 10**-(digits+10), and the
    target is 10**10 such units, so the condition is exactly

        ceil(U / (N*10**10)) <= 10**10 - 1
        <=>  N >= U / ((10**10 - 1) * 10**10).

    No search loop: near the boundary the bound moves by less than its
    own rounding slack per unit of N, so stepping would not terminate for
    large targets. Since the certified factor is at least 1, the result
    is always above 10**digits (and in particular at least depth).
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if digits < 1:
        raise DomainError("at least one digit is required")
    factor = basel_power(depth - 1, digits + 10)
    upper = factor.mantissa + (0 if depth == 1 else 1)
    return div_round_up(upper, (10**10 - 1) * 10**10)


def converge(
    depth: int, digits: int, work_ceiling: int | None = None
) -> SeriesResult:
    """Smallest truncation whose tail bound drops below 10**-digits.

    Chooses N = required_truncation(depth, digits), computes the
    fixed-mode partial sum there, and packages it with the bound, the
    reference limit, and the observed absolute error. If the required N
    exceeds the work ceiling (default 10**8), the request is refused with
    the required truncation attached rather than silently truncating
    early; the bound decays only like 1/N, so this is the expected
    outcome for roughly nine or more digits.
    """
    if depth < 1:
        raise DomainError("converge requires depth >= 1")
    if digits < 1:
        raise DomainError("converge requires at least one digit")
    ceiling = DEFAULT_WORK_CEILING if work_ceiling is None else work_ceiling
    if ceiling < 1:
        raise DomainError("work ceiling must be a positive integer")
    truncation = required_truncation(depth, digits)
    if truncation > ceiling:
        raise InfeasibleError(
            "reaching %d digits at depth %d requires truncation N = %d, "
            "above the work ceiling of %d"
            % (digits, depth, truncation, ceiling),
            required=truncation,
            ceiling=ceiling,
        )
    value = partial_sum(depth, truncation, mode="fixed", digits=digits)
    bound = tail_bound(depth, truncation, digits)
    ref = reference_value(depth, digits)
    error = abs(ref - value)
    return SeriesResult(
        depth=depth,
        truncation=truncation,
        mode="fixed",
        value=value,
        tail_bound=bound,
        reference=ref,
        abs_error=error,
        digits=digits,
    )


def sinc_product(x, factors: int, digits: int) -> FixedDecimal:
    """Partial product prod_{k=1..factors} (1 - x**2/k**2) in fixed point.

    This is the truncated product form of sin(pi*x)/(pi*x). Each factor is
    applied as one exact rational multiplication followed by one half-even
    rounding, so the result is within `factors` units in the last guarded
    place of the exact partial product. x = 0 or factors = 0 give exactly 1.
    """
    q = Fraction(x)
    if factors < 0:
        raise DomainError("factor count must be nonnegative")
    if digits < 1:
        raise DomainError("at least one digit is required")
    guard = guard_digits(factors)
    scale = digits + guard
    acc = 10**scale
    p2 = q.numerator * q.numerator
    q2 = q.denominator * q.denominator
    for k in range(1, factors + 1):
        den = k * k * q2
        acc = div_round_half_even(acc * (den - p2), den)
    return FixedDecimal(acc, scale, guard)


def sinc_series(x, powers: int, truncation: int, digits: int) -> FixedDecimal:
    """Truncated alternating series sum_{j=0..powers} (-1)**j S_j(truncation) x**(2j).

    Expanding the sinc product into powers of x**2 makes the coefficient of
    x**(2j) exactly the depth-j nested sum, so this evaluates the expansion
    with both the power count and every nested sum truncated. One kernel
    sweep produces all the S_j rows at once; each term costs one further
    half-even rounding.
    """
    q = Fraction(x)
    if powers < 0:
        raise DomainError("power count must be nonnegative")
    if digits < 1:
        raise DomainError("at least one digit is required")
    _check_depth_truncation(powers, truncation)
    guard = guard_digits(max(truncation * powers, powers, 1))
    scale = digits + guard
    row = _backend.dp_row_scaled(powers, truncation, scale)
    x2 = q * q
    numerator = 1
    denominator = 1
    total = row[0]
    sign = -1
    for j in range(1, powers + 1):
        numerator *= x2.numerator
        denominator *= x2.denominator
        total += sign * div_round_half_even(row[j] * numerator, denominator)
        sign = -sign
    return FixedDecimal(total, scale, guard)
