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
practical for small N) and guarded fixed-point decimals. Fixed mode has
three routes, all rounded half-even:

- the block: past a head cutoff M that depends only on the depth and the
  working scale, S_n(N) = sum_j S_j(M) * E_(n-j)(M, N), with the block
  E_k over M < l <= N from Euler-Maclaurin power sums (exact Bernoulli
  numbers, certified remainder) by Newton's identities, so its work grows
  with M and the depth, not with N. M grows like 10**(scale/27): about
  40 at 36 carried places, 4*10**4 at 116 and 5*10**8 at 226. It runs
  only when N is well above M;
- otherwise one row [S_0 .. S_n] over all of 1..N (and the head rows
  S_j(M) of the block) from whichever of two routes a measured cost rule
  says is cheaper at (depth, N, scale): the product tree, divided and
  rounded once per entry, so correctly rounded, or the pure-Python sweep
  kernel `_backend.dp_row_scaled`, within depth*N/2 units. The tree wins
  on wide mantissas at moderate N (depth 4, N = 300, 4300 places: 2.6 ms
  against 0.45 s for the sweep), the sweep on narrow ones at large N.
"""

from __future__ import annotations

import functools
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
    int_to_decimal,
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
    "series_result",
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
# Euler-Maclaurin correction terms in each block power sum of fixed mode;
# the head cutoff then grows like 10**(scale / (2*EM_TERMS + 3)).
EM_TERMS = 12

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


def _elementary_from_power_sums(power_sums: list) -> list:
    """[e_0, e_1, ..., e_d] from the power sums [p_1, ..., p_d].

    Newton's identities k*e_k = sum_{i=1..k} (-1)**(i-1) e_{k-i} p_i with
    e_0 = 1, in exact rationals.
    """
    e = [Fraction(1)]
    for k in range(1, len(power_sums) + 1):
        acc = Fraction(0)
        sign = 1
        for i in range(1, k + 1):
            acc += sign * e[k - i] * power_sums[i - 1]
            sign = -sign
        e.append(acc / k)
    return e


@functools.cache
def _bernoulli_even() -> tuple:
    """(B_2, B_4, ..., B_(2*EM_TERMS+2)), built on first use from
    sum_{j=0..m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * EM_TERMS + 3):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b[2::2])


@functools.cache
def _euler_maclaurin(j: int) -> tuple:
    """Integer Euler-Maclaurin data for Z_j(a) = sum_{l >= a} l**(-2j).

    With s = 2j and K = EM_TERMS,

        Z_j(a) = g(a) / (denominator * a**(s+2K-1)) + R,
        g(a) = a**(2K)/(s-1) + a**(2K-1)/2
               + sum_{k=1..K} B_2k/(2k)! * s(s+1)...(s+2k-2) * a**(2K-2k).

    Returns (coefficients, denominator, remainder): the coefficients of g
    times `denominator`, highest power first, all integers, and the
    magnitude c of the first omitted term c / a**(s+2K+1). Every even
    derivative of x**(-s) is positive on x > 0, so R has the sign of that
    term and is smaller in magnitude: |R| <= c / a**(s+2K+1).
    """
    s = 2 * j
    bernoulli = _bernoulli_even()
    terms = [
        bernoulli[k - 1] * Fraction(
            math.factorial(s + 2 * k - 2),
            math.factorial(s - 1) * math.factorial(2 * k),
        )
        for k in range(1, EM_TERMS + 2)
    ]
    rational = [Fraction(1, s - 1), Fraction(1, 2)]
    for k, term in enumerate(terms[:-1]):
        rational += [term] if k == 0 else [Fraction(0), term]
    denominator = math.lcm(*(c.denominator for c in rational))
    coefficients = tuple(
        c.numerator * (denominator // c.denominator) for c in rational
    )
    return coefficients, denominator, abs(terms[-1])


def _zeta_tail(j: int, a: int) -> Fraction:
    """Centre of the Euler-Maclaurin value of Z_j(a), a >= 1."""
    coefficients, denominator, _ = _euler_maclaurin(j)
    g = 0
    for c in coefficients:
        g = g * a + c
    return Fraction(g, denominator * a ** (2 * j + 2 * EM_TERMS - 1))


def _block_radius(depth: int, cutoff: int) -> Fraction:
    """Bound on |centre - S_depth(N)| of the block evaluation with head
    cutoff M = cutoff >= 1, for every N > M.

    The block power sums p_i over (M, N] lie in (0, M**(1-2i)/(2i-1)] and
    their centres are off by at most r_i, the two Euler-Maclaurin
    remainders at M+1 and N+1. E_k is a polynomial in the p_i whose
    coefficients, taken in absolute value, are those of the complete
    symmetric h_k, so |dE_k| <= h_k(p + r) - h_k(p) with every argument
    raised to its bound; Newton's identities give h_k from the power sums
    (-1)**(i-1) q_i. The head weights S_j(M) add up to less than
    prod_{l>=1} (1 + 1/l**2) = sinh(pi)/pi < 4.
    """
    bounds = []
    radii = []
    for i in range(1, depth + 1):
        bounds.append(Fraction(1, (2 * i - 1) * cutoff ** (2 * i - 1)))
        remainder = _euler_maclaurin(i)[2]
        radii.append(2 * remainder / (cutoff + 1) ** (2 * i + 2 * EM_TERMS + 1))
    high = _elementary_from_power_sums(
        [(-1) ** i * (q + r) for i, (q, r) in enumerate(zip(bounds, radii))])
    low = _elementary_from_power_sums(
        [(-1) ** i * q for i, q in enumerate(bounds)])
    return 4 * max((h - l for h, l in zip(high[1:], low[1:])),
                   default=Fraction(0))


def _integer_root(value: int, n: int) -> int:
    """floor(value ** (1/n)) for value >= 1, by integer Newton steps."""
    root = 1 << -(-value.bit_length() // n)
    while True:
        step = ((n - 1) * root + value // root ** (n - 1)) // n
        if step >= root:
            return root
        root = step


def _head_cutoff(depth: int, scale: int, truncation: int) -> int:
    """The head cutoff M of the block path, or `truncation` when the
    sweep over 1..truncation is the cheaper route.

    M is the smallest cutoff at which _block_radius is below a quarter
    unit at 10**-scale. The radius is at least four times its k = 1 term
    2*|B_(2K+2)| / (M+1)**(2K+3), so M+1 = a needs
    a**(2K+3) > 32*|B_(2K+2)|*10**scale; the search starts at the least
    such a and steps up.

    The block costs a head sweep over 1..M, whose steps carry a few more
    digits (measured at most 1.7 times a sweep step), plus a fixed part:
    cutoff search, Euler-Maclaurin sums and Newton's identities on exact
    rationals, measured below 400*depth**2 + 2*depth**4 sweep steps at
    depths 1 to 64 and 20 to 150 digits. So the block runs only when
    N >= 2*M + 400*depth + 2*depth**3, where it is cheaper than the sweep
    over 1..N.
    """
    room = truncation - 400 * depth - 2 * depth**3
    if room < 2:
        return truncation
    power = 2 * EM_TERMS + 3
    bernoulli = abs(_bernoulli_even()[-1])
    target = 32 * bernoulli.numerator * 10**scale
    if (room // 2 + 1) ** power * bernoulli.denominator <= target:
        return truncation
    base = _integer_root(target // bernoulli.denominator, power)
    while base**power * bernoulli.denominator <= target:
        base += 1
    cutoff = base - 1
    quarter = Fraction(1, 4 * 10**scale)
    while 2 * cutoff <= room and _block_radius(depth, cutoff) >= quarter:
        cutoff += 1
    return cutoff if 2 * cutoff <= room else truncation


def _tree_row_is_cheaper(depth: int, truncation: int, scale: int) -> bool:
    """Whether the product tree computes the row at (depth, N, scale) in
    less time than the sweep kernel: depth >= 2, 1 <= N <= 10**5 and
    scale >= 250 + (4 + depth//8) * isqrt(N).

    The sweep does about depth*N multiply-divides on scale-digit
    integers. The tree's product does not depend on the scale but grows
    faster than N (its coefficients have about 2*log10(N!) digits) and
    about like depth**2; its depth+1 divisions are cheap. Timed on a grid
    (pure Python, both routes whole, best of 3) of depths 1 to 32, N from
    10 to 10**5 and 20 to 4300 places, plus depths 64 and 128 at N up to
    4000, the tree won from about 150 to 200 places at depth 2 and
    N <= 300, 200 at N = 1000, 500 at N = 16000 and 1200 at N = 10**5;
    at depth 32 from 280, 900 and 2200 places at N = 1000, 16000 and
    10**5. The threshold lies above every crossover, and at the threshold
    itself the tree measured 1.3 to 17 times faster, so on the
    grid the rule never picks the slower route. Depth 1 always sweeps:
    its step does no wide multiplication. Timed again over N from 10 to
    10**5 and 150 to 8000 places, the tree lost everywhere below 2000
    places (0.03 to 0.68 of the sweep's speed), came out 0.75 to 1.06 at
    2000, and won only 1.14 to 1.30 times at 4300 for N <= 1000 (at most
    0.4 ms a row) and 1.2 to 1.7 times at 8000 for N <= 4000; a third term
    for that band would save well under a millisecond on a rare row and
    pick the slower route near its edge. Past N = 10**5, the edge
    of the grid, the tree's coefficients run to megabytes each and the
    sweep keeps the row.
    """
    return (depth >= 2 and 1 <= truncation <= 10**5
            and scale >= 250 + (4 + depth // 8) * math.isqrt(truncation))


def _scaled_row(depth: int, truncation: int, scale: int) -> list:
    """Mantissa row [S_0 .. S_depth] at 10**-scale, by the cheaper route.

    The sweep kernel `_backend.dp_row_scaled` costs about depth*N
    multiply-divides on scale-digit mantissas, and each entry ends within
    depth*N/2 units of exact. The product tree costs one integer
    polynomial product, with no scale in it, and one rounded division per
    entry: S_j = [t**j] P / P(0) with P = prod_{l<=N} (l**2 + t), so each
    entry is correctly rounded (within half a unit), which is inside every
    budget the sweep's callers allow for.

    _tree_row_is_cheaper says which route runs.
    """
    if not _tree_row_is_cheaper(depth, truncation, scale):
        return _backend.dp_row_scaled(depth, truncation, scale)
    coefficients = _truncated_product(1, truncation + 1, depth)
    coefficients += [0] * (depth + 1 - len(coefficients))
    one = 10**scale
    return [div_round_half_even(c * one, coefficients[0])
            for c in coefficients]


def _block_mantissa(depth: int, truncation: int, cutoff: int,
                    scale: int) -> int:
    """S_depth(truncation) * 10**scale, rounded half-even once, from
    S_n(N) = sum_j S_j(M) * E_(n-j)(M, N): the head S_j(M) from the sweep
    kernel over 1..M, E_k the elementary symmetric values of 1/l**2 over
    M < l <= N from the Euler-Maclaurin power sums by Newton's
    identities.

    The head carries guard_digits(depth*M) places beyond `scale`, so its
    at most depth*M/2 units of sweep error, weighted by the E_k (which add
    up to less than 4), stay below 10**-9 of a unit at `scale`. With the
    half unit of the final rounding, the result is then below one unit
    from exact when _block_radius(depth, cutoff) is below a quarter."""
    head_scale = scale + guard_digits(depth * cutoff)
    head = _scaled_row(depth, cutoff, head_scale)
    power_sums = [_zeta_tail(j, cutoff + 1) - _zeta_tail(j, truncation + 1)
                  for j in range(1, depth + 1)]
    block = _elementary_from_power_sums(power_sums)
    centre = sum(h * block[depth - j] for j, h in enumerate(head))
    return div_round_half_even(
        centre.numerator, centre.denominator * 10 ** (head_scale - scale))


def partial_sum(
    depth: int,
    truncation: int,
    mode: str = "exact",
    digits: int = 20,
) -> Value:
    """S_depth(truncation), exact by a product tree, or fixed.

    mode "exact" returns a reduced Fraction: with
    P(t) = prod_{l<=N} (l**2 + t), S_depth(N) = [t**depth] P / (N!)**2,
    so it costs one integer polynomial product cut off at degree `depth`
    and one division, with no per-index gcd as in the Fraction sweep.

    mode "fixed" returns a FixedDecimal carrying `digits` requested places
    plus guard_digits(depth*truncation) guard places. Well above the head
    cutoff M (the smallest M whose certified block radius is below a
    quarter unit at that scale, about 10**(scale/(2*EM_TERMS+3)); see
    _head_cutoff for the cost rule) the value is the head-plus-block split
    of the module docstring, rounded half-even once; its error is below
    one unit in the last carried place (half a unit of rounding, a
    certified radius under a quarter, and a head error under 10**-9
    units). Otherwise one row over 1..N from _scaled_row: the product
    tree's, correctly rounded, where _tree_row_is_cheaper says so, else
    the descending-index sweep kernel's, whose at most truncation*depth
    half-even roundings stay clear of the requested places.
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
        cutoff = _head_cutoff(depth, scale, truncation)
        if cutoff == truncation:
            mantissa = _scaled_row(depth, truncation, scale)[depth]
        else:
            mantissa = _block_mantissa(depth, truncation, cutoff, scale)
        return FixedDecimal(mantissa, scale, guard)
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
    p = [Fraction(0)] * depth
    for ell in range(1, truncation + 1):
        reciprocal = Fraction(1, ell * ell)
        power = Fraction(1)
        for j in range(depth):
            power *= reciprocal
            p[j] += power
    return _elementary_from_power_sums(p)[depth]


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
    tail_bound bounds S_depth(infinity) - value from above; abs_error is
    |reference - value| for the reference limit pi**(2*depth)/(2*depth+1)!.
    """

    depth: int
    truncation: int
    mode: str
    value: Value
    tail_bound: FixedDecimal
    reference: FixedDecimal
    abs_error: FixedDecimal


def series_result(depth: int, truncation: int, mode: str,
                  digits: int) -> SeriesResult:
    """S_depth(truncation) in `mode` at `digits` places, with its tail
    bound, the reference limit and the observed error.

    At truncation 0 nothing is summed and the whole series is the tail,
    bounded above by (pi**2/6)**depth, rounded up at digits plus ten guard
    places like tail_bound so the certificate stays sound. The error of an
    exact value is rounded half-even at those places too.
    """
    value = partial_sum(depth, truncation, mode=mode, digits=digits)
    if truncation >= 1:
        bound = tail_bound(depth, truncation, digits)
    else:
        whole = basel_power(depth, digits + 10)
        bound = FixedDecimal(
            div_round_up(whole.mantissa + 1, 10**10), digits + 10, 10)
    ref = reference_value(depth, digits)
    if isinstance(value, Fraction):
        error = abs(FixedDecimal.from_rational(
            ref.as_fraction() - value, digits + 10, 10))
    else:
        error = abs(ref - value)
    return SeriesResult(depth, truncation, mode, value, bound, ref, error)


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
    return series_result(depth, truncation, "fixed", digits)


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
    with both the power count and every nested sum truncated. One row from
    _scaled_row produces all the S_j at once (the sweep kernel, or the
    product tree where that is cheaper, e.g. at hundreds of places); each
    term costs one further half-even rounding. Row j's rounding error is
    multiplied by |x|**(2j), so for |x| > 1 the scale and the guard grow by
    the decimal length of x**(2*powers).
    """
    q = Fraction(x)
    if powers < 0:
        raise DomainError("power count must be nonnegative")
    if digits < 1:
        raise DomainError("at least one digit is required")
    _check_depth_truncation(powers, truncation)
    guard = guard_digits(max(truncation * powers, powers, 1))
    x2 = q * q
    if x2 > 1:
        growth = x2.numerator**powers // x2.denominator**powers
        guard += len(int_to_decimal(growth))
    scale = digits + guard
    row = _scaled_row(powers, truncation, scale)
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
