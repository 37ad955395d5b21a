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
practical for small N) and guarded fixed-point decimals. Every fixed-mode
value, the sinc series included, is an entry of one mantissa row
[S_0 .. S_n](N) at 10**-scale from `_scaled_row`, which picks one of three
routes by measured cost rules, all rounded half-even:

- the block: past a head cutoff M that depends only on the depth and the
  working scale, S_k(N) = sum_j S_j(M) * E_(k-j)(M, N), with the block
  E_k over M < l <= N from Euler-Maclaurin power sums (exact Bernoulli
  numbers, certified remainder) by Newton's identities, all on scaled
  integers, so its work grows with M and the depth, not with N. Each
  entry is within one unit of exact under one certified radius. M grows
  like 10**(scale/27): about 40 at 36 carried places, 4*10**4 at 116 and
  5*10**8 at 226. It runs when N >= 2*M + 3*depth + 128, at any depth;
- the product tree, divided and rounded once per entry, so correctly
  rounded; it wins on wide mantissas at moderate N (depth 4, N = 300,
  4300 places: 1.7 ms against 0.47 s for the sweep; depth 1: 0.8 ms
  against 1.6 ms);
- the pure-Python sweep kernel `_backend.dp_row_scaled` over all of 1..N,
  within depth*N/2 units, on narrow mantissas below the block's reach.
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
    "sinc_work",
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
# Indices the product tree multiplies into one row in place before it
# halves (_truncated_product). Over exact sums at depths 1 to 6 and N from
# 50 to 2000 every leaf size from 48 to 384 came within 4% of the best;
# deep rows favour larger leaves (depth 16, N = 1000: 16 ms at 256, 27 ms
# at 64) and long shallow ones smaller (depth 2, N = 10**4: 78 ms at 32,
# 97 ms at 64, 120 ms at 256).
LEAF = 64

Value = Union[Fraction, FixedDecimal]


def _check_depth_truncation(depth: int, truncation: int) -> None:
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if truncation < 0:
        raise DomainError("truncation must be nonnegative")


def _truncated_product(low: int, high: int, depth: int) -> list:
    """Coefficients [c_0, ..., c_min(depth, high-low)] of
    prod_{l=low..high-1} (l**2 + t), lowest degree first.

    Binary splitting with a block at each leaf: a run of at most LEAF
    indices is multiplied into one row in place, c_k = c_k*l**2 + c_(k-1)
    for k descending, on small ints; a longer range halves, so the big
    multiplications pair operands of equal size, and merges its halves
    cut off at degree `depth`.
    """
    if high - low <= LEAF:
        row = [1]
        for ell in range(low, high):
            square = ell * ell
            if len(row) <= depth:
                row.append(0)
            for k in range(len(row) - 1, 0, -1):
                row[k] = row[k] * square + row[k - 1]
            row[0] *= square
        return row
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

    Returns (coefficients, denominator, remainder), all integers: the
    coefficients of g times `denominator`, highest power first, and the
    magnitude of the first omitted term, remainder / (denominator *
    a**(s+2K+1)). Every even derivative of x**(-s) is positive on x > 0,
    so R has the sign of that term and is smaller in magnitude.
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
    rational.append(abs(terms[-1]))
    denominator = math.lcm(*(c.denominator for c in rational))
    scaled = [c.numerator * (denominator // c.denominator) for c in rational]
    return tuple(scaled[:-1]), denominator, scaled[-1]


def _zeta_scaled(j: int, a: int, work: int) -> int:
    """The Euler-Maclaurin centre of Z_j(a) times 10**work, a >= 1,
    rounded half-even."""
    coefficients, denominator, _ = _euler_maclaurin(j)
    g = 0
    for c in coefficients:
        g = g * a + c
    return div_round_half_even(
        g * 10**work, denominator * a ** (2 * j + 2 * EM_TERMS - 1))


def _block_radius(depth: int, cutoff: int, work: int) -> int:
    """Certified bound, in units of 10**-work rounded up, on the distance
    from exact of every centre sum_j head_j * E_(k-j) / 10**(2*work) that
    _block_row rounds, for head cutoff M = cutoff >= 1 and every N > M.

    The block power sums p_i over (M, N] lie in [0, q_i], with
    q_i = M**(1-2i)/(2i-1), and the scaled integers P_i are off by at most
    r_i: the two Euler-Maclaurin remainders at M+1 and N+1 plus one unit
    for their two roundings. Newton's identities k*E_k = sum_i +-E_(k-i)*p_i
    give |E_k| <= h_k(q), the complete symmetric value built by the same
    recurrence with every sign positive, and the errors a_k of the rounded
    integer recurrence obey

        k*a_k <= sum_i [a_(k-i)*(q_i + r_i) + h_(k-i)(q)*r_i] + k*u,

    u = 1/2 the rounding of each E_k; without u this is the recurrence of
    h_k(q + r) - h_k(q). Both run here on integers rounded up. The head
    S_j(M) comes from _scaled_row at this scale, within ceil(depth*M/2)
    units on every route, and multiplies |E_k| <= h_k(q) + a_k; the head
    weights S_j(M) add up to less than prod_{l>=1} (1 + 1/l**2) =
    sinh(pi)/pi < 4, which weights the a_k.
    """
    one = 10**work
    bounds = []
    radii = []
    for i in range(1, depth + 1):
        _, denominator, remainder = _euler_maclaurin(i)
        bounds.append(div_round_up(one, (2 * i - 1) * cutoff ** (2 * i - 1)))
        radii.append(1 + div_round_up(
            2 * remainder * one,
            denominator * (cutoff + 1) ** (2 * i + 2 * EM_TERMS + 1)))
    h = [one]
    errors = [0]
    for k in range(1, depth + 1):
        h_sum = error_sum = 0
        for i in range(1, k + 1):
            q, r = bounds[i - 1], radii[i - 1]
            h_sum += h[k - i] * q
            error_sum += errors[k - i] * (q + r) + h[k - i] * r
        h.append(div_round_up(h_sum, k * one))
        errors.append(div_round_up(2 * error_sum + k * one, 2 * k * one))
    head = div_round_up(depth * cutoff, 2) * (sum(h) + sum(errors))
    return div_round_up(head, one) + 4 * max(errors)


def _within_quarter(depth: int, cutoff: int, scale: int) -> bool:
    """Whether _block_radius at cutoff M, at the block's working scale
    scale + guard_digits(depth*M), is below a quarter unit at 10**-scale."""
    guard = guard_digits(depth * cutoff)
    return 4 * _block_radius(depth, cutoff, scale + guard) < 10**guard


def _integer_root(value: int, n: int) -> int:
    """floor(value ** (1/n)) for value >= 1, by integer Newton steps."""
    root = 1 << -(-value.bit_length() // n)
    while True:
        step = ((n - 1) * root + value // root ** (n - 1)) // n
        if step >= root:
            return root
        root = step


def _head_cutoff(depth: int, scale: int, truncation: int) -> int:
    """The head cutoff M of the block route at (depth, N, scale), or
    `truncation` when the block is not the cheaper route.

    M is the smallest cutoff at which _block_radius is below a quarter
    unit at 10**-scale (_within_quarter). The radius is at least four
    times its k = 1 term, which exceeds 2*|B_(2K+2)| / (M+1)**(2K+3), so
    M+1 = a needs a**(2K+3) > 32*|B_(2K+2)|*10**scale, and a fortiori
    a**(2K+3) > 10**scale; the search starts at the least such a and steps
    up. No request whose N is below the second bound builds the Bernoulli
    table.

    The block costs the head row over 1..M, on the tree or on a sweep
    whose steps carry a few more digits, plus a fixed part: the cutoff
    search, the Euler-Maclaurin power sums, Newton's identities, the
    radius and the final sums, about depth**2 multiplications of
    working-scale integers. Timed against the sweep over 1..N (pure
    Python, best of 9, whole block including the search) at depths 1 to
    64 and scales 12 to 80, the block won from N = 2*M + E on, with E at
    most 127 indices at depth 1 (the depth-1 sweep step does no wide
    multiplication), 37 at depth 2, 34 at depth 4, 43 at 14, 57 at 22, 79
    at 32 and 126 at 64; from scale 40 on it won below N = 2*M. So the
    block runs when N >= _block_indices(depth, M) = 2*M + 3*depth + 128,
    which lies above every measured crossover.
    """
    room = truncation - _block_indices(depth, 0)
    power = 2 * EM_TERMS + 3
    if depth < 1 or room < 2 or (room // 2 + 1) ** power <= 10**scale:
        return truncation
    _, denominator, remainder = _euler_maclaurin(1)
    target = 32 * remainder * 10**scale
    if (room // 2 + 1) ** power * denominator <= target:
        return truncation
    base = _integer_root(target // denominator, power)
    while base**power * denominator <= target:
        base += 1
    cutoff = base - 1
    while 2 * cutoff <= room and not _within_quarter(depth, cutoff, scale):
        cutoff += 1
    return cutoff if 2 * cutoff <= room else truncation


def _block_indices(depth: int, cutoff: int) -> int:
    """The block route's cost at head cutoff M, in sweep indices."""
    return 2 * cutoff + 3 * depth + 128


def _tree_row_is_cheaper(depth: int, truncation: int, scale: int) -> bool:
    """Whether the product tree computes the row at (depth, N, scale) in
    less time than the sweep kernel: 1 <= N <= 10**5 and scale >= 100 +
    (4 + depth//8) * isqrt(N) at depth >= 2; 1 <= N <= 10**4 and scale >=
    600 + N at depth 1.

    The sweep does about depth*N multiply-divides on scale-digit
    integers. The tree's product does not depend on the scale but grows
    faster than N (its coefficients have about 2*log10(N!) digits) and
    about like depth**2; its depth+1 divisions grow like scale*D for
    coefficients of D digits. Timed on a grid (pure Python, both routes
    whole, best of 2 to 7) of depths 1 to 32, N from 10 to 10**5 and 50
    to 16000 places, the tree won at depth 2 from below 50 places for
    N <= 300, from 100 to 150 at N = 1000, 250 at 3000, 400 at 10**4,
    550 to 800 at 3*10**4 and about 950 at 10**5; at depth 16 from 200,
    400 and 600 places at N = 1000, 3000 and 10**4, and at depth 32 from
    250 and 500 at N = 1000 and 3000. At depth 1, whose sweep step does
    no wide multiplication, it won from 300 to 500 places for N <= 195,
    600 at N = 300, 1200 at 1000, 3200 at 3000 and 8000 at 10**4, and
    lost everywhere up to 8000 places at 3*10**4. Both thresholds lie
    above every crossover, and at the threshold itself the tree measured
    1.1 to 1.6 times faster, so on the grid the rule never sends a row
    to the tree where the sweep is faster. Below 100 places the tree also wins at depth >= 2 for
    small N (1.3 to 4.5 times at N <= 100, 50 places), but those rows
    are the block's short heads and the sinc rows at a few tens of
    places, each well under a millisecond; they keep the sweep. Past
    N = 10**5, the edge of the grid, the tree's coefficients run to
    megabytes each and the sweep keeps the row.
    """
    if depth == 1:
        return 1 <= truncation <= 10**4 and scale >= 600 + truncation
    return (depth >= 2 and 1 <= truncation <= 10**5
            and scale >= 100 + (4 + depth // 8) * math.isqrt(truncation))


def _scaled_row(depth: int, truncation: int, scale: int) -> list:
    """Mantissa row [S_0 .. S_depth](N) at 10**-scale, by the cheapest of
    three routes.

    The block (_block_row) runs where _head_cutoff finds a cutoff; each
    entry is within one unit of exact. Otherwise the product tree costs
    one integer polynomial product, with no scale in it, and one rounded
    division per entry: S_j = [t**j] P / P(0) with P = prod_{l<=N}
    (l**2 + t), so each entry is correctly rounded (within half a unit).
    The sweep kernel `_backend.dp_row_scaled` costs about depth*N
    multiply-divides on scale-digit mantissas, and each entry ends within
    depth*N/2 units of exact; _tree_row_is_cheaper says which of the two
    runs. Every route is inside every budget the sweep's callers allow for.
    """
    cutoff = _head_cutoff(depth, scale, truncation)
    if cutoff < truncation:
        return _block_row(depth, truncation, cutoff, scale)
    if not _tree_row_is_cheaper(depth, truncation, scale):
        return _backend.dp_row_scaled(depth, truncation, scale)
    coefficients = _truncated_product(1, truncation + 1, depth)
    coefficients += [0] * (depth + 1 - len(coefficients))
    one = 10**scale
    return [div_round_half_even(c * one, coefficients[0])
            for c in coefficients]


def _block_row(depth: int, truncation: int, cutoff: int,
               scale: int) -> list:
    """Mantissa row [S_0 .. S_depth](N) at 10**-scale from
    S_k(N) = sum_j S_j(M) * E_(k-j)(M, N), on scaled integers only.

    At the working scale w = scale + g, g = guard_digits(depth*M): the
    head row S_j(M) from _scaled_row; the block power sums
    P_i = round(Z_i(M+1)*10**w) - round(Z_i(N+1)*10**w); E_k from Newton's
    identities k*E_k = sum_i (-1)**(i-1) E_(k-i) P_i, each divided by
    k*10**w half-even; then each entry sum_j head_j * E_(k-j) divided by
    10**(w+g) half-even. When _within_quarter(depth, cutoff, scale), every
    entry is within one unit of exact: half a unit of final rounding and
    _block_radius below a quarter.
    """
    guard = guard_digits(depth * cutoff)
    work = scale + guard
    one = 10**work
    head = _scaled_row(depth, cutoff, work)
    power_sums = [_zeta_scaled(i, cutoff + 1, work)
                  - _zeta_scaled(i, truncation + 1, work)
                  for i in range(1, depth + 1)]
    block = [one]
    for k in range(1, depth + 1):
        total = 0
        for i in range(1, k + 1):
            term = block[k - i] * power_sums[i - 1]
            total += term if i & 1 else -term
        block.append(div_round_half_even(total, k * one))
    shift = 10 ** (work + guard)
    return [div_round_half_even(
                sum(head[j] * block[n - j] for j in range(n + 1)), shift)
            for n in range(depth + 1)]


def _row_steps(depth: int, truncation: int, scale: int) -> int:
    """Estimated cost of _scaled_row(depth, truncation, scale), in sweep
    digit steps: one step per index, depth entry and mantissa digit.

    On the sweep that is min(depth, N) * N * scale; a step measured 3 to
    35 ns (pure Python, depths 22 to 400, 44 to 10**4 places). The block
    costs as much as a sweep over _block_indices(depth, M). The tree
    counts D**log2(3) for each full-size Karatsuba product of its merges,
    D the decimal length of (N!)**2: each half holds m = min(depth,
    N/2 + 1) coefficients, the k-th about 1 - k/(N/2) of the half's
    digits, which makes about (m - m*m/(N+1))**2 full-size products. It
    adds (scale + D)**1.5 for each scaled entry and scale*D/8 for each
    long division, min(depth, N) + 1 of them, and 2048 per leaf step,
    N*min(depth, LEAF) of them. That count measured 0.04 to 0.45 ns per
    unit (depths 1 to 1000, N from 1 to 10**5, 168 to 10**5 places), so
    64 units make one sweep step and the count bounds the tree from
    above.
    """
    cutoff = _head_cutoff(depth, scale, truncation)
    if cutoff < truncation:
        return depth * _block_indices(depth, cutoff) * scale
    if _tree_row_is_cheaper(depth, truncation, scale):
        digits = int(2 * math.lgamma(truncation + 1) / math.log(10)) + 1
        width = min(depth, truncation // 2 + 1)
        pairs = (width - width * width // (truncation + 1)) ** 2
        entries = min(depth, truncation) + 1
        wide = scale + digits
        return (int(pairs * digits ** math.log2(3))
                + entries * wide * math.isqrt(wide)
                + entries * scale * digits // 8
                + 2048 * truncation * min(depth, LEAF)) // 64
    return min(depth, truncation) * truncation * scale


def partial_sum(
    depth: int,
    truncation: int,
    mode: str = "exact",
    digits: int = 20,
) -> Value:
    """S_depth(truncation), exact by a product tree, or fixed.

    mode "exact" returns a reduced Fraction: with
    P(t) = prod_{l<=N} (l**2 + t), S_depth(N) = [t**depth] P / (N!)**2.
    The product tree builds the two halves of P cut off at degree
    `depth`, and the root forms only the coefficient it returns,
    sum_i left_i * right_(depth-i): depth+1 products of the widest
    operands where a whole row would take (depth+1)*(depth+2)/2. One
    division by (N!)**2 follows, with no per-index gcd as in the Fraction
    sweep.

    mode "fixed" returns a FixedDecimal carrying `digits` requested places
    plus guard_digits(depth*truncation) guard places: entry `depth` of
    _scaled_row(depth, N, scale), by one of its three routes. Well above
    the head cutoff M (the smallest M whose certified block radius is
    below a quarter unit at that scale, about 10**(scale/(2*EM_TERMS+3));
    see _head_cutoff for the cost rule) the block row, at any depth,
    within one unit in the last carried place; otherwise the product
    tree's row, correctly rounded, where _tree_row_is_cheaper says so,
    else the descending-index sweep kernel's, whose at most
    truncation*depth half-even roundings stay clear of the requested
    places.
    """
    _check_depth_truncation(depth, truncation)
    if mode == "exact":
        if depth > truncation:
            return Fraction(0)
        if depth == 0:
            return Fraction(1)
        middle = (truncation + 2) // 2
        left = _truncated_product(1, middle, depth)
        right = _truncated_product(middle, truncation + 1, depth)
        coefficient = sum(a * right[depth - i] for i, a in enumerate(left)
                          if depth - i < len(right))
        return Fraction(coefficient, math.factorial(truncation) ** 2)
    if mode == "fixed":
        if digits < 1:
            raise DomainError("fixed mode requires at least one digit")
        guard = guard_digits(depth * truncation)
        scale = digits + guard
        mantissa = _scaled_row(depth, truncation, scale)[depth]
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


def _sinc_guard(x2: Fraction, powers: int, truncation: int) -> int:
    """Guard places of sinc_series: the row's rounding budget, plus the
    decimal length of x**(2*powers) for |x| > 1, by which row j's
    rounding error is multiplied."""
    guard = guard_digits(max(truncation * powers, powers, 1))
    if x2 > 1:
        growth = x2.numerator**powers // x2.denominator**powers
        guard += len(int_to_decimal(growth))
    return guard


def sinc_work(x, powers: int, truncation: int, digits: int) -> int:
    """Estimated cost of sinc_product(x, truncation, digits) plus
    sinc_series(x, powers, truncation, digits), in sweep digit steps (see
    _row_steps). The product visits every factor, one multiply-divide on
    its scale-digit mantissa each, so it counts truncation*scale steps
    (19 to 42 ns a step for 10**5 to 10**6 factors at 20 digits); the row
    dominates the series."""
    q = Fraction(x)
    product = truncation * (digits + guard_digits(truncation))
    return product + _row_steps(
        powers, truncation, digits + _sinc_guard(q * q, powers, truncation))


def sinc_series(x, powers: int, truncation: int, digits: int) -> FixedDecimal:
    """Truncated alternating series sum_{j=0..powers} (-1)**j S_j(truncation) x**(2j).

    Expanding the sinc product into powers of x**2 makes the coefficient of
    x**(2j) exactly the depth-j nested sum, so this evaluates the expansion
    with both the power count and every nested sum truncated. One row from
    _scaled_row produces all the S_j at once: the block past a short head
    where the truncation is well above the head cutoff, else the product
    tree where that is cheaper (e.g. at hundreds of places) or the sweep;
    each term costs one further half-even rounding. Row j's rounding
    error is multiplied by |x|**(2j), so for |x| > 1 the scale and the
    guard grow by the decimal length of x**(2*powers).
    """
    q = Fraction(x)
    if powers < 0:
        raise DomainError("power count must be nonnegative")
    if digits < 1:
        raise DomainError("at least one digit is required")
    _check_depth_truncation(powers, truncation)
    x2 = q * q
    guard = _sinc_guard(x2, powers, truncation)
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
