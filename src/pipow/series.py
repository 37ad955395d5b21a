"""Nested reciprocal-square sums and their truncation control.

The depth-n partial sum over truncation N is

    S_n(N) = sum over 1 <= l_1 < l_2 < ... < l_n <= N of
             1 / (l_1**2 * l_2**2 * ... * l_n**2),

the elementary symmetric polynomial of degree n evaluated at x_l = 1/l**2.
As N grows, S_n(N) converges to pi**(2n) / (2n+1)!. This module computes
the partial sums by two routes (a product tree over the integer polynomial
prod (l**2 + t), and Newton's identities on power sums), bounds the
truncation error rigorously, and plans each request of the command line
once. The witnesses both routes are checked against live in `bench`.

Two arithmetic modes: exact rationals (the product tree, bit-for-bit,
practical for small N) and guarded fixed-point decimals. The product tree
serves exact mode, and fixed mode where a measured rule says so: its root
(`tree.reduced_coefficients`) forms only the coefficients [t**j]
prod_{l<=N} (l**2 + t) that are read, exact over their denominator bound
D, and requests at any N share its blocks. Elsewhere a fixed value is an
entry of the row [S_0 .. S_n](N) over 2**bits that the power sums
p_i(N) = sum_{l<=N} l**(-2i) give by Newton's identities (`_newton_row`),
which need every entry below the one returned. Up to an Euler-Maclaurin
cutoff M the power sums are summed term by term; past it p_i(N) =
zeta_i - Z_i(N+1), Z_i the certified Euler-Maclaurin tail and zeta_i the
head 1..M plus Z_i(M+1). M depends only on the working bits, so zeta_i
is kept per precision and shared by every request there (`_zeta_row`).
Each entry is within one unit of exact under a closed-form radius of
O(R * log depth) units, R the largest power-sum error
(`_newton_radius`), so no pass but the row's grows with the depth. The
estimate (`_row_plan`) still charges the head to every request, so it
stays an upper bound, and no refusal depends on what is kept. Of
the row unrounded over its divisor (`_raw_row`), only the entries read
are rounded at 10**-scale: a fixed sum's by `exactnum.div_to_decimal`,
in decimal where D < 10**scale, the sinc series' each by a long division
(`_fixed_row`). Past a head of factors, the sinc product takes its tail
from Euler-Maclaurin tail sums of its own and Newton's identities
(`_product_plan`), so it too costs the same at any truncation.

A plan decides each choice of a request once, and its estimate, its
refusal and its run read it. A row's route, working precision and cost
in digit steps are one `_row_plan`. A sum, converge or table request
(`sum_plan`, `converged_plan`) forms every power of pi**2 it needs, for
the truncations, the tail bounds and the limits, in one chain, and
`series_results` runs the rows; `sinc_plan` counts the sinc series'
powers. Each plan refuses its command line when the estimate passes
STEP_CEILING, before the work it costs.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from decimal import ROUND_CEILING
from fractions import Fraction

from .errors import DomainError, InfeasibleError
from .exactnum import (
    EXACT,
    ROUNDING,
    FixedDecimal,
    decimal_length,
    div_round_half_even,
    div_round_up,
    div_to_decimal,
    guard_digits,
    unit,
    working,
)
from .reference import (
    REFERENCE_GUARD,
    _basel_target,
    _limit_targets,
    _pi_power_ratios,
    basel_power,
    pi_power_work,
)
from . import tree

__all__ = [
    "EXACT_TRUNCATION_LIMIT",
    "STEP_CEILING",
    "SeriesResult",
    "converge",
    "converged_plan",
    "partial_sum",
    "partial_sum_work",
    "required_truncation",
    "row_work_floor",
    "series_results",
    "sinc_plan",
    "sinc_product",
    "sinc_series",
    "sinc_work",
    "sum_plan",
    "tail_bound",
]

# Ceiling on the estimated digit steps (partial_sum_work, sinc_work) of
# every series request of the CLI: a step measured 1.2 to 54 ns, so a
# request at the ceiling runs for at most about 3 s.
STEP_CEILING = 5 * 10**7
# Largest truncation at which `sum` defaults to exact mode: over the bound
# of tree.reduced_coefficients, its blocks divided by their own cofactors,
# exact took 2.1 to 7.6 ms at N = 2000 and 5.2 to 24 ms at 4000 (depths 1
# to 6, cold), fixed 0.1 ms; 2000 still holds.
EXACT_TRUNCATION_LIMIT = 2000
# Euler-Maclaurin correction terms in each tail power sum of fixed mode;
# the head cutoff then grows like 2**(bits / (2*EM_TERMS + 3)).
EM_TERMS = 12
Value = Fraction | FixedDecimal
# The zeta rows of _newton_row, one per working precision (_zeta_row),
# within tree.BLOCK_CACHE_BITS (5 MiB) of memory in all, least recently
# used first. A row of a command line under STEP_CEILING takes at most
# about 0.23 MB (depth 3000 to 4000 at the ceiling), a row of the
# benchmark's sinc cycle about 2 KB.
_ZETAS = tree._BlockCache()


def _check_depth_truncation(depth: int, truncation: int) -> None:
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if truncation < 0:
        raise DomainError("truncation must be nonnegative")


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


def _zeta_scaled(j: int, a: int, bits: int) -> int:
    """The Euler-Maclaurin centre of Z_j(a) times 2**bits, a >= 1,
    rounded half-even."""
    coefficients, denominator, _ = _euler_maclaurin(j)
    g = 0
    for c in coefficients:
        g = g * a + c
    return div_round_half_even(
        g << bits, denominator * a ** (2 * j + 2 * EM_TERMS - 1))


def _em_remainder(j: int, a: int, bits: int) -> int:
    """The Euler-Maclaurin remainder bound of Z_j(a), a >= 1, in units of
    2**-bits rounded up."""
    _, denominator, remainder = _euler_maclaurin(j)
    return div_round_up(remainder << bits,
                        denominator * a ** (2 * j + 2 * EM_TERMS + 1))


def _integer_root(value: int, n: int) -> int:
    """floor(value ** (1/n)) for value >= 1, by integer Newton steps."""
    root = 1 << -(-value.bit_length() // n)
    while True:
        step = ((n - 1) * root + value // root ** (n - 1)) // n
        if step >= root:
            return root
        root = step


def _tail_terms(depth: int, a: int, bits: int) -> int:
    """How many of the tails Z_1(a), ..., Z_depth(a) can exceed one unit
    of 2**-bits: Z_i(a) <= a**(-2i) + a**(1-2i)/(2i-1) <= 2*a**(1-2i),
    at most a unit once a**(2i-1) >= 2**(bits+1), and i only raises the
    power."""
    terms = 0
    while terms < depth and a ** (2 * terms + 1) < 2 << bits:
        terms += 1
    return terms


def _head_length(depth: int, truncation: int, bits: int) -> int:
    """H = min(N, M): the indices whose power sums _newton_row adds term
    by term (none at depth 0, which has no power sum), M the least cutoff
    with _em_remainder(1, M+1) at most one unit of 2**-bits
    (_newton_radius counts every remainder at M+1).

    That remainder is remainder * 2**bits / (denominator * a**(2K+3))
    rounded up (_euler_maclaurin(1)), at most one unit exactly when
    denominator * a**(2K+3) >= remainder * 2**bits. The least such a is
    the floor root r of remainder * 2**bits // denominator, or r + 1 when
    r falls short. As |B_26| > 1, M + 1 passes 2**(bits/(2K+3)), so
    H = N while (N+1)**(2K+3) <= 2**bits. Where the bit length of N+1
    alone shows that, no root is taken: at hundreds of thousands of bits
    the root took 0.4 s.
    """
    power = 2 * EM_TERMS + 3
    if depth < 1:
        return 0
    if (truncation + 1).bit_length() * power <= bits:
        return truncation
    _, denominator, remainder = _euler_maclaurin(1)
    base = _integer_root((remainder << bits) // denominator, power)
    base += denominator * base**power < remainder << bits
    return min(truncation, base - 1)


def _newton_radius(depth: int, largest: int) -> int:
    """Certified bound, in units of 2**-bits, on the distance from exact
    of every E_k of _elementary_row at depth k <= `depth`, when each power
    sum it is given is off by at most R = `largest` units:
    4*(2R + 1)*(L + 1), L the bit length of the depth, valid whenever the
    power sums p_i lie in [0, q_i], q_i = 1 + 1/(2i-1) >= zeta(2i), and
    the bound is below 2**bits.

    With b_i = q_i + r_i*2**-bits, r_i <= R the error of P_i, and
    k*h_k = sum_i b_i*h_(k-i), h_0 = 1, so |e_k| <= h_k, the errors a_k
    of the rounded recurrence obey

        k*a_k <= sum_i [a_(k-i)*b_i + h_(k-i)*r_i] + k/2,

    k/2 for the rounding of each E_k, at most sum_i h_(k-i)/2 as every
    h_j >= 1. In generating functions H(t) = exp(sum_i b_i*t**i/i), and
    A(t) = (R + 1/2)*H(t)*log(1/(1-t)) solves the recurrence with R + 1/2
    for each r_i + 1/2, so a_k <= (R + 1/2)*sum_{j=1..k} h_(k-j)/j.
    Term by term H(t) <= exp(f(t))*(1-t)**-(1+rho), rho = R*2**-bits and
    f(t) = sum_i t**i/(i*(2i-1)): the coefficients of exp(f) are
    nonnegative and sum to exp(f(1)) = exp(2 ln 2) = 4, and those of
    (1-t)**-(1+rho), prod_{l<=j} (1 + rho/l) <= exp(rho*(1 + ln j)), do
    not decrease. So h_m <= 4*exp(rho*(L+1)), as 1 + ln m < L + 1, and
    a_k <= 2*(2R + 1)*(L + 1)*exp(rho*(L+1)); a bound below 2**bits
    makes rho*(L+1) < 1/8 and the exponential below 2.
    """
    return 4 * (2 * largest + 1) * (depth.bit_length() + 1)


def _row_error(depth: int, head: int, tail: bool, bits: int) -> int:
    """R of _newton_radius for _newton_row with a head of H = `head`
    indices and, when `tail`, the tail past it: H for the head floors
    and, with the tail, one more (the two roundings of _zeta_scaled, or a
    tail under one unit left out) plus the remainders at H+1 and N+1,
    each at most _em_remainder(i, H+1)."""
    terms = _tail_terms(depth, head + 1, bits) if tail else 0
    remainder = max((_em_remainder(i, head + 1, bits)
                     for i in range(1, terms + 1)), default=0)
    return head + int(tail) + 2 * remainder


def _newton_plan(depth: int, truncation: int, scale: int) -> tuple:
    """(bits, H) of _newton_row(depth, N, scale): the working precision
    2**-bits and the head length _head_length(depth, N, bits).

    bits is the length of 10**scale plus g guard bits with _newton_radius
    at most 2**(g-1) units, under half a unit at 10**-scale. g starts at
    1 and grows to one more than the radius' length while the check
    fails; past the first pass it failed only where H moved with the bits
    (depths 1 to 5000, 5 to 3000 places, two to four passes).
    """
    base = (10**scale).bit_length()
    guard = 1
    while True:
        bits = base + guard
        head = _head_length(depth, truncation, bits)
        radius = _newton_radius(depth, _row_error(
            depth, head, head < truncation, bits))
        if 2 * radius <= 1 << guard:
            return bits, head
        guard = radius.bit_length() + 1


def _tail_sums(indices: range, head: int, truncation: int,
               bits: int) -> list:
    """[P_i for i in indices]: the power sums p_i over head < l <= N,
    N = truncation, at 2**-bits, as the Euler-Maclaurin tails
    Z_i(head+1) - Z_i(N+1) (_newton_radius counts their error)."""
    return [_zeta_scaled(i, head + 1, bits)
            - _zeta_scaled(i, truncation + 1, bits) for i in indices]


def _elementary_row(sums: list, bits: int) -> list:
    """[E_0 .. E_d], d = len(sums): the elementary symmetric polynomials
    of the variables whose power sums P_1 .. P_d are given at 2**-bits,
    by Newton's identities k*E_k = sum_i (-1)**(i-1) E_(k-i) P_i, each E_k
    rounded once by a shift and a division by k (_newton_radius)."""
    signed = [p if i & 1 else -p for i, p in enumerate(sums, 1)]
    row = [1 << bits]
    for k in range(1, len(sums) + 1):
        total = sum(map(operator.mul, row[::-1], signed))
        row.append(((total >> (bits - 1)) // k + 1) >> 1)
    return row


def _head_sums(depth: int, head: int, bits: int) -> list:
    """[P_1 .. P_depth] over the head 1..H, H = `head`, at 2**-bits: each
    index l adds floor(2**bits / l**(2i)) to P_i by the chain t //= l*l,
    which stops once t reaches 0."""
    one = 1 << bits
    sums = [0] * depth
    for ell in range(1, head + 1):
        square = ell * ell
        t = one
        for i in range(depth):
            t //= square
            if not t:
                break
            sums[i] += t
    return sums


def _zeta_row(depth: int, head: int, bits: int) -> list:
    """[zeta_1 .. zeta_depth], zeta(2i) at 2**-bits as _newton_row forms it
    past its cutoff M = `head`: the head sums over 1..M (_head_sums) plus
    the tail _zeta_scaled(i, M+1) for i <= _tail_terms(depth, M+1, bits).

    M depends only on the bits (_head_length), so the row is kept in
    _ZETAS at them and serves every request there, whatever its N or
    depth: a shallower one by slicing, as neither the chain nor the tail
    terms of an entry depend on the entries after it; a deeper one builds
    it again and replaces it."""
    kept = _ZETAS.row(bits, depth)
    if kept is not None:
        return kept[0]
    row = _head_sums(depth, head, bits)
    for i in range(_tail_terms(depth, head + 1, bits)):
        row[i] += _zeta_scaled(i + 1, head + 1, bits)
    _ZETAS.keep(bits, row, ())
    return row


def _newton_row(depth: int, truncation: int, scale: int) -> tuple:
    """(bits, [E_0 .. E_depth]): the row [S_0 .. S_depth](N) as integers at
    2**-bits from the power sums p_i(N) = sum_{l<=N} l**(-2i) by Newton's
    identities (_elementary_row), with bits and the head H from
    _row_plan, or from _newton_plan where that plan has none (the tree's
    row, or one stopped at its floor past STEP_CEILING).

    Where H = N (or at depth 0) the power sums are the head sums over
    1..N (_head_sums). Past the head, H = M, P_i is the kept zeta row's
    zeta_i (_zeta_row) less the tail _zeta_scaled(i, N+1) where that can
    reach one unit (_tail_terms): the same integers as the head sums plus
    the tail Z_i(M+1) - Z_i(N+1) (_tail_sums), regrouped. The caller
    rounds the entries it reads half-even once at 10**-scale (see
    _raw_row): within half a unit of that rounding plus under half a unit
    of _newton_radius, so within one unit of exact.
    """
    _, _, bits, head = _row_plan(depth, truncation, scale)
    if bits is None:
        bits, head = _newton_plan(depth, truncation, scale)
    if depth and head < truncation:
        sums = _zeta_row(depth, head, bits)
        for i in range(_tail_terms(depth, head + 1, bits)):
            sums[i] -= _zeta_scaled(i + 1, truncation + 1, bits)
    else:
        sums = _head_sums(depth, head, bits)
    return bits, _elementary_row(sums, bits)


def _tree_row_is_cheaper(depth: int, truncation: int, scale: int) -> bool:
    """Whether the product tree takes the row at (depth, N, scale):
    scale >= N * (1 + depth/16).

    The tree's product does not depend on the scale but grows faster than
    N; _newton_row's head grows like N*scale. Timed against it (best of
    2, cold plan, depths 1 to 64, N from 100 to 10**4), the tree overtook
    it at 0.5 to 3 times N places, the factor growing with the depth
    (depth 2, N = 10**4: about 4600; depth 64, N = 1000: about 3000); the
    rule lies at or above every crossover timed from N = 300 on.
    """
    return 16 * scale >= truncation * (16 + depth)


def _raw_row(depth: int, truncation: int, scale: int, first: int) -> tuple:
    """([e_first .. e_depth], divisor), S_j(N) unrounded on the route of
    _row_plan: tree.reduced_coefficients' over their bound D, exact, or
    _newton_row's over 2**bits, within one unit rounded at 10**-scale."""
    if _row_plan(depth, truncation, scale).route == "tree":
        return tree.reduced_coefficients(depth, truncation, first)
    bits, row = _newton_row(depth, truncation, scale)
    return row[first:], 1 << bits


def _fixed_row(depth: int, truncation: int, scale: int, first: int) -> list:
    """_raw_row's entries as mantissas, rounded half-even at 10**-scale."""
    row, divisor = _raw_row(depth, truncation, scale, first)
    one = 10**scale
    return [div_round_half_even(e * one, divisor) for e in row]


RowPlan = collections.namedtuple("RowPlan", "route steps bits head")


@functools.lru_cache(maxsize=1024)
def _row_plan(depth: int, truncation: int, scale: int) -> RowPlan:
    """How the row [S_0 .. S_depth](N) at 10**-scale is formed, decided
    once for its estimate and its run: the route, "tree" or "newton" by
    _tree_row_is_cheaper; the Newton route's bits and head H
    (_newton_plan), None on the tree or where the estimate stopped at its
    floor; and the steps, the cost in the unit of the sweep kernel
    `_backend.dp_row_scaled` (one step per index, depth entry and mantissa
    digit), which measured 3 to 35 ns a step (pure Python, depths 22 to
    400, 44 to 10**4 places).

    The tree counts tree.units, plus (scale + D)**1.5 for each scaled
    entry and scale*D/8 for each long division, min(depth, N) + 1 of
    them. That count measured 0.04 to 0.45 ns per unit (depths 1 to
    1000, N from 1 to 10**5, 168 to 10**5 places), so 64 units make one
    step and the count bounds the tree from above.

    _newton_row counts scale**2/2000 + 3 per depth**2 for Newton's
    identities and scale**2/200 + 150 per depth for the rest, fitted with
    the long division that rounds each entry (263 us at 3000 places);
    then, at head H (_newton_plan), (0.3*bits + 300)/8 per head division,
    H*min(depth, bits/(2*log2 H) + 1) of them, and 4*(bits + 2000) for
    each tail summed (_tail_terms, at most 13 at up to 100 places). The
    head is charged to every request, though past H < N only the first
    at its bits sums it (_zeta_row): the count stays an upper bound, and
    a refusal does not depend on what the process has kept. A
    step took 1.7 to 13 ns for the row alone and 2.7 to 14 ns cold, the
    plan formed each time (depths 1 to 4000, N from the depth to 10**12,
    24 to 1000 places, every estimate under STEP_CEILING). It stops
    unplanned if the first count plus one division for each of
    min(N, 2**(b/(2K+3)) - 1) head indices, b the length of 10**scale,
    passes STEP_CEILING: H is at least that (_head_length, whose
    remainder constant |B_26| is above 1), and forming the plan at
    hundreds of thousands of bits took seconds.
    """
    if _tree_row_is_cheaper(depth, truncation, scale):
        units, digits = tree.units(depth, truncation)
        entries = min(depth, truncation) + 1
        wide = scale + digits
        return RowPlan("tree", (units + entries * wide * math.isqrt(wide)
                                + entries * scale * digits // 8) // 64,
                       None, None)
    steps = (depth * depth * (scale * scale // 2000 + 3)
             + depth * (scale * scale // 200 + 150))
    base = (10**scale).bit_length()
    head = min(truncation, (1 << base // (2 * EM_TERMS + 3)) - 1)
    floor = steps + min(depth, 1) * head * (base * 3 // 10 + 300) // 8
    if floor > STEP_CEILING:
        return RowPlan("newton", floor, None, None)
    bits, head = _newton_plan(depth, truncation, scale)
    chain = min(depth, bits // (2 * max(1, head.bit_length())) + 1)
    steps += head * chain * (bits * 3 // 10 + 300) // 8
    if head < truncation:
        steps += 4 * _tail_terms(depth, head + 1, bits) * (bits + 2000)
    return RowPlan("newton", steps, bits, head)


def partial_sum(
    depth: int,
    truncation: int,
    mode: str = "exact",
    digits: int = 20,
) -> Value:
    """S_depth(truncation), exact by a product tree, or fixed.

    mode "exact" returns a reduced Fraction: with
    P(t) = prod_{l<=N} (l**2 + t), S_depth(N) = [t**depth] P / (N!)**2,
    the one coefficient the tree's root forms, as a / D over the bound D
    on its denominator (tree.reduced_coefficients) and reduced by one gcd.

    mode "fixed" returns a FixedDecimal carrying `digits` requested places
    plus guard_digits(depth*truncation) guard places: entry `depth` of
    _raw_row, the only entry it forms, rounded half-even by div_to_decimal:
    on the tree route a / D, correctly rounded; else Newton's over 2**bits,
    within one unit in the last place carried, well inside the guard.
    """
    _check_depth_truncation(depth, truncation)
    if mode == "exact":
        row, denominator = tree.reduced_coefficients(depth, truncation, depth)
        return Fraction(row[0], denominator)
    if mode == "fixed":
        if digits < 1:
            raise DomainError("fixed mode requires at least one digit")
        guard = guard_digits(depth * truncation)
        scale = digits + guard
        (entry,), divisor = _raw_row(depth, truncation, scale, depth)
        return FixedDecimal._of(div_to_decimal(entry, divisor, scale), scale,
                                guard)
    raise DomainError(f"unknown mode {mode!r}; expected 'exact' or 'fixed'")


def partial_sum_work(depth: int, truncation: int, digits: int,
                     mode: str = "fixed") -> int:
    """Estimated cost of partial_sum(depth, truncation, mode, digits), in
    digit steps: in fixed mode the steps of its _row_plan.

    Exact mode counts tree.units, 64 to a step, plus D**2/2000 for
    reducing and rendering a D-digit rational over (N!)**2, which
    over-counts the sum over the bound of tree.reduced_coefficients: at
    the accepted edges of depths 1, 2, 4, 16, 64 and 300 a step took 3.8,
    4.9, 5.0, 3.9, 3.1 and 1.9 ns cold, as a command line in its own
    process (19 at most over (N!)**2). Its leaf units alone
    (tree.leaf_units) end the estimate past STEP_CEILING.
    """
    if mode == "fixed":
        return _row_plan(depth, truncation,
                         digits + guard_digits(depth * truncation)).steps
    leaves = tree.leaf_units(depth, truncation) // 64
    if leaves > STEP_CEILING:
        return leaves
    units, width = tree.units(depth, truncation)
    return units // 64 + width * width // 2000


def row_work_floor(depth: int, digits: int) -> int:
    """A lower bound, formed without a plan, on the row's count in
    partial_sum_work(d, N, digits) and in sinc_work at d powers, for
    every d >= depth and N >= d.

    Both scale the row by s >= digits + 10 places (guard_digits).
    _newton_row counts at least depth**2 * (s**2/2000 + 3); the product
    tree at least its leaf units (tree.leaf_units) and its min(d, N) + 1
    scaled entries of s + D digits, D the decimal length of (N!)**2,
    which grows with N, so both are taken at N = d = depth. The bound is
    the lesser of the two.
    """
    scale = digits + 10
    newton = depth * depth * (scale * scale // 2000 + 3)
    wide = scale + tree.units(depth, depth)[1]
    product = (tree.leaf_units(depth, depth)
               + (depth + 1) * wide * math.isqrt(wide)) // 64
    return min(newton, product)


def _basel_ceiling(basel: FixedDecimal, power: int,
                   divisor: int) -> FixedDecimal:
    """ceil(U / (divisor * 10**10)) units of 10**-(digits+10), ten of them
    guard places, for U a certified upper bound on (pi**2/6)**power in
    units of 10**-(digits+20), from basel = basel_power(power, digits + 10):
    that carries scale digits+20 and is correctly rounded, so one unit
    more bounds it from above. Power 0 is exactly 1 and needs no slack.

    In decimal: U * 10**-(digits+20), exact, divided by `divisor` rounding
    toward +infinity, then quantized at 10**-(digits+10) rounding up
    again. As divisor >= 1, the quotient is below 10**(adjusted(U) + 1)
    and the division's digits reach 10**-(digits+10); a ceiling on that
    finer grid, then on the coarser one it contains, is the ceiling on the
    coarser one."""
    scale = basel.scale - 10
    upper = basel.decimal
    if power:
        upper = EXACT.add(upper, unit(basel.scale))
    context = working(upper.adjusted() + scale + 2, ROUND_CEILING)
    return FixedDecimal._of(context.divide(upper, divisor).quantize(
        unit(scale), ROUND_CEILING, ROUNDING), scale, 10)


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
    return _basel_ceiling(basel_power(depth - 1, digits + 10), depth - 1,
                          truncation)


SeriesResult = collections.namedtuple(
    "SeriesResult",
    "depth truncation mode value tail_bound reference abs_error")
SeriesResult.__doc__ = """One computed partial sum with its error certificates.

    value is a Fraction in exact mode and a FixedDecimal in fixed mode.
    tail_bound bounds S_depth(infinity) - value from above; abs_error is
    |reference - value| for the reference limit pi**(2*depth)/(2*depth+1)!.
    """


def _refuse_above_step_ceiling(steps: int, request: str | None) -> None:
    """Refuses the command line `request` when its estimated digit steps
    pass STEP_CEILING, quoting a count of more than 15 digits as the
    nearest power of ten. A library call (request None) has no ceiling."""
    if request is not None and steps > STEP_CEILING:
        about = ("%d" % steps if steps < 10**15
                 else "10**%d" % round(math.log10(steps)))
        raise InfeasibleError(
            "%s needs about %s digit steps, above the ceiling of %d; "
            "lower one of these numbers" % (request, about, STEP_CEILING),
            required=steps,
        )


def sum_plan(depth: int, truncation: int, mode: str | None, digits: int,
             request: str | None = None) -> list:
    """[(depth, N, mode, bound, limit)], the row of a sum in `mode`, by
    default exact up to EXACT_TRUNCATION_LIMIT and fixed past it, with
    its tail bound (tail_bound's; at N = 0 the whole series, bounded by
    (pi**2/6)**depth rounded up likewise) and its limit from one chain.
    Before the chain runs, `request` is refused if partial_sum_work plus
    the chain, counted twice as an upper bound, passes STEP_CEILING.
    """
    _check_depth_truncation(depth, truncation)
    if mode is None:
        mode = "exact" if truncation <= EXACT_TRUNCATION_LIMIT else "fixed"
    _refuse_above_step_ceiling(
        partial_sum_work(depth, truncation, digits, mode)
        + 2 * pi_power_work(depth, digits + REFERENCE_GUARD), request)
    power = depth - 1 if truncation else depth
    basel, limit = _pi_power_ratios([
        _basel_target(power, digits + 10),
        *_limit_targets(range(depth, depth + 1), digits)])
    return [(depth, truncation, mode,
             _basel_ceiling(basel, power, max(truncation, 1)), limit)]


def converged_plan(depths: range, digits: int,
                   request: str | None = None) -> list:
    """[(depth, N, "fixed", bound, limit)] for each depth, N =
    required_truncation(depth, digits), all from one chain of powers.

    From the deepest row, each row adds three chains to its depth
    (pi_power_work) and is costed at its floor, then at N
    (partial_sum_work); `request` is refused at the first count past
    STEP_CEILING. The floor is row_work_floor at the places N forces
    without pi: N > 10**digits * 1.6449**(depth-1), as pi**2/6 > 1.6449,
    so the row's guard, guard_digits(depth*N), passes 10 + (depth-1) *
    0.2161 places. The chain runs after the deepest row's floor: it raises
    pi**2 to that depth (0.3 s at depth 5000, 13 s at 20000). N at depth
    1 needs no pi, (pi**2/6)**0 = 1, so a plan of that row alone runs the
    chain last: pi at 99000 digits takes a second.
    """
    _check_converge(depths[0], digits)

    def chain():
        return _pi_power_ratios([_basel_target(depth - 1, digits + 10)
                                 for depth in depths]
                                + _limit_targets(depths, digits))

    values, truncations, steps = None, [], 0
    for depth in reversed(depths):
        steps += 3 * pi_power_work(depth, digits + REFERENCE_GUARD)
        _refuse_above_step_ceiling(steps + row_work_floor(
            depth, digits + (depth - 1) * 2161 // 10000), request)
        if depth > 1:
            values = values or chain()
            basel = values[depth - depths[0]]
        else:
            basel = FixedDecimal._of(EXACT.quantize(unit(0), unit(
                digits + 20)), digits + 20, 10)
        truncation = _basel_ceiling(basel, depth - 1, 10**10 - 1).mantissa
        steps += partial_sum_work(depth, truncation, digits)
        _refuse_above_step_ceiling(steps, request)
        truncations.insert(0, truncation)
    values = values or chain()
    return [(depth, truncation, "fixed",
             _basel_ceiling(basel, depth - 1, truncation), limit)
            for depth, truncation, basel, limit in zip(
                depths, truncations, values, values[len(depths):])]


def series_results(plan: list, digits: int) -> list:
    """The SeriesResult of each row of sum_plan or converged_plan:
    S_depth(N) at `digits` places, the row's bound and limit, and the
    observed error, rounded half-even at digits plus ten places for an
    exact value p/q: |L*10**10*q - p*10**(digits+20)| / q for the limit's
    mantissa L at 10**-(digits+10), in integers, which half-even rounding,
    symmetric about 0, takes to the rounded |limit - p/q|."""
    results = []
    for depth, truncation, mode, bound, limit in plan:
        value = partial_sum(depth, truncation, mode, digits)
        if mode == "exact":
            p, q = value.numerator, value.denominator
            error = FixedDecimal(div_round_half_even(
                abs(limit.mantissa * 10**10 * q - p * 10 ** (digits + 20)),
                q), digits + 20, 10)
        else:
            error = abs(limit - value)
        results.append(SeriesResult(depth, truncation, mode, value, bound,
                                    limit, error))
    return results


def _check_converge(depth: int, digits: int) -> None:
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if digits < 1:
        raise DomainError("at least one digit is required")


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
    _check_converge(depth, digits)
    return _basel_ceiling(basel_power(depth - 1, digits + 10), depth - 1,
                          10**10 - 1).mantissa


def converge(depth: int, digits: int) -> SeriesResult:
    """Smallest truncation whose tail bound drops below 10**-digits.

    Chooses N = required_truncation(depth, digits), computes the
    fixed-mode partial sum there, and packages it with the bound, the
    reference limit, and the observed absolute error, all three from the
    chain that gave N (converged_plan). Past the Euler-Maclaurin cutoff
    the row costs the same at any N, so partial_sum_work(depth, N, digits)
    grows with depth and digits only.
    """
    return series_results(converged_plan(range(depth, depth + 1), digits),
                          digits)[0]


ProductPlan = collections.namedtuple("ProductPlan",
                                     "steps bits shift head powers sums")


@functools.lru_cache(maxsize=1)
def _product_plan(x: Fraction, factors: int, digits: int) -> ProductPlan:
    """How sinc_product(x, factors, digits) is formed, decided once for
    its estimate and its run: the split of _split_plan where it counts
    fewer steps, else the per-factor loop, factors*scale steps, with head
    None. The one plan kept serves the request in flight: sinc_work forms
    it and sinc_product reads it."""
    loop = ProductPlan(factors * (digits + guard_digits(factors)),
                       None, None, None, None, None)
    split = _split_plan(x, factors, digits)
    return split if split and split.steps < loop.steps else loop


def _split_plan(x: Fraction, factors: int,
                digits: int) -> ProductPlan | None:
    """The ProductPlan of sinc_product split at a head K below N =
    factors, or None where no such head is admitted.

    K is at least x**2 and 1, so every tail factor lies in (0, 1] and the
    weighed power sums c_i = x**(2i)*p_i of the tail K < k <= N lie in
    [0, q_i] of _newton_radius: c_i <= (K+1)**-i + (K+1)**(1-i)/(2i-1).
    K is the least such head _head_length admits at bits = b + g, b the
    length of 10**scale and g guard bits. The counts are taken at those
    working bits, and the tail sums carry `shift` more:

    - `powers` n, the least with the dropped powers D under one unit, or
      all N - K: e_j <= p_1**j/j! and p_1 < 1/K, so with r = x**2/K <= 1
      the powers past n sum to at most 2*r**(n+1)/(n+1)!;
    - `sums` m <= n, the c_i that can reach one unit, c_i < 2*x**(2i)*
      (K+1)**(1-2i); each one left out is under one unit;
    - `shift`, the least s with 2**s >= x**(2m), so that weighing P_i
      by x**(2i) leaves c_i off by at most
      R = (1 + 2*_em_remainder(i, K+1))*x**(2i)/2**shift + 1 units.

    The tail sum_{j<=n} (-1)**j x**(2j)*e_j is then within n*rho + D
    units, rho = _newton_radius(n, R), and its product with the head A is
    within half a unit at 10**-scale once 8*(n*rho + D)*10**scale <=
    2**bits, as |A| < 4: |sin(pi x)/(pi x)| <= 1, and the tail past K
    keeps prod_{k>K} (1 - x**2/k**2) >= exp(-4/3), since log(1 - t) >=
    -4t/3 for t <= 1/4. g grows until that holds.

    The split counts K*scale for the head, 5000 for the plan, formed once
    a request (_product_plan), (bits + shift + 700) for each tail sum and
    (bits/16 + 2) per n**2 for Newton's identities. A step
    took 1.6 to 12 ns (best of 3 with the row's plan formed, 1 to 100
    digits, |x| from 0 to 100, N from 300 to 10**9), 4 to 9 ns at 20
    digits, below the loop's 19 to 42 ns (sinc_work).
    """
    scale = digits + guard_digits(factors)
    p2, q2 = x.numerator ** 2, x.denominator ** 2
    least = max(1, div_round_up(p2, q2))
    base = (10**scale).bit_length()
    guard = 1
    while True:
        bits = base + guard
        head = max(least, _head_length(1, factors, bits))
        if head >= factors:
            return None
        count, left, right = 0, 2 * p2 << bits, head * q2
        while count < factors - head and left > right:
            count += 1
            left *= p2
            right *= head * q2 * (count + 1)
        dropped = div_round_up(left, right) if count < factors - head else 0
        terms, left, right = 0, 2 * p2 << bits, q2 * (head + 1)
        while terms < count and left >= right:
            terms += 1
            left *= p2
            right *= q2 * (head + 1) ** 2
        shift = (div_round_up(p2**terms, q2**terms) - 1).bit_length()
        largest = max([div_round_up(
            (1 + 2 * _em_remainder(i, head + 1, bits + shift)) * p2**i,
            q2**i << shift) + 1 for i in range(1, terms + 1)], default=1)
        error = 8 * (count * _newton_radius(count, largest) + dropped)
        short = (error * 10**scale).bit_length() - bits
        if short <= 0:
            break
        guard += short
    steps = (head * scale + 5000 + terms * (bits + shift + 700)
             + count * count * (bits // 16 + 2))
    return ProductPlan(steps, bits, shift, head, count, terms)


def sinc_product(x, factors: int, digits: int) -> FixedDecimal:
    """Partial product prod_{k=1..factors} (1 - x**2/k**2) in fixed point,
    at digits + guard_digits(factors) places.

    This is the truncated product form of sin(pi*x)/(pi*x). Each factor
    of the head is applied as one exact rational multiplication followed
    by one half-even rounding. With no split (_product_plan) the head is
    every factor, and the result is within `factors` units in the last
    guarded place of the exact partial product.

    Where _product_plan splits at K, the head stops at K and the tail
    prod_{K<k<=N} (1 - x**2/k**2) = sum_j (-1)**j x**(2j)*e_j comes from
    Newton's identities (_elementary_row) on the tail power sums
    (_tail_sums) weighed by x**(2i), at 2**-bits; head times tail is
    rounded half-even once. The head is within 2K units: the size of
    A_k = prod_{j<=k} (1 - x**2/j**2) rises while x**2 > 2*k**2, then
    falls, so each rounding grows by at most max(1, |A_K|) < 4
    (_split_plan). The result is then within 2K + 2 units, at a cost that
    does not grow with N past the head.

    x = 0 or factors = 0 give exactly 1, and an integer x with
    |x| <= factors exactly 0.
    """
    q = Fraction(x)
    if factors < 0:
        raise DomainError("factor count must be nonnegative")
    if digits < 1:
        raise DomainError("at least one digit is required")
    guard = guard_digits(factors)
    scale = digits + guard
    p2 = q.numerator * q.numerator
    q2 = q.denominator * q.denominator
    _, bits, shift, head, powers, terms = _product_plan(q, factors, digits)
    acc = 10**scale
    for k in range(1, (factors if head is None else head) + 1):
        den = k * k * q2
        acc = div_round_half_even(acc * (den - p2), den)
    if head is None:
        return FixedDecimal(acc, scale, guard)
    sums = _tail_sums(range(1, terms + 1), head, factors, bits + shift)
    weighed = [div_round_half_even(p * p2**i, q2**i << shift)
               for i, p in enumerate(sums, 1)]
    row = _elementary_row(weighed + [0] * (powers - terms), bits)
    tail = sum(row[::2]) - sum(row[1::2])
    return FixedDecimal(div_round_half_even(acc * tail, 1 << bits), scale,
                        guard)


def _sinc_guard(x2: Fraction, powers: int, truncation: int) -> int:
    """Guard places of sinc_series: the row's rounding budget, plus the
    decimal length of x**(2*powers) for |x| > 1, by which row j's
    rounding error is multiplied."""
    guard = guard_digits(max(truncation * powers, powers, 1))
    if x2 > 1:
        guard += decimal_length(x2.numerator**powers
                                // x2.denominator**powers)
    return guard


def sinc_work(x, powers: int, truncation: int, digits: int) -> int:
    """Estimated cost of sinc_product(x, truncation, digits) plus
    sinc_series(x, powers, truncation, digits), plus
    reference.sinc_taylor(x, digits) for 0 < |x| <= 2, in digit steps
    (see _row_plan).

    The product counts the steps of _product_plan: the per-factor loop,
    one multiply-divide on its scale-digit mantissa a factor, counts
    truncation*scale (19 to 42 ns a step for 10**5 to 10**6 factors at 20
    digits); the split counts its head, K*scale, and its tail, which
    does not grow with the truncation. The row dominates the series
    (_row_plan). The Taylor sum takes about w/log(w) terms at
    w = digits + REFERENCE_GUARD places, each one full-width product,
    and counts w**2.6/500 steps: timed cold at 1000 to 20000 digits for
    x = 1/1000, 1/2 and 2, a step took 8.7 to 25 ns.
    """
    q = Fraction(x)
    taylor = 0
    if 0 < abs(q) <= 2:
        taylor = int((digits + REFERENCE_GUARD) ** 2.6) // 500
    return _product_plan(q, truncation, digits).steps + taylor + _row_plan(
        powers, truncation,
        digits + _sinc_guard(q * q, powers, truncation)).steps


def _sinc_powers(x: Fraction, digits: int, terms: int) -> int:
    """Power cutoff for the sinc series: enough alternating terms that the
    first omitted one is below 10**-(digits+5), using pi < 16/5, and never
    more than the truncation `terms`, since S_j(terms) = 0 for j > terms.

    Term j is (a/b)**(2j) / (2j+1)!, a/b = 16|x|/5, so it is small when
    numerator = a**(2j) * 10**(digits+5) is below denominator =
    b**(2j) * (2j+1)!; both are carried from j = 1, one product each a
    step. The terms rise while (2j)*(2j+1) <= (a/b)**2 and fall after, so
    the small terms are exactly those from the first one on.
    """
    if terms < 1:
        return 0
    a2, b2 = (16 * x.numerator) ** 2, (5 * x.denominator) ** 2
    numerator, denominator = a2 * 10 ** (digits + 5), 6 * b2
    j = 1
    while j < terms and numerator >= denominator:
        j += 1
        numerator *= a2
        denominator *= b2 * (2 * j) * (2 * j + 1)
    return j


def _sinc_power_floor(x: Fraction, terms: int) -> int:
    """A lower bound on _sinc_powers(x, digits, terms), with no loop: term
    j is at least 1 while n = 2j+1 has n! <= c**(n-1), c = 16|x|/5, and
    the count is the first term below 1.

    n! <= n**(n-1) gives that for n <= c, so the count is at least
    (floor(c) + 1)//2. For c >= 18 it holds up to n = 2c, so the count is
    at least floor(c): n! <= e*sqrt(n)*(n/e)**n, and for c < n <= 2c,
    e*sqrt(n)*c*(2/e)**n falls with n and is at most 1 at n = c."""
    c = 16 * abs(x.numerator) // (5 * x.denominator)
    return min(terms, c if c >= 18 else (c + 1) // 2)


def sinc_plan(x: Fraction, terms: int, digits: int, request: str) -> int:
    """The power count of the command line `request` (_sinc_powers),
    refused before any work if sinc_work passes STEP_CEILING: first the
    row's floor (row_work_floor) at the power floor, since the count's
    search grows with |x|, then the whole estimate at the count."""
    _refuse_above_step_ceiling(
        row_work_floor(_sinc_power_floor(x, terms), digits), request)
    powers = _sinc_powers(x, digits, terms)
    _refuse_above_step_ceiling(sinc_work(x, powers, terms, digits), request)
    return powers


def sinc_series(x, powers: int, truncation: int, digits: int) -> FixedDecimal:
    """Truncated alternating series sum_{j=0..powers} (-1)**j S_j(truncation) x**(2j).

    Expanding the sinc product into powers of x**2 makes the coefficient of
    x**(2j) exactly the depth-j nested sum, so this evaluates the expansion
    with both the power count and every nested sum truncated. One row from
    _fixed_row produces all the S_j at once: the product tree where that
    is cheaper (e.g. at hundreds of places), else the power sums by
    Newton's identities; each term costs one further half-even rounding.
    Row j's rounding error is multiplied by |x|**(2j), so for |x| > 1 the
    scale and the guard grow by the decimal length of x**(2*powers).

    The row costs its _row_plan steps (sinc_work); past the head H of the
    Newton route that does not grow with the truncation.
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
    row = _fixed_row(powers, truncation, scale, 0)
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
