"""Benchmark with built-in cross-checks, and the witnesses it runs.

No request runs the witnesses; this benchmark and the tests do. Timing
numbers are only reported after the competing methods have been shown
to agree: the product tree and the three exact witnesses (the Fraction
sweep partial_sum_prefix, tuple enumeration partial_sum_naive, Newton's
identities on exact power sums newton_cross_check) must produce
identical rationals, and the routed fixed-mode value (the power sums by
Newton's identities, or the product tree's row where that is cheaper)
must agree with the sweep kernel `_backend.dp_row_scaled` within the
sweep's rounding budget; pi at d digits must be the half-even rounding
of pi at d + 64 digits from a grown cache. A disagreement anywhere turns
the run into a failure; speed never outranks correctness here.
"""

from __future__ import annotations

import collections
import math
import time
from fractions import Fraction
from itertools import combinations

from . import KERNEL_BACKEND, _backend
from .errors import InfeasibleError
from .exactnum import div_round_half_even
from .reference import PiCache, reference_value
from .series import _check_depth_truncation, partial_sum

__all__ = ["BenchRow", "NAIVE_ENUMERATION_CEILING", "newton_cross_check",
           "partial_sum_naive", "partial_sum_prefix", "run_benchmark"]

# Ceiling on C(N, depth) above which direct tuple enumeration is refused.
NAIVE_ENUMERATION_CEILING = 10**7

# (depth, truncation) grids; small enough for the enumeration witness,
# large enough that the product tree's and the sweep's advantage is visible.
# N = 200 spans more than two of the tree's leaves, so the agreement there
# covers its merges.
ORACLE_GRID = [(1, 35), (2, 35), (3, 35), (4, 35), (2, 200)]
# (depth, truncation, digits) cells of the fixed-mode timing: the routed
# row adds the Euler-Maclaurin tail past a head of 42 to 272 indices at
# 20 and 40 digits and of 56822 at 100, sums every index of N = 3000 at
# 100 digits, and is the product tree's at 2000.
SWEEP_GRID = [(1, 10**4, 20), (1, 10**5, 20), (2, 10**4, 20),
              (4, 10**4, 20), (20, 3000, 20), (32, 10**4, 20),
              (16, 2000, 40), (2, 3000, 100), (2, 10**5, 100),
              (4, 300, 2000)]
REFUSAL_CASE = (5, 100)
# Digit counts of the reference rows: wide sums run to about 4300 digits,
# and 20000 shows how pi's cost grows past them.
REFERENCE_DIGITS = (1000, 4300, 20000)


BenchRow = collections.namedtuple(
    "BenchRow", "section method depth truncation operations seconds status")
BenchRow.__doc__ = """One timed (or refused) benchmark measurement; seconds is
    None when refused, and in the reference section `operations` is the
    digit count."""


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
    e = [Fraction(1)]
    for k in range(1, depth + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1]
                     for i in range(1, k + 1)) / k)
    return e[depth]


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def run_benchmark() -> tuple[list, bool]:
    """All benchmark rows plus an overall agreement verdict.

    Returns (rows, ok); ok is False as soon as any cross-check between
    methods fails, and the offending row says so.
    """
    rows = []
    ok = True

    for depth, truncation in ORACLE_GRID:
        steps = depth * truncation
        routes = [
            ("product-tree", steps,
             lambda: partial_sum(depth, truncation, "exact")),
            ("fraction-sweep", steps,
             lambda: partial_sum_prefix(depth, truncation)[-1]),
            ("enumeration", math.comb(truncation, depth),
             lambda: partial_sum_naive(depth, truncation)),
            ("newton", steps,
             lambda: newton_cross_check(depth, truncation)),
        ]
        timed = [(method, operations, *_timed(fn))
                 for method, operations, fn in routes]
        agree = len({value for _, _, value, _ in timed}) == 1
        if not agree:
            ok = False
        status = "agree" if agree else "MISMATCH"
        for method, operations, _, seconds in timed:
            rows.append(
                BenchRow("oracles", method, depth, truncation,
                         operations, seconds, status)
            )

    depth, truncation = REFUSAL_CASE
    try:
        partial_sum_naive(depth, truncation)
    except InfeasibleError as exc:
        rows.append(
            BenchRow("oracles", "enumeration", depth, truncation,
                     exc.required, None,
                     "refused: %d tuples > ceiling %d"
                     % (exc.required, NAIVE_ENUMERATION_CEILING))
        )
    else:
        ok = False
        rows.append(
            BenchRow("oracles", "enumeration", depth, truncation,
                     math.comb(truncation, depth), None,
                     "MISMATCH: expected refusal did not happen")
        )

    for depth, truncation, digits in SWEEP_GRID:
        routed, routed_seconds = _timed(
            lambda: partial_sum(depth, truncation, "fixed", digits)
        )
        row, sweep_seconds = _timed(
            lambda: _backend.dp_row_scaled(depth, truncation, routed.scale)
        )
        # The sweep is within depth*N/2 units of exact, the routed value
        # within one.
        agree = (2 * abs(routed.mantissa - row[depth])
                 <= depth * truncation + 2)
        if not agree:
            ok = False
        status = "agree" if agree else "MISMATCH"
        for method, seconds in (("routed", routed_seconds),
                                (KERNEL_BACKEND, sweep_seconds)):
            rows.append(
                BenchRow("sweep-fixed", method, depth, truncation,
                         depth * truncation, seconds, status)
            )

    for digits in REFERENCE_DIGITS:
        cache = PiCache()
        narrow, pi_seconds = _timed(lambda: cache.mantissa(digits))
        agree = narrow == div_round_half_even(cache.mantissa(digits + 64),
                                              10**64)
        if not agree:
            ok = False
        status = "agree" if agree else "MISMATCH"
        _, value_seconds = _timed(lambda: reference_value(4, digits))
        rows.append(BenchRow("reference", "pi-cold", 0, 0, digits,
                             pi_seconds, status))
        rows.append(BenchRow("reference", "reference-value", 4, 0, digits,
                             value_seconds, status))

    return rows, ok
