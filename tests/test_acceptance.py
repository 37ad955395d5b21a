"""Acceptance gate: nine criteria, one test each, pinned tolerances.

Run with -v to get one PASS/FAIL line per criterion. Each test also
prints a CRITERION line with the measured margin so failures carry
context. Runtime budgets are asserted, not just documented.

Tolerance provenance:
- The fifty-digit constants are classical values of pi**(2n)/(2n+1)!
  checkable against any computer algebra system; published printouts of
  pi**4/5! are known to disagree in the fiftieth digit depending on
  whether the display truncates or rounds, so the comparison allows one
  unit in the last place.
- All other criteria are either exact (zero tolerance) or inequalities
  whose margins are mathematical facts (integral brackets on the zeta
  tail), asserted as exact Fraction comparisons.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import mpmath as mp

from pipow.bench import (
    newton_cross_check,
    partial_sum_naive,
    partial_sum_prefix,
)
from pipow.reference import basel_power, reference_value, sinc_taylor
from pipow.series import (
    partial_sum,
    sinc_product,
    sinc_series,
    tail_bound,
)
from pipow.symmetric import elementary_symmetric, verify_expansion

mp.mp.dps = 120


def mp_fraction(value) -> Fraction:
    sign, man, exp, _ = mp.mpf(value)._mpf_
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


def decimal_literal(text: str) -> Fraction:
    whole, _, frac = text.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac))


def report(number: int, name: str, detail: str) -> None:
    print(f"CRITERION {number} ({name}): PASS - {detail}")


# Fifty-digit values of pi**(2n)/(2n+1)! for n = 2, 3, 4; the last entry
# carries one extra printed digit in the original tabulation.
FIFTY_DIGIT_VALUES = {
    2: "0.81174242528335364363700277240587592708106321393904",
    3: "0.19075182412208421369647211183579759898159077938116",
    4: "0.026147847817654800504653261419496157949452103923173",
}


def test_criterion_1_fifty_digit_reference_reproduction():
    start = time.perf_counter()
    worst = Fraction(0)
    for depth, golden_text in FIFTY_DIGIT_VALUES.items():
        golden = decimal_literal(golden_text)
        mine = decimal_literal(reference_value(depth, 50).to_decimal_string())
        distance = abs(mine - golden)
        worst = max(worst, distance)
        # At most one unit in the fiftieth fractional digit.
        assert distance <= Fraction(1, 10**50), f"depth {depth}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "fifty-digit-reference",
           f"worst deviation {float(worst):.1e}, {elapsed:.3f}s")


def test_criterion_2_basel_convergence_at_one_million():
    start = time.perf_counter()
    n_terms = 10**6
    value = partial_sum(1, n_terms, mode="fixed", digits=12).as_fraction()
    limit = reference_value(1, 30).as_fraction()
    gap = limit - value
    assert Fraction(1, n_terms + 1) <= gap <= Fraction(1, n_terms)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, "basel-one-million",
           f"gap {float(gap):.6e} inside [1/(N+1), 1/N], {elapsed:.2f}s")


def test_criterion_3_depth_two_convergence():
    start = time.perf_counter()
    n_terms = 10**5
    value = partial_sum(2, n_terms, mode="fixed", digits=12).as_fraction()
    limit = reference_value(2, 30).as_fraction()
    gap = limit - value
    bound = basel_power(1, 30).as_fraction() / n_terms
    assert 0 < gap <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "depth-two-convergence",
           f"gap {float(gap):.6e} <= {float(bound):.6e}, {elapsed:.2f}s")


def test_criterion_4_three_way_exact_oracle_agreement():
    start = time.perf_counter()
    checked = 0
    for depth in range(1, 5):
        for truncation in range(depth, 41):
            sweep = partial_sum(depth, truncation, mode="exact")
            naive = partial_sum_naive(depth, truncation)
            newton = newton_cross_check(depth, truncation)
            assert sweep == naive == newton, (depth, truncation)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, "three-way-exact-agreement",
           f"{checked} (depth, truncation) pairs equal, {elapsed:.2f}s")


def test_criterion_5_expansion_theorem_verification():
    start = time.perf_counter()
    for n_vars in range(0, 7):
        outcome = verify_expansion(n_vars)
        assert outcome.passed, outcome.summary()
        row = elementary_symmetric(n_vars)
        for k in range(0, n_vars + 1):
            count = len(row[k])
            assert count == math.comb(n_vars, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, "expansion-theorem",
           f"verified through 6 variables, {elapsed:.2f}s")


def test_criterion_6_exact_spot_values():
    assert partial_sum(2, 2, mode="exact") == Fraction(1, 4)
    assert partial_sum(2, 3, mode="exact") == Fraction(7, 18)
    assert partial_sum(3, 3, mode="exact") == Fraction(1, 36)
    four_terms = (Fraction(1, 36) + Fraction(1, 64) + Fraction(1, 144)
                  + Fraction(1, 576))
    assert partial_sum(3, 4, mode="exact") == four_terms
    report(6, "exact-spot-values", "all four rationals exact")


def test_criterion_7_tail_bound_soundness():
    start = time.perf_counter()
    horizon = 200
    checked = 0
    for depth in range(1, 5):
        prefix = partial_sum_prefix(depth, horizon)
        limit = reference_value(depth, 30).as_fraction()
        for truncation in range(depth, horizon + 1):
            gap = limit - prefix[truncation]
            bound = tail_bound(depth, truncation, 30).as_fraction()
            assert 0 <= gap <= bound, (depth, truncation)
            checked += 1
    elapsed = time.perf_counter() - start
    report(7, "tail-bound-soundness",
           f"{checked} (depth, truncation) pairs sound, {elapsed:.2f}s")


def test_criterion_8_sinc_consistency():
    x = Fraction(1, 2)
    target = mp_fraction(+(2 / mp.pi))  # independent value of sinc(1/2)
    errors = [abs(sinc_product(x, factors, 20).as_fraction() - target)
              for factors in (10, 100, 1000)]
    assert errors[2] < errors[1] < errors[0]
    series = sinc_series(x, 6, 1000, 20).as_fraction()
    taylor = sinc_taylor(x, 20).as_fraction()
    deviation = abs(series - taylor)
    assert deviation < Fraction(1, 10**3)  # three-decimal-digit agreement
    report(8, "sinc-consistency",
           f"product errors {[float(e) for e in errors]}, "
           f"series vs direct {float(deviation):.2e}")


def test_criterion_9_upper_bound_invariant():
    # Independent certification: an integer sweep at scale 30 that rounds
    # every division UP over-approximates each partial sum, and the
    # thresholds under-approximate (pi**2/6)**n via an oracle value, so
    # over < under implies the true inequality for every prefix.
    start = time.perf_counter()
    scale_unit = 10**30
    horizon = 10**4
    max_depth = 5
    basel = mp_fraction(+(mp.pi**2 / 6))
    thresholds = [
        (basel**depth * scale_unit).__floor__() - 1
        for depth in range(max_depth + 1)
    ]
    row = [scale_unit] + [0] * max_depth
    margin = None
    for ell in range(1, horizon + 1):
        square = ell * ell
        for k in range(min(max_depth, ell), 0, -1):
            row[k] += -(-row[k - 1] // square)  # ceiling division
        for k in range(1, min(max_depth, ell) + 1):
            assert row[k] < thresholds[k], (k, ell)
    margin = min(
        Fraction(thresholds[k] - row[k], scale_unit)
        for k in range(1, max_depth + 1)
    )
    elapsed = time.perf_counter() - start
    report(9, "upper-bound-invariant",
           f"min margin {float(margin):.3e} at horizon {horizon}, "
           f"{elapsed:.2f}s")
