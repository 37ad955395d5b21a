"""Nested-sum evaluation, truncation tails, and convergence planning.

Cross-validation strategy: the product tree behind partial_sum and the
exact witnesses in pipow.bench (the Fraction sweep behind
partial_sum_prefix, the literal tuple enumeration, and the Newton
power-sum identities) are four independent routes to the same exact
rational; they must agree bit for bit. Tail bounds are checked
for soundness against exact prefixes.
"""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipow import _backend, exactnum, series, tree
from pipow.bench import (
    newton_cross_check,
    partial_sum_naive,
    partial_sum_prefix,
)
from pipow.errors import DomainError, InfeasibleError
from pipow.exactnum import (
    FixedDecimal,
    div_round_half_even,
    div_round_up,
    guard_digits,
)
from pipow.reference import basel_power, reference_value, sinc_taylor
from pipow.series import (
    EXACT_TRUNCATION_LIMIT,
    converge,
    partial_sum,
    required_truncation,
    sinc_product,
    sinc_series,
    sinc_work,
    tail_bound,
)
from pipow.symmetric import elementary_symmetric, substitute
from pipow.tree import LEAF


def direct_expansion(low, high, depth):
    """[c_0 .. c_min(depth, high-low)] of P(t) = prod_{l=low..high-1}
    (l**2 + t), with no product tree. Every coefficient of P is positive
    and they add up to P(1), so at B = 2**W > P(1) the number P(B) mod
    B**(depth+1) holds c_0 .. c_depth as its base-B digits; each factor
    l**2 + B is a product by l**2 and a shift."""
    width = math.prod(ell * ell + 1 for ell in range(low, high)).bit_length()
    mask = (1 << width * (depth + 1)) - 1
    value = 1
    for ell in range(low, high):
        value = (value * (ell * ell) + (value << width)) & mask
    return [value >> width * k & (1 << width) - 1
            for k in range(min(depth, high - low) + 1)]


@functools.cache
def first_primes(count):
    """The first `count` primes, by trial division."""
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def undivided(reduced):
    """The row of a (row, exponents) pair of tree._truncated_product or of
    a (c_0, row, exponents) triple of tree.coefficients times the
    cofactor prod_p p**(2*e_p) it was divided by."""
    *_, row, exponents = reduced
    root = math.prod(p**e for p, e in zip(first_primes(len(exponents)),
                                          exponents))
    return [c * root * root for c in row]


def exact_reference_window(depth, digits=30):
    """Fraction bracket [lo, hi] around the limit pi^(2n)/(2n+1)!."""
    fd = reference_value(depth, digits)
    ulp = Fraction(1, 10**fd.scale)
    center = fd.as_fraction()
    return center - 2 * ulp, center + 2 * ulp


class TestExactSpotValues:
    @pytest.mark.parametrize("depth, truncation, expected", [
        (1, 1, Fraction(1)),
        (1, 3, Fraction(49, 36)),
        (2, 2, Fraction(1, 4)),
        (2, 3, Fraction(7, 18)),
        (3, 3, Fraction(1, 36)),
        (3, 4, Fraction(5, 96)),
        (4, 4, Fraction(1, 576)),
    ])
    def test_known_rationals(self, depth, truncation, expected):
        assert partial_sum(depth, truncation, mode="exact") == expected

    def test_depth_three_four_terms_by_hand(self):
        # Tuples for S_3(4): (1,2,3), (1,2,4), (1,3,4), (2,3,4).
        by_hand = (Fraction(1, 36) + Fraction(1, 64) + Fraction(1, 144)
                   + Fraction(1, 576))
        assert by_hand == Fraction(5, 96)
        assert partial_sum(3, 4, mode="exact") == by_hand

    def test_degenerate_cases(self):
        assert partial_sum(0, 5, mode="exact") == Fraction(1)
        assert partial_sum(3, 2, mode="exact") == Fraction(0)
        assert partial_sum(1, 0, mode="exact") == Fraction(0)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_sweep_naive_newton(self, depth):
        for truncation in range(depth, 16):
            sweep = partial_sum(depth, truncation, mode="exact")
            naive = partial_sum_naive(depth, truncation)
            newton = newton_cross_check(depth, truncation)
            assert sweep == naive == newton

    @settings(derandomize=True, max_examples=40)
    @given(depth=st.integers(1, 4), truncation=st.integers(0, 12))
    def test_sweep_equals_symbolic_substitution(self, depth, truncation):
        # The sweep specializes e_depth over N variables at x_l = 1/l**2.
        row = elementary_symmetric(truncation)
        e_poly = row[depth] if depth < len(row) else []
        assignment = {i: Fraction(1, i * i)
                      for i in range(1, truncation + 1)}
        assert partial_sum(depth, truncation, mode="exact") == substitute(
            e_poly, assignment)

    def test_naive_refuses_large_enumerations(self):
        with pytest.raises(InfeasibleError) as info:
            partial_sum_naive(5, 100)
        assert info.value.required == 75287520


class TestProductTreeAgainstSweep:
    @pytest.mark.parametrize("depth", range(9))
    def test_tree_sweep_newton(self, depth):
        # Covers N == 0, depth > N, depth == N, depth == 0, and depth above
        # either half of the root's split (e.g. depth 6, N = 7).
        prefix = partial_sum_prefix(depth, 60)
        for truncation in range(61):
            tree = partial_sum(depth, truncation, mode="exact")
            assert type(tree) is Fraction
            assert tree == prefix[truncation] == newton_cross_check(
                depth, truncation)

    @pytest.mark.parametrize("truncation", [
        LEAF - 1, LEAF, LEAF + 1, 2 * LEAF - 1, 2 * LEAF + 1, 300])
    def test_tree_crosses_leaves(self, truncation):
        # One leaf serves N <= LEAF whole; above it the root splits after
        # the block [1, LEAF], and from 2*LEAF + 1 on after a block that
        # merges leaves.
        for depth in range(9):
            assert (partial_sum(depth, truncation, mode="exact")
                    == partial_sum_prefix(depth, truncation)[-1]
                    == newton_cross_check(depth, truncation))

    @pytest.mark.parametrize("low, high", [
        (1, 1), (2, 3), (5, 5 + LEAF), (40, 41 + LEAF), (100, 99 + 2 * LEAF),
        (1000, 1001 + 2 * LEAF)])
    def test_ranges_match_a_direct_expansion(self, low, high):
        digits = direct_expansion(low, high, 8)
        for depth in range(9):
            assert undivided(tree._truncated_product(
                low, high, depth)) == digits[:min(depth, high - low) + 1]

    def test_bit_identical_at_depth_six(self):
        tree = partial_sum(6, 600, mode="exact")
        sweep = partial_sum_prefix(6, 600)[-1]
        assert (tree.numerator, tree.denominator) == (
            sweep.numerator, sweep.denominator)


class TestPrefixSweep:
    def test_prefix_matches_singles(self):
        prefix = partial_sum_prefix(2, 30)
        assert len(prefix) == 31
        for n_cut in (0, 1, 2, 7, 30):
            assert prefix[n_cut] == partial_sum(2, n_cut, mode="exact")

    def test_prefix_is_monotone(self):
        prefix = partial_sum_prefix(3, 40)
        for a, b in zip(prefix, prefix[1:]):
            assert b >= a


class TestFixedModeAccuracy:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("truncation", [1, 17, 300])
    def test_fixed_tracks_exact(self, depth, truncation):
        digits = 25
        fixed = partial_sum(depth, truncation, mode="fixed", digits=digits)
        exact = partial_sum(depth, truncation, mode="exact")
        assert isinstance(fixed, FixedDecimal)
        assert abs(fixed.as_fraction() - exact) < Fraction(1, 10**digits)

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            partial_sum(1, 5, mode="float")
        with pytest.raises(DomainError):
            partial_sum(-1, 5)
        with pytest.raises(DomainError):
            partial_sum(1, -2)
        with pytest.raises(DomainError):
            partial_sum(1, 5, mode="fixed", digits=0)


@functools.cache
def exact_row(truncation, depth=24):
    """[t**j] prod_{l<=N} (l**2 + t) for j <= depth: S_j(N) is entry j
    over entry 0."""
    coefficients = undivided(tree._truncated_product(1, truncation + 1, depth))
    return coefficients + [0] * (depth + 1 - len(coefficients))


def within_one_unit(row, truncation, scale):
    exact = exact_row(truncation)
    return all(abs(m * exact[0] - c * 10**scale) < exact[0]
               for m, c in zip(row, exact))


def row_radii(depth, head, tail, bits):
    """[r_1 .. r_depth], the power-sum errors of _newton_row in units of
    2**-bits: the H head floors, with the tail one more unit and the two
    Euler-Maclaurin remainders of each summed tail."""
    terms = series._tail_terms(depth, head + 1, bits) if tail else 0
    return [head + int(tail) + (2 * series._em_remainder(i, head + 1, bits)
                                if i <= terms else 0)
            for i in range(1, depth + 1)]


def exact_newton_radius(radii, bits):
    """The largest a_k of the error recurrence that _newton_radius
    bounds, in exact rationals and units of 2**-bits:

        k*h_k = sum_i b_i*h_(k-i),  h_0 = 1,
        k*a_k = sum_i [a_(k-i)*b_i + h_(k-i)*r_i] + k/2,  a_0 = 0,

    b_i = q_i + r_i*2**-bits, q_i = 1 + 1/(2i-1), r_i = radii[i-1] the
    power-sum errors and k/2 for the rounding of each E_k. Fractions
    would reduce at every step; instead h_k = eta_k / (k! * d**k) and
    a_k = alpha_k / (2 * k! * d**k), d the common denominator of the b_i,
    and each k sums its terms by Horner's rule on integers."""
    depth = len(radii)
    one = 2**bits
    odd = math.lcm(*range(1, 2 * depth, 2))
    d = one * odd
    beta = [(2 * i * one + r * (2 * i - 1)) * (odd // (2 * i - 1))
            for i, r in enumerate(radii, 1)]
    eta, alpha = [1], [0]
    for k in range(1, depth + 1):
        h = a = 0
        for i in range(k, 0, -1):
            h = beta[i - 1] * eta[k - i] + (k - i) * d * h
            a = (beta[i - 1] * alpha[k - i] + 2 * radii[i - 1] * d * eta[k - i]
                 + (k - i) * d * a)
        eta.append(h)
        alpha.append(a + math.factorial(k) * d**k)
    return max(Fraction(a, 2 * math.factorial(k) * d**k)
               for k, a in enumerate(alpha[1:], 1))


class TestBlockEvaluation:
    """Fixed-mode rows from the power sums by Newton's identities: the
    head 1..H summed term by term, the Euler-Maclaurin tail past it, all
    on integers at 2**-bits, one half-even rounding per entry."""

    @staticmethod
    def fixed_at_scale(depth, truncation, scale):
        """partial_sum in fixed mode with the digit count that puts its
        working scale at `scale`, or None when no such count exists."""
        digits = scale - guard_digits(depth * truncation)
        if digits < 1:
            return None
        value = partial_sum(depth, truncation, mode="fixed", digits=digits)
        assert value.scale == scale
        return value

    @staticmethod
    def cutoff(depth, scale):
        """The Euler-Maclaurin cutoff M: the head of a row far past it."""
        return series._newton_plan(depth, 10**9, scale)[1]

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_within_one_unit_of_exact(self, depth):
        for scale in range(15, 46, 5):
            cutoff = self.cutoff(depth, scale)
            for truncation in sorted({cutoff - 1, cutoff, cutoff + 1,
                                      2 * cutoff, 3000}):
                value = self.fixed_at_scale(depth, truncation, scale)
                if value is None:
                    continue
                exact = partial_sum(depth, truncation, mode="exact")
                assert abs(value.mantissa - exact * 10**scale) < 1, (
                    depth, scale, truncation)

    @pytest.mark.parametrize("depth", range(1, 25))
    def test_block_rows_within_one_unit(self, depth):
        # Every entry S_0 .. S_depth of a row, against the exact row of the
        # product tree, with N on both sides of the cutoff M: a head over
        # all of 1..N, or the head 1..M and the Euler-Maclaurin tail.
        tails = set()
        for scale in range(15, 61, 5):
            cutoff = self.cutoff(depth, scale)
            for truncation in sorted({1, depth, cutoff - 1, cutoff,
                                      cutoff + 1, 2 * cutoff, 3000, 5000}):
                _, head = series._newton_plan(depth, truncation, scale)
                tails.add(head < truncation)
                bits, row = series._newton_row(depth, truncation, scale)
                row = [div_round_half_even(e * 10**scale, 2**bits)
                       for e in row]
                assert len(row) == depth + 1
                assert within_one_unit(row, truncation, scale), (
                    depth, scale, truncation)
        assert tails == {False, True}

    @pytest.mark.parametrize("depth", range(1, 65))
    def test_integer_radius_covers_the_exact_radius(self, depth):
        # The closed form bounds the exact error recurrence, with and
        # without the tail, at a scale that cycles with the depth; at the
        # plan's precision it stays under half a unit at 10**-scale.
        scale = 15 * (1 + depth % 4)
        cutoff = self.cutoff(depth, scale)
        tails = set()
        for truncation in (cutoff // 2, 10**9):
            bits, head = series._newton_plan(depth, truncation, scale)
            tail = head < truncation
            tails.add(tail)
            radius = series._newton_radius(
                depth, series._row_error(depth, head, tail, bits))
            assert radius >= exact_newton_radius(
                row_radii(depth, head, tail, bits), bits)
            assert 2 * radius * 10**scale < 2**bits
        assert tails == {False, True}

    @pytest.mark.parametrize("depth, truncation, digits", [
        (d, n, 5) for d in (1, 2, 3, 4) for n in (10**5, 445000)
    ] + [(d, 10**5, digits) for d in (1, 4) for digits in (60, 100)]
      + [(48, 20000, 20)])
    def test_agrees_with_sweep_at_large_truncation(self, depth, truncation,
                                                   digits):
        value = partial_sum(depth, truncation, mode="fixed", digits=digits)
        _, head = series._newton_plan(depth, truncation, value.scale)
        assert head < truncation
        row = _backend.dp_row_scaled(depth, truncation, value.scale)
        # The sweep is within depth*N/2 units of exact, the row within one.
        assert 2 * abs(value.mantissa - row[depth]) <= depth * truncation + 2

    def test_fixed_mode_builds_no_fraction(self, monkeypatch):
        # Past the cached Euler-Maclaurin tables, the row runs on integers
        # only.
        partial_sum(24, 5000, mode="fixed", digits=20)

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        value = partial_sum(24, 6000, mode="fixed", digits=20)
        monkeypatch.undo()
        assert series._newton_plan(24, 6000, value.scale)[1] < 6000

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("truncation", [20, 300])
    @pytest.mark.parametrize("digits", [490, 1000])
    def test_wide_requests_take_the_sweep(self, depth, truncation, digits):
        # Wide requests lie far below the Euler-Maclaurin cutoff, so no
        # tail is summed and the Bernoulli table stays unbuilt. The cost
        # rule picks the product tree for every case (N <= 300 and at
        # least 500 places), so the row is correctly rounded, within the
        # sweep kernel's budget of depth*N/2 units of its row.
        series._bernoulli_even.cache_clear()
        value = partial_sum(depth, truncation, mode="fixed", digits=digits)
        assert series._bernoulli_even.cache_info().currsize == 0
        assert value.scale >= 500
        sweep = _backend.dp_row_scaled(depth, truncation, value.scale)[depth]
        assert 2 * abs(value.mantissa - sweep) <= depth * truncation + 1
        assert series._tree_row_is_cheaper(depth, truncation, value.scale)
        exact = partial_sum_prefix(depth, truncation)[-1]
        assert value.mantissa == div_round_half_even(
            exact.numerator * 10**value.scale, exact.denominator)

    @pytest.mark.parametrize("function, args, route", [
        ("partial_sum", (4, 300, "fixed", 2000), "tree"),
        ("sinc_series", (Fraction(7, 5), 40, 100, 500), "tree"),
        ("partial_sum", (1, 300, "fixed", 2000), "tree"),
        ("partial_sum", (1, 300, "fixed", 4300), "tree"),
        ("partial_sum", (1, 300, "fixed", 200), "newton"),
        ("partial_sum", (16, 16000, "fixed", 20), "newton"),
        ("partial_sum", (32, 10**4, "fixed", 20), "newton"),
        ("sinc_series", (Fraction(3, 2), 22, 3050, 20), "newton"),
        ("partial_sum", (16, 200, "fixed", 20), "newton"),
    ], ids=["tree-4-300-2000", "tree-sinc-500", "tree-1-300-2000",
            "tree-1-300-4300", "newton-1-300-200", "newton-16-16000-20",
            "newton-32-10000-20", "newton-sinc-22-3050", "newton-16-200-20"])
    def test_row_route_follows_the_cost_rule(self, monkeypatch, function,
                                             args, route):
        # Rows at N * (1 + depth/16) places or more take the product
        # tree; every other row comes from the power sums. The sweep
        # kernel is patched to fail: neither route runs it.
        def no_sweep(*args):
            raise AssertionError("the sweep kernel ran")

        rows = []
        newton_row = series._newton_row

        def recording(depth, truncation, scale):
            rows.append(truncation)
            return newton_row(depth, truncation, scale)

        monkeypatch.setattr(_backend, "dp_row_scaled", no_sweep)
        monkeypatch.setattr(series, "_newton_row", recording)
        getattr(series, function)(*args)
        truncation = args[1] if function == "partial_sum" else args[2]
        assert rows == ([] if route == "tree" else [truncation])

    @pytest.mark.parametrize("bits", [40, 100, 300])
    def test_dropped_tails_are_below_one_unit(self, bits):
        # _newton_row sums the tails Z_i(a) for i <= _tail_terms only; the
        # ones past it (Hurwitz zeta, at ample precision) are at most one
        # unit of 2**-bits, and at the last one summed the bound that
        # drops them, 2*a**(1-2i), is still above a unit.
        with mpmath.workprec(bits + 64):
            for a in (2, 3, 10, 50, 1000):
                terms = series._tail_terms(60, a, bits)
                for i in range(terms + 1, min(60, terms + 5) + 1):
                    assert mpmath.zeta(2 * i, a) * 2**bits <= 1, (a, i)
                if terms < 60:
                    assert 2**(bits + 1) > a ** (2 * terms - 1), a

    @pytest.mark.parametrize("depth", [2, 3, 5, 8])
    def test_tree_rows_are_correctly_rounded(self, depth):
        # Wherever the rule picks the tree, the fixed value is the exact
        # partial sum rounded half-even at its scale.
        checked = 0
        for truncation in (depth, 30, 100, 400):
            exact = partial_sum_prefix(depth, truncation)[-1]
            for digits in (100, 200, 400, 800):
                value = partial_sum(depth, truncation, "fixed", digits)
                if not series._tree_row_is_cheaper(depth, truncation,
                                                   value.scale):
                    continue
                checked += 1
                assert value.mantissa == div_round_half_even(
                    exact.numerator * 10**value.scale, exact.denominator)
        assert checked >= 8

    @pytest.mark.parametrize("j", range(1, 7))
    def test_euler_maclaurin_remainder_bound(self, j):
        # Z_j(a) - Z_j(b) is the exact power sum over a <= l < b; each
        # centre is off by at most its first omitted term, and the scaled
        # integer centre is the rational one rounded.
        coefficients, denominator, remainder = series._euler_maclaurin(j)
        power = 2 * j + 2 * series.EM_TERMS + 1

        def centre(a):
            g = sum(c * a**k for k, c in enumerate(reversed(coefficients)))
            return Fraction(g, denominator * a ** (power - 2))

        for a in (1, 2, 3, 5, 10, 40):
            b = a + 50
            exact = sum(Fraction(1, ell ** (2 * j)) for ell in range(a, b))
            radius = Fraction(remainder, denominator) * (
                Fraction(1, a**power) + Fraction(1, b**power))
            assert abs(centre(a) - centre(b) - exact) <= radius
            assert series._zeta_scaled(j, a, 40) == div_round_half_even(
                centre(a).numerator << 40, centre(a).denominator)

    def test_bernoulli_table_built_on_first_use(self):
        script = (
            "import pipow\n"
            "from pipow import series\n"
            "assert series._bernoulli_even.cache_info().currsize == 0\n"
            "pipow.partial_sum(2, 10**5, 'fixed', 5)\n"
            "assert series._bernoulli_even.cache_info().currsize == 1\n"
        )
        src = str(Path(series.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestWorkFloors:
    """The floors that refuse a request before its plan or its truncation
    is formed never exceed the estimate they stand in for."""

    @pytest.mark.parametrize("depth", [1, 2, 5, 16, 64, 150])
    def test_row_floor_is_below_every_row_estimate(self, depth):
        routes = set()
        for digits in (1, 20, 300, 2000):
            floor = series.row_work_floor(depth, digits)
            for deeper in (depth, depth + 1, 2 * depth):
                for truncation in (deeper, 3 * deeper + 7, 1000, 10**6,
                                   10**12):
                    if truncation < deeper:
                        continue
                    routes.add(series._tree_row_is_cheaper(
                        deeper, truncation,
                        digits + guard_digits(deeper * truncation)))
                    assert floor <= series.partial_sum_work(
                        deeper, truncation, digits), (deeper, truncation)
        assert routes == {False, True}

    @pytest.mark.parametrize("depth", [1, 2, 5, 16, 100, 437])
    def test_converged_floor_is_below_the_row_at_its_truncation(self, depth):
        # converged_plan's floor carries the places that N forces without
        # pi, N > 10**digits * 1.6449**(depth-1).
        for digits in (3, 5, 20):
            truncation = required_truncation(depth, digits)
            assert truncation > 10**digits * Fraction(16449, 10**4) ** (
                depth - 1)
            assert series.row_work_floor(
                depth, digits + (depth - 1) * 2161 // 10000) <= (
                series.partial_sum_work(depth, truncation, digits))

    @pytest.mark.parametrize("bits", [1, 2, 26, 27, 28, 40, 200, 1000, 5000])
    def test_head_is_at_least_its_floor(self, bits):
        # Short of N, the head is the least cutoff M with the remainder at
        # M + 1 within one unit.
        floor = (1 << bits // (2 * series.EM_TERMS + 3)) - 1
        for depth in (1, 3):
            for truncation in (10, 10**6, 10**60, 10**400):
                head = series._head_length(depth, truncation, bits)
                assert head >= min(truncation, floor)
                if head < truncation:
                    assert series._em_remainder(1, head + 1, bits) <= 1
                    assert (head == 0
                            or series._em_remainder(1, head, bits) > 1)

    def test_short_truncation_takes_no_root(self, monkeypatch):
        # H = N once (N+1)**27 <= 2**bits; at the 332 thousand bits of a
        # one-factor sinc at 99990 digits the root took 0.4 s.
        def no_root(*args):
            raise AssertionError("the root ran")

        monkeypatch.setattr(series, "_integer_root", no_root)
        assert series._head_length(1, 1, 332000) == 1
        assert series._head_length(3, 10**6, 20 * 27) == 10**6

    @pytest.mark.parametrize("depth, truncation, scale", [
        (1, 10**30, 4000), (2, 10**9, 2500), (3, 10**200, 1500)])
    def test_unplanned_count_is_below_the_planned_one(
            self, monkeypatch, depth, truncation, scale):
        unplanned = series._row_plan(depth, truncation, scale)
        assert unplanned.steps > series.STEP_CEILING
        assert unplanned.bits is None
        monkeypatch.setattr(series, "STEP_CEILING", 10**400)
        # Past the plan's cache, so that no plan formed with the patch is
        # kept.
        planned = series._row_plan.__wrapped__(depth, truncation, scale)
        assert planned.bits is not None
        assert unplanned.steps <= planned.steps


class TestTailBound:
    def test_depth_two_window(self):
        # B(2, 10^5) = (pi^2/6)/10^5, which lives in [1.6449e-5, 1.6450e-5].
        bound = tail_bound(2, 10**5, 10).as_fraction()
        assert Fraction(16449, 10**9) < bound < Fraction(16450, 10**9)

    def test_monotone_in_truncation(self):
        prev = None
        for truncation in (1, 2, 10, 100, 10**4):
            bound = tail_bound(3, truncation, 12).as_fraction()
            if prev is not None:
                assert bound < prev
            prev = bound

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_soundness_against_exact_prefix(self, depth):
        # True remaining tail never exceeds the certified bound.
        horizon = 160
        prefix = partial_sum_prefix(depth, horizon)
        lo, hi = exact_reference_window(depth)
        for truncation in range(max(depth, 1), horizon + 1):
            bound = tail_bound(depth, truncation, 30).as_fraction()
            true_tail_hi = hi - prefix[truncation]
            assert true_tail_hi <= bound
            assert lo - prefix[truncation] >= 0

    def test_rounded_basel_gets_one_unit_of_slack(self):
        # A correctly rounded (pi**2/6)**p may lie half a unit below the
        # true one, so its ceiling starts one unit above it: 21 * 10**10
        # units over 7 * 10**10 give 4, not 3. (pi**2/6)**0 = 1 is exact.
        basel = FixedDecimal(21 * 10**10, 20, 10)
        assert series._basel_ceiling(basel, 1, 7).mantissa == 4
        assert series._basel_ceiling(basel, 0, 7).mantissa == 3
        assert series._basel_ceiling(basel, 0, 8).mantissa == 3
        assert (series._basel_ceiling(basel, 1, 7).scale,
                series._basel_ceiling(basel, 1, 7).guard) == (10, 10)

    def test_validation(self):
        with pytest.raises(DomainError):
            tail_bound(0, 10, 10)
        with pytest.raises(DomainError):
            tail_bound(1, 0, 10)
        with pytest.raises(DomainError):
            tail_bound(1, 10, 0)


class TestRequiredTruncation:
    @pytest.mark.parametrize("depth, digits, expected", [
        (1, 1, 11),
        (1, 6, 1000001),
        (2, 4, 16450),
        (2, 6, 1644935),
        (3, 3, 2706),
        (4, 2, 446),
        (5, 1, 74),
    ])
    def test_known_minimal_values(self, depth, digits, expected):
        assert required_truncation(depth, digits) == expected

    @pytest.mark.parametrize("depth, digits", [
        (1, 3), (2, 5), (3, 4), (4, 7), (2, 50),
    ])
    def test_minimality_bracket(self, depth, digits):
        # N satisfies the target and N-1 does not: true minimality.
        n_req = required_truncation(depth, digits)
        target = Fraction(1, 10**digits)
        assert tail_bound(depth, n_req, digits).as_fraction() < target
        if n_req > 1:
            assert tail_bound(depth, n_req - 1, digits).as_fraction() >= target

    def test_validation(self):
        with pytest.raises(DomainError):
            required_truncation(0, 5)
        with pytest.raises(DomainError):
            required_truncation(1, 0)


class TestConverge:
    def test_depth_one_six_digits(self):
        result = converge(1, 6)
        assert result.truncation == 1000001
        assert result.mode == "fixed"
        assert result.abs_error.as_fraction() < Fraction(1, 10**6)
        assert result.tail_bound.as_fraction() < Fraction(1, 10**6)

    def test_depth_two_four_digits(self):
        result = converge(2, 4)
        assert result.truncation == 16450
        assert result.abs_error.as_fraction() < Fraction(1, 10**4)
        # Sanity: the value itself is near pi^4/120.
        lo, hi = exact_reference_window(2)
        value = result.value.as_fraction()
        assert lo - Fraction(1, 10**4) < value < hi

    def test_validation(self):
        with pytest.raises(DomainError):
            converge(0, 5)
        with pytest.raises(DomainError):
            converge(1, 0)


class TestSincProduct:
    def test_empty_product_is_one(self):
        assert sinc_product(Fraction(1, 2), 0, 20).as_fraction() == 1

    def test_zero_argument_is_one(self):
        assert sinc_product(0, 50, 20).as_fraction() == 1

    def test_integer_root_collapses_exactly(self):
        # Factor k = 1 vanishes at x = 1, so every later factor keeps 0.
        assert sinc_product(1, 10, 20).as_fraction() == 0

    def test_convergence_toward_sinc(self):
        target = sinc_taylor(Fraction(1, 2), 30).as_fraction()
        errors = []
        for factors in (10, 100, 1000):
            approx = sinc_product(Fraction(1, 2), factors, 25).as_fraction()
            errors.append(abs(approx - target))
        assert errors[2] < errors[1] < errors[0]
        # Truncated product exceeds the limit (omitted factors are < 1).
        assert sinc_product(Fraction(1, 2), 1000, 25).as_fraction() > target

    def test_validation(self):
        with pytest.raises(DomainError):
            sinc_product(Fraction(1, 2), -1, 20)
        with pytest.raises(DomainError):
            sinc_product(Fraction(1, 2), 10, 0)


def loop_product(x, factors, digits):
    """The mantissa of the per-factor loop, which sinc_product runs where
    it does not split: each factor one exact multiplication and one
    half-even rounding at digits + guard_digits(factors) places, within
    `factors` units of exact."""
    acc = 10 ** (digits + guard_digits(factors))
    p2, q2 = x.numerator ** 2, x.denominator ** 2
    for k in range(1, factors + 1):
        acc = div_round_half_even(acc * (k * k * q2 - p2), k * k * q2)
    return acc


def gamma_product(x, factors, scale):
    """prod_{k<=N} (1 - x**2/k**2) = Gamma(N+1-x)*Gamma(N+1+x)/Gamma(N+1)**2
    * sin(pi*x)/(pi*x), in units of 10**-scale, by mpmath at 30 places
    more."""
    with mpmath.workdps(scale + 30):
        xm = mpmath.mpf(x.numerator) / x.denominator
        sinc = mpmath.sinpi(xm) / (mpmath.pi * xm) if x else 1
        n = factors + 1
        return (mpmath.gamma(n - xm) * mpmath.gamma(n + xm)
                / mpmath.gamma(n) ** 2 * sinc * mpmath.mpf(10) ** scale)


class TestSplitProduct:
    """Past its head K the product takes the tail from its own tail power
    sums: within 2K + 2 units of exact, and so within that plus `factors`
    units of the per-factor loop."""

    @staticmethod
    def force_split(monkeypatch):
        def plan(x, factors, digits):
            split = series._split_plan(x, factors, digits)
            assert split is not None and split.head < factors
            return split
        monkeypatch.setattr(series, "_product_plan", plan)

    @pytest.mark.parametrize("x", ["1/2", "-6/5", "3/2", "7/2", "30"])
    def test_agrees_with_the_loop(self, monkeypatch, x):
        x = Fraction(x)
        head = series._split_plan(x, 10**5, 20).head
        self.force_split(monkeypatch)
        for factors in (head + 1, 10**5):
            value = sinc_product(x, factors, 20)
            bound = 2 * series._split_plan(x, factors, 20).head + 2
            assert abs(value.mantissa - gamma_product(
                x, factors, value.scale)) <= bound, factors
            assert abs(value.mantissa - loop_product(x, factors, 20)) <= (
                bound + factors), factors

    @pytest.mark.parametrize("x", ["0", "2", "-3", "30"])
    def test_integer_argument_is_exact(self, monkeypatch, x):
        # x = 0 gives exactly 1; an integer x != 0 exactly 0, from the
        # head factor k = |x|.
        self.force_split(monkeypatch)
        value = sinc_product(Fraction(x), 10**5, 20)
        assert value.as_fraction() == (x == "0")

    def test_a_request_forms_its_plan_once(self, monkeypatch):
        # The estimate (sinc_plan, through sinc_work) forms the product's
        # plan and the run (sinc_product) reads it; the series row forms
        # none. The next request forms its own.
        formed = []
        split_plan = series._split_plan

        def recording(x, factors, digits):
            formed.append((x, factors, digits))
            return split_plan(x, factors, digits)

        monkeypatch.setattr(series, "_split_plan", recording)
        series._product_plan.cache_clear()
        for x in (Fraction(1, 2), Fraction(7, 5)):
            powers = series.sinc_plan(x, 5000, 20, "sinc")
            sinc_product(x, 5000, 20)
            sinc_series(x, powers, 5000, 20)
        assert formed == [(Fraction(1, 2), 5000, 20),
                          (Fraction(7, 5), 5000, 20)]

    @pytest.mark.parametrize("x", ["1/2", "3/2", "7/2"])
    def test_power_count_is_the_least_admitted(self, monkeypatch, x):
        # At 10**5 factors and 20 digits the dropped powers' bound at the
        # count before 3/2's is 1.95 units and the one at 7/2's 0.59, so
        # a test against half or twice a unit moves one of them.
        x, factors = Fraction(x), 10**5
        plan = series._split_plan(x, factors, 20)
        one, r = Fraction(1, 2**plan.bits), x * x / plan.head
        powers = next(n for n in range(factors) if 2 * r ** (n + 1)
                      / math.factorial(n + 1) <= one)
        sums = next(m for m in range(powers + 1) if m == powers
                    or 2 * x ** (2 * m + 2) / (plan.head + 1) ** (2 * m + 1)
                    < one)
        assert (plan.powers, plan.sums) == (powers, sums)
        assert plan.sums < plan.powers
        given = []
        elementary_row = series._elementary_row

        def recording(sums, bits):
            given.append(len(sums))
            return elementary_row(sums, bits)

        monkeypatch.setattr(series, "_elementary_row", recording)
        self.force_split(monkeypatch)
        sinc_product(x, factors, 20)
        assert given == [plan.powers]

    @pytest.mark.parametrize("x, factors", [("1/2", 2 * 10**8),
                                            ("1/1000", 10**8)])
    def test_matches_the_gamma_form_at_many_factors(self, x, factors):
        x = Fraction(x)
        plan = series._product_plan(x, factors, 20)
        value = sinc_product(x, factors, 20)
        assert abs(value.mantissa - gamma_product(
            x, factors, value.scale)) <= 2 * plan.head + 2
        # The printed places: within half a unit, plus the guard's error.
        printed = Fraction(value.to_decimal_string(20)) * 10**20
        assert abs(int(printed) - gamma_product(x, factors, 20)) < 0.5001

    @pytest.mark.parametrize("x", ["7/5", "1/2"])
    def test_matches_the_gamma_form_at_100_digits(self, x):
        # The head holds 55382 and 52610 of the 10**6 factors.
        x = Fraction(x)
        plan = series._product_plan(x, 10**6, 100)
        assert plan.head is not None
        value = sinc_product(x, 10**6, 100)
        assert abs(value.mantissa - gamma_product(
            x, 10**6, value.scale)) <= 2 * plan.head + 2

    @pytest.mark.parametrize("x", ["1/2", "-6/5", "7/2", "30"])
    def test_radius_covers_the_exact_radius(self, x):
        # The split's tail sums are off by at most R units each; the
        # closed form bounds the exact error recurrence at that R.
        plan = series._split_plan(Fraction(x), 10**5, 20)
        for largest in (1, 3, 40):
            radius = series._newton_radius(plan.powers, largest)
            assert radius >= exact_newton_radius(
                [largest] * plan.powers, plan.bits)

    def test_cost_does_not_grow_with_the_factors(self):
        steps = [series._product_plan(Fraction(1, 2), 10**e, 20).steps
                 for e in (4, 6, 8)]
        assert max(steps) <= 1.25 * min(steps)
        assert max(steps) < 10**4 * 20


class TestSincSeries:
    def test_matches_product_and_taylor(self):
        x = Fraction(1, 2)
        series = sinc_series(x, 14, 1000, 20).as_fraction()
        product = sinc_product(x, 1000, 20).as_fraction()
        taylor = sinc_taylor(x, 20).as_fraction()
        # Same truncation point: series and product agree almost exactly.
        assert abs(series - product) < Fraction(1, 10**15)
        # Both differ from the true value only by the N=1000 truncation.
        assert abs(series - taylor) < Fraction(1, 10**3)
        assert abs(series - taylor) > Fraction(1, 10**5)

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-7, 5)])
    def test_tree_route_matches_exact_truncated_series(self, x):
        # At 500 places the rows come from the product tree; the value is
        # the exact truncated series rounded to the requested places.
        powers, truncation, digits = 12, 60, 500
        value = sinc_series(x, powers, truncation, digits)
        assert series._tree_row_is_cheaper(powers, truncation, value.scale)
        exact = sum((-x * x) ** j * partial_sum_prefix(j, truncation)[-1]
                    for j in range(powers + 1))
        assert value.to_decimal_string(digits) == FixedDecimal.from_rational(
            exact, digits).to_decimal_string()

    def test_work_counts_the_taylor_sum(self):
        # The Taylor reference runs for 0 < |x| <= 2 only; at 99990 digits
        # it alone is far above the step ceiling.
        assert sinc_work(Fraction(1, 2), 1, 1, 99990) > series.STEP_CEILING
        for x in (0, 3):
            assert sinc_work(x, 1, 1, 99990) < series.STEP_CEILING

    def test_zero_powers_is_one(self):
        assert sinc_series(Fraction(1, 3), 0, 100, 20).as_fraction() == 1

    def test_zero_truncation_is_empty_product(self):
        assert sinc_series(Fraction(1, 2), 3, 0, 20).as_fraction() == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            sinc_series(Fraction(1, 2), -1, 10, 20)
        with pytest.raises(DomainError):
            sinc_series(Fraction(1, 2), 3, -1, 20)
        with pytest.raises(DomainError):
            sinc_series(Fraction(1, 2), 3, 10, 0)


class TestExactTruncationLimit:
    def test_constant_value(self):
        assert EXACT_TRUNCATION_LIMIT == 2000


class TestOneTreeCoefficient:
    """A fixed sum forms one tree coefficient where its row had every one,
    and the mantissa is the row's entry."""

    TRUNCATIONS = sorted({*range(0, 401, 7), 1, 2, 3, 5, 8, 13, 16, 17, 64,
                          65, 66, 129, 400})

    def test_fixed_sum_is_the_row_entry_on_both_routes(self):
        routes = set()
        for depth in range(17):
            for truncation in self.TRUNCATIONS:
                guard = guard_digits(depth * truncation)
                # 5 places: the power sums' row from N = 17 on; the wider
                # count: at or past the tree rule's scale.
                for digits in (5, truncation * (16 + depth) // 16 + 1):
                    scale = digits + guard
                    routes.add(series._tree_row_is_cheaper(
                        depth, truncation, scale))
                    value = partial_sum(depth, truncation, "fixed", digits)
                    assert (value.mantissa, value.scale, value.guard) == (
                        series._fixed_row(depth, truncation, scale, 0)[depth],
                        scale, guard), (depth, truncation, digits)
        assert routes == {False, True}

    def test_exact_and_fixed_share_the_root(self, monkeypatch):
        # A sum forms only its own coefficient at the root, the tree's sinc
        # row every one. Past one leaf no product spans the whole range
        # 1..N: the root splits after the block [1, 128] once it is kept,
        # and at N = 140 < 1.5*128 after [1, 64] before that.
        calls, ranges = [], []
        root, product = tree.coefficients, tree._truncated_product

        def recording_root(depth, truncation, first):
            calls.append((depth, truncation, first))
            return root(depth, truncation, first)

        def recording_product(low, high, depth):
            ranges.append((low, high))
            return product(low, high, depth)

        monkeypatch.setattr(tree, "_BLOCKS", tree._BlockCache())
        monkeypatch.setattr(tree, "coefficients", recording_root)
        monkeypatch.setattr(tree, "_truncated_product", recording_product)
        exact = partial_sum(3, 140)
        assert ranges[:2] == [(1, 65), (65, 141)] and (1, 129) not in ranges
        ranges.clear()
        sinc_series(Fraction(1, 2), 12, 200, 500)
        assert ranges[:2] == [(1, 129), (1, 65)] and (129, 201) in ranges
        ranges.clear()
        fixed = partial_sum(3, 140, "fixed", 200)
        assert ranges == [(129, 141)]
        assert calls == [(3, 140, 3), (12, 200, 0), (3, 140, 3)]
        # The tree's entry is correctly rounded.
        assert abs(fixed.as_fraction() - exact) <= Fraction(
            1, 2 * 10**fixed.scale)


class TestValueRounding:
    """A fixed sum's value is a/D rounded by exactnum.div_to_decimal: in
    decimal where D < 10**scale, else by the binary long division. The
    judge is FixedDecimal.from_rational of the exact sum."""

    @staticmethod
    def judged(depth, truncation, digits, route):
        guard = guard_digits(depth * truncation)
        assert series._row_plan(depth, truncation, digits + guard).route == (
            route)
        judge = FixedDecimal.from_rational(partial_sum(depth, truncation),
                                           digits, guard)
        return digits + guard, judge

    @staticmethod
    def same(value, judge):
        return ((value.decimal.as_tuple(), value.scale, value.guard)
                == (judge.decimal.as_tuple(), judge.scale, judge.guard))

    def test_wide_sum_converts_no_long_quotient(self, monkeypatch):
        # Depth 4, N = 300 at 4200 places: D has a few hundred digits, so
        # the value is divided in decimal and nothing is converted by
        # int_to_decimal.
        scale, judge = self.judged(4, 300, 4200, "tree")
        _, bound = tree.reduced_coefficients(4, 300, 4)
        assert bound < 10**scale

        def no_conversion(value):
            raise AssertionError("the quotient was converted from binary")

        monkeypatch.setattr(exactnum, "int_to_decimal", no_conversion)
        assert self.same(partial_sum(4, 300, "fixed", 4200), judge)

    @pytest.mark.parametrize("depth, truncation, digits, route, decimal", [
        (2, 1000, 1126, "tree", False),  # D >= 10**scale
        (3, 200, 30, "newton", False),   # 2**bits > 10**scale
        (4, 3000, 60, "newton", False),
        (3, 0, 40, "tree", True),        # --upto 0: S_3(0) = 0
        (5, 3, 700, "tree", True),       # N < depth: 0
        (5, 4, 20, "tree", True)])
    def test_equals_the_rounded_exact_sum(self, depth, truncation, digits,
                                          route, decimal):
        scale, judge = self.judged(depth, truncation, digits, route)
        _, divisor = series._raw_row(depth, truncation, scale, depth)
        assert (divisor < 10**scale) == decimal
        assert self.same(partial_sum(depth, truncation, "fixed", digits),
                         judge)


class TestReducedCoefficients:
    """The tree's root coefficients over the bound D = (prod_{j<=n}
    lcm(1..N//j))**2 on the denominators of S_0 .. S_n(N) instead of over
    (N!)**2 (tree.reduced_coefficients): the same rationals."""

    TRUNCATIONS = sorted({*range(0, 130), *range(130, 701, 19), 255, 256,
                          257, 511, 512, 513, 700})

    @staticmethod
    @functools.cache
    def lcm_up_to(top):
        return math.lcm(*range(1, top + 1))

    def bound(self, depth, truncation):
        """D by math.lcm, independent of the sieve and of the exponents."""
        return math.prod(self.lcm_up_to(truncation // j)
                         for j in range(1, depth + 1)) ** 2

    @pytest.mark.parametrize("depth", range(9))
    def test_exact_sums_over_the_bound(self, depth):
        # N = 0 and 1, N on both sides of the leaf and block edges, depth
        # above N and above N/2 (K = 1) and far below it.
        for truncation in self.TRUNCATIONS:
            row = undivided(tree.coefficients(depth, truncation, 0))
            square = math.factorial(truncation) ** 2
            # c_0 comes with every slice.
            constant, _, exponents = tree.coefficients(
                depth, truncation, depth)
            assert undivided(([constant], exponents)) == [square]
            value = partial_sum(depth, truncation)
            assert value == Fraction(row[depth], square)
            bound = self.bound(depth, truncation)
            assert bound % value.denominator == 0, (depth, truncation)
            entries, denominator = tree.reduced_coefficients(
                depth, truncation, 0)
            assert denominator == bound
            assert [a * square for a in entries] == [c * bound for c in row]
            first = truncation % (depth + 1)
            assert tree.reduced_coefficients(depth, truncation, first) == (
                entries[first:], bound)

    @pytest.mark.parametrize("depth, truncation, scale", [
        (1, 700, 800), (4, 300, 400), (8, 129, 200), (12, 200, 500),
        (30, 64, 200), (9, 5, 40)])
    def test_tree_rows_round_as_over_the_factorial_square(
            self, depth, truncation, scale):
        # Whole rows, as sinc_series takes them: each entry is the
        # half-even rounding of the rational it was over (N!)**2.
        assert series._row_plan(depth, truncation, scale).route == "tree"
        square = math.factorial(truncation) ** 2
        assert series._fixed_row(depth, truncation, scale, 0) == [
            div_round_half_even(c * 10**scale, square)
            for c in undivided(tree.coefficients(depth, truncation, 0))]

    def test_depth_zero_forms_nothing(self, monkeypatch):
        # S_0(N) = 1: no tree, factorial or sieve.
        monkeypatch.setattr(tree, "_BLOCKS", tree._BlockCache())
        monkeypatch.setattr(tree, "_PRIMES", (1, []))
        assert tree.reduced_coefficients(0, 30000, 0) == ([1], 1)
        value = partial_sum(0, 30000)
        assert type(value) is Fraction and value == Fraction(1)
        assert len(tree._BLOCKS) == 0 and tree._PRIMES == (1, [])

    def test_sieve_grows_and_serves_every_smaller_bound(self, monkeypatch):
        monkeypatch.setattr(tree, "_PRIMES", (1, []))
        primes = [p for p in range(2, 3000)
                  if all(p % d for d in range(2, math.isqrt(p) + 1))]
        for bound in (0, 1, 2, 10, 7, 11, 100, 2999, 30, 1000):
            assert tree._primes(bound) == [p for p in primes if p <= bound]
        assert tree._PRIMES[0] == 2999


class TestBlockCache:
    """The rows of the product tree's aligned blocks, kept across requests
    within a budget of bits of memory (tree._BLOCKS)."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        cache = tree._BlockCache()
        monkeypatch.setattr(tree, "_BLOCKS", cache)
        return cache

    @staticmethod
    def held(blocks):
        """The bits the cache counts, checked against the rows it holds:
        the bytes of their ints and tuples and a fixed size each."""
        for bits, row, exponents in blocks.values():
            assert bits == tree._ENTRY_BITS + 8 * (
                sys.getsizeof(row) + sys.getsizeof(exponents)
                + sum(sys.getsizeof(c) for c in row))
            assert bits > sum(map(int.bit_length, row))
        assert blocks.bits == sum(bits for bits, _, _ in blocks.values())
        return blocks.bits

    def test_random_requests_match_cold_rows_and_direct_expansion(
            self, blocks, monkeypatch):
        rng = random.Random(24)
        requests = [(0, 0), (16, 3000)] + [
            (rng.randint(0, 16), round(3000 ** rng.random()))
            for _ in range(40)]
        rng.shuffle(requests)
        for depth, truncation in requests:
            shared = undivided(tree.coefficients(depth, truncation, 0))
            with monkeypatch.context() as cold_cache:
                cold_cache.setattr(tree, "_BLOCKS", tree._BlockCache())
                cold = undivided(tree.coefficients(depth, truncation, 0))
            direct = direct_expansion(1, truncation + 1, depth)
            assert shared == cold == direct + [0] * (depth + 1 - len(direct))
            first = rng.randint(0, depth)
            assert undivided(tree.coefficients(
                depth, truncation, first)) == shared[first:]
        assert 0 < self.held(blocks) <= tree.BLOCK_CACHE_BITS

    def test_deeper_and_shallower_requests_on_one_block(self, blocks):
        # [1, 200] holds the blocks [1, 64], [65, 128], [1, 128] and
        # [129, 192]. The row kept at a block is the deepest asked so far:
        # a deeper request builds it again, a shallower one slices it.
        for depth, deepest in ((2, 2), (6, 6), (2, 6), (70, 70), (3, 70)):
            row = undivided(tree.coefficients(depth, 200, 0))
            direct = direct_expansion(1, 201, depth)
            assert row == direct + [0] * (depth + 1 - len(direct))
            assert {key: len(row) for key, (_, row, _) in blocks.items()} == {
                (1, 65): min(deepest, 64) + 1, (65, 129): min(deepest, 64) + 1,
                (1, 129): min(deepest, 128) + 1,
                (129, 193): min(deepest, 64) + 1}
            self.held(blocks)

    def test_least_recently_used_rows_go_first(self, blocks, monkeypatch):
        keys = [(1, 65), (65, 129), (129, 193)]
        sizes = []
        for key in keys:
            monkeypatch.setattr(tree, "_BLOCKS", tree._BlockCache())
            tree._truncated_product(*key, 4)
            sizes.append(self.held(tree._BLOCKS))
        monkeypatch.setattr(tree, "_BLOCKS", tree._BlockCache())
        monkeypatch.setattr(tree, "BLOCK_CACHE_BITS", sum(sizes) - 1)
        tree._truncated_product(*keys[0], 4)
        tree._truncated_product(*keys[1], 4)
        tree._truncated_product(*keys[0], 2)  # a hit: keys[0] is used
        tree._truncated_product(*keys[2], 4)
        assert list(tree._BLOCKS) == [keys[0], keys[2]]
        assert self.held(tree._BLOCKS) == sizes[0] + sizes[2]
        # A row wider than the whole budget is built but not kept, and
        # drops no other row.
        assert sizes[0] < sizes[1]
        monkeypatch.setattr(tree, "_BLOCKS", tree._BlockCache())
        monkeypatch.setattr(tree, "BLOCK_CACHE_BITS", sizes[0])
        tree._truncated_product(*keys[0], 4)
        assert undivided(tree._truncated_product(
            *keys[1], 4)) == direct_expansion(*keys[1], 4)
        assert list(tree._BLOCKS) == [keys[0]]
        assert self.held(tree._BLOCKS) == sizes[0]

    def test_largest_requests_stay_within_the_budget(self, blocks):
        # The widest blocks of accepted exact sums: depth 1 at its edge,
        # N = 35160, and depth 16 at N = 5000.
        for depth, truncation in ((1, 35160), (16, 5000)):
            tree.coefficients(depth, truncation, depth)
            assert 0 < self.held(blocks) <= tree.BLOCK_CACHE_BITS

    def test_concurrent_callers_share_one_cache(self, monkeypatch):
        # More threads than cores over shared blocks and a budget they
        # overflow. A store and a lookup each pause inside their critical
        # section, so without the lock another thread would step in there:
        # a bit count would be lost, or a row dropped before it is moved.
        class Pausing(tree._BlockCache):
            def pop(self, *args):
                time.sleep(1e-4)
                return super().pop(*args)

            def move_to_end(self, key):
                time.sleep(1e-4)
                return super().move_to_end(key)

        requests = [(depth, truncation) for depth in (1, 4, 9)
                    for truncation in (130, 700, 1100, 1500)]
        cold = {request: undivided(tree.coefficients(*request, 0))
                for request in requests}
        blocks = Pausing()
        monkeypatch.setattr(tree, "_BLOCKS", blocks)
        monkeypatch.setattr(tree, "BLOCK_CACHE_BITS", 50000)
        results, errors = {}, []

        def worker(share):
            try:
                for request in share * 2:
                    results[request] = undivided(
                        tree.coefficients(*request, 0))
            except Exception as error:  # a thread's failure, checked below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(requests[i::4],))
                   for i in range(4)]
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
        assert errors == [] and results == cold
        assert 0 < self.held(blocks) <= 50000

    def test_zero_entries_of_a_missing_row(self, blocks):
        # No row is kept at the key: None, not a KeyError from moving it.
        assert blocks.row((1, 65), 0) is None
        tree._truncated_product(1, 65, 2)
        assert blocks.row((1, 65), 0) == ([], blocks[1, 65][2])
        assert blocks.row((65, 129), 0) is None


def newton_row_with(zetas, monkeypatch, depth, truncation, scale):
    """series._newton_row(depth, N, scale) with `zetas` as its kept rows."""
    with monkeypatch.context() as kept:
        kept.setattr(series, "_ZETAS", zetas)
        return series._newton_row(depth, truncation, scale)


def regrouped_row(depth, truncation, scale):
    """The row as the head sums over 1..H plus the tails Z_i(H+1) -
    Z_i(N+1), each formed for this request alone."""
    bits, head = series._newton_plan(depth, truncation, scale)
    sums = series._head_sums(depth, head, bits)
    if head < truncation:
        terms = series._tail_terms(depth, head + 1, bits)
        for i, p in enumerate(series._tail_sums(range(1, terms + 1), head,
                                                truncation, bits)):
            sums[i] += p
    return bits, series._elementary_row(sums, bits)


# Shapes of the converge cycle (depths 1 to 4, 17 to 22 places, N up to
# 10**6) and of the sinc series (depths 13 to 22, 34 to 43 places, N from
# 100 to 5000), with the head short of N.
CONVERGE_SHAPES = [(1, 2000, 17), (2, 10**4, 20), (4, 10**4, 20),
                   (3, 10**6, 22), (4, 3 * 10**5, 17), (1, 10**6, 22)]
SINC_SHAPES = [(13, 100, 34), (22, 5000, 43), (16, 3000, 43),
               (13, 2000, 40), (22, 700, 40), (17, 1200, 37)]


class TestKeptZetaRows:
    """Past its head M, a Newton row reads zeta(2i) at its working bits
    from the row kept there (series._ZETAS) and subtracts only the tails
    at N+1."""

    @pytest.fixture
    def zetas(self, monkeypatch):
        cache = tree._BlockCache()
        monkeypatch.setattr(series, "_ZETAS", cache)
        return cache

    @pytest.mark.parametrize("shape", CONVERGE_SHAPES + SINC_SHAPES)
    def test_warm_rows_are_the_cold_rows(self, zetas, monkeypatch, shape):
        bits, head = series._newton_plan(*shape)
        assert head < shape[1]
        cold = newton_row_with(tree._BlockCache(), monkeypatch, *shape)
        assert cold == regrouped_row(*shape)
        assert series._newton_row(*shape) == cold
        assert list(zetas) == [bits]
        assert series._newton_row(*shape) == cold

    @pytest.mark.parametrize("shallow, deep", [
        ((2, 10**4, 20), (4, 10**6, 20)), ((4, 3000, 40), (22, 5000, 40)),
        ((16, 100, 43), (22, 4000, 43)), ((2, 5000, 34), (13, 10**6, 34))])
    @pytest.mark.parametrize("deep_first", [False, True])
    def test_either_build_order_at_one_precision(self, zetas, monkeypatch,
                                                 shallow, deep, deep_first):
        # A shallow row kept first is built again at the deeper request and
        # replaced; a deep row kept first serves the shallow one sliced.
        bits = series._newton_plan(*shallow)[0]
        assert series._newton_plan(*deep)[0] == bits
        cold = {shape: newton_row_with(tree._BlockCache(), monkeypatch,
                                       *shape) for shape in (shallow, deep)}
        for shape in (deep, shallow) if deep_first else (shallow, deep):
            assert series._newton_row(*shape) == cold[shape]
        assert list(zetas) == [bits] and len(zetas[bits][1]) == deep[0]
        for shape in (shallow, deep):
            assert series._newton_row(*shape) == cold[shape]

    @pytest.mark.parametrize("shape", [(0, 10**6, 20), (0, 0, 20),
                                       (3, 20, 30), (1, 1, 17), (24, 25, 60),
                                       (0, 10**9, 200)])
    def test_depth_zero_and_whole_heads_keep_nothing(self, monkeypatch,
                                                     shape):
        class Untouched(tree._BlockCache):
            def row(self, *args):
                raise AssertionError("a kept row was read")

            def keep(self, *args):
                raise AssertionError("a row was kept")

        bits, head = series._newton_plan(*shape)
        assert not shape[0] or head == shape[1]
        assert newton_row_with(Untouched(), monkeypatch,
                               *shape) == regrouped_row(*shape)

    def test_a_kept_precision_sums_no_head(self, zetas, monkeypatch):
        # The first row at a precision sums its head once; every later row
        # there, at any N and at most as deep, sums none.
        calls = []
        head_sums = series._head_sums

        def counting(depth, head, bits):
            calls.append((depth, head, bits))
            return head_sums(depth, head, bits)

        monkeypatch.setattr(series, "_head_sums", counting)
        series._newton_row(22, 5000, 43)
        assert len(calls) == 1
        for shape in ((22, 5000, 43), (16, 100, 43), (22, 10**6, 43),
                      (16, 3000, 43)):
            series._newton_row(*shape)
        assert len(calls) == 1
        series._newton_row(13, 2000, 40)
        assert len(calls) == 2

    def test_kept_rows_stay_within_the_budget(self, zetas, monkeypatch):
        # Rows at nine precisions against a budget of about three of them:
        # the least recently used go, and every row stays the cold one.
        shapes = [(22, 5000, scale) for scale in range(34, 43)]
        cold = [newton_row_with(tree._BlockCache(), monkeypatch, *shape)
                for shape in shapes]
        sizes = []
        for shape in shapes[:3]:
            single = tree._BlockCache()
            newton_row_with(single, monkeypatch, *shape)
            sizes.append(TestBlockCache.held(single))
        monkeypatch.setattr(tree, "BLOCK_CACHE_BITS", sum(sizes))
        for shape, row in zip(shapes * 2, cold * 2):
            assert series._newton_row(*shape) == row
            assert 0 < TestBlockCache.held(zetas) <= sum(sizes)
        assert 0 < len(zetas) < len(shapes)
        assert list(zetas) == sorted(zetas)

    def test_concurrent_callers_at_one_precision(self, monkeypatch):
        # Threads over rows at one precision, deep and shallow, and two
        # more precisions, in a budget they overflow; a store and a lookup
        # pause inside their critical section, as for the tree's blocks.
        class Pausing(tree._BlockCache):
            def pop(self, *args):
                time.sleep(1e-4)
                return super().pop(*args)

            def move_to_end(self, key):
                time.sleep(1e-4)
                return super().move_to_end(key)

        requests = [(depth, truncation, 43) for depth in (16, 22)
                    for truncation in (100, 700, 5000, 10**6)]
        requests += [(13, 2000, 40), (22, 2000, 34)]
        cold = {request: newton_row_with(tree._BlockCache(), monkeypatch,
                                         *request) for request in requests}
        zetas = Pausing()
        monkeypatch.setattr(series, "_ZETAS", zetas)
        monkeypatch.setattr(tree, "BLOCK_CACHE_BITS", 40000)
        results, errors = {}, []

        def worker(share):
            try:
                for request in share * 3:
                    results[request] = series._newton_row(*request)
            except Exception as error:  # a thread's failure, checked below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(requests[i::4],))
                   for i in range(4)]
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
        assert errors == [] and results == cold
        assert 0 < TestBlockCache.held(zetas) <= 40000


def block_exponents(low, high, depth):
    """{p: e_p} for e_p > 0, e_p = sum_i max(0, n_i - depth) with n_i the
    multiples of p**i in [low, high)."""
    exponents = {}
    for p in first_primes(high):
        if p >= high:
            break
        power, e = p, 0
        while power < high:
            e += max(0, (high - 1) // power - (low - 1) // power - depth)
            power *= p
        if e:
            exponents[p] = e
    return exponents


def nonzero(exponents):
    """A list of exponents in the order of the primes as {p: e_p}, e_p > 0."""
    return {p: e for p, e in zip(first_primes(len(exponents)), exponents)
            if e}


class TestBlockExponents:
    """Each aligned block's row is kept divided by prod_p p**(2*e_p), its
    own cofactor K_B at the depth it was built at (tree._exponents)."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        cache = tree._BlockCache()
        monkeypatch.setattr(tree, "_BLOCKS", cache)
        return cache

    def test_kept_rows_times_their_cofactor_are_the_direct_expansion(
            self, monkeypatch):
        rng = random.Random(26)
        requests = [(1, 65, 0), (1, 513, 8), (449, 513, 1)] + [
            (1 + k * size, (k + 1) * size + 1, rng.randint(0, 8))
            for size in (LEAF, 2 * LEAF, 4 * LEAF, 8 * LEAF)
            for k in rng.sample(range(3000 // size), 3)]
        for low, high, depth in requests:
            blocks = tree._BlockCache()
            monkeypatch.setattr(tree, "_BLOCKS", blocks)
            row, exponents = tree._truncated_product(low, high, depth)
            assert (low, high) in blocks
            # The block and every block below it.
            for (left, right), (_, kept, own) in blocks.items():
                assert nonzero(own) == block_exponents(left, right, depth)
                assert undivided((kept, own)) == direct_expansion(
                    left, right, depth), (left, right, depth)
            assert (tuple(row), exponents) == blocks[low, high][1:]

    @pytest.mark.parametrize("low, high", [
        (1, 13), (2, 14), (61, 73), (1016, 1028), (2041, 2049), (239, 251),
        (720, 730), (1, 2), (7, 7), (96, 99)])
    def test_exponents_are_the_least_valuation_of_any_term(self, low, high):
        # Every term of c_j leaves out j of the indices: e_p is the least
        # number of factors p in the product of the others, over every j
        # up to the depth and every choice of the j left out.
        indices = range(low, high)

        def valuation(value, p):
            count = 0
            while value % p == 0:
                value, count = value // p, count + 1
            return count

        for p in [p for p in first_primes(high + 1) if p <= high]:
            counts = [valuation(ell, p) for ell in indices]
            least = [sum(counts) - max(map(sum, itertools.combinations(
                counts, j))) for j in range(len(counts) + 1)]
            for depth in range(9):
                primes, exponents = tree._exponents(low, high, depth)
                assert primes == first_primes(len(exponents))
                index = first_primes(high + 1).index(p)
                e = exponents[index] if index < len(exponents) else 0
                assert e == min(least[:depth + 1]), (low, high, depth, p)

    def test_a_row_kept_deeper_serves_a_shallower_request(
            self, blocks, monkeypatch):
        # Read at depth 2, the rows kept at depth 6 carry depth 6's smaller
        # exponents; requests at depth 9 build them again at depth 9's.
        def cold(depth, truncation):
            with monkeypatch.context() as cold_cache:
                cold_cache.setattr(tree, "_BLOCKS", tree._BlockCache())
                return tree.reduced_coefficients(depth, truncation, 0)

        for truncation in (700, 1100):
            assert tree.reduced_coefficients(6, truncation, 0) == cold(
                6, truncation)
        kept = {key: entry[1:] for key, entry in blocks.items()}
        assert all(len(row) == min(6, high - low) + 1
                   for (low, high), (row, _) in kept.items())
        for truncation in (700, 1100):
            assert tree.reduced_coefficients(2, truncation, 0) == cold(
                2, truncation)
        assert {key: entry[1:] for key, entry in blocks.items()} == kept
        assert any(nonzero(own) != block_exponents(*key, 2)
                   for key, (_, own) in kept.items())
        for truncation in (700, 1100):
            assert tree.reduced_coefficients(9, truncation, 0) == cold(
                9, truncation)
        assert blocks.keys() == kept.keys()
        for (low, high), (_, row, own) in blocks.items():
            assert len(row) == 10
            assert nonzero(own) == block_exponents(low, high, 9)

    def test_a_shorter_sieve_between_exponents_and_cofactor(
            self, blocks, monkeypatch):
        # A concurrent caller with a smaller bound may rebind tree._PRIMES
        # to a shorter sieve just after _exponents read it: each block and
        # the root are still divided by all the exponents they keep.
        requests = [(1, 700), (4, 1100), (9, 300), (2, 3000)]
        with monkeypatch.context() as cold_cache:
            cold_cache.setattr(tree, "_BLOCKS", tree._BlockCache())
            cold = [tree.reduced_coefficients(*request, 0)
                    for request in requests]
        exponents = tree._exponents

        def then_shrink(low, high, depth):
            primes_and_exponents = exponents(low, high, depth)
            tree._PRIMES = (2, [2])
            return primes_and_exponents

        monkeypatch.setattr(tree, "_PRIMES", (1, []))
        monkeypatch.setattr(tree, "_exponents", then_shrink)
        assert [tree.reduced_coefficients(*request, 0)
                for request in requests] == cold
        for (low, high), (_, row, own) in blocks.items():
            depth = len(row) - 1
            assert nonzero(own) == block_exponents(low, high, depth)
            assert undivided((row, own)) == direct_expansion(
                low, high, depth)


def sum_result(depth, truncation, mode, digits):
    return series.series_results(
        series.sum_plan(depth, truncation, mode, digits), digits)[0]


class TestOneChainResult:
    """A sum plan's bound and limit are tail_bound's and
    reference_value's, from one chain."""

    @pytest.mark.parametrize("mode", ["exact", "fixed"])
    def test_matches_separate_calls(self, mode):
        for depth in (1, 2, 3, 7, 16):
            for truncation in (0, 1, 5, 40):
                for digits in (1, 20, 600):
                    result = sum_result(depth, truncation, mode, digits)
                    if truncation:
                        bound = tail_bound(depth, truncation, digits)
                    else:
                        # The whole series: (pi**2/6)**depth rounded up.
                        upper = basel_power(depth, digits + 10).mantissa + 1
                        bound = FixedDecimal(div_round_up(upper, 10**10),
                                             digits + 10, 10)
                    ref = reference_value(depth, digits)
                    for got, want in ((result.tail_bound, bound),
                                      (result.reference, ref)):
                        assert (got.mantissa, got.scale, got.guard) == (
                            want.mantissa, want.scale, want.guard)

    def test_series_result_is_a_plain_named_tuple(self):
        result = sum_result(2, 3, "exact", 5)
        assert series.SeriesResult._fields == (
            "depth", "truncation", "mode", "value", "tail_bound",
            "reference", "abs_error")
        assert result == tuple(result)
        assert result[:3] == (2, 3, "exact")
        assert series.SeriesResult.__doc__.startswith(
            "One computed partial sum with its error certificates.")
        with pytest.raises(AttributeError):
            result.depth = 3

    def test_validation(self):
        with pytest.raises(DomainError):
            sum_result(2, 3, "exact", 0)
        with pytest.raises(DomainError):
            sum_result(0, 3, "exact", 5)


class TestRowCostCountsTheTailsSummed:
    def test_each_tail_summed_counts_once(self, monkeypatch):
        # Depth 2700 past a 20-place head: about a dozen tails are summed,
        # and the estimate counts those, not one per depth.
        depth, truncation, scale = 2700, 3000, 20 + guard_digits(2700 * 3000)
        bits, head = series._newton_plan(depth, truncation, scale)
        terms = series._tail_terms(depth, head + 1, bits)
        assert head < truncation and terms <= 13
        steps = series._row_plan(depth, truncation, scale).steps
        monkeypatch.setattr(series, "_tail_terms", lambda *args: 0)
        # Past the plan's cache, so that no plan formed with the patch is
        # kept.
        assert (steps - series._row_plan.__wrapped__(
            depth, truncation, scale).steps == 4 * terms * (bits + 2000))
