"""Nested-sum evaluation, truncation tails, and convergence planning.

Cross-validation strategy: the product tree behind partial_sum, the
Fraction sweep behind partial_sum_prefix, the literal tuple enumeration,
and the Newton power-sum identities are four independent routes to the
same exact rational; they must agree bit for bit. Tail bounds are checked
for soundness against exact prefixes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipow.errors import DomainError, InfeasibleError
from pipow.exactnum import FixedDecimal
from pipow.reference import basel_power, reference_value, sinc_taylor
from pipow.series import (
    DEFAULT_WORK_CEILING,
    EXACT_TRUNCATION_LIMIT,
    converge,
    newton_cross_check,
    partial_sum,
    partial_sum_naive,
    partial_sum_prefix,
    required_truncation,
    sinc_product,
    sinc_series,
    tail_bound,
)
from pipow.symmetric import elementary_symmetric, substitute


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
        e_poly = elementary_symmetric(truncation, depth)
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
        # Covers N == 0, depth > N, depth == N and depth == 0.
        prefix = partial_sum_prefix(depth, 60)
        for truncation in range(61):
            tree = partial_sum(depth, truncation, mode="exact")
            assert type(tree) is Fraction
            assert tree == prefix[truncation] == newton_cross_check(
                depth, truncation)

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

    def test_work_ceiling_refusal(self):
        with pytest.raises(InfeasibleError) as info:
            converge(2, 6, work_ceiling=10**5)
        assert info.value.required == 1644935
        assert info.value.ceiling == 10**5

    def test_default_ceiling_allows_six_digits(self):
        # 1000001 <= 10^8: runs without a ceiling argument.
        assert DEFAULT_WORK_CEILING == 10**8
        result = converge(1, 6)
        assert result.truncation <= DEFAULT_WORK_CEILING

    def test_validation(self):
        with pytest.raises(DomainError):
            converge(0, 5)
        with pytest.raises(DomainError):
            converge(1, 5, work_ceiling=0)


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
