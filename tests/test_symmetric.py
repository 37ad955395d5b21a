"""Symbolic elementary-symmetric machinery.

The three independent construction routes (enumeration over index
subsets, the one-variable-at-a-time recurrence, and the literal expansion
of the generating function's product) must produce equal polynomials;
verify_expansion compares all three power by power. A polynomial is an
ascending list of monomial masks (bit i-1 for x_i), each monomial
repeated once per unit of its coefficient.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipow.errors import DomainError
from pipow.symmetric import (
    _plus,
    elementary_symmetric,
    elementary_symmetric_row,
    expand_product,
    render,
    substitute,
    times_variable,
    verify_expansion,
)


def monomial(*indices):
    """x_{i_1}*...*x_{i_k} built one variable at a time from the constant 1."""
    poly = [0]
    for index in indices:
        poly = times_variable(poly, index)
    return poly


def plus(a, b):
    """Polynomial sum, monomial by monomial (every coefficient here is
    positive: none cancels)."""
    return sorted((Counter(a) + Counter(b)).elements())


def enumerated(n_vars, k):
    """e_k over x_1..x_n_vars from the enumeration row, 0 for k > n_vars."""
    row = elementary_symmetric(n_vars)
    return row[k] if k < len(row) else []


def indices_of(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def renamed(poly, mapping):
    """Polynomial with every x_i renamed to x_{mapping[i]}."""
    out = []
    for mask in poly:
        out = plus(out, [sum(1 << (mapping[i] - 1) for i in indices_of(mask))])
    return out


class TestMonomial:
    """Monomials are int masks, built only through times_variable."""

    def test_canonical_order(self):
        assert monomial(5, 1) == monomial(1, 5) == [0b10001]

    def test_from_indices_requires_distinct(self):
        # The squarefree guard: multiplying by a variable the monomial
        # already holds is refused, never folded into the same mask.
        assert monomial(3, 1, 2) == [0b111]
        with pytest.raises(DomainError):
            monomial(1, 1)
        with pytest.raises(DomainError):
            times_variable(monomial(1, 4), 4)
        with pytest.raises(DomainError):
            times_variable(enumerated(4, 2), 3)

    def test_degree(self):
        [constant] = monomial()
        [product] = monomial(2, 7, 9)
        assert constant.bit_count() == 0
        assert product.bit_count() == 3

    def test_rendering(self):
        assert render(monomial()) == "1"
        assert render(monomial(2)) == "x_2"
        assert render(monomial(2, 1)) == "x_1*x_2"

    def test_ordering_is_by_index_sequence(self):
        # x_1*x_3 sorts before x_2*x_3: graded lexicographic on the
        # index tuple, with the constant first.
        poly = plus(plus(monomial(2, 3), monomial(1, 3)), monomial())
        assert render(poly) == "1 + x_1*x_3 + x_2*x_3"

    def test_validation(self):
        with pytest.raises(DomainError):
            times_variable([0], 0)
        with pytest.raises(DomainError):
            times_variable([0], -2)


class TestSparsePolynomial:
    """Sparse polynomials are ascending lists of monomial masks, each
    repeated once per unit of its coefficient."""

    def test_constant_and_variable(self):
        assert monomial() == [0]
        assert monomial(4) == [0b1000]
        assert times_variable([0, 0, 0, 0b1, 0b1], 2) == [0b10] * 3 + [0b11] * 2

    def test_render_cases(self):
        assert render([]) == "0"
        assert render([0] * 7) == "7"
        assert render(monomial(1, 2)) == "x_1*x_2"
        assert render([0b11, 0b11]) == "2*x_1*x_2"
        assert render([0b1] + [0b10] * 3) == "x_1 + 3*x_2"

    def test_render_sorts_by_index_sequence(self):
        assert render(enumerated(4, 2)) == (
            "x_1*x_2 + x_1*x_3 + x_1*x_4 + x_2*x_3 + x_2*x_4 + x_3*x_4")

    def test_substitute(self):
        poly = plus(monomial(1, 2), monomial(1))
        value = substitute(poly, {1: Fraction(1, 2), 2: Fraction(1, 3)})
        assert value == Fraction(1, 6) + Fraction(1, 2)
        assert substitute([0] * 5, {}) == 5
        assert substitute([], {}) == 0

    def test_substitute_missing_index(self):
        with pytest.raises(DomainError):
            substitute(monomial(3), {1: Fraction(1)})

    def test_max_index_and_squarefree(self):
        p = enumerated(5, 2)
        assert max(mask.bit_length() for mask in p) == 5
        assert all(mask.bit_count() == 2 for mask in p)
        with pytest.raises(DomainError):
            times_variable(monomial(1), 1)


class TestPlus:
    """_plus forms a sum as a new list: supports that share a monomial keep
    both copies, so its coefficients add, disjoint ones unite, and neither
    input changes."""

    def test_overlapping_supports_add(self):
        left, right = [1, 2], [2, 2]
        total = _plus(left, right)
        assert total == [1, 2, 2, 2]
        assert total is not left and total is not right
        assert (left, right) == ([1, 2], [2, 2])

    def test_disjoint_supports_unite(self):
        left, right = [0, 0b101, 0b101], [0b10] * 3
        total = _plus(left, right)
        assert total == [0] + [0b10] * 3 + [0b101] * 2
        assert total is not left and total is not right
        assert (left, right) == ([0, 0b101, 0b101], [0b10] * 3)

    @pytest.mark.parametrize("left, right", [([], []), ([1], []),
                                             ([], [1])])
    def test_an_empty_side_still_gives_a_new_dict(self, left, right):
        total = _plus(left, right)
        assert total == left + right
        assert total is not left and total is not right

    def test_interleaved_operands_keep_every_copy(self):
        # Not the recurrence's shape (left entirely below right): the
        # merge must sort, and a monomial on both sides stays twice.
        left, right = [0b1, 0b100, 0b110], [0b10, 0b100, 0b1000]
        total = _plus(left, right)
        assert total == [0b1, 0b10, 0b100, 0b100, 0b110, 0b1000]
        assert total is not left and total is not right
        assert (left, right) == ([0b1, 0b100, 0b110], [0b10, 0b100, 0b1000])

    @settings(derandomize=True, max_examples=50)
    @given(left=st.lists(st.integers(0, 31)).map(sorted),
           right=st.lists(st.integers(0, 31)).map(sorted))
    def test_matches_the_per_monomial_sum(self, left, right):
        before = (list(left), list(right))
        assert _plus(left, right) == plus(left, right)
        assert (left, right) == before


class TestTimesVariable:
    """The squarefree refusal scans only when the last, largest mask is
    at least the bit; it must still find a holder that is not last."""

    def test_refuses_when_the_last_mask_holds_the_bit(self):
        with pytest.raises(DomainError, match=r"x_2 \* x_2 is not squarefree"):
            times_variable([0b1, 0b10], 2)

    def test_refuses_when_an_earlier_mask_holds_the_bit(self):
        with pytest.raises(DomainError, match=r"x_2 \* x_2 is not squarefree"):
            times_variable([0b10, 0b100], 2)

    def test_a_larger_mask_without_the_bit_is_accepted(self):
        assert times_variable([0b1, 0b100], 2) == [0b11, 0b110]


class TestFreshResults:
    """No two returned polynomials are one list, and every coefficient of
    the identity is 1, whichever route formed it: no monomial repeats."""

    @pytest.mark.parametrize("n_vars", range(0, 11))
    def test_no_dict_is_shared_and_every_coefficient_is_one(self, n_vars):
        polys = (expand_product(n_vars)
                 + elementary_symmetric_row(n_vars, n_vars)
                 + elementary_symmetric(n_vars))
        assert len(set(map(id, polys))) == len(polys)
        assert all(type(mask) is int for poly in polys for mask in poly)
        assert all(len(set(poly)) == len(poly) for poly in polys)


class TestAscending:
    @pytest.mark.parametrize("n_vars", range(0, 11))
    def test_every_construction_returns_ascending_lists(self, n_vars):
        rows = (expand_product(n_vars),
                elementary_symmetric_row(n_vars, n_vars),
                elementary_symmetric(n_vars))
        for row in rows:
            assert len(row) == n_vars + 1
            assert all(poly == sorted(poly) for poly in row)


class TestSubsetOracle:
    @pytest.mark.parametrize("n_vars", range(0, 9))
    def test_every_row_equals_the_brute_force_expansion(self, n_vars):
        # Multiply out prod (1 + x_l t) by choosing 1 or x_l t from each
        # factor: each choice vector is one term, of power sum(choice).
        oracle = [[] for _ in range(n_vars + 1)]
        for choice in product((0, 1), repeat=n_vars):
            mask = sum(bit << l for l, bit in enumerate(choice))
            oracle[sum(choice)].append(mask)
        oracle = [sorted(poly) for poly in oracle]
        assert expand_product(n_vars) == oracle
        assert elementary_symmetric_row(n_vars, n_vars) == oracle
        assert elementary_symmetric(n_vars) == oracle


class TestElementarySymmetric:
    def naive(self, n_vars, k):
        total = []
        for subset in combinations(range(1, n_vars + 1), k):
            total = plus(total, monomial(*subset))
        return total

    @pytest.mark.parametrize("n_vars", range(0, 9))
    def test_matches_naive_enumeration(self, n_vars):
        for k in range(0, n_vars + 3):
            assert enumerated(n_vars, k) == self.naive(n_vars, k)

    @pytest.mark.parametrize("n_vars", range(0, 8))
    def test_row_recurrence_identity(self, n_vars):
        # e_k over M+1 variables = e_k over M + x_{M+1} * e_{k-1} over M.
        for k in range(1, n_vars + 2):
            lhs = enumerated(n_vars + 1, k)
            rhs = plus(enumerated(n_vars, k), times_variable(
                enumerated(n_vars, k - 1), n_vars + 1))
            assert lhs == rhs

    def test_row_matches_singles(self):
        row = elementary_symmetric_row(6, 6)
        assert len(row) == 7
        for k, poly in enumerate(row):
            assert poly == enumerated(6, k)
        assert elementary_symmetric_row(6, 2) == row[:3]

    def test_term_counts(self):
        for n_vars in range(0, 8):
            for k in range(0, n_vars + 2):
                e_k = enumerated(n_vars, k)
                assert len(e_k) == math.comb(n_vars, k)
                assert all(mask.bit_count() == k for mask in e_k)
                assert len(set(e_k)) == len(e_k)

    def test_edge_cases(self):
        assert enumerated(4, 0) == [0]
        assert elementary_symmetric(0) == [[0]]
        assert len(elementary_symmetric(3)) == 4 and enumerated(3, 4) == []
        with pytest.raises(DomainError):
            elementary_symmetric(-1)
        with pytest.raises(DomainError):
            elementary_symmetric_row(-1, 2)
        with pytest.raises(DomainError):
            elementary_symmetric_row(2, -1)

    @settings(derandomize=True, max_examples=25)
    @given(n_vars=st.integers(1, 6), k=st.integers(0, 6),
           seed=st.integers(0, 10**6))
    def test_permutation_invariance(self, n_vars, k, seed):
        # Renaming the variables by any permutation fixes e_k.
        perm = list(range(1, n_vars + 1))
        random.Random(seed).shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(n_vars)}
        e_k = enumerated(n_vars, k)
        assert renamed(e_k, mapping) == e_k

    def test_substitute_reciprocal_squares(self):
        # e_2 over 3 variables at x_l = 1/l**2: 1/4 + 1/9 + 1/36 = 7/18.
        e2 = enumerated(3, 2)
        assignment = {i: Fraction(1, i * i) for i in range(1, 4)}
        assert substitute(e2, assignment) == Fraction(7, 18)

    def test_substitute_depth_three(self):
        e3 = enumerated(4, 3)
        assignment = {i: Fraction(1, i * i) for i in range(1, 5)}
        expected = sum(
            Fraction(1, (a * b * c) ** 2)
            for a, b, c in combinations(range(1, 5), 3)
        )
        assert substitute(e3, assignment) == expected


class TestProductExpansion:
    @pytest.mark.parametrize("n_vars", range(0, 7))
    def test_coefficients_are_elementary_symmetric(self, n_vars):
        coefficients = expand_product(n_vars)
        assert len(coefficients) == n_vars + 1
        assert coefficients[0] == [0]
        for k, coeff in enumerate(coefficients):
            assert coeff == enumerated(n_vars, k)

    def test_validation(self):
        with pytest.raises(DomainError):
            expand_product(-1)


class TestVerifyExpansion:
    @pytest.mark.parametrize("n_vars", range(0, 7))
    def test_passes(self, n_vars):
        report = verify_expansion(n_vars)
        assert report.passed
        assert report.mismatch_power is None
        assert report.n_vars == n_vars
        assert len(report.details) == n_vars + 1
        assert "PASS" in report.summary()

    def test_details_mention_term_counts(self):
        report = verify_expansion(4)
        assert report.details[2] == (
            "power 2: 6 squarefree monomials, three constructions agree")

    def test_failure_path(self, monkeypatch):
        import pipow.symmetric as sym

        real = sym.elementary_symmetric

        def corrupted(n_vars):
            row = real(n_vars)
            row[2] = plus(row[2], [0b1, 0b11])
            return row

        monkeypatch.setattr(sym, "elementary_symmetric", corrupted)
        report = sym.verify_expansion(3)
        assert not report.passed
        assert report.mismatch_power == 2
        assert "FAIL" in report.summary()
        assert report.details[2:] == (
            "power 2: MISMATCH",
            "  product expansion: x_1*x_2 + x_1*x_3 + x_2*x_3",
            "  enumeration:       x_1 + 2*x_1*x_2 + x_1*x_3 + x_2*x_3",
            "  recurrence:        x_1*x_2 + x_1*x_3 + x_2*x_3",
            "  monomial count 3, expected 3",
        )

    def test_a_shared_monomial_is_added_not_overwritten(self, monkeypatch):
        # x_2 * 1 also emits x_1, which power 1 already holds: the sum must
        # keep both copies, doubling its coefficient, where merging them
        # into one would hide the defect.
        import pipow.symmetric as sym

        real = sym.times_variable

        def leaky(poly, index):
            out = real(poly, index)
            if index == 2 and poly == [0]:
                out.insert(0, 0b1)
            return out

        monkeypatch.setattr(sym, "times_variable", leaky)
        report = sym.verify_expansion(3)
        assert not report.passed
        assert report.mismatch_power == 1
        assert report.details[1:] == (
            "power 1: MISMATCH",
            "  product expansion: 2*x_1 + x_2 + x_3",
            "  enumeration:       x_1 + x_2 + x_3",
            "  recurrence:        2*x_1 + x_2 + x_3",
            "  monomial count 3, expected 3",
        )

    def test_degree_check_catches_a_shared_defect(self, monkeypatch):
        # All three derivations agree on a power-1 coefficient with the
        # right count, but one monomial has degree 2.
        import pipow.symmetric as sym

        wrong = [[0], [0b01, 0b11], [0b11]]
        monkeypatch.setattr(sym, "expand_product", lambda n: wrong)
        monkeypatch.setattr(sym, "elementary_symmetric_row",
                            lambda n, k: wrong)
        monkeypatch.setattr(sym, "elementary_symmetric", lambda n: wrong)
        report = sym.verify_expansion(2)
        assert not report.passed
        assert report.mismatch_power == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_expansion(-1)
