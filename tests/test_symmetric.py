"""Symbolic elementary-symmetric machinery.

The three independent construction routes (enumeration over index
subsets, the one-variable-at-a-time recurrence, and the literal expansion
of the generating function's product) must produce equal polynomials;
verify_expansion compares all three power by power. A polynomial is a
dict from monomial mask (bit i-1 for x_i) to coefficient.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

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
    poly = {0: 1}
    for index in indices:
        poly = times_variable(poly, index)
    return poly


def plus(a, b):
    """Polynomial sum (every coefficient here is positive: none cancels)."""
    out = dict(a)
    for mask, coefficient in b.items():
        out[mask] = out.get(mask, 0) + coefficient
    return out


def indices_of(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def renamed(poly, mapping):
    """Polynomial with every x_i renamed to x_{mapping[i]}."""
    out = {}
    for mask, coefficient in poly.items():
        out = plus(out, {sum(1 << (mapping[i] - 1) for i in indices_of(mask)):
                         coefficient})
    return out


class TestMonomial:
    """Monomials are int masks, built only through times_variable."""

    def test_canonical_order(self):
        assert monomial(5, 1) == monomial(1, 5) == {0b10001: 1}

    def test_from_indices_requires_distinct(self):
        # The squarefree guard: multiplying by a variable the monomial
        # already holds is refused, never folded into the same mask.
        assert monomial(3, 1, 2) == {0b111: 1}
        with pytest.raises(DomainError):
            monomial(1, 1)
        with pytest.raises(DomainError):
            times_variable(monomial(1, 4), 4)
        with pytest.raises(DomainError):
            times_variable(elementary_symmetric(4, 2), 3)

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
        poly = {**monomial(2, 3), **monomial(1, 3), **monomial()}
        assert render(poly) == "1 + x_1*x_3 + x_2*x_3"

    def test_validation(self):
        with pytest.raises(DomainError):
            times_variable({0: 1}, 0)
        with pytest.raises(DomainError):
            times_variable({0: 1}, -2)


class TestSparsePolynomial:
    """Sparse polynomials are dicts from monomial mask to coefficient."""

    def test_constant_and_variable(self):
        assert monomial() == {0: 1}
        assert monomial(4) == {0b1000: 1}
        assert times_variable({0: 3, 0b1: 2}, 2) == {0b10: 3, 0b11: 2}

    def test_render_cases(self):
        assert render({}) == "0"
        assert render({0: 7}) == "7"
        assert render(monomial(1, 2)) == "x_1*x_2"
        assert render({0b11: 2}) == "2*x_1*x_2"
        assert render({0b1: 1, 0b10: 3}) == "x_1 + 3*x_2"

    def test_render_sorts_by_index_sequence(self):
        assert render(elementary_symmetric(4, 2)) == (
            "x_1*x_2 + x_1*x_3 + x_1*x_4 + x_2*x_3 + x_2*x_4 + x_3*x_4")

    def test_substitute(self):
        poly = plus(monomial(1, 2), monomial(1))
        value = substitute(poly, {1: Fraction(1, 2), 2: Fraction(1, 3)})
        assert value == Fraction(1, 6) + Fraction(1, 2)
        assert substitute({0: 5}, {}) == 5
        assert substitute({}, {}) == 0

    def test_substitute_missing_index(self):
        with pytest.raises(DomainError):
            substitute(monomial(3), {1: Fraction(1)})

    def test_max_index_and_squarefree(self):
        p = elementary_symmetric(5, 2)
        assert max(mask.bit_length() for mask in p) == 5
        assert all(mask.bit_count() == 2 for mask in p)
        with pytest.raises(DomainError):
            times_variable(monomial(1), 1)


class TestPlus:
    """_plus forms a sum as a new dict: supports that share a monomial add
    its coefficients, disjoint ones unite, and neither input changes."""

    def test_overlapping_supports_add(self):
        left, right = {1: 1, 2: 1}, {2: 2}
        total = _plus(left, right)
        assert total == {1: 1, 2: 3}
        assert total is not left and total is not right
        assert (left, right) == ({1: 1, 2: 1}, {2: 2})

    def test_disjoint_supports_unite(self):
        left, right = {0: 1, 0b101: 2}, {0b10: 3}
        total = _plus(left, right)
        assert total == {0: 1, 0b101: 2, 0b10: 3}
        assert total is not left and total is not right
        assert (left, right) == ({0: 1, 0b101: 2}, {0b10: 3})

    @pytest.mark.parametrize("left, right", [({}, {}), ({1: 1}, {}),
                                             ({}, {1: 1})])
    def test_an_empty_side_still_gives_a_new_dict(self, left, right):
        total = _plus(left, right)
        assert total == {**left, **right}
        assert total is not left and total is not right

    @settings(derandomize=True, max_examples=50)
    @given(left=st.dictionaries(st.integers(0, 31), st.integers(1, 5)),
           right=st.dictionaries(st.integers(0, 31), st.integers(1, 5)))
    def test_matches_the_per_monomial_sum(self, left, right):
        before = (dict(left), dict(right))
        assert _plus(left, right) == plus(left, right)
        assert (left, right) == before


class TestFreshResults:
    """No two returned polynomials are one dict, and every coefficient of
    the identity is a plain int 1, whichever route formed it."""

    @pytest.mark.parametrize("n_vars", range(0, 11))
    def test_no_dict_is_shared_and_every_coefficient_is_one(self, n_vars):
        polys = expand_product(n_vars) + elementary_symmetric_row(n_vars,
                                                                  n_vars)
        assert len(set(map(id, polys))) == len(polys)
        polys += [elementary_symmetric(n_vars, k) for k in range(n_vars + 1)]
        assert all(type(c) is int and c == 1
                   for poly in polys for c in poly.values())


class TestElementarySymmetric:
    def naive(self, n_vars, k):
        total = {}
        for subset in combinations(range(1, n_vars + 1), k):
            total = plus(total, monomial(*subset))
        return total

    @pytest.mark.parametrize("n_vars", range(0, 9))
    def test_matches_naive_enumeration(self, n_vars):
        for k in range(0, n_vars + 3):
            assert elementary_symmetric(n_vars, k) == self.naive(n_vars, k)

    @pytest.mark.parametrize("n_vars", range(0, 8))
    def test_row_recurrence_identity(self, n_vars):
        # e_k over M+1 variables = e_k over M + x_{M+1} * e_{k-1} over M.
        for k in range(1, n_vars + 2):
            lhs = elementary_symmetric(n_vars + 1, k)
            rhs = plus(elementary_symmetric(n_vars, k), times_variable(
                elementary_symmetric(n_vars, k - 1), n_vars + 1))
            assert lhs == rhs

    def test_row_matches_singles(self):
        row = elementary_symmetric_row(6, 6)
        assert len(row) == 7
        for k, poly in enumerate(row):
            assert poly == elementary_symmetric(6, k)
        assert elementary_symmetric_row(6, 2) == row[:3]

    def test_term_counts(self):
        for n_vars in range(0, 8):
            for k in range(0, n_vars + 2):
                e_k = elementary_symmetric(n_vars, k)
                assert len(e_k) == math.comb(n_vars, k)
                assert all(mask.bit_count() == k for mask in e_k)
                assert set(e_k.values()) <= {1}

    def test_edge_cases(self):
        assert elementary_symmetric(4, 0) == {0: 1}
        assert elementary_symmetric(0, 0) == {0: 1}
        assert elementary_symmetric(3, 4) == {}
        with pytest.raises(DomainError):
            elementary_symmetric(-1, 0)
        with pytest.raises(DomainError):
            elementary_symmetric(3, -1)
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
        e_k = elementary_symmetric(n_vars, k)
        assert renamed(e_k, mapping) == e_k

    def test_substitute_reciprocal_squares(self):
        # e_2 over 3 variables at x_l = 1/l**2: 1/4 + 1/9 + 1/36 = 7/18.
        e2 = elementary_symmetric(3, 2)
        assignment = {i: Fraction(1, i * i) for i in range(1, 4)}
        assert substitute(e2, assignment) == Fraction(7, 18)

    def test_substitute_depth_three(self):
        e3 = elementary_symmetric(4, 3)
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
        assert coefficients[0] == {0: 1}
        for k, coeff in enumerate(coefficients):
            assert coeff == elementary_symmetric(n_vars, k)

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

        def corrupted(n_vars, k):
            if k == 2:
                return plus(real(n_vars, k), {0b1: 1, 0b11: 1})
            return real(n_vars, k)

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
        # double its coefficient, where overwriting would hide the defect.
        import pipow.symmetric as sym

        real = sym.times_variable

        def leaky(poly, index):
            out = real(poly, index)
            if index == 2 and poly == {0: 1}:
                out[0b1] = 1
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

        wrong = [{0: 1}, {0b01: 1, 0b11: 1}, {0b11: 1}]
        monkeypatch.setattr(sym, "expand_product", lambda n: wrong)
        monkeypatch.setattr(sym, "elementary_symmetric_row",
                            lambda n, k: wrong)
        monkeypatch.setattr(sym, "elementary_symmetric",
                            lambda n, k: wrong[k])
        report = sym.verify_expansion(2)
        assert not report.passed
        assert report.mismatch_power == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_expansion(-1)
