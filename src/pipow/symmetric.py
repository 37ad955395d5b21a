"""Exact engine for elementary symmetric polynomials.

The elementary symmetric polynomial e_k of x_1..x_M is the sum, over all
strictly increasing index tuples i_1 < ... < i_k, of x_{i_1}*...*x_{i_k};
it is the t**k coefficient of prod_{m=1..M} (1 + x_m * t). This module is
the exact, symbolic ground truth the series code is checked against. It
builds e_k three independent ways and checks that they agree term by term:

* direct enumeration of the index subsets,
* the row recurrence  e_k(x_1..x_{m+1}) = e_k(x_1..x_m) + x_{m+1} * e_{k-1}(x_1..x_m),
* literal expansion of the product, one factor at a time by convolution.

Every monomial in that identity is squarefree, as each factor contributes
x_m at most once, so a monomial is named by the set of variables it
holds: an int bitmask, bit i-1 standing for x_i (mask 0 is the constant
1; the degree is ``mask.bit_count()``). A polynomial is an ascending list
of masks, each monomial repeated once per unit of its coefficient (every
coefficient built here is positive: none cancels), so list equality is
polynomial equality and a duplicated monomial stays visible as a repeat.
``times_variable``, the one way to multiply by a variable, refuses a
monomial that already holds it: such a product has no mask, and OR-ing
the bit in silently would hide exactly the defect the squarefree check
exists to catch.

Every sum is formed whole, as a new list, by ``_plus``. The recurrence
and the expansion only ever add a polynomial over x_1..x_(m-1) to x_m
times another, so every mask on the left is below every mask on the
right and their concatenation is the ascending sum. Operands that
interleave, which only a defect produces, are merged by one sort, and a
monomial on both sides keeps both copies, so the check still sees it.
"""

from __future__ import annotations

import collections
import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import DomainError, InfeasibleError

__all__ = ["ExpansionReport", "PRACTICAL_VERIFY_CEILING",
           "VERIFY_WORK_CEILING", "elementary_symmetric",
           "elementary_symmetric_row", "expand_product", "render",
           "substitute", "times_variable", "verify_expansion"]

# Above this many variables the CLI warns: time and memory double with
# each m, and one cold verify_expansion on a shared 2-vCPU host (CPython
# 3.11.7) took 0.02 s and 22 MB peak RSS at m = 16, 0.07-0.09 s and 47 MB
# at m = 18 and 0.17-0.25 s and 79 MB at m = 19. The ceiling was set when
# m = 20 took over a second; it stands so the printed output stays put.
PRACTICAL_VERIFY_CEILING = 19
# Above this many variables verification is refused before any work:
# m = 20 took 0.36-0.41 s and 142-144 MB peak RSS on the same host.
VERIFY_WORK_CEILING = 20


def _indices(mask: int) -> tuple:
    """Variable indices of a monomial mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _plus(left: list, right: list) -> list:
    """left + right as a new ascending list; a monomial on both sides
    keeps both copies, so its coefficients add."""
    if not left or not right or left[-1] < right[0]:
        return left + right
    return sorted(left + right)  # timsort merges the two ascending runs


def times_variable(poly: list, index: int) -> list:
    """poly * x_index, refusing any monomial that already holds x_index.

    OR-ing a bit no mask holds adds it, so the product stays ascending.
    Only a mask at least the bit can hold it, and the last mask is the
    largest, so the scan runs only when that one is."""
    if index < 1:
        raise DomainError("variable indices are 1-based")
    bit = 1 << (index - 1)
    if poly and poly[-1] >= bit:
        for mask in poly:
            if mask & bit:
                raise DomainError(
                    f"x_{index} * {render([mask])} is not squarefree")
    return [mask | bit for mask in poly]


def elementary_symmetric(n_vars: int) -> list:
    """[e_0 .. e_n_vars] by direct enumeration of the subsets of 1..n_vars:
    the independent witness the recurrence and the product expansion are
    compared against. One pass over every subset mask, ascending, files
    each under its degree, so each polynomial comes out ascending."""
    if n_vars < 0:
        raise DomainError("variable count must be nonnegative")
    row = [[] for _ in range(n_vars + 1)]
    file_under = [poly.append for poly in row]
    for mask in range(1 << n_vars):
        file_under[mask.bit_count()](mask)
    return row


def elementary_symmetric_row(n_vars: int, k_max: int) -> list:
    """All elementary symmetric polynomials of degree 0..k_max at once.

    One sweep over the variables replaces row[k] by row[k] + x_m * row[k-1]
    for k descending, so after variable m the row holds the polynomials
    over x_1..x_m. Descending order keeps row[k-1] the polynomial over
    x_1..x_(m-1) while row[k] is formed."""
    if n_vars < 0 or k_max < 0:
        raise DomainError("variable and degree counts must be nonnegative")
    row = [[0]] + [[] for _ in range(k_max)]
    for m in range(1, n_vars + 1):
        for k in range(min(k_max, m), 0, -1):
            row[k] = _plus(row[k], times_variable(row[k - 1], m))
    return row


def expand_product(n_vars: int) -> list:
    """The coefficients of t**0..t**n_vars in prod_{m=1..n_vars} (1 + x_m t),
    multiplied out literally: each factor is folded in by convolution, with
    no reference to the symmetric recurrence."""
    if n_vars < 0:
        raise DomainError("variable count must be nonnegative")
    coefficients = [[0]]
    for m in range(1, n_vars + 1):
        # (c_0 + c_1 t + ...) * (1 + x_m t) has c_p + x_m * c_(p-1) at t**p
        padded = [[]] + coefficients + [[]]
        coefficients = [_plus(c, times_variable(lower, m))
                        for lower, c in zip(padded, padded[1:])]
    return coefficients


def substitute(poly: list, assignment: Mapping[int, object]) -> Fraction:
    """Exact value with every variable x_i replaced by assignment[i]; every
    index appearing in the polynomial must be assigned."""
    total = Fraction(0)
    for mask in poly:
        value = Fraction(1)
        for index in _indices(mask):
            if index not in assignment:
                raise DomainError(f"no value assigned to x_{index}")
            value *= Fraction(assignment[index])
        total += value
    return total


def render(poly: list) -> str:
    """Canonical text: monomials sorted by index sequence joined by " + ",
    each with its multiplicity as coefficient, omitted when it is 1 on a
    non-constant monomial."""
    if not poly:
        return "0"
    counts = collections.Counter(poly)
    parts = []
    for mask in sorted(counts, key=_indices):
        coefficient = counts[mask]
        monomial = "*".join(f"x_{i}" for i in _indices(mask))
        if not monomial:
            parts.append(str(coefficient))
        elif coefficient == 1:
            parts.append(monomial)
        else:
            parts.append(f"{coefficient}*{monomial}")
    return " + ".join(parts)


class ExpansionReport(collections.namedtuple(
        "ExpansionReport", "n_vars passed mismatch_power details")):
    """Outcome of the mechanical product-expansion check for one n_vars:
    mismatch_power is the first differing power, or None."""

    __slots__ = ()

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"expansion check for {self.n_vars} variables: {state}"


def verify_expansion(n_vars: int) -> ExpansionReport:
    """Check that the product expansion reproduces the symmetric polynomials.

    For every power k = 0..n_vars the t**k coefficient of the expanded
    product must equal both the enumerated and the recurrence-built
    elementary symmetric polynomial, and must contain exactly C(n_vars, k)
    monomials, each of degree k. The report stops at the first differing
    power with all three renderings. More than VERIFY_WORK_CEILING
    variables are refused before any work.
    """
    if n_vars < 0:
        raise DomainError("variable count must be nonnegative")
    if n_vars > VERIFY_WORK_CEILING:
        raise InfeasibleError(
            "verifying m = %d variables expands 2**%d terms; at most m = %d "
            "is accepted" % (n_vars, n_vars, VERIFY_WORK_CEILING),
            required=n_vars)
    # Each power leaves the three queues once checked, so its lists are
    # freed while the later powers are compared.
    expansion = collections.deque(expand_product(n_vars))
    row = collections.deque(elementary_symmetric_row(n_vars, n_vars))
    enumeration = collections.deque(elementary_symmetric(n_vars))
    details = []
    for k in range(n_vars + 1):
        expanded, recurred = expansion.popleft(), row.popleft()
        enumerated = enumeration.popleft()
        count = math.comb(n_vars, k)
        monomials = len(set(expanded))
        if (expanded == enumerated == recurred and monomials == count
                and set(map(int.bit_count, expanded)) <= {k}):
            details.append(f"power {k}: {count} squarefree monomials, "
                           "three constructions agree")
            continue
        details += [
            f"power {k}: MISMATCH",
            f"  product expansion: {render(expanded)}",
            f"  enumeration:       {render(enumerated)}",
            f"  recurrence:        {render(recurred)}",
            f"  monomial count {monomials}, expected {count}",
        ]
        return ExpansionReport(n_vars, False, k, tuple(details))
    return ExpansionReport(n_vars, True, None, tuple(details))
