"""Exact engine for elementary symmetric polynomials.

The elementary symmetric polynomial of degree k in variables x_1..x_M is
the sum, over all strictly increasing index tuples i_1 < ... < i_k, of the
products x_{i_1}*...*x_{i_k}. This module builds these polynomials three
independent ways and mechanically checks that they agree term by term:

* direct enumeration of the index subsets,
* the row recurrence  e_k(x_1..x_{m+1}) = e_k(x_1..x_m) + x_{m+1} * e_{k-1}(x_1..x_m),
* literal expansion of the product prod_{m=1..M} (1 + x_m * t), whose
  t**k coefficient must equal the degree-k polynomial.

Everything here is exact: integer coefficients, no truncation, variables
indexed from 1. Numeric work lives elsewhere; this module is the symbolic
ground truth the series code is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .errors import DomainError, InfeasibleError

__all__ = [
    "ExpansionReport",
    "Monomial",
    "PRACTICAL_VERIFY_CEILING",
    "ProductExpansion",
    "SparsePolynomial",
    "VERIFY_WORK_CEILING",
    "elementary_symmetric",
    "elementary_symmetric_row",
    "expand_product",
    "substitute",
    "term_count",
    "verify_expansion",
]

# Above this many variables the product expansion has thousands of terms
# per power and verification stops being interactive; the CLI warns.
PRACTICAL_VERIFY_CEILING = 12
# Above this many variables verification is refused before any work: the
# expansion has 2**m terms and the time doubles with each m (about 1 s at
# m = 15 on a 2-vCPU host), so m = 20 stays under about 40 s.
VERIFY_WORK_CEILING = 20


class Monomial:
    """Product of variables x_i raised to positive integer exponents.

    Indices are 1-based. Zero exponents are dropped on construction, so the
    empty monomial is the constant 1. Instances are immutable, hashable,
    and ordered by their index sequence with multiplicity (x_1*x_2 sorts
    before x_1*x_3, which sorts before x_2*x_3).
    """

    __slots__ = ("_pairs",)

    def __init__(self, exponents: Mapping[int, int] | Iterable = ()):
        items = dict(exponents)
        kept = []
        for index in sorted(items):
            exponent = items[index]
            if index < 1:
                raise DomainError("variable indices are 1-based")
            if exponent < 0:
                raise DomainError("monomial exponents must be nonnegative")
            if exponent > 0:
                kept.append((index, exponent))
        object.__setattr__(self, "_pairs", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Monomial":
        """Squarefree monomial x_{i_1}*...*x_{i_k} from distinct indices."""
        seq = tuple(indices)
        if len(set(seq)) != len(seq):
            raise DomainError("squarefree monomial requires distinct indices")
        return cls({i: 1 for i in seq})

    @property
    def pairs(self) -> tuple:
        """Sorted (index, exponent) pairs, exponents all positive."""
        return self._pairs

    @property
    def degree(self) -> int:
        return sum(e for _, e in self._pairs)

    @property
    def indices(self) -> tuple:
        return tuple(i for i, _ in self._pairs)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self._pairs)

    def exponent_of(self, index: int) -> int:
        for i, e in self._pairs:
            if i == index:
                return e
        return 0

    def index_sequence(self) -> tuple:
        """Indices repeated by exponent; the canonical sort key."""
        out = []
        for i, e in self._pairs:
            out.extend([i] * e)
        return tuple(out)

    def __mul__(self, other) -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        merged = dict(self._pairs)
        for i, e in other._pairs:
            merged[i] = merged.get(i, 0) + e
        return Monomial(merged)

    def renamed(self, mapping: Mapping[int, int]) -> "Monomial":
        """Monomial with every index i replaced by mapping[i]."""
        return Monomial({mapping[i]: e for i, e in self._pairs})

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __lt__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.index_sequence() < other.index_sequence()

    def render(self) -> str:
        if not self._pairs:
            return "1"
        parts = []
        for i, e in self._pairs:
            parts.append(f"x_{i}" if e == 1 else f"x_{i}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"Monomial({self.render()!r})"


class SparsePolynomial:
    """Polynomial in x_1, x_2, ... stored as monomial -> coefficient.

    Zero coefficients are never stored, so structural equality is value
    equality. Coefficients are exact integers or rationals.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | Iterable = ()):
        cleaned = {}
        for monomial, coefficient in dict(terms).items():
            if not isinstance(monomial, Monomial):
                raise DomainError("polynomial keys must be Monomial instances")
            if coefficient != 0:
                cleaned[monomial] = coefficient
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    # --- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "SparsePolynomial":
        return cls({Monomial(): value})

    @classmethod
    def variable(cls, index: int) -> "SparsePolynomial":
        return cls({Monomial({index: 1}): 1})

    # --- views -----------------------------------------------------------

    def terms(self) -> list:
        """(monomial, coefficient) pairs in canonical monomial order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].index_sequence())

    def coefficient(self, monomial: Monomial):
        return self._terms.get(monomial, 0)

    def monomial_count(self) -> int:
        return len(self._terms)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def is_squarefree(self) -> bool:
        return all(m.is_squarefree() for m in self._terms)

    def max_index(self) -> int:
        """Largest variable index appearing, 0 for constant polynomials."""
        return max((m.indices[-1] for m in self._terms if m.indices), default=0)

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        merged = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            merged[monomial] = merged.get(monomial, 0) + coefficient
        return SparsePolynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return SparsePolynomial.constant(other) - self
        return NotImplemented

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            return SparsePolynomial(
                {m: c * other for m, c in self._terms.items()}
            )
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        product = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = ma * mb
                product[m] = product.get(m, 0) + ca * cb
        return SparsePolynomial(product)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # --- evaluation ------------------------------------------------------

    def substitute(self, assignment: Mapping[int, object]) -> Fraction:
        """Exact value with every variable x_i replaced by assignment[i].

        Every index appearing in the polynomial must be assigned.
        """
        total = Fraction(0)
        for monomial, coefficient in self._terms.items():
            value = Fraction(coefficient)
            for index, exponent in monomial.pairs:
                if index not in assignment:
                    raise DomainError(f"no value assigned to x_{index}")
                value *= Fraction(assignment[index]) ** exponent
            total += value
        return total

    def renamed(self, mapping: Mapping[int, int]) -> "SparsePolynomial":
        """Polynomial with variable indices renamed through the mapping."""
        out = {}
        for monomial, coefficient in self._terms.items():
            m = monomial.renamed(mapping)
            out[m] = out.get(m, 0) + coefficient
        return SparsePolynomial(out)

    # --- rendering --------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms in monomial order joined by " + ", the
        coefficient omitted when it is 1 on a non-constant monomial."""
        if not self._terms:
            return "0"
        parts = []
        for monomial, coefficient in self.terms():
            mono = monomial.render()
            if mono == "1":
                parts.append(str(coefficient))
            elif coefficient == 1:
                parts.append(mono)
            else:
                parts.append(f"{coefficient}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SparsePolynomial({self.render()!r})"


def term_count(n_vars: int, k: int) -> int:
    """Number of monomials in the degree-k elementary symmetric polynomial
    over n_vars variables: the binomial coefficient C(n_vars, k)."""
    if n_vars < 0 or k < 0:
        raise DomainError("term_count requires nonnegative arguments")
    return math.comb(n_vars, k)


def elementary_symmetric(n_vars: int, k: int) -> SparsePolynomial:
    """Degree-k elementary symmetric polynomial by direct enumeration.

    Sums x_{i_1}*...*x_{i_k} over all strictly increasing k-tuples from
    1..n_vars. Exponentially many terms; meant as the independent witness
    the recurrence and the product expansion are compared against.
    """
    if n_vars < 0 or k < 0:
        raise DomainError("variable and degree counts must be nonnegative")
    if k > n_vars:
        return SparsePolynomial.zero()
    if k == 0:
        return SparsePolynomial.constant(1)
    terms = {}
    for subset in combinations(range(1, n_vars + 1), k):
        terms[Monomial.from_indices(subset)] = 1
    return SparsePolynomial(terms)


def elementary_symmetric_row(n_vars: int, k_max: int) -> list:
    """All elementary symmetric polynomials of degree 0..k_max at once.

    One sweep over the variables applies, for k descending,

        row[k] += x_m * row[k-1]

    in place, so after variable m the row holds the polynomials over
    x_1..x_m. Descending order is what makes the in-place update sound:
    row[k-1] is still the previous stage when row[k] consumes it.
    """
    if n_vars < 0 or k_max < 0:
        raise DomainError("variable and degree counts must be nonnegative")
    row = [SparsePolynomial.constant(1)] + [
        SparsePolynomial.zero() for _ in range(k_max)
    ]
    for m in range(1, n_vars + 1):
        x_m = SparsePolynomial.variable(m)
        top = min(k_max, m)
        for k in range(top, 0, -1):
            row[k] = row[k] + x_m * row[k - 1]
    return row


@dataclass(frozen=True)
class ProductExpansion:
    """Coefficients of prod_{m=1..n_vars} (1 + x_m * t) by power of t.

    coefficients[k] is the polynomial multiplying t**k; there are exactly
    n_vars + 1 of them and coefficients[0] is the constant 1.
    """

    n_vars: int
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.n_vars + 1:
            raise DomainError("expansion must carry n_vars + 1 coefficients")
        if self.coefficients[0] != SparsePolynomial.constant(1):
            raise DomainError("the t**0 coefficient of the expansion must be 1")


def expand_product(n_vars: int) -> ProductExpansion:
    """Literally multiply out prod_{m=1..n_vars} (1 + x_m * t).

    The polynomial in t is held as a list of t-power coefficients and each
    factor is folded in by convolution, with no reference to the symmetric
    recurrence; this is the independent expansion that verification
    compares against.
    """
    if n_vars < 0:
        raise DomainError("variable count must be nonnegative")
    coefficients = [SparsePolynomial.constant(1)]
    for m in range(1, n_vars + 1):
        x_m = SparsePolynomial.variable(m)
        # (c_0 + c_1 t + ...) * (1 + x_m t)
        nxt = [SparsePolynomial.zero() for _ in range(len(coefficients) + 1)]
        for power, coefficient in enumerate(coefficients):
            nxt[power] = nxt[power] + coefficient
            nxt[power + 1] = nxt[power + 1] + coefficient * x_m
        coefficients = nxt
    return ProductExpansion(n_vars, tuple(coefficients))


@dataclass(frozen=True)
class ExpansionReport:
    """Outcome of the mechanical product-expansion check for one n_vars."""

    n_vars: int
    passed: bool
    mismatch_power: int | None
    details: tuple

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"expansion check for {self.n_vars} variables: {state}"


def verify_expansion(n_vars: int) -> ExpansionReport:
    """Check that the product expansion reproduces the symmetric polynomials.

    For every power k = 0..n_vars the t**k coefficient of the expanded
    product must equal both the enumerated and the recurrence-built
    elementary symmetric polynomial, and must contain exactly C(n_vars, k)
    monomials, all squarefree. The report carries the first differing
    power (if any) with all three renderings. More than
    VERIFY_WORK_CEILING variables are refused before any work.
    """
    if n_vars < 0:
        raise DomainError("variable count must be nonnegative")
    if n_vars > VERIFY_WORK_CEILING:
        raise InfeasibleError(
            "verifying m = %d variables expands 2**%d terms; at most m = %d "
            "is accepted" % (n_vars, n_vars, VERIFY_WORK_CEILING),
            required=n_vars,
            ceiling=VERIFY_WORK_CEILING,
        )
    expansion = expand_product(n_vars)
    row = elementary_symmetric_row(n_vars, n_vars)
    details = []
    mismatch = None
    for k in range(n_vars + 1):
        expanded = expansion.coefficients[k]
        enumerated = elementary_symmetric(n_vars, k)
        recurred = row[k]
        expected_count = term_count(n_vars, k)
        ok = (
            expanded == enumerated
            and expanded == recurred
            and expanded.monomial_count() == expected_count
            and expanded.is_squarefree()
        )
        if ok:
            details.append(
                f"power {k}: {expected_count} squarefree monomials, "
                "three constructions agree"
            )
        else:
            mismatch = k
            details.append(f"power {k}: MISMATCH")
            details.append(f"  product expansion: {expanded.render()}")
            details.append(f"  enumeration:       {enumerated.render()}")
            details.append(f"  recurrence:        {recurred.render()}")
            details.append(
                f"  monomial count {expanded.monomial_count()}, "
                f"expected {expected_count}"
            )
            break
    return ExpansionReport(
        n_vars=n_vars,
        passed=mismatch is None,
        mismatch_power=mismatch,
        details=tuple(details),
    )


def substitute(polynomial: SparsePolynomial, assignment: Mapping[int, object]):
    """Module-level alias of SparsePolynomial.substitute."""
    return polynomial.substitute(assignment)
