"""Nested reciprocal-square series for even powers of pi.

The depth-n nested sum over 1/(l_1**2 * ... * l_n**2) with strictly
increasing indices converges to pi**(2n)/(2n+1)!. This package computes
those partial sums exactly (rationals) or quickly (guarded fixed-point
decimals from a short sweep head plus a certified Euler-Maclaurin
block, or from a single sweep), certifies truncation error with
rigorous tail bounds, mechanically verifies the symmetric-polynomial
identity the construction rests on, and reproduces the limit values to
fifty decimal places.
"""

from ._backend import BACKEND as KERNEL_BACKEND
from .errors import DomainError, InfeasibleError
from .exactnum import (
    FixedDecimal,
    fixed_from_rational,
    fixed_recip_square,
    rat,
    to_decimal_string,
)
from .reference import (
    PiCache,
    basel_power,
    factorial,
    pi_digits,
    reference_value,
    sinc_taylor,
)
from .series import (
    SeriesResult,
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
from .symmetric import (
    ExpansionReport,
    Monomial,
    ProductExpansion,
    SparsePolynomial,
    elementary_symmetric,
    elementary_symmetric_row,
    expand_product,
    substitute,
    term_count,
    verify_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExpansionReport",
    "FixedDecimal",
    "InfeasibleError",
    "KERNEL_BACKEND",
    "Monomial",
    "PiCache",
    "ProductExpansion",
    "SeriesResult",
    "SparsePolynomial",
    "__version__",
    "basel_power",
    "converge",
    "elementary_symmetric",
    "elementary_symmetric_row",
    "expand_product",
    "factorial",
    "fixed_from_rational",
    "fixed_recip_square",
    "newton_cross_check",
    "partial_sum",
    "partial_sum_naive",
    "partial_sum_prefix",
    "pi_digits",
    "rat",
    "reference_value",
    "required_truncation",
    "sinc_product",
    "sinc_series",
    "sinc_taylor",
    "substitute",
    "tail_bound",
    "term_count",
    "to_decimal_string",
    "verify_expansion",
]
