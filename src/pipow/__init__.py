"""Nested reciprocal-square series for even powers of pi.

The depth-n nested sum over 1/(l_1**2 * ... * l_n**2) with strictly
increasing indices converges to pi**(2n)/(2n+1)!. This package computes
those partial sums exactly (rationals) or quickly (guarded fixed-point
decimals from power sums by Newton's identities with a certified
Euler-Maclaurin tail, or from the product tree), certifies truncation
error with rigorous tail bounds, mechanically verifies the
symmetric-polynomial identity the construction rests on, and reproduces
the limit values to fifty decimal places.
"""

from .reference import reference_value
from .series import converge, partial_sum, tail_bound

__version__ = "0.1.0"
# The label `pipow bench` prints for its sweep kernel.
KERNEL_BACKEND = "pure-python"

__all__ = [
    "KERNEL_BACKEND",
    "converge",
    "partial_sum",
    "reference_value",
    "tail_bound",
]
