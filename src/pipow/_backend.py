"""The fixed-point sweep kernel: Euler's product expanded one index at a time.

Pure Python on big-integer mantissas. No request runs it: `pipow bench` and
the tests keep it as the witness that each routed fixed value must agree
with.
"""

from __future__ import annotations

from .errors import DomainError


def dp_row_scaled(depth: int, truncation: int, scale: int) -> list:
    """Mantissa row [S_0 .. S_depth] at scale 10**-scale after one sweep.

    S_k is the depth-k nested sum over indices 1..truncation of the product
    of reciprocal squares. The row starts as [1, 0, ..., 0] (scaled) and one
    pass over l = 1..truncation applies, for k descending,

        S_k += (1/l**2) * S_{k-1}

    so entry k ends as the sum over strictly increasing k-tuples bounded by
    the truncation. Every division rounds half to even; each of the at most
    truncation*depth updates moves the entry by at most half a unit in the
    last place.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if truncation < 0:
        raise DomainError("truncation must be nonnegative")
    if scale < 0:
        raise DomainError("scale must be nonnegative")
    one = 10**scale
    row = [one] + [0] * depth
    for ell in range(1, truncation + 1):
        sq = ell * ell
        q, r = divmod(one, sq)
        if 2 * r > sq or (2 * r == sq and q & 1):
            q += 1
        term = q
        top = depth if depth < ell else ell
        for k in range(top, 1, -1):
            prod = term * row[k - 1]
            q2, r2 = divmod(prod, one)
            if 2 * r2 > one or (2 * r2 == one and q2 & 1):
                q2 += 1
            row[k] += q2
        if depth >= 1:
            # k == 1: S_0 is exactly one, so the rounded product is term itself.
            row[1] += term
    return row
