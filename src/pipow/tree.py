"""The product tree of P(t) = prod_{l<=N} (l**2 + t), cut off at a degree.

Divided by its constant term (N!)**2, the coefficient [t**j] P is the
partial sum S_j(N), so one tree serves the exact sums of `series` and its
fixed rows on the tree route (Haible & Papanikolaou's binary splitting).
The tree splits on aligned blocks, the runs [1 + k*s, (k+1)*s] of
s = LEAF * 2**j indices, and keeps each block's row for the process within
a budget of memory (_BLOCKS), so that requests at different N
share them (Bernstein, "Fast multiplication and its applications",
Algorithmic Number Theory, MSRI Publ. 44, 2008). `coefficients` is the
tree's root, and `units` and `leaf_units` price it for the plans of
`series`.

S_j(N) sums over j distinct indices, so its denominator divides D =
(prod_{i<=n} lcm(1..N//i))**2 for every j <= n, far less than (N!)**2:
at depth 6, N = 1992, 14011 bits against 37931. Each term of a block's
coefficient leaves out as few indices, so each node carries its own
reduced form, as in Haible & Papanikolaou: a block's row is divided
exactly (exactnum.div_exact) by its own cofactor K_B = prod_p p**(2*e_p)
(_exponents) when it is formed, the exponents of merged ranges add, and
the rows are exact integers with their exponents: a kept row times its
cofactor is the row a fresh tree builds. The sums read the root through
`reduced_coefficients`, which divides it by the rest of (N!)**2 / D, so
that its constant term (N!)**2 comes out as D, and `series` reduces or
rounds each sum over D. At depth 6, N = 1992, the root's coefficient
comes out of the convolution at 20935 bits (37931 on the undivided
tree) and is divided by a rest of 6938.
"""

from __future__ import annotations

import _thread
import bisect
import collections
import itertools
import math
import operator
import sys

from .exactnum import div_exact

__all__ = ["BLOCK_CACHE_BITS", "LEAF", "coefficients", "leaf_units",
           "reduced_coefficients", "units"]

# Indices the tree multiplies into one row in place; a power of two, so
# that blocks align. Over the benchmark's exact cycles at seeds 1 to 3
# (depths 1 to 6, N from 50 to 2000; per request best of 3) 64 came within
# 5% of the best of 32 to 256 both cold and with every block kept (32: 15%
# slower cold; 128 and 256: 11% and 31% slower kept). Deep rows favour
# larger leaves: depth 300, N = 494 took 48 ms at 64 and 10 ms at 256.
LEAF = 64
# Bits of memory the kept block rows may take in all (_BLOCKS): 5 MiB of
# their ints and tuples and _ENTRY_BITS each. The accepted exact sums at
# their edge leave at most 0.14 MB (depth 300) to 2.5 MB (depth 4,
# N = 18704) of coefficients, the benchmark's exact cycle at most 0.13 MB.
# Filled with 64-index rows, the cache holds 5063, 2955 and 1123 rows and
# grows the resident set by 4.9, 5.0 and 5.1 MiB at depths 1, 4 and 16.
BLOCK_CACHE_BITS = 5 << 23
# The bits a kept row takes besides its ints and tuples: its key, its
# entry, the count and the cache's links, 280 to 370 bytes a row in a
# cache filled with 64-index rows at depths 1 to 16.
_ENTRY_BITS = 8 * 300


class _BlockCache(collections.OrderedDict):
    """Rows kept for the process, key -> (bits, row, exponents): the
    product tree's block rows at (low, high) (_BLOCKS), and the zeta rows
    of series._newton_row at their working bits (series._ZETAS, no
    exponents). Least recently used first, within BLOCK_CACHE_BITS bits of
    memory in all (_footprint); a row larger than that is not kept. A lock
    makes each lookup and store atomic: concurrent callers may build one
    row twice, never see half, nor a row with another's exponents."""

    def __init__(self):
        super().__init__()
        self.bits, self.lock = 0, _thread.allocate_lock()

    def row(self, key, entries: int) -> tuple | None:
        """(the first `entries` coefficients of the row kept at `key`, its
        exponents), or None if none is kept there or it holds fewer."""
        with self.lock:
            kept = self.get(key)
            if kept is None or len(kept[1]) < entries:
                return None
            self.move_to_end(key)
        return list(kept[1][:entries]), kept[2]

    def keep(self, key, row: list, exponents: tuple) -> None:
        """Keeps `row` and its exponents at `key` in place of any row
        there, then drops the least recently used rows past the budget."""
        row = tuple(row)
        bits = _footprint(row, exponents)
        with self.lock:
            if bits <= BLOCK_CACHE_BITS:
                self.bits += bits - self.pop(key, (0,))[0]
                self[key] = bits, row, exponents
            while self.bits > BLOCK_CACHE_BITS:
                self.bits -= self.popitem(last=False)[1][0]


def _footprint(row: tuple, exponents: tuple) -> int:
    """The bits of memory a kept row and its exponents take."""
    return _ENTRY_BITS + 8 * (sum(map(sys.getsizeof, row))
                              + sys.getsizeof(row) + sys.getsizeof(exponents))


_BLOCKS = _BlockCache()
# (bound, the primes up to bound), sieved again to twice the bound on first
# use past it and kept: sieving each request cost more than a small request
# saves by its reduction. It is rebound whole, so a concurrent caller reads
# one sieve or the next, never half of one; one may rebind it to a shorter
# sieve than another's, which costs only time, as _exponents hands on the
# primes it read with the exponents.
_PRIMES = (1, [])


def _truncated_product(low: int, high: int, depth: int) -> tuple:
    """(row, exponents): the row [c_0, ..., c_min(depth, high-low)] of
    prod_{l=low..high-1} (l**2 + t), lowest degree first, divided by
    prod_p p**(2*e_p) over the exponents e_p, in the order of the primes.

    A range inside one block of LEAF indices is multiplied into one row in
    place, c_k = c_k*l**2 + c_(k-1) for k descending, on small ints. A
    longer one splits after the largest multiple of LEAF * 2**j inside it,
    so that a range from 1 is the largest blocks that fit and a tail under
    LEAF, and its halves merge cut off at degree `depth`, smallest first,
    their exponents adding. A block's row is then divided by what its own
    exponents (_exponents) add to its halves', and _BLOCKS keeps it with
    them; it serves any request as deep or shallower by slicing, its
    exponents lower than or equal to those of that depth, and a deeper one
    builds it again and replaces it.
    """
    size, top = high - low, min(depth, high - low)
    block = size >= LEAF and not size & (size - 1) and not (low - 1) % size
    if block and (kept := _BLOCKS.row((low, high), top + 1)) is not None:
        return kept
    if (low - 1) // LEAF >= (high - 2) // LEAF:
        row, ks, grown, exponents = [1], (), low + depth, ()
        for ell in range(low, high):
            square = ell * ell
            if ell < grown:
                row.append(0)
                ks = range(ell - low + 1, 0, -1)
            for k in ks:
                row[k] = row[k] * square + row[k - 1]
            row[0] *= square
    else:
        split = 1 << ((low - 1) ^ (high - 2)).bit_length() - 1
        middle = ((high - 2) & -split) + 1
        left, low_exponents = _truncated_product(low, middle, depth)
        right, high_exponents = _truncated_product(middle, high, depth)
        row = [0] * (top + 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right[:top + 1 - i]):
                row[i + j] += a * b
        exponents = _combine(operator.add, low_exponents, high_exponents)
    if block:
        primes, own = _exponents(low, high, depth)
        divisor = _cofactor(primes, _combine(operator.sub, own, exponents))**2
        if divisor > 1:
            row = [div_exact(c, divisor) for c in row]
        exponents = tuple(own)
        _BLOCKS.keep((low, high), row, exponents)
    return row, exponents


def coefficients(depth: int, truncation: int, first: int) -> tuple:
    """(c_0, [c_first .. c_depth], exponents) of prod_{l<=N} (l**2 + t),
    N = truncation, each c_j divided by prod_p p**(2*e_p) over the
    exponents: those its blocks were divided by (_truncated_product),
    added up. Divided by the constant term (N!)**2, c_j is S_j(N).

    Past LEAF the root splits [1, N] after the block [1, 2**j], 2**j < N,
    when that block is kept or N >= 1.5 * 2**j, and otherwise after
    [1, 2**(j-1)], so that unless the block is kept its two operands stay
    within a factor of two of each other: built whole, a block much wider
    than the rest of [1, N] cost a request more than the middle split did
    (1.6 to 1.9 times as much at depth 64, N = 1043).

    The root forms only these coefficients, c_k = sum_i left_i *
    right_(k-i), 0 past N: a single one (first = depth) takes depth+1
    products of the widest operands where the whole row would take
    (depth+1)*(depth+2)/2, and c_0 one more.
    """
    half = 1 << (truncation - 1).bit_length() - 1 if truncation > LEAF else 0
    kept = _BLOCKS.row((1, half + 1), min(depth, half) + 1) if half else None
    if kept is None:
        if half > LEAF and 2 * truncation < 3 * half:
            half //= 2
        kept = _truncated_product(1, half + 1, depth) if half else ([1], ())
    (left, low_exponents), (right, high_exponents) = kept, _truncated_product(
        half + 1, truncation + 1, depth)
    row = [sum(map(operator.mul, left[max(0, k + 1 - len(right)):],
                   right[min(k, len(right) - 1)::-1]))
           for k in range(first, depth + 1)]
    return (row[0] if not first else left[0] * right[0], row,
            _combine(operator.add, low_exponents, high_exponents))


def _primes(bound: int) -> list:
    """The primes up to `bound`, in order, from _PRIMES."""
    global _PRIMES
    sieved, primes = _PRIMES
    if bound > sieved:
        sieved = max(bound, 2 * sieved)
        sieve = bytearray([1]) * (sieved + 1)
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(sieved) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, sieved + 1, p)))
        primes = list(itertools.compress(range(sieved + 1), sieve))
        _PRIMES = sieved, primes
    return primes[:bisect.bisect_right(primes, bound)]


def _exponents(low: int, high: int, depth: int) -> tuple:
    """(primes, [e_p] for those primes): the primes in order, up to the
    last that may have e_p above 0, e_p = sum_i max(0, n_i - depth), with
    n_i = (high-1) // p**i - (low-1) // p**i the multiples of p**i in
    [low, high). The primes come with the exponents, not from _PRIMES,
    which a concurrent caller may rebind to a shorter sieve.

    Each term of c_j, j <= depth, of prod_{l=low..high-1} (l**2 + t)
    leaves out j of the l, of which at most min(j, n_i) are multiples of
    p**i, so p**(2*e_p) divides it. As max(0, a - d) + max(0, b - d) <=
    max(0, a + b - d), the e_p of two adjacent ranges add up to at most
    those of their union. e_p > 0 takes depth+1 multiples of p in the
    range, so p <= (high-1) // (depth+1) and, for depth > 0, p <=
    (high-low-1) // depth; n_2 > depth takes p*p within the same bound.
    """
    top, below = high - 1, low - 1
    bound = top // (depth + 1)
    if depth:
        bound = min(bound, (top - below - 1) // depth)
    primes = _primes(bound)
    exponents = [n - depth if (n := top // p - below // p) > depth else 0
                 for p in primes]
    for i, p in enumerate(primes):
        power = p * p
        if power > bound:
            break
        while (n := top // power - below // power) > depth:
            exponents[i] += n - depth
            power *= p
    return primes, exponents


def _combine(op, longer: tuple, shorter: tuple) -> list:
    """op applied to the exponents of the same primes, one list taken as 0
    past its end: `longer` must be at least as long for operator.sub."""
    if len(longer) < len(shorter):
        longer, shorter = shorter, longer
    return [*map(op, longer, shorter), *longer[len(shorter):]]


def _cofactor(primes: list, exponents: list) -> int:
    """prod_p p**e_p over `primes` and `exponents` in step, multiplied in
    balanced halves (_product)."""
    return _product([pow(p, e) for p, e in zip(primes, exponents) if e])


def _product(values: list) -> int:
    """The product of `values`, split into balanced halves: for the
    cofactor at the depth-1 edge (N = 35160), 29 ms against 79 ms for the
    product from left to right."""
    if len(values) <= 8:
        return math.prod(values)
    half = len(values) // 2
    return _product(values[:half]) * _product(values[half:])


def reduced_coefficients(depth: int, truncation: int, first: int) -> tuple:
    """([a_first .. a_depth], D) with S_j(N) = a_j / D, N = truncation: D is
    the bound (N!/k)**2 on the denominators of S_0 .. S_depth(N), and a_j
    is c_j of prod_{l<=N} (l**2 + t) divided exactly by K = k**2.

    S_n(N) sums 1/(l_1**2 ... l_n**2) over n distinct l <= N, of which at
    most min(n, N // p**i) are multiples of p**i, so a prime p divides its
    denominator at most 2*sum_i min(n, N // p**i) times: it divides D_n =
    (prod_{j=1..n} lcm(1..N//j))**2, which divides D_depth for n <= depth,
    so K = (N!)**2 / D_depth divides every c_n = S_n(N) * (N!)**2 read.
    Then k = prod_p p**e_p with the e_p of _exponents over [1, N+1), e_p =
    sum_i max(0, N // p**i - depth), none from depth >= N/2 on. The row
    of coefficients comes divided by its blocks' part of K, and is divided
    here by the rest (div_exact). As c_0 = (N!)**2, its quotient a_0 is D.
    Depth 0 is S_0 = 1 and forms nothing.
    """
    if not depth:
        return [1], 1
    constant, row, parts = coefficients(depth, truncation, first)
    primes, exponents = _exponents(1, truncation + 1, depth)
    divisor = _cofactor(primes, _combine(operator.sub, exponents, parts)) ** 2
    if divisor > 1:
        constant = div_exact(constant, divisor)
        row = [div_exact(c, divisor) for c in row]
    return row, constant


def leaf_units(depth: int, truncation: int) -> int:
    """The leaves' share of units(depth, N): 2048 per leaf step, one per
    index and coefficient below min(depth, LEAF)."""
    return 2048 * truncation * min(depth, LEAF)


def units(depth: int, truncation: int) -> tuple:
    """(units, D): the tree's cost in the units of series._row_plan, and
    D, the decimal length of (N!)**2.

    It counts D**log2(3) for each full-size Karatsuba product of merges
    split at the middle: each half holds m = min(depth, N/2 + 1)
    coefficients, the k-th about 1 - k/(N/2) of the half's digits, which
    makes about (m - m*m/(N+1))**2 full-size products; and leaf_units.
    Cold, the aligned split took 0.77 to 1.19 times the middle split's
    time over accepted exact requests (depths 1 to 300, N from 100 to
    35160; 1.19 at depth 2, N = 18704, and 1.07 there as best of 5), and
    at most 0.47 ns a unit against the middle split's 0.52 on the same
    grid, so the count prices it as well as it did the middle split.
    It still counts the undivided rows, so it over-counts a tree whose
    blocks are divided by their cofactors (_truncated_product): on it an
    exact sum at the accepted edges of depths 1 to 16 took 0.49 to 0.72
    times its time on the undivided tree (cold, best of 6 processes).
    Kept blocks cost less.
    """
    digits = int(2 * math.lgamma(truncation + 1) / math.log(10)) + 1
    width = min(depth, truncation // 2 + 1)
    pairs = (width - width * width // (truncation + 1)) ** 2
    return (int(pairs * digits ** math.log2(3))
            + leaf_units(depth, truncation)), digits
