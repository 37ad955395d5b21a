"""The product tree of P(t) = prod_{l<=N} (l**2 + t), cut off at a degree.

Divided by its constant term (N!)**2, the coefficient [t**j] P is the
partial sum S_j(N), so one tree serves the exact sums of `series` and its
fixed rows on the tree route (Haible & Papanikolaou's binary splitting).
The tree splits on aligned blocks, the runs [1 + k*s, (k+1)*s] of
s = LEAF * 2**j indices, and keeps each block's row for the process within
a budget of coefficient bits (_BLOCKS), so that requests at different N
share them (Bernstein, "Fast multiplication and its applications",
Algorithmic Number Theory, MSRI Publ. 44, 2008). The rows are exact
integers: a kept row is the row a fresh tree builds. `coefficients` is
the tree's root, and `units` and `leaf_units` price it for the plans of
`series`.

The sums read the root through `reduced_coefficients`. S_j(N) sums over j
distinct indices, so its denominator divides D = (prod_{i<=n}
lcm(1..N//i))**2 for every j <= n, far less than (N!)**2: at depth 6,
N = 1992, 14011 bits against 37931. The root's coefficients are divided
exactly by the cofactor (N!)**2 / D from their top bits, and `series`
reduces or rounds each sum over D, at a cost set by the answer's size.
"""

from __future__ import annotations

import _thread
import bisect
import collections
import itertools
import math
import operator

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
# Coefficient bits the kept block rows may hold in all (_BLOCKS). The
# accepted exact sums at their edge leave 0.14 MB (depth 300) to 2.5 MB
# (depth 4, N = 18704) of coefficients, the benchmark's exact cycle
# 0.13 MB. The ints, tuples and links that hold them take more: filled
# with rows of 64-index blocks, the cache grew the resident set by 7.1 MiB
# at depth 1, 5.6 MiB at depth 4 and 5.1 MiB at depth 16.
BLOCK_CACHE_BITS = 1 << 25


class _BlockCache(collections.OrderedDict):
    """The product tree's block rows, (low, high) -> (bits, row), least
    recently used first, within BLOCK_CACHE_BITS coefficient bits in all;
    a row wider than that is not kept. A lock makes each lookup and store
    atomic: concurrent callers may build one row twice, never see half."""

    def __init__(self):
        super().__init__()
        self.bits, self.lock = 0, _thread.allocate_lock()

    def row(self, key: tuple, entries: int) -> list | None:
        """The first `entries` coefficients of the row kept at `key`, or
        None if it holds fewer."""
        with self.lock:
            row = self.get(key, (0, ()))[1]
            if len(row) < entries:
                return None
            self.move_to_end(key)
        return list(row[:entries])

    def keep(self, key: tuple, row: list) -> None:
        """Keeps `row` at `key` in place of any row there, then drops the
        least recently used rows past the budget."""
        bits = sum(map(int.bit_length, row))
        with self.lock:
            if bits <= BLOCK_CACHE_BITS:
                self.bits += bits - self.pop(key, (0,))[0]
                self[key] = bits, tuple(row)
            while self.bits > BLOCK_CACHE_BITS:
                self.bits -= self.popitem(last=False)[1][0]


_BLOCKS = _BlockCache()
# (bound, the primes up to bound), sieved again to twice the bound on first
# use past it and kept: sieving each request cost more than a small request
# saves by its reduction. It is rebound whole, so a concurrent caller reads
# one sieve or the next, never half of one.
_PRIMES = (1, [])


def _truncated_product(low: int, high: int, depth: int) -> list:
    """Coefficients [c_0, ..., c_min(depth, high-low)] of
    prod_{l=low..high-1} (l**2 + t), lowest degree first.

    A range inside one block of LEAF indices is multiplied into one row in
    place, c_k = c_k*l**2 + c_(k-1) for k descending, on small ints. A
    longer one splits after the largest multiple of LEAF * 2**j inside it,
    so that a range from 1 is the largest blocks that fit and a tail under
    LEAF, and its halves merge cut off at degree `depth`, smallest first.
    _BLOCKS keeps each block's row, which serves any request as deep or
    shallower by slicing; a deeper one builds it again and replaces it.
    """
    size, top = high - low, min(depth, high - low)
    block = size >= LEAF and not size & (size - 1) and not (low - 1) % size
    if block and (row := _BLOCKS.row((low, high), top + 1)) is not None:
        return row
    if (low - 1) // LEAF >= (high - 2) // LEAF:
        row, ks, grown = [1], (), low + depth
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
        left = _truncated_product(low, middle, depth)
        right = _truncated_product(middle, high, depth)
        row = [0] * (top + 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right[:top + 1 - i]):
                row[i + j] += a * b
    if block:
        _BLOCKS.keep((low, high), row)
    return row


def coefficients(depth: int, truncation: int, first: int) -> list:
    """[c_first .. c_depth] of prod_{l<=N} (l**2 + t), N = truncation:
    divided by the constant term (N!)**2, c_j is S_j(N).

    Past LEAF the root splits [1, N] after the block [1, 2**j], 2**j < N,
    when that block is kept or N >= 1.5 * 2**j, and otherwise after
    [1, 2**(j-1)], so that unless the block is kept its two operands stay
    within a factor of two of each other: built whole, a block much wider
    than the rest of [1, N] cost a request more than the middle split did
    (1.6 to 1.9 times as much at depth 64, N = 1043).

    The root forms only these coefficients, c_k = sum_i left_i *
    right_(k-i), 0 past N: a single one (first = depth) takes depth+1
    products of the widest operands where the whole row would take
    (depth+1)*(depth+2)/2.
    """
    half = 1 << (truncation - 1).bit_length() - 1 if truncation > LEAF else 0
    left = _BLOCKS.row((1, half + 1), min(depth, half) + 1) if half else [1]
    if left is None:
        if half > LEAF and 2 * truncation < 3 * half:
            half //= 2
        left = _truncated_product(1, half + 1, depth)
    right = _truncated_product(half + 1, truncation + 1, depth)
    return [sum(map(operator.mul, left[max(0, k + 1 - len(right)):],
                    right[min(k, len(right) - 1)::-1]))
            for k in range(first, depth + 1)]


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
    is c_j of coefficients divided exactly by K = k**2 (div_exact).

    S_n(N) sums 1/(l_1**2 ... l_n**2) over n distinct l <= N, of which at
    most min(n, N // p**i) are multiples of p**i, so a prime p divides its
    denominator at most 2*sum_i min(n, N // p**i) times: it divides D_n =
    (prod_{j=1..n} lcm(1..N//j))**2, which divides D_depth for n <= depth,
    so K = (N!)**2 / D_depth divides every c_n = S_n(N) * (N!)**2 read.
    Then k = prod_p p**e_p, e_p = sum_i max(0, N // p**i - depth), has
    e_p > 0 only for p <= N/(depth+1), none from depth >= N/2 on, and
    e_p = N // p - depth from N // p**2 <= depth on, so past sqrt(N).
    """
    row = coefficients(depth, truncation, first)
    primes = _primes(truncation // (depth + 1))
    powers = [truncation // p - depth for p in primes]
    for i, p in enumerate(primes):
        quotient = truncation // (p * p)
        if quotient <= depth:
            break
        while quotient > depth:
            powers[i] += quotient - depth
            quotient //= p
    cofactor = _product(list(map(pow, primes, powers)))
    root = div_exact(math.factorial(truncation), cofactor)
    cofactor *= cofactor
    return [div_exact(c, cofactor) for c in row], root * root


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
    Kept blocks cost less.
    """
    digits = int(2 * math.lgamma(truncation + 1) / math.log(10)) + 1
    width = min(depth, truncation // 2 + 1)
    pairs = (width - width * width // (truncation + 1)) ** 2
    return (int(pairs * digits ** math.log2(3))
            + leaf_units(depth, truncation)), digits
