"""Machine-speed calibration tasks.

The benchmark host is shared, and its speed drifts with the neighbours'
load: on the 2-vCPU host this benchmark was written on, a fixed pure-Python
task took anywhere from 1.15 to 2.06 ms within a few minutes. Raw wall times
then differ by up to a third between runs of the same code.

So each workload has a fixed task here, written in the style of the code the
workload spends its time in (interpreter-bound narrow-integer sweeps, wide
big-integer arithmetic, sums of wide Fractions, dict-of-tuples expansion). The
worker times the task before the first request and after every request, each
time after a full garbage collection; run.py scales each request's wall
time by NOMINAL_S / (task time measured around it). Timings are therefore
reported in seconds at the host speed at which the task takes NOMINAL_S. The
tasks never call ``pipow``, but they run in the same process: a change to
the program that leaves live data or warm caches behind could move the task
times too, so its scaled timings are not guaranteed to move exactly as its
raw ones (run.py prints both).

These tasks and constants are part of the benchmark definition: changing
them changes every reported time.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _sweep(depth: int, upto: int, scale: int) -> list:
    """Fixed-point nested-sum sweep with half-even rounding."""
    one = 10 ** scale
    row = [one] + [0] * depth
    for ell in range(1, upto + 1):
        sq = ell * ell
        q, r = divmod(one, sq)
        if 2 * r > sq or (2 * r == sq and q & 1):
            q += 1
        for k in range(min(depth, ell), 1, -1):
            q2, r2 = divmod(q * row[k - 1], one)
            if 2 * r2 > one or (2 * r2 == one and q2 & 1):
                q2 += 1
            row[k] += q2
        row[1] += q
    return row


# Fractions whose parts have about 1500 digits, like the exact sweep's
# partial sums at N in the hundreds to thousands.
_FRACTIONS = [Fraction(random.Random(2 * i).getrandbits(5000),
                       random.Random(2 * i + 1).getrandbits(5000) | 1)
              for i in range(6)]


def _fraction_sum() -> Fraction:
    return sum(_FRACTIONS, Fraction(0))


def _expand(n_vars: int) -> list:
    """prod (1 + x_m t) with monomials as sorted index tuples."""
    coefficients = [{(): 1}]
    for m in range(1, n_vars + 1):
        nxt = [{} for _ in range(len(coefficients) + 1)]
        for power, poly in enumerate(coefficients):
            for mono, c in poly.items():
                nxt[power][mono] = nxt[power].get(mono, 0) + c
                key = tuple(sorted(mono + (m,)))
                nxt[power + 1][key] = nxt[power + 1].get(key, 0) + c
        coefficients = nxt
    return coefficients


TASKS = {
    "converge": lambda: _sweep(3, 800, 30),
    "exact": _fraction_sum,
    "wide": lambda: _sweep(2, 10, 2500),
    "symbolic": lambda: (_expand(8), _sweep(12, 100, 40)),
}

# Task time, in seconds, at the reference host speed.
NOMINAL_S = {
    "converge": 0.0017,
    "exact": 0.0022,
    "wide": 0.0018,
    "symbolic": 0.0009,
}

# Set-up (interpreter start-up plus importing pipow.cli) is scaled the same
# way by the start-up of a bare interpreter that only prints READY.
BARE_START = "import sys; sys.stdout.write('READY\\n')"
SETUP_NOMINAL_S = 0.035
