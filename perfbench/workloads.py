"""Request generators for the four benchmark workloads.

Each workload is a fixed *cycle* of CLI requests (argv lists for
``pipow.cli.main``), drawn from the seed. A run repeats the cycle in a fresh
shuffled order per repetition, one request at a time (closed loop, one
client). Every continuous parameter range is cut into equal strata (in log
for N and the sinc term count, linearly for the digit count), and each cell
of the cycle draws its value uniformly within its own stratum. The strata
cover the whole range, so the extremes are sent, while the cycle's cost
distribution, and with it every percentile, stays close from seed to seed.
The seed also picks the output formats, optional flags and every order.

Everything here is a pure function of (workload, seed, repetition) and uses
nothing from ``pipow``.
"""

from __future__ import annotations

import math
import random

FORMATS = ("text", "json", "csv")

EXACT_N = (50, 2000)
WIDE_N = (20, 300)
# The wide workload's --digits range. From --digits 4298 on,
# FixedDecimal.to_decimal_string hits CPython's 4300-digit int->str limit
# and the request crashes; that open defect is probed once per invocation
# (run.py, DEFECT_PROBES) instead of failing timed requests.
WIDE_DIGITS = (500, 4297)
SINC_TERMS = (100, 5000)
# |x| strata of the sinc requests: from about |x| = 1.8 on, the series column
# misses the printed places (see DEFECT_PROBES in run.py); below 3/2 its
# error stays far under half a unit.
SINC_X_STRATA = ((0.25, 0.75), (1.1, 1.5))
# Strata per range: enough cells that the few heaviest, which set the p90,
# differ little in cost from one seed to the next.
EXACT_STRATA = 20
WIDE_N_STRATA = 8
WIDE_DIGIT_STRATA = 8
SINC_T_STRATA = 10
VERIFY_COPIES = 2


def _rng(workload: str, seed: int, salt: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{salt}")


def _strata(rng: random.Random, bounds: tuple, count: int,
            log: bool = False) -> list:
    """One integer per stratum: `count` equal slices of [low, high] (in log
    when `log`), each value drawn uniformly within its slice."""
    low, high = bounds
    if log:
        span = math.log(high / low)
        values = [low * math.exp((i + rng.random()) * span / count)
                  for i in range(count)]
    else:
        values = [low + (i + rng.random()) * (high - low) / count
                  for i in range(count)]
    return [min(high, max(low, round(v))) for v in values]


def _fmt(rng: random.Random) -> list:
    return ["--format", rng.choice(FORMATS)]


def _converge(rng: random.Random) -> list:
    # Three copies of each (depth, digits) pair plus one table per max
    # depth: 39 requests, one in thirteen a table. An odd count keeps the
    # median off the boundary between two request kinds.
    cycle = []
    for _copy in range(3):
        for depth in range(1, 5):
            for digits in (3, 4, 5):
                cycle.append(["converge", "--depth", str(depth),
                              "--digits", str(digits)] + _fmt(rng))
    for max_depth in (2, 3, 4):
        cycle.append(["table", "--max-depth", str(max_depth),
                      "--digits", "4"] + _fmt(rng))
    return cycle


def _exact(rng: random.Random) -> list:
    # 6 depths x EXACT_STRATA log-strata of N.
    cycle = []
    for depth in range(1, 7):
        for upto in _strata(rng, EXACT_N, EXACT_STRATA, log=True):
            argv = ["sum", "--depth", str(depth), "--upto", str(upto)]
            if rng.random() < 0.25:
                argv.append("--as-decimal")
            cycle.append(argv + _fmt(rng))
    return cycle


def _wide(rng: random.Random) -> list:
    # 4 depths x WIDE_N_STRATA log-strata of N x WIDE_DIGIT_STRATA strata of
    # the digit count.
    cycle = []
    for depth in range(1, 5):
        for upto in _strata(rng, WIDE_N, WIDE_N_STRATA, log=True):
            for digits in _strata(rng, WIDE_DIGITS, WIDE_DIGIT_STRATA):
                cycle.append(["sum", "--mode", "fixed", "--depth", str(depth),
                              "--upto", str(upto), "--digits", str(digits)]
                             + _fmt(rng))
    return cycle


def _symbolic(rng: random.Random) -> list:
    cycle = [["verify-theorem", "--m", str(m)] + _fmt(rng)
             for _copy in range(VERIFY_COPIES) for m in range(6, 14)]
    for low, high in SINC_X_STRATA:
        for terms in _strata(rng, SINC_TERMS, SINC_T_STRATA, log=True):
            q = rng.randint(2, 7)
            p = rng.choice([p for p in range(1, 2 * q) if low < p / q <= high])
            sign = rng.choice(("", "-"))
            # Negative arguments only parse in the --x=VALUE form.
            cycle.append(["sinc", f"--x={sign}{p}/{q}", "--terms", str(terms)]
                         + _fmt(rng))
    return cycle


WORKLOADS = {
    "converge": _converge,
    "exact": _exact,
    "wide": _wide,
    "symbolic": _symbolic,
}


def cycle(workload: str, seed: int) -> list:
    """The distinct requests of one cycle, in generation order."""
    return WORKLOADS[workload](_rng(workload, seed, "cycle"))


def repetition(workload: str, seed: int, rep: int) -> list:
    """Pass number `rep` over the cycle, in its own seeded order."""
    order = cycle(workload, seed)
    _rng(workload, seed, f"order{rep}").shuffle(order)
    return order
