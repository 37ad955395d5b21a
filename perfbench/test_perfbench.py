"""Self-tests of the benchmark: deterministic inputs that cover their
ranges, tracing that changes nothing and finds the layer the workload
exercises, and an oracle that rejects wrong output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import oracle
import run
import workloads

from pipow import cli

SAMPLES = [
    ["converge", "--depth", "2", "--digits", "3"],
    ["table", "--max-depth", "3", "--digits", "3"],
    ["sum", "--depth", "3", "--upto", "60"],
    ["sum", "--depth", "2", "--upto", "75", "--as-decimal"],
    ["sum", "--mode", "fixed", "--depth", "2", "--upto", "30",
     "--digits", "600"],
    ["sinc", "--x=-7/5", "--terms", "150"],
    ["verify-theorem", "--m", "5"],
]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    assert workloads.cycle(name, 7) == workloads.cycle(name, 7)
    assert workloads.repetition(name, 7, 3) == workloads.repetition(name, 7, 3)
    assert workloads.cycle(name, 7) != workloads.cycle(name, 8)
    assert workloads.repetition(name, 7, 0) != workloads.repetition(name, 7, 1)
    assert sorted(workloads.repetition(name, 7, 1)) == \
        sorted(workloads.cycle(name, 7))


def _values(cycle: list, option: str) -> list:
    return [int(argv[argv.index(option) + 1]) for argv in cycle
            if option in argv]


@pytest.mark.parametrize("name,option,bounds,strata", [
    ("exact", "--upto", workloads.EXACT_N, workloads.EXACT_STRATA),
    ("wide", "--upto", workloads.WIDE_N, workloads.WIDE_N_STRATA),
    ("wide", "--digits", workloads.WIDE_DIGITS, workloads.WIDE_DIGIT_STRATA),
    ("symbolic", "--terms", workloads.SINC_TERMS, workloads.SINC_T_STRATA),
])
def test_cells_fill_every_stratum_of_the_range(name, option, bounds, strata):
    low, high = bounds
    log = option != "--digits"
    values = _values(workloads.cycle(name, 7), option)
    assert low <= min(values) and max(values) <= high
    edges = [low * (high / low) ** (i / strata) if log
             else low + (high - low) * i / strata for i in range(strata + 1)]
    counts = [sum(lo - 0.5 <= v <= hi + 0.5 for v in values)
              for lo, hi in zip(edges, edges[1:])]
    assert min(counts) >= len(values) // strata
    # Across seeds, the draws reach both ends of the range.
    many = [v for seed in range(40)
            for v in _values(workloads.cycle(name, seed), option)]
    assert min(many) <= edges[0] + 0.02 * (edges[1] - edges[0])
    assert max(many) >= edges[-1] - 0.02 * (edges[-1] - edges[-2])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_prints_what_the_untraced_run_prints(name):
    base = ["--workload", name, "--seed", "3", "--reps", "1"]
    _, plain, _ = run.spawn(base, 60)
    _, traced, done = run.spawn(base + ["--trace"], 60)
    assert [r["argv"] for r in plain] == workloads.repetition(name, 3, 0)
    assert [(r["argv"], r["code"], r["error"], r["stdout"]) for r in traced] \
        == [(r["argv"], r["code"], r["error"], r["stdout"]) for r in plain]
    assert done["spans"], "the traced run recorded no spans"
    assert run.check_outputs(plain) == [None] * len(plain)
    factors = run.scale_factors(name, done["probes"], len(traced))
    total = sum(r["latency"] * f for r, f in zip(traced, factors))
    metrics, extra = run.per_layer(done["spans"], factors, total, 1)
    # Most of the request time is inside a wrapped layer, and the layer that
    # dominates is the one the layer table names for the workload.
    assert metrics["trace.coverage_frac"] > 0.5
    if name in run.EXPECTED_DOMINANT:
        assert extra["dominant_layer"] in run.EXPECTED_DOMINANT[name]


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("argv", SAMPLES, ids=lambda a: "-".join(a[:2]))
def test_oracle_accepts_real_output(argv, fmt):
    request = argv + ["--format", fmt]
    code, out = run._run_cli(cli.main, request)
    assert oracle.check(request, code, out) is None


def _bump(text: str, position: int) -> str:
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    i = digits[position]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("argv", SAMPLES, ids=lambda a: "-".join(a[:2]))
def test_oracle_rejects_injected_wrong_output(argv):
    request = argv + ["--format", "json"]
    code, out = run._run_cli(cli.main, request)
    assert oracle.check(request, code, out) is None
    assert oracle.check(request, 1, out) is not None
    data = json.loads(out)
    row = data[-1] if isinstance(data, list) else data
    if argv[0] == "verify-theorem":
        row["passed"] = False
        wrong = [row]
    else:
        key = "series" if argv[0] == "sinc" else "value"
        # A wrong leading digit, and for the exact-to-the-place commands a
        # wrong last digit.
        wrong = [_bump(row[key], 1)]
        if argv[0] in ("sum", "sinc"):
            wrong.append(_bump(row[key], -1))
        wrong = [dict(row, **{key: w}) for w in wrong]
    for bad_row in wrong:
        bad = (data[:-1] + [bad_row]) if isinstance(data, list) else bad_row
        assert oracle.check(request, code, json.dumps(bad, indent=2)) \
            is not None, bad_row
