"""pipow benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of converge, exact, wide, symbolic, or ``all`` to run the four in
turn and print every metric by name with its unit. Run from a checkout of
the repository; ``pipow`` is imported from its ``src`` directory.

Each invocation first runs the package's own cross-checked harness
(``pipow.bench.run_benchmark``) and reports nothing if it fails. It then
spawns fresh worker interpreters (worker.py) that send the workload's
requests through ``pipow.cli.main`` one at a time, and checks every output
against an mpmath oracle (oracle.py) outside the timed region. Request
times are scaled to a reference host speed (calibrate.py).

--trace 0 reports the end-to-end metrics. --trace 1 runs the same requests
twice, untraced and then with every public layer function wrapped
(spans.py), requires byte-identical outputs, and reports per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. perfbench/README.md defines
every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6
# Calibration task times on each side of a request that scale its time.
WINDOW = 5
# The whole invocation ends well inside the 180 s a run is allowed.
BUDGET_S = 165.0

# Known open defects, reproduced once per invocation and reported, never
# fixed here. The workloads stay inside the domain where every request
# succeeds; these probes keep the defects visible until a change fixes them.
DEFECT_PROBES = [
    ("int-str-limit",
     ["sum", "--mode", "fixed", "--depth", "1", "--upto", "20",
      "--digits", "4298"],
     "from --digits 4298 on, FixedDecimal.to_decimal_string raises "
     "ValueError at CPython's 4300-digit int->str limit"),
    ("negative-x-argv",
     ["sinc", "--x", "-3/2", "--terms", "10"],
     "argparse reads -3/2 as an option and exits 3; only --x=-3/2 parses"),
    ("sinc-series-precision",
     ["sinc", "--x=7/2", "--terms", "200", "--format", "json"],
     "from about |x| = 1.8 on, the sinc series column misses the printed "
     "places: its fixed-point rows are not sized for the x^(2j) factors"),
]


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _run_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def preflight() -> dict:
    """Run the package's own harness and record the kernel backend."""
    if not (SRC / "pipow" / "cli.py").is_file():
        raise BenchError(f"no pipow sources under {SRC}")
    for name in [k for k in os.environ if k.startswith("PIPOW_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    import pipow
    from pipow import bench, cli

    _rows, ok = bench.run_benchmark()
    if not ok:
        raise BenchError("pipow.bench.run_benchmark() cross-checks failed")
    try:
        import pipow._kernel  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    defects = {}
    for name, argv, what in DEFECT_PROBES:
        try:
            code, out = _run_cli(cli.main, argv)
            reason = oracle.check(argv, code, out)
        except Exception as exc:  # the defect may be a crash
            reason = type(exc).__name__
        defects[name] = {"open": reason is not None, "observed": reason,
                         "defect": what}
    return {"backend": pipow.KERNEL_BACKEND, "compiled_kernel": compiled,
            "defects": defects}


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIPOW_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list, hard_limit: float, cmd: list = None):
    """Start a worker (or `cmd`); return (seconds until it printed READY,
    request records, DONE info)."""
    cmd = cmd or [sys.executable, str(HERE / "worker.py"), *args,
                  "--hard-limit", str(hard_limit)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_env(), cwd=str(ROOT))
    watchdog = threading.Timer(hard_limit + 30, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        records, done = [], None
        for line in proc.stdout:
            if line.startswith("DONE "):
                done = json.loads(line[5:])
            else:
                records.append(json.loads(line))
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if ready != "READY\n" or proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    if done is None and "--workload" in args:
        raise BenchError(f"worker {args} sent no DONE line")
    return setup, records, done


def check_outputs(records: list) -> list:
    """Failure reason per record (None for a good one). Identical outputs of
    a repeated request share one oracle verdict."""
    verdicts = {}
    reasons = []
    for r in records:
        if r["error"] is not None:
            reasons.append(f"exception {r['error']}")
            continue
        key = (tuple(r["argv"]), r["code"], r["stdout"])
        if key not in verdicts:
            verdicts[key] = oracle.check(r["argv"], r["code"], r["stdout"])
        reasons.append(verdicts[key])
    return reasons


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics. Unlike one order statistic, it does not jump when
    requests of neighbouring cost swap ranks. An infinite value (a failed
    request) with a weight that counts makes the estimate infinite."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # The Beta weights vanish beyond ten standard deviations from q.
    reach = 10 * math.sqrt(q * (1 - q) / (n + 2))

    def beta_cdf(x):
        if abs(x - q) > reach:
            return float(x > q)
        return float(mpmath.betainc(a, b, 0, x, regularized=True))

    cdf = [beta_cdf(i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered)
               if hi - lo > 1e-12)


def per_request(records: list, values: list, passes: int) -> list:
    """One value per request of the cycle: the median of its values over the
    passes. Identical requests within one cycle keep their count. Every pass
    sends the same requests, so the percentiles of these values do not
    depend on how many passes the run made."""
    groups = {}
    for r, v in zip(records, values):
        groups.setdefault(json.dumps(r["argv"]), []).append(v)
    return [statistics.median(vs) for vs in groups.values()
            for _ in range(max(1, round(len(vs) / passes)))]


def scale_factors(name: str, probes: list, count: int) -> list:
    """Per request, the factor that scales its wall time to the reference
    host speed: the nominal time of the workload's calibration task over the
    median of the task times measured around the request."""
    nominal = calibrate.NOMINAL_S[name]
    return [nominal / statistics.median(probes[max(0, i - WINDOW + 1):
                                               i + WINDOW + 1])
            for i in range(count)]


def scaled(name: str, records: list, probes: list) -> list:
    """Each request's wall time at the reference host speed."""
    return [r["latency"] * f for r, f in
            zip(records, scale_factors(name, probes, len(records)))]


def setup_times(count: int) -> list:
    """(set-up seconds, bare interpreter start-up seconds) pairs."""
    bare = [sys.executable, "-c", calibrate.BARE_START]
    return [(spawn(["--setup-only"], 10)[0], spawn([], 10, bare)[0])
            for _ in range(count)]


def end_to_end(name: str, seed: int, seconds: float, deadline: float):
    # Half the set-up spawns run before the loop and half after it, so the
    # median straddles two moments of the host.
    setups = setup_times(SETUP_PROBES // 2)
    records, done = spawn(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)],
        max(5.0, deadline - perf_counter() - 25))[1:]
    setups += setup_times(SETUP_PROBES - SETUP_PROBES // 2)
    reasons = check_outputs(records)
    failed = sum(r is not None for r in reasons)
    times = scaled(name, records, done["probes"])
    # A failed request ranks as slower than any success; if a percentile
    # lands on one, it reads as the whole loop's scaled time.
    ranked = per_request(records, [t if why is None else math.inf
                                   for t, why in zip(times, reasons)],
                         done["reps"])
    p50, p90 = (percentile(ranked, q) for q in (0.5, 0.9))
    metrics = {
        "setup_s": statistics.median(s for s, _b in setups)
        * calibrate.SETUP_NOMINAL_S / statistics.median(b for _s, b in setups),
        "latency_p50_s": sum(times) if p50 == math.inf else p50,
        "latency_p90_s": sum(times) if p90 == math.inf else p90,
        "requests_per_s": (len(records) - failed) / sum(times),
        "peak_rss_mb": done["peak_kb"] / 1024,
    }
    raw = [r["latency"] for r in records]
    raw_cycle = per_request(records, raw, done["reps"])
    extra = {
        "failed_frac": failed / len(records),
        "requests": len(records),
        "passes": done["reps"],
        "raw.setup_s": statistics.median(s for s, _b in setups),
        "raw.latency_p50_s": percentile(raw_cycle, 0.5),
        "raw.latency_p90_s": percentile(raw_cycle, 0.9),
        "raw.requests_per_s": len(records) / sum(raw),
        "host.speed": calibrate.NOMINAL_S[name]
        / statistics.median(done["probes"]),
    }
    return records, reasons, metrics, extra


# --- traced run ------------------------------------------------------------

_SERIES = ("series.exact", "series.partial_sum", "series.converge",
           "series.required_truncation", "series.tail_bound",
           "series.sinc_product", "series.sinc_series")
_REFERENCE = ("reference.reference_value", "reference.basel_power",
              "reference.pi_digits", "reference.sinc_taylor")
_SYMMETRIC = ("symmetric.verify_expansion", "symmetric.expand_product",
              "symmetric.elementary_symmetric_row",
              "symmetric.elementary_symmetric")

_TIMES = {
    # metric: span names whose scaled self time it sums, per pass
    "kernel.self_s": ("kernel.dp_row_scaled",),
    "series.self_s": _SERIES,
    "series.required_truncation_s": ("series.required_truncation",),
    "series.tail_bound_s": ("series.tail_bound",),
    "series.exact.self_s": ("series.exact",),
    "series.sinc_product_s": ("series.sinc_product",),
    "series.sinc_series_s": ("series.sinc_series",),
    "reference.self_s": _REFERENCE,
    "exactnum.render_s": ("exactnum.render",),
    "symmetric.verify_s": ("symmetric.verify_expansion",),
    "symmetric.expand_product_s": ("symmetric.expand_product",),
    "symmetric.row_s": ("symmetric.elementary_symmetric_row",),
    "symmetric.enumerate_s": ("symmetric.elementary_symmetric",),
    "cli.self_s": ("cli.main",),
}

# metric: (span names, count key or None for the number of calls, reduction)
_COUNTS = {
    "kernel.calls": (("kernel.dp_row_scaled",), None, sum),
    "kernel.steps": (("kernel.dp_row_scaled",), "steps", sum),
    "kernel.digit_steps": (("kernel.dp_row_scaled",), "digit_steps", sum),
    "series.truncation": (("series.required_truncation",), "truncation", sum),
    "series.exact.calls": (("series.exact",), None, sum),
    "series.exact.steps": (("series.exact",), "steps", sum),
    "series.sinc_powers": (("series.sinc_series",), "powers", sum),
    "reference.calls": (_REFERENCE, None, sum),
    "reference.max_digits": (_REFERENCE, "digits", max),
    "exactnum.render_digits": (("exactnum.render",), "digits", sum),
    "symmetric.monomials": (("symmetric.verify_expansion",), "monomials", sum),
}

# The layers whose self time is compared to find the one that dominates.
LAYERS = {
    "kernel": ("kernel.dp_row_scaled",),
    "series.exact": ("series.exact",),
    "series.sinc": ("series.sinc_product", "series.sinc_series"),
    "series.other": tuple(n for n in _SERIES if n not in
                          ("series.exact", "series.sinc_product",
                           "series.sinc_series")),
    "reference": _REFERENCE,
    "exactnum": ("exactnum.render",),
    "symmetric": _SYMMETRIC,
    "cli": ("cli.main",),
}
# Where the layer-to-metric table (README.md) says one layer does most of
# the work: the layers that may dominate each workload.
EXPECTED_DOMINANT = {
    "converge": ("kernel",),
    "exact": ("series.exact",),
    "symbolic": ("symmetric", "series.sinc"),
}


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _req, _counts in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_n, start, end, _p, _r, _c) in enumerate(spans)]


def count_lines(directory: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(directory.rglob("*.py")))


def per_layer(spans: list, factors: list, total: float, passes: int):
    """Per-layer metrics of a traced run and the layer that dominates.

    `factors` scales the time of each request (by request id) to the
    reference host speed, and `total` is the scaled traced request time."""
    busy = {}
    for span, s in zip(spans, self_times(spans)):
        busy[span[0]] = busy.get(span[0], 0.0) + s * factors[span[4]]
    metrics = {m: sum(busy.get(n, 0.0) for n in names) / passes
               for m, names in _TIMES.items()}
    for m, (names, key, reduce) in _COUNTS.items():
        values = [1 if key is None else span[5][key]
                  for span in spans if span[0] in names]
        value = reduce(values) if values else 0
        # Every pass sends the same requests, so per-pass sums are exact.
        metrics[m] = value // passes if reduce is sum else value
    layers = {layer: sum(busy.get(n, 0.0) for n in names)
              for layer, names in LAYERS.items()}
    # The share of request time inside a wrapped layer below cli.main, that
    # is, neither in the CLI's own glue nor outside every span.
    metrics["trace.coverage_frac"] = (sum(layers.values())
                                      - layers["cli"]) / total
    metrics["size.src_lines"] = count_lines(SRC)
    metrics["size.test_lines"] = count_lines(ROOT / "tests")
    extra = {"dominant_layer": max(layers, key=layers.get)}
    for names, key in ((("kernel.dp_row_scaled",), "kernel"),
                       (("series.exact",), "series.exact")):
        steps = sum(span[5]["steps"] for span in spans if span[0] in names)
        if steps:
            extra[f"{key}.ns_per_step"] = (
                1e9 * sum(busy.get(n, 0.0) for n in names) / steps)
    return metrics, extra


def traced(name: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", name, "--seed", str(seed)]
    budget = deadline - perf_counter() - 25
    _setup, plain, done = spawn(base + ["--seconds", str(seconds / 2)],
                                max(5.0, budget / 2.5))
    _setup, wrapped, tdone = spawn(base + ["--reps", str(done["reps"]),
                                           "--trace"],
                                   max(5.0, deadline - perf_counter() - 25))
    if len(wrapped) != len(plain):
        raise BenchError(f"traced run sent {len(wrapped)} requests, "
                         f"untraced {len(plain)}")
    reasons = [
        why if (a["argv"], a["code"], a["error"], a["stdout"])
        == (b["argv"], b["code"], b["error"], b["stdout"])
        else why or "traced output differs from untraced output"
        for a, b, why in zip(plain, wrapped, check_outputs(plain))]
    factors = scale_factors(name, tdone["probes"], len(wrapped))
    total = sum(r["latency"] * f for r, f in zip(wrapped, factors))
    metrics, extra = per_layer(tdone["spans"], factors, total, done["reps"])
    metrics["trace.overhead_frac"] = total / sum(
        scaled(name, plain, done["probes"])) - 1
    expected = EXPECTED_DOMINANT.get(name)
    if expected and extra["dominant_layer"] not in expected:
        print(f"# trace: {extra['dominant_layer']} dominates {name}; the "
              f"layer table expects {' or '.join(expected)}", file=sys.stderr)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{name}-seed{seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "passes": done["reps"],
                   "spans": tdone["spans"]}, handle)
    extra.update({"requests": len(plain), "passes": done["reps"]})
    return plain, reasons, metrics, extra


# --- output ------------------------------------------------------------------

# Units of the figures printed beside the metrics but not in BENCHMARK.json.
EXTRA_UNITS = {
    "failed_frac": "frac", "requests": "count", "passes": "count",
    "raw.setup_s": "s", "raw.latency_p50_s": "s", "raw.latency_p90_s": "s",
    "raw.requests_per_s": "1/s", "host.speed": "x",
    "kernel.ns_per_step": "ns", "series.exact.ns_per_step": "ns",
    "dominant_layer": "",
}

def _units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            deadline: float, units: dict) -> dict:
    fn = traced if trace else end_to_end
    records, reasons, metrics, extra = fn(name, seed, seconds, deadline)
    failures = [(r["argv"], why) for r, why in zip(records, reasons) if why]
    for argv, why in failures[:5]:
        print(f"# FAILED {argv}: {why}", file=sys.stderr)
    for key, value in sorted(metrics.items()):
        print(f"{name:9s} {key:34s} {value:>16.6g} {units[key]}")
    for key, value in sorted(extra.items()):
        shown = f"{value:>16.6g}" if isinstance(value, float) else f"{value!s:>16}"
        print(f"{name:9s} {key:34s} {shown} {EXTRA_UNITS.get(key, '')}")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()
    try:
        units = _units()
        info = preflight()
        print(f"# backend {info['backend']}; compiled kernel importable: "
              f"{'yes' if info['compiled_kernel'] else 'no'}")
        for name, d in info["defects"].items():
            state = "OPEN" if d["open"] else "no longer reproduces"
            print(f"# defect {name}: {state} ({d['observed']}): {d['defect']}")
        names = (sorted(workloads.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        results = {}
        for name in names:
            deadline = (start if len(names) == 1 else perf_counter()) + BUDGET_S
            results[name] = run_one(name, args.seed, args.seconds,
                                    bool(args.trace), deadline, units)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
