"""Benchmark worker: one fresh interpreter per run.

Imports ``pipow.cli``, prints READY (the parent times set-up up to that
line), then sends the workload's requests one at a time through
``pipow.cli.main`` and streams one JSON line per request to the parent:
argv, exit code, captured stdout, the type of any exception that escaped
``main``, and the request's wall time. The workload's calibration task
(calibrate.py) is timed before the first request and after each one, each
time after a full garbage collection, so that what a request leaves on the
heap does not change the task's time. A final
``DONE`` line carries those task times, the loop's wall time, peak resident
memory and, when traced, the spans.

Runs whole passes over the workload's cycle: until --seconds have passed and
at least MIN_REQUESTS were sent, or exactly --reps passes when given.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
from time import perf_counter

# A timed run's p90 needs at least ten requests ranked above it.
MIN_REQUESTS = 100


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    # A run still going after this long stops mid-pass, so the parent gets
    # an answer inside its own time limit.
    parser.add_argument("--hard-limit", type=float, default=120.0)
    args = parser.parse_args()

    from pipow import cli

    channel = sys.stdout
    channel.write("READY\n")
    channel.flush()
    if args.setup_only:
        return 0

    import calibrate
    import workloads

    task = calibrate.TASKS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def timed_task():
        gc.collect()
        t0 = perf_counter()
        task()
        probes.append(perf_counter() - t0)

    probes = []
    sent = 0
    rep = 0
    start = perf_counter()
    timed_task()
    while True:
        elapsed = perf_counter() - start
        if args.reps:
            if rep >= args.reps:
                break
        elif elapsed >= args.seconds and sent >= MIN_REQUESTS:
            break
        if elapsed >= args.hard_limit:
            break
        for argv in workloads.repetition(args.workload, args.seed, rep):
            if tracer is not None:
                tracer.request = sent
            out, err = io.StringIO(), io.StringIO()
            code, error = None, None
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # a crash is a failed request
                error = type(exc).__name__
            latency = perf_counter() - t0
            channel.write(json.dumps({
                "argv": argv, "code": code, "error": error,
                "stdout": out.getvalue(), "latency": latency,
            }) + "\n")
            sent += 1
            timed_task()
            if perf_counter() - start >= args.hard_limit:
                break
        rep += 1
    loop_s = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    channel.write("DONE " + json.dumps({
        "loop_s": loop_s, "reps": rep, "peak_kb": peak_kb, "probes": probes,
        "spans": None if tracer is None else tracer.spans,
    }) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
