"""Span recorder for the traced run.

``Tracer.install`` replaces public functions of each ``pipow`` module with
wrappers that record one span per call: name, start, end, parent span and
request id, plus a few work counts taken from the arguments or the result.
A function imported by name is bound in several modules (``pipow.cli``
imports ``partial_sum`` from ``pipow.series``), so every binding of the same
function object is replaced. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter


def _kernel(a, _result):
    steps = a["depth"] * a["truncation"]
    return {"steps": steps, "digit_steps": steps * a["scale"]}


def _exact_steps(a, _result):
    return {"steps": a["depth"] * a["truncation"]}


def _partial_sum_name(a):
    return "series.exact" if a["mode"] == "exact" else "series.partial_sum"


def _digits(a, _result):
    return {"digits": a["digits"]}


def _render(a, _result):
    digits = a["display_digits"]
    return {"digits": a["self"].digits if digits is None else digits}


# (module, attribute, span name or name function, counter or None)
TARGETS = [
    ("pipow.cli", "main", "cli.main", None),
    ("pipow._backend", "dp_row_scaled", "kernel.dp_row_scaled", _kernel),
    ("pipow.series", "partial_sum", _partial_sum_name, _exact_steps),
    ("pipow.series", "converge", "series.converge", None),
    ("pipow.series", "required_truncation", "series.required_truncation",
     lambda a, n: {"truncation": n}),
    ("pipow.series", "tail_bound", "series.tail_bound", None),
    ("pipow.series", "sinc_product", "series.sinc_product", None),
    ("pipow.series", "sinc_series", "series.sinc_series",
     lambda a, _r: {"powers": a["powers"]}),
    ("pipow.reference", "reference_value", "reference.reference_value", _digits),
    ("pipow.reference", "basel_power", "reference.basel_power", _digits),
    ("pipow.reference", "pi_digits", "reference.pi_digits", _digits),
    ("pipow.reference", "sinc_taylor", "reference.sinc_taylor", _digits),
    ("pipow.exactnum", "FixedDecimal.to_decimal_string", "exactnum.render",
     _render),
    ("pipow.symmetric", "verify_expansion", "symmetric.verify_expansion",
     lambda a, _r: {"monomials": 2 ** a["n_vars"]}),
    ("pipow.symmetric", "expand_product", "symmetric.expand_product", None),
    ("pipow.symmetric", "elementary_symmetric_row",
     "symmetric.elementary_symmetric_row", None),
    ("pipow.symmetric", "elementary_symmetric",
     "symmetric.elementary_symmetric", None),
]


class Tracer:
    """Collects spans as lists [name, start, end, parent, request, counts]."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = [name(a) if callable(name) else name, perf_counter(), None,
                    stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(a, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pipow" or n.startswith("pipow.")]
        for module_name, attribute, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, name, counter)
            setattr(owner, leaf, wrapper)
            if path:
                continue  # a method: patched on its class, which all share
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
