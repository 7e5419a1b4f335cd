"""Function-level tracing of the ewtforecast package, applied from outside.

The tracer replaces public functions of the package with wrappers that count
calls and accumulate inclusive and self time. Self time is a span's duration
minus the durations of the traced spans it directly encloses. A module that
imports a function by name holds its own reference, so every module attribute
that *is* the original function is swapped, not only the defining one.

Per-call counters (repeat shares, fallbacks, flop counts) are computed in an
``on_return`` hook after the span has closed; the hook's own time is charged
to no layer, so it lowers the measured coverage instead of inflating a layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Call counts, inclusive and self time per span name, plus free counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.maxima = {}
        self._stack = []  # per open span: time covered by its traced children

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                hook_start = clock()
                on_return(self, args, kwargs, return_value)
                if stack:
                    stack[-1] += clock() - hook_start
            return return_value

        return traced

    def totals(self, weight: float = 1.0) -> dict:
        """Calls, self and inclusive time per span and every counter, times ``weight``."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name] * weight
            out[f"{name}.self_s"] = self.self_s[name] * weight
            out[f"{name}.total_s"] = self.total_s[name] * weight
        for name, value in self.counters.items():
            out[name] = value * weight
        return out


@contextmanager
def instrument(tracer: Tracer, package: str, spans: dict):
    """Swap traced wrappers into every loaded module of ``package``.

    ``spans`` maps ``"module.function"`` (module relative to the package) to
    an ``on_return`` hook or ``None``. The originals are restored on exit.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    patches = []
    try:
        for span, hook in spans.items():
            module_name, fn_name = span.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
            wrapper = tracer.wrap(span, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
