"""Spans around calls into afkit's public functions, from outside afkit.

`instrument(tracer)` replaces each traced function in every loaded afkit
module that holds it, so calls made inside afkit (run_bench calling
compute_emaf, lteaf calling standardize, the CLI calling gridio) are
recorded too; the originals are restored on exit.  Spans stay in memory
as [name, start, end, parent] and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made meanwhile (output checks) leave no spans or counts."""
        self._paused, before = True, self._paused
        try:
            yield
        finally:
            self._paused = before

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None and not self._paused:
                count(self.counters, args)
            return out

        return traced

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _emaf_counts(counters: Counter, args) -> None:
    # Operation count and bytes moved derived from the array sizes, not
    # measured: N^2 complex lag products (6 flop each) and 2N-1 complex
    # FFTs of length L = 2N (5 L log2 L flop each); bytes for the zeroed
    # row buffer, the products (two reads, one write), the FFT and the
    # fftshift copy (one read and one write of the plane each).
    n = len(args[0])
    rows, length = 2 * n - 1, 2 * n
    counters["emaf.compute_emaf.flops_computed"] += 6 * n * n + rows * 5 * length * math.log2(length)
    counters["emaf.compute_emaf.bytes_computed"] += 16 * (5 * rows * length + 3 * n * n)


def _written(counters: Counter, args) -> None:
    counters["gridio.bytes_written"] += os.path.getsize(args[0])


def _read(counters: Counter, args) -> None:
    counters["gridio.bytes_read"] += os.path.getsize(args[0])


# (module, function, counter); the span name is "<module>.<function>".
TRACED = (
    ("sigcore", "generate", None),
    ("emaf", "compute_emaf", _emaf_counts),
    ("emaf", "standardize", None),
    ("thresholding", "teaf", None),
    ("thresholding", "lteaf", None),
    ("thresholding", "lbteaf", None),
    ("thresholding", "bias_correct", None),
    ("thresholding", "threshold_with_details", None),
    ("moments", "naf_for_process", None),
    ("bench", "run_bench", None),
    ("bench", "mse_against_naf", None),
    ("spread", "indicator", None),
    ("spread", "total_spread", None),
    ("gridio", "write_signal", _written),
    ("gridio", "load_signal", _read),
    ("gridio", "write_grid", _written),
    ("gridio", "load_grid", _read),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    patched = []
    afkit_modules = [m for k, m in list(sys.modules.items()) if k == "afkit" or k.startswith("afkit.")]
    for module, attr, count in TRACED:
        original = getattr(importlib.import_module(f"afkit.{module}"), attr)
        traced = tracer.wrap(f"{module}.{attr}", original, count)
        for mod in afkit_modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, traced)
                patched.append((mod, key, original))
    try:
        yield
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)


def summarize(spans) -> dict:
    """Calls, inclusive seconds and self seconds per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _), child in zip(spans, covered):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child
    return out


def child_time(spans, parent_names) -> tuple:
    """(summed duration of the parents, summed duration of their direct children)."""
    parents = {i for i, s in enumerate(spans) if s[0] in parent_names}
    outer = sum(spans[i][2] - spans[i][1] for i in parents)
    inner = sum(end - start for _, start, end, parent in spans if parent in parents)
    return outer, inner
