"""In-memory span tracer and the arithmetic the benchmark report rests on.

The tracer wraps functions from outside the package: it replaces every
binding of a function object in the package's modules, because the modules
import each other by name (``trainer`` holds its own ``dice_forward``).
Spans stay in memory with a parent link until the run writes them out, and
give each function's self time: its duration minus the time its child spans
cover.

This module uses the standard library only, so its arithmetic can be tested
without dicelab and imported before NumPy reads its thread settings.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# Percentiles a tail may be reported at; see tail_percentile.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples, in exact integer arithmetic."""
    milli = round(p * 1000)
    return max(1, -(-milli * n // 100_000))


def nearest_rank(sorted_values, p: float):
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above its rank."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def summarize(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, and the sample count."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "median": statistics.median(ordered) if ordered else None,
        "tail_percentile": p,
        "tail": nearest_rank(ordered, p) if p is not None else None,
    }


def lpt_makespan(times, workers: int) -> float:
    """Makespan when jobs go longest first, each to the least loaded worker."""
    loads = [0.0] * workers
    for t in sorted(times, reverse=True):
        i = loads.index(min(loads))
        loads[i] += t
    return max(loads)


def covered_time(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Self time per span key; spans are (key, parent_key, name, start, end)."""
    children = defaultdict(list)
    for key, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {key: (end - start) - covered_time(children.get(key, ()), start, end)
            for key, _, _, start, end in spans}


class Tracer:
    """Records one span per call of each wrapped function, plus per-name counters.

    A hook, called after the span closes, may add to ``counts`` or to the sets
    in ``distinct``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._ids = itertools.count()

    def wrap(self, name: str, fn, hook=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return wrapper


class Trace:
    """The spans of one traced repeat, indexed by name, with their self times."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.counts = dict(tracer.counts)
        self.distinct_counts = {k: len(v) for k, v in tracer.distinct.items()}
        self.self_s = self_times(self.spans)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span[2]].append(span)

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_s[s[0]] for s in self.named(name))

    def durations(self, name: str) -> list[float]:
        return [e - s for _, _, _, s, e in self.named(name)]

    def untraced(self, start: float, end: float) -> float:
        """Wall time in [start, end] spent in no wrapped function below a root span.

        Root spans frame the whole workload, so their self time (the
        workload's own code between traced calls) counts as untraced, as does
        any time outside them.
        """
        roots = [span for span in self.spans if span[1] is None]
        outside = (end - start) - covered_time([(s, e) for *_, s, e in roots], start, end)
        return outside + sum(self.self_s[span[0]] for span in roots)

    def call_counts(self) -> dict[str, int]:
        return {name: len(spans) for name, spans in self.by_name.items()}

    def write(self, path: Path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, targets, package: str):
    """Wrap each target in every module of package that binds it, then restore.

    targets: (module name, attribute, span name, hook or None). A target the
    package no longer has is skipped, so its layer reads zero calls.
    Modules must already be imported; only their current bindings are patched.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    undo = []
    for module_name, attr, name, hook in targets:
        orig = getattr(sys.modules.get(module_name), attr, None)
        if orig is None:
            continue
        wrapper = tracer.wrap(name, orig, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    undo.append((m, key, orig))
    try:
        yield tracer
    finally:
        for m, key, orig in reversed(undo):
            setattr(m, key, orig)
