"""In-memory spans and work counts for the traced benchmark run.

A span is (name, start, end, parent): ``name`` is ``<layer>.<function>``,
times are ``clock`` seconds, and ``parent`` is the index of the enclosing
span or -1.  Spans are opened only by the benchmark's own code,
around its calls into the library, so nothing inside ``limitcanon`` is
instrumented.  ``NULL`` is the tracer used for untraced runs; its span is a
shared no-op context manager.
"""

from __future__ import annotations

import gzip
import json
import time

# Every benchmark time is CPU time of the thread that does the work.  The
# library is single-threaded pure Python, so that is the wall time of an
# operation less the time the host, or the benchmark's calibration thread,
# ran something else.
CLOCK_NAME = "thread_time"
clock = getattr(time, CLOCK_NAME)


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append(None)
        t.stack.append(self.index)
        self.start = clock()
        return self

    def __exit__(self, *exc):
        end = clock()
        t = self.tracer
        # a tuple of plain values, which the garbage collector stops tracking
        t.spans[self.index] = (self.name, self.start, end, self.parent)
        t.stack.pop()
        return False


class Tracer:
    """Collects spans in memory; ``dump`` writes them when the run ends."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.samples = {}

    def span(self, name):
        return _Span(self, name)

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def self_times(self, durations):
        """Self time per layer over the first len(durations) spans: each
        span's duration minus its children's."""
        child = [0.0] * len(durations)
        for s, d in zip(self.spans, durations):
            if 0 <= s[3] < len(durations):
                child[s[3]] += d
        out = {}
        for s, d, c in zip(self.spans, durations, child):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + d - c
        return out

    def dump(self, path, meta):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((a - t0) * 1e6), round((b - t0) * 1e6), parent]
            for name, a, b, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": ["name", "start_us", "end_us", "parent"], "spans": rows}, handle)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name):
        return self._span

    def add(self, name, n):
        pass


NULL = _NullTracer()
