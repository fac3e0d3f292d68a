"""In-memory spans for the traced run.

A span records its name, start and end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes), the index of
the span that was open when it started, and the run id shared by every span
of one benchmark run.  Spans are kept in a list and written out once, when
the run ends.
"""

from __future__ import annotations

import time


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.spans.append([self.name, time.perf_counter_ns(), 0, parent])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def export(self) -> list[dict]:
        return [{"name": name, "start_ns": start, "end_ns": end, "parent": parent, "run": self.run_id}
                for name, start, end, parent in self.spans]


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    run_id = None
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span

    def export(self) -> list[dict]:
        return []


def adopt(spans: list[dict], children: list[dict], parent: int) -> None:
    """Append a child process's spans under the span at index ``parent``."""
    offset = len(spans)
    for span in children:
        span = dict(span)
        span["parent"] = parent if span["parent"] < 0 else span["parent"] + offset
        spans.append(span)


def self_times(spans: list[dict]) -> dict[str, tuple[int, int]]:
    """{name: (count, total self time in ns)}; a span's self time is its
    duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    out: dict[str, tuple[int, int]] = {}
    for span, inner in zip(spans, child_ns):
        count, total = out.get(span["name"], (0, 0))
        out[span["name"]] = (count + 1, total + span["end_ns"] - span["start_ns"] - inner)
    return out
