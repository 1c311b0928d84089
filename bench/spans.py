"""In-memory spans for the traced run of the benchmark.

A span has a name, a start, an end and a parent.  Spans are recorded
only by the benchmark, around its own calls into zonosep; nothing under
src/ is instrumented.  The untimed layers of a span (its self time) are
its duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per traced run, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def durations_under(self, prefix: str) -> list[float]:
        return [s.duration for s in self.spans if s.name.startswith(prefix)]

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: dict[str, float] = {}
        for s in self.spans:
            covered = _covered(
                [(c.start, c.end) for c in children.get(s.id, [])], s.start, s.end
            )
            totals[s.name] = totals.get(s.name, 0.0) + s.duration - covered
        return totals

    def to_json(self) -> dict:
        base = self.spans[0].start if self.spans else 0.0
        spans = []
        for s in self.spans:
            row = asdict(s)
            row["start"] -= base
            row["end"] -= base
            spans.append(row)
        return {"spans": spans, "self_s": self.self_times()}


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    _noop = nullcontext()

    def span(self, name: str):
        return self._noop


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
