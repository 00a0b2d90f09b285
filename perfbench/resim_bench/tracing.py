"""In-memory spans recorded around the benchmark's calls into ReSim.

A span has a name (the layer call it wraps), a start and end on the
``time.perf_counter`` clock, a parent span and a group id: every span
of one design point or one request shares the group id.  Spans stay
in a list until the run ends and :meth:`Tracer.write` stores them
once.  A disabled tracer records nothing, so the untraced run pays
one attribute test per call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    group: str | None


class Tracer:
    """Records spans when ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, group: str | None = None):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans) + len(self._stack) + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   group))

    def record(self, name: str, start: float, end: float,
               group: str | None = None) -> None:
        """Add a span measured elsewhere (e.g. between two progress
        events), parented to the innermost open span."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans) + len(self._stack) + 1
        self.spans.append(Span(span_id, name, start, end, parent, group))

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (count, self seconds).  Self time is a
        span's duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            count, seconds = totals.get(span.name, (0, 0.0))
            totals[span.name] = (count + 1,
                                 seconds + span.end - span.start - covered)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [span.__dict__ for span in self.spans], indent=0))
