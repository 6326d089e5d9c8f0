"""In-memory spans around the benchmark's calls into each rwap module.

A span records its name, start, end, parent span and operation id.  Spans
are kept in a list and written out only when the run ends.  The disabled
tracer hands out one shared no-op context, so the timed runs go through the
same code with next to no cost.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, float]] = []  # (op, name, value)
        self._stack: list[int] = []
        self._next_id = 0
        self._op = 0
        self._noop = contextlib.nullcontext()

    def begin_op(self, op: int) -> None:
        """Tag the spans and counts that follow with operation id ``op``."""
        self._op = op

    def span(self, name: str):
        if not self.enabled:
            return self._noop
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self._op))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self._op, name, float(value)))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.span_id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_op_self(self) -> dict[str, list[float]]:
        """Layer name -> its summed self time in each operation it ran in."""
        own = self.self_times()
        totals: dict[tuple[str, int], float] = {}
        for s in self.spans:
            key = (s.name, s.op)
            totals[key] = totals.get(key, 0.0) + own[s.span_id]
        out: dict[str, list[float]] = {}
        for (name, _), value in sorted(totals.items()):
            out.setdefault(name, []).append(value)
        return out

    def per_op_counts(self, name: str) -> list[float]:
        """Count name -> its sum in each operation that recorded it."""
        totals: dict[int, float] = {}
        for op, n, value in self.counts:
            if n == name:
                totals[op] = totals.get(op, 0.0) + value
        return [totals[op] for op in sorted(totals)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"op": op, "count": name, "value": value}) + "\n")
