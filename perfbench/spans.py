"""In-memory spans around the benchmark's calls into the program.

A span records a name, start, end, its parent span and the question it
belongs to. A question is a root span; the public calls it makes are
its children. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    sid: int
    name: str
    question: int
    parent: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    """Records spans; the untraced run uses :class:`NullTracer` instead."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.question = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, self.question, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its children cover."""
        own = {s.sid: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_question(self) -> dict[int, dict[str, float]]:
        """Self time summed by span name, for each question."""
        own = self.self_times()
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            by_name = out.setdefault(s.question, {})
            by_name[s.name] = by_name.get(s.name, 0.0) + own[s.sid]
        return out

    def call_order(self) -> dict[int, list[str]]:
        """The names of each question's spans, in the order they started."""
        out: dict[int, list[str]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.question, []).append(s.name)
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s.sid, "name": s.name, "question": s.question, "parent": s.parent,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]


class NullTracer:
    """Same interface as :class:`Tracer`, records nothing."""

    enabled = False
    question = -1

    def span(self, name: str):
        return nullcontext()
