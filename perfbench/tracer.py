"""Spans around calls into voicequal's public functions, recorded from outside the package.

The tracer replaces a function's name in the module that looks it up (for
example ``voicequal.llf.frame_signal``) with a wrapper that records a span,
so a call made deep inside ``cli.main`` is timed without editing the package.
Spans stay in memory; self time and per-name totals are computed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; every span opened while ``trace_id`` is set shares it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        # (name, args, result) of wrapped calls marked for capture, consumed by
        # the caller after each operation so counting stays outside the spans
        self.captured: list[tuple] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self.trace_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def patch(self, module_name: str, attr: str, span_name: str,
              capture: bool = False) -> bool:
        """Wrap ``voicequal.<module_name>.<attr>``; returns False if it does not exist."""
        module = importlib.import_module(f"voicequal.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if capture:
                tracer.captured.append((span_name, args, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and total self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += self_s
        return out

    def root_coverage(self) -> float:
        """Summed self time of all spans over summed root durations (1.0 when nested)."""
        roots = sum(s.duration for s in self.spans if s.parent_id is None)
        return sum(self.self_times()) / roots if roots > 0 else 0.0
