"""In-memory spans taken around calls into a program's functions, from outside.

A `Tracer` records one span per call: its name, start, end, parent span and
the id of the root span it hangs under. Wrappers are installed by replacing
module attributes for the duration of a `with tracer.installed(points)` block
and are always removed on exit, so untraced code never pays for them.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    root: int  # index of the root span; shared by every span of one solve
    info: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TracePoint:
    """Wrap `module.attr` as span `name`; `annotate` maps the call's result to
    counters stored on the span."""

    module: Any
    attr: str
    name: str
    annotate: Callable[[Any], dict[str, float]] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = index if parent is None else self.spans[parent].root
        span = Span(name, perf_counter(), float("nan"), parent, root)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, point: TracePoint, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(point.name) as span:
                result = fn(*args, **kwargs)
            if point.annotate is not None:
                span.info.update(point.annotate(result))
            return result

        return traced

    @contextmanager
    def installed(self, points: tuple[TracePoint, ...]) -> Iterator[None]:
        originals = []
        try:
            for point in points:
                fn = getattr(point.module, point.attr)
                originals.append((point.module, point.attr, fn))
                setattr(point.module, point.attr, self.wrap(point, fn))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
