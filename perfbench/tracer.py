"""Spans around fdlb's public functions, recorded in memory.

The traced run replaces a function at the place it is looked up (a module
global or a class attribute) with a wrapper that records one span per call:
name, start, end, parent span and request id.  :meth:`Tracer.uninstall`
puts the originals back, so untraced requests run the unchanged program.
The source of fdlb is never edited.

A span's self time is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap and the self times of one request sum to the duration of its root
span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int | None  # index of the parent span in Tracer.spans
    request: int
    start: float = 0.0
    end: float = 0.0
    args: tuple = ()
    result: object = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, parent, tracer.request, args=args)
            tracer.spans.append(span)
            if parent is not None:
                tracer.spans[parent].children.append(index)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            return span.result

        return traced

    def install(self, sites: list[tuple[object, str, str]]) -> None:
        """Wrap ``owner.attr`` as span ``name`` for each (owner, attr, name).

        A site the program no longer has is skipped and listed in
        ``missing``, so a refactor that moves a function shows up in the
        report instead of stopping the benchmark.
        """
        for owner, attr, name in sites:
            original = getattr(owner, attr, None)
            if original is None:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


def self_time(spans: list[Span], span: Span) -> float:
    """The span's duration minus what its direct children cover."""
    return span.duration - sum(spans[c].duration for c in span.children)
