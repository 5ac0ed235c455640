"""Spans recorded from outside the program, by wrapping module attributes.

A ``Tracer`` replaces functions such as ``trendgraph.encoders.sage_encode``
with a wrapper that records one span per call: name, start, end, the index
of the enclosing span and optional counts taken from the arguments and the
result.  The program looks these names up at call time, so its own calls go
through the wrappers too.  Spans stay in memory until the run writes them
out; ``remove`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; spans are kept in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Route calls of ``owner.attr`` through a span named ``name``.

        ``counts(args, kwargs, result)`` may return a tuple stored on the span.
        Class attributes keep their descriptor kind (plain or classmethod).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if isinstance(original, classmethod) else original

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                self.spans[index].counts = counts(args, kwargs, result)
            return result

        replacement = classmethod(traced) if isinstance(original, classmethod) else traced
        setattr(owner, attr, replacement)
        self._originals.append((owner, attr, original))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, name, counts)`` target for the block."""
        try:
            for owner, attr, name, counts in targets:
                self.wrap(owner, attr, name, counts)
            yield self
        finally:
            self.remove()

    def write(self, fh, phase: str) -> None:
        """One JSON array per span: phase, name, start, end, parent index, counts."""
        for s in self.spans:
            fh.write(json.dumps([phase, s.name, s.start, s.end, s.parent, s.counts]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent != NO_PARENT:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def roots_of(spans: list[Span]) -> list[int]:
    """Index of the outermost enclosing span for every span."""
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent != NO_PARENT:
            root[i] = root[s.parent]
    return root


def by_name(spans: list[Span], values: list[float] | None = None) -> dict[str, list[float]]:
    """Group durations (or the given per-span values) by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for i, s in enumerate(spans):
        out[s.name].append(s.duration if values is None else values[i])
    return out
