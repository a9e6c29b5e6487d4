"""In-memory span tracer with self-time arithmetic and reversible patching.

A span records a name, start and end (``time.perf_counter`` seconds), the
id of the span that was open when it began, and the run id shared by all
spans of one traced process. Hot paths that would produce hundreds of
thousands of spans (the log-density gradient) are aggregated into
counters instead: a call count and the summed seconds.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
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
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def count(self, name: str, n: int = 1, seconds: float = 0.0) -> None:
        self.counts[name] = self.counts.get(name, 0) + n
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def as_dict(self) -> dict:
        return {
            "spans": [
                [s.id, s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans
            ],
            "counts": self.counts,
            "seconds": self.seconds,
        }


def spans_from_dict(data: dict) -> list[Span]:
    return [Span(*row) for row in data["spans"]]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _key(s: Span) -> tuple[str, int]:
    return (s.run_id, s.id)


def _parent(s: Span) -> tuple[str, int] | None:
    return None if s.parent is None else (s.run_id, s.parent)


def self_times(spans: list[Span]) -> dict[tuple[str, int], float]:
    """Self time of every span, keyed by (run id, span id): its duration
    minus the part of its interval that its direct children cover."""
    by_key = {_key(s): s for s in spans}
    children: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_key.get(_parent(s))
        if parent is not None:
            children.setdefault(_key(parent), []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {_key(s): s.duration - _covered(children.get(_key(s), [])) for s in spans}


def inclusive_seconds(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called ``name`` that have no ancestor
    of the same name, so recursion is not counted twice."""
    by_key = {_key(s): s for s in spans}

    def nested(s: Span) -> bool:
        parent = by_key.get(_parent(s))
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_key.get(_parent(parent))
        return False

    return sum(s.duration for s in spans if s.name == name and not nested(s))


def span_wrapper(tracer: Tracer, fn: Callable, name: str | Callable) -> Callable:
    """``fn`` inside a span. ``name`` may be a function of the call's
    arguments, for spans named after an argument value."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with tracer.span(label):
            return fn(*args, **kwargs)

    return wrapper


def count_wrapper(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """``fn`` with a call counter and summed seconds instead of spans."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(name, 1, time.perf_counter() - start)

    return counted


class Patches:
    """Replaces module attributes and puts every original back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
