"""Spans recorded around calls into a program's functions, from outside it.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call (name, start, end, and the span that caused it) and restores
the originals when its ``installed`` block ends. Self time is a span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reached = lo  # everything in [lo, reached] is already counted
    for a, b in sorted(intervals):
        a, b = max(a, reached), min(b, hi)
        if b > a:
            total += b - a
            reached = b
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children may run on other threads and overlap each other; the union
    counts each covered instant once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
        for s in spans
    }


# Called after the wrapped function returns, outside its span, with
# (tracer, args, kwargs, result); used for counters and output checks.
AfterHook = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Binding:
    """Attribute ``attr`` of module ``module`` is traced as span ``name``."""

    module: str
    attr: str
    name: str
    after: AfterHook | None = None


class Tracer:
    """In-memory span and counter store for one traced run.

    A span that starts on a worker thread with nothing open on that thread
    takes as parent the innermost span open on the thread that installed
    the tracer, which is the caller that handed the work to the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.problems: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack: list[int] = []
        self._home_ident: int | None = None

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home_ident:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def problem(self, message: str) -> None:
        with self._lock:
            self.problems.append(message)

    def wrap(self, name: str, fn: Callable, after: AfterHook | None = None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock
                self.spans.append(Span(span_id, parent, name, start, end))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, bindings: Iterable[Binding]):
        """Patch every binding for the duration of the block, then restore
        the original attributes, also when the block raises."""
        saved = []
        self._home_ident = threading.get_ident()
        try:
            for b in bindings:
                module = importlib.import_module(b.module)
                original = getattr(module, b.attr)
                saved.append((module, b.attr, original))
                setattr(module, b.attr, self.wrap(b.name, original, b.after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._home_ident = None

    def self_by_name(self) -> dict[str, float]:
        selfs = self_times(self.spans)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += selfs[s.id]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]
