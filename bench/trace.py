"""Span recorder for the benchmark's traced pass.

The program under test carries no instrumentation yet, so the traced pass
wraps, from the outside, the public callables of the objects the benchmark
constructed — :meth:`Tracer.wrap` replaces ``owner.attr`` with a function
that records one :class:`Span` per call: the layer name, start and end on
the monotonic clock, the index of the span that was open when the call was
made (its parent) and the id of the unit of work the harness was feeding
(one chunk, churn round or window).  Spans stay in memory; the runner
writes them out as JSON lines when the benchmark ends.

*Self time* of a span is its duration minus the durations of its direct
children.  The harness opens a root span around each timed section
(:meth:`Tracer.span`); whatever part of a root span is covered by no wrapped
call — the harness's own loop, or a program call nobody wrapped — is the
*unattributed* time.

This module is imported only when a traced pass is requested; the passes
that produce end-to-end numbers never load it.
"""

from __future__ import annotations

import gc
import inspect
import json
import time
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator, List, Optional

__all__ = ["Span", "Tracer"]

_MISSING = object()


class Span:
    """One recorded call (or harness section)."""

    __slots__ = ("name", "start", "end", "parent", "group", "mark")

    def __init__(self, name: str, parent: int, group: object) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        #: Index (into :attr:`Tracer.spans`) of the enclosing span, -1 for a root.
        self.parent = parent
        #: The unit of work the harness was feeding when the call was made.
        self.group = group
        #: Whatever the wrap's ``mark`` callable derived from the return value.
        self.mark = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables, records spans, restores the originals afterwards."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        #: Set by the harness before each unit of work (chunk / round / window).
        self.group: object = None
        #: ``(start, end, generation)`` of every collection seen while watching.
        self.gc_pauses: List[tuple] = []
        self._clock = clock
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self._gc_started = 0.0
        self._watching_gc = False

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.group)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a harness-level section (a root span when nothing is open)."""
        span = self._open(name)
        span.start = self._clock()
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    def _traced(self, function: Callable, name: str, mark: Optional[Callable]):
        clock = self._clock
        open_span = self._open
        stack = self._stack

        @wraps(function)
        def wrapper(*args, **kwargs):
            span = open_span(name)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if mark is not None:
                span.mark = mark(result)
            return result

        return wrapper

    def wrap(
        self, owner: object, attr: str, name: str, mark: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper named ``name``.

        ``owner`` may be an instance (the bound method is wrapped on the
        instance), a class (plain, class and static methods are rewrapped as
        what they were) or a module.  ``mark(result)`` — optional — derives a
        value from the call's return value and stores it on the span (a row
        count, a rule count), so ratios are taken where the work happens.
        """
        try:
            static = inspect.getattr_static(owner, attr)
        except AttributeError:
            raise AttributeError(f"{owner!r} has no attribute {attr!r}") from None
        if inspect.isclass(owner):
            if isinstance(static, classmethod):
                replacement = classmethod(self._traced(static.__func__, name, mark))
            elif isinstance(static, staticmethod):
                replacement = staticmethod(self._traced(static.__func__, name, mark))
            else:
                replacement = self._traced(static, name, mark)
        else:
            replacement = self._traced(getattr(owner, attr), name, mark)
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, previous))

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self._clock()
        else:
            self.gc_pauses.append((self._gc_started, self._clock(), info["generation"]))

    def watch_gc(self) -> None:
        """Start recording collector pauses (``gc.callbacks``)."""
        if not self._watching_gc:
            gc.callbacks.append(self._on_gc)
            self._watching_gc = True

    def unwatch_gc(self) -> None:
        if self._watching_gc:
            gc.callbacks.remove(self._on_gc)
            self._watching_gc = False

    def close(self) -> None:
        """Remove every wrapper and the collector hook."""
        self.unwrap_all()
        self.unwatch_gc()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, parallel to :attr:`spans`."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the number written.

        Fields: ``id`` (index), ``name``, ``start`` / ``end`` (seconds on the
        monotonic clock), ``parent`` (id or -1), ``group``, ``self`` (self
        time in seconds) and ``mark`` when the wrap recorded one.
        """
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "group": span.group,
                    "self": own[index],
                }
                if span.mark is not None:
                    record["mark"] = span.mark
                handle.write(json.dumps(record, default=str) + "\n")
        return len(self.spans)
