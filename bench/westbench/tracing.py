"""In-memory spans recorded around module bindings of the program.

A span has a name, a start, an end, the id of the span that caused it and
free-form attributes.  Spans are recorded by wrapping functions from the
outside (a module attribute or a class attribute is replaced by a timing
wrapper and restored afterwards), so the program's source is not touched.

Self time is a span's duration minus the part of its interval covered by
its children.  Children may overlap in time (spans of pool threads), so the
covered part is the length of the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "attrs": self.attrs}


class Tracer:
    """Records spans; `install` wraps bindings, `uninstall` restores them.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost span open on the main thread, which is
    the call that started the pool.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._main_stack[-1].id
            except IndexError:
                parent = None
        span = Span(id=next(self._ids), name=name, start=self.clock(), parent=parent,
                    thread=threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, fn, name, attrs=None):
        """Timing wrapper around fn.  `name` is a string or a function of
        (args, kwargs) giving one; `attrs(args, kwargs, result)` returns a
        dict stored on the span after a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                s.attrs["error"] = type(exc).__name__
                self._close(s)
                raise
            self._close(s)
            if attrs is not None:
                s.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self, probes) -> list[str]:
        """Wrap each (owner, attribute, name, attrs) probe; returns the
        probes whose attribute does not exist and were skipped."""
        missing = []
        for owner, attr, name, attrs in probes:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, attrs))
        return missing

    def uninstall(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def children_of(spans) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    kids = children_of(spans)
    return {s.id: s.duration - covered([(c.start, c.end) for c in kids.get(s.id, ())],
                                       s.start, s.end)
            for s in spans}
