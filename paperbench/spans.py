"""Span tracing from outside the program.

A :class:`Tracer` wraps public functions of the program's layers
(:meth:`Tracer.patch`) so that every call becomes a named span on a
per-thread stack.  Each finished span adds its duration and its *self
time* (duration minus the time its child spans cover) to a per-name
total.  Garbage-collector pauses, seen through ``gc.callbacks``, are
charged as a ``gc`` child of the innermost open span of the thread the
collection ran on, so a layer's self time never includes them.
Pauses are counted only while :attr:`Tracer.active` is true, so work
outside the timed region (such as checking results) adds nothing.

Nothing here imports the program: the tracer only replaces attributes
on objects it is handed and puts them back on :meth:`Tracer.close`.
"""

from __future__ import annotations

import gc
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

GC_SPAN = "gc"


class Tracer:
    """Spans timed by ``clock``: wall time by default; a multi-threaded
    process passes ``time.thread_time`` so that a span waiting for the
    interpreter lock is not charged for another thread's work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        # Reentrant: a collection can start (and report its pause) while
        # this thread holds the lock.
        self._lock = threading.RLock()
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None
        self.active = True
        gc.callbacks.append(self._on_gc)

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, duration: float, self_time: float) -> None:
        with self._lock:
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = [name, 0.0]  # name, seconds covered by children
        stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self._add(name, duration, duration - frame[1])

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock() if self.active else None
            return
        if self._gc_start is None:
            return
        pause = self.clock() - self._gc_start
        self._gc_start = None
        stack = self._stack()
        if stack:
            stack[-1][1] += pause
        self._add(GC_SPAN, pause, pause)
        self.count("gc.collections")

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, make=None) -> None:
        """Replace ``owner.attr`` by a wrapper timing each call as span
        ``name``.  ``make(original, tracer, name)`` builds a custom
        wrapper instead (for generators and pre-work); class-, static-
        and plain methods are all re-wrapped in their own kind."""
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        func = raw.__func__ if kind else raw
        if make is not None:
            wrapper = make(func, self, name)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return func(*args, **kwargs)
        wrapper.__wrapped__ = func
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def close(self) -> None:
        """Undo every patch and detach the GC hook."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results -------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def snapshot(self) -> dict:
        """JSON-safe totals (what a traced server writes at exit)."""
        with self._lock:
            return {
                "spans": {name: list(entry)
                          for name, entry in self.totals.items()},
                "counts": dict(self.counts),
            }

    def merge(self, snapshot: dict) -> None:
        with self._lock:
            for name, (calls, total, own) in snapshot["spans"].items():
                entry = self.totals[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            self.counts.update(snapshot["counts"])
