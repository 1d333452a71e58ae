"""Span wrappers for the traced benchmark run.

The benchmark never edits the program: in a traced run it replaces a few
public functions and methods with timing wrappers, and only there.  Each
wrapped call is a span; spans nest per thread, and a span's *self* time
is its duration minus the time its child spans cover, so the self times
of one thread partition the time its spans cover.

``Tracer.wrap`` patches an attribute and remembers the original;
``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional, Union


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Per-name call counts, inclusive time and self time."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # ------------------------------------------------------------------ #
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1].name if stack else None

    def _close(self, name: str, duration: float, child_s: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            self.calls[name] += 1
            self.incl_s[name] += duration
            self.self_s[name] += duration - child_s

    def record(self, name: str, duration: float) -> None:
        """A span measured elsewhere, closed as a child of the current
        span (its time leaves the parent's self time)."""
        self._close(name, duration, 0.0)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def span(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        frame = _Frame(name)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self._close(name, duration, frame.child_s)

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str,
             name: Union[str, Callable[..., Optional[str]]]) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``name`` is a span name, or a function of the call's arguments
        returning one (``None`` calls straight through, no span).
        """
        target = getattr(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            label = namer(*args, **kwargs)
            if label is None:
                return target(*args, **kwargs)
            return self.span(label, target, *args, **kwargs)

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (a class or module attribute, possibly
        inherited) and remember how to undo it."""
        self._patched.append((owner, attr, vars(owner).get(attr),
                              attr in vars(owner)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`replace` and :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self) -> dict:
        with self._lock:
            return {"calls": dict(self.calls), "incl_s": dict(self.incl_s),
                    "self_s": dict(self.self_s), "counts": dict(self.counts)}
