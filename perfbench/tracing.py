"""Host-time spans recorded from outside the simulator.

The traced benchmark run replaces public callables of ``repro`` — at the
names the program looks them up at call time — with thin wrappers that
record one :class:`Span` per call, then puts every original back.  No
file of the program changes: a span is the host time of one call into a
layer, and its counts are read from what the call returned (``Stats``,
campaign results, emulation results).

Spans stay in memory until the run ends.  A layer's *self* time is its
span's duration minus the part of that interval its child spans cover,
so nested layers (a ``Pipeline.run`` around its cache warm-up pass, an
interval run around its warm-state rebuild) are never counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One call into a layer."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    #: ``setup`` or ``pass-<n>``: which phase of the run the span is in.
    group: str = ""
    #: Operation the span belongs to (a figure cell, a campaign, ...).
    op: str = ""
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (single-threaded, in-process runs only)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.group = ""
        self.op = ""
        self._stack: List[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(),
                    group=self.group, op=self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the union — not the sum — is subtracted.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


#: ``on_exit(args, kwargs, result) -> counts`` attached to a span.
CountFn = Callable[[tuple, dict, Any], Dict[str, Any]]


def _wrap(tracer: Tracer, name: str, fn: Callable,
          on_exit: Optional[CountFn]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_exit is not None:
            span.counts = on_exit(args, kwargs, result)
        return result

    return wrapper


#: One wrapped name: (owner module or class, attribute, span name, counts).
Target = Tuple[Any, str, str, Optional[CountFn]]


class Instrumentation:
    """Install span wrappers around ``targets``; restore them on exit.

    Used as a context manager.  Each original is taken from the owner's
    own ``__dict__``, so restoring puts back the very object that was
    there, and a failure inside the block still restores everything.
    """

    def __init__(self, tracer: Tracer, targets: Iterable[Target]) -> None:
        self.tracer = tracer
        self.targets = list(targets)
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for owner, attr, name, on_exit in self.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.tracer, name, original,
                                           on_exit))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
