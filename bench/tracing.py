"""In-memory spans around the program's layer boundaries.

A traced run wraps the package's public functions and methods from here, so
the program itself carries no timers. Each span records its name, start,
end, parent span and the instance it worked on; spans stay in memory and are
written out once, when the run ends. A span's self time is its duration
minus the part covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, instance: str | None = None):
        return _SpanContext(self, name, instance)

    def _open(self, name, instance):
        parent = self._stack[-1] if self._stack else None
        if instance is None and parent is not None:
            instance = self.spans[parent].instance
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, instance))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def wrap(self, owner, attr: str, name, instance_of=None, before=None):
        """Replace owner.attr by a wrapper that records a span per call.

        `name` is a span name or a function of the call's arguments that
        returns one; `instance_of` maps the arguments to an instance id;
        `before` runs ahead of the span, for counting. `restore` undoes it.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            label = name(*args) if callable(name) else name
            inst = instance_of(*args) if instance_of is not None else None
            tracer._open(label, inst)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close()

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child[i]
        return out

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str, under: str | None = None) -> int:
        return sum(1 for i, s in enumerate(self.spans)
                   if s.name == name and (under is None or self.has_ancestor(i, under)))

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "instance": s.instance,
                                     "start_us": round((s.start - t0) * 1e6, 1),
                                     "end_us": round((s.end - t0) * 1e6, 1)}) + "\n")


class _SpanContext:
    def __init__(self, tracer, name, instance):
        self.tracer, self.name, self.instance = tracer, name, instance

    def __enter__(self):
        self.tracer._open(self.name, self.instance)

    def __exit__(self, *exc):
        self.tracer._close()
        return False
