"""In-memory span recorder that times a program from the outside.

Spans are recorded by replacing public functions, at the name their
caller looks up, with wrappers; nothing inside the program is edited.
Every replaced name is put back by `restore`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None,
                 start: float) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class SpanRecorder:
    """Nested spans kept in memory; single-threaded callers only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def _replace(self, owner, attr: str, name: str, make) -> None:
        # a class attribute is read from __dict__ so that descriptors are
        # restored exactly as they were
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.skipped.append(name)
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Record a span around every call of owner.attr.

        counts(result) may return a dict of counts stored on the span.
        A missing attribute is noted in `skipped`, not an error, so the
        benchmark keeps running when a later version drops a function.
        """
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name) as sp:
                    result = fn(*args, **kwargs)
                if counts is not None:
                    sp.attrs.update(counts(result))
                return result
            return wrapper
        self._replace(owner, attr, name, make)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Record one span per item pulled from the generator owner.attr,
        so the time spent producing items is apart from the consumer's."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return wrapper
        self._replace(owner, attr, name, make)

    def restore(self) -> None:
        """Put back every replaced name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def descendants(self, span: Span) -> list[Span]:
        ids = {span.id}
        out = []
        for s in self.spans[span.id + 1:]:
            if s.parent in ids:
                ids.add(s.id)
                out.append(s)
        return out

    def covered(self, span: Span) -> float:
        """Seconds of span's interval that its child spans cover."""
        total = 0.0
        reach = span.start
        for c in sorted(self.children(span), key=lambda s: s.start):
            lo = max(c.start, reach, span.start)
            hi = min(c.end, span.end)
            if hi > lo:
                total += hi - lo
                reach = hi
        return total

    def self_seconds(self, span: Span) -> float:
        return span.seconds - self.covered(span)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"skipped": self.skipped,
                       "spans": [s.to_dict() for s in self.spans]}, fh)
