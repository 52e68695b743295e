"""In-memory span recorder and span arithmetic for the traced runs.

A span is one call into a layer's public function: name, start, end (both
``time.perf_counter`` seconds), the index of its parent span on the same
thread (-1 for none), the thread id, a request id when the call serves one,
and result attributes (counts such as bytes salvaged or epochs run).
Instants (``start == end``) carry per-call data that has no duration, such
as queue waits measured when a batch is dispatched.

Spans stay in memory and are written once, at process exit, so the traced
program does no extra I/O while it runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

#: column order of one serialized span
FIELDS = ("name", "start", "end", "parent", "thread", "req", "attrs")


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, req: str | None = None) -> int:
        stack = self._stack()
        entry = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                 threading.get_ident(), req, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(entry)
        stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        entry = self.spans[index]
        entry[2] = time.perf_counter()
        entry[6] = attrs
        self._stack().pop()

    def instant(self, name: str, attrs: dict) -> None:
        now = time.perf_counter()
        stack = self._stack()
        with self._lock:
            self.spans.append(
                [name, now, now, stack[-1] if stack else -1, threading.get_ident(), None, attrs]
            )

    def wrap(self, name: str, fn, *, attrs=None, req=None):
        """``fn`` wrapped so each call records a span.

        ``attrs(args, kwargs, result)`` returns the span's attributes and
        ``req(args, kwargs)`` its request id; both are optional.  Exceptions
        propagate unchanged and close the span with ``{"error": True}``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name, req(args, kwargs) if req else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.end(index, {"error": True})
                raise
            recorder.end(index, attrs(args, kwargs, result) if attrs else None)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def patch(recorder: SpanRecorder, owner, attr: str, name: str, **kw) -> None:
    """Replace ``owner.attr`` (a module global or a class method) by its
    wrapped form.  Patching the name the caller looks up is what makes the
    wrapper see the call; coroutine functions are not supported here."""
    fn = getattr(owner, attr)
    if inspect.iscoroutinefunction(fn):
        raise TypeError(f"{owner!r}.{attr} is a coroutine function")
    setattr(owner, attr, recorder.wrap(name, fn, **kw))


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------


def load(path) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return [dict(zip(doc["fields"], row)) for row in doc["spans"]]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def children(spans: list[dict]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            kids.setdefault(span["parent"], []).append(index)
    return kids


def self_time(spans: list[dict], index: int, kids: dict[int, list[int]] | None = None) -> float:
    """A span's duration minus the part of it its direct children cover."""
    kids = children(spans) if kids is None else kids
    span = spans[index]
    inner = [(spans[k]["start"], spans[k]["end"]) for k in kids.get(index, ())]
    return duration(span) - covered(inner, span["start"], span["end"])


def has_descendant(spans, index: int, name: str, kids) -> bool:
    pending = list(kids.get(index, ()))
    while pending:
        k = pending.pop()
        if spans[k]["name"] == name:
            return True
        pending.extend(kids.get(k, ()))
    return False
