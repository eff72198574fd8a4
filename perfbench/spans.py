"""Timing spans recorded from outside the program.

:func:`instrument` replaces a list of public callables (class methods
and module-level functions) with timing wrappers for the duration of a
``with`` block and puts the originals back on exit.  Each call becomes
a :class:`Span`; its parent is the innermost span still open *on the
same thread*, so a span's **self time** — its duration minus its
children's — is time the thread spent in that callable and in nothing
else that is wrapped.  The self times of one thread's spans therefore
tile that thread's root span exactly.  Work on another thread (the
out-of-core read-ahead) starts its own tree: it is busy time for its
layer but never subtracts from the thread that was not blocked on it.

Spans are held in memory; :func:`dump_jsonl` writes them after the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "Span",
    "SpanLog",
    "Target",
    "instrument",
    "self_ns",
    "dump_jsonl",
]

#: ``count(args, result) -> {counter: number}`` read at a span's close.
CountHook = Callable[[tuple, object], Dict[str, float]]


class Span:
    """One timed call: ``(name, metric, start, end, parent, thread, job)``.

    ``metric`` is the per-layer metric the span's self time is booked
    to (its prefix names the layer); ``job`` tags which step of the
    child protocol the span belongs to.
    """

    __slots__ = (
        "name", "metric", "start_ns", "end_ns", "parent", "thread", "job",
        "counts",
    )

    def __init__(
        self,
        name: str,
        metric: str,
        start_ns: int = 0,
        end_ns: int = 0,
        parent: Optional["Span"] = None,
        thread: int = 0,
        job: str = "",
    ) -> None:
        self.name = name
        self.metric = metric
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.parent = parent
        self.thread = thread
        self.job = job
        self.counts: Optional[Dict[str, float]] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanLog:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        #: closed and open spans in start order per thread
        #: (``list.append`` is atomic, so threads share the list)
        self.spans: List[Span] = []
        #: tag stamped on spans opened from now on
        self.job = ""
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, metric: str) -> Span:
        """Start a span under the innermost one open on this thread."""
        stack = self._stack()
        span = Span(
            name, metric, parent=stack[-1] if stack else None,
            thread=threading.get_ident(), job=self.job,
        )
        self.spans.append(span)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, metric: str) -> Iterator[Span]:
        """Open a span by hand (the root around a whole job)."""
        span = self.open(name, metric)
        try:
            yield span
        finally:
            self.close(span)


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr``, booked to ``metric``.

    ``owner`` is the class or module whose namespace *defines* the
    attribute (an inherited method is wrapped on its base class; a
    ``from x import f`` alias is wrapped in the importing module).
    """

    owner: object
    attr: str
    metric: str
    count: Optional[CountHook] = None

    @property
    def name(self) -> str:
        owner = self.owner
        module = getattr(owner, "__module__", None)
        prefix = (
            "%s.%s" % (module, owner.__qualname__) if module
            else owner.__name__
        )
        return "%s.%s" % (prefix, self.attr)


def _timed(fn: Callable, target: Target, log: SpanLog) -> Callable:
    name, metric, count = target.name, target.metric, target.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = log.open(name, metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(span)
        if count is not None:
            span.counts = count(args, result)
        return result

    return wrapper


@contextmanager
def instrument(log: SpanLog, targets: Iterable[Target]) -> Iterator[SpanLog]:
    """Wrap ``targets`` for the block; every original is restored on exit."""
    originals = []
    try:
        for target in targets:
            raw = vars(target.owner)[target.attr]
            originals.append((target.owner, target.attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                timed = type(raw)(_timed(raw.__func__, target, log))
            else:
                timed = _timed(raw, target, log)
            setattr(target.owner, target.attr, timed)
        yield log
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)


def self_ns(spans: Iterable[Span]) -> Dict[Span, int]:
    """Self time of every span: duration minus its children's durations.

    Children are by construction on the parent's thread and nested in
    its interval, so no clipping is needed.
    """
    spans = list(spans)
    out = {span: span.duration_ns for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in out:
            out[span.parent] -= span.duration_ns
    return out


def dump_jsonl(spans: Iterable[Span], path: str) -> None:
    """One JSON object per span; ``parent_id`` indexes into the file."""
    spans = list(spans)
    ids = {span: index for index, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            record = {
                "id": ids[span],
                "name": span.name,
                "layer": span.metric.rsplit(".", 1)[0],
                "metric": span.metric,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "parent_id": ids.get(span.parent),
                "thread_id": span.thread,
                "job_id": span.job,
            }
            if span.counts:
                record["counts"] = span.counts
            handle.write(json.dumps(record) + "\n")
