"""Hierarchical span profiler: run -> superstep -> phase -> component.

``TraceRecorder`` stores phase spans flat, as ``phase`` events emitted
at span *exit* carrying the duration and (since the parent-link fix)
the name of the enclosing span.  This module rebuilds the tree:

* runs come from ``run_begin``/``run_end`` pairs;
* supersteps from ``superstep_begin``/``superstep_end`` pairs;
* phases nest by :func:`repro.trace.export.link_phases` — the event
  order plus each event's own ``parent``/``depth`` fields, never
  timestamps — the same links the profile and ``repro report`` fold.

Three exporters serialise the tree:

* :func:`to_chrome_trace` — Chrome trace-event JSON (``ph: "X"``
  complete events in microseconds), loadable in Perfetto and
  ``chrome://tracing``; point events (faults, checkpoints, rollbacks,
  recoveries, retries, migrations) become instant events;
* :func:`to_speedscope` — speedscope's evented-profile JSON;
* OpenMetrics text is the registry's job — see
  :func:`repro.obs.metrics.render_openmetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.trace import recorder as ev
from repro.trace.export import link_phases
from repro.trace.recorder import TraceRecorder

__all__ = [
    "Span",
    "build_span_tree",
    "iter_spans",
    "to_chrome_trace",
    "to_speedscope",
    "INSTANT_EVENTS",
]

#: Point-in-time events exported as Chrome instant events.
INSTANT_EVENTS = (
    ev.FAULT,
    ev.CHECKPOINT,
    ev.ROLLBACK,
    ev.RECOVERY,
    ev.RETRY,
    ev.MIGRATION,
    ev.GUIDANCE_REUSED,
)


@dataclass
class Span:
    """One node of the reconstructed profile tree."""

    name: str
    category: str  # "run" | "superstep" | "phase"
    start: float
    end: float
    superstep: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def _attach_pending(span: Span, pending: List[Span]) -> None:
    """Move all still-unclaimed phase spans under ``span``."""
    span.children.extend(sorted(pending, key=lambda s: s.start))
    del pending[:]


def build_span_tree(recorder: TraceRecorder) -> List[Span]:
    """Rebuild the run/superstep/phase hierarchy of one trace.

    Returns the roots in time order: one span per run for traces from
    :func:`run_workload` (several for ``bench`` traces), or the bare
    superstep spans when the trace has no run brackets.  Still-open
    runs/supersteps (a trace cut short) are closed at the last event's
    timestamp, so partial traces still profile.
    """
    roots: List[Span] = []
    current_run: Optional[Span] = None
    current_superstep: Optional[Span] = None
    pending: List[Span] = []  # completed phase spans awaiting a parent
    phase_spans: Dict[int, Span] = {}  # id(phase event) -> its span
    links = link_phases(recorder)
    last_t = 0.0

    def close_superstep(at: float) -> None:
        nonlocal current_superstep
        if current_superstep is None:
            return
        current_superstep.end = max(at, current_superstep.start)
        _attach_pending(current_superstep, pending)
        current_superstep = None

    def close_run(at: float) -> None:
        nonlocal current_run
        close_superstep(at)
        if current_run is None:
            return
        current_run.end = max(at, current_run.start)
        _attach_pending(current_run, pending)
        current_run = None

    def sink() -> List[Span]:
        if current_superstep is not None:
            return current_superstep.children
        if current_run is not None:
            return current_run.children
        return roots

    for event in recorder.events:
        t = event.wall_seconds
        last_t = max(last_t, t)
        p = event.payload
        if event.name == ev.RUN_BEGIN:
            close_run(t)
            label = " ".join(
                str(p[key]) for key in ("engine", "app", "graph") if key in p
            )
            current_run = Span(
                name=label or "run", category="run", start=t, end=t,
                args=dict(p),
            )
            roots.append(current_run)
        elif event.name == ev.RUN_END:
            if current_run is not None:
                current_run.args.update(p)
            close_run(t)
        elif event.name == ev.SUPERSTEP_BEGIN:
            close_superstep(t)
            index = event.superstep
            mode = p.get("mode", "")
            span = Span(
                name="superstep %s%s"
                % (index, " (%s)" % mode if mode else ""),
                category="superstep", start=t, end=t, superstep=index,
                args={"mode": mode},
            )
            sink().append(span)
            current_superstep = span
        elif event.name == ev.SUPERSTEP_END:
            if current_superstep is not None:
                current_superstep.args.update(
                    {
                        key: p[key]
                        for key in ("edge_ops", "messages", "active",
                                    "skipped", "modeled_seconds")
                        if key in p
                    }
                )
            close_superstep(t)
        elif event.name == ev.PHASE:
            seconds = float(p.get("seconds", 0.0))
            span = Span(
                name=str(p.get("name", "phase")), category="phase",
                start=t - seconds, end=t, superstep=event.superstep,
                args={"parent": p.get("parent")},
            )
            phase_spans[id(event)] = span
            # Children were recorded before this span closed; claim the
            # ones still pending that link_phases pairs with it.
            _event, children = next(links)
            claimed = {id(phase_spans[id(child)]) for child in children}
            if claimed:
                span.children = sorted(
                    (s for s in pending if id(s) in claimed),
                    key=lambda s: s.start,
                )
                pending[:] = [s for s in pending if id(s) not in claimed]
            pending.append(span)

    close_run(last_t)
    if pending:
        # Phase spans outside any superstep/run bracket (e.g. a trace
        # of bare engine internals): group them under a synthetic root
        # so exporters still see one tree.
        root = Span(name="trace", category="run", start=0.0, end=last_t)
        _attach_pending(root, pending)
        roots.append(root)
    return roots


def iter_spans(roots: List[Span]):
    """Depth-first iteration over ``(span, depth)`` pairs."""
    stack = [(root, 0) for root in reversed(roots)]
    while stack:
        span, depth = stack.pop()
        yield span, depth
        for child in reversed(span.children):
            stack.append((child, depth + 1))


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_chrome_trace(recorder: TraceRecorder) -> Dict[str, Any]:
    """The trace as a Chrome trace-event JSON object.

    Loadable in Perfetto / ``chrome://tracing``: span durations become
    complete events (``ph: "X"``) on one track, fault-tolerance events
    become thread-scoped instant events (``ph: "i"``).
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": 1, "tid": 1,
            "args": {"name": "repro"},
        },
        {
            "ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
            "args": {"name": "supersteps"},
        },
    ]
    for span, _depth in iter_spans(build_span_tree(recorder)):
        args = {
            key: value
            for key, value in span.args.items()
            if isinstance(value, (int, float, str, bool)) and key != "parent"
        }
        if span.superstep is not None:
            args.setdefault("superstep", span.superstep)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    for event in recorder.events:
        if event.name in INSTANT_EVENTS:
            args = {
                key: value
                for key, value in event.payload.items()
                if isinstance(value, (int, float, str, bool))
            }
            events.append(
                {
                    "name": event.name,
                    "cat": "fault-tolerance",
                    "ph": "i",
                    "ts": _us(event.wall_seconds),
                    "s": "t",
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# speedscope JSON
# ----------------------------------------------------------------------
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def to_speedscope(
    recorder: TraceRecorder, name: str = "repro trace"
) -> Dict[str, Any]:
    """The trace as a speedscope evented profile.

    Open/close events visit the span tree depth-first; child intervals
    are clamped inside their parent's so the ``at`` sequence is
    non-decreasing and strictly LIFO, which is what speedscope's
    evented-profile loader validates.
    """
    roots = sorted(build_span_tree(recorder), key=lambda s: s.start)
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []

    def frame(span_name: str) -> int:
        if span_name not in frame_index:
            frame_index[span_name] = len(frames)
            frames.append({"name": span_name})
        return frame_index[span_name]

    def walk(span: Span, lo: float, hi: float) -> None:
        start = min(max(span.start, lo), hi)
        end = min(max(span.end, start), hi)
        index = frame(span.name)
        events.append({"type": "O", "frame": index, "at": start})
        at = start
        for child in sorted(span.children, key=lambda s: s.start):
            walk(child, at, end)
            at = events[-1]["at"]
        events.append({"type": "C", "frame": index, "at": end})

    start_value = roots[0].start if roots else 0.0
    end_value = max((root.end for root in roots), default=0.0)
    at = start_value
    for root in roots:
        walk(root, at, max(end_value, at))
        at = events[-1]["at"]
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": start_value,
                "endValue": max(end_value, start_value),
                "events": events,
            }
        ],
    }
