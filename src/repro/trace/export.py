"""Trace exporters: JSONL dump, per-superstep CSV, phase profile.

All of them read the shared event vocabulary of
:mod:`repro.trace.recorder`:

* :func:`write_jsonl` — one JSON object per event, in emission order
  (the raw trace the acceptance checks parse);
* :func:`superstep_csv` — one row per superstep with the counter
  summary (RFC 4180 via the :mod:`csv` module);
* :func:`phase_rows` — the one fold of phase time: every ``phase``
  event is linked to its parent by :func:`link_phases` (event order
  plus the event's own ``parent``/``depth`` fields, never timestamps)
  and folded into one calls/seconds/self-seconds row per
  ``(phase, parent)``.  :func:`render_profile`, ``repro report``'s
  "Phase self time" table and the span tree of :mod:`repro.obs.spans`
  all read these links, so they agree;
* :func:`render_profile` — those rows as a fixed-width table built on
  :class:`repro.bench.reporting.Table`;
* :func:`attach_modeled` — annotates ``superstep_end`` events with the
  cost model's per-superstep seconds, so traces carry wall-clock *and*
  modeled timings side by side.

Counter totals are not folded here: that is
:func:`repro.obs.metrics.populate_from_trace`'s job alone.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.recorder import (
    PHASE,
    PHASE_NAMES,
    SUPERSTEP_BEGIN,
    SUPERSTEP_END,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "write_jsonl",
    "dumps_jsonl",
    "loads_jsonl",
    "read_jsonl",
    "superstep_csv",
    "link_phases",
    "phase_rows",
    "render_profile",
    "attach_modeled",
    "SUPERSTEP_CSV_COLUMNS",
]

#: Column order of :func:`superstep_csv`.
SUPERSTEP_CSV_COLUMNS = [
    "superstep",
    "mode",
    "wall_seconds",
    "modeled_seconds",
    "edge_ops",
    "vertex_ops",
    "updates",
    "messages",
    "message_bytes",
    "active",
    "skipped",
    "io_bytes",
]


def dumps_jsonl(recorder: TraceRecorder) -> str:
    """The trace as JSON Lines text (one event per line)."""
    lines = [
        json.dumps(event.to_json_dict(), sort_keys=True)
        for event in recorder.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(recorder: TraceRecorder, path: str) -> str:
    """Write the JSONL trace to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_jsonl(recorder))
    return path


def loads_jsonl(text: str) -> TraceRecorder:
    """Rebuild a recorder from JSONL text (inverse of :func:`dumps_jsonl`).

    The returned recorder holds the events of the dumped trace — same
    names, superstep attribution, timestamps, and payloads — so every
    consumer of a live recorder (exporters, the span profiler, the
    metrics registry, ``repro report``) works identically on a trace
    loaded from disk.  It is a finished trace: appending to it is
    possible but timestamps would restart at the new clock's zero.

    Flight-recorder dumps (``repro.obs.live.FlightRecorder.dump``)
    interleave a ``{"flight": ...}`` header and ``{"telemetry": ...}``
    snapshot lines with the events; those are skipped — the header's
    ``wall_epoch`` is restored onto the recorder — so a flight dump
    replays through every trace consumer unchanged.
    """
    recorder = TraceRecorder(clock=lambda: 0.0)
    max_superstep = -1
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(
                "trace line %d is not valid JSON: %s" % (line_no, exc)
            )
        if isinstance(data, dict) and "event" not in data and (
            "flight" in data or "telemetry" in data
        ):
            header = data.get("flight")
            if isinstance(header, dict) and "wall_epoch" in header:
                recorder.wall_epoch = float(header["wall_epoch"])
            continue
        if not isinstance(data, dict) or "event" not in data:
            raise TraceError(
                "trace line %d is not a trace event object" % line_no
            )
        payload = dict(data)
        name = payload.pop("event")
        wall = float(payload.pop("t", 0.0))
        superstep = payload.pop("superstep", None)
        if superstep is not None:
            superstep = int(superstep)
            max_superstep = max(max_superstep, superstep)
        recorder.events.append(TraceEvent(name, superstep, wall, payload))
    recorder._next_superstep = max_superstep + 1
    return recorder


def read_jsonl(path: str) -> TraceRecorder:
    """Load a trace previously written with :func:`write_jsonl`."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_jsonl(handle.read())


def superstep_csv(recorder: TraceRecorder) -> str:
    """Per-superstep counter summary as an RFC 4180 CSV string."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SUPERSTEP_CSV_COLUMNS)
    for event in recorder.events_named(SUPERSTEP_END):
        payload = event.payload
        writer.writerow(
            [event.superstep]
            + [payload.get(col, "") for col in SUPERSTEP_CSV_COLUMNS[1:]]
        )
    return out.getvalue()


def attach_modeled(recorder: TraceRecorder, breakdown) -> None:
    """Annotate ``superstep_end`` events with modeled per-superstep cost.

    ``breakdown`` is a :class:`repro.cluster.costmodel.RuntimeBreakdown`
    for the same run.  When the trace contains several runs, the *last*
    ``len(breakdown.iterations)`` supersteps are annotated (each run
    annotates its own tail right after it finishes).
    """
    ends = recorder.events_named(SUPERSTEP_END)
    costs = list(breakdown.iterations)
    for event, cost in zip(ends[len(ends) - len(costs):], costs):
        event.payload["modeled_seconds"] = cost.total_seconds
        event.payload["modeled_compute_seconds"] = cost.compute_seconds
        event.payload["modeled_network_seconds"] = cost.network_seconds
        event.payload["modeled_io_seconds"] = cost.io_seconds
        # getattr: callers may pass duck-typed per-iteration costs that
        # predate the retry field.
        retry = getattr(cost, "retry_seconds", 0.0)
        if retry:
            event.payload["modeled_retry_seconds"] = retry


def link_phases(
    recorder: TraceRecorder,
) -> Iterator[Tuple[TraceEvent, List[TraceEvent]]]:
    """Yield each ``phase`` event with the phase events nested in it.

    A span emits its event when it closes, so its children's events
    come first: the children of a span at depth ``d`` are the events at
    depth ``d + 1`` that name it as ``parent`` and were emitted since
    the last event at depth ``d`` or less.  Links are read from the
    event order and the events' own ``parent``/``depth`` fields, never
    from timestamps, so a child that opens on its parent's clock tick
    still links.  Children come in emission order.
    """
    open_children: List[Tuple[int, TraceEvent]] = []
    for event in recorder.events:
        if event.name != PHASE:
            continue
        depth = int(event.payload.get("depth", 0))
        name = event.payload.get("name", "")
        children: List[TraceEvent] = []
        while open_children and open_children[-1][0] > depth:
            child_depth, child = open_children.pop()
            if child_depth == depth + 1 and (
                child.payload.get("parent") == name
            ):
                children.append(child)
        children.reverse()
        if depth > 0:
            open_children.append((depth, event))
        yield event, children


def phase_rows(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """Per-``(phase, parent)`` calls, seconds and self seconds of a trace.

    The one fold of phase time: a span's self time is its ``seconds``
    less its linked children's (:func:`link_phases`), so each nested
    second is counted once, in its own row.  Rows are ordered by self
    time, largest first; ``parent`` is ``None`` for top-level spans.
    """
    rows: Dict[tuple, Dict[str, Any]] = {}
    for event, children in link_phases(recorder):
        p = event.payload
        seconds = float(p.get("seconds", 0.0))
        nested = sum(float(c.payload.get("seconds", 0.0)) for c in children)
        row = rows.setdefault(
            (p.get("name", ""), p.get("parent")),
            {"calls": 0, "seconds": 0.0, "self_seconds": 0.0},
        )
        row["calls"] += 1
        row["seconds"] += seconds
        row["self_seconds"] += max(0.0, seconds - nested)
    return [
        {"phase": name, "parent": parent, **row}
        for (name, parent), row in sorted(
            rows.items(), key=lambda item: -item[1]["self_seconds"]
        )
    ]


def render_profile(recorder: TraceRecorder, precision: int = 3) -> str:
    """Fixed-width self-time-by-phase summary of one trace.

    One row per :func:`phase_rows` row, named ``parent/child`` when
    nested, so the column sums to the covered wall time exactly once.
    The canonical four phases (gather/apply/scatter/sync) are always
    present, zero rows included, so profiles are comparable.
    ``(untimed)`` is superstep wall time not covered by any phase span
    (frontier bookkeeping, accounting).  An empty or still-open trace
    renders a valid all-zero table.
    """
    # Imported here: bench.reporting sits above the engines in the
    # import graph, while this module is imported by cluster.metrics.
    from repro.bench.reporting import Table

    rows = phase_rows(recorder)
    seen = {(row["phase"], row["parent"]) for row in rows}
    rows += [
        {"phase": name, "parent": None, "calls": 0, "self_seconds": 0.0}
        for name in PHASE_NAMES
        if (name, None) not in seen
    ]
    superstep_wall = sum(
        float(e.payload.get("wall_seconds", 0.0))
        for e in recorder.events_named(SUPERSTEP_END)
    )
    timed = sum(row["self_seconds"] for row in rows)
    untimed = max(0.0, superstep_wall - timed)
    total = superstep_wall if superstep_wall > 0 else timed

    table = Table(
        "Trace profile: %d supersteps, %.6f s wall"
        % (recorder.num_supersteps, superstep_wall),
        ["phase", "calls", "seconds", "share"],
    )
    for row in rows:
        table.add_row(
            row["phase"] if row["parent"] is None
            else "%s/%s" % (row["parent"], row["phase"]),
            row["calls"],
            row["self_seconds"],
            row["self_seconds"] / total if total > 0 else 0.0,
        )
    table.add_row(
        "(untimed)", None, untimed, untimed / total if total > 0 else 0.0
    )
    return table.render(precision)


def modes_by_superstep(recorder: TraceRecorder) -> List[Optional[str]]:
    """Mode chosen per superstep, in superstep order."""
    begins = sorted(
        recorder.events_named(SUPERSTEP_BEGIN), key=lambda e: e.superstep
    )
    return [e.payload.get("mode") for e in begins]
