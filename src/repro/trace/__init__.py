"""Structured runtime observability (tracing) for every engine.

``repro.trace`` defines the shared per-superstep event vocabulary
(:mod:`repro.trace.recorder`) and its exporters
(:mod:`repro.trace.export`).  Pass a :class:`TraceRecorder` to any
engine (or configure one for the run) to capture typed events — superstep
spans, mode choices, RR skips and catch-up debts, EC transitions,
migrations, per-node op counts, messages/bytes — with wall-clock and
modeled-cost timings.  The default :class:`NullRecorder` keeps the hot
path at one branch when tracing is off.
"""

from repro.trace.export import (
    attach_modeled,
    dumps_jsonl,
    fault_summary,
    loads_jsonl,
    read_jsonl,
    render_profile,
    superstep_csv,
    write_jsonl,
)
from repro.trace.recorder import (
    NULL_RECORDER,
    VOCABULARY,
    NullRecorder,
    Recorder,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "TraceEvent",
    "Recorder",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "VOCABULARY",
    "write_jsonl",
    "dumps_jsonl",
    "loads_jsonl",
    "read_jsonl",
    "superstep_csv",
    "render_profile",
    "attach_modeled",
    "fault_summary",
]
