"""Structured per-superstep tracing: the shared event vocabulary.

Every engine in the repository reports its execution through the same
small set of typed events, so traces from SLFE, the baselines, the
scalar runtime and the cluster simulation are directly comparable —
the property Ammar & Özsu's cross-engine study identifies as the
precondition for trustworthy comparisons.

Two recorders implement the interface:

* :class:`TraceRecorder` — stores :class:`TraceEvent` objects with
  wall-clock timestamps and validates superstep nesting;
* :class:`NullRecorder` — the default everywhere; every method is a
  no-op, so with tracing off the hot path pays one attribute check
  (``recorder.enabled``) per counter call and nothing per edge.

Counters (edge ops, messages, updates…) are forwarded into the stream
by :class:`repro.cluster.metrics.MetricsCollector`, which is thereby
one consumer of the same vocabulary the exporters read; engines emit
the execution-structure events (mode choice, RR skips, catch-up debts,
EC transitions, migrations, phase spans) directly.

The run configuration's recorder (``repro.runconfig.configured(
recorder=...)``) traces code that does not thread a recorder through
explicitly (``python -m repro bench --trace-out``):
:func:`repro.bench.runner.run_workload` picks it up when no recorder
is passed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import TraceError

__all__ = [
    "TraceEvent",
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "NULL_RECORDER",
    "VOCABULARY",
    "SUPERSTEP_BEGIN",
    "SUPERSTEP_END",
    "RUN_BEGIN",
    "RUN_END",
    "EDGE_OPS",
    "VERTEX_OPS",
    "UPDATES",
    "MESSAGES",
    "IO",
    "FRONTIER",
    "RR_SKIP",
    "CATCH_UP",
    "EC_TRANSITION",
    "MIGRATION",
    "WORKSTEAL",
    "PHASE",
    "PREPROCESSING",
    "FAULT",
    "CHECKPOINT",
    "ROLLBACK",
    "RECOVERY",
    "RETRY",
    "GUIDANCE_REUSED",
    "CACHE",
    "PARALLEL_WORKER",
    "PARALLEL_DISPATCH",
    "PARALLEL_RECOVERY",
    "PARALLEL_STALL",
    "ASYNC_ROUND",
    "SHARD_IO",
]

# ----------------------------------------------------------------------
# event vocabulary (names shared by every engine)
# ----------------------------------------------------------------------
SUPERSTEP_BEGIN = "superstep_begin"  # mode
SUPERSTEP_END = "superstep_end"      # wall_seconds + counter summary
RUN_BEGIN = "run_begin"              # engine/app/graph identity
RUN_END = "run_end"                  # iterations + totals
EDGE_OPS = "edge_ops"                # per_node, total
VERTEX_OPS = "vertex_ops"            # per_node, total
UPDATES = "updates"                  # count
MESSAGES = "messages"                # count, bytes
IO = "io"                            # bytes (out-of-core engines)
FRONTIER = "frontier"                # active, skipped
RR_SKIP = "rr_skip"                  # skipped, debts ("start late")
CATCH_UP = "catch_up"                # started ("start late" debt settles)
EC_TRANSITION = "ec_transition"      # frozen, live ("finish early")
MIGRATION = "migration"              # vertices_moved, target_node, ...
WORKSTEAL = "worksteal"              # makespans of one chunk schedule
PHASE = "phase"                      # name, seconds (gather/apply/scatter/sync)
PREPROCESSING = "preprocessing"      # edge_ops (RRG generation)
FAULT = "fault"                      # kind, superstep, node(s), applied
CHECKPOINT = "checkpoint"            # superstep, bytes
ROLLBACK = "rollback"                # from_superstep, to_superstep
RECOVERY = "recovery"                # failed_node, vertices_moved, bytes_moved
RETRY = "retry"                      # src/dst nodes, messages, attempts, bytes
GUIDANCE_REUSED = "guidance_reused"  # cached RRG reused after a restart
CACHE = "cache"                      # artifact-store request: kind, outcome, bytes
PARALLEL_WORKER = "parallel_worker"  # measured worker: busy_seconds, chunks, steals
PARALLEL_DISPATCH = "parallel_dispatch"  # one pool phase: epoch, blocks, pipe messages
PARALLEL_RECOVERY = "parallel_recovery"  # pool self-healing: detect/respawn/degrade
PARALLEL_STALL = "parallel_stall"        # sampler: worker heartbeat frozen mid-phase
ASYNC_ROUND = "async_round"          # one async scheduling round: scheduled, skipped, delta_mass
SHARD_IO = "shard_io"                # ooc backend: shards/bytes read, cache hits, peak RSS

VOCABULARY = frozenset(
    {
        SUPERSTEP_BEGIN,
        SUPERSTEP_END,
        RUN_BEGIN,
        RUN_END,
        EDGE_OPS,
        VERTEX_OPS,
        UPDATES,
        MESSAGES,
        IO,
        FRONTIER,
        RR_SKIP,
        CATCH_UP,
        EC_TRANSITION,
        MIGRATION,
        WORKSTEAL,
        PHASE,
        PREPROCESSING,
        FAULT,
        CHECKPOINT,
        ROLLBACK,
        RECOVERY,
        RETRY,
        GUIDANCE_REUSED,
        CACHE,
        PARALLEL_WORKER,
        PARALLEL_DISPATCH,
        PARALLEL_RECOVERY,
        PARALLEL_STALL,
        ASYNC_ROUND,
        SHARD_IO,
    }
)

#: Names of the execution phases whose self time ``render_profile``
#: reports.  Engines tag their phase spans with one of these.
PHASE_NAMES = ("gather", "apply", "scatter", "sync")


@dataclass
class TraceEvent:
    """One typed event in a trace.

    Attributes
    ----------
    name:
        Vocabulary name (one of :data:`VOCABULARY`).
    superstep:
        Superstep the event belongs to, or ``None`` for run-level
        events (``run_begin``, ``preprocessing``, …).
    wall_seconds:
        Seconds since the recorder was created (monotonic clock).
    payload:
        Event-specific fields.
    """

    name: str
    superstep: Optional[int]
    wall_seconds: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        """Flat dict for the JSONL exporter."""
        out: Dict[str, Any] = {"event": self.name, "t": self.wall_seconds}
        if self.superstep is not None:
            out["superstep"] = self.superstep
        out.update(self.payload)
        return out


class _NullPhase:
    """Shared no-op context manager returned by ``NullRecorder.phase``."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class Recorder:
    """Base type of every trace sink.

    This is the type to annotate recorder parameters against: engines
    and the cluster simulation accept *any* recorder — the shared no-op
    (:class:`NullRecorder`), the storing :class:`TraceRecorder`, or a
    user-supplied subclass.  The base provides the full interface as
    no-ops so the hot path costs one predictable branch
    (``recorder.enabled``) when tracing is off.
    """

    enabled = False

    def emit(self, name: str, /, **payload) -> None:
        return None

    def begin_superstep(self, mode: str, index: Optional[int] = None) -> None:
        return None

    def end_superstep(self, **payload) -> None:
        return None

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE


class NullRecorder(Recorder):
    """Recorder that records nothing (the default wired through engines).

    Kept as a distinct class (rather than instantiating :class:`Recorder`
    directly) so traces and annotations can distinguish "explicitly no
    recording" from "any recorder".
    """


#: Process-wide shared no-op recorder.
NULL_RECORDER = NullRecorder()


class _PhaseSpan:
    """Context manager that emits one ``phase`` event with its duration.

    Spans nest: entering pushes the span onto the recorder's phase
    stack, so a ``phase()`` opened inside another records its enclosing
    span in the event's ``parent`` field (and its nesting ``depth``).
    This is what lets the hierarchical profiler rebuild the
    run -> superstep -> phase -> component tree instead of flattening
    every span to one level.
    """

    __slots__ = ("_recorder", "_name", "_t0")

    def __init__(self, recorder: "TraceRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseSpan":
        self._t0 = self._recorder._now()
        self._recorder._phase_stack.append(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        stack = self._recorder._phase_stack
        stack.pop()
        self._recorder.emit(
            PHASE,
            name=self._name,
            seconds=self._recorder._now() - self._t0,
            parent=stack[-1] if stack else None,
            depth=len(stack),
        )
        return False


class TraceRecorder(NullRecorder):
    """Stores typed events with wall-clock timestamps.

    Parameters
    ----------
    clock:
        Monotonic time source (seconds).  Injectable for deterministic
        tests; defaults to :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        #: wall-clock (``time.time``) instant of ``t=0``: every event's
        #: ``wall_seconds`` is a perf_counter delta from this anchor, so
        #: ``wall_epoch + wall_seconds`` places it on the calendar for
        #: correlation with external logs.  A single reading at init —
        #: the timestamps themselves stay monotonic deltas.
        self.wall_epoch = time.time()
        self.events: List[TraceEvent] = []
        self._superstep: Optional[int] = None
        self._next_superstep = 0
        self._superstep_t0 = 0.0
        #: names of the currently open phase spans, outermost first
        self._phase_stack: List[str] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._t0

    @property
    def current_superstep(self) -> Optional[int]:
        """Index of the open superstep, or None between supersteps."""
        return self._superstep

    def emit(self, name: str, /, **payload) -> TraceEvent:
        """Record one event; superstep attribution is automatic.

        ``name`` is positional-only so payloads may carry their own
        ``name`` field (phase spans do).
        """
        if name not in VOCABULARY:
            raise TraceError(
                "unknown trace event %r (vocabulary: %s)"
                % (name, ", ".join(sorted(VOCABULARY)))
            )
        event = TraceEvent(name, self._superstep, self._now(), payload)
        self.events.append(event)
        return event

    def begin_superstep(self, mode: str, index: Optional[int] = None) -> int:
        """Open a superstep span; it must be closed before the next.

        ``index`` lets the caller align trace numbering with its own
        superstep counter (:class:`MetricsCollector` passes its record
        index); when omitted, supersteps number consecutively from 0.
        """
        if self._superstep is not None:
            raise TraceError(
                "superstep %d is still open" % self._superstep
            )
        if index is None:
            index = self._next_superstep
        self._superstep = int(index)
        self._next_superstep = self._superstep + 1
        self._superstep_t0 = self._now()
        self.emit(SUPERSTEP_BEGIN, mode=mode)
        return self._superstep

    def end_superstep(self, **payload) -> TraceEvent:
        """Close the open superstep, recording its wall-clock span."""
        if self._superstep is None:
            raise TraceError("no superstep is open")
        event = self.emit(
            SUPERSTEP_END,
            wall_seconds=self._now() - self._superstep_t0,
            **payload,
        )
        self._superstep = None
        return event

    def phase(self, name: str) -> _PhaseSpan:
        """Span for one execution phase (gather/apply/scatter/sync)."""
        return _PhaseSpan(self, name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def events_named(self, name: str) -> List[TraceEvent]:
        return [e for e in self.events if e.name == name]

    def vocabulary_used(self) -> frozenset:
        """Set of event names this trace actually contains."""
        return frozenset(e.name for e in self.events)

    @property
    def num_supersteps(self) -> int:
        return len(self.events_named(SUPERSTEP_END))

    def superstep_totals(self, counter: str) -> Dict[int, int]:
        """Per-superstep totals of one counter from ``superstep_end``.

        ``counter`` is a summary field (``edge_ops``, ``messages``, …).
        """
        return {
            e.superstep: int(e.payload.get(counter, 0))
            for e in self.events_named(SUPERSTEP_END)
        }

    def total(self, counter: str) -> int:
        return sum(self.superstep_totals(counter).values())
