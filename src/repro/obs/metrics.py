"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the aggregate view of a run: where the trace recorder
stores every event in order, the registry folds the same vocabulary
into named time-series samples — ``repro_edge_ops_total`` by node and
mode, ``repro_rr_skipped_edge_ops_total`` split by which redundancy
reduction technique avoided them, the Ruler's progression — rendered
in OpenMetrics text so any Prometheus-family toolchain can scrape the
artifact.

Two ways to populate it:

* :func:`populate_from_trace` — fold a finished (or loaded) trace into
  a registry.  This is how ``--metrics-out`` works: the run records a
  trace exactly as before and the registry is a *projection* of it, so
  application results are bit-identical with metrics on or off.
* Direct calls — library users may ``registry.counter(...).inc(...)``
  around their own code; the registry does not care who feeds it.

Metric families are created lazily and keep insertion order, so the
rendered text is deterministic for a deterministic run.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.trace import recorder as ev
from repro.trace.recorder import TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "FRACTION_BUCKETS",
    "render_openmetrics",
    "parse_openmetrics",
    "populate_from_trace",
    "registry_from_trace",
]

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for span/superstep durations (seconds).
DEFAULT_SECONDS_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, float("inf"),
)

#: Buckets for ratios in [0, 1] (EC-vertex fraction per superstep).
FRACTION_BUCKETS = (
    0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, float("inf"),
)


def _check_name(name: str, what: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ObservabilityError(
            "invalid %s %r (must match %s)" % (what, name, _NAME_RE.pattern)
        )
    return name


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return "%d" % int(as_float)
    return repr(as_float)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(
    names: Sequence[str], values: Sequence[str], extra: str = ""
) -> str:
    parts = [
        '%s="%s"' % (name, _escape_label_value(value))
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{%s}" % ",".join(parts)


class _MetricFamily:
    """Shared machinery: label validation and keyed sample storage."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = _check_name(name, "metric name")
        self.help = help
        self.labelnames = tuple(
            _check_name(label, "label name") for label in labelnames
        )

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ObservabilityError(
                "metric %r takes labels %r, got %r"
                % (self.name, self.labelnames, tuple(sorted(labels)))
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_MetricFamily):
    """Monotonically increasing total (rendered with ``_total`` suffix)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ObservabilityError(
                "counter %r cannot decrease (inc %r)" % (self.name, amount)
            )
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], float]]:
        return self._values.items()

    def render(self) -> List[str]:
        return [
            "%s_total%s %s"
            % (
                self.name,
                _label_suffix(self.labelnames, key),
                _format_value(value),
            )
            for key, value in self._values.items()
        ]


class Gauge(_MetricFamily):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[self._key(labels)] = float(value)

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], float]]:
        return self._values.items()

    def render(self) -> List[str]:
        return [
            "%s%s %s"
            % (
                self.name,
                _label_suffix(self.labelnames, key),
                _format_value(value),
            )
            for key, value in self._values.items()
        ]


class Histogram(_MetricFamily):
    """Fixed-bucket histogram (cumulative ``le`` buckets + sum + count)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(
                "histogram %r needs at least one bucket" % name
            )
        if bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets = tuple(bounds)
        # per label-set: per-bucket (non-cumulative) counts, sum, count
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels) -> int:
        return sum(self._counts.get(self._key(labels), ()))

    def sum(self, **labels) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def bucket_counts(self, **labels) -> Dict[str, int]:
        """Cumulative count per ``le`` bound (OpenMetrics semantics)."""
        counts = self._counts.get(self._key(labels), [0] * len(self.buckets))
        out: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            label = "+Inf" if bound == float("inf") else _format_value(bound)
            out[label] = running
        return out

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], float]]:
        return self._sums.items()

    def render(self) -> List[str]:
        lines: List[str] = []
        for key in self._counts:
            running = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                running += count
                le = "+Inf" if bound == float("inf") else _format_value(bound)
                lines.append(
                    "%s_bucket%s %d"
                    % (
                        self.name,
                        _label_suffix(
                            self.labelnames, key, 'le="%s"' % le
                        ),
                        running,
                    )
                )
            suffix = _label_suffix(self.labelnames, key)
            lines.append(
                "%s_sum%s %s"
                % (self.name, suffix, _format_value(self._sums[key]))
            )
            lines.append("%s_count%s %d" % (self.name, suffix, running))
        return lines


class MetricsRegistry:
    """Ordered collection of metric families, created lazily by name."""

    def __init__(self) -> None:
        self._families: Dict[str, _MetricFamily] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.labelnames != tuple(
                labelnames
            ):
                raise ObservabilityError(
                    "metric %r already registered as %s%r"
                    % (name, existing.kind, existing.labelnames)
                )
            return existing
        family = cls(name, help, labelnames=labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # ------------------------------------------------------------------
    def families(self) -> List[_MetricFamily]:
        return list(self._families.values())

    def get(self, name: str) -> Optional[_MetricFamily]:
        return self._families.get(name)

    def total(self, name: str, by: Optional[str] = None):
        """Sum of one family's samples, or ``{label value: sum}`` by ``by``.

        Histograms sum their observations.  An absent or empty family
        totals 0 (``{}`` grouped); groups keep first-sample order.
        """
        family = self._families.get(name)
        samples = family.samples() if family is not None else ()
        if by is None:
            return sum(value for _key, value in samples)
        index = family.labelnames.index(by) if family is not None else 0
        grouped: Dict[str, float] = {}
        for key, value in samples:
            grouped[key[index]] = grouped.get(key[index], 0.0) + value
        return grouped

    def __len__(self) -> int:
        return len(self._families)


#: Family-name suffix -> OpenMetrics ``# UNIT`` value.  Families whose
#: base name ends in a recognised unit advertise it, per the spec's
#: "metric names SHOULD have the unit as suffix" conformance rule.
_UNIT_SUFFIXES = (("_seconds", "seconds"), ("_bytes", "bytes"))


def render_openmetrics(registry: MetricsRegistry) -> str:
    """The registry as OpenMetrics text (terminated by ``# EOF``)."""
    lines: List[str] = []
    for family in registry.families():
        lines.append("# TYPE %s %s" % (family.name, family.kind))
        for suffix, unit in _UNIT_SUFFIXES:
            if family.name.endswith(suffix):
                lines.append("# UNIT %s %s" % (family.name, unit))
                break
        if family.help:
            lines.append(
                "# HELP %s %s"
                % (family.name, family.help.replace("\n", " "))
            )
        lines.extend(family.render())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_openmetrics(text: str):
    """Parse OpenMetrics text into ``(types, samples)``.

    ``types`` maps family name -> kind; ``samples`` is a list of
    ``(sample_name, labels_dict, value)``.  Strict enough for the
    round-trip tests: every non-comment line must parse, and the text
    must end with ``# EOF``.
    """
    types: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise ObservabilityError("OpenMetrics text must end with '# EOF'")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            elif parts[1:2] not in (["HELP"], ["UNIT"], ["EOF"]):
                raise ObservabilityError(
                    "line %d: unknown comment %r" % (line_no, line)
                )
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ObservabilityError(
                "line %d is not a valid OpenMetrics sample: %r"
                % (line_no, line)
            )
        labels = {
            key: value.replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\\\\", "\\")
            for key, value in _LABEL_RE.findall(match.group("labels") or "")
        }
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ObservabilityError(
                "line %d has a non-numeric value: %r" % (line_no, line)
            )
        samples.append((match.group("name"), labels, value))
    return types, samples


# ----------------------------------------------------------------------
# trace -> registry projection
# ----------------------------------------------------------------------
_RUN_LABELS = ("app", "engine", "graph")


def populate_from_trace(
    registry: MetricsRegistry, recorder: TraceRecorder
) -> MetricsRegistry:
    """Fold a trace's events into ``registry`` (returned for chaining).

    Every sample carries the run identity labels (``app``, ``engine``,
    ``graph``) taken from the enclosing ``run_begin`` event (empty
    strings for traces recorded without :func:`run_workload`), plus the
    series-specific labels: ``node`` for per-node counters, ``mode``
    for per-superstep counters, ``phase``/``parent`` for span time,
    ``le`` for the lastIter attribution, ``rr`` for which redundancy
    reduction technique skipped the work.
    """
    run = {"app": "", "engine": "", "graph": ""}
    mode = ""

    def run_labels() -> Dict[str, str]:
        return dict(run)

    c = registry.counter
    g = registry.gauge

    runs = c("repro_runs", "Workload executions in this trace", _RUN_LABELS)
    vertices = g("repro_graph_vertices", "Vertices of the run graph",
                 _RUN_LABELS)
    edges = g("repro_graph_edges", "Edges of the run graph", _RUN_LABELS)
    supersteps = c("repro_supersteps", "Supersteps executed",
                   _RUN_LABELS + ("mode",))
    wall = registry.histogram(
        "repro_superstep_wall_seconds", "Wall-clock time per superstep",
        labelnames=_RUN_LABELS,
    )
    modeled = c("repro_modeled_seconds", "Cost-model seconds",
                _RUN_LABELS + ("mode",))
    edge_ops = c("repro_edge_ops", "Edge operations",
                 _RUN_LABELS + ("node", "mode"))
    vertex_ops = c("repro_vertex_ops", "Vertex operations",
                   _RUN_LABELS + ("node", "mode"))
    updates = c("repro_updates", "Vertex value updates",
                _RUN_LABELS + ("mode",))
    messages = c("repro_messages", "Coalesced network messages",
                 _RUN_LABELS + ("mode",))
    message_bytes = c("repro_message_bytes", "Network payload bytes",
                      _RUN_LABELS + ("mode",))
    io_bytes = c("repro_io_bytes", "Secondary-storage traffic", _RUN_LABELS)
    frontier = g("repro_frontier_active", "Active vertices (last superstep)",
                 _RUN_LABELS)
    phase_seconds = c(
        "repro_phase_seconds",
        "Wall-clock time inside phase spans (nested spans count toward "
        "their own phase label, not the parent's)",
        _RUN_LABELS + ("phase", "parent"),
    )

    # RR-specific series ------------------------------------------------
    rr_skipped_vertices = c(
        "repro_rr_skipped_vertices",
        "Vertex computations skipped by start-late delays", _RUN_LABELS,
    )
    rr_skipped_edge_ops = c(
        "repro_rr_skipped_edge_ops",
        "Edge operations avoided by redundancy reduction, by technique",
        _RUN_LABELS + ("rr",),
    )
    rr_by_last_iter = c(
        "repro_rr_skipped_edge_ops_by_last_iter",
        "Start-late skipped edge ops attributed to lastIter buckets",
        _RUN_LABELS + ("le",),
    )
    rr_ruler = g("repro_rr_ruler", "Ruler progression (last superstep)",
                 _RUN_LABELS)
    rr_max_last_iter = g("repro_rr_max_last_iter",
                         "Deepest guidance level (RulerS target)",
                         _RUN_LABELS)
    rr_pending = g("repro_rr_pending_vertices",
                   "Vertices still delayed (last superstep)", _RUN_LABELS)
    rr_catch_ups = c("repro_rr_catch_ups",
                     "Catch-up gathers settling start-late debts",
                     _RUN_LABELS)
    ec_frozen = c("repro_ec_frozen", "Finish-early freeze transitions",
                  _RUN_LABELS)
    ec_live = g("repro_ec_live_vertices", "Live vertices (last superstep)",
                _RUN_LABELS)
    ec_fraction = registry.histogram(
        "repro_ec_frozen_fraction",
        "EC-vertex fraction per superstep",
        buckets=FRACTION_BUCKETS, labelnames=_RUN_LABELS,
    )
    preprocessing = c("repro_preprocessing_edge_ops",
                      "RRG generation edge operations", _RUN_LABELS)
    cache_events = c(
        "repro_cache_events",
        "Preprocessing-artifact store requests by kind and outcome "
        "(hit/miss/store/evict/corrupt)",
        _RUN_LABELS + ("kind", "outcome"),
    )
    cache_bytes = c(
        "repro_cache_bytes",
        "Payload bytes moved through the preprocessing-artifact store",
        _RUN_LABELS + ("kind", "outcome"),
    )

    # fault tolerance / cluster ----------------------------------------
    faults = c("repro_faults", "Injected faults",
               _RUN_LABELS + ("kind", "applied"))
    retries = c("repro_retried_messages", "Retransmitted messages",
                _RUN_LABELS)
    retry_bytes = c("repro_retry_bytes", "Retransmitted payload bytes",
                    _RUN_LABELS)
    checkpoints = c("repro_checkpoints", "Snapshots taken", _RUN_LABELS)
    checkpoint_bytes = c("repro_checkpoint_bytes", "Snapshot bytes",
                         _RUN_LABELS)
    rollbacks = c("repro_rollbacks", "Rollbacks to a checkpoint",
                  _RUN_LABELS)
    replayed = c("repro_supersteps_replayed",
                 "Supersteps re-run after rollbacks", _RUN_LABELS)
    recoveries = c("repro_recoveries", "Node-failure takeovers", _RUN_LABELS)
    recovery_bytes = c("repro_recovery_bytes", "Takeover state bytes",
                       _RUN_LABELS)
    guidance_reuses = c("repro_guidance_reuses",
                        "RRG guidance reuses after restarts", _RUN_LABELS)
    worksteals = c("repro_worksteal_schedules",
                   "Intra-node work-stealing schedules", _RUN_LABELS)
    worksteal_saved = c(
        "repro_worksteal_saved_ops",
        "Makespan ops saved by stealing vs static chunking", _RUN_LABELS,
    )
    migrations = c("repro_migrations", "Rebalance migrations", _RUN_LABELS)
    migrated = c("repro_migrated_vertices", "Vertices moved by rebalancing",
                 _RUN_LABELS)

    # measured parallel backend ----------------------------------------
    worker_busy = c(
        "repro_parallel_worker_busy_seconds",
        "Measured busy time per parallel worker (chunk processing)",
        _RUN_LABELS + ("worker",),
    )
    worker_chunks = c(
        "repro_parallel_worker_chunks",
        "Mini-chunks claimed per parallel worker",
        _RUN_LABELS + ("worker",),
    )
    worker_steals = c(
        "repro_parallel_worker_steals",
        "Mini-chunks claimed outside the worker's static share",
        _RUN_LABELS + ("worker",),
    )
    worker_edges = c(
        "repro_parallel_worker_edges",
        "Edges processed per parallel worker",
        _RUN_LABELS + ("worker",),
    )
    dispatch_count = c(
        "repro_parallel_dispatches",
        "Pool phase dispatches (one per superstep phase)",
        _RUN_LABELS + ("phase",),
    )
    dispatch_messages = c(
        "repro_parallel_dispatch_messages",
        "Parent<->worker pipe messages per pool phase (O(1) witness)",
        _RUN_LABELS + ("phase",),
    )
    dispatch_blocks = c(
        "repro_parallel_dispatch_blocks",
        "Contiguous task blocks executed per pool phase",
        _RUN_LABELS + ("phase",),
    )
    recovery_events = c(
        "repro_parallel_recovery_events",
        "Pool self-healing steps by action "
        "(detected/respawned/recovered/redispatch/degraded)",
        _RUN_LABELS + ("action",),
    )
    recovery_respawns = c(
        "repro_parallel_recovery_respawns",
        "Worker processes respawned after a crash or hang",
        _RUN_LABELS + ("phase",),
    )
    recovery_seconds = c(
        "repro_parallel_recovery_seconds",
        "Measured wall seconds spent recovering (detect to re-dispatch)",
        _RUN_LABELS + ("action",),
    )
    recovery_degraded = c(
        "repro_parallel_recovery_degraded_runs",
        "Runs that exhausted the respawn budget and fell back to "
        "inline serial-semantics execution",
        _RUN_LABELS,
    )
    stalls = c(
        "repro_parallel_stalls",
        "Stall episodes flagged by the live telemetry sampler "
        "(heartbeat frozen past the threshold while work is owed)",
        _RUN_LABELS + ("worker", "phase"),
    )
    async_rounds = c(
        "repro_async_rounds",
        "Asynchronous engine rounds executed, by scheduler",
        _RUN_LABELS + ("scheduler",),
    )
    async_scheduled = c(
        "repro_async_scheduled_vertices",
        "Active vertices the async scheduler admitted into a round",
        _RUN_LABELS + ("scheduler",),
    )
    async_deferred = c(
        "repro_async_deferred_vertices",
        "Active vertices the async scheduler deferred to later rounds",
        _RUN_LABELS + ("scheduler",),
    )
    async_mass = registry.gauge(
        "repro_async_pending_mass",
        "Pending delta mass after the latest async round "
        "(termination drives this under the tolerance)",
        _RUN_LABELS,
    )
    ooc_shards = c(
        "repro_ooc_shards_read",
        "Edge shards decoded from the store by the ooc backend",
        _RUN_LABELS + ("phase", "direction"),
    )
    ooc_bytes = c(
        "repro_ooc_bytes_read",
        "Compressed shard bytes read from the store by the ooc backend",
        _RUN_LABELS + ("phase", "direction"),
    )
    ooc_hits = c(
        "repro_ooc_cache_hits",
        "Shard requests served from the decoded-shard LRU",
        _RUN_LABELS + ("phase", "direction"),
    )
    ooc_read_seconds = c(
        "repro_ooc_read_seconds",
        "Wall seconds spent fetching and decoding shards",
        _RUN_LABELS + ("phase", "direction"),
    )
    ooc_peak_rss = registry.gauge(
        "repro_ooc_peak_rss_bytes",
        "Process peak RSS at the latest ooc phase (the O(|V|) residency "
        "witness: flat as |E| grows)",
        _RUN_LABELS,
    )

    for event in recorder.events:
        p = event.payload
        name = event.name
        if name == ev.RUN_BEGIN:
            run = {key: str(p.get(key, "")) for key in _RUN_LABELS}
            runs.inc(**run_labels())
            if "num_vertices" in p:
                vertices.set(p["num_vertices"], **run_labels())
            if "num_edges" in p:
                edges.set(p["num_edges"], **run_labels())
        elif name == ev.SUPERSTEP_BEGIN:
            mode = str(p.get("mode", ""))
            supersteps.inc(mode=mode, **run_labels())
        elif name == ev.SUPERSTEP_END:
            wall.observe(float(p.get("wall_seconds", 0.0)), **run_labels())
            if "modeled_seconds" in p:
                modeled.inc(
                    float(p["modeled_seconds"]), mode=mode, **run_labels()
                )
        elif name == ev.EDGE_OPS:
            for node, count in enumerate(p.get("per_node", ())):
                if count:
                    edge_ops.inc(count, node=node, mode=mode, **run_labels())
        elif name == ev.VERTEX_OPS:
            for node, count in enumerate(p.get("per_node", ())):
                if count:
                    vertex_ops.inc(
                        count, node=node, mode=mode, **run_labels()
                    )
        elif name == ev.UPDATES:
            updates.inc(p.get("count", 0), mode=mode, **run_labels())
        elif name == ev.MESSAGES:
            messages.inc(p.get("count", 0), mode=mode, **run_labels())
            message_bytes.inc(p.get("bytes", 0), mode=mode, **run_labels())
        elif name == ev.IO:
            io_bytes.inc(p.get("bytes", 0), **run_labels())
        elif name == ev.FRONTIER:
            frontier.set(p.get("active", 0), **run_labels())
        elif name == ev.PHASE:
            phase_seconds.inc(
                float(p.get("seconds", 0.0)),
                phase=str(p.get("name", "")),
                parent=str(p.get("parent") or ""),
                **run_labels(),
            )
        elif name == ev.RR_SKIP:
            rr_skipped_vertices.inc(p.get("skipped", 0), **run_labels())
            rr_skipped_edge_ops.inc(
                p.get("skipped_edge_ops", 0), rr="start_late", **run_labels()
            )
            for le, ops in (p.get("last_iter_buckets") or {}).items():
                rr_by_last_iter.inc(ops, le=le, **run_labels())
            rr_ruler.set(p.get("ruler", 0), **run_labels())
            rr_max_last_iter.set(p.get("max_last_iter", 0), **run_labels())
            rr_pending.set(p.get("pending", 0), **run_labels())
        elif name == ev.CATCH_UP:
            rr_catch_ups.inc(p.get("started", 0), **run_labels())
        elif name == ev.EC_TRANSITION:
            ec_frozen.inc(p.get("frozen", 0), **run_labels())
            ec_live.set(p.get("live", 0), **run_labels())
            rr_skipped_edge_ops.inc(
                p.get("skipped_edge_ops", 0), rr="finish_early",
                **run_labels()
            )
            total = p.get("total", 0)
            if total:
                ec_fraction.observe(
                    1.0 - float(p.get("live", 0)) / float(total),
                    **run_labels(),
                )
            rr_ruler.set(p.get("ruler", 0), **run_labels())
            if "max_last_iter" in p:
                rr_max_last_iter.set(p["max_last_iter"], **run_labels())
        elif name == ev.PREPROCESSING:
            preprocessing.inc(p.get("edge_ops", 0), **run_labels())
        elif name == ev.CACHE:
            kind = str(p.get("kind", "?"))
            outcome = str(p.get("outcome", "?"))
            cache_events.inc(kind=kind, outcome=outcome, **run_labels())
            cache_bytes.inc(
                p.get("bytes", 0), kind=kind, outcome=outcome, **run_labels()
            )
        elif name == ev.FAULT:
            faults.inc(
                kind=str(p.get("kind", "?")),
                applied=str(bool(p.get("applied"))).lower(),
                **run_labels(),
            )
        elif name == ev.RETRY:
            # The event carries the *lost* message count plus the number
            # of attempts; the retransmitted total (what the collector's
            # ``total_retries`` counts) is their product.
            retries.inc(
                p.get("messages", 0) * p.get("attempts", 1), **run_labels()
            )
            retry_bytes.inc(p.get("bytes", 0), **run_labels())
        elif name == ev.CHECKPOINT:
            checkpoints.inc(**run_labels())
            checkpoint_bytes.inc(p.get("bytes", 0), **run_labels())
        elif name == ev.ROLLBACK:
            rollbacks.inc(**run_labels())
            replayed.inc(
                max(
                    0,
                    int(p.get("from_superstep", 0))
                    - int(p.get("to_superstep", 0)),
                ),
                **run_labels(),
            )
        elif name == ev.RECOVERY:
            recoveries.inc(**run_labels())
            recovery_bytes.inc(p.get("bytes_moved", 0), **run_labels())
        elif name == ev.GUIDANCE_REUSED:
            guidance_reuses.inc(**run_labels())
        elif name == ev.WORKSTEAL:
            worksteals.inc(**run_labels())
            worksteal_saved.inc(
                max(
                    0.0,
                    float(p.get("static_makespan", 0.0))
                    - float(p.get("stealing_makespan", 0.0)),
                ),
                **run_labels(),
            )
        elif name == ev.MIGRATION:
            migrations.inc(**run_labels())
            migrated.inc(p.get("vertices_moved", 0), **run_labels())
        elif name == ev.PARALLEL_WORKER:
            worker = str(p.get("worker", 0))
            worker_busy.inc(
                float(p.get("busy_seconds", 0.0)), worker=worker,
                **run_labels()
            )
            worker_chunks.inc(p.get("chunks", 0), worker=worker,
                              **run_labels())
            worker_steals.inc(p.get("steals", 0), worker=worker,
                              **run_labels())
            worker_edges.inc(p.get("edges", 0), worker=worker,
                             **run_labels())
        elif name == ev.PARALLEL_DISPATCH:
            phase = str(p.get("phase", ""))
            dispatch_count.inc(phase=phase, **run_labels())
            dispatch_messages.inc(p.get("messages", 0), phase=phase,
                                  **run_labels())
            dispatch_blocks.inc(p.get("blocks", 0), phase=phase,
                                **run_labels())
        elif name == ev.PARALLEL_RECOVERY:
            action = str(p.get("action", ""))
            recovery_events.inc(action=action, **run_labels())
            if "seconds" in p:
                recovery_seconds.inc(
                    float(p["seconds"]), action=action, **run_labels()
                )
            if action == "respawned":
                recovery_respawns.inc(
                    phase=str(p.get("phase", "")), **run_labels()
                )
            elif action == "degraded":
                recovery_degraded.inc(**run_labels())
        elif name == ev.PARALLEL_STALL:
            stalls.inc(
                worker=str(p.get("worker", 0)),
                phase=str(p.get("phase", "")),
                **run_labels(),
            )
        elif name == ev.ASYNC_ROUND:
            scheduler = str(p.get("scheduler", ""))
            async_rounds.inc(scheduler=scheduler, **run_labels())
            async_scheduled.inc(
                p.get("scheduled", 0), scheduler=scheduler, **run_labels()
            )
            async_deferred.inc(
                p.get("skipped", 0), scheduler=scheduler, **run_labels()
            )
            async_mass.set(float(p.get("delta_mass", 0.0)), **run_labels())
        elif name == ev.SHARD_IO:
            phase = str(p.get("phase", ""))
            direction = str(p.get("direction", ""))
            ooc_shards.inc(
                p.get("shards", 0), phase=phase, direction=direction,
                **run_labels()
            )
            ooc_bytes.inc(
                p.get("bytes", 0), phase=phase, direction=direction,
                **run_labels()
            )
            ooc_hits.inc(
                p.get("cache_hits", 0), phase=phase, direction=direction,
                **run_labels()
            )
            ooc_read_seconds.inc(
                float(p.get("read_seconds", 0.0)), phase=phase,
                direction=direction, **run_labels()
            )
            if p.get("peak_rss_bytes"):
                ooc_peak_rss.set(
                    float(p["peak_rss_bytes"]), **run_labels()
                )
    return registry


def registry_from_trace(recorder: TraceRecorder) -> MetricsRegistry:
    """Fresh registry holding the projection of one trace."""
    return populate_from_trace(MetricsRegistry(), recorder)
