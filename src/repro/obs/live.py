"""Live telemetry plane: heartbeats, ``/metrics``, ``repro top``, flight recorder.

Everything before this module is *post-hoc* observability: traces are
recorded and projected after the run ends.  This module makes a run
observable **while it is alive**, with four cooperating pieces:

* :class:`TelemetrySampler` — a parent-side daemon thread that reads the
  shared-memory telemetry segment the pool workers write lock-free
  between kernel blocks (the ``TEL_*`` layout in
  :mod:`repro.core.runtime`: one 128-byte padded ``int64`` slot per
  worker holding heartbeat, epoch/phase, chunks, steals, kernel-ns and a
  last-progress monotonic stamp).  Sampling costs **zero pipe traffic**,
  so PR 6's O(1)-messages-per-phase dispatch invariant is untouched.
  The sampler doubles as the **stall detector**: a worker whose
  heartbeat has not advanced within ``stall_after`` seconds while it
  still owes work (mid-phase, or behind the parent's dispatch epoch —
  which catches a worker SIGSTOPped *before* the poke) is flagged, and
  one ``parallel_stall`` trace event per episode is emitted.  The stall
  threshold is deliberately far below the pool's reply deadline, so the
  stall surfaces in traces, scrapes and the report's fault timeline
  *before* PR 7's recovery machinery quarantines the worker.

* :class:`LiveMetricsService` + :class:`MetricsHTTPServer` — a
  stdlib-``http.server`` endpoint (``--serve-metrics PORT``) serving
  ``/metrics`` (the existing OpenMetrics registry, rebuilt per scrape
  from the trace projection *plus* the sampler's
  ``repro_parallel_live_*`` gauge families, with the proper
  ``application/openmetrics-text`` content-type) and ``/healthz``
  (200 ``ok`` flipping to 503 ``degraded`` once the pool falls back to
  inline execution).  Because trace counters are folded from an
  append-only event list, every counter is monotone across scrapes.

* :class:`FlightRecorder` — an always-on bounded trace recorder (ring
  buffer of the last ``capacity`` events plus the most recent telemetry
  snapshots).  :meth:`FlightRecorder.dump` writes a replayable
  ``flight-<run>.jsonl`` — a header line carrying the wall-clock anchor
  and drop counts, the surviving events in ``dumps_jsonl`` format, and
  the telemetry snapshots — which ``repro report`` and ``read_jsonl``
  accept directly.  The CLI dumps it on :class:`EngineError`, on
  degradation, and on SIGTERM/SIGINT, so failed runs leave forensics
  without anyone having passed ``--trace-out``.

* :class:`LiveTelemetryPlane` — the lifecycle owner tying the three
  together, configured for the run
  (``repro.runconfig.configured(live_plane=...)``) so the engine can
  hand each dispatch it builds to the plane without threading a
  parameter through every driver.

Telemetry is a **pure side channel**: workers write their own slot and
nothing in the execution path ever reads it back, so results are
bit-identical with the plane on or off — the same projection contract
every other observability layer in this repo honours.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.runtime import (
    PHASE_NAMES_BY_ID,
    TEL_CHUNKS,
    TEL_EDGES,
    TEL_EPOCH,
    TEL_HEARTBEAT,
    TEL_KERNEL_NS,
    TEL_PHASE,
    TEL_PROGRESS_NS,
    TEL_STEALS,
    TEL_TASKS,
)
from repro.errors import ObservabilityError
from repro.obs.metrics import (
    MetricsRegistry,
    registry_from_trace,
    render_openmetrics,
)
from repro.trace import recorder as trace_events
from repro.trace.recorder import Recorder, TraceRecorder

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "DEFAULT_STALL_SECONDS",
    "DEFAULT_METRICS_PORT",
    "DEFAULT_FLIGHT_CAPACITY",
    "FLIGHT_SNAPSHOT_LIMIT",
    "OPENMETRICS_CONTENT_TYPE",
    "TelemetrySampler",
    "LiveMetricsService",
    "MetricsHTTPServer",
    "FlightRecorder",
    "LiveTelemetryPlane",
    "default_flight_path",
    "scrape",
    "render_top",
]

#: Seconds between sampler passes over the telemetry segment.
DEFAULT_SAMPLE_INTERVAL = 0.05

#: Heartbeat silence (seconds) before a busy worker counts as stalled.
#: Far below the pool's reply deadline on purpose: the stall must be
#: visible in traces and scrapes before recovery quarantines the worker.
DEFAULT_STALL_SECONDS = 1.0

#: Port ``repro top`` scrapes when none is given.
DEFAULT_METRICS_PORT = 9100

#: Trace events the always-on flight recorder retains.
DEFAULT_FLIGHT_CAPACITY = 4096

#: Telemetry snapshots the flight recorder retains.
FLIGHT_SNAPSHOT_LIMIT = 16

#: Content type the OpenMetrics spec requires of a text exposition.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


# ----------------------------------------------------------------------
# sampler + stall detector
# ----------------------------------------------------------------------
class TelemetrySampler:
    """Samples one dispatch's telemetry segment from a parent thread.

    Works against any :class:`repro.core.runtime.SerialDispatch` — the
    serial, out-of-core and pool backends alike: its ``telemetry`` array
    of ``TEL_*`` rows, ``num_workers``, ``current_epoch`` and
    ``degraded``.

    The sampler never blocks the run: workers write their slots
    lock-free and the sampler only reads.  On a pool it registers a
    close listener so it is stopped — and takes a final snapshot —
    *while the shared views are still mapped*, before ``close`` unlinks
    the segments.
    """

    def __init__(
        self,
        dispatch: Any,
        recorder: Optional[Recorder] = None,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        stall_after: float = DEFAULT_STALL_SECONDS,
    ) -> None:
        if not (interval > 0) or not (stall_after > 0):
            raise ObservabilityError(
                "sampler interval and stall threshold must be > 0 "
                "(got %r, %r)" % (interval, stall_after)
            )
        self.dispatch = dispatch
        self.recorder = recorder
        self.interval = float(interval)
        self.stall_after = float(stall_after)
        self.last_snapshot: Optional[Dict[str, Any]] = None
        self.samples_taken = 0
        self.stall_events = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        # per worker: (last heartbeat value, monotonic stamp of the
        # last observed change, stall episode already reported?)
        rows = dispatch.num_workers
        now = time.monotonic()
        self._hb_seen = [(-1, now, False)] * rows

    # ------------------------------------------------------------------
    def start(self) -> "TelemetrySampler":
        """Start the daemon sampling thread (idempotent)."""
        if self._thread is None and not self._stopped:
            self._thread = threading.Thread(
                target=self._run, name="repro-telemetry-sampler", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:
                # A torn read during shutdown must never kill the run.
                break

    def stop(self) -> None:
        """Stop sampling; takes a final snapshot while views are valid."""
        with self._lock:
            if self._stopped:
                return
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        try:
            self.sample_once()
        except Exception:
            pass
        with self._lock:
            self._stopped = True

    def close_listener(self, dispatch: Any) -> None:
        """``ParallelExecutor.close_listeners`` hook: detach safely."""
        self.stop()

    # ------------------------------------------------------------------
    def sample_once(self) -> Dict[str, Any]:
        """One pass over the segment; returns (and stores) the snapshot."""
        with self._lock:
            if self._stopped:
                return self.last_snapshot or self._empty_snapshot()
            snap = self._sample_locked()
        self._record_snapshot(snap)
        return snap

    def _empty_snapshot(self) -> Dict[str, Any]:
        return {
            "monotonic": time.monotonic(),
            "degraded": self.dispatch.degraded,
            "epoch": self.dispatch.current_epoch,
            "workers": [],
            "stalled": [],
        }

    def _sample_locked(self) -> Dict[str, Any]:
        dispatch = self.dispatch
        telemetry = dispatch.telemetry
        degraded = dispatch.degraded
        parent_epoch = dispatch.current_epoch
        now = time.monotonic()
        # Rate window: time since the previous snapshot.  Before the
        # first snapshot — or if two samples land on the same monotonic
        # tick — there is no window, and every rate reports 0.0 instead
        # of dividing by zero (the zero-window contract scrapes and
        # `repro top` rely on when they fire before the first heartbeat).
        previous = self.last_snapshot
        window = (now - previous["monotonic"]) if previous else 0.0
        previous_rows = {
            info["worker"]: info for info in previous["workers"]
        } if previous else {}
        workers: List[Dict[str, Any]] = []
        stalled: List[Dict[str, Any]] = []
        for worker_id in range(telemetry.shape[0]):
            row = telemetry[worker_id]
            heartbeat = int(row[TEL_HEARTBEAT])
            epoch = int(row[TEL_EPOCH])
            phase_id = int(row[TEL_PHASE])
            seen_hb, seen_at, reported = self._hb_seen[worker_id]
            if heartbeat != seen_hb:
                seen_hb, seen_at, reported = heartbeat, now, False
            age = now - seen_at
            # Owes work: mid-phase, or not yet serving the parent's
            # latest dispatch (a worker stopped before its poke shows
            # phase 0 but a stale epoch).  Degraded pools have no live
            # workers to judge.
            owes_work = not degraded and (
                phase_id != 0 or epoch < parent_epoch
            )
            is_stalled = owes_work and age > self.stall_after
            if is_stalled and not reported:
                reported = True
                self.stall_events += 1
                self._emit_stall(worker_id, phase_id, epoch, age)
            self._hb_seen[worker_id] = (seen_hb, seen_at, reported)
            edges = int(row[TEL_EDGES])
            tasks = int(row[TEL_TASKS])
            prev_row = previous_rows.get(worker_id)
            if window > 0 and prev_row is not None:
                # max(..., 0): a re-attached dispatch restarts its
                # counters, and a negative "rate" is worse than a
                # one-sample gap.
                edges_per_second = max(
                    edges - prev_row["edges"], 0
                ) / window
                tasks_per_second = max(
                    tasks - prev_row["tasks"], 0
                ) / window
            else:
                edges_per_second = 0.0
                tasks_per_second = 0.0
            info = {
                "worker": worker_id,
                "heartbeat": heartbeat,
                "epoch": epoch,
                "phase": phase_id,
                "phase_name": PHASE_NAMES_BY_ID.get(phase_id, "idle"),
                "chunks": int(row[TEL_CHUNKS]),
                "steals": int(row[TEL_STEALS]),
                "tasks": tasks,
                "edges": edges,
                "kernel_seconds": int(row[TEL_KERNEL_NS]) / 1e9,
                "progress_age_seconds": age,
                "stalled": is_stalled,
                "edges_per_second": edges_per_second,
                "tasks_per_second": tasks_per_second,
            }
            workers.append(info)
            if is_stalled:
                stalled.append(info)
        snap = {
            "monotonic": now,
            "degraded": degraded,
            "epoch": parent_epoch,
            "workers": workers,
            "stalled": [w["worker"] for w in stalled],
        }
        self.last_snapshot = snap
        self.samples_taken += 1
        return snap

    def _emit_stall(
        self, worker_id: int, phase_id: int, epoch: int, age: float
    ) -> None:
        rec = self.recorder
        if rec is None or not getattr(rec, "enabled", False):
            return
        try:
            rec.emit(
                trace_events.PARALLEL_STALL,
                worker=worker_id,
                phase=PHASE_NAMES_BY_ID.get(phase_id, "idle"),
                epoch=epoch,
                seconds=age,
                threshold=self.stall_after,
            )
        except Exception:
            pass

    def _record_snapshot(self, snap: Dict[str, Any]) -> None:
        rec = self.recorder
        record = getattr(rec, "record_snapshot", None)
        if record is not None:
            record(snap)

    # ------------------------------------------------------------------
    def stalled_workers(self) -> List[int]:
        """Worker ids flagged stalled in the latest snapshot."""
        snap = self.last_snapshot
        return list(snap.get("stalled", ())) if snap else []

    def populate(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Fold the latest snapshot into ``repro_parallel_live_*`` gauges."""
        snap = self.last_snapshot
        if snap is None:
            snap = self.sample_once()
        g = registry.gauge
        g(
            "repro_parallel_live_workers",
            "Telemetry slots in the live segment (pool size)",
        ).set(len(snap["workers"]))
        g(
            "repro_parallel_live_degraded",
            "1 once the pool fell back to inline execution",
        ).set(1.0 if snap["degraded"] else 0.0)
        g(
            "repro_parallel_live_epoch",
            "Phases dispatched so far (parent epoch counter)",
        ).set(snap["epoch"])
        per = [
            ("repro_parallel_live_heartbeat",
             "Lock-free progress heartbeat per worker", "heartbeat"),
            ("repro_parallel_live_phase",
             "Phase id being executed (0 = idle)", "phase"),
            ("repro_parallel_live_chunks",
             "Kernel blocks completed per worker", "chunks"),
            ("repro_parallel_live_steals",
             "Blocks claimed outside the static share", "steals"),
            ("repro_parallel_live_tasks",
             "Task-list entries processed per worker", "tasks"),
            ("repro_parallel_live_edges",
             "Edges processed per worker", "edges"),
            ("repro_parallel_live_kernel_seconds",
             "Seconds inside fused kernels per worker", "kernel_seconds"),
            ("repro_parallel_live_progress_age_seconds",
             "Seconds since the worker's heartbeat last advanced",
             "progress_age_seconds"),
            ("repro_parallel_live_stalled",
             "1 while the stall detector flags the worker", "stalled"),
            ("repro_parallel_live_edges_per_second",
             "Edge-processing rate over the last sampling window "
             "(0 before the first window exists)", "edges_per_second"),
            ("repro_parallel_live_tasks_per_second",
             "Task-processing rate over the last sampling window "
             "(0 before the first window exists)", "tasks_per_second"),
        ]
        for name, help_text, key in per:
            family = g(name, help_text, labelnames=("worker",))
            for info in snap["workers"]:
                family.set(
                    float(info[key]), worker=str(info["worker"])
                )
        return registry


# ----------------------------------------------------------------------
# /metrics + /healthz endpoint
# ----------------------------------------------------------------------
class LiveMetricsService:
    """Renders scrapes: trace projection + live gauges, health state."""

    def __init__(self, plane: "LiveTelemetryPlane") -> None:
        self._plane = plane

    def render(self) -> str:
        """One fresh OpenMetrics exposition (strictly parseable)."""
        recorder = self._plane.recorder
        if isinstance(recorder, TraceRecorder):
            registry = registry_from_trace(recorder)
        else:
            registry = MetricsRegistry()
        sampler = self._plane.sampler
        if sampler is not None:
            sampler.populate(registry)
        return render_openmetrics(registry)

    def healthz(self) -> Tuple[bool, str]:
        """``(healthy, body)``: flips unhealthy once the pool degraded."""
        if self._plane.degraded:
            return False, "degraded\n"
        return True, "ok\n"


class _MetricsHandler(BaseHTTPRequestHandler):
    """Routes ``/metrics`` and ``/healthz``; silent access log."""

    server_version = "repro-live/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.service  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = service.render().encode("utf-8")
            except Exception as exc:
                self._send(500, "text/plain; charset=utf-8",
                           ("scrape failed: %s\n" % exc).encode("utf-8"))
                return
            self._send(200, OPENMETRICS_CONTENT_TYPE, body)
        elif path == "/healthz":
            healthy, text = service.healthz()
            self._send(
                200 if healthy else 503,
                "text/plain; charset=utf-8",
                text.encode("utf-8"),
            )
        else:
            self._send(404, "text/plain; charset=utf-8", b"not found\n")

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        return  # scrapes are not run output


class MetricsHTTPServer:
    """Threaded stdlib HTTP server owning the two live endpoints.

    ``port=0`` binds an ephemeral port (tests); the bound port is on
    :attr:`port`.  Binds loopback only — this is run telemetry, not a
    public service.
    """

    def __init__(
        self,
        service: LiveMetricsService,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        try:
            self._httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
        except OSError as exc:
            raise ObservabilityError(
                "cannot bind metrics endpoint on %s:%d: %s"
                % (host, port, exc)
            )
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self.host = host
        self.port = int(self._httpd.server_address[1])

    def start(self) -> "MetricsHTTPServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-metrics-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)


def scrape(url: str, timeout: float = 2.0) -> str:
    """Fetch one exposition/health body over HTTP (stdlib only)."""
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class FlightRecorder(TraceRecorder):
    """Bounded trace recorder that can dump forensics at any moment.

    Behaves exactly like :class:`TraceRecorder` (it *is* one — every
    exporter, projection and report works on it) except that, when
    ``capacity`` is set, only the most recent ``capacity`` events are
    retained: the ring that makes always-on recording safe for long
    runs.  Trimming is amortised — the buffer grows to twice the
    capacity before the oldest half is dropped — so ``emit`` stays O(1)
    and concurrent projections never observe a shrinking list mid-run
    in the unbounded configuration the CLI uses while serving scrapes.

    ``capacity=None`` disables trimming entirely (an ordinary recorder
    with a :meth:`dump` button).
    """

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_FLIGHT_CAPACITY,
        clock=time.perf_counter,
    ) -> None:
        if capacity is not None and (
            isinstance(capacity, bool) or not isinstance(capacity, int)
            or capacity < 1
        ):
            raise ObservabilityError(
                "flight recorder capacity must be None or an integer >= 1 "
                "(got %r)" % (capacity,)
            )
        super().__init__(clock=clock)
        self.capacity = capacity
        self.dropped = 0
        self.snapshots: List[Dict[str, Any]] = []
        self.dumped_path: Optional[str] = None
        self.dump_reason: Optional[str] = None
        self.suppressed_dumps = 0
        self._dump_lock = threading.Lock()

    def emit(self, name: str, /, **payload):
        event = super().emit(name, **payload)
        cap = self.capacity
        if cap is not None and len(self.events) > 2 * cap:
            excess = len(self.events) - cap
            del self.events[:excess]
            self.dropped += excess
        return event

    def record_snapshot(self, snap: Dict[str, Any]) -> None:
        """Keep the latest telemetry snapshots (bounded)."""
        self.snapshots.append(snap)
        if len(self.snapshots) > FLIGHT_SNAPSHOT_LIMIT:
            del self.snapshots[: len(self.snapshots) - FLIGHT_SNAPSHOT_LIMIT]

    def dump(self, path: str, reason: str) -> str:
        """Write a replayable ``flight-*.jsonl``; returns the path.

        Line 1 is a header object (``{"flight": {...}}``) carrying the
        dump reason, the wall-clock anchor and the drop accounting;
        then the surviving events in ``dumps_jsonl`` format; then the
        retained telemetry snapshots (``{"telemetry": {...}}``).
        :func:`repro.trace.export.loads_jsonl` skips the non-event
        lines, so the dump replays through ``repro report`` directly.

        The dump is idempotent per recorder: the first trigger wins
        (an :class:`EngineError` unwind followed by a SIGTERM during
        teardown fires two triggers for the same run, and the second
        would otherwise overwrite the first with a post-teardown
        ring).  Later triggers only bump :attr:`suppressed_dumps` and
        return the original path.  The file lands via a same-directory
        temp file and :func:`os.replace`, so a dump interrupted midway
        never leaves a half-written artifact under the final name.
        """
        from repro.trace.export import dumps_jsonl

        with self._dump_lock:
            if self.dumped_path is not None:
                self.suppressed_dumps += 1
                return self.dumped_path
            header = {
                "flight": {
                    "reason": reason,
                    "wall_epoch": self.wall_epoch,
                    "events": len(self.events),
                    "dropped": self.dropped,
                    "capacity": self.capacity,
                    "snapshots": len(self.snapshots),
                }
            }
            tmp_path = "%s.tmp.%d" % (path, os.getpid())
            with open(tmp_path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                handle.write(dumps_jsonl(self))
                for snap in self.snapshots:
                    handle.write(
                        json.dumps({"telemetry": snap}, sort_keys=True)
                        + "\n"
                    )
            os.replace(tmp_path, path)
            self.dumped_path = path
            self.dump_reason = reason
            return path


def default_flight_path(directory: str = ".") -> str:
    """``flight-<utc-stamp>-<pid>.jsonl`` in ``directory``."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return os.path.join(
        directory, "flight-%s-%d.jsonl" % (stamp, os.getpid())
    )


# ----------------------------------------------------------------------
# the plane: lifecycle owner
# ----------------------------------------------------------------------
class LiveTelemetryPlane:
    """Owns the sampler and (optionally) the HTTP endpoint for one run.

    The CLI builds one plane per command and configures it for the
    run (``configured(live_plane=...)``), and the engine hands every dispatch it constructs to
    :meth:`attach_dispatch` — serial or pool, healthy or respawned.
    ``serve_port=None`` keeps the endpoint off (the sampler still runs,
    feeding the flight recorder and ``parallel_stall`` detection).
    """

    def __init__(
        self,
        recorder: Optional[Recorder] = None,
        serve_port: Optional[int] = None,
        serve_host: str = "127.0.0.1",
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        stall_after: float = DEFAULT_STALL_SECONDS,
    ) -> None:
        self.recorder = recorder
        self.interval = float(interval)
        self.stall_after = float(stall_after)
        self.sampler: Optional[TelemetrySampler] = None
        self.server: Optional[MetricsHTTPServer] = None
        self._degraded = False
        self._closed = False
        if serve_port is not None:
            self.server = MetricsHTTPServer(
                LiveMetricsService(self), port=serve_port, host=serve_host
            ).start()

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Sticky: True once any attached dispatch degraded."""
        if not self._degraded:
            sampler = self.sampler
            if sampler is not None and sampler.dispatch.degraded:
                self._degraded = True
        return self._degraded

    def attach_dispatch(self, dispatch: Any) -> Optional[TelemetrySampler]:
        """Start sampling ``dispatch``; replaces any previous sampler."""
        if self._closed:
            return None
        previous = self.sampler
        if previous is not None:
            if previous.dispatch.degraded:
                self._degraded = True
            previous.stop()
        sampler = TelemetrySampler(
            dispatch,
            recorder=self.recorder,
            interval=self.interval,
            stall_after=self.stall_after,
        )
        # A pool unmaps its segments in close(); detach first.  The
        # serial dispatch samples plain parent memory — nothing to do.
        listeners = getattr(dispatch, "close_listeners", None)
        if listeners is not None:
            listeners.append(sampler.close_listener)
        self.sampler = sampler
        return sampler.start()

    def close(self, linger: float = 0.0) -> None:
        """Stop sampling; keep the endpoint up ``linger`` seconds more.

        The linger window is what makes scraping a short run
        deterministic: the final registry state stays served after the
        run finishes (CI scrapes it instead of racing the run).
        """
        if self._closed:
            return
        self._closed = True
        sampler = self.sampler
        if sampler is not None:
            if sampler.dispatch.degraded:
                self._degraded = True
            sampler.stop()
        if self.server is not None:
            if linger > 0:
                time.sleep(linger)
            self.server.stop()
            self.server = None


# ----------------------------------------------------------------------
# repro top rendering
# ----------------------------------------------------------------------
def _finite(value: float, default: float = 0.0) -> float:
    """Sanitize one scraped number.

    A scrape is external input: an exposition carrying ``NaN``/``Inf``
    (or a float too large for ``int()``) would otherwise crash the
    formatter or render a garbage balance bar.  Non-finite values fall
    back to ``default``.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        return default
    return value if math.isfinite(value) else default


def _live_value(
    samples: List[Tuple[str, Dict[str, str], float]], name: str
) -> float:
    for sample_name, _labels, value in samples:
        if sample_name == name:
            return _finite(value)
    return 0.0


def render_top(
    types: Dict[str, str],
    samples: List[Tuple[str, Dict[str, str], float]],
    target: str = "",
) -> str:
    """One ``repro top`` frame from a parsed ``/metrics`` scrape.

    Pure function over :func:`repro.obs.metrics.parse_openmetrics`
    output, so the terminal view is testable without sockets.  Shows
    the per-worker progress/balance/stall table plus the run header.
    """
    by_worker: Dict[str, Dict[str, float]] = {}
    for name, labels, value in samples:
        if not name.startswith("repro_parallel_live_") or "worker" not in (
            labels or {}
        ):
            continue
        field = name[len("repro_parallel_live_"):]
        by_worker.setdefault(labels["worker"], {})[field] = value
    workers = int(_live_value(samples, "repro_parallel_live_workers"))
    epoch = int(_live_value(samples, "repro_parallel_live_epoch"))
    degraded = _live_value(samples, "repro_parallel_live_degraded") > 0
    lines = [
        "repro top%s — workers %d, epoch %d%s"
        % (
            " (%s)" % target if target else "",
            workers,
            epoch,
            ", DEGRADED (inline execution)" if degraded else "",
        )
    ]
    header = "%3s %-7s %10s %8s %7s %10s %12s %10s %10s %7s %-7s %s" % (
        "W", "PHASE", "HEARTBEAT", "CHUNKS", "STEALS", "TASKS",
        "EDGES", "EDGES/S", "KERNEL_S", "AGE_S", "STALL", "BALANCE",
    )
    lines.append(header)
    total_edges = sum(
        _finite(row.get("edges", 0.0)) for row in by_worker.values()
    )
    for worker in sorted(by_worker, key=lambda w: int(w)):
        row = by_worker[worker]
        phase_id = int(_finite(row.get("phase", 0.0)))
        share = (
            _finite(row.get("edges", 0.0)) / total_edges
            if total_edges > 0
            else 0.0
        )
        share = min(max(share, 0.0), 1.0)
        lines.append(
            "%3s %-7s %10d %8d %7d %10d %12d %10.0f %10.3f %7.2f %-7s %s"
            % (
                worker,
                PHASE_NAMES_BY_ID.get(phase_id, "idle"),
                int(_finite(row.get("heartbeat", 0.0))),
                int(_finite(row.get("chunks", 0.0))),
                int(_finite(row.get("steals", 0.0))),
                int(_finite(row.get("tasks", 0.0))),
                int(_finite(row.get("edges", 0.0))),
                _finite(row.get("edges_per_second", 0.0)),
                _finite(row.get("kernel_seconds", 0.0)),
                _finite(row.get("progress_age_seconds", 0.0)),
                "STALL" if _finite(row.get("stalled", 0.0)) > 0 else "",
                "#" * int(round(share * 20)),
            )
        )
    if not by_worker:
        lines.append("  (no live telemetry — is the run alive?)")
    return "\n".join(lines) + "\n"


def top_loop(
    url: str,
    render: Callable[[str], None],
    interval: float = 1.0,
    once: bool = False,
    timeout: float = 5.0,
) -> int:
    """Scrape ``url`` and hand frames to ``render`` until it vanishes.

    Retries the first scrape for ``timeout`` seconds (the run may still
    be binding its endpoint), then exits 0 as soon as the endpoint
    disappears — the natural end of a watched run.  ``once`` renders a
    single frame (used by tests and scripts).
    """
    from repro.obs.metrics import parse_openmetrics

    deadline = time.monotonic() + timeout
    connected = False
    while True:
        try:
            text = scrape(url + "/metrics", timeout=max(0.5, interval))
        except Exception as exc:
            if not connected and time.monotonic() < deadline:
                time.sleep(0.1)
                continue
            if connected:
                return 0
            raise ObservabilityError(
                "cannot scrape %s/metrics: %s" % (url, exc)
            )
        connected = True
        types, samples = parse_openmetrics(text)
        render(render_top(types, samples, target=url))
        if once:
            return 0
        time.sleep(interval)
