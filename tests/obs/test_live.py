"""Live telemetry plane: sampler, stalls, /metrics, flight recorder.

The plane is a pure projection — the contract every test here leans
on is the same one the rest of ``repro.obs`` honours: turning it on
never changes application results.  The suite covers

* the shared-memory telemetry segment (serial and pool dispatches),
* stall detection on a real SIGSTOPped worker, surfaced *before* the
  pool's recovery deadline,
* the ``/metrics`` + ``/healthz`` endpoint under concurrent scrapes
  (every response parses strictly, counters stay monotone, health
  flips on degradation),
* the crash flight recorder (bounded ring, replayable dump),
* the wall-clock anchor and the OpenMetrics conformance details
  (``_total`` counters, ``# UNIT`` lines).
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import parallel
from repro.apps.sssp import SSSP
from repro.bench import workloads
from repro.bench.runner import run_workload
from repro.core import runtime
from repro.errors import ObservabilityError
from repro.obs.live import (
    DEFAULT_FLIGHT_CAPACITY,
    OPENMETRICS_CONTENT_TYPE,
    FlightRecorder,
    LiveMetricsService,
    LiveTelemetryPlane,
    MetricsHTTPServer,
    TelemetrySampler,
    default_flight_path,
    render_top,
    scrape,
    top_loop,
)
from repro.obs.metrics import parse_openmetrics
from repro.runconfig import configured, current
from repro.trace import recorder as trace_events
from repro.trace.export import loads_jsonl, read_jsonl
from repro.trace.recorder import TraceRecorder

SCALE = 16000
NODES = 2

needs_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="pool telemetry lives in /dev/shm segments",
)


def _make_executor(**kwargs):
    graph = workloads.load_graph("PK", scale_divisor=SCALE, weighted=True)
    app = kwargs.pop("app", None) or SSSP()
    run_graph = app.prepare(graph)
    return parallel.ParallelExecutor(run_graph, app, **kwargs), run_graph


def _pull(ex, run_graph):
    in_deg = run_graph.in_degrees()
    ids = np.arange(run_graph.num_vertices, dtype=np.int64)
    return ex.pull_apply(ids[in_deg > 0], "min")


def _run_workload(backend=None, workers=None, recorder=None):
    return run_workload(
        "SLFE", "SSSP", "PK",
        num_nodes=NODES, scale_divisor=SCALE, recorder=recorder,
        backend=backend, workers=workers,
    )


class TestTelemetrySegment:
    """Workers (and the serial dispatch) write their TEL_* slots."""

    def test_serial_dispatch_advances_telemetry(self, figure1):
        graph, root = figure1
        app = SSSP()
        run_graph = app.prepare(graph)
        dispatch = runtime.SerialDispatch(run_graph, app)
        row = dispatch.telemetry[0]
        assert int(row[runtime.TEL_HEARTBEAT]) == 0
        ids = np.arange(run_graph.num_vertices, dtype=np.int64)
        dispatch.pull_apply(ids, "min")
        assert int(row[runtime.TEL_HEARTBEAT]) > 0
        assert int(row[runtime.TEL_PHASE]) == 0  # idle again
        assert int(row[runtime.TEL_EPOCH]) == dispatch.current_epoch == 1
        assert int(row[runtime.TEL_TASKS]) == run_graph.num_vertices

    @needs_shm
    def test_pool_workers_fill_their_own_slots(self):
        ex, run_graph = _make_executor(num_workers=2)
        try:
            _pull(ex, run_graph)
            tel = ex.telemetry
            assert tel.shape[0] == 2
            # Each live worker heartbeats and returns to idle.
            for worker_id in range(2):
                assert int(tel[worker_id][runtime.TEL_HEARTBEAT]) > 0
                assert int(tel[worker_id][runtime.TEL_PHASE]) == 0
                assert int(tel[worker_id][runtime.TEL_EPOCH]) == 1
            chunks = [int(tel[w][runtime.TEL_CHUNKS]) for w in range(2)]
            assert sum(chunks) > 0
        finally:
            ex.close()

    def test_row_padding_is_two_cache_lines(self):
        block = runtime.new_telemetry_block(3)
        assert block.dtype == np.int64
        assert block.strides[0] == 128  # no false sharing between rows


class TestSampler:
    def test_sampler_snapshots_a_serial_dispatch(self, figure1):
        graph, _root = figure1
        app = SSSP()
        run_graph = app.prepare(graph)
        dispatch = runtime.SerialDispatch(run_graph, app)
        ids = np.arange(run_graph.num_vertices, dtype=np.int64)
        dispatch.pull_apply(ids, "min")
        sampler = TelemetrySampler(dispatch, interval=0.01)
        snap = sampler.sample_once()
        assert snap["epoch"] == 1
        assert len(snap["workers"]) == 1
        worker = snap["workers"][0]
        assert worker["heartbeat"] > 0
        assert worker["phase_name"] == "idle"
        assert worker["stalled"] is False
        assert sampler.stalled_workers() == []

    def test_sampler_rejects_bad_intervals(self, figure1):
        graph, _root = figure1
        app = SSSP()
        dispatch = runtime.SerialDispatch(app.prepare(graph), app)
        with pytest.raises(ObservabilityError):
            TelemetrySampler(dispatch, interval=0.0)
        with pytest.raises(ObservabilityError):
            TelemetrySampler(dispatch, stall_after=-1.0)

    def test_populate_emits_live_gauge_families(self, figure1):
        from repro.obs.metrics import MetricsRegistry

        graph, _root = figure1
        app = SSSP()
        dispatch = runtime.SerialDispatch(app.prepare(graph), app)
        sampler = TelemetrySampler(dispatch, interval=0.01)
        registry = sampler.populate(MetricsRegistry())
        names = {f.name for f in registry.families()}
        assert "repro_parallel_live_workers" in names
        assert "repro_parallel_live_heartbeat" in names
        assert "repro_parallel_live_kernel_seconds" in names

    @needs_shm
    def test_sigstopped_worker_stalls_before_recovery_deadline(self):
        """The acceptance scenario: SIGSTOP -> parallel_stall -> (no)
        recovery.  The stall threshold (0.2 s) is far below the reply
        deadline (20 s), so the event must surface while the pool is
        still waiting, with zero recovery actions taken."""
        recorder = TraceRecorder()
        ex, run_graph = _make_executor(num_workers=2, reply_timeout=20.0)
        sampler = TelemetrySampler(
            ex, recorder=recorder, interval=0.02, stall_after=0.2
        )
        sampler.start()
        pull_error = []

        def blocked_pull():
            try:
                _pull(ex, run_graph)
            except Exception as exc:  # pragma: no cover - diagnostics
                pull_error.append(exc)

        thread = threading.Thread(target=blocked_pull)
        try:
            os.kill(ex._procs[0].pid, signal.SIGSTOP)
            thread.start()
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and not recorder.events_named(
                       trace_events.PARALLEL_STALL)):
                time.sleep(0.02)
            stalls = recorder.events_named(trace_events.PARALLEL_STALL)
        finally:
            os.kill(ex._procs[0].pid, signal.SIGCONT)
            thread.join(timeout=30)
            sampler.stop()
            ex.close()
        assert not pull_error
        assert stalls, "stall detector never fired on a stopped worker"
        payload = stalls[0].payload
        assert payload["worker"] == 0
        assert payload["seconds"] > 0.2
        assert payload["threshold"] == 0.2
        # One event per episode, not one per sample.
        assert len(stalls) == 1
        # The stall surfaced before recovery had any reason to act.
        assert recorder.events_named(trace_events.PARALLEL_RECOVERY) == []

    @needs_shm
    def test_sampler_survives_pool_close(self):
        # close() unmaps the shared views; the close listener must stop
        # the sampler first or sampling would read unmapped memory.
        ex, run_graph = _make_executor(num_workers=2)
        plane = LiveTelemetryPlane(recorder=TraceRecorder())
        sampler = plane.attach_dispatch(ex)
        assert sampler is not None
        _pull(ex, run_graph)
        ex.close()
        assert sampler._stopped
        # A late sample after close is a no-op, not a crash.
        snap = sampler.sample_once()
        assert snap is not None
        plane.close()


class TestStallProjection:
    def test_stall_events_project_into_the_registry(self):
        from repro.obs import registry_from_trace

        recorder = TraceRecorder()
        recorder.emit(
            trace_events.PARALLEL_STALL,
            worker=1, phase="pull_apply", epoch=3,
            seconds=0.7, threshold=0.2,
        )
        registry = registry_from_trace(recorder)
        family = registry.get("repro_parallel_stalls")
        assert family is not None
        total = sum(v for _k, v in family.samples())
        assert total == 1

    def test_stalls_reach_the_report_fault_timeline(self):
        from repro.obs import build_report

        recorder = TraceRecorder()
        recorder.emit(
            trace_events.PARALLEL_STALL,
            worker=0, phase="push", epoch=2, seconds=1.2, threshold=1.0,
        )
        report = build_report(recorder)
        names = [t["event"] for t in report["fault_timeline"]]
        assert "parallel_stall" in names
        assert report["live"]["stalls"] == [
            {"worker": 0, "phase": "push", "episodes": 1,
             "max_seconds": 1.2},
        ]


class TestMetricsEndpoint:
    def _serial_plane(self, figure1):
        graph, _root = figure1
        app = SSSP()
        run_graph = app.prepare(graph)
        dispatch = runtime.SerialDispatch(run_graph, app)
        ids = np.arange(run_graph.num_vertices, dtype=np.int64)
        dispatch.pull_apply(ids, "min")
        plane = LiveTelemetryPlane(
            recorder=FlightRecorder(capacity=None), serve_port=0
        )
        plane.attach_dispatch(dispatch)
        return plane

    def test_metrics_scrape_parses_strictly(self, figure1):
        plane = self._serial_plane(figure1)
        try:
            text = scrape(plane.server.url + "/metrics")
            types, samples = parse_openmetrics(text)
            assert types["repro_parallel_live_workers"] == "gauge"
            live = [s for s in samples
                    if s[0].startswith("repro_parallel_live_")]
            assert live
        finally:
            plane.close()

    def test_metrics_content_type_is_openmetrics(self, figure1):
        plane = self._serial_plane(figure1)
        try:
            with urllib.request.urlopen(
                plane.server.url + "/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert (response.headers["Content-Type"]
                        == OPENMETRICS_CONTENT_TYPE)
        finally:
            plane.close()

    def test_unit_lines_accompany_suffixed_families(self, figure1):
        plane = self._serial_plane(figure1)
        try:
            text = scrape(plane.server.url + "/metrics")
        finally:
            plane.close()
        assert ("# UNIT repro_parallel_live_kernel_seconds seconds"
                in text)
        assert ("# UNIT repro_parallel_live_progress_age_seconds seconds"
                in text)

    def test_healthz_ok_then_404_for_unknown_paths(self, figure1):
        plane = self._serial_plane(figure1)
        try:
            assert scrape(plane.server.url + "/healthz").strip() == "ok"
            with pytest.raises(urllib.error.HTTPError) as err:
                scrape(plane.server.url + "/nope")
            assert err.value.code == 404
        finally:
            plane.close()

    def test_port_conflict_is_a_typed_error(self, figure1):
        plane = self._serial_plane(figure1)
        try:
            with pytest.raises(ObservabilityError):
                MetricsHTTPServer(
                    LiveMetricsService(plane), port=plane.server.port
                )
        finally:
            plane.close()

    @needs_shm
    def test_concurrent_scrapes_parse_and_counters_stay_monotone(self):
        """Satellite 4: hammer /metrics from threads during a 4-worker
        run.  Every response must parse strictly and counter samples
        must never decrease between a thread's consecutive scrapes."""
        recorder = FlightRecorder(capacity=None)
        ex, run_graph = _make_executor(num_workers=4)
        plane = LiveTelemetryPlane(recorder=recorder, serve_port=0)
        plane.attach_dispatch(ex)
        url = plane.server.url
        stop = threading.Event()
        failures = []

        def hammer():
            seen = {}
            while not stop.is_set():
                try:
                    types, samples = parse_openmetrics(
                        scrape(url + "/metrics")
                    )
                except Exception as exc:
                    failures.append(repr(exc))
                    return
                for name, labels, value in samples:
                    if types.get(name.replace("_total", "")) != "counter" \
                            and types.get(name) != "counter":
                        continue
                    key = (name, tuple(sorted(labels.items())))
                    if value < seen.get(key, float("-inf")):
                        failures.append(
                            "%s went backwards: %r -> %r"
                            % (key, seen[key], value)
                        )
                        return
                    seen[key] = value

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for _ in range(6):
                _pull(ex, run_graph)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            ex.close()
            plane.close()
        assert failures == []

    @needs_shm
    def test_healthz_flips_to_503_on_degrade(self):
        ex, run_graph = _make_executor(
            num_workers=2, max_respawns=0, allow_degrade=True
        )
        plane = LiveTelemetryPlane(
            recorder=FlightRecorder(capacity=None), serve_port=0
        )
        plane.attach_dispatch(ex)
        try:
            assert scrape(plane.server.url + "/healthz").strip() == "ok"
            ex._procs[0].kill()
            ex._procs[0].join(timeout=5)
            _pull(ex, run_graph)  # budget 0: degrade to inline
            assert ex.degraded
            with pytest.raises(urllib.error.HTTPError) as err:
                scrape(plane.server.url + "/healthz")
            assert err.value.code == 503
            assert plane.degraded
            # The degradation gauge follows on the next scrape.
            _types, samples = parse_openmetrics(
                scrape(plane.server.url + "/metrics")
            )
            degraded = [v for n, _l, v in samples
                        if n == "repro_parallel_live_degraded"]
            assert degraded == [1.0]
        finally:
            ex.close()
            plane.close()


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        flight = FlightRecorder(capacity=8)
        for index in range(50):
            flight.emit("fault", kind="synthetic", index=index)
        assert len(flight.events) <= 2 * 8
        assert flight.dropped >= 50 - 2 * 8
        # The newest events survive.
        assert flight.events[-1].payload["index"] == 49

    def test_capacity_validation(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder(capacity=0)
        with pytest.raises(ObservabilityError):
            FlightRecorder(capacity="lots")
        assert FlightRecorder(capacity=None).capacity is None
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_CAPACITY

    def test_dump_is_replayable(self, tmp_path):
        flight = FlightRecorder(capacity=None)
        flight.emit("fault", kind="synthetic", applied=True)
        flight.record_snapshot({"monotonic": 1.0, "workers": []})
        path = flight.dump(str(tmp_path / "flight.jsonl"), "unit-test")
        lines = (tmp_path / "flight.jsonl").read_text().splitlines()
        header = json.loads(lines[0])["flight"]
        assert header["reason"] == "unit-test"
        assert header["events"] == 1
        assert header["snapshots"] == 1
        replayed = read_jsonl(path)
        assert [e.name for e in replayed.events] == ["fault"]
        # The wall anchor survives the round trip.
        assert replayed.wall_epoch == pytest.approx(flight.wall_epoch)

    def test_snapshot_ring_is_bounded(self):
        from repro.obs.live import FLIGHT_SNAPSHOT_LIMIT

        flight = FlightRecorder(capacity=4)
        for index in range(FLIGHT_SNAPSHOT_LIMIT * 3):
            flight.record_snapshot({"monotonic": float(index)})
        assert len(flight.snapshots) == FLIGHT_SNAPSHOT_LIMIT
        assert flight.snapshots[-1]["monotonic"] == float(
            FLIGHT_SNAPSHOT_LIMIT * 3 - 1
        )

    def test_default_flight_path_shape(self, tmp_path):
        path = default_flight_path(str(tmp_path))
        name = os.path.basename(path)
        assert name.startswith("flight-")
        assert name.endswith("-%d.jsonl" % os.getpid())

    def test_loads_jsonl_rejects_non_flight_garbage(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            loads_jsonl('{"not_an_event": 1}\n')


class TestWallClockAnchor:
    def test_recorder_records_one_epoch_at_init(self):
        before = time.time()
        recorder = TraceRecorder()
        after = time.time()
        assert before <= recorder.wall_epoch <= after

    def test_event_timestamps_stay_relative(self):
        recorder = TraceRecorder()
        recorder.emit("fault", kind="synthetic")
        # Events keep perf_counter deltas: tiny numbers, not epochs.
        assert recorder.events[0].wall_seconds < 1e6


class TestPureProjection:
    """Results are bit-identical with the plane on or off."""

    def test_serial_results_identical_with_plane_installed(self):
        reference = _run_workload().result.values
        plane = LiveTelemetryPlane(
            recorder=FlightRecorder(capacity=None), serve_port=0
        )
        try:
            with configured(live_plane=plane):
                live = _run_workload().result.values
        finally:
            plane.close()
        assert np.array_equal(live, reference)

    @needs_shm
    def test_parallel_results_identical_with_plane_installed(self):
        reference = _run_workload().result.values
        plane = LiveTelemetryPlane(
            recorder=FlightRecorder(capacity=None), serve_port=0
        )
        try:
            with configured(live_plane=plane):
                live = _run_workload(backend="parallel", workers=2)
        finally:
            plane.close()
        assert live.result.degraded is False
        assert np.array_equal(live.result.values, reference)

    def test_install_is_reversible(self):
        assert current().live_plane is None
        plane = LiveTelemetryPlane()
        with configured(live_plane=plane):
            assert current().live_plane is plane
        assert current().live_plane is None


class TestTop:
    def test_render_top_shows_workers_and_balance(self, figure1):
        plane = TestMetricsEndpoint()._serial_plane(figure1)
        try:
            types, samples = parse_openmetrics(
                scrape(plane.server.url + "/metrics")
            )
        finally:
            plane.close()
        frame = render_top(types, samples, target="test")
        assert "repro top" in frame
        assert "W PHASE" in frame
        assert " 0 " in frame

    def test_render_top_without_telemetry(self):
        frame = render_top({}, [], target="empty")
        assert "no live telemetry" in frame

    def test_top_loop_once_renders_one_frame(self, figure1):
        plane = TestMetricsEndpoint()._serial_plane(figure1)
        frames = []
        try:
            rc = top_loop(
                plane.server.url, frames.append, once=True, timeout=5.0
            )
        finally:
            plane.close()
        assert rc == 0
        assert len(frames) == 1
        assert "repro top" in frames[0]

    def test_top_loop_unreachable_is_typed_error(self):
        with pytest.raises(ObservabilityError):
            top_loop(
                "http://127.0.0.1:1", lambda _f: None,
                once=True, timeout=0.2,
            )


class TestRateGauges:
    """Windowed rate gauges: 0 with a guard, never NaN (satellite fix)."""

    def _sampler(self, figure1):
        graph, _root = figure1
        app = SSSP()
        run_graph = app.prepare(graph)
        dispatch = runtime.SerialDispatch(run_graph, app)
        return TelemetrySampler(dispatch, interval=0.01), dispatch, run_graph

    def test_first_sample_has_zero_rates(self, figure1):
        # Scrape before the first window exists: no previous snapshot,
        # so every rate is exactly 0.0 — not a division by zero.
        sampler, dispatch, run_graph = self._sampler(figure1)
        ids = np.arange(run_graph.num_vertices, dtype=np.int64)
        dispatch.pull_apply(ids, "min")
        snap = sampler.sample_once()
        for worker in snap["workers"]:
            assert worker["edges_per_second"] == 0.0
            assert worker["tasks_per_second"] == 0.0

    def test_rates_are_finite_and_positive_after_work(self, figure1):
        sampler, dispatch, run_graph = self._sampler(figure1)
        ids = np.arange(run_graph.num_vertices, dtype=np.int64)
        sampler.sample_once()
        time.sleep(0.02)
        dispatch.pull_apply(ids, "min")
        snap = sampler.sample_once()
        worker = snap["workers"][0]
        assert np.isfinite(worker["edges_per_second"])
        assert np.isfinite(worker["tasks_per_second"])
        assert worker["tasks_per_second"] > 0

    def test_idle_window_rates_are_zero(self, figure1):
        sampler, dispatch, run_graph = self._sampler(figure1)
        ids = np.arange(run_graph.num_vertices, dtype=np.int64)
        dispatch.pull_apply(ids, "min")
        sampler.sample_once()
        time.sleep(0.02)
        snap = sampler.sample_once()
        worker = snap["workers"][0]
        assert worker["edges_per_second"] == 0.0
        assert worker["tasks_per_second"] == 0.0

    def test_populate_projects_rate_families(self, figure1):
        from repro.obs.metrics import MetricsRegistry, render_openmetrics

        sampler, _dispatch, _run_graph = self._sampler(figure1)
        registry = sampler.populate(MetricsRegistry())
        names = {f.name for f in registry.families()}
        assert "repro_parallel_live_edges_per_second" in names
        assert "repro_parallel_live_tasks_per_second" in names
        assert "NaN" not in render_openmetrics(registry)

    def test_empty_snapshot_carries_every_key(self, figure1):
        sampler, _dispatch, _run_graph = self._sampler(figure1)
        empty = sampler._empty_snapshot()
        assert empty["workers"] == []
        assert empty["stalled"] == []


class TestRenderTopGuards:
    """A scrape is external input: garbage must not crash the frame."""

    def test_non_finite_samples_render_safely(self):
        nan, inf = float("nan"), float("inf")
        samples = [
            ("repro_parallel_live_workers", {}, 2.0),
            ("repro_parallel_live_epoch", {}, nan),
            ("repro_parallel_live_degraded", {}, 0.0),
            ("repro_parallel_live_edges", {"worker": "0"}, nan),
            ("repro_parallel_live_edges", {"worker": "1"}, inf),
            ("repro_parallel_live_heartbeat", {"worker": "0"}, -inf),
            ("repro_parallel_live_phase", {"worker": "1"}, nan),
            ("repro_parallel_live_edges_per_second", {"worker": "0"}, nan),
        ]
        frame = render_top({}, samples)
        assert "nan" not in frame.lower()
        assert "inf" not in frame.lower()

    def test_balance_bar_stays_bounded(self):
        samples = [
            ("repro_parallel_live_workers", {}, 2.0),
            ("repro_parallel_live_epoch", {}, 1.0),
            ("repro_parallel_live_degraded", {}, 0.0),
            ("repro_parallel_live_edges", {"worker": "0"}, 1e18),
            ("repro_parallel_live_edges", {"worker": "1"}, 5.0),
        ]
        frame = render_top({}, samples)
        for line in frame.splitlines():
            bar = line.rpartition(" ")[2]
            assert bar.count("#") <= 20


class TestFlightDumpIdempotence:
    """First trigger wins; later triggers are counted, never rewrite."""

    def _recorder_with_events(self):
        rec = FlightRecorder(capacity=32)
        rec.emit(trace_events.RUN_BEGIN, engine="SLFE", app="SSSP")
        rec.emit(trace_events.RUN_END, iterations=3)
        return rec

    def test_second_trigger_is_suppressed(self, tmp_path):
        rec = self._recorder_with_events()
        first = str(tmp_path / "first.jsonl")
        second = str(tmp_path / "second.jsonl")
        assert rec.dump(first, "engine_error") == first
        # Teardown SIGTERM re-triggers with a different path: the
        # original dump must survive untouched.
        assert rec.dump(second, "sigterm") == first
        assert rec.dump(second, "sigterm") == first
        assert rec.suppressed_dumps == 2
        assert rec.dump_reason == "engine_error"
        assert not os.path.exists(second)

    def test_dump_is_atomic_and_replayable_after_suppression(
        self, tmp_path
    ):
        rec = self._recorder_with_events()
        path = str(tmp_path / "flight.jsonl")
        rec.dump(path, "engine_error")
        rec.dump(path, "sigterm")
        # No temp droppings, and the surviving file replays.
        assert [p.name for p in tmp_path.iterdir()] == ["flight.jsonl"]
        replayed = loads_jsonl(open(path, encoding="utf-8").read())
        assert [e.name for e in replayed.events] == [
            trace_events.RUN_BEGIN, trace_events.RUN_END,
        ]

    def test_concurrent_triggers_write_exactly_once(self, tmp_path):
        rec = self._recorder_with_events()
        paths = [str(tmp_path / ("t%d.jsonl" % i)) for i in range(8)]
        results = []

        def trigger(p):
            results.append(rec.dump(p, "race"))

        threads = [
            threading.Thread(target=trigger, args=(p,)) for p in paths
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert rec.suppressed_dumps == 7
        assert len(list(tmp_path.iterdir())) == 1
