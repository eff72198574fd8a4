"""Persistent-pool plumbing: teardown, worker death, and O(1) IPC.

The differential oracle (``tests/test_oracle.py``) proves the pool
computes the right answers; this module proves the pool is *safe to
operate*: a worker that dies or hangs mid-superstep is detected, named
with its phase, and the pool degrades rather than failing the run; a
worker-side exception surfaces as a typed :class:`EngineError`;
``close()`` releases every shared-memory segment even on those paths
(the suite-wide ``hygiene`` fixture fails any test that leaves one
linked); and the trace records that each phase crossed the
parent<->worker boundary a fixed number of times regardless of graph
size.
"""

import time

import pytest

from repro.apps.sssp import SSSP
from repro.bench.runner import run_workload
from repro.errors import EngineError
from repro.trace import recorder as trace_events
from repro.trace.recorder import TraceRecorder

from tests.conftest import needs_shm, pk_executor, pull_all

SCALE = 16000  # the PK stand-in at its smallest

pytestmark = needs_shm


class SleepyApp(SSSP):
    """SSSP whose edge hook outlasts any short reply timeout."""

    def edge_candidates(self, values, srcs, weights):
        time.sleep(1.0)
        return super().edge_candidates(values, srcs, weights)


class FailingApp(SSSP):
    """SSSP whose edge hook always raises inside the worker."""

    def edge_candidates(self, values, srcs, weights):
        raise RuntimeError("injected edge-hook failure")


class TestTeardown:
    def test_close_unlinks_every_segment(self, hygiene):
        ex, _ = pk_executor(num_workers=2)
        assert hygiene.linked()  # the pool did map segments
        ex.close()
        assert not hygiene.linked()

    def _detected(self, recorder):
        return [
            (e.payload["worker"], e.payload["phase"], e.payload["reason"])
            for e in recorder.events_named(trace_events.PARALLEL_RECOVERY)
            if e.payload["action"] == "detected"
        ]

    def test_crashed_worker_is_reported_and_segments_released(self):
        # No respawns: the death is detected, named with its worker and
        # phase, and the pool degrades to the serial phase bodies.
        recorder = TraceRecorder()
        ex, run_graph = pk_executor(
            num_workers=2, max_respawns=0, recorder=recorder
        )
        with ex:
            ex._procs[0].kill()
            ex._procs[0].join(timeout=5)
            pull_all(ex, run_graph)
            assert ex.degraded
        assert self._detected(recorder) == [(0, "pull", "died")]

    def test_hung_worker_times_out_naming_the_phase(self):
        recorder = TraceRecorder()
        ex, run_graph = pk_executor(
            num_workers=1, app=SleepyApp(), reply_timeout=0.2,
            max_respawns=0, recorder=recorder,
        )
        with ex:
            pull_all(ex, run_graph)
            assert ex.degraded
        assert self._detected(recorder) == [(0, "pull", "timeout")]

    def test_worker_exception_carries_traceback_and_phase(self):
        ex, run_graph = pk_executor(num_workers=1, app=FailingApp())
        with ex:
            with pytest.raises(EngineError) as excinfo:
                pull_all(ex, run_graph)
        message = str(excinfo.value)
        assert "pull" in message
        assert "injected edge-hook failure" in message

    def test_failed_construction_leaks_nothing(self, hygiene):
        with pytest.raises(EngineError):
            pk_executor(num_workers=2, chunk_vertices=0)
        assert not hygiene.linked()


class TestDispatchIsConstantIPC:
    def test_one_dispatch_per_phase_with_fixed_message_count(self):
        # The whole point of the persistent pool: per superstep, the
        # parent<->worker boundary is crossed a fixed number of times
        # (one poke + one ack per worker), independent of graph size.
        recorder = TraceRecorder()
        outcome = run_workload(
            "SLFE", "PR", "PK",
            num_nodes=2, scale_divisor=SCALE, recorder=recorder,
            backend="parallel", workers=2,
        )
        dispatches = recorder.events_named(trace_events.PARALLEL_DISPATCH)
        assert dispatches  # the parallel run did trace its IPC
        for event in dispatches:
            assert event.payload["messages"] == 2 * 2
            assert event.payload["control_bytes"] == 2 * 2
        # PR is gather-only: at most ONE dispatch per superstep (a
        # superstep whose live set is empty dispatches nothing), never
        # the per-chunk message storm the old backend produced.
        per_superstep = {}
        for event in dispatches:
            per_superstep[event.superstep] = (
                per_superstep.get(event.superstep, 0) + 1
            )
        assert all(count == 1 for count in per_superstep.values())
        assert len(per_superstep) >= outcome.result.iterations - 1
        epochs = [e.payload["epoch"] for e in dispatches]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)
