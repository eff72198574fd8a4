"""Chaos differential suite: real worker faults under the engines.

``tests/test_parallel_pool.py`` proves the pool fails *loudly* in its
fail-fast configuration; this module proves the default configuration
heals.  Seeded ``worker-crash`` / ``worker-hang`` faults SIGKILL or
SIGSTOP actual pool worker processes mid-phase (pull, gather, and push
each get a turn), and every run must

* finish bit-identical to a fault-free serial run (RR on and off),
* leak zero ``/dev/shm`` segments,
* trace ``parallel_recovery`` events that reconcile exactly with the
  ``repro_parallel_recovery_*`` metric families, and
* flip ``RunResult.degraded`` if — and only if — the respawn budget was
  exhausted.

Fault coordinates are engine-iteration based and chosen for the tiny
PK stand-in graph (scale divisor 16000, 2 simulated nodes): SSSP pushes
at iteration 1 and pulls from iteration 3 (a pull below |E| / 2 active
out-edges dispatches the frontier's push first, as at iteration 4);
PR gathers every iteration.  A fault fires only at its (iteration,
phase) coordinate, and every test asserts that it did, in that phase,
so a schedule drift fails instead of silently testing nothing.
"""

import os
import time

import numpy as np
import pytest

from repro import parallel
from repro.apps.sssp import SSSP
from repro.bench import workloads
from repro.bench.runner import run_workload
from repro.cluster.faults import FaultPlan
from repro.errors import EngineError
from repro.runconfig import KNOBS, configured, current, resolve
from repro.trace import recorder as trace_events
from repro.trace.recorder import TraceRecorder

SCALE = 16000
NODES = 2

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="shared-memory segment accounting needs /dev/shm",
)


def _shm_segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _run(app, engine="SLFE", spec=None, backend=None, workers=None,
         recorder=None):
    plan = FaultPlan.parse(spec, num_nodes=NODES) if spec else None
    return run_workload(
        engine, app, "PK",
        num_nodes=NODES, scale_divisor=SCALE, recorder=recorder,
        backend=backend, workers=workers, fault_plan=plan,
    )


def _recovery_events(recorder):
    return recorder.events_named(trace_events.PARALLEL_RECOVERY)


def _worker_fault_events(recorder):
    return [
        e for e in recorder.events_named(trace_events.FAULT)
        if str(e.payload.get("kind", "")).startswith("worker-")
    ]


def _assert_fired(recorder, spec):
    """The one seeded fault was delivered, and every recovery it caused
    happened in the phase ``spec`` names."""
    phase = spec.rsplit(":", 1)[1].split("-")[0]
    assert [(e.payload["applied"], e.payload["phase"])
            for e in _worker_fault_events(recorder)] == [(True, phase)]
    assert {e.payload["phase"] for e in _recovery_events(recorder)
            if "phase" in e.payload} == {phase}


class TestChaosDifferential:
    """The acceptance matrix: crash each phase, stay bit-identical."""

    # (app, spec): a seeded crash in each of the three dispatch phases,
    # 4-worker pool.  SSSP exercises pull and push (minmax engine); PR
    # exercises gather (arithmetic engine).
    CRASH_MATRIX = [
        ("SSSP", "worker-crash@3:pull-1"),
        ("PR", "worker-crash@1:gather-2"),
        ("SSSP", "worker-crash@1:push-3"),
    ]

    @pytest.mark.parametrize("app,spec", CRASH_MATRIX)
    def test_crash_in_each_phase_recovers_bit_identical(self, app, spec):
        before = _shm_segments()
        reference = _run(app).result.values
        recorder = TraceRecorder()
        outcome = _run(app, spec=spec, backend="parallel", workers=4,
                       recorder=recorder)
        assert not (_shm_segments() - before)
        _assert_fired(recorder, spec)  # the seeded fault really fired
        assert outcome.result.degraded is False
        actions = [e.payload["action"] for e in _recovery_events(recorder)]
        assert actions == ["detected", "respawned", "recovered",
                           "redispatch"]
        assert np.array_equal(outcome.result.values, reference)

    def test_crash_in_the_push_of_a_pull_superstep(self):
        # Iteration 4 is a pull superstep whose touched set and stand-in
        # candidates come from the frontier's push: a crash there must
        # heal before the pull reads the pushed candidates.
        spec = "worker-crash@4:push-1"
        reference = _run("SSSP").result
        recorder = TraceRecorder()
        outcome = _run("SSSP", spec=spec, backend="parallel", workers=4,
                       recorder=recorder)
        assert reference.metrics.records[3].mode == "pull"
        _assert_fired(recorder, spec)
        assert outcome.result.degraded is False
        assert outcome.result.values.tobytes() == reference.values.tobytes()
        assert [r.edge_ops for r in outcome.result.metrics.records] == [
            r.edge_ops for r in reference.metrics.records
        ]

    @pytest.mark.parametrize("engine", ["SLFE", "SLFE-noRR"])
    def test_crash_with_rr_on_and_off(self, engine):
        # The first push (iteration 1) happens with or without RR, so
        # the same coordinates are valid for both engines.
        before = _shm_segments()
        reference = _run("SSSP", engine=engine).result.values
        recorder = TraceRecorder()
        outcome = _run("SSSP", engine=engine, spec="worker-crash@1:push-0",
                       backend="parallel", workers=2, recorder=recorder)
        assert not (_shm_segments() - before)
        _assert_fired(recorder, "worker-crash@1:push-0")
        assert outcome.result.degraded is False
        assert np.array_equal(outcome.result.values, reference)

    def test_hang_recovers_via_reply_timeout(self):
        before = _shm_segments()
        reference = _run("SSSP").result.values
        recorder = TraceRecorder()
        with configured(reply_timeout=1.0):
            outcome = _run("SSSP", spec="worker-hang@1:push-0",
                           backend="parallel", workers=2,
                           recorder=recorder)
        assert not (_shm_segments() - before)
        _assert_fired(recorder, "worker-hang@1:push-0")
        detected = [e for e in _recovery_events(recorder)
                    if e.payload["action"] == "detected"]
        assert [d.payload["reason"] for d in detected] == ["timeout"]
        assert outcome.result.degraded is False
        assert np.array_equal(outcome.result.values, reference)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="the table runs a 2-worker pool"
    )
    def test_measured_hang_recovery_includes_detection(self):
        """The hang row's ``recovery_s`` counts from when the parent
        began waiting on the stopped worker, so it holds the whole reply
        deadline, not just the respawn after it."""
        from repro.bench.experiments import recovery_overhead

        with configured(backend="parallel", num_workers=2):
            table = recovery_overhead.measured_pool_recovery(
                scale_divisor=SCALE
            )
        rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
        hang = rows["worker-hang@1:push-0"]
        assert hang["applied"] and hang["respawns"] == 1
        assert hang["identical"] and not hang["degraded"]
        assert hang["recovery_s"] >= recovery_overhead.MEASURED_HANG_TIMEOUT

    def test_budget_exhaustion_degrades_and_still_matches_serial(self):
        before = _shm_segments()
        reference = _run("SSSP").result.values
        recorder = TraceRecorder()
        with configured(max_respawns=0):
            outcome = _run("SSSP", spec="worker-crash@1:push-0",
                           backend="parallel", workers=2,
                           recorder=recorder)
        assert not (_shm_segments() - before)
        _assert_fired(recorder, "worker-crash@1:push-0")
        assert outcome.result.degraded is True
        actions = [e.payload["action"] for e in _recovery_events(recorder)]
        assert actions == ["detected", "degraded"]
        # Degraded execution is the serial kernels over the same arrays:
        # the answer must not change.
        assert np.array_equal(outcome.result.values, reference)

    @pytest.mark.parametrize("app,spec", [
        ("SSSP", "worker-crash@1:push-0"),
        ("PR", "worker-crash@1:gather-1"),
    ])
    def test_degraded_phases_report_one_serial_block(
        self, monkeypatch, app, spec
    ):
        """Once the budget is exhausted every phase is one block run by
        the parent: one ``parallel_worker`` row (worker 0, the phase's
        whole task list and edges, no steals) and a ``parallel_dispatch``
        receipt with no pipe traffic."""
        inline = []

        def recording(kind, degrees):
            phase = getattr(parallel.ParallelExecutor, kind)

            def wrapped(self, ids, *args):
                out = phase(self, ids, *args)
                if self.degraded:
                    edges = int(getattr(self, degrees)[ids].sum())
                    inline.append((kind.split("_")[0], int(ids.size), edges))
                return out

            monkeypatch.setattr(parallel.ParallelExecutor, kind, wrapped)

        recording("pull_apply", "in_degrees")
        recording("gather", "in_degrees")
        recording("push", "out_degrees")
        reference = _run(app).result
        recorder = TraceRecorder()
        with configured(max_respawns=0):
            outcome = _run(app, spec=spec, backend="parallel", workers=2,
                           recorder=recorder)
        _assert_fired(recorder, spec)
        assert outcome.result.degraded is True
        assert outcome.result.values.tobytes() == reference.values.tobytes()
        events = recorder.events
        at = next(i for i, e in enumerate(events)
                  if e.name == trace_events.PARALLEL_RECOVERY
                  and e.payload["action"] == "degraded")
        workers = [e.payload for e in events[at:]
                   if e.name == trace_events.PARALLEL_WORKER]
        receipts = [e.payload for e in events[at:]
                    if e.name == trace_events.PARALLEL_DISPATCH]
        assert len(inline) > 2 and len(receipts) == len(inline)
        assert [(w["kind"], w["tasks"], w["edges"]) for w in workers] == inline
        for row in workers:
            assert row["worker"] == 0 and row["steals"] == 0
            assert row["chunks"] == (1 if row["tasks"] else 0)
        assert {r["messages"] for r in receipts} == {0}
        assert {r["control_bytes"] for r in receipts} == {0}

    def test_serial_backend_reports_worker_faults_inapplicable(self):
        recorder = TraceRecorder()
        outcome = _run("SSSP", spec="worker-crash@1:push-0",
                       recorder=recorder)
        events = _worker_fault_events(recorder)
        assert [e.payload["applied"] for e in events] == [False]
        assert events[0].payload["reason"] == (
            "serial backend has no pool workers"
        )
        assert outcome.result.degraded is False


class TestRegistryReconciliation:
    """Trace events and ``repro_parallel_recovery_*`` counters agree."""

    def test_counters_match_trace_events(self):
        from repro.obs import registry_from_trace

        recorder = TraceRecorder()
        _run("SSSP", spec="worker-crash@3:pull-1", backend="parallel",
             workers=4, recorder=recorder)
        _assert_fired(recorder, "worker-crash@3:pull-1")
        events = _recovery_events(recorder)
        assert events  # recovery did happen
        registry = registry_from_trace(recorder)

        def by_label(name, label):
            family = registry.get(name)
            if family is None:
                return {}
            index = family.labelnames.index(label)
            totals = {}
            for key, value in family.samples():
                totals[key[index]] = totals.get(key[index], 0) + int(value)
            return totals

        traced_actions = {}
        for event in events:
            action = event.payload["action"]
            traced_actions[action] = traced_actions.get(action, 0) + 1
        assert by_label("repro_parallel_recovery_events",
                        "action") == traced_actions
        traced_respawns = {}
        for event in events:
            if event.payload["action"] == "respawned":
                phase = event.payload["phase"]
                traced_respawns[phase] = traced_respawns.get(phase, 0) + 1
        assert by_label("repro_parallel_recovery_respawns",
                        "phase") == traced_respawns
        # Timed actions project into the seconds counter, same labels.
        timed = {e.payload["action"] for e in events
                 if "seconds" in e.payload}
        seconds = by_label("repro_parallel_recovery_seconds", "action")
        assert set(seconds) == timed

    def test_degraded_runs_counter(self):
        from repro.obs import registry_from_trace

        recorder = TraceRecorder()
        with configured(max_respawns=0):
            _run("SSSP", spec="worker-crash@1:push-0", backend="parallel",
                 workers=2, recorder=recorder)
        _assert_fired(recorder, "worker-crash@1:push-0")
        registry = registry_from_trace(recorder)
        family = registry.get("repro_parallel_recovery_degraded_runs")
        assert family is not None
        assert sum(int(v) for _k, v in family.samples()) == 1


class TestRecoveryConfig:
    """The timeout / budget knobs: every bad value is one typed line."""

    TIMEOUT_ENV = KNOBS["reply_timeout"].env
    RESPAWNS_ENV = KNOBS["max_respawns"].env

    @pytest.mark.parametrize("bad", [0, -1, "0", "abc", float("nan"),
                                     float("inf"), True, None])
    def test_bad_timeout_is_one_typed_line(self, bad):
        if bad is None:
            return  # None means "no override", never an error
        with pytest.raises(EngineError,
                           match="positive number of seconds"):
            with configured(reply_timeout=bad):
                pass

    @pytest.mark.parametrize("bad", [-1, "-2", "no", 1.5, True])
    def test_bad_respawn_budget_is_one_typed_line(self, bad):
        with pytest.raises(EngineError, match="integer >= 0"):
            with configured(max_respawns=bad):
                pass

    def test_failed_install_leaves_ambient_untouched(self):
        with configured(reply_timeout=7.0):
            with pytest.raises(EngineError):
                with configured(reply_timeout=7.0, max_respawns="broken"):
                    pass
            assert (current().reply_timeout, current().max_respawns) == (
                7.0, None)

    def test_environment_resolution_and_precedence(self, monkeypatch):
        monkeypatch.setenv(self.TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(self.RESPAWNS_ENV, "3")
        assert resolve("reply_timeout") == 2.5
        assert resolve("max_respawns") == 3
        # Explicit beats configured beats environment.
        with configured(reply_timeout=9.0, max_respawns=1):
            assert resolve("reply_timeout") == 9.0
            assert resolve("reply_timeout", 4.0) == 4.0
            assert resolve("max_respawns") == 1
            assert resolve("max_respawns", 5) == 5

    def test_bad_environment_values_raise_naming_the_variable(
            self, monkeypatch):
        monkeypatch.setenv(self.TIMEOUT_ENV, "zero")
        with pytest.raises(EngineError, match=self.TIMEOUT_ENV):
            resolve("reply_timeout")
        monkeypatch.setenv(self.RESPAWNS_ENV, "-4")
        with pytest.raises(EngineError, match=self.RESPAWNS_ENV):
            resolve("max_respawns")

    def test_blank_environment_means_default(self, monkeypatch):
        monkeypatch.setenv(self.TIMEOUT_ENV, "  ")
        monkeypatch.setenv(self.RESPAWNS_ENV, "")
        assert resolve("reply_timeout") == KNOBS["reply_timeout"].default
        assert resolve("max_respawns") == KNOBS["max_respawns"].default


def _make_executor(**kwargs):
    graph = workloads.load_graph("PK", scale_divisor=SCALE, weighted=True)
    app = kwargs.pop("app", None) or SSSP()
    run_graph = app.prepare(graph)
    return parallel.ParallelExecutor(run_graph, app, **kwargs), run_graph


def _pull(ex, run_graph):
    in_deg = run_graph.in_degrees()
    ids = np.arange(run_graph.num_vertices, dtype=np.int64)
    return ex.pull_apply(ids[in_deg > 0], "min")


class TestLifecycleAcrossRecovery:
    """close() idempotency and segment accounting on every heal path."""

    def test_respawn_reuses_segments_and_close_is_idempotent(self):
        before = _shm_segments()
        ex, run_graph = _make_executor(num_workers=2)
        try:
            mapped = _shm_segments() - before
            assert mapped
            ex._procs[0].kill()
            ex._procs[0].join(timeout=5)
            _pull(ex, run_graph)  # heals: quarantine + respawn + retry
            assert ex._respawns_used == 1
            assert not ex.degraded
            # The replacement attached to the SAME segments — a respawn
            # must never allocate (or drop) shared memory.
            assert (_shm_segments() - before) == mapped
            _pull(ex, run_graph)  # the healed pool keeps working
        finally:
            ex.close()
            ex.close()  # idempotent: second close is a no-op
        assert not (_shm_segments() - before)

    def test_degrade_then_close_releases_everything_once(self):
        before = _shm_segments()
        ex, run_graph = _make_executor(
            num_workers=2, max_respawns=0, allow_degrade=True
        )
        try:
            ex._procs[1].kill()
            ex._procs[1].join(timeout=5)
            _pull(ex, run_graph)  # budget 0: straight to inline fallback
            assert ex.degraded
            # Degraded execution still runs over the shared arrays;
            # they are only unlinked by close().
            assert _shm_segments() - before
            _pull(ex, run_graph)  # inline path keeps serving dispatches
            assert not any(p.is_alive() for p in ex._procs or [])
        finally:
            ex.close()
            ex.close()
        assert not (_shm_segments() - before)

    def test_close_after_failed_recovery_releases_segments(self):
        # Fail-fast pool: recovery disabled, worker killed -> typed
        # error; close() must still unlink everything exactly once.
        before = _shm_segments()
        ex, run_graph = _make_executor(
            num_workers=2, max_respawns=0, allow_degrade=False
        )
        try:
            ex._procs[0].kill()
            ex._procs[0].join(timeout=5)
            with pytest.raises(EngineError):
                _pull(ex, run_graph)
        finally:
            ex.close()
            ex.close()
        assert not (_shm_segments() - before)

    def test_respawn_does_not_leak_pipe_fds(self):
        # Regression for the _spawn_worker fd leak: the child's pipe end
        # must be closed in the parent on every spawn, including
        # replacements.  Warm up once so multiprocessing's lazy
        # singletons (resource tracker, etc.) are excluded.
        ex, run_graph = _make_executor(num_workers=1)
        _pull(ex, run_graph)
        ex.close()
        baseline = len(os.listdir("/proc/self/fd"))
        ex, run_graph = _make_executor(num_workers=1, max_respawns=10)
        for _ in range(3):
            ex._procs[0].kill()
            ex._procs[0].join(timeout=5)
            _pull(ex, run_graph)
        assert ex._respawns_used == 3
        ex.close()
        assert len(os.listdir("/proc/self/fd")) <= baseline

    def test_hung_worker_is_killed_not_terminated(self):
        # A SIGSTOPped worker never delivers SIGTERM; quarantine and
        # close() must use SIGKILL or the join below hangs forever.
        import signal as _signal

        before = _shm_segments()
        ex, run_graph = _make_executor(num_workers=2, reply_timeout=0.5)
        try:
            os.kill(ex._procs[0].pid, _signal.SIGSTOP)
            t0 = time.monotonic()
            _pull(ex, run_graph)  # detected at the deadline, respawned
            assert time.monotonic() - t0 < 30
            assert ex._respawns_used == 1
        finally:
            ex.close()
            ex.close()
        assert not (_shm_segments() - before)
