"""Shared-memory parallel backend: differential and unit tests.

The backend's whole contract is *bit-identity*: ``--backend parallel``
must produce exactly the values, iteration counts, metrics, and
trace-visible RR/EC behaviour of the serial superstep loops, just
measured on real worker processes.  The differential suite here runs
serial and parallel side by side across apps x engines x worker counts
and asserts exact equality, including under fault injection with
checkpointing and with a warm preprocessing-artifact store.
"""

import tempfile

import numpy as np
import pytest

from repro import parallel
from repro.bench.regression import _registry_snapshot
from repro.bench.runner import run_workload
from repro.errors import EngineError
from repro.trace.recorder import TraceRecorder

SCALE = 16000  # tiny stand-in graphs: differential runs stay fast


def _run(app, engine="SLFE", backend=None, workers=None, **kwargs):
    recorder = TraceRecorder()
    outcome = run_workload(
        engine,
        app,
        "PK",
        num_nodes=2,
        scale_divisor=SCALE,
        recorder=recorder,
        backend=backend,
        workers=workers,
        **kwargs,
    )
    return outcome, recorder


def _assert_identical(serial, parallel_outcome):
    s_out, s_rec = serial
    p_out, p_rec = parallel_outcome
    assert np.array_equal(s_out.result.values, p_out.result.values)
    assert s_out.result.iterations == p_out.result.iterations
    sm, pm = s_out.result.metrics, p_out.result.metrics
    assert sm.total_edge_ops == pm.total_edge_ops
    assert sm.total_messages == pm.total_messages
    assert sm.total_updates == pm.total_updates
    assert sm.total_retries == pm.total_retries
    assert np.array_equal(sm.edge_ops_by_node(), pm.edge_ops_by_node())
    # Trace-visible RR/EC behaviour (skip counts, catch-ups, freezes)
    # must match event for event, not just end values.
    assert _registry_snapshot(s_rec) == _registry_snapshot(p_rec)


class TestDifferential:
    @pytest.mark.parametrize("app", ["SSSP", "CC", "PR"])
    @pytest.mark.parametrize("engine", ["SLFE", "SLFE-noRR"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial(self, app, engine, workers):
        serial = _run(app, engine)
        par = _run(app, engine, backend="parallel", workers=workers)
        _assert_identical(serial, par)

    def test_four_workers(self):
        serial = _run("SSSP")
        par = _run("SSSP", backend="parallel", workers=4)
        _assert_identical(serial, par)

    def test_with_fault_plan_and_checkpoints(self):
        from repro.cluster.faults import FaultPlan

        spec = "crash@3:1,loss@2:0-1,slow@4:0x2.5"

        def plan():
            return FaultPlan.parse(spec, num_nodes=2)

        serial = _run("SSSP", fault_plan=plan(), checkpoint_every=2)
        par = _run(
            "SSSP",
            backend="parallel",
            workers=2,
            fault_plan=plan(),
            checkpoint_every=2,
        )
        _assert_identical(serial, par)

    def test_with_warm_artifact_store(self):
        from repro.store import ArtifactStore, install_store

        with tempfile.TemporaryDirectory() as root:
            previous = install_store(ArtifactStore(root))
            try:
                _run("SSSP")  # cold: populates the guidance artifact
                serial = _run("SSSP")
                par = _run("SSSP", backend="parallel", workers=2)
            finally:
                install_store(previous)
        _assert_identical(serial, par)

    def test_parallel_worker_events_recorded(self):
        _, recorder = _run("SSSP", backend="parallel", workers=2)
        kinds = [event.name for event in recorder.events]
        assert "parallel_worker" in kinds


class TestBackendResolution:
    def test_defaults_serial(self):
        assert parallel.resolve_backend() == ("serial", 1)

    def test_explicit_wins(self):
        assert parallel.resolve_backend("parallel", 3) == ("parallel", 3)

    def test_ambient_install(self):
        previous = parallel.install_backend("parallel", 2)
        try:
            assert parallel.active_backend() == ("parallel", 2)
            assert parallel.resolve_backend() == ("parallel", 2)
            # Explicit arguments beat the ambient install per field:
            # the backend is overridden, the worker count persists.
            assert parallel.resolve_backend("serial") == ("serial", 2)
            assert parallel.resolve_backend("serial", 1) == ("serial", 1)
        finally:
            parallel.uninstall_backend()
        assert parallel.active_backend() == previous

    @pytest.mark.parametrize("backend", ["threads", "", None])
    def test_unknown_backend_rejected(self, backend):
        if backend is None:
            pytest.skip("None means 'inherit', not a backend name")
        with pytest.raises(EngineError):
            parallel.install_backend(backend)

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_bad_worker_counts_rejected(self, workers):
        with pytest.raises(EngineError):
            parallel.resolve_backend("parallel", workers)

    def test_non_capable_engine_rejected(self):
        with pytest.raises(EngineError):
            run_workload(
                "PowerGraph",
                "PR",
                "PK",
                num_nodes=2,
                scale_divisor=SCALE,
                backend="parallel",
                workers=2,
            )


class TestExecutor:
    def test_close_is_idempotent(self):
        from repro.apps.sssp import SSSP
        from repro.bench import workloads

        graph = workloads.load_graph("PK", scale_divisor=SCALE,
                                     weighted=True)
        app = SSSP()
        run_graph = app.prepare(graph)
        executor = parallel.ParallelExecutor(run_graph, app, num_workers=2)
        executor.close()
        executor.close()  # second close must be a no-op

    def test_worker_stats_shape(self):
        from repro.apps.sssp import SSSP
        from repro.bench import workloads

        graph = workloads.load_graph("PK", scale_divisor=SCALE,
                                     weighted=True)
        app = SSSP()
        run_graph = app.prepare(graph)
        values = np.full(run_graph.num_vertices, np.inf)
        values[0] = 0.0
        ids = np.arange(run_graph.num_vertices, dtype=np.int64)
        in_deg = run_graph.in_degrees()
        with parallel.ParallelExecutor(run_graph, app, num_workers=2) as ex:
            ex.values[...] = values
            stats = ex.pull_apply(ids[in_deg > 0], "min")
        assert len(stats) == 2
        for entry in stats:
            assert set(entry) >= {
                "worker", "busy_seconds", "chunks", "steals", "tasks",
                "edges",
            }
        assert sum(e["chunks"] for e in stats) >= 1


class TestMeasuredScaling:
    """SSSP/LJ at a scale where the pool runs many 256-vertex blocks."""

    def test_parallel_matches_serial_at_scale(self):
        serial, par = (
            run_workload(
                "SLFE", "SSSP", "LJ", num_nodes=2,
                scale_divisor=2000, backend=backend, workers=workers,
            )
            for backend, workers in ((None, None), ("parallel", 2))
        )
        assert np.array_equal(serial.result.values, par.result.values)


class TestObservability:
    def test_registry_families_and_report_section(self):
        from repro.obs import registry_from_trace
        from repro.obs.report import build_report, render_markdown

        _, recorder = _run("SSSP", backend="parallel", workers=2)
        registry = registry_from_trace(recorder)
        for name in (
            "repro_parallel_worker_busy_seconds",
            "repro_parallel_worker_chunks",
            "repro_parallel_worker_steals",
            "repro_parallel_worker_edges",
        ):
            family = registry.get(name)
            assert family is not None, name
            assert list(family.samples())
        report = build_report(recorder)
        rows = report["workers"]["per_worker"]
        assert [row["worker"] for row in rows] == [0, 1]
        assert report["workers"]["imbalance"] >= 1.0
        markdown = render_markdown(report)
        assert "Measured intra-node balance" in markdown

    def test_serial_report_has_no_worker_section(self):
        from repro.obs.report import build_report, render_markdown

        _, recorder = _run("SSSP")
        report = build_report(recorder)
        assert report["workers"]["per_worker"] == []
        assert "Measured intra-node balance" not in render_markdown(report)
